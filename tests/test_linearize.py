import json
import math

import numpy as np
import pytest

from kgchain import (
    SeedPoly,
    apply_linear,
    apply_linear_inverse,
    build_A,
    circulant_power,
    linear_normalize,
    poisson_bracket,
    poly_norm,
    realize,
    spectrum_formula,
)
from kgchain.chainpoly import REAL, decay_decompose, fit_decay, norm_pairs

from oracles import seed_product


def dense_quadratic_seedpoly(mat, n):
    """Oracle: the full polynomial (q.Mq + p.Mp)/2 from a dense matrix."""
    acc = SeedPoly.zero(REAL, n)
    for i in range(n):
        for j in range(n):
            if mat[i, j]:
                acc = acc + SeedPoly.term([(i, 1, 0), (j, 1, 0)],
                                          0.5 * mat[i, j], n=n)
                acc = acc + SeedPoly.term([(i, 0, 1), (j, 0, 1)],
                                          0.5 * mat[i, j], n=n)
    return acc


def test_build_A_row_and_errors():
    c = build_A(0.1, 5)
    assert np.allclose(c.row, [1.2, -0.1, 0.0, 0.0, -0.1])
    with pytest.raises(ValueError):
        build_A(-0.01, 5)
    assert np.allclose(build_A(0.0, 5).dense(), np.eye(5))


def test_spectrum_examples():
    c = build_A(0.1, 4)
    assert np.allclose(sorted(c.spectrum), [1.0, 1.2, 1.2, 1.4], atol=1e-12)
    mu = 0.1 / 1.2
    assert mu == pytest.approx(1.0 / 12.0)
    assert -math.log(2 * mu) == pytest.approx(math.log(6.0))


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("a", [0.01, 0.1])
def test_spectrum_formula_and_dense_eig(n, a):
    c = build_A(a, n)
    assert np.max(np.abs(np.sort(c.spectrum)
                         - np.sort(spectrum_formula(a, n)))) <= 1e-12
    ev = np.linalg.eigvalsh(c.dense())
    assert np.max(np.abs(np.sort(c.spectrum) - ev)) <= 1e-12


def test_circulant_power():
    ident = build_A(0.0, 8)
    for alpha in (0.5, -0.25, 2.0):
        assert np.allclose(circulant_power(ident, alpha).row, ident.row)
    c = build_A(0.05, 16)
    half = circulant_power(c, 0.5)
    assert np.max(np.abs(half.dense() @ half.dense() - c.dense())) <= 1e-12
    quarter = circulant_power(c, 0.25)
    m4 = np.linalg.matrix_power(quarter.dense(), 4)
    assert np.max(np.abs(m4 - c.dense())) <= 1e-12
    bad = build_A(0.05, 4)
    bad.spectrum = bad.spectrum - 2.0
    with pytest.raises(ValueError):
        circulant_power(bad, 0.5)


def test_half_power_offdiagonal_decay():
    a, n = 0.05, 16
    mu = a / (1 + 2 * a)
    half = circulant_power(build_A(a, n), 0.5)
    ratios = [abs(half.row[m]) / (2 * mu) ** m for m in range(1, 7)]
    assert all(r <= 1.0 for r in ratios)
    assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))


def test_linear_normalize_quadratic_identity():
    lnf = linear_normalize(0.05, 8)
    lhs = realize(lnf.h_omega, 8) + realize(lnf.zeta0, 8)
    # independent square root through the dense eigendecomposition
    lam, vec = np.linalg.eigh(build_A(0.05, 8).dense())
    bmat = vec @ np.diag(np.sqrt(lam)) @ vec.T
    rhs = dense_quadratic_seedpoly(bmat, 8)
    assert lhs.max_coeff_diff(rhs) <= 1e-12
    br = poisson_bracket(realize(lnf.h_omega, 8), realize(lnf.zeta0, 8))
    assert br.max_abs_coeff() <= 1e-12
    assert 0 not in decay_decompose(lnf.zeta0)


def test_decoupled_limit():
    lnf = linear_normalize(0.0, 4)
    assert lnf.omega == 1.0
    assert lnf.zeta0.is_zero()
    assert lnf.h1.max_coeff_diff(SeedPoly.term([(0, 4, 0)], 0.25, n=4)) == 0
    assert math.isinf(lnf.sigma0)


def test_omega_bracket_by_spectrum():
    for a in (0.01, 0.2):
        lnf = linear_normalize(a, 12)
        roots = np.sqrt(lnf.circ.spectrum)
        assert roots.min() <= lnf.omega <= roots.max()
    assert linear_normalize(1e-9, 8).omega == pytest.approx(1.0, abs=1e-8)


def test_zeta0_norm_extensive():
    norms = [poly_norm(linear_normalize(0.05, n).zeta0, 1.0)
             for n in (8, 16, 32)]
    assert max(norms) - min(norms) <= 1e-10


def test_h1_decay_classes():
    lnf = linear_normalize(0.05, 16)
    prof = fit_decay(norm_pairs(lnf.h1))
    assert prof.check()
    assert prof.sigma >= lnf.sigma0 - 0.1


def test_apply_linear_roundtrip_and_limits(rng):
    lnf = linear_normalize(0.05, 32)
    z = rng.normal(size=64)
    back = apply_linear_inverse(lnf, apply_linear(lnf, z))
    assert np.max(np.abs(back - z)) <= 1e-12
    lnf0 = linear_normalize(0.0, 8)
    z = rng.normal(size=16)
    assert np.max(np.abs(apply_linear(lnf0, z) - z)) <= 1e-14
    with pytest.raises(ValueError):
        apply_linear(lnf, np.zeros(10))


def test_apply_linear_symplectic():
    lnf = linear_normalize(0.07, 16)
    q = np.fft.fft(lnf.row_quarter)
    p = np.fft.fft(lnf.row_quarter_inv)
    assert np.max(np.abs(q * p - 1.0)) <= 1e-12


def test_linear_nf_serializes():
    lnf = linear_normalize(0.05, 8)
    d = lnf.to_dict()
    blob = json.dumps(d, sort_keys=True)
    assert json.loads(blob)["n"] == 8
    assert len(d["b"]) == 4


def test_transformed_hamiltonian_matches_original(rng):
    # realize(h_Omega + zeta0 + h1) equals H(x(q,p)) expanded by the oracle
    n, a = 6, 0.05
    lnf = linear_normalize(a, n)
    transformed = realize(lnf.h_omega, n) + realize(lnf.zeta0, n) \
        + realize(lnf.h1, n)
    # oracle: H0 in (q,p) via dense A^{1/2}; H1 via substituting
    # x = A^{-1/4} q into the on-site quartic
    lam, vec = np.linalg.eigh(build_A(a, n).dense())
    bmat = vec @ np.diag(np.sqrt(lam)) @ vec.T
    wmat = vec @ np.diag(lam ** -0.25) @ vec.T
    oracle = dense_quadratic_seedpoly(bmat, n)
    for j in range(n):
        row = SeedPoly.zero(REAL, n)
        for k in range(n):
            row = row + SeedPoly.term([(k, 1, 0)], wmat[j, k], n=n)
        quartic = row
        for _ in range(3):
            quartic = seed_product(quartic, row)
        oracle = oracle + quartic * 0.25
    assert transformed.max_coeff_diff(oracle) <= 1e-12
