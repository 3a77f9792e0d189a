import json

import numpy as np
import pytest

from kgchain import (
    REAL,
    CoordinateError,
    SeedPoly,
    decay_decompose,
    fit_decay,
    left_align,
    linear_normalize,
    poisson_bracket,
    poly_norm,
    reality_defect,
    seed_bracket,
    seed_from_dict,
    seed_to_dict,
    support_info,
    to_complex,
    to_real,
)
from kgchain.chainpoly import envelope_constant
from kgchain.cyclic import cyclic_shift

from conftest import random_homogeneous, random_seed_poly
from oracles import from_seedpoly, p_max_diff, p_poisson


def test_canonical_pair_bracket():
    f = SeedPoly.term([(0, 1, 0)], 1.0, n=8)
    g = SeedPoly.term([(0, 0, 1)], 1.0, n=8)
    br = poisson_bracket(f, g)
    assert br.num_terms() == 1
    assert br.coeff([]) == 1.0


def test_bracket_of_self_vanishes(rng):
    f = random_seed_poly(rng, n=5)
    assert poisson_bracket(f, f).max_abs_coeff() == 0.0


def test_bracket_against_differentiation_oracle(rng):
    n = 4
    for _ in range(30):
        f = random_seed_poly(rng, n=n)
        g = random_seed_poly(rng, n=n)
        ours = from_seedpoly(poisson_bracket(f, g), n)
        theirs = p_poisson(from_seedpoly(f, n), from_seedpoly(g, n), n)
        assert p_max_diff(ours, theirs) <= 1e-13


def test_bracket_bilinear_antisymmetric_jacobi(rng):
    for _ in range(20):
        f = random_seed_poly(rng, n=6)
        g = random_seed_poly(rng, n=6)
        h = random_seed_poly(rng, n=6)
        anti = poisson_bracket(f, g) + poisson_bracket(g, f)
        assert anti.max_abs_coeff() <= 1e-12
        lin = poisson_bracket(f + g, h) - poisson_bracket(f, h) \
            - poisson_bracket(g, h)
        assert lin.max_abs_coeff() <= 1e-12
        jac = (poisson_bracket(f, poisson_bracket(g, h))
               + poisson_bracket(g, poisson_bracket(h, f))
               + poisson_bracket(h, poisson_bracket(f, g)))
        assert jac.max_abs_coeff() <= 1e-12


def test_bracket_degree_and_norm_bound(rng):
    checked = 0
    while checked < 100:
        r = int(rng.integers(2, 5))
        s = int(rng.integers(2, 5))
        f = random_homogeneous(rng, r, n=6)
        g = random_homogeneous(rng, s, n=6)
        br = poisson_bracket(f, g)
        if not br.is_zero():
            assert br.degrees() == [r + s - 2]
        bound = r * s * poly_norm(f, 1.0) * poly_norm(g, 1.0)
        assert poly_norm(br, 1.0) <= bound * (1 + 1e-12)
        checked += 1


def test_poly_norm_examples():
    f = SeedPoly.term([(0, 2, 0), (1, 0, 1)], 3.0, n=8)
    assert poly_norm(f, 2.0) == pytest.approx(24.0, abs=0)
    assert poly_norm(SeedPoly.zero(n=8), 1.0) == 0.0
    quartic = SeedPoly.term([(0, 4, 0)], 0.25, n=8)
    assert poly_norm(quartic, 1.0) == pytest.approx(0.25, abs=0)
    with pytest.raises(ValueError):
        poly_norm(quartic, 0.0)


def test_norm_shift_invariance(rng):
    f = random_seed_poly(rng, n=7)
    for s in range(7):
        assert poly_norm(cyclic_shift(f, s), 1.3) == pytest.approx(
            poly_norm(f, 1.3), rel=1e-14)


def test_harmonic_seed_to_complex():
    h = SeedPoly.term([(0, 2, 0)], 0.5, n=8) \
        + SeedPoly.term([(0, 0, 2)], 0.5, n=8)
    hb = to_complex(h)
    assert hb.num_terms() == 1
    assert hb.coeff([(0, 1, 1)]) == pytest.approx(1j, abs=1e-15)


def test_complexification_roundtrip_and_reality(rng):
    for _ in range(10):
        f = random_seed_poly(rng, n=8)
        fb = to_complex(f)
        assert reality_defect(fb) <= 1e-14 * max(fb.max_abs_coeff(), 1.0)
        assert to_real(fb).max_coeff_diff(f) <= 1e-14


def test_coordinate_kind_errors(rng):
    f = random_seed_poly(rng, n=4)
    with pytest.raises(CoordinateError):
        to_real(f)
    with pytest.raises(CoordinateError):
        to_complex(to_complex(f))
    with pytest.raises(CoordinateError):
        poisson_bracket(f, to_complex(f))
    with pytest.raises(CoordinateError):
        poisson_bracket(f, random_seed_poly(rng, n=5))
    # every seed carries its chain size, and seeds on other rings do not mix
    for make in (lambda: SeedPoly.term([(0, 1, 0)], 1.0),
                 lambda: SeedPoly.zero(), lambda: SeedPoly(REAL, None, {})):
        with pytest.raises(CoordinateError, match="chain size"):
            make()
    with pytest.raises(CoordinateError, match="chain-size mismatch"):
        seed_bracket(f, random_seed_poly(rng, n=5))


def test_support_and_left_align():
    f = SeedPoly.term([(3, 1, 0), (5, 1, 0)], 1.0, n=8)
    info = support_info(f)
    assert info.sites == (3, 5)
    assert info.distance == 2
    assert not info.left_aligned
    la = left_align(f)
    assert la.coeff([(0, 1, 0), (2, 1, 0)]) == 1.0
    const = SeedPoly.term([], 2.5, n=8)
    cinfo = support_info(const)
    assert cinfo.sites == () and cinfo.distance == 0 and cinfo.left_aligned


def test_left_align_preserves_realization(rng):
    from kgchain import realize
    for _ in range(10):
        f = random_seed_poly(rng, n=6, max_sites=6)
        assert realize(left_align(f), 6).max_coeff_diff(
            realize(f, 6)) <= 1e-13


def test_decay_decompose_examples():
    f = SeedPoly.term([(0, 4, 0)], 1.0, n=8) + \
        SeedPoly.term([(0, 3, 0), (1, 1, 0)], 1.0, n=8)
    parts = decay_decompose(f)
    assert sorted(parts) == [0, 1]
    assert parts[0].coeff([(0, 4, 0)]) == 1.0
    assert parts[1].coeff([(0, 3, 0), (1, 1, 0)]) == 1.0
    single = decay_decompose(
        SeedPoly.term([(2, 1, 0), (4, 0, 1)], 1.0, n=8))
    assert list(single) == [2]


def test_decay_parts_resum(rng):
    for _ in range(10):
        f = random_seed_poly(rng, n=8, max_sites=8)
        parts = decay_decompose(f)
        total = SeedPoly.zero(f.kind, f.n)
        for p in parts.values():
            total = total + p
        assert total.max_coeff_diff(left_align(f)) == 0.0


def test_zeta0_envelope_rate():
    # numeric decay of the square-root coupling entries at a = 0.05
    lnf = linear_normalize(0.05, 16)
    prof = fit_decay(decay_decompose(lnf.zeta0))
    assert prof.check()
    assert prof.sigma >= lnf.sigma0 - 0.1


def test_fit_decay_is_envelope_not_regression():
    pairs = [(0, 1.0), (1, 0.5), (2, 0.4), (3, 0.02)]
    prof = fit_decay(pairs)
    assert prof.check()
    assert envelope_constant(pairs, prof.sigma) == pytest.approx(prof.c)


def test_json_roundtrip_bit_stable(rng):
    for kind_complex in (False, True):
        f = random_seed_poly(rng, n=6)
        if kind_complex:
            f = to_complex(f)
        d = seed_to_dict(f)
        f2 = seed_from_dict(json.loads(json.dumps(d)))
        assert f2.max_coeff_diff(f) == 0.0
        assert json.dumps(seed_to_dict(f2)) == json.dumps(d)


def test_empty_polynomial_is_valid_everywhere():
    z = SeedPoly.zero(n=4)
    assert poly_norm(z, 2.0) == 0.0
    assert poisson_bracket(z, z).is_zero()
    assert decay_decompose(z) == {}
    assert support_info(z).distance == 0


def test_real_kind_rejects_complex_coefficients():
    with pytest.raises(CoordinateError):
        SeedPoly.term([(0, 1, 0)], 1.0 + 0.5j, n=8)
