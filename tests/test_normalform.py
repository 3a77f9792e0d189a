import math

import numpy as np
import pytest

from kgchain import (
    BIRKHOFF,
    NeumannDivergenceError,
    SeedPoly,
    extract_gdnls,
    invert_lie_omega,
    lie_omega,
    lie_transform_apply,
    lie_transform_inverse,
    linear_normalize,
    normal_form,
    poisson_bracket,
    poly_norm,
    project_kernel,
    project_range,
    realize,
    seed_bracket,
    solve_homological,
    standard_dnls,
    to_complex,
    to_real,
)
from kgchain.normalform import (
    GeneratingSequence,
    KernelLeakageError,
    homological_residual,
    remainder_head,
)
from kgchain.chainpoly import REAL, decay_decompose
from kgchain.cyclic import symmetric_parts

from conftest import random_seed_poly
from oracles import (
    from_seedpoly,
    p_birkhoff,
    p_max_diff,
    p_realize,
    p_resonant_projection,
    single_oscillator_second_order,
)


def test_lie_omega_examples():
    omega = 1.7
    m = SeedPoly.term([(0, 2, 0), (1, 0, 1)], 1.0, kind=BIRKHOFF, n=4)
    out = lie_omega(m, omega)
    assert out.coeff([(0, 2, 0), (1, 0, 1)]) == pytest.approx(-1j * omega)
    res = SeedPoly.term([(0, 1, 1)], 1.0, kind=BIRKHOFF, n=4)
    assert lie_omega(res, omega).is_zero()


def test_projectors_resum_and_idempotent(rng):
    f = to_complex(random_seed_poly(rng, n=5))
    k = project_kernel(f)
    r = project_range(f)
    assert (k + r).max_coeff_diff(f) == 0.0
    assert project_kernel(k).max_coeff_diff(k) == 0.0
    assert project_range(k).is_zero()
    assert project_kernel(r).is_zero()


def test_invert_lie_omega():
    omega = 2.0
    g = SeedPoly.term([(0, 2, 0), (1, 0, 1)], 1j * omega,
                      kind=BIRKHOFF, n=4)
    inv = invert_lie_omega(g, omega)
    assert inv.coeff([(0, 2, 0), (1, 0, 1)]) == pytest.approx(-1.0)
    with pytest.raises(KernelLeakageError):
        invert_lie_omega(SeedPoly.term([(0, 1, 1)], 1.0, kind=BIRKHOFF,
                                       n=4), omega)


def test_invert_is_right_inverse(rng):
    omega = 1.3
    for _ in range(5):
        g = project_range(to_complex(random_seed_poly(rng, n=5)))
        if g.is_zero():
            continue
        back = lie_omega(invert_lie_omega(g, omega), omega)
        assert back.max_coeff_diff(g) <= 1e-13 * max(g.max_abs_coeff(), 1)


def test_solve_homological_decoupled():
    lnf = linear_normalize(0.0, 4)
    psi = to_complex(lnf.h1)
    chi, zeta = solve_homological(psi, to_complex(lnf.zeta0), lnf.omega)
    # K = 0: chi is exactly the diagonal inverse of the range part
    direct = invert_lie_omega(project_range(psi), lnf.omega)
    assert chi.max_coeff_diff(direct) == 0.0
    assert zeta.max_coeff_diff(project_kernel(psi)) == 0.0


def test_solve_homological_residual_realization():
    lnf = linear_normalize(0.02, 6)
    psi = to_complex(lnf.h1)
    z0b = to_complex(lnf.zeta0)
    chi, zeta = solve_homological(psi, z0b, lnf.omega, tol=1e-13)
    resid = homological_residual(chi, zeta, psi, z0b, lnf.omega)
    assert resid <= 1e-10 * poly_norm(psi, 1.0)
    # and the same identity on the realized ring
    full = poisson_bracket(
        realize(lnf.h_omega, 6) + realize(lnf.zeta0, 6),
        realize(to_real(chi), 6))
    target = realize(to_real(psi), 6) - realize(to_real(zeta), 6)
    assert full.max_coeff_diff(target) <= 1e-10


def test_k_operator_preserves_range(rng):
    lnf = linear_normalize(0.05, 6)
    z0b = to_complex(lnf.zeta0)
    for _ in range(5):
        g = project_range(to_complex(random_seed_poly(rng, n=6)))
        bracket = seed_bracket(z0b, g)
        leak = poly_norm(project_kernel(bracket), 1.0)
        assert leak <= 1e-12 * max(poly_norm(bracket, 1.0), 1e-30)


def test_neumann_divergence_detected():
    lnf = linear_normalize(0.05, 6)
    big = SeedPoly.zero(REAL, 6)
    big = big + SeedPoly.term([(0, 1, 0), (1, 1, 0)], 20.0, n=6)
    big = big + SeedPoly.term([(0, 0, 1), (1, 0, 1)], 20.0, n=6)
    with pytest.raises(NeumannDivergenceError):
        solve_homological(to_complex(lnf.h1), to_complex(big), lnf.omega)


def test_decoupled_zeta1_rotation_average():
    lnf = linear_normalize(0.0, 4)
    res = normal_form(lnf, 1)
    z1 = res.zetas[0]
    # rotation-average oracle: mean over the circle of (R cos t)^4 / 4
    theta = np.linspace(0.0, 2.0 * np.pi, 20001)
    avg = np.trapezoid(np.cos(theta) ** 4 / 4.0, theta) / (2.0 * np.pi)
    assert avg == pytest.approx(3.0 / 32.0, abs=1e-9)
    target = (SeedPoly.term([(0, 4, 0)], avg, n=4)
              + SeedPoly.term([(0, 2, 2)], 2 * avg, n=4)
              + SeedPoly.term([(0, 0, 4)], avg, n=4))
    assert z1.max_coeff_diff(target) <= 1e-9
    exact = (SeedPoly.term([(0, 4, 0)], 3 / 32, n=4)
             + SeedPoly.term([(0, 2, 2)], 6 / 32, n=4)
             + SeedPoly.term([(0, 0, 4)], 3 / 32, n=4))
    assert z1.max_coeff_diff(exact) <= 1e-13


def test_zeta1_structure_at_small_coupling():
    lnf = linear_normalize(0.05, 8)
    res = normal_form(lnf, 1)
    onsite = decay_decompose(res.zetas[0]).get(0)
    shape = {(0, 4, 0): 1.0, (0, 2, 2): 2.0, (0, 0, 4): 1.0}
    coeffs = {m.exps[0][1:]: c.real for m, c in onsite.terms()}
    c0 = coeffs[(4, 0)]
    for key, w in shape.items():
        assert coeffs[key[1:]] == pytest.approx(w * c0, rel=1e-10)
    # the leading constant is the kernel average up to O(mu)
    assert abs(c0 - 3.0 / 32.0) <= lnf.mu


def test_kernel_purity_order2():
    lnf = linear_normalize(0.05, 6)
    res = normal_form(lnf, 2)
    for z in res.zetas:
        zb = to_complex(realize(z, 6))
        assert lie_omega(zb, lnf.omega).max_abs_coeff() <= 1e-12
    for chi in res.seq.chis:
        cb = to_complex(realize(chi, 6))
        assert poly_norm(project_kernel(cb), 1.0) <= 1e-12


def test_lie_transform_identity_and_inverse(rng):
    lnf = linear_normalize(0.05, 5)
    res = normal_form(lnf, 2)
    empty = GeneratingSequence(0, [])
    f = random_seed_poly(rng, n=5)
    assert lie_transform_apply(empty, f, 8).max_coeff_diff(f) == 0.0
    tf = lie_transform_apply(res, f, 8)
    back = lie_transform_inverse(res.seq, tf, 8)
    diff = back - f
    low = {k: v for k, v in diff._terms.items()
           if sum(a + b for _, a, b in k) <= 8}
    assert max((abs(v) for v in low.values()), default=0.0) <= 1e-11


def test_round_trip_small():
    lnf = linear_normalize(0.05, 4)
    res = normal_form(lnf, 1, s_max=2)
    tr = lie_transform_apply(res, res.normal_form_seed(), degree_cap=6)
    lhs = realize(tr, 4)
    rhs = realize(res.hamiltonian_seed(), 4)
    diff = lhs - rhs
    low = {k: v for k, v in diff._terms.items()
           if sum(a + b for _, a, b in k) <= 6}
    assert max((abs(v) for v in low.values()), default=0.0) <= 1e-11


def test_remainder_against_single_oscillator_oracle():
    lnf = linear_normalize(0.0, 1)
    res = normal_form(lnf, 1, s_max=2)
    z1_oracle, _, deg6_oracle = single_oscillator_second_order()
    z1 = from_seedpoly(to_complex(res.zetas[0]), 1)
    assert p_max_diff(z1, z1_oracle) <= 1e-13
    rem = from_seedpoly(to_complex(res.remainder[0]), 1)
    assert p_max_diff(rem, deg6_oracle) <= 1e-11


def test_remainder_degrees_and_smax():
    lnf = linear_normalize(0.05, 5)
    res = normal_form(lnf, 1, s_max=3)
    assert [h.degrees() for h in res.remainder] == [[6], [8]]
    with pytest.raises(ValueError):
        remainder_head(res, 1)


def test_soft_sign_flag():
    lnf = linear_normalize(0.0, 4)
    res = normal_form(lnf, 1, soft=True)
    assert res.zetas[0].coeff([(0, 4, 0)]).real == pytest.approx(-3 / 32)


def test_extract_gdnls_limits_and_structure():
    lnf0 = linear_normalize(0.0, 8)
    model0 = extract_gdnls(normal_form(lnf0, 1))
    assert np.allclose(model0.b, 0.0)
    assert model0.zeta1_parts.keys() == {0}

    ratios = []
    for a in (0.01, 0.02, 0.05):
        lnf = linear_normalize(a, 8)
        model = extract_gdnls(normal_form(lnf, 1))
        ratios.append(abs(model.b[0]) / lnf.mu)
    assert all(0.2 <= r <= 0.3 for r in ratios)

    lnf = linear_normalize(0.05, 8)
    model = extract_gdnls(normal_form(lnf, 1))
    k_full = realize(model.k_seed, 8)
    h_om = realize(lnf.h_omega, 8)
    assert poisson_bracket(h_om, k_full).max_abs_coeff() <= 1e-12
    # symmetric quartic parts obey the (2 mu)^m envelope
    prof = model.zeta1_profile
    assert prof.check()
    assert prof.sigma >= lnf.sigma0 - 0.1
    assert "dnls_onsite_display" in model.reference
    assert "dnls_onsite_kernel_average" in model.reference


def test_standard_dnls_coefficients_and_oracle():
    a, energy, n = 0.05, 0.1, 6
    std = standard_dnls(a, energy, n)
    assert std.coeff_quadratic == a / 2
    assert std.coeff_quartic == 3 * energy / 8
    assert std.coeff_quadratic == pytest.approx(0.025, abs=1e-16)
    assert std.coeff_quartic == pytest.approx(0.0375, abs=1e-16)

    # resonance-module projector oracle on the realized ring
    f0 = [([1], [2], [0], a / 2), ([0], [2], [0], a / 2),
          ([0, 1], [1, 1], [0, 0], -a)]
    from oracles import from_seed_terms
    dense_f0 = p_birkhoff(p_realize(from_seed_terms(f0, n), n), n)
    oracle_z0 = p_resonant_projection(dense_f0, n)
    ours = from_seedpoly(realize(std.z0, n), n)
    assert p_max_diff(ours, oracle_z0) <= 1e-13

    assert standard_dnls(a, 0.0, n).z1.is_zero()
    with pytest.raises(ValueError):
        standard_dnls(-1.0, 0.1, n)


def test_standard_dnls_chi0_solves_removal():
    a, n = 0.05, 6
    std = standard_dnls(a, 0.1, n)
    omega = 1.0
    resid = lie_omega(std.chi0, omega)
    # L_omega chi0 = f0 - Z0 (the range part)
    f0 = (SeedPoly.term([(1, 2, 0)], a / 2, n=n)
          + SeedPoly.term([(0, 2, 0)], a / 2, n=n)
          + SeedPoly.term([(0, 1, 0), (1, 1, 0)], -a, n=n))
    target = to_complex(f0) - std.z0
    assert resid.max_coeff_diff(target) <= 1e-14


def test_generating_sequence_in_range(rng):
    lnf = linear_normalize(0.03, 6)
    res = normal_form(lnf, 2)
    for chi in res.seq.chis:
        cb = to_complex(chi)
        assert poly_norm(project_kernel(cb), 1.0) \
            <= 1e-12 * max(poly_norm(cb, 1.0), 1e-30)


def test_cyclic_symmetry_of_outputs():
    from kgchain import cyclic_shift
    lnf = linear_normalize(0.05, 6)
    res = normal_form(lnf, 2, s_max=3)
    for seed in res.zetas + res.seq.chis + res.remainder:
        full = realize(seed, 6)
        assert cyclic_shift(full, 1).max_coeff_diff(full) \
            <= 1e-12 * max(full.max_abs_coeff(), 1e-30)
