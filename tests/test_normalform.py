import dataclasses
import math

import numpy as np
import pytest

from kgchain import (
    BIRKHOFF,
    NeumannDivergenceError,
    SeedPoly,
    cyclic_shift,
    extract_gdnls,
    invert_lie_omega,
    left_align,
    lie_omega,
    lie_transform_apply,
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
from kgchain import normalform
from kgchain.normalform import (
    GeneratingSequence,
    KernelLeakageError,
    _LieEngine,
    homological_residual,
    remainder_head,
)
from kgchain.chainpoly import REAL, CoordinateError, decay_decompose, sum_polys

from conftest import random_homogeneous, random_seed_poly
from oracles import (
    bits,
    coeff,
    dict_invert,
    dict_sum,
    from_seedpoly,
    imbalance,
    neumann_solve,
    p_birkhoff,
    p_max_diff,
    p_realize,
    p_resonant_projection,
    seed_of,
    single_oscillator_second_order,
)


def test_lie_omega_examples():
    omega = 1.7
    m = SeedPoly.term([(0, 2, 0), (1, 0, 1)], 1.0, kind=BIRKHOFF, n=4)
    out = lie_omega(m, omega)
    assert coeff(out, [(0, 2, 0), (1, 0, 1)]) == pytest.approx(-1j * omega)
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
    assert coeff(inv, [(0, 2, 0), (1, 0, 1)]) == pytest.approx(-1.0)
    with pytest.raises(KernelLeakageError):
        invert_lie_omega(SeedPoly.term([(0, 1, 1)], 1.0, kind=BIRKHOFF,
                                       n=4), omega)


def test_l_omega_operators_reject_real_seeds():
    lnf = linear_normalize(0.05, 4)
    real, omega = lnf.h1, lnf.omega
    calls = [lambda: lie_omega(real, omega), lambda: project_kernel(real),
             lambda: project_range(real),
             lambda: invert_lie_omega(real, omega)]
    for call in calls:
        with pytest.raises(CoordinateError, match="Birkhoff"):
            call()
    # the solver takes and returns real seeds
    for name, args in (("psi", (to_complex(real), lnf.zeta0)),
                       ("zeta0", (real, to_complex(lnf.zeta0)))):
        with pytest.raises(CoordinateError,
                           match=rf"\({name}\) expects a real-kind"):
            solve_homological(*args, omega)


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
    chi, zeta = solve_homological(lnf.h1, lnf.zeta0, lnf.omega)
    assert chi.kind == zeta.kind == REAL
    # K = 0: chi is exactly the diagonal inverse of the range part
    psi = to_complex(lnf.h1)
    direct = to_real(invert_lie_omega(project_range(psi), lnf.omega))
    assert chi._terms == direct._terms
    assert zeta._terms == to_real(project_kernel(psi))._terms


def test_solve_homological_residual_realization():
    lnf = linear_normalize(0.02, 6)
    psi = lnf.h1
    chi, zeta = solve_homological(psi, lnf.zeta0, lnf.omega, tol=1e-13)
    resid = homological_residual(chi, zeta, psi, lnf.zeta0, lnf.omega)
    assert resid <= 1e-10 * poly_norm(to_complex(psi), 1.0)
    # and the same identity on the realized ring
    full = poisson_bracket(
        realize(lnf.h_omega, 6) + realize(lnf.zeta0, 6), realize(chi, 6))
    target = realize(psi, 6) - realize(zeta, 6)
    assert full.max_coeff_diff(target) <= 1e-10


def _full_sector_solve(psi, zeta0, omega, tol=1e-12, prune_rel=None):
    """The Neumann series on both imbalance sectors, with the solver's cuts
    and stopping rule: the reference for the one-sector solve."""
    term = invert_lie_omega(project_range(psi), omega)
    floor = normalform.NEUMANN_CUT * (prune_rel or 0.0) * term.max_abs_coeff()
    total, scale = term, poly_norm(psi, 1.0)
    while poly_norm(term, 1.0) > tol * scale:
        term = -invert_lie_omega(seed_bracket(zeta0, term, prune_rel=prune_rel,
                                              floor=floor), omega)
        total = total + term
    return total, project_kernel(psi)


@pytest.mark.parametrize("n, prune", [(6, None), (8, 1e-7)])
def test_one_sector_solve_matches_the_full_series(n, prune):
    lnf = linear_normalize(0.05, n)
    psi = remainder_head(normal_form(lnf, 1, prune_rel=prune), 2)[0]  # Psi_2
    chi, zeta = solve_homological(psi, lnf.zeta0, lnf.omega, prune_rel=prune)
    ref_chi, ref_zeta = _full_sector_solve(to_complex(psi),
                                           to_complex(lnf.zeta0), lnf.omega,
                                           prune_rel=prune)
    # to_real checks that the reference is a real image
    ref = to_real(ref_chi)
    assert set(chi._terms) == set(ref._terms)
    assert chi.max_coeff_diff(ref) <= 1e-13 * ref.max_abs_coeff()
    assert zeta._terms == to_real(ref_zeta)._terms


@pytest.mark.parametrize("n, prune", [(6, None), (8, 1e-7)])
def test_normal_form_takes_the_solver_output_as_it_is(n, prune):
    # chi_2 and zeta_2 are the solver's real seeds, negated and cut, bit
    # for bit
    lnf = linear_normalize(0.05, n)
    psi = remainder_head(normal_form(lnf, 1, prune_rel=prune), 2)[0]
    chi, zeta = solve_homological(psi, lnf.zeta0, lnf.omega, prune_rel=prune)
    res = normal_form(lnf, 2, prune_rel=prune)
    assert res.seq.chis[1]._terms == (-chi).prune(prune)._terms
    assert res.zetas[1]._terms == zeta.prune(prune)._terms


def test_solver_brackets_the_d_positive_half_only(monkeypatch):
    lnf = linear_normalize(0.05, 6)
    operands = []
    bracket = normalform.seed_bracket

    def recorded(f, g, **kwargs):
        operands.append(g)
        return bracket(f, g, **kwargs)

    monkeypatch.setattr(normalform, "seed_bracket", recorded)
    chi, _ = solve_homological(lnf.h1, lnf.zeta0, lnf.omega)
    assert operands
    assert all(imbalance(k) > 0 for g in operands for k in g._terms)
    # and the returned chi is the whole real polynomial: its image has
    # both sectors
    assert {imbalance(k) > 0 for k in to_complex(chi)._terms} \
        == {True, False}


@pytest.mark.parametrize("prune", [None, 1e-7])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_solver_matches_the_dict_loop_bit_for_bit(rng, n, prune):
    # The Neumann series on lane words changes no summation order: chi
    # and zeta are those of the loop on key dicts, key for key, in the
    # same dict order, every bit and the sign of every zero included.
    # (a shorter series, tol 1e-6, keeps the unpruned grade 3 quick)
    lnf = linear_normalize(0.05, n)
    for grade in (1, 2, 3):
        psi = random_homogeneous(rng, 2 * grade + 2, n, max_sites=3,
                                 terms=2)
        got = solve_homological(psi, lnf.zeta0, lnf.omega, tol=1e-6,
                                prune_rel=prune)
        want = neumann_solve(psi, lnf.zeta0, lnf.omega, tol=1e-6,
                             prune_rel=prune)
        assert [bits(p) for p in got] == [bits(p) for p in want]


def test_solver_matches_the_dict_loop_through_tied_arcs():
    # Psi_2 at N = 8: some bracket outputs hold rows whose covering arcs
    # tie (sites {0, 4}), which the next bracket aligns again, and some
    # hold none; both give the dict loop's bits.
    lnf = linear_normalize(0.05, 8)
    psi = remainder_head(normal_form(lnf, 1, prune_rel=1e-7), 2)[0]
    got = solve_homological(psi, lnf.zeta0, lnf.omega, prune_rel=1e-7)
    want = neumann_solve(psi, lnf.zeta0, lnf.omega, prune_rel=1e-7)
    assert [bits(p) for p in got] == [bits(p) for p in want]


def test_solver_matches_the_dict_loop_at_n16():
    # The order-1 solve of the pruned h1 at N = 16, where nearly every
    # bracket's g is a bracket output with no tied rows: aligning and
    # merging it again gives the dict loop's bits.
    lnf = linear_normalize(0.05, 16)
    psi = lnf.h1.prune(1e-7)
    got = solve_homological(psi, lnf.zeta0, lnf.omega, prune_rel=1e-7)
    want = neumann_solve(psi, lnf.zeta0, lnf.omega, prune_rel=1e-7)
    assert [bits(p) for p in got] == [bits(p) for p in want]


@pytest.mark.parametrize("n", [8, 16])
def test_lane_word_seeds_build_keys_only_when_read(rng, built, n):
    # A bracket's output keeps its lane words: counting, negating and
    # inverting it and bracketing with it build no keys, and each, read,
    # has the keys, order and bits of the same step on key dicts.
    lnf = linear_normalize(0.05, n)
    z0b = to_complex(lnf.zeta0)
    g = project_range(to_complex(random_homogeneous(rng, 6, n, max_sites=5)))
    made = seed_bracket(z0b, g)
    count = made.num_terms()
    neg = -made
    term = -invert_lie_omega(made, lnf.omega)
    out = seed_bracket(z0b, term)
    total = sum_polys([g, made, term])
    norm, top = poly_norm(term, 1.0), term.max_abs_coeff()
    assert not built and not made.is_zero()
    plain = dict(made._terms)
    assert len(plain) == count and len(built) == 1

    def seed(terms):
        return seed_of(BIRKHOFF, n, terms)

    assert bits(neg) == bits(-seed(plain))
    inverted = {k: -c for k, c in dict_invert(plain, lnf.omega).items()}
    assert bits(term) == bits(seed(inverted))
    # the magnitudes of Python's abs, which numpy's complex absolute
    # misses in the last bit for about a third of values
    acc = 0.0
    for c in inverted.values():
        acc += abs(c)
    assert norm == acc
    assert top == max(map(abs, inverted.values()))
    assert bits(out) == bits(seed_bracket(z0b, seed(inverted)))
    assert bits(total) == bits(dict_sum([seed(dict(g._terms)), seed(plain),
                                         seed(inverted)]))
    # a solve builds no keys: the conversions take and give rows
    psi = random_homogeneous(rng, 4, n)
    built.clear()
    solve_homological(psi, lnf.zeta0, lnf.omega)
    assert not built


def test_psi_builds_keys_only_for_the_solver(built):
    # The E_s recursion passes lane words from bracket to bracket: Psi_2
    # is made with no key built, and the solver's to_complex takes its
    # rows and builds none either.
    res = normal_form(linear_normalize(0.05, 6), 1)
    psi = normalform._psi(res._engine, res._h1, res.zetas, 2)
    assert not built and not psi.is_zero()
    to_complex(psi)
    assert not built


def test_keys_are_built_only_for_output(built):
    # Seeds are lane words from the linear normal form to chi and zeta:
    # the nf-coupled solve and the roundtrip transform build no key, and
    # writing the result out is where keys are made.
    lnf, lnf6 = linear_normalize(0.05, 8), linear_normalize(0.05, 6)
    res = normal_form(lnf, 2, prune_rel=1e-7)
    res6 = normal_form(lnf6, 1, s_max=2)
    lie_transform_apply(res6, res6.normal_form_seed(), degree_cap=6)
    assert not built
    res.to_dict()
    assert built


def test_solver_rejects_a_psi_that_is_not_real():
    # a real-kind seed cannot hold an imaginary coefficient, so the kind
    # check is the reality check: a Birkhoff psi is refused, even the
    # image of a real polynomial
    lnf = linear_normalize(0.05, 6)
    with pytest.raises(CoordinateError, match="psi"):
        solve_homological(to_complex(lnf.h1), lnf.zeta0, lnf.omega)
    # zeta0 must lie in the kernel of L_Omega: x_0^2 has a range part
    bad = lnf.zeta0 + SeedPoly.term([(0, 2, 0)], 1e-9, n=6)
    with pytest.raises(CoordinateError, match="zeta0 in the kernel"):
        solve_homological(lnf.h1, bad, lnf.omega)


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
        solve_homological(lnf.h1, big, lnf.omega)


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


def test_lie_transform_identity_and_coordinate_kind(rng):
    lnf = linear_normalize(0.05, 5)
    res = normal_form(lnf, 2)
    empty = GeneratingSequence([])
    f = random_seed_poly(rng, n=5)
    assert lie_transform_apply(empty, f, 8).max_coeff_diff(f) == 0.0
    # f is taken in the coordinates of chi (real); a Birkhoff f fails at
    # the first bracket
    with pytest.raises(CoordinateError):
        lie_transform_apply(res, to_complex(f), 8)


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


def test_transformed_truncation_is_h_below_the_remainder():
    # T_r(J_r) = H - T_r(R_r), and R_r starts at degree 2r+4
    lnf = linear_normalize(0.05, 5)
    for r in (1, 2):
        res = normal_form(lnf, r, s_max=r + 1)
        t = res.transformed_truncation(r)
        assert res.transformed_truncation(r) is t
        assert t.max_degree() == 2 * r + 4
        diff = realize(t, 5) - realize(res.hamiltonian_seed(), 5)
        low = [abs(v) for k, v in diff._terms.items()
               if sum(a + b for _, a, b in k) < 2 * r + 4]
        assert max(low, default=0.0) <= 1e-11
        head = diff.graded_parts()[2 * r + 4] + realize(res.remainder[0],
                                                        5)
        assert head.max_abs_coeff() <= 1e-11
        for bad in (0, r + 1, 1.5, "1", None):
            with pytest.raises(ValueError, match="^r must"):
                res.transformed_truncation(bad)
    # the Lie transform of J_r is the independent reference, below the
    # order (r=1, read off the construction's memo) and at it (r=2)
    for prune, tol in ((None, 1e-13), (1e-7, 5e-7)):
        res = normal_form(lnf, 2, prune_rel=prune)
        for r in (1, 2):
            j = sum_polys([lnf.h_omega, lnf.zeta0] + res.zetas[:r])
            ref = realize(lie_transform_apply(
                GeneratingSequence(res.seq.chis[:r]), j, 2 * r + 4,
                prune_rel=prune), 5)
            got = realize(res.transformed_truncation(r), 5)
            scale = 1.0 if prune is None else ref.max_abs_coeff()
            assert got.max_coeff_diff(ref) <= tol * scale


def test_transformed_truncation_brackets_only_l_chi_h1(monkeypatch):
    # Psi_2 needs L_{chi_1} h_1 and E_1 Z_1; the construction's engine
    # holds E_1 Z_1 (order 2 for Psi_2, order 1 for the remainder head)
    lnf = linear_normalize(0.05, 5)
    results = [normal_form(lnf, 2), normal_form(lnf, 1, s_max=2)]
    calls = []
    bracket = normalform.seed_bracket

    def counted(*args, **kwargs):
        calls.append(args)
        return bracket(*args, **kwargs)

    monkeypatch.setattr(normalform, "seed_bracket", counted)
    for res in results:
        calls.clear()
        res.transformed_truncation(1)
        assert len(calls) == 1
        assert calls[0][0] is res.seq.chis[0]
        assert calls[0][1] is res._h1


def test_remainder_against_single_oscillator_oracle():
    lnf = linear_normalize(0.0, 1)
    res = normal_form(lnf, 1, s_max=2)
    z1_oracle, _, deg6_oracle = single_oscillator_second_order()
    z1 = from_seedpoly(to_complex(res.zetas[0]), 1)
    assert p_max_diff(z1, z1_oracle) <= 1e-13
    rem = from_seedpoly(to_complex(res.remainder[0]), 1)
    assert p_max_diff(rem, deg6_oracle) <= 1e-11


def test_remainder_degrees_and_smax(monkeypatch):
    lnf = linear_normalize(0.05, 5)
    res = normal_form(lnf, 1, s_max=3)
    assert [sorted(h.graded_parts()) for h in res.remainder] == [[6], [8]]
    for bad in (1, 2.0, 2.5):
        with pytest.raises(ValueError, match="s_max"):
            remainder_head(res, bad)

    # a bad s_max is rejected before the first bracket
    def no_bracket(*args, **kwargs):
        raise AssertionError("bracket taken before the s_max check")

    monkeypatch.setattr(normalform, "seed_bracket", no_bracket)
    for order, bad in ((2, 2), (2, 3.5), (1, "2"), (1, 0)):
        with pytest.raises(ValueError, match="s_max"):
            normal_form(lnf, order, s_max=bad)
    # and so is a bad order
    for bad in (0, 1.5, "2", None):
        with pytest.raises(ValueError, match="order"):
            normal_form(lnf, bad)


def test_next_zeta_is_the_kernel_part_of_the_remainder_head():
    # Z_{r+1} = Pi_kernel(Psi_{r+1}) and h^(r)_{r+1} = Psi_{r+1}: the
    # remainder head continues the recursion that builds the normal form
    lnf = linear_normalize(0.05, 5)
    for prune in (None, 1e-7):
        head = normal_form(lnf, 1, s_max=2, prune_rel=prune).remainder[0]
        want = normal_form(lnf, 2, prune_rel=prune).zetas[1]
        got = to_real(project_kernel(to_complex(head))).prune(prune)
        assert got.max_coeff_diff(want) <= 1e-15 * want.max_abs_coeff()
    # a lazy continuation is the eager one, term for term
    eager = normal_form(lnf, 1, s_max=3).remainder
    lazy = remainder_head(normal_form(lnf, 1), 3)
    assert [h._terms for h in lazy] == [h._terms for h in eager]


def test_soft_sign_flag():
    lnf = linear_normalize(0.0, 4)
    res = normal_form(lnf, 1, soft=True)
    assert coeff(res.zetas[0], [(0, 4, 0)]).real == pytest.approx(-3 / 32)


def test_extract_gdnls_limits_and_structure():
    lnf0 = linear_normalize(0.0, 8)
    model0 = extract_gdnls(normal_form(lnf0, 1))
    assert np.allclose(model0.lnf.b, 0.0)
    assert [m for m, _ in model0.zeta1_profile.pairs] == [0]

    ratios = []
    for a in (0.01, 0.02, 0.05):
        lnf = linear_normalize(a, 8)
        model = extract_gdnls(normal_form(lnf, 1))
        ratios.append(abs(model.lnf.b[0]) / lnf.mu)
    assert all(0.2 <= r <= 0.3 for r in ratios)

    lnf = linear_normalize(0.05, 8)
    model = extract_gdnls(normal_form(lnf, 1))
    k_full = realize(lnf.h_omega + lnf.zeta0 + model.zeta1, 8)
    h_om = realize(lnf.h_omega, 8)
    assert poisson_bracket(h_om, k_full).max_abs_coeff() <= 1e-12
    # the quartic parts obey the (2 mu)^m envelope
    prof = model.zeta1_profile
    assert prof.check()
    assert prof.sigma >= lnf.sigma0 - 0.1
    assert "dnls_onsite_display" in model.reference
    assert "dnls_onsite_kernel_average" in model.reference


def test_gdnls_parts_are_a_property_of_zeta1():
    # every reseeding of the same cyclic Z_1 gives the same decay data; the
    # part norms differ only by summation order (1.0e-15 relative at most)
    res = normal_form(linear_normalize(0.05, 8), 1)
    z1 = res.zetas[0]
    want = extract_gdnls(res).to_dict()
    norms, prof = want["zeta1_part_norms"], want["zeta1_profile"]
    for seed in [cyclic_shift(z1, l) for l in range(1, 8)] + [left_align(z1)]:
        got = extract_gdnls(dataclasses.replace(res, zetas=[seed])).to_dict()
        assert got["zeta1_part_norms"] == pytest.approx(norms, rel=1e-14,
                                                        abs=0.0)
        for key in ("c", "sigma"):
            assert got["zeta1_profile"][key] == pytest.approx(
                prof[key], rel=1e-15, abs=0.0)


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


def test_normal_form_rejects_invalid_prune():
    lnf = linear_normalize(0.05, 4)
    for prune in (0.0, -1e-7, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="prune_rel"):
            normal_form(lnf, 1, prune_rel=prune)


def test_every_cut_rejects_invalid_prune():
    # One function makes every coefficient cut; every entry point rejects
    # a bad prune_rel or floor, also where nothing would be cut.
    lnf = linear_normalize(0.05, 4)
    res = normal_form(lnf, 1)
    f, chi = res.normal_form_seed(), res.seq.chis[0]
    zero = SeedPoly.zero(REAL, 4)
    h1, zeta0 = lnf.h1, lnf.zeta0
    # solved without a bracket
    kernel = to_real(project_kernel(to_complex(h1)))
    for prune in (math.nan, math.inf, 0.0, 1.0, -1e-7):
        calls = [lambda: f.prune(prune), lambda: zero.prune(prune),
                 lambda: seed_bracket(chi, f, prune_rel=prune),
                 lambda: seed_bracket(zero, zero, prune_rel=prune),
                 lambda: solve_homological(h1, zeta0, lnf.omega,
                                           prune_rel=prune),
                 lambda: solve_homological(kernel, zeta0, lnf.omega,
                                           prune_rel=prune),
                 lambda: lie_transform_apply(res, f, 6, prune_rel=prune),
                 lambda: lie_transform_apply(res, f, 2, prune_rel=prune)]
        for call in calls:
            with pytest.raises(ValueError, match="prune_rel"):
                call()
    for floor in (math.nan, -1.0, -1e-300):
        with pytest.raises(ValueError, match="floor"):
            seed_bracket(chi, f, floor=floor)
    # a prune_rel below the 1e-15 clean is that clean
    assert f.prune(1e-20)._terms == f._terms
    assert seed_bracket(chi, f, prune_rel=1e-20)._terms \
        == seed_bracket(chi, f)._terms


def test_lie_transform_images_are_homogeneous():
    # E_s raises the degree of a homogeneous seed by exactly 2s, so
    # lie_transform_apply keeps every term of the images it adds.
    res = normal_form(linear_normalize(0.05, 5), 2, s_max=3,
                      prune_rel=1e-6)
    engine = _LieEngine(res.seq.chis, 1e-6)
    pieces = res.normal_form_seed().graded_parts()
    assert sorted(pieces) == [2, 4, 6, 8]
    for d0, piece in pieces.items():
        for s in range((8 - d0) // 2 + 1):
            assert sorted(engine.e_apply(s, piece, d0).graded_parts()) \
                == [d0 + 2 * s]
    out = lie_transform_apply(res, res.normal_form_seed(), 8, prune_rel=1e-6)
    assert sorted(out.graded_parts()) == [2, 4, 6, 8]


def test_pruned_normal_form_is_close_to_unpruned():
    # The E brackets and the final chi_s/zeta_s cut below prune_rel of
    # their own largest coefficient, the Neumann terms below
    # NEUMANN_CUT * prune_rel of the series' first term.
    lnf = linear_normalize(0.05, 6)
    exact = normal_form(lnf, 2)
    pruned = normal_form(lnf, 2, prune_rel=1e-7)
    for got, want in zip(pruned.seq.chis + pruned.zetas,
                         exact.seq.chis + exact.zetas):
        want = left_align(want)
        assert left_align(got).max_coeff_diff(want) \
            <= 5e-7 * want.max_abs_coeff()


def test_pruned_normal_form_does_not_depend_on_n():
    # The Neumann floor is set by the solution's scale, which does not
    # grow with N, so every cut falls in the same place at both sizes.
    seeds = {}
    for n in (16, 32):
        res = normal_form(linear_normalize(0.05, n), 2, prune_rel=1e-7)
        seeds[n] = [left_align(p)._terms for p in res.seq.chis + res.zetas]
    for small, large in zip(seeds[16], seeds[32]):
        assert set(small) == set(large)
        top = max(abs(c) for c in small.values())
        assert max(abs(small[k] - large[k]) for k in small) <= 1e-13 * top
