import math

import numpy as np
import pytest

from kgchain import (
    CoordinateError,
    SeedPoly,
    cyclic_shift,
    field_norm,
    field_seed,
    left_align,
    poisson_bracket,
    poly_norm,
    realize,
    seed_bracket,
    symmetric_align,
    symmetric_parts,
)
from kgchain.cyclic import (
    FieldEvaluator,
    FieldSeed,
    RealizedEvaluator,
    field_norm_decay_bound,
)
from kgchain.chainpoly import decay_decompose, fit_decay, sum_polys

from conftest import random_homogeneous, random_seed_poly
from oracles import (
    from_seedpoly,
    p_diff,
    p_eval,
    p_max_diff,
    p_poisson,
    p_realize,
)


def test_shift_orientation_example():
    f = SeedPoly.term([(0, 1, 0), (1, 0, 1)], 1.0, n=4)
    shifted = cyclic_shift(f, 1)
    assert shifted.coeff([(3, 1, 0), (0, 0, 1)]) == 1.0


def test_shift_group_order(rng):
    f = random_seed_poly(rng, n=5)
    g = f
    for _ in range(5):
        g = cyclic_shift(g, 1)
    assert g.max_coeff_diff(f) == 0.0
    const = SeedPoly.term([], 3.0, n=5)
    assert cyclic_shift(const, 1).max_coeff_diff(const) == 0.0


def test_realize_examples():
    h = SeedPoly.term([(0, 2, 0)], 0.5, n=3) + \
        SeedPoly.term([(0, 0, 2)], 0.5, n=3)
    full = realize(h, 3)
    for j in range(3):
        assert full.coeff([(j, 2, 0)]) == 0.5
        assert full.coeff([(j, 0, 2)]) == 0.5
    # wrap-around doubling at N = 2
    pair = SeedPoly.term([(0, 1, 0), (1, 1, 0)], 1.0, n=2)
    assert realize(pair, 2).coeff([(0, 1, 0), (1, 1, 0)]) == 2.0


def test_realize_matches_oracle(rng):
    for n in (3, 5):
        f = random_seed_poly(rng, n=n)
        assert p_max_diff(from_seedpoly(realize(f, n), n),
                          p_realize(from_seedpoly(f, n), n)) <= 1e-13


def test_realize_cap():
    f = SeedPoly.term([(0, 1, 0)], 1.0, n=20)
    with pytest.raises(ValueError):
        realize(f, 20)
    # realize and the evaluators read N from the seed: another n is an error
    g = SeedPoly.term([(0, 1, 0)], 1.0, n=8)
    with pytest.raises(CoordinateError, match="n=8"):
        realize(g, 6)
    with pytest.raises(TypeError):
        RealizedEvaluator(g, 16)


def test_seed_bracket_disjoint_supports():
    # single-site x-only seeds bracket to zero at every shift
    f = SeedPoly.term([(0, 2, 0)], 1.0, n=6)
    g = SeedPoly.term([(0, 3, 0)], 1.0, n=6)
    assert seed_bracket(f, g).is_zero()


def test_seed_bracket_equivalence(rng):
    for n in (4, 5, 6):
        for _ in range(20):
            f = random_seed_poly(rng, n=n)
            g = random_seed_poly(rng, n=n)
            lhs = realize(seed_bracket(f, g), n)
            rhs = poisson_bracket(realize(f, n), realize(g, n))
            assert lhs.max_coeff_diff(rhs) <= 1e-12


def test_seed_bracket_keys_match_shift_sum(rng):
    # Key by key, not only after realization: left_align breaks ties
    # between equal largest gaps by the frame, so a kernel that builds the
    # words in another frame realizes the same function but stores some
    # orbits under other keys.
    from kgchain import (invert_lie_omega, linear_normalize, project_range,
                         to_complex)
    cases = []
    for n in (4, 5, 6, 8):
        for _ in range(10):
            cases.append((random_seed_poly(rng, n=n, max_sites=n),
                          random_seed_poly(rng, n=n, max_sites=n), n))
    lnf = linear_normalize(0.05, 8)
    cases.append((to_complex(lnf.zeta0),
                  invert_lie_omega(project_range(to_complex(lnf.h1)),
                                   lnf.omega), 8))
    for f, g, n in cases:
        ours = seed_bracket(f, g)
        ref = left_align(sum_polys(poisson_bracket(f, cyclic_shift(g, l))
                                   for l in range(n)))
        top = max(ours.max_abs_coeff(), ref.max_abs_coeff())
        assert ours.max_coeff_diff(ref) <= 1e-13 * top


def test_seed_bracket_exponent_overflow():
    # an output exponent must fit its 6-bit field of the packed word
    f = SeedPoly.term([(0, 40, 1)], 1.0, n=4)
    g = SeedPoly.term([(1, 30, 2)], 1.0, n=4)
    with pytest.raises(ValueError, match="exponent too large"):
        seed_bracket(f, g)


def test_seed_bracket_h_omega_zeta0_commute():
    from kgchain import linear_normalize
    lnf = linear_normalize(0.05, 8)
    br = seed_bracket(lnf.h_omega, lnf.zeta0)
    assert realize(br, 8).max_abs_coeff() <= 1e-13


def test_seed_bracket_norm_extensive(rng):
    # the same seed pair (sites < 3) on rings of 8, 16 and 32 sites
    f = random_seed_poly(rng, n=8, max_sites=3)
    g = random_seed_poly(rng, n=8, max_sites=3)
    norms = [poly_norm(seed_bracket(SeedPoly(f.kind, n, dict(f._terms)),
                                    SeedPoly(g.kind, n, dict(g._terms))),
                       1.0)
             for n in (8, 16, 32)]
    assert max(norms) - min(norms) <= 1e-14 * max(norms)


def test_symmetric_align_example():
    f = SeedPoly.term([(0, 1, 0), (3, 1, 0)], 1.0, n=8)
    sa = symmetric_align(f)
    assert realize(sa, 8).max_coeff_diff(realize(f, 8)) <= 1e-14
    parts = symmetric_parts(f)
    assert list(parts) == [3]


def test_symmetric_align_realization(rng):
    for _ in range(10):
        f = random_seed_poly(rng, n=8, max_sites=8)
        assert realize(symmetric_align(f), 8).max_coeff_diff(
            realize(f, 8)) <= 1e-13


def test_symmetric_h1_parts_decay():
    # centred expansion of the transformed quartic keeps the full rate
    from kgchain import linear_normalize
    lnf = linear_normalize(0.05, 16)
    parts = symmetric_parts(lnf.h1)
    prof = fit_decay(parts)
    assert prof.check()
    assert prof.sigma >= lnf.sigma0 - 0.1


def test_field_seed_harmonic():
    omega = 1.3
    h = SeedPoly.term([(0, 2, 0)], 0.5 * omega, n=6) + \
        SeedPoly.term([(0, 0, 2)], 0.5 * omega, n=6)
    fs = field_seed(h)
    assert fs.xq.coeff([(0, 0, 1)]) == pytest.approx(omega)
    assert fs.xp.coeff([(0, 1, 0)]) == pytest.approx(-omega)
    assert field_norm(fs, 2.0) == pytest.approx(2 * omega * 2.0)


def test_field_seed_quartic():
    f = SeedPoly.term([(0, 4, 0)], 0.25, n=6)
    fs = field_seed(f)
    assert fs.xq.is_zero()
    assert field_norm(fs, 2.0) == pytest.approx(2.0 ** 3)


def test_field_shift_law_against_gradient(rng):
    for n in (4, 6):
        f = random_seed_poly(rng, n=n)
        fs = field_seed(f)
        full = realize(f, n)
        for j in range(n):
            assert cyclic_shift(fs.xq, -j).max_coeff_diff(
                full.partial(j, 1)) <= 1e-13
            assert cyclic_shift(fs.xp, -j).max_coeff_diff(
                full.partial(j, 0).scaled(-1.0)) <= 1e-13


def test_field_operator_norm_bound(rng):
    # ||X_F(z)|| <= |||X_F|||_1 ||z||^r in both norms
    n = 8
    for _ in range(5):
        deg = int(rng.integers(2, 5))
        f = random_homogeneous(rng, deg, n=n)
        ev = FieldEvaluator(f)
        fs = field_seed(f)
        fn1 = field_norm(fs, 1.0)
        for _ in range(50):
            z = rng.normal(size=2 * n)
            val = ev(z)
            for norm in (2, np.inf):
                nz = np.linalg.norm(z, norm)
                nv = np.linalg.norm(val, norm)
                assert nv <= fn1 * nz ** (deg - 1) * (1 + 1e-10)


def test_field_norm_decay_bound(rng):
    # class members obey 4 r R^{r-1} C_f / (1-e^-sigma)^2
    n = 12
    f = random_homogeneous(rng, 4, n=n, max_sites=4)
    prof = fit_decay(decay_decompose(f))
    fs = field_seed(f)
    for radius in (0.5, 1.0, 2.0):
        bound = field_norm_decay_bound(prof.c, prof.sigma, 4, radius)
        assert field_norm(fs, radius) <= bound * (1 + 1e-12)


def _mixed_sign_state(rng, n):
    """Normal state with some exact zeros, so both signs and 0 occur."""
    z = rng.normal(size=2 * n)
    z[rng.choice(2 * n, size=3, replace=False)] = 0.0
    return z


def test_evaluators_match_oracle(rng):
    # F(z) and X_F(z) = (dF/dy, -dF/dx) against the dense realization
    for n in (5, 6, 8):
        for deg in (2, 3, 4, 5):
            f = random_homogeneous(rng, deg, n=n, max_sites=4)
            full = p_realize(from_seedpoly(f, n), n)
            size = {k: abs(v) for k, v in full.items()}
            ev, fe = RealizedEvaluator(f), FieldEvaluator(f)
            for _ in range(4):
                z = _mixed_sign_state(rng, n)
                az = np.abs(z)
                assert abs(ev(z) - p_eval(full, z)) \
                    <= 1e-13 * p_eval(size, az).real
                field = fe(z)
                for j in range(n):
                    for got, var, sign in ((field[j], n + j, 1.0),
                                           (field[n + j], j, -1.0)):
                        d = p_diff(full, var)
                        scale = p_eval({k: abs(v) for k, v in d.items()},
                                       az).real
                        assert abs(got - sign * p_eval(d, z)) \
                            <= 1e-13 * scale


def _direct_shift_values(p, n, sign, state):
    """Per-shift values in the direct form, every gathered coordinate
    raised to its power; entry l uses the sites shifted by sign * l."""
    terms = p.terms()
    width = max((len(m.exps) for m, _ in terms), default=1)
    coeff = np.array([c.real for _, c in terms])
    ent = np.zeros((3, len(terms), width), dtype=np.int64)
    for i, (m, _) in enumerate(terms):
        for j, e in enumerate(m.exps):
            ent[:, i, j] = e
    sites, a, b = ent
    idx = (sites[:, :, None] + sign * np.arange(n)) % n
    x, y = state[:n], state[n:]
    return coeff @ (x[idx] ** a[:, :, None]
                    * y[idx] ** b[:, :, None]).prod(axis=1)


def test_evaluators_bit_identical_to_direct_powers(rng):
    # the gather table changes no bit of the realized value or the field
    from kgchain import linear_normalize
    lnf = linear_normalize(0.05, 8)
    seeds = [random_homogeneous(rng, deg, n=8, max_sites=4)
             for deg in (2, 3, 4, 5)] + [lnf.h1, lnf.zeta0]
    for f in seeds:
        ev, fe = RealizedEvaluator(f), FieldEvaluator(f)
        fs = field_seed(f)
        for scale in (1e-2, 1.0, 3.0):
            z = scale * _mixed_sign_state(rng, 8)
            assert ev(z) == float(_direct_shift_values(f, 8, -1, z).sum())
            assert np.array_equal(fe(z), np.concatenate(
                [_direct_shift_values(fs.xq, 8, 1, z),
                 _direct_shift_values(fs.xp, 8, 1, z)]))
