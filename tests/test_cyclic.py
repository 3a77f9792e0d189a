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
)
from kgchain.cyclic import (
    FieldEvaluator,
    RealizedEvaluator,
    field_norm_decay_bound,
)
from kgchain.chainpoly import fit_decay, norm_pairs, sum_polys

from conftest import random_homogeneous, random_seed_poly
from oracles import (
    from_seedpoly,
    p_diff,
    p_eval,
    p_max_diff,
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


def _assert_matches_shift_sum(f, g):
    """seed_bracket against {f, tau^l g} summed over every shift l and
    left aligned, key by key."""
    ours = seed_bracket(f, g)
    ref = left_align(sum_polys(poisson_bracket(f, cyclic_shift(g, l))
                               for l in range(f.n)))
    top = max(ours.max_abs_coeff(), ref.max_abs_coeff())
    assert ours.max_coeff_diff(ref) <= 1e-13 * top


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
                          random_seed_poly(rng, n=n, max_sites=n)))
    lnf = linear_normalize(0.05, 8)
    cases.append((to_complex(lnf.zeta0),
                  invert_lie_omega(project_range(to_complex(lnf.h1)),
                                   lnf.omega)))
    # One byte per site: N = 9 and 12 take two lanes, N = 17 three, and
    # the last lane of each carries padding bytes.
    for n in (9, 12, 17):
        for _ in range(6):
            f = random_seed_poly(rng, n=n, max_sites=n)
            g = random_seed_poly(rng, n=n, max_sites=n)
            cases += [(f, g), (to_complex(f), to_complex(g))]
    for f, g in cases:
        _assert_matches_shift_sum(f, g)


def _reframed(g, rng):
    """g with each term in its own random frame, and its first term split
    over two frames with coefficients that sum to the original."""
    acc = {}
    for i, (k, c) in enumerate(g._terms.items()):
        parts = [(c, int(rng.integers(g.n)))]
        if i == 0:
            t = float(rng.uniform(0.2, 0.8))
            parts = [(t * c, parts[0][1]), ((1 - t) * c,
                                            int(rng.integers(g.n)))]
        for cc, l in parts:
            for kk, v in cyclic_shift(SeedPoly(g.kind, g.n, {k: cc}),
                                      l)._terms.items():
                acc[kk] = acc.get(kk, 0.0) + v
    return SeedPoly(g.kind, g.n, acc)


def test_seed_bracket_ignores_the_frames_of_g(rng):
    # The kernel sums every shift of g, so the frame each key of g is
    # stored in (and how an orbit's coefficient is split over frames)
    # moves only the order of summation: the keys stay, the values move
    # by rounding, pruned or not.  The keys stay exactly because g is
    # merged per orbit before the sum: unmerged, a cancellation residual
    # can land above the 1e-15 clean in one framing and below it in the
    # other (n = 4 here gives 5.6e-17 against a largest output of 0.036).
    from kgchain import to_complex
    for n in range(3, 9):
        for _ in range(8):
            f = random_seed_poly(rng, n=n, max_sites=n)
            g = random_seed_poly(rng, n=n, max_sites=n)
            if g.is_zero():
                continue
            for ff, gg in ((f, g), (to_complex(f), to_complex(g))):
                moved = _reframed(gg, rng)
                for prune_rel in (None, 1e-2):
                    ours = seed_bracket(ff, gg, prune_rel=prune_rel)
                    other = seed_bracket(ff, moved, prune_rel=prune_rel)
                    assert set(other._terms) == set(ours._terms)
                    top = ours.max_abs_coeff()
                    assert ours.max_coeff_diff(other) <= 1e-13 * top
    # the overflow check still sees g's exponents
    f = SeedPoly.term([(0, 40, 1)], 1.0, n=4)
    g = _reframed(SeedPoly.term([(1, 30, 2)], 1.0, n=4), rng)
    with pytest.raises(ValueError, match="exponent too large"):
        seed_bracket(f, g)


def test_seed_bracket_exponent_overflow():
    # the kernel takes exponent sums of f and g up to 62, no higher
    f = SeedPoly.term([(0, 40, 1)], 1.0, n=4)
    g = SeedPoly.term([(1, 30, 2)], 1.0, n=4)
    with pytest.raises(ValueError, match="exponent too large"):
        seed_bracket(f, g)


def _seed_with_top_exponent(rng, n, top, terms=3):
    """Random two-site terms, and x_0^top y_0, so that the largest
    exponent is exactly ``top``."""
    p = SeedPoly.term([(0, top, 1)], 0.5, n=n)
    for _ in range(terms):
        s = int(rng.integers(n))
        t = (s + int(rng.integers(1, n))) % n
        p = p + SeedPoly.term([(s, int(rng.integers(1, top + 1)),
                                int(rng.integers(0, 3))),
                               (t, int(rng.integers(0, 3)), 1)],
                              float(rng.uniform(-1, 1)), n=n)
    return p


def test_seed_bracket_two_byte_layout(rng):
    # exponent sums from 16 to 62 put two bytes on each site
    for ef, eg in ((8, 8), (9, 12), (20, 20), (40, 22), (31, 31)):
        for n in (3, 5, 9):
            _assert_matches_shift_sum(_seed_with_top_exponent(rng, n, ef),
                                      _seed_with_top_exponent(rng, n, eg))


def test_seed_bracket_exponent_edge():
    # 31 + 31 = 62 is taken, 32 + 31 = 63 is refused
    g = SeedPoly.term([(1, 2, 31)], 1.0, n=4)
    f = SeedPoly.term([(0, 31, 1)], 1.0, n=4)
    _assert_matches_shift_sum(f, g)
    assert seed_bracket(f, g).coeff([(0, 32, 31)]) == 31 * 31 - 2
    with pytest.raises(ValueError, match="exponent too large"):
        seed_bracket(SeedPoly.term([(0, 32, 1)], 1.0, n=4), g)


def test_lane_grouping(rng, monkeypatch):
    # _grouped sums each distinct word in the order the values come in, on
    # one lane, on several lanes by their mix, and on several lanes sorted
    # by the lanes themselves when different words share a mix.
    from kgchain import chainpoly, cyclic
    real_mix = chainpoly._mix
    for lanes in (1, 3):
        words = rng.integers(0, 3, size=(300, lanes)).astype(np.uint64)
        words[:, -1] <<= np.uint64(60)       # the top bits count too
        for vals in (rng.uniform(-1, 1, 300),
                     rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)):
            want = {}
            for w, v in zip(map(tuple, words.tolist()), vals.tolist()):
                want[w] = want.get(w, 0.0) + v
            for mix in (real_mix, lambda w: w[:, 0].copy(),
                        lambda w: np.zeros(len(w), np.uint64)):
                monkeypatch.setattr(chainpoly, "_mix", mix)
                got_w, got_v = cyclic._grouped(words, vals)
                got = list(zip(map(tuple, got_w.tolist()), got_v.tolist()))
                assert dict(got) == want and len(got) == len(want)
                if lanes == 1 or mix is not real_mix:
                    assert [w for w, _ in got] == sorted(want)
                # the stable sort for merges gives the same, and each
                # distinct word's first row
                merged_w, merged_v = cyclic._grouped(words, vals, merge=True)
                assert (merged_w == got_w).all() and (merged_v == got_v).all()
                first, inv = chainpoly._runs(words, merge=True)
                assert (first == [np.flatnonzero(inv == i)[0]
                                  for i in range(len(first))]).all()


def test_aligned_rows_follow_the_tie_rule(rng):
    # _aligned rotates each row so that the arc _arc gives its sites
    # starts at site 0, and says whether every rotated row is its own
    # alignment; a tie between equal largest gaps can break that.
    from kgchain.chainpoly import _aligned, _arc, _layout

    def start(row, n):
        return _arc(np.flatnonzero(row[:n]).tolist(), n)[0]

    for n in (5, 8, 12):
        for top in (3, 20):
            sdt, _, cols = _layout(n, top)
            rows = np.zeros((300, cols), sdt)
            rows[:, :n] = (rng.integers(1, 4, (300, n))
                           * (rng.random((300, n)) < 0.35))
            for _ in range(2):      # the second call reads the cache
                out, fixed = _aligned(rows, n)
                assert out.dtype == sdt and (out[:, n:] == 0).all()
                for row, got in zip(rows, out):
                    want = np.roll(row[:n], -start(row, n))
                    assert got[:n].tolist() == want.tolist()
                assert fixed == all(start(row, n) == 0 for row in out)
    # x_0 y_4^2 at N = 8 starts at site 4, and so does its rotation
    row = np.zeros((1, 8), np.uint8)
    row[0, 0], row[0, 4] = 1, 2 << 4
    out, fixed = _aligned(row, 8)
    assert out[0].tolist() == [2 << 4, 0, 0, 0, 1, 0, 0, 0] and not fixed
    again, fixed = _aligned(out, 8)
    assert (again == row).all() and not fixed


def test_lane_word_seeds_change_layout_exactly(rng):
    # A seed the kernel made in the two-byte layout (an exponent sum of f
    # and g reached 16) enters a one-byte bracket and a sum with a
    # one-byte seed; each gives the bits and key order of the same seed
    # read from its keys.  x_3^15 y_3^15 in f meets every entry of g,
    # whose exponents pair up, with the factor 0, so the output's own
    # exponents stay small.
    from oracles import bits, dict_sum
    n = 6
    for kind in ("real", "birkhoff"):
        def seed(p):
            return SeedPoly(kind, n, p._terms)
        for _ in range(5):
            far = SeedPoly.term([(3, 15, 15)], 0.5, n=n)
            f = seed(random_seed_poly(rng, n=n, max_sites=3, terms=6) + far)
            g = seed(sum_polys(SeedPoly.term(
                [(int(s), int(e), int(e)) for s, e in zip(
                    rng.choice(3, 2, replace=False), rng.integers(1, 3, 2))],
                float(rng.uniform(-1, 1)), n=n) for _ in range(4)))
            h = seed(random_seed_poly(rng, n=n, max_sites=3, terms=6))
            wide, narrow = seed_bracket(f, g), seed_bracket(h, g)
            assert wide._words[0].dtype.itemsize == 2
            assert narrow._words[0].dtype.itemsize == 1
            got, total = seed_bracket(h, wide), sum_polys([narrow, wide])
            assert got._words[0].dtype.itemsize == 1
            plain = seed(wide)
            assert bits(got) == bits(seed_bracket(h, plain))
            assert bits(total) == bits(dict_sum([narrow, plain]))


def test_seed_bracket_chunks_merge(rng, monkeypatch):
    # Tiny chunks give the one-chunk result key for key, up to rounding;
    # a call repeated gives the same items in the same order.
    from kgchain import cyclic, to_complex
    cases = []
    for n in (4, 6, 9):
        for _ in range(4):
            f = random_seed_poly(rng, n=n, max_sites=n, terms=6)
            g = random_seed_poly(rng, n=n, max_sites=n, terms=6)
            cases += [(f, g), (to_complex(f), to_complex(g))]
    whole = [seed_bracket(f, g, prune_rel=1e-3) for f, g in cases]
    monkeypatch.setattr(cyclic, "_CHUNK", 7)
    for (f, g), one in zip(cases, whole):
        parts = seed_bracket(f, g, prune_rel=1e-3)
        assert set(parts._terms) == set(one._terms)
        assert parts.max_coeff_diff(one) <= 1e-13 * one.max_abs_coeff()
        assert list(seed_bracket(f, g, prune_rel=1e-3)._terms.items()) \
            == list(parts._terms.items())


def test_seed_bracket_output_gets_the_clean(rng):
    # Kept words that align onto one key merge after the cut and can
    # cancel: x0 x1 and y0 y1 at N = 3 give two such exact zeros in the
    # complex frame.  The output gets the 1e-15 clean of every SeedPoly.
    from kgchain import to_complex
    from kgchain.chainpoly import PRUNE_REL
    f = to_complex(SeedPoly.term([(0, 1, 0), (1, 1, 0)], 1.0, n=3))
    g = to_complex(SeedPoly.term([(0, 0, 1), (1, 0, 1)], 1.0, n=3))
    cases = [(f, g)]
    for n in range(2, 6):
        for _ in range(10):
            ff = random_seed_poly(rng, n=n, max_sites=n)
            gg = random_seed_poly(rng, n=n, max_sites=n)
            cases += [(ff, gg), (to_complex(ff), to_complex(gg))]
    for ff, gg in cases:
        out = seed_bracket(ff, gg)
        top = out.max_abs_coeff()
        assert all(abs(c) >= PRUNE_REL * top for _, c in out.terms())
        full = poisson_bracket(realize(ff), realize(gg))
        assert realize(out).max_coeff_diff(full) <= 1e-12 * max(top, 1.0)
    assert seed_bracket(f, g).num_terms() == 4


def test_seed_bracket_prune_keeps_the_answer():
    # The large terms of f and g bracket to zero, so the only output term
    # is also the largest; a prune relative to the output must keep it.
    f = SeedPoly.term([(0, 2, 0)], 1.0, n=4)
    g = (SeedPoly.term([(0, 2, 0)], 1e12, n=4)
         + SeedPoly.term([(0, 0, 1)], 1.0, n=4))
    want = {((0, 1, 0),): 2.0}
    assert seed_bracket(f, g)._terms == want
    assert seed_bracket(f, g, prune_rel=1e-3)._terms == want


def test_seed_bracket_floor():
    # {x_0^2, y_0 + 1e-3 x_0 y_0^2} = 2 x_0 + 4e-3 x_0^2 y_0
    f = SeedPoly.term([(0, 2, 0)], 1.0, n=4)
    g = (SeedPoly.term([(0, 0, 1)], 1.0, n=4)
         + SeedPoly.term([(0, 1, 2)], 1e-3, n=4))
    both = {((0, 1, 0),): 2.0, ((0, 2, 1),): 4e-3}
    for prune_rel in (None, 1e-3):
        assert (seed_bracket(f, g, prune_rel=prune_rel, floor=0.0)._terms
                == seed_bracket(f, g, prune_rel=prune_rel)._terms == both)
    # the cut is the larger of the floor and prune_rel * max |out|
    assert seed_bracket(f, g, floor=4e-3)._terms == both
    assert seed_bracket(f, g, floor=5e-3)._terms == {((0, 1, 0),): 2.0}
    assert seed_bracket(f, g, prune_rel=1e-9,
                        floor=5e-3)._terms == {((0, 1, 0),): 2.0}
    assert seed_bracket(f, g, prune_rel=3e-3,
                        floor=1e-9)._terms == {((0, 1, 0),): 2.0}
    assert seed_bracket(f, g, floor=3.0).is_zero()


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
    prof = fit_decay(norm_pairs(f))
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
