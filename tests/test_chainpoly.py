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
    norm_pairs,
    poisson_bracket,
    poly_norm,
    reality_defect,
    seed_bracket,
    seed_from_dict,
    seed_to_dict,
    to_complex,
    to_real,
)
from kgchain.chainpoly import (BIRKHOFF, Monomial, envelope_constant, mirror,
                               sum_polys, _imbalance_sectors, _to_real_sectors)
from kgchain.normalform import lie_omega, project_kernel, project_range
from kgchain.cyclic import RealizedEvaluator, cyclic_shift

from conftest import random_homogeneous, random_seed_poly
from oracles import (bits, dict_convert, dict_decay_decompose, dict_lie_omega,
                     dict_mirror, dict_partial, dict_project, dict_sectors,
                     dict_seed_from_dict, dict_sum, dict_to_real_sectors,
                     coeff, from_seedpoly, imbalance, p_birkhoff, p_max_diff,
                     p_poisson, p_real, seed_convert, unique_first_ids)


def test_canonical_pair_bracket():
    f = SeedPoly.term([(0, 1, 0)], 1.0, n=8)
    g = SeedPoly.term([(0, 0, 1)], 1.0, n=8)
    br = poisson_bracket(f, g)
    assert br.num_terms() == 1
    assert coeff(br, []) == 1.0


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
            assert sorted(br.graded_parts()) == [r + s - 2]
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
    assert coeff(hb, [(0, 1, 1)]) == pytest.approx(1j, abs=1e-15)


def test_complexification_roundtrip_and_reality(rng):
    for _ in range(10):
        f = random_seed_poly(rng, n=8)
        fb = to_complex(f)
        assert reality_defect(fb) <= 1e-14 * max(fb.max_abs_coeff(), 1.0)
        assert to_real(fb).max_coeff_diff(f) <= 1e-14


def test_mirror_is_the_reality_map(rng):
    # an involution that takes sector d onto -d; f + mirror(f) is real
    for _ in range(10):
        fb = to_complex(random_seed_poly(rng, n=8)) \
            + SeedPoly.term([(0, 2, 1), (2, 0, 3)], 0.3 - 0.7j,
                            kind=BIRKHOFF, n=8)
        assert mirror(mirror(fb))._terms == fb._terms
        assert sorted(imbalance(k) for k in mirror(fb)._terms) \
            == sorted(-imbalance(k) for k in fb._terms)
        half = SeedPoly(BIRKHOFF, 8, {k: c for k, c in fb._terms.items()
                                      if imbalance(k) > 0})
        assert reality_defect(half + mirror(half)) == 0.0


def test_to_real_expands_half_of_a_real_image(rng):
    # to_real expands the d >= 0 terms only; the reference expands all
    for _ in range(10):
        fb = to_complex(random_seed_poly(rng, n=8, terms=8, max_degree=6))
        full = seed_convert(fb._terms, -1)
        top = max(map(abs, full.values()), default=1.0)
        got = to_real(fb)
        assert set(got._terms) <= set(full)
        assert max(abs(full[k] - got._terms.get(k, 0.0)) for k in full) \
            <= 1e-13 * top
    # a term without its mirror is not the image of a real polynomial
    odd = fb + SeedPoly.term([(0, 2, 1), (2, 0, 3)], 1e-6, kind=BIRKHOFF,
                             n=8)
    with pytest.raises(CoordinateError, match="reality defect"):
        to_real(odd)


def test_to_real_takes_real_images_at_the_conversion_tolerance():
    # to_real's guard is REAL_IMAG_TOL: a defect of 5e-14 of the largest
    # |c| is refused
    fb = to_complex(linear_normalize(0.05, 6).h1)
    lone = SeedPoly.term([(0, 1, 2), (1, 0, 1)], 5e-14 * fb.max_abs_coeff(),
                         kind=BIRKHOFF, n=6)
    bad = fb + lone
    top = bad.max_abs_coeff()
    assert 1e-14 * top < reality_defect(bad) <= 1e-13 * top
    with pytest.raises(CoordinateError, match="^to_real expects the image"):
        to_real(bad)


def _random_entries(rng, n, max_sites, max_exp):
    sites = rng.choice(n, size=int(rng.integers(1, max_sites + 1)),
                       replace=False)
    return [(int(s), int(rng.integers(0, max_exp + 1)),
             int(rng.integers(0, max_exp + 1))) for s in sites]


def test_to_complex_matches_dense_oracle(rng):
    # The round trip cannot see forward and inverse site tables that are
    # wrong in matching ways, so check the forward one against the dense
    # substitution, on odd and even degrees with per-site exponents up to 5.
    for n in (3, 5):
        for parity in (0, 1):
            f = SeedPoly.zero(n=n)
            while f.num_terms() < 5:
                ents = _random_entries(rng, n, 3, 5)
                deg = sum(a + b for _, a, b in ents)
                if deg and deg % 2 == parity:
                    f = f + SeedPoly.term(ents, float(rng.uniform(-1, 1)),
                                          n=n)
            fb = to_complex(f)
            oracle = p_birkhoff(from_seedpoly(f, n), n)
            assert p_max_diff(from_seedpoly(fb, n), oracle) \
                <= 1e-13 * fb.max_abs_coeff()


def test_to_real_matches_dense_oracle(rng):
    # The inverse table against the dense inverse substitution, on odd and
    # even degrees with per-site exponents up to 5.  The input g + mirror(g)
    # is a real image built without to_complex.
    for n in (3, 5):
        for parity in (0, 1):
            g = SeedPoly.zero(BIRKHOFF, n)
            while g.num_terms() < 5:
                ents = _random_entries(rng, n, 3, 5)
                deg = sum(a + b for _, a, b in ents)
                if deg and deg % 2 == parity:
                    c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    g = g + SeedPoly.term(ents, c, kind=BIRKHOFF, n=n)
            fb = g + mirror(g)
            f = to_real(fb)
            oracle = p_real(from_seedpoly(fb, n), n)
            assert p_max_diff(from_seedpoly(f, n), oracle) \
                <= 1e-13 * f.max_abs_coeff()


def test_conversion_kernel_matches_the_per_term_reference(rng):
    # Both directions against the per-term expansion, on seeds up to
    # degree 8 over up to 8 sites: the same key set after the clean, and
    # coefficients within 1e-13 of the largest.  Each seed also holds terms
    # c (x_s^2 + y_s^2) x_t y_t with integer c, whose images cancel exactly
    # in entries of the dense tensors (x^2 + y^2 = 2i xi eta).
    for n in (4, 8):
        for _ in range(12):
            f = SeedPoly.zero(n=n)
            for _ in range(6):
                ents = _random_entries(rng, n, min(n, 8), 2)
                if 0 < sum(a + b for _, a, b in ents) <= 8:
                    f = f + SeedPoly.term(ents, float(rng.uniform(-1, 1)),
                                          n=n)
                s, t = (int(x) for x in rng.choice(n, 2, replace=False))
                c = float(rng.integers(1, 4))
                for e1, e2 in (((s, 2, 0), (t, 1, 1)), ((s, 0, 2), (t, 1, 1))):
                    f = f + SeedPoly.term([e1, e2], c, n=n)
            fb = to_complex(f)
            for got, kind, ref in ((fb, BIRKHOFF, seed_convert(f._terms, 1)),
                                   (to_real(fb), REAL,
                                    seed_convert(fb._terms, -1))):
                ref = SeedPoly(kind, n, ref)
                assert set(got._terms) == set(ref._terms)
                assert got.max_coeff_diff(ref) <= 1e-13 * ref.max_abs_coeff()
            # the exact cancellations leave keys out of the image
            assert fb.num_terms() < len(seed_convert(f._terms, 1))


def test_coordinate_kind_errors(rng):
    f = random_seed_poly(rng, n=4)
    fb = to_complex(f)
    # one check names the function that asks and the kind it expects
    for call, name, kind in ((mirror, "mirror", "Birkhoff"),
                             (reality_defect, "reality_defect", "Birkhoff"),
                             (to_real, "to_real", "Birkhoff"),
                             (to_complex, "to_complex", "real"),
                             (RealizedEvaluator, "RealizedEvaluator", "real")):
        with pytest.raises(CoordinateError,
                           match=f"^{name} expects a {kind}-kind"):
            call(fb if kind == "real" else f)
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
    la = left_align(f)
    assert coeff(la, [(0, 1, 0), (2, 1, 0)]) == 1.0


def test_covering_arc_tie_rule():
    # the arc starts after the first largest circular gap counted from the
    # smallest site: x_0 y_4 at N=8 has two gaps of 4 and starts at 4
    def keys(p):
        return [m.exps for m, _ in p.terms()]
    tie = SeedPoly.term([(0, 1, 0), (4, 0, 1)], 1.0, n=8)
    assert keys(left_align(tie)) == [((0, 0, 1), (4, 1, 0))]
    wrap = SeedPoly.term([(1, 1, 0), (7, 0, 1)], 1.0, n=8)
    assert keys(left_align(wrap)) == [((0, 0, 1), (2, 1, 0))]
    assert list(decay_decompose(wrap)) == [2]


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
    assert coeff(parts[0], [(0, 4, 0)]) == 1.0
    assert coeff(parts[1], [(0, 3, 0), (1, 1, 0)]) == 1.0
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
    prof = fit_decay(norm_pairs(lnf.zeta0))
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
        # negation is exact and keeps every key in its place; a real-kind
        # value stays complex(-re, 0.0), as the clean of scaled(-1.0) makes it
        neg = -f
        assert list(neg._terms) == list(f._terms)
        assert all(neg._terms[k] == -c for k, c in f._terms.items())
        if not kind_complex:
            assert json.dumps(seed_to_dict(neg)) \
                == json.dumps(seed_to_dict(f.scaled(-1.0)))


def test_empty_polynomial_is_valid_everywhere():
    z = SeedPoly.zero(n=4)
    assert poly_norm(z, 2.0) == 0.0
    assert poisson_bracket(z, z).is_zero()
    assert decay_decompose(z) == {}


def test_partial_reads_block_0_or_1_only():
    # d/dx_0 and d/dy_0 of x_0 y_0^2; any other block raises, and a site
    # off the ring gives zero
    f = SeedPoly.term([(0, 1, 2)], 1.0, n=3)
    assert f.partial(0, 0)._terms == {((0, 0, 2),): 1.0}
    assert f.partial(0, 1)._terms == {((0, 1, 1),): 2.0}
    for block in (-1, 2, 7):
        with pytest.raises(ValueError, match="block"):
            f.partial(0, block)
    assert f.partial(3, 1).is_zero() and f.partial(-1, 0).is_zero()


def test_real_kind_rejects_complex_coefficients():
    with pytest.raises(CoordinateError):
        SeedPoly.term([(0, 1, 0)], 1.0 + 0.5j, n=8)


def test_constructor_checks_sites_and_exponents():
    # A row has a field per site and padding past n, so an off-ring site
    # would land in the padding and vanish, and a negative exponent would
    # wrap around in its field: the constructor refuses both, and an
    # exponent of 256 or more, which no field holds.
    for n, site in ((5, 6), (9, 12), (5, -1)):
        with pytest.raises(CoordinateError, match="off the ring"):
            SeedPoly(REAL, n, {((site, 1, 0),): 1.0})
    with pytest.raises(ValueError, match="negative exponent"):
        SeedPoly(REAL, 5, {((0, -1, 0), (1, 0, 1)): 1.0})
    with pytest.raises(ValueError, match="exponent too large"):
        SeedPoly(REAL, 5, {((0, 256, 0),): 1.0})
    assert coeff(SeedPoly(REAL, 5, {((4, 255, 0),): 1.0}),
                 [(4, 255, 0)]) == 1
    # seed_from_dict reads outside JSON through the same checks
    good = seed_to_dict(SeedPoly.term([(1, 2, 1)], 0.5, n=5))
    for field, value, error in (("sites", [6], CoordinateError),
                                ("xexp", [-1], ValueError),
                                ("yexp", [300], ValueError)):
        bad = json.loads(json.dumps(good))
        bad["terms"][0][field] = value
        with pytest.raises(error):
            seed_from_dict(bad)
    assert seed_to_dict(seed_from_dict(good)) == good


def test_constructor_refuses_keys_whose_sites_do_not_increase():
    # A row has one field per site, so a repeated site would keep only its
    # last entry (x_0 x_0 read back as x_0), and two spellings of one
    # monomial would make two equal rows.  SeedPoly.term and seed_from_dict
    # canonicalise their keys first.
    for terms in ({((0, 1, 0), (0, 1, 0)): 1.0},
                  {((1, 1, 0), (0, 1, 0)): 1.0},
                  {((2, 1, 0), (3, 0, 1), (3, 1, 0)): 1.0},
                  {((0, 1, 0), (1, 1, 0)): 1.0, ((1, 1, 0), (0, 1, 0)): 2.0}):
        with pytest.raises(ValueError, match="strictly increase"):
            SeedPoly(REAL, 5, terms)
    # a zero-exponent entry is accepted and dropped
    assert SeedPoly(REAL, 5, {((0, 0, 0), (1, 1, 0)): 1.0})._terms \
        == {((1, 1, 0),): 1.0}
    assert SeedPoly.term([(0, 1, 0), (0, 1, 0)], 1.0, n=5)._terms \
        == {((0, 2, 0),): 1.0}
    assert SeedPoly.term([(1, 1, 0), (0, 1, 0)], 1.0, n=5)._terms \
        == {((0, 1, 0), (1, 1, 0)): 1.0}


def _reference_seeds(rng, n):
    """Random real seeds and Birkhoff seeds with signed zero parts on n
    sites, in the 1-byte and the 2-byte layout."""
    out = []
    for wide in (False, True):
        f = random_seed_poly(rng, n=n, max_sites=min(n, 4), terms=6)
        if wide:
            f = f + SeedPoly.term([(n - 1, 16, 1)], 0.25, n=n)
        fb = to_complex(f)
        extra = {Monomial(_random_entries(rng, n, min(n, 3), 2)).exps: c
                 for c in (complex(-0.0, 0.7), complex(0.3, -0.0),
                           complex(-0.4, -0.2))}
        out += [f, fb, SeedPoly(BIRKHOFF, n, {**fb._terms, **extra})]
    return out


@pytest.mark.parametrize("n", range(1, 10))
def test_row_versions_match_their_dict_references(rng, n):
    # The conversion, the reality map, the L_Omega operators, derivatives,
    # the decay split and the JSON reader run on rows; each gives the keys,
    # key order and bits, signed zeros included, of its key-dict version.
    seeds = _reference_seeds(rng, n)
    assert {p._words[0].dtype.itemsize for p in seeds} == {1, 2}
    for p in seeds:
        if p.kind == REAL:
            assert bits(to_complex(p)) \
                == bits(dict_convert(p._terms.items(), BIRKHOFF, n))
        else:
            assert bits(_to_real_sectors(*_imbalance_sectors(p))) \
                == bits(dict_to_real_sectors(n, *dict_sectors(p)))
            assert bits(mirror(p)) == bits(dict_mirror(p))
            assert bits(lie_omega(p, 1.3)) == bits(dict_lie_omega(p, 1.3))
            assert bits(project_kernel(p)) == bits(dict_project(p, True))
            assert bits(project_range(p)) == bits(dict_project(p, False))
            if reality_defect(p) == 0.0:
                assert bits(to_real(p)) \
                    == bits(dict_to_real_sectors(n, *dict_sectors(p)))
        for site in range(n + 1):
            for block in (0, 1):
                assert bits(p.partial(site, block)) \
                    == bits(dict_partial(p, site, block))
        got, want = decay_decompose(p), dict_decay_decompose(p)
        assert list(got) == list(want)
        assert [bits(q) for q in got.values()] \
            == [bits(q) for q in want.values()]
        # a JSON dict with one term split over two entries, one of them
        # with its site entries out of order
        d = seed_to_dict(p)
        t = dict(d["terms"][0], re=0.25, im=-0.0)
        d["terms"].append({k: v[::-1] if isinstance(v, list) else v
                           for k, v in t.items()})
        want = dict_seed_from_dict(d)
        assert bits(seed_from_dict(d)) \
            == [(k, c.real.hex(), c.imag.hex()) for k, c in want.items()]


@pytest.mark.parametrize("n", range(1, 21))
def test_terms_follow_the_graded_order(rng, n):
    # terms() orders the rows with numpy as Python's sort orders the keys
    # by (degree, key), in both layouts and both kinds
    seeds = _reference_seeds(rng, n)
    for top in (3, 20):
        seeds.append(SeedPoly(REAL, n, {
            Monomial(_random_entries(rng, n, min(n, 6), top)).exps: c
            for c in rng.uniform(-1, 1, 40)}))
    seeds += [SeedPoly.zero(REAL, n), SeedPoly.zero(BIRKHOFF, n)]
    assert {p._words[0].dtype.itemsize for p in seeds} == {1, 2}
    for p in seeds:
        want = sorted(p._terms.items(),
                      key=lambda kc: (sum(a + b for _, a, b in kc[0]), kc[0]))
        got = [(m.exps, c) for m, c in p.terms()]
        assert [(k, c.real.hex(), c.imag.hex()) for k, c in got] \
            == [(k, c.real.hex(), c.imag.hex()) for k, c in want]


def test_first_ids_match_the_unique_numbering(rng, monkeypatch):
    # _first_ids numbers rows by sorting their lane words, on one lane as
    # it is, on several by their mix, and by the lanes themselves when
    # different rows share a mix: the numbering numpy's unique over rows
    # gives, in first-appearance order
    from kgchain import chainpoly
    real_mix = chainpoly._mix
    for width in (1, 3, 8):
        for count in (0, 1, 300):
            x = rng.integers(0, 3, size=(count, width)).astype(np.intp)
            x[:, -1] <<= 60         # the top bits count too
            want = unique_first_ids(x)
            for mix in (real_mix, lambda w: w[:, 0].copy(),
                        lambda w: np.zeros(len(w), np.uint64)):
                monkeypatch.setattr(chainpoly, "_mix", mix)
                got = chainpoly._first_ids(x.view("<u8"))
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_sum_polys_matches_the_dict_sum(rng):
    # sum_polys sums on lane words whatever layout its inputs have: the
    # keys, their order and every bit, the sign of a zero part included,
    # are those of the key-by-key sum.
    for n in (5, 11):
        for kind in (REAL, BIRKHOFF):
            def draw():
                p = random_seed_poly(rng, n=n, max_sites=4, terms=8)
                return to_complex(p) if kind == BIRKHOFF else p
            signed = SeedPoly.term([(0, 1, 0)], 0.5, kind=kind, n=n)
            if kind == BIRKHOFF:
                signed = SeedPoly(kind, n, {((0, 1, 0),): complex(0.5, -0.0),
                                            ((1, 0, 1),): complex(-0.0, 2.0)})
            for _ in range(4):
                a, b = draw(), draw()
                wide = draw() + SeedPoly.term([(1, 17, 2)], 0.25, kind=kind,
                                              n=n)
                narrow = [a, b, a.scaled(-0.5), signed]
                mixed = narrow + [wide, SeedPoly(kind, n, wide._terms), -a, a]
                for polys, size in ((narrow, 1), (mixed, 2)):
                    got = sum_polys(polys)
                    assert got._words[0].dtype.itemsize == size
                    assert bits(got) == bits(dict_sum(polys))
                    assert bits(polys[0] + polys[1]) \
                        == bits(dict_sum(polys[:2]))
                    assert bits(polys[0] - polys[1]) \
                        == bits(dict_sum([polys[0], -polys[1]]))
    # no seeds, or zeros only, give the zero of the kind and size asked
    for polys in ([], [SeedPoly.zero(BIRKHOFF, 5)] * 2):
        zero = sum_polys(polys, kind=BIRKHOFF, n=5)
        assert (zero.kind, zero.n, zero.is_zero()) == (BIRKHOFF, 5, True)
    with pytest.raises(CoordinateError):
        sum_polys([])
    # mixed kinds or chain sizes raise
    f = random_seed_poly(rng, n=5, max_sites=4, terms=6)
    for bad in ([f, to_complex(f)], [to_complex(f), f],
                [f, f, SeedPoly.zero(REAL, 6)]):
        with pytest.raises(CoordinateError):
            sum_polys(bad)
        with pytest.raises(CoordinateError):
            bad[0] + bad[-1]
        with pytest.raises(CoordinateError):
            bad[0] - bad[-1]


def _off_by_numpy(rng, below: bool) -> tuple[complex, float]:
    """A value near 1e-3 whose numpy complex absolute is below (or above)
    Python's abs, with that absolute."""
    while True:
        v = complex(*rng.uniform(-1e-3, 1e-3, 2))
        m = float(np.abs(np.array([v]))[0])
        if (m < abs(v)) if below else (m > abs(v)):
            return v, m


def _clean_top(cut: float) -> float | None:
    """A largest |c| whose 1e-15 clean cuts exactly at ``cut``, if any."""
    top = np.nextafter(cut / 1e-15, 0.0)
    for _ in range(4):
        top = np.nextafter(top, 0.0)
    for _ in range(9):
        if 1e-15 * float(top) == cut:
            return float(top)
        top = np.nextafter(top, np.inf)
    return None


def test_every_cut_keeps_what_abs_reaches(rng):
    # With the cut put exactly at a value whose numpy absolute misses
    # Python's abs in the last bit, the constructor, prune, sum_polys and
    # seed_bracket keep exactly the values whose abs reaches the cut:
    # x when the cut is abs(x) and numpy's is below it, and not x when
    # the cut is numpy's absolute of x and abs(x) is below it.
    n = 4
    keys = [((0, 0, k),) for k in range(1, 5)]
    for below in (True, False):
        for _ in range(3):
            top = None
            while top is None:
                x, m = _off_by_numpy(rng, below)
                cut = abs(x) if below else m
                top = _clean_top(cut)
            assert (m >= cut) != (abs(x) >= cut)

            def kept(vals):
                return {k: v for k, v in zip(keys, vals) if abs(v) >= cut}
            vals = [1.0, x, 1.5 * x, 0.5 * x]
            clean = [top] + vals[1:]
            made = SeedPoly(BIRKHOFF, n, dict(zip(keys, clean)))
            assert made._terms == kept(clean)
            parts = [SeedPoly(BIRKHOFF, n, dict(zip(keys[i::2], clean[i::2])))
                     for i in (0, 1)]
            assert sum_polys(parts)._terms == kept(clean)
            f = SeedPoly(BIRKHOFF, n, dict(zip(keys, vals)))
            assert f.prune(cut)._terms == kept(vals)
            # each f term c xi_0 eta_1^k meets eta_0 once, with factor 1,
            # and gives c eta_0^k
            f = SeedPoly(BIRKHOFF, n, {((0, 1, 0), (1, 0, k[0][2])): c
                                       for k, c in zip(keys, vals)})
            eta = SeedPoly.term([(0, 0, 1)], 1.0, kind=BIRKHOFF, n=n)
            assert seed_bracket(f, eta, floor=cut)._terms == kept(vals)
