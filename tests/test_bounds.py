import math

import numpy as np
import pytest

from kgchain import (
    SeedPoly,
    SigmaWindowError,
    bracket_decay_bound,
    constants,
    deformation_bound,
    fit_decay,
    linear_normalize,
    normal_form,
    poly_norm,
    realize,
    seed_bracket,
    verify_decay_bounds,
)
from kgchain.bounds import LN4, sigma_window
from kgchain.chainpoly import decay_decompose
from kgchain.cyclic import FieldEvaluator, field_norm, field_seed

from conftest import random_homogeneous


@pytest.fixture(scope="module")
def lnf_small():
    return linear_normalize(1e-3, 16)


def test_e0star_footnote_value(lnf_small):
    rec = constants(lnf_small, 2)
    assert rec.sigma_star == pytest.approx(rec.sigma0 / 4.0)
    assert rec.e0_star == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_ck_identity_and_gamma_window(lnf_small):
    rec = constants(lnf_small, 1)
    assert rec.c_k == pytest.approx(rec.mu / rec.mu_star, rel=1e-14)
    if rec.order_bound_ok:
        assert rec.omega <= rec.gamma <= 2 * rec.omega


def test_sigma_sequence_decreasing(lnf_small):
    rec = constants(lnf_small, 4)
    seq = list(rec.sigma_seq) + [rec.sigma_star]
    assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))
    assert seq[0] == pytest.approx(rec.sigma1)


def test_r_max_consistent(lnf_small):
    rec = constants(lnf_small, 1)
    assert rec.r_max == math.floor(rec.mu_star / (2 * rec.mu))
    assert rec.r_max < rec.mu_star / rec.mu


def test_window_errors():
    # large coupling empties the admissible window
    lnf = linear_normalize(0.05, 8)
    lo, hi = sigma_window(lnf.sigma0, lnf.sigma1)
    assert lo >= hi
    with pytest.raises(SigmaWindowError):
        constants(lnf, 1)
    # explicit sigma_* outside the window
    lnf2 = linear_normalize(1e-3, 8)
    with pytest.raises(SigmaWindowError):
        constants(lnf2, 1, sigma_star=lnf2.sigma1 * 1.01)
    with pytest.raises(SigmaWindowError):
        constants(lnf2, 1, sigma_star=0.5 * LN4)
    with pytest.raises(SigmaWindowError):
        constants(linear_normalize(0.0, 8), 1)


def test_rstar_monotonicity():
    # decreasing in r (within the admissible order range at small coupling)
    lnf = linear_normalize(1e-4, 16)
    rs = [constants(lnf, r).r_star for r in (1, 2, 3, 4)]
    assert all(rs[i] > rs[i + 1] for i in range(len(rs) - 1))
    # increasing as the coupling decreases at fixed r
    lnf2 = linear_normalize(5e-4, 16)
    assert constants(lnf2, 2).r_star \
        > constants(linear_normalize(1e-3, 16), 2).r_star


def test_constants_positive_and_rederivable(lnf_small):
    rec = constants(lnf_small, 1)
    for name in ("mu_star", "gamma", "c_star", "c_r", "c_r_tilde", "b_r",
                 "r_star", "c_zeta0", "c_h1"):
        assert getattr(rec, name) > 0
    # independent re-derivation of the displayed formulas
    d0 = 1 - math.exp(-rec.sigma0)
    d0s = 1 - math.exp(-(rec.sigma0 - rec.sigma_star))
    e0 = min(rec.sigma0 - rec.sigma1, rec.sigma1 - rec.sigma_star) \
        / (rec.sigma0 - rec.sigma_star)
    mu_star = rec.omega * d0 * d0s * e0 \
        / (8 * rec.c_zeta0 * math.exp(rec.sigma1))
    assert rec.mu_star == pytest.approx(mu_star, rel=1e-14)
    gamma = 2 * rec.omega * (1 - rec.r * rec.mu / mu_star)
    assert rec.gamma == pytest.approx(gamma, rel=1e-14)
    c_star = rec.c_h1 / (gamma * d0 * d0s * e0)
    assert rec.c_star == pytest.approx(c_star, rel=1e-14)
    assert rec.c_r == pytest.approx(64 * rec.r ** 2 * c_star, rel=1e-14)
    assert rec.c_r_tilde == pytest.approx(96 * rec.r ** 2 * c_star,
                                          rel=1e-14)
    assert rec.r_star == pytest.approx(
        math.sqrt(2 / (3 * (1 + math.e) * rec.c_r)), rel=1e-14)
    assert rec.b_r == pytest.approx(
        16 * rec.c_h1 * rec.r / (gamma * d0s * d0 * e0), rel=1e-14)


def test_verify_decay_bounds_small_order(lnf_small):
    res = normal_form(lnf_small, 1, s_max=2)
    rec = constants(lnf_small, 1)
    report = verify_decay_bounds(res, rec)
    assert report["all_pass"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["chi_1", "zeta_1", "remainder_2"]


def test_verify_reports_order_advisory(lnf_small):
    res = normal_form(lnf_small, 3, s_max=4, prune_rel=1e-13)
    rec = constants(lnf_small, 3)
    report = verify_decay_bounds(res, rec)
    assert not rec.order_bound_ok
    assert report["advisories"]
    assert report["all_pass"]


def test_void_radius_constants():
    # r mu > mu_* makes gamma negative: no radius is admissible
    lnf = linear_normalize(1e-3, 8)
    rec = constants(lnf, 2, sigma_star=2.5)
    assert rec.gamma == pytest.approx(-0.2429, abs=1e-4)
    assert rec.r_star == 0.0
    res = normal_form(lnf, 2, s_max=3, prune_rel=1e-13)
    report = verify_decay_bounds(res, rec)
    assert any("radius constants are void" in a
               for a in report["advisories"])
    deform = deformation_bound(res, 0.01, rec, samples=1)
    assert any("not below R_* = 0" in a for a in deform["advisories"])
    # order 1 at the same sigma_* keeps a positive admissible radius
    rec1 = constants(lnf, 1, sigma_star=2.5)
    assert rec1.gamma == pytest.approx(0.8796, abs=1e-4)
    assert rec1.r_star == pytest.approx(0.01984, abs=1e-5)
    report1 = verify_decay_bounds(normal_form(lnf, 1, s_max=2), rec1)
    assert not any("void" in a for a in report1["advisories"])


def test_bracket_decay_bound_displayed_formula():
    pf = fit_decay([(0, 1.0), (1, math.exp(-1.0))])
    pg = fit_decay([(0, 1.0), (1, math.exp(-1.0))])
    out = bracket_decay_bound(pf, pg, 2, 2, sigma_out=0.5)
    expected = 4.0 / ((1 - math.exp(-1.0)) * (1 - math.exp(-0.5)))
    assert out["case"] == "general"
    assert out["c_h"] == pytest.approx(expected, rel=1e-12)


def test_bracket_decay_bound_case_selection():
    pf = fit_decay([(1, math.exp(-2.0)), (2, math.exp(-4.0))])   # f^(0)=0
    pg = fit_decay([(0, 1.0), (1, math.exp(-1.0))])
    out = bracket_decay_bound(pf, pg, 4, 2)
    assert out["case"] == "f0-zero"
    sp, spp = pf.sigma, pg.sigma
    expected = 2 * math.exp(-(sp - spp)) * 8 * pf.c * pg.c \
        / ((1 - math.exp(-sp)) * (1 - math.exp(-(sp - spp))))
    assert out["c_h"] == pytest.approx(expected, rel=1e-12)
    # distinct rates select the corollary at sigma_out = min(sigma', sigma'')
    ph = fit_decay([(0, 1.0), (1, math.exp(-2.0)), (2, math.exp(-4.0))])
    out2 = bracket_decay_bound(ph, pg, 2, 2, sigma_out=pg.sigma)
    assert out2["case"] == "distinct-rates"
    with pytest.raises(ValueError):
        bracket_decay_bound(pg, pg, 2, 2, sigma_out=2 * pg.sigma)


def test_bracket_decay_bound_validates_measurement(rng):
    # measured bracket decay stays below the predicted envelope
    n = 24
    for _ in range(50):
        f = random_homogeneous(rng, int(rng.integers(2, 4)), n=n)
        g = random_homogeneous(rng, int(rng.integers(2, 4)), n=n)
        pf = fit_decay(decay_decompose(f))
        pg = fit_decay(decay_decompose(g))
        sigma_out = 0.5 * min(pf.sigma, pg.sigma)
        pred = bracket_decay_bound(pf, pg, f.max_degree(), g.max_degree(),
                                   sigma_out=sigma_out)
        br = seed_bracket(f, g)
        if br.is_zero():
            continue
        for m, part in decay_decompose(br).items():
            assert poly_norm(part, 1.0) <= pred["c_h"] \
                * math.exp(-sigma_out * m) * (1 + 1e-9)


def test_deformation_bound_decoupled():
    lnf = linear_normalize(0.0, 6)
    res = normal_form(lnf, 1)
    rec_like = constants(linear_normalize(1e-3, 6), 1)
    report = deformation_bound(res, 0.05, rec_like, samples=20)
    step = report["steps"][0]
    assert step["sampled_worst"] <= step["per_step_bound"]
    assert step["lemma_pass"]
    assert report["sampled_pass"]


def test_deformation_bound_full(lnf_small):
    res = normal_form(lnf_small, 1)
    rec = constants(lnf_small, 1)
    radius = min(0.05, 0.5 * rec.r_star)
    report = deformation_bound(res, radius, rec, samples=20)
    assert report["sampled_pass"]
    assert all(s["lemma_pass"] for s in report["steps"])
    assert all(s["sampled_pass"] for s in report["steps"])
    big = deformation_bound(res, 10.0 * rec.r_star, rec, samples=1)
    assert big["advisories"]


def test_lie_derivative_iterate_bound(rng):
    # ||L_X^p X_F(z)|| <= prod_j [s + j(r-1)] |||X_F||| |||X_X|||^p ||z||^(s+p(r-1))
    n = 4
    chi = random_homogeneous(rng, 3, n=n, max_sites=2)     # degree r+1 = 3
    f = random_homogeneous(rng, 4, n=n, max_sites=2)       # degree s+1 = 4
    r, s = 2, 3
    chi_full = realize(chi, n)
    f_full = realize(f, n)
    fn_chi = field_norm(field_seed(chi), 1.0)
    fn_f = field_norm(field_seed(f), 1.0)
    # symbolic field components of X_F and iterated Lie derivatives
    comps = [f_full.partial(j, 1) for j in range(n)] + \
            [f_full.partial(j, 0).scaled(-1.0) for j in range(n)]
    rng2 = np.random.default_rng(7)
    for p in (1, 2, 3):
        comps = [_lie_derivative(chi_full, c, n) for c in comps]
        coef = 1.0
        for j in range(p):
            coef *= s + j * (r - 1)
        bound_scale = coef * fn_f * fn_chi ** p
        for _ in range(20):
            z = rng2.normal(size=2 * n)
            z /= np.linalg.norm(z) / 0.7
            val = np.array([_eval_poly(c, z, n) for c in comps])
            lhs = np.linalg.norm(val)
            rhs = bound_scale * np.linalg.norm(z) ** (s + p * (r - 1))
            assert lhs <= rhs * (1 + 1e-9)


def _lie_derivative(chi_full, comp, n):
    """dV[X_chi] for one component V: sum_k dV/dz_k (X_chi)_k."""
    out = SeedPoly.zero(comp.kind, n)
    for k in range(n):
        xk = chi_full.partial(k, 1)
        yk = chi_full.partial(k, 0).scaled(-1.0)
        out = out + comp.partial(k, 0) * xk
        out = out + comp.partial(k, 1) * yk
    return out


def _eval_poly(p, z, n):
    total = 0.0
    for m, c in p.terms():
        term = c.real
        for s_, a, b in m.exps:
            term *= z[s_] ** a * z[n + s_] ** b
        total += term
    return total
