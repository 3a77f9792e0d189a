"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failure surfaces as an ordinary assertion with the measured value.
"""

import math
import time

import numpy as np
import pytest

from kgchain import (
    SeedPoly,
    SimConfig,
    apply_linear,
    build_A,
    constants,
    drift_experiment,
    extract_gdnls,
    fit_decay,
    lie_omega,
    lie_transform_apply,
    linear_normalize,
    normal_form,
    poisson_bracket,
    poly_norm,
    realize,
    seed_bracket,
    spectrum_formula,
    standard_dnls,
    symmetric_parts,
    to_complex,
    to_real,
    verify_decay_bounds,
)
from kgchain.chainpoly import REAL, decay_decompose
from kgchain.cyclic import FieldEvaluator, field_norm, field_seed
from kgchain.normalform import project_kernel

from conftest import random_homogeneous, random_seed_poly
from oracles import (
    from_seed_terms,
    from_seedpoly,
    p_birkhoff,
    p_max_diff,
    p_realize,
    p_resonant_projection,
    single_oscillator_second_order,
)


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


# -- shared expensive computations -------------------------------------------

@pytest.fixture(scope="module")
def ac4_run():
    t0 = time.monotonic()
    lnf = linear_normalize(0.05, 6)
    res = normal_form(lnf, 2, s_max=3)
    transformed = lie_transform_apply(res, res.normal_form_seed(),
                                      degree_cap=8)
    lhs = realize(transformed, 6)
    rhs = realize(res.hamiltonian_seed(), 6)
    diff = lhs - rhs
    worst = max((abs(v) for k, v in diff._terms.items()
                 if sum(a + b for _, a, b in k) <= 8), default=0.0)
    return {"res": res, "lnf": lnf, "worst": worst,
            "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def ladder_run():
    t0 = time.monotonic()
    lnf = linear_normalize(0.05, 16)
    res = normal_form(lnf, 2, prune_rel=1e-7)
    base = SimConfig(n=16, a=0.05, radius=0.1, norm="l2", dt=0.01,
                     horizon=1e3, order=2, seed=0, sample_every=50)
    ladder = [1e-1, 5e-2, 2e-2, 1e-2]
    # one batched pass; the observables run over orders (0, 1, 2)
    report = drift_experiment(base, ladder, res)
    rows = [{"radius": row["radius"], "max_dH": row["max_dH_Omega"],
             "max_energy_error": row["max_energy_error"]}
            for row in report["ladder"]]
    per_traj = {traj.config.radius: traj.observables
                for traj in report["trajectories"]}
    return {"lnf": lnf, "res": res, "rows": rows, "obs": per_traj,
            "elapsed": time.monotonic() - t0}


# -- criteria ------------------------------------------------------------------

def test_ac01_seed_bracket_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for _ in range(100):
            f = random_seed_poly(rng, n=n)
            g = random_seed_poly(rng, n=n)
            lhs = realize(seed_bracket(f, g), n)
            rhs = poisson_bracket(realize(f, n), realize(g, n))
            worst = max(worst, lhs.max_coeff_diff(rhs))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 30.0
    report("AC-1 seed-bracket equivalence",
           f"max coefficient deviation {worst:.2e} over 400 pairs, "
           f"{elapsed:.1f}s")


def test_ac02_quadratic_normalization():
    lnf = linear_normalize(0.05, 8)
    lhs = realize(lnf.h_omega, 8) + realize(lnf.zeta0, 8)
    lam, vec = np.linalg.eigh(build_A(0.05, 8).dense())
    bmat = vec @ np.diag(np.sqrt(lam)) @ vec.T
    rhs = SeedPoly.zero(REAL, 8)
    for i in range(8):
        for j in range(8):
            rhs = rhs + SeedPoly.term([(i, 1, 0), (j, 1, 0)],
                                      0.5 * bmat[i, j], n=8)
            rhs = rhs + SeedPoly.term([(i, 0, 1), (j, 0, 1)],
                                      0.5 * bmat[i, j], n=8)
    d_quad = lhs.max_coeff_diff(rhs)
    d_comm = poisson_bracket(realize(lnf.h_omega, 8),
                             realize(lnf.zeta0, 8)).max_abs_coeff()
    dist0 = decay_decompose(lnf.zeta0).get(0)
    assert d_quad <= 1e-12
    assert d_comm <= 1e-12
    assert dist0 is None
    report("AC-2 quadratic normalization",
           f"transform error {d_quad:.2e}, bracket {d_comm:.2e}, "
           "zeta0^(0) = 0 exactly")


def test_ac03_spectrum():
    worst = 0.0
    for n in (4, 16, 64):
        for a in (0.01, 0.1):
            c = build_A(a, n)
            lam = np.sort(c.spectrum)
            worst = max(worst, float(np.max(np.abs(
                lam - np.sort(spectrum_formula(a, n))))))
            worst = max(worst, float(np.max(np.abs(
                lam - np.linalg.eigvalsh(c.dense())))))
    assert worst <= 1e-12
    report("AC-3 spectrum", f"max deviation {worst:.2e} "
           "over N in {4,16,64}, a in {0.01,0.1}")


def test_ac04_round_trip(ac4_run):
    assert ac4_run["worst"] <= 1e-10
    assert ac4_run["elapsed"] < 300.0
    report("AC-4 round-trip normal form",
           f"coefficient error {ac4_run['worst']:.2e} at degree <= 8, "
           f"{ac4_run['elapsed']:.0f}s")


def test_ac05_kernel_purity(ac4_run):
    res = ac4_run["res"]
    lnf = ac4_run["lnf"]
    worst = 0.0
    for z in [lnf.zeta0] + res.zetas:
        zb = to_complex(realize(z, 6))
        worst = max(worst, lie_omega(zb, lnf.omega).max_abs_coeff())
    assert worst <= 1e-12
    report("AC-5 kernel purity", f"max |L_Omega Z_s| = {worst:.2e} "
           "after realization")


def test_ac06_decoupled_oracle():
    lnf = linear_normalize(0.0, 4)
    res = normal_form(lnf, 1, s_max=2)
    target = (SeedPoly.term([(0, 4, 0)], 3 / 32, n=4)
              + SeedPoly.term([(0, 2, 2)], 6 / 32, n=4)
              + SeedPoly.term([(0, 0, 4)], 3 / 32, n=4))
    d_z1 = res.zetas[0].max_coeff_diff(target)
    assert d_z1 <= 1e-13

    lnf1 = linear_normalize(0.0, 1)
    res1 = normal_form(lnf1, 1, s_max=2)
    z1_oracle, _, deg6_oracle = single_oscillator_second_order()
    d_rem = p_max_diff(from_seedpoly(to_complex(res1.remainder[0]), 1),
                       deg6_oracle)
    assert d_rem <= 1e-11
    report("AC-6 decoupled-limit oracle",
           f"zeta_1 vs 3/32 rotation average {d_z1:.2e}, "
           f"remainder vs single-oscillator oracle {d_rem:.2e}")


def test_ac07_extensivity():
    norms0, norms1 = [], []
    for n in (8, 16, 32):
        lnf = linear_normalize(0.05, n)
        norms0.append(poly_norm(lnf.zeta0, 1.0))
        # at order 1 the normalized quartic is the kernel projection of
        # the transformed quartic (identical to the full construction,
        # checked below at N = 8)
        z1 = to_real(project_kernel(to_complex(lnf.h1)))
        norms1.append(poly_norm(z1, 1.0))
    lnf8 = linear_normalize(0.05, 8)
    res8 = normal_form(lnf8, 1)
    z1_direct = to_real(project_kernel(to_complex(lnf8.h1)))
    assert res8.zetas[0].max_coeff_diff(z1_direct) == 0.0
    s0 = max(norms0) - min(norms0)
    s1 = max(norms1) - min(norms1)
    assert s0 <= 1e-10
    assert s1 <= 1e-10
    report("AC-7 extensivity",
           f"seed-norm spread over N in (8,16,32): zeta0 {s0:.2e}, "
           f"zeta1 {s1:.2e}")


def test_ac08_decay_envelopes():
    lnf = linear_normalize(0.05, 32)
    prof0 = fit_decay(decay_decompose(lnf.zeta0))
    assert prof0.check()
    assert prof0.sigma >= lnf.sigma0 - 0.05
    z1 = to_real(project_kernel(to_complex(lnf.h1)))
    prof1 = fit_decay(symmetric_parts(z1))
    assert prof1.check()
    assert prof1.sigma >= lnf.sigma0 - 0.1
    mu = lnf.mu
    worst_ratio = max(abs(lnf.b[m - 1])
                      / (abs(lnf.b[0]) * (2 * mu) ** (m - 1))
                      for m in range(1, 17))
    assert worst_ratio <= 1.5
    report("AC-8 decay envelopes",
           f"sigma(zeta0) = {prof0.sigma:.3f} >= {lnf.sigma0 - 0.05:.3f}, "
           f"sigma(zeta1,sym) = {prof1.sigma:.3f} >= "
           f"{lnf.sigma0 - 0.1:.3f}, max b-ratio {worst_ratio:.3f}")


def test_ac09_theorem_bounds():
    lnf = linear_normalize(1e-3, 16)
    all_names = []
    for r in (1, 2, 3):
        res = normal_form(lnf, r, s_max=r + 1, prune_rel=1e-13)
        rec = constants(lnf, r)
        rep = verify_decay_bounds(res, rec)
        failing = [c["name"] for c in rep["checks"] if not c["pass"]]
        assert rep["all_pass"], f"r={r}: failing checks {failing}"
        all_names += [f"r{r}:{c['name']}" for c in rep["checks"]]
    report("AC-9 theorem bound validation",
           f"PASS for all of {len(all_names)} checks at r in (1,2,3)")


def test_ac10_standard_dnls():
    a, energy, n = 0.05, 0.1, 6
    std = standard_dnls(a, energy, n)
    assert std.coeff_quadratic == a / 2 == 0.025
    assert std.coeff_quartic == 3 * energy / 8
    assert abs(std.coeff_quartic - 0.0375) <= 1e-16
    f0 = [([1], [2], [0], a / 2), ([0], [2], [0], a / 2),
          ([0, 1], [1, 1], [0, 0], -a)]
    dense = p_birkhoff(p_realize(from_seed_terms(f0, n), n), n)
    oracle = p_resonant_projection(dense, n)
    d = p_max_diff(from_seedpoly(realize(std.z0, n), n), oracle)
    assert d <= 1e-13
    report("AC-10 two-step pipeline",
           f"coefficients ({std.coeff_quadratic}, {std.coeff_quartic}), "
           f"resonance projection vs oracle {d:.2e}")


def test_ac11_field_norm_proposition():
    rng = np.random.default_rng(99)
    n = 12
    violations = 0
    total = 0
    for _ in range(20):
        deg = int(rng.integers(2, 6))
        f = random_homogeneous(rng, deg, n=n, max_sites=3)
        ev = FieldEvaluator(f)
        fn1 = field_norm(field_seed(f), 1.0)
        z = rng.normal(size=(1000, 2 * n))
        for zz in z:
            val = ev(zz)
            for norm in (2, np.inf):
                nz = np.linalg.norm(zz, norm)
                nv = np.linalg.norm(val, norm)
                total += 1
                if nv > fn1 * nz ** (deg - 1) * (1 + 1e-10):
                    violations += 1
    assert violations == 0
    report("AC-11 field-norm proposition",
           f"0 violations over {total} sampled evaluations")


def test_ac12_dynamics_scaling(ladder_run):
    rows = ladder_run["rows"]
    lnf = ladder_run["lnf"]
    radii = np.array([r["radius"] for r in rows])
    drifts = np.array([r["max_dH"] for r in rows])
    slope = float(np.polyfit(np.log(radii), np.log(drifts), 1)[0])
    monotone = bool(np.all(np.diff(drifts) < 0))
    within = all(r["max_dH"] <= 10.0 * lnf.omega * r["radius"] ** 4
                 for r in rows)
    max_err = max(r["max_energy_error"] for r in rows)
    assert slope >= 3.0
    assert monotone
    assert within
    assert max_err <= 1e-6
    assert ladder_run["elapsed"] < 600.0
    report("AC-12 dynamics scaling",
           f"slope {slope:.2f} >= 3, monotone, each within 10 Omega R^4, "
           f"integrator error {max_err:.1e}, {ladder_run['elapsed']:.0f}s")


def test_ac13_order_monotonicity(ladder_run):
    obs = ladder_run["obs"][1e-2]
    drifts = []
    for r in (0, 1, 2):
        j = obs[f"J{r}"]
        drifts.append(float(np.max(np.abs(j - j[0]))))
    assert drifts[0] >= drifts[1] * (1 - 1e-9)
    assert drifts[1] >= drifts[2] * (1 - 1e-9)
    report("AC-13 order monotonicity",
           "drift " + " >= ".join(f"{d:.3e}" for d in drifts)
           + " for r = 0, 1, 2")
