"""Quantitative ledger: named constants, decay/deformation bound checks.

Every constant of the order-and-radius estimates is computed from its
displayed formula; measured envelope constants always use the tight
envelope C = max_m ||f^(m)||_1 e^{sigma m} at the claimed rate, so the
comparison "measured <= theoretical" is sharp and deterministic.  Checks
never abort a computation: they produce PASS/FAIL/ADVISORY records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chainpoly import (
    BIRKHOFF,
    DecayProfile,
    SeedPoly,
    envelope_constant,
    norm_pairs,
    to_complex,
)
from .cyclic import FieldEvaluator, field_norm, field_norm_decay_bound, field_seed
from .linearize import LinearNF
from .normalform import remainder_head

LN4 = math.log(4.0)
E = math.e


class SigmaWindowError(ValueError):
    """The window [max(ln 4, sigma_0/4), sigma_1) is empty or missed."""


def _norm_pairs_complex(f: SeedPoly) -> list[tuple[int, float]]:
    """Per-distance norms in the complex frame, where the homological
    estimates of the construction live."""
    if f.kind != BIRKHOFF:
        f = to_complex(f)
    return norm_pairs(f)


@dataclass
class ConstantsRecord:
    """All named constants for coupling a, order r and a sigma_* choice."""
    a: float
    mu: float
    omega: float
    r: int
    sigma0: float
    sigma1: float
    sigma_star: float
    sigma_seq: tuple[float, ...]     # sigma_1 .. sigma_r
    e0_star: float
    c_zeta0: float                   # measured envelope of zeta_0 at sigma_0
    c_h1: float                      # measured envelope of h_1 at sigma_1
    mu_star: float
    gamma: float
    c_k: float                       # = mu / mu_star
    c_star: float
    c_r: float                       # 64 r^2 C_*
    c_r_tilde: float                 # 96 r^2 C_*
    b_r: float
    r_star: float                    # admissible radius
    r_max: int                       # largest order with r < mu_*/(2 mu)
    order_bound_ok: bool

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items()}


def sigma_window(sigma0: float, sigma1: float) -> tuple[float, float]:
    """Admissible window [max(ln 4, sigma_0/4), sigma_1) for sigma_*."""
    return max(LN4, sigma0 / 4.0), sigma1


def constants(lnf: LinearNF, r: int,
              sigma_star: float | None = None) -> ConstantsRecord:
    """Evaluate the displayed formulas for the order/radius constants.

    The measured inputs C_zeta0 and C_h1 come from the decay of the
    quadratic normalization's outputs.  Raises :class:`SigmaWindowError`
    when the hypothesis window is empty (coupling too large) or when an
    explicit sigma_* falls outside it.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if lnf.mu <= 0:
        raise SigmaWindowError(
            "decoupled limit mu = 0: the smallness constants are void")
    sigma0, sigma1 = lnf.sigma0, lnf.sigma1
    lo, hi = sigma_window(sigma0, sigma1)
    if lo >= hi:
        raise SigmaWindowError(
            f"empty sigma_* window [max(ln4, {sigma0/4:.4f}), "
            f"{sigma1:.4f}) at a = {lnf.a:g}; coupling too large")
    if sigma_star is None:
        sigma_star = lo
    if not (lo <= sigma_star < hi):
        raise SigmaWindowError(
            f"sigma_* = {sigma_star:g} outside [{lo:.4f}, {hi:.4f})")

    e0 = (min(sigma0 - sigma1, sigma1 - sigma_star)
          / (sigma0 - sigma_star))
    c_zeta0 = envelope_constant(_norm_pairs_complex(lnf.zeta0), sigma0)
    c_h1 = envelope_constant(_norm_pairs_complex(lnf.h1), sigma1)
    omega = lnf.omega
    d0 = 1.0 - math.exp(-sigma0)
    d0s = 1.0 - math.exp(-(sigma0 - sigma_star))
    mu_star = omega * d0 * d0s * e0 / (8.0 * c_zeta0 * math.exp(sigma1))
    gamma = 2.0 * omega * (1.0 - r * lnf.mu / mu_star)
    c_k = lnf.mu / mu_star
    c_star = c_h1 / (gamma * d0 * d0s * e0)
    c_r = 64.0 * r * r * c_star
    c_r_tilde = 96.0 * r * r * c_star
    b_r = 16.0 * c_h1 * r / (gamma * d0s * d0 * e0)
    # gamma <= 0 (r mu >= mu_*) voids the radius constants: no admissible R
    r_star = math.sqrt(2.0 / (3.0 * (1.0 + E) * c_r)) if gamma > 0 else 0.0
    r_max = int(math.floor(mu_star / (2.0 * lnf.mu)))
    sigma_seq = tuple(sigma1 - (j - 1) / r * (sigma1 - sigma_star)
                      for j in range(1, r + 1))
    return ConstantsRecord(
        a=lnf.a, mu=lnf.mu, omega=omega, r=r, sigma0=sigma0, sigma1=sigma1,
        sigma_star=sigma_star, sigma_seq=sigma_seq, e0_star=e0,
        c_zeta0=c_zeta0, c_h1=c_h1, mu_star=mu_star, gamma=gamma, c_k=c_k,
        c_star=c_star, c_r=c_r, c_r_tilde=c_r_tilde, b_r=b_r,
        r_star=r_star, r_max=r_max, order_bound_ok=r < mu_star / (2 * lnf.mu))


def verify_decay_bounds(res, rec: ConstantsRecord) -> dict:
    """Measured envelope constants against the per-step theoretical classes.

    chi_s is checked against C_r^{s-1} C_h1 / (gamma s) at rate sigma_s,
    zeta_s against C_r^{s-1} C_h1 / s, and each remainder seed h^(r)_s
    against 2 Ctilde_r^{s-1} C_h1 at rate sigma_*.  Failures are reported,
    never raised.  When gamma <= 0 the classes that use gamma, C_r or
    Ctilde_r (every chi_s, zeta_s for s >= 2 and every remainder) are
    void: their checks get ``"pass": None``, and ``all_pass`` counts only
    the graded checks.
    """
    void = rec.gamma <= 0
    checks = []

    def check(name, sigma, poly, theo, uses_gamma):
        meas = envelope_constant(_norm_pairs_complex(poly), sigma)
        checks.append({"name": name, "sigma": sigma, "measured": meas,
                       "theoretical": theo,
                       "pass": None if void and uses_gamma
                       else bool(meas <= theo)})

    r = res.order
    for s in range(1, r + 1):
        sig = rec.sigma_seq[s - 1]
        check(f"chi_{s}", sig, res.seq.chis[s - 1],
              rec.c_r ** (s - 1) * rec.c_h1 / (rec.gamma * s), True)
        check(f"zeta_{s}", sig, res.zetas[s - 1],
              rec.c_r ** (s - 1) * rec.c_h1 / s, s >= 2)
    rem = res.remainder or remainder_head(res, r + 1)
    for s, h in enumerate(rem, r + 1):
        check(f"remainder_{s}", rec.sigma_star, h,
              2.0 * rec.c_r_tilde ** (s - 1) * rec.c_h1, True)
    advisories = []
    if not rec.order_bound_ok:
        advisories.append(
            f"order r = {r} violates the sufficient bound r < mu_*/(2 mu) "
            f"= {rec.mu_star / (2 * rec.mu):.3f}; computation proceeded")
    if void:
        advisories.append(
            f"gamma = 2 Omega (1 - r mu/mu_*) = {rec.gamma:.4g} <= 0: the "
            "radius constants are void (R_* = 0)")
    return {"checks": checks,
            "all_pass": all(c["pass"] for c in checks
                            if c["pass"] is not None),
            "advisories": advisories,
            "constants": rec.to_dict()}


def bracket_decay_bound(pf: DecayProfile, pg: DecayProfile,
                        deg_f: int, deg_g: int,
                        sigma_out: float | None = None) -> dict:
    """Predicted envelope constant for the bracket of two decaying seeds.

    Three displayed estimates are available; the applicable one is chosen
    from the rates and from whether the first seed has no distance-0 part:

    * general: sigma_out < min(sigma', sigma'')
    * distinct rates: sigma_out = min(sigma', sigma'')
    * f^(0) = 0 and sigma' > sigma'': sigma_out = sigma''
    """
    sp, spp = pf.sigma, pg.sigma
    cf, cg = pf.c, pg.c
    rr = deg_f * deg_g
    smax = max(sp, spp)
    f0_zero = all(v == 0.0 for m, v in pf.pairs if m == 0)
    if sigma_out is None:
        sigma_out = spp if (f0_zero and sp > spp) else min(sp, spp) \
            if sp != spp else 0.5 * sp

    if f0_zero and sp > spp and sigma_out == spp:
        case = "f0-zero"
        c_h = (2.0 * math.exp(-(sp - spp)) * rr * cf * cg
               / ((1.0 - math.exp(-sp))
                  * (1.0 - math.exp(-(sp - spp)))))
    elif sp != spp and sigma_out == min(sp, spp):
        case = "distinct-rates"
        c_h = (rr * cf * cg
               / ((1.0 - math.exp(-smax))
                  * (1.0 - math.exp(-abs(sp - spp)))))
    elif sigma_out < min(sp, spp):
        case = "general"
        c_h = (rr * cf * cg
               / ((1.0 - math.exp(-smax))
                  * (1.0 - math.exp(-smax + sigma_out))))
    else:
        raise ValueError(
            f"sigma_out = {sigma_out:g} inadmissible for rates "
            f"({sp:g}, {spp:g})")
    return {"c_h": c_h, "sigma": sigma_out, "case": case}


def deformation_bound(res, radius: float, rec: ConstantsRecord,
                      samples: int = 100, seed: int = 0,
                      norm: str = "l2") -> dict:
    """Per-step field norms, theoretical deformation, and a sampled check.

    For each step the field norm |||X_chi_s||| is evaluated on the
    shrinking domain R_{s-1} = R - (s-1) R/(3r); the per-step deformation
    bound is (1+e) times that, and the total transformation obeys
    ||T(z) - z|| <= 4^4 C_* R^3 inside the admissible radius.  The sampled
    check composes the time-1 flows of the generating Hamiltonians,
    integrated to high accuracy, on random states with ||z|| <= 2R/3.
    """
    from scipy.integrate import solve_ivp

    r = res.order
    n = res.lnf.n
    delta = radius / (3.0 * r)
    steps = []
    for s in range(1, r + 1):
        rs_prev = radius - (s - 1) * delta
        fs = field_seed(res.seq.chis[s - 1])
        fn = field_norm(fs, rs_prev)
        sig = rec.sigma_seq[s - 1]
        c_meas = envelope_constant(norm_pairs(res.seq.chis[s - 1]), sig)
        lemma = field_norm_decay_bound(c_meas, sig, 2 * s + 2, rs_prev)
        steps.append({"s": s, "radius": rs_prev, "field_norm": fn,
                      "per_step_bound": (1.0 + E) * fn,
                      "field_norm_lemma_bound": lemma,
                      "lemma_pass": bool(fn <= lemma * (1 + 1e-12)),
                      "small_enough": bool((1.0 + E) * fn <= delta)})
    total_bound = 4.0 ** 4 * rec.c_star * radius ** 3
    advisories = []
    if radius >= rec.r_star:
        advisories.append(
            f"R = {radius:g} is not below R_* = {rec.r_star:g}; the "
            "deformation bound is outside its hypothesis")

    def size(v):
        return np.linalg.norm(v) if norm == "l2" else np.max(np.abs(v))

    rng = np.random.default_rng(seed)
    evaluators = [FieldEvaluator(c) for c in res.seq.chis]
    worst = 0.0
    per_step_worst = [0.0] * r
    for _ in range(samples):
        z0 = rng.normal(size=2 * n)
        z0 *= (2.0 * radius / 3.0) * rng.random() / size(z0)
        z = z0.copy()
        for s in range(r, 0, -1):
            ev = evaluators[s - 1]
            sol = solve_ivp(lambda t, y: ev(y), (0.0, 1.0), z,
                            rtol=1e-12, atol=1e-14, method="DOP853")
            znew = sol.y[:, -1]
            per_step_worst[s - 1] = max(per_step_worst[s - 1],
                                        size(znew - z))
            z = znew
        worst = max(worst, size(z - z0))
    sampled_pass = worst <= total_bound
    for s in range(1, r + 1):
        steps[s - 1]["sampled_worst"] = per_step_worst[s - 1]
        steps[s - 1]["sampled_pass"] = bool(
            per_step_worst[s - 1] <= steps[s - 1]["per_step_bound"])
    return {"radius": radius, "delta": delta, "steps": steps,
            "total_bound": total_bound, "sampled_worst_total": worst,
            "sampled_pass": bool(sampled_pass), "samples": samples,
            "norm": norm, "advisories": advisories}
