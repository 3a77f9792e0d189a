"""The four benchmark workloads: inputs, one round of work, output checks.

A workload builds its inputs once in ``setup`` and then repeats ``round``.
A round is one or more operations (a solve, a transform, a trajectory, a
comparison; see ``OPS``); ``check`` returns, for each of them, the reasons
it failed.  Only the calls into kgchain inside ``round`` are timed; checks
run after.

The workload seed reaches the program only through ``SimConfig.seed`` (the
initial phases).  The two normal-form workloads take no random input and
are deterministic: their seed is accepted and ignored.
"""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path

import kgchain as kg

REFERENCE = Path(__file__).resolve().parent / "reference" / "nf-coupled.json"

# nf-coupled: chi_s/zeta_s against the stored reference.  Coefficients below
# NF_PRUNE = 1e-7 of a seed's largest are dropped, and a reordered sum may
# move a coefficient near that cut to the other side, so a coefficient may
# differ by a few cut-sized amounts; anything past 5e-7 of the largest one
# is wrong (rounding alone stays near 1e-13 relative).
REF_TOL = 5e-7
NF_PRUNE = 1e-7             # prune_rel of nf-coupled and the N=16 set-up
PURITY_TOL = 1e-12          # |L_Omega zeta_s| relative to |zeta_s| (AC-5)
ROUNDTRIP_TOL = 1e-10       # AC-4, absolute, at degree <= 6
LADDER = (0.1, 0.05, 0.02, 0.01)
LADDER_HORIZON = 100.0
KG_ENERGY_TOL = 1e-6        # AC-12 integrator error
GDNLS_RADIUS = 0.05
# One period of the linear flow (frequencies 1 to 1.095): the cost of the
# field evaluation depends on the signs of the coordinates (numpy's power
# takes a slow path for negative bases), and a full period samples them
# evenly, so the work of a round barely depends on the seed.
GDNLS_HORIZON = 6.28
# K is conserved by the GdNLS flow up to splitting and fixed-point error,
# measured at <= 5e-13 over seeds; a wrong field shows far above this.
GDNLS_ENERGY_TOL = 1e-9
# The KG flow and the GdNLS flow separate by c R^3 (the near-identity map
# generated by chi_1), with c ~ 0.007 measured over seeds at R = 0.05 and
# this horizon; allowing c = 0.08 keeps >10x headroom.
GDNLS_DEVIATION_TOL = 0.08 * GDNLS_RADIUS ** 3


class Round:
    """Outcome of one round: raw outputs and the timings taken inside it."""

    def __init__(self):
        self.out: dict = {}
        self.times: dict[str, float] = {}
        self.steps = 0


def _timed(rnd: Round, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    rnd.times[key] = time.perf_counter() - t0
    return out


def _kernel_impurity(zeta, omega: float) -> float:
    """max |L_Omega zeta| in complex coordinates over max |zeta| (real)."""
    top = zeta.max_abs_coeff()
    return (kg.lie_omega(kg.to_complex(zeta), omega).max_abs_coeff() / top
            if top else 0.0)


def purity_tol(zeta, omega: float, prune_rel: float | None) -> float:
    """Kernel-purity tolerance for zeta_s.

    normal_form prunes zeta_s in real coordinates, after the kernel
    projection.  A dropped real monomial of degree d and coefficient below
    prune_rel * max|zeta_s| leaves complex range terms of at most
    2^(d/2) times that coefficient, which L_Omega scales by at most
    Omega * d.  Unpruned output is held to PURITY_TOL.
    """
    if prune_rel is None:
        return PURITY_TOL
    d = zeta.max_degree()
    return PURITY_TOL + prune_rel * omega * d * 2 ** (d / 2)


def _purity_failures(res, prune_rel) -> list[str]:
    omega = res.lnf.omega
    out = []
    for s, zeta in enumerate(res.zetas, 1):
        imp, tol = (_kernel_impurity(zeta, omega),
                    purity_tol(zeta, omega, prune_rel))
        if not imp <= tol:
            out.append(f"zeta_{s} not kernel-pure: {imp:.2e} > {tol:.2e}")
    return out


def _coeffs(poly) -> dict:
    return {m.exps: complex(c) for m, c in poly.terms()}


def seed_mismatch(poly, ref: dict) -> float:
    """max |c - c_ref| over the union of monomials, relative to max |c_ref|."""
    got = _coeffs(poly)
    top = max((abs(c) for c in ref.values()), default=0.0)
    diff = max((abs(got.get(k, 0.0) - ref.get(k, 0.0))
                for k in set(got) | set(ref)), default=0.0)
    return diff / top if top else diff


def reference_to_json(res) -> dict:
    def dump(poly):
        return [[[list(e) for e in m.exps], c.real, c.imag]
                for m, c in sorted(poly.terms(), key=lambda t: t[0].exps)]
    return {"chis": [dump(c) for c in res.seq.chis],
            "zetas": [dump(z) for z in res.zetas]}


def reference_from_json(d: dict) -> dict:
    def load(terms):
        return {tuple(tuple(e) for e in exps): complex(re, im)
                for exps, re, im in terms}
    return {key: [load(t) for t in d[key]] for key in ("chis", "zetas")}


# -- nf-coupled ------------------------------------------------------------------

@functools.cache
def stored_reference() -> dict:
    """The stored nf-coupled output.  The check loads it, so that reading
    it is not counted in ``setup_s``."""
    with open(REFERENCE) as fh:
        return reference_from_json(json.load(fh))


def nf_coupled_setup(seed: int) -> dict:
    return {"lnf": kg.linear_normalize(0.05, 8)}


def nf_coupled_round(inp: dict) -> Round:
    rnd = Round()
    rnd.out["res"] = _timed(rnd, "nf_s", kg.normal_form, inp["lnf"],
                            order=2, prune_rel=NF_PRUNE)
    return rnd


def nf_coupled_check(inp: dict, rnd: Round) -> list[list[str]]:
    res = rnd.out["res"]
    bad = _purity_failures(res, NF_PRUNE)
    ref = stored_reference()
    for key, polys in (("chis", res.seq.chis), ("zetas", res.zetas)):
        if len(polys) != len(ref[key]):
            bad.append(f"{key}: {len(polys)} seeds, reference has "
                       f"{len(ref[key])}")
            continue
        for s, (poly, want) in enumerate(zip(polys, ref[key]), 1):
            err = seed_mismatch(poly, want)
            if not err <= REF_TOL:
                bad.append(f"{key[:-1]}_{s} differs from reference by "
                           f"{err:.2e} relative")
    return [bad]


# -- roundtrip ---------------------------------------------------------------------

def roundtrip_setup(seed: int) -> dict:
    return {"lnf": kg.linear_normalize(0.05, 6)}


def roundtrip_round(inp: dict) -> Round:
    rnd = Round()
    res = _timed(rnd, "nf_s", kg.normal_form, inp["lnf"], order=1, s_max=2)
    rnd.out["res"] = res
    rnd.out["transformed"] = _timed(rnd, "transform_s",
                                    kg.lie_transform_apply, res,
                                    res.normal_form_seed(), degree_cap=6)
    return rnd


def roundtrip_check(inp: dict, rnd: Round) -> list[list[str]]:
    res = rnd.out["res"]
    solve = _purity_failures(res, None)
    diff = kg.realize(rnd.out["transformed"], 6) \
        - kg.realize(res.hamiltonian_seed(), 6)
    worst = max((abs(c) for m, c in diff.terms()
                 if sum(a + b for _, a, b in m.exps) <= 6), default=0.0)
    transform = ([] if worst <= ROUNDTRIP_TOL
                 else [f"round-trip error {worst:.2e} at degree <= 6"])
    return [solve, transform]


# -- ladder -------------------------------------------------------------------------

def _order1_n16(seed: int, **cfg) -> dict:
    """Set-up shared by ladder and gdnls: the order-1 N=16 normal form."""
    lnf = kg.linear_normalize(0.05, 16)
    t0 = time.perf_counter()
    res = kg.normal_form(lnf, order=1, prune_rel=NF_PRUNE)
    return {"lnf": lnf, "res": res,
            "times": {"nf_s": time.perf_counter() - t0},
            "cfg": kg.SimConfig(n=16, a=0.05, dt=0.01, order=1,
                                sample_every=50, seed=seed, **cfg)}


def ladder_setup(seed: int) -> dict:
    return _order1_n16(seed, horizon=LADDER_HORIZON)


def ladder_round(inp: dict) -> Round:
    rnd = Round()
    rnd.out["drift"] = _timed(rnd, "kg_s", kg.drift_experiment, inp["cfg"],
                              list(LADDER), inp["res"])
    rnd.steps = len(LADDER) * inp["cfg"].steps()
    return rnd


def ladder_check(inp: dict, rnd: Round) -> list[list[str]]:
    drift = rnd.out["drift"]
    rows = {row["radius"]: row for row in drift["ladder"]}
    shared = []
    if not drift["slope_H_Omega"] >= 3.0:
        shared.append(f"slope {drift['slope_H_Omega']:.3f} < 3")
    if not drift["monotone_H_Omega"]:
        shared.append("drift not monotone in R")
    out = []
    for r in LADDER:
        row = rows[r]
        bad = list(shared)
        if not row["max_dH_Omega"] <= 10.0 * row["bound_H_Omega"]:
            bad.append(f"R={r:g}: drift {row['max_dH_Omega']:.2e} above "
                       f"10 Omega R^4")
        if not row["max_energy_error"] <= KG_ENERGY_TOL:
            bad.append(f"R={r:g}: energy error {row['max_energy_error']:.2e}")
        out.append(bad)
    return out


# -- gdnls --------------------------------------------------------------------------

def gdnls_setup(seed: int) -> dict:
    inp = _order1_n16(seed, radius=GDNLS_RADIUS, horizon=GDNLS_HORIZON)
    inp["model"] = kg.extract_gdnls(inp["res"])
    return inp


def gdnls_round(inp: dict) -> Round:
    rnd = Round()
    cfg = inp["cfg"]
    g = _timed(rnd, "gdnls_s", kg.integrate_gdnls, inp["model"], cfg)
    k = _timed(rnd, "kg_s", kg.integrate_kg, cfg)
    rnd.out["cmp"] = kg.compare_models(k, g, inp["lnf"])
    rnd.out["gdnls"], rnd.out["kg"] = g, k
    rnd.steps = cfg.steps()
    return rnd


def gdnls_check(inp: dict, rnd: Round) -> list[list[str]]:
    g_err = float(max(rnd.out["gdnls"].energy_error))
    k_err = float(max(rnd.out["kg"].energy_error))
    dev = rnd.out["cmp"]["max_deviation"]
    return [
        [] if g_err <= GDNLS_ENERGY_TOL else [f"K-energy error {g_err:.2e}"],
        [] if k_err <= KG_ENERGY_TOL else [f"KG energy error {k_err:.2e}"],
        [] if dev <= GDNLS_DEVIATION_TOL and math.isfinite(dev)
        else [f"KG/GdNLS deviation {dev:.2e} above {GDNLS_DEVIATION_TOL:.2e}"],
    ]


WORKLOADS = {
    "nf-coupled": (nf_coupled_setup, nf_coupled_round, nf_coupled_check),
    "roundtrip": (roundtrip_setup, roundtrip_round, roundtrip_check),
    "ladder": (ladder_setup, ladder_round, ladder_check),
    "gdnls": (gdnls_setup, gdnls_round, gdnls_check),
}
# the operations of one round, in the order ``check`` reports them
OPS = {
    "nf-coupled": ["solve"],
    "roundtrip": ["solve", "transform"],
    "ladder": [f"trajectory R={r:g}" for r in LADDER],
    "gdnls": ["gdnls trajectory", "kg trajectory", "comparison"],
}


if __name__ == "__main__":
    # Rewrites the stored nf-coupled reference from the current program:
    #   PYTHONPATH=src python3 perfbench/workloads.py
    res = nf_coupled_round(
        {"lnf": kg.linear_normalize(0.05, 8)}).out["res"]
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference_to_json(res), fh, separators=(",", ":"))
        fh.write("\n")
