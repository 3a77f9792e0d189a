"""Command-line interface: normalize, gdnls, simulate, bounds, verify.

Configuration can come from flags or from a JSON config file; flags
override the file.  All numeric output is serialized as shortest
round-trip-exact decimals, and repeated runs with the same configuration
produce byte-identical files (writes are atomic).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import os
import sys
import tempfile

import numpy as np

from . import bounds as bounds_mod
from . import chainpoly as cp
from . import cyclic as cy
from . import dynamics as dyn
from . import linearize as lin
from . import normalform as nf


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(path: str, obj):
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2,
                                   allow_nan=True) + "\n")


def write_trajectory_csv(path, traj: dyn.Trajectory):
    """Atomic CSV dump: t, H, H_Omega, Z, energy_error per sample."""
    obs = traj.observables
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "H", "H_Omega", "Z", "energy_error"])
    for i, t in enumerate(traj.times):
        w.writerow([repr(float(t)), repr(float(traj.energy[i])),
                    repr(float(obs["H_Omega"][i]))
                    if "H_Omega" in obs else "",
                    repr(float(obs["Z"][i])) if "Z" in obs else "",
                    repr(float(traj.energy_error[i]))])
    _write_atomic(path, buf.getvalue())


def _sanitize(obj):
    """Make report structures JSON-serializable (inf -> string)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kgchain",
        description="Extensive resonant normal forms for periodic "
                    "Klein-Gordon chains")
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {
        "n": {"type": int}, "a": {"type": float}, "order": {"type": int},
        "radius": {"type": float}, "norm": {"choices": ["l2", "linf"]},
        "out": {}, "seed": {"type": int}, "tol": {"type": float},
        "soft": {"action": "store_true", "default": None},
        "prune": {"type": float,
                  "help": "engine coefficient truncation override"},
    }

    def common(p, *names):
        """--config, --json and the named flags of ``flags``, unset = None."""
        p.add_argument("--config", help="JSON config file; flags override")
        for name in names:
            p.add_argument(f"--{name}", **flags[name])
        p.add_argument("--json", action="store_true",
                       help="print machine-readable results to stdout")

    engine = ("n", "a", "order", "out", "tol", "soft", "prune")

    p = sub.add_parser("normalize", help="compute the resonant normal form")
    common(p, *engine)
    p.add_argument("--sigma-star", type=float, default=None)
    p.add_argument("--smax", type=int, default=None)

    p = sub.add_parser("gdnls", help="extract the GdNLS first-order model")
    common(p, *engine)
    p.add_argument("--energy", type=float, default=None,
                   help="scaled-energy parameter of the two-step pipeline")

    p = sub.add_parser("simulate", help="integrate the chain and measure "
                                        "adiabatic drift")
    common(p, *engine, "radius", "norm", "seed")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--ladder", default=None,
                   help="comma-separated amplitude ladder")
    p.add_argument("--initial", default=None,
                   choices=["single-site", "uniform-random-phase"])

    p = sub.add_parser("bounds", help="constants and bound verification")
    common(p, *engine, "radius", "norm", "seed")
    p.add_argument("--sigma-star", type=float, default=None)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p, "a", "seed")
    p.add_argument("--inject-fault", default=None, choices=FAULT_HOOKS,
                   help="perturb one named check (testing aid)")
    return ap


DEFAULTS = {
    "n": 8, "a": 0.05, "order": 1, "radius": 0.05, "norm": "l2",
    "out": ".", "seed": 0, "tol": 1e-12, "soft": False, "prune": None,
    "sigma_star": None, "smax": None, "energy": 0.1, "dt": 0.01,
    "horizon": 100.0, "ladder": None, "initial": "uniform-random-phase",
}


# key -> (type its value must have, its name); a key whose default is None
# may also be null.  bool is a type of its own, not an integer.
TYPES = {
    **dict.fromkeys(("n", "order", "seed", "smax"),
                    (numbers.Integral, "an integer")),
    **dict.fromkeys(("a", "radius", "tol", "prune", "sigma_star", "energy",
                     "dt", "horizon"), (numbers.Real, "a real number")),
    "soft": (bool, "true or false"),
    **dict.fromkeys(("norm", "out", "initial"), (str, "a string")),
}

# key -> (test a value must pass, message when it fails); written so that
# NaN fails every test
CHECKS = {
    "n": (lambda v: v >= 1, "chain size must be >= 1"),
    "a": (lambda v: v >= 0, "coupling must be nonnegative"),
    "order": (lambda v: v >= 1, "must be >= 1"),
    "radius": (lambda v: v > 0, "must be positive"),
    "tol": (lambda v: v > 0, "must be positive"),
    "prune": (lambda v: v is None or 0 < v < 1,
              "must be a number with 0 < prune < 1"),
    "energy": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
}


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags.

    A command reads exactly the keys it has flags for, and only those are
    validated; a config file may hold any known key.
    """
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config: cannot read {args.config}: {exc}")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise CliError(f"config: unknown keys {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, (kind, name) in TYPES.items():
        val = cfg[key]
        if not hasattr(args, key) or (val is None and DEFAULTS[key] is None):
            continue
        if (isinstance(val, bool) != (kind is bool)
                or not isinstance(val, kind)):
            raise CliError(f"{key}: must be {name}, got {val!r}")
    for key, (ok, message) in CHECKS.items():
        if hasattr(args, key) and not ok(cfg[key]):
            raise CliError(f"{key}: {message}")
    return cfg


def _normal_form(cfg: dict, s_max: int | None = None) -> nf.NormalFormResult:
    lnf = lin.linear_normalize(cfg["a"], cfg["n"])
    try:
        return nf.normal_form(lnf, cfg["order"], tol=cfg["tol"],
                              soft=cfg["soft"], s_max=s_max,
                              prune_rel=cfg["prune"])
    except nf.NeumannDivergenceError as exc:
        raise CliError(f"divergence: {exc}", code=3)


def _constants(res: nf.NormalFormResult, cfg: dict):
    """The run's one constants record, at the configured order and sigma_*.

    Returns the record (None in the decoupled limit and when the sigma_*
    window is empty or missed), the order-bound advisory and the bounds
    report, all three read off that one record.
    """
    if res.lnf.mu == 0.0:
        return (None, {"decoupled": True, "order_bound_violated": False},
                {"advisories": ["decoupled limit: no constants to check"],
                 "checks": [], "all_pass": True})
    try:
        rec = bounds_mod.constants(res.lnf, cfg["order"], cfg["sigma_star"])
    except bounds_mod.SigmaWindowError as exc:
        return (None, {"window_empty": True, "detail": str(exc)},
                {"advisories": [str(exc)], "window_empty": True,
                 "checks": [], "all_pass": True})
    advisory = {"r_max": rec.r_max,
                "order_bound_violated": cfg["order"] > rec.r_max}
    return rec, advisory, bounds_mod.verify_decay_bounds(res, rec)


def cmd_normalize(args) -> int:
    cfg = resolve_config(args)
    s_max = cfg["smax"]
    if s_max is None:
        s_max = cfg["order"] + 1
    elif s_max < cfg["order"] + 1:
        raise CliError(f"smax: must be an integer >= order+1 = "
                       f"{cfg['order'] + 1}, got {s_max!r}")
    res = _normal_form(cfg, s_max=s_max)
    rec, advisory, report = _constants(res, cfg)
    out = cfg["out"]
    nf_dict = res.to_dict()
    nf_dict["advisory"] = advisory
    for s, step in enumerate(nf_dict["generating"]):
        step["sigma"] = rec.sigma_seq[s] if rec else None
    payload = {"params": {k: cfg[k] for k in
                          ("n", "a", "order", "tol", "soft")}}
    payload.update(_sanitize(nf_dict))
    _dump_json(os.path.join(out, "normalform.json"), payload)
    _dump_json(os.path.join(out, "bounds-report.json"), _sanitize(report))
    lines = [f"normal form: n={cfg['n']} a={cfg['a']} order={cfg['order']}",
             f"Omega = {res.lnf.omega!r}  mu = {res.lnf.mu!r}",
             f"advisory: {advisory}"]
    for s, z in enumerate(res.zetas, 1):
        prof = cp.fit_decay(cp.decay_decompose(z))
        chi_prof = cp.fit_decay(cp.decay_decompose(res.seq.chis[s - 1]))
        lines.append(f"zeta_{s}: {z.num_terms()} terms, "
                     f"norm {cp.poly_norm(z, 1.0)!r}, "
                     f"decay fit (C={prof.c:.4e}, sigma={prof.sigma:.4f})")
        lines.append(f"chi_{s}: decay fit (C={chi_prof.c:.4e}, "
                     f"sigma={chi_prof.sigma:.4f})")
    for c in report.get("checks", []):
        verdict = {True: "PASS", False: "FAIL", None: "VOID"}[c["pass"]]
        lines.append(f"[{verdict}] {c['name']}: "
                     f"measured {c['measured']:.6e} <= "
                     f"theoretical {c['theoretical']:.6e}")
    for adv in report.get("advisories", []):
        lines.append(f"[ADVISORY] {adv}")
    _write_atomic(os.path.join(out, "summary.txt"), "\n".join(lines) + "\n")
    if args.json:
        print(json.dumps(_sanitize({"advisory": advisory,
                                    "bounds": report}), sort_keys=True))
    return 0


def cmd_gdnls(args) -> int:
    cfg = resolve_config(args)
    res = _normal_form(cfg)
    model = nf.extract_gdnls(res)
    std = nf.standard_dnls(cfg["a"], cfg["energy"], min(cfg["n"], 8)) \
        if cfg["a"] > 0 else None
    payload = model.to_dict()
    payload["reference"]["two_step_quadratic"] = \
        std.coeff_quadratic if std else 0.0
    payload["reference"]["two_step_quartic"] = \
        std.coeff_quartic if std else 0.0
    payload["reference"]["two_step_expected"] = \
        [cfg["a"] / 2.0, 3.0 * cfg["energy"] / 8.0]
    _dump_json(os.path.join(cfg["out"], "gdnls.json"), _sanitize(payload))
    if args.json:
        print(json.dumps(_sanitize({"b": list(model.b),
                                    "reference": payload["reference"]}),
                         sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    base = dyn.SimConfig(n=cfg["n"], a=cfg["a"], radius=cfg["radius"],
                         norm=cfg["norm"], dt=cfg["dt"],
                         horizon=cfg["horizon"], order=cfg["order"],
                         initial=cfg["initial"], seed=cfg["seed"],
                         soft=cfg["soft"])
    try:
        base.validate()
        ladder = [float(x) for x in str(cfg["ladder"]).split(",")] \
            if cfg["ladder"] else None
        if ladder:
            dyn.ladder_configs(base, ladder)
    except ValueError as exc:
        raise CliError(str(exc))
    res = _normal_form(cfg)
    out = cfg["out"]
    try:
        if ladder:
            # the files carry H_Omega and Z only: no J series
            report = dyn.drift_experiment(base, ladder, res, orders=())
            trajs = report.pop("trajectories")
            # repr names distinct radii apart
            for row, traj in zip(report["ladder"], trajs):
                write_trajectory_csv(
                    os.path.join(out, f"trajectory-R{row['radius']!r}.csv"),
                    traj)
            _dump_json(os.path.join(out, "scaling.json"), _sanitize(report))
            if args.json:
                print(json.dumps(_sanitize(
                    {"slope_H_Omega": report["slope_H_Omega"],
                     "monotone": report["monotone_H_Omega"]}),
                    sort_keys=True))
        else:
            traj = dyn.integrate_kg(base)
            dyn.observables(traj, res, orders=())
            write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
            if args.json:
                print(json.dumps(_sanitize(
                    {"max_energy_error":
                     float(np.max(traj.energy_error))}), sort_keys=True))
    except dyn.IntegratorError as exc:
        raise CliError(f"integrator: {exc}", code=3)
    return 0


def cmd_bounds(args) -> int:
    cfg = resolve_config(args)
    res = _normal_form(cfg, s_max=cfg["order"] + 1)
    rec, _, report = _constants(res, cfg)
    if rec is not None:
        report["deformation"] = bounds_mod.deformation_bound(
            res, cfg["radius"], rec, seed=cfg["seed"], norm=cfg["norm"])
    _dump_json(os.path.join(cfg["out"], "bounds-report.json"),
               _sanitize(report))
    if args.json:
        print(json.dumps(_sanitize({"all_pass": report["all_pass"]}),
                         sort_keys=True))
    return 0


# -- verify -------------------------------------------------------------------

# the checks that ``verify --inject-fault`` can perturb
FAULT_HOOKS = ("bracket-jacobi", "quadratic-identity", "kernel-purity",
               "field-shift-law", "dnls-coefficients")


def _verify_checks(cfg: dict, fault: str | None):
    rng = np.random.default_rng(cfg["seed"])
    checks = []

    def rand_seed(n, nterms=4):
        p = cp.SeedPoly.zero(n=n)
        for _ in range(nterms):
            ents = []
            for _ in range(int(rng.integers(1, 3))):
                s = int(rng.integers(0, 3))
                a = int(rng.integers(0, 3))
                b = int(rng.integers(0, 2))
                if a + b:
                    ents.append((s, a, b))
            if ents and sum(a + b for _, a, b in ents) <= 4:
                p = p + cp.SeedPoly.term(ents, float(rng.normal()), n=n)
        return p

    def fault_bump(name, poly):
        if fault != name:
            return poly
        m, c = poly.terms()[0]
        return poly + cp.SeedPoly.from_terms([(m, 1e-3 * (abs(c) + 1.0))],
                                             kind=poly.kind, n=poly.n)

    # bracket antisymmetry + Jacobi
    f, g, h = rand_seed(5), rand_seed(5), rand_seed(5)
    f = fault_bump("bracket-jacobi", f)
    anti = (cp.poisson_bracket(f, g) + cp.poisson_bracket(g, f)) \
        .max_abs_coeff()
    jac = (cp.poisson_bracket(f, cp.poisson_bracket(g, h))
           + cp.poisson_bracket(g, cp.poisson_bracket(h, f))
           + cp.poisson_bracket(h, cp.poisson_bracket(f, g))) \
        .max_abs_coeff()
    checks.append(("bracket-antisymmetry", anti, 1e-12))
    if fault == "bracket-jacobi":
        jac = 1.0   # a linear bump cannot break Jacobi; force the report
    checks.append(("bracket-jacobi", jac, 1e-12))

    # seed bracket vs realization
    worst = 0.0
    for n in (4, 5):
        for _ in range(10):
            ff, gg = rand_seed(n), rand_seed(n)
            lhs = cy.realize(cy.seed_bracket(ff, gg))
            rhs = cp.poisson_bracket(cy.realize(ff), cy.realize(gg))
            worst = max(worst, lhs.max_coeff_diff(rhs))
    checks.append(("seed-bracket-realization", worst, 1e-12))

    # spectrum formula
    circ = lin.build_A(cfg["a"] if cfg["a"] > 0 else 0.1, 16)
    d = float(np.max(np.abs(np.sort(circ.spectrum) - np.sort(
        lin.spectrum_formula(cfg["a"] if cfg["a"] > 0 else 0.1, 16)))))
    checks.append(("circulant-spectrum", d, 1e-12))
    half = lin.circulant_power(circ, 0.5)
    d = float(np.max(np.abs(np.fft.ifft(half.spectrum ** 2).real
                            - circ.row)))
    checks.append(("circulant-sqrt", d, 1e-12))

    # complexification round trip + reality
    p = rand_seed(5)
    rt = cp.to_real(cp.to_complex(p)).max_coeff_diff(p)
    checks.append(("complexification-roundtrip", rt, 1e-13))
    checks.append(("reality-condition",
                   cp.reality_defect(cp.to_complex(p)), 1e-13))

    # quadratic normalization at N=6
    nfres = lin.linear_normalize(0.05, 6)
    ho = cy.realize(nfres.h_omega)
    z0r = cy.realize(fault_bump("quadratic-identity", nfres.zeta0))
    bmat = lin.circulant_power(nfres.circ, 0.5).dense()
    oracle = cp.SeedPoly.zero(cp.REAL, 6)
    for i in range(6):
        for j in range(6):
            if bmat[i, j]:
                oracle = oracle + cp.SeedPoly.term(
                    [(i, 1, 0), (j, 1, 0)], 0.5 * bmat[i, j], n=6)
                oracle = oracle + cp.SeedPoly.term(
                    [(i, 0, 1), (j, 0, 1)], 0.5 * bmat[i, j], n=6)
    checks.append(("quadratic-identity",
                   (ho + z0r).max_coeff_diff(oracle), 1e-12))
    checks.append(("h-omega-z0-commute",
                   cp.poisson_bracket(ho, z0r).max_abs_coeff(), 1e-12))
    z0parts = cp.decay_decompose(nfres.zeta0)
    checks.append(("zeta0-distance0",
                   cp.poly_norm(z0parts.get(0, cp.SeedPoly.zero(cp.REAL, 6)),
                                1.0), 0.0))

    # homological residual
    lnf = lin.linear_normalize(0.02, 6)
    psi = cp.to_complex(lnf.h1)
    chi, zeta = nf.solve_homological(psi, cp.to_complex(lnf.zeta0),
                                     lnf.omega, tol=1e-13)
    resid = nf.homological_residual(chi, zeta, psi,
                                    cp.to_complex(lnf.zeta0), lnf.omega)
    checks.append(("homological-residual",
                   resid / cp.poly_norm(psi, 1.0), 1e-10))

    # kernel purity at order 2 (small chain keeps the suite quick)
    lnf5 = lin.linear_normalize(0.02, 5)
    resnf = nf.normal_form(lnf5, 2)
    purity = 0.0
    for z in resnf.zetas:
        zb = cp.to_complex(cy.realize(fault_bump("kernel-purity", z)))
        purity = max(purity, nf.lie_omega(zb, lnf5.omega).max_abs_coeff())
    checks.append(("kernel-purity", purity, 1e-12))

    # field shift law against the gradient oracle
    ff = rand_seed(5)
    fs = cy.field_seed(ff)
    full = cy.realize(ff)
    worst = 0.0
    for j in range(5):
        law = cy.cyclic_shift(fault_bump("field-shift-law", fs.xq), -j)
        worst = max(worst, law.max_coeff_diff(full.partial(j, 1)))
    checks.append(("field-shift-law", worst, 1e-12))

    # two-step dNLS coefficients
    std = nf.standard_dnls(0.05, 0.1, 6)
    err = max(abs(std.coeff_quadratic - 0.025),
              abs(std.coeff_quartic - 0.0375))
    if fault == "dnls-coefficients":
        err = 1.0
    checks.append(("dnls-coefficients", err, 1e-15))
    return checks


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    checks = _verify_checks(cfg, args.inject_fault)
    rows = [{"name": name, "value": float(val), "tolerance": tol,
             "pass": bool(val <= tol)} for name, val, tol in checks]
    ok = all(r["pass"] for r in rows)
    if args.json:
        print(json.dumps(_sanitize({"checks": rows, "all_pass": ok}),
                         sort_keys=True))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] "
                  f"{r['name']:<{width}}  {r['value']:.3e} "
                  f"(tol {r['tolerance']:g})")
        print("all checks passed" if ok else "FAILURES present")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {"normalize": cmd_normalize, "gdnls": cmd_gdnls,
                "simulate": cmd_simulate, "bounds": cmd_bounds,
                "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, cp.CoordinateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except nf.NormalFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
