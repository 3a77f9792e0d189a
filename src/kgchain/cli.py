"""Command-line interface: normalize, gdnls, simulate, bounds, verify.

Configuration can come from flags or from a JSON config file; flags
override the file.  Each key is declared once, in ``OPTIONS``, and every
value a command reads passes its row's checks before any work.  All
numeric output is serialized as shortest round-trip-exact decimals, and
repeated runs with the same configuration produce byte-identical files
(writes are atomic).

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
from typing import Callable, NamedTuple

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
    _write_atomic(path, json.dumps(_sanitize(obj), sort_keys=True, indent=2)
                  + "\n")


def write_trajectory_csv(path, traj: dyn.Trajectory):
    """Atomic CSV dump: t, H, H_Omega, Z, energy_error per sample."""
    obs = traj.observables
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "H", "H_Omega", "Z", "energy_error"])
    for i, t in enumerate(traj.times):
        w.writerow([repr(float(t)), repr(float(traj.energy[i])),
                    repr(float(obs["H_Omega"][i])),
                    repr(float(obs["Z"][i])),
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


class Option(NamedTuple):
    """One configuration key.  ``kind`` is the flag's type (int, float, str
    or bool) or a tuple of the allowed strings; ``ok`` is the range test a
    value must pass (NaN fails every one), ``message`` says why it failed.
    A key whose default is None may also be null."""
    default: object
    kind: type | tuple
    ok: Callable[[object], bool] | None = None
    message: str = ""
    help: str | None = None


OPTIONS = {
    "n": Option(8, int, lambda v: v >= 1, "chain size must be >= 1"),
    "a": Option(0.05, float, lambda v: 0 <= v < math.inf,
                "must be finite and >= 0"),
    "order": Option(1, int, lambda v: v >= 1, "must be >= 1"),
    "out": Option(".", str),
    "tol": Option(1e-12, float, lambda v: 0 < v < math.inf,
                  "must be finite and positive"),
    "soft": Option(False, bool),
    "prune": Option(None, float, lambda v: 0 < v < 1,
                    "must be a number with 0 < prune < 1",
                    "engine coefficient truncation override"),
    "radius": Option(0.05, float, lambda v: 0 < v < math.inf,
                     "must be finite and positive"),
    "norm": Option("l2", ("l2", "linf")),
    "seed": Option(0, int, lambda v: v >= 0, "must be >= 0"),
    "sigma_star": Option(None, float, math.isfinite,
                         "must be null or finite"),
    # smax >= order + 1 is checked by ``normalize``, which knows the order
    "smax": Option(None, int),
    "energy": Option(0.1, float, lambda v: 0 <= v < math.inf,
                     "must be finite and >= 0",
                     "scaled-energy parameter of the two-step pipeline"),
    # dt and horizon are checked by SimConfig.validate
    "dt": Option(0.01, float),
    "horizon": Option(100.0, float),
    "ladder": Option(None, str, help="comma-separated amplitude ladder"),
    "initial": Option("uniform-random-phase",
                      ("single-site", "uniform-random-phase")),
}

# the JSON type a value of each flag type must have, and its name; bool is
# a type of its own, not an integer
_TYPES = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number"),
          str: (str, "a string"), bool: (bool, "true or false")}

_ENGINE = ("n", "a", "order", "out", "tol", "soft", "prune")

# command -> (help, the keys it reads)
COMMANDS = {
    "normalize": ("compute the resonant normal form",
                  _ENGINE + ("sigma_star", "smax")),
    "gdnls": ("extract the GdNLS first-order model", _ENGINE + ("energy",)),
    "simulate": ("integrate the chain and measure adiabatic drift",
                 _ENGINE + ("radius", "norm", "seed", "dt", "horizon",
                            "ladder", "initial")),
    "bounds": ("constants and bound verification",
               _ENGINE + ("radius", "norm", "seed", "sigma_star")),
    "verify": ("run the invariant suite", ("a", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per COMMANDS entry: --config, a flag per key (unset
    = None), --json, and --inject-fault for ``verify``."""
    ap = argparse.ArgumentParser(
        prog="kgchain",
        description="Extensive resonant normal forms for periodic "
                    "Klein-Gordon chains")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="JSON config file; flags override")
        for key in keys:
            opt = OPTIONS[key]
            if opt.kind is bool:
                kind = {"action": "store_true", "default": None}
            elif isinstance(opt.kind, tuple):
                kind = {"choices": opt.kind}
            else:
                kind = {"type": opt.kind}
            p.add_argument("--" + key.replace("_", "-"), help=opt.help,
                           **kind)
        p.add_argument("--json", action="store_true",
                       help="print machine-readable results to stdout")
        if command == "verify":
            p.add_argument("--inject-fault", default=None,
                           choices=FAULT_HOOKS,
                           help="perturb one named check (testing aid)")
    return ap


def _checked(key: str, val):
    """``val`` if it passes the row of ``key``: type, choices, range."""
    opt = OPTIONS[key]
    if val is None and opt.default is None:
        return val
    choices = opt.kind if isinstance(opt.kind, tuple) else None
    kind, name = _TYPES[str if choices else opt.kind]
    if isinstance(val, bool) != (kind is bool) or not isinstance(val, kind):
        raise CliError(f"{key}: must be {name}, got {val!r}")
    if choices and val not in choices:
        raise CliError(f"{key}: must be one of {list(choices)}, "
                       f"got {val!r}")
    if opt.ok and not opt.ok(val):
        raise CliError(f"{key}: {opt.message}")
    return val


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's keys: defaults, then the config file, then flags.

    A config file may hold any key of OPTIONS; the command reads and checks
    exactly the keys COMMANDS gives it, each against its row.
    """
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise CliError(f"config: {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(OPTIONS)
        if unknown:
            raise CliError(f"config: unknown keys {sorted(unknown)}")
    cfg = {}
    for key in COMMANDS[args.command][1]:
        val = getattr(args, key)
        if val is None:
            val = file_cfg.get(key, OPTIONS[key].default)
        cfg[key] = _checked(key, val)
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


def cmd_normalize(cfg: dict, args) -> tuple[int, dict]:
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
    payload.update(nf_dict)
    _dump_json(os.path.join(out, "normalform.json"), payload)
    _dump_json(os.path.join(out, "bounds-report.json"), report)
    lines = [f"normal form: n={cfg['n']} a={cfg['a']} order={cfg['order']}",
             f"Omega = {res.lnf.omega!r}  mu = {res.lnf.mu!r}",
             f"advisory: {advisory}"]
    for s, z in enumerate(res.zetas, 1):
        prof = cp.fit_decay(cp.norm_pairs(z))
        chi_prof = cp.fit_decay(cp.norm_pairs(res.seq.chis[s - 1]))
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
    return 0, {"advisory": advisory, "bounds": report}


def cmd_gdnls(cfg: dict, args) -> tuple[int, dict]:
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
    _dump_json(os.path.join(cfg["out"], "gdnls.json"), payload)
    return 0, {"b": payload["b"], "reference": payload["reference"]}


def cmd_simulate(cfg: dict, args) -> tuple[int, dict]:
    base = dyn.SimConfig(n=cfg["n"], a=cfg["a"], radius=cfg["radius"],
                         norm=cfg["norm"], dt=cfg["dt"],
                         horizon=cfg["horizon"], order=cfg["order"],
                         initial=cfg["initial"], seed=cfg["seed"],
                         soft=cfg["soft"])
    try:
        base.validate()
        ladder = [float(x) for x in cfg["ladder"].split(",")] \
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
            _dump_json(os.path.join(out, "scaling.json"), report)
            return 0, {"slope_H_Omega": report["slope_H_Omega"],
                       "monotone": report["monotone_H_Omega"]}
        traj = dyn.integrate_kg(base)
        dyn.observables(traj, res, orders=())
        write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
        return 0, {"max_energy_error": float(np.max(traj.energy_error))}
    except dyn.IntegratorError as exc:
        raise CliError(f"integrator: {exc}", code=3)


def cmd_bounds(cfg: dict, args) -> tuple[int, dict]:
    res = _normal_form(cfg)
    rec, _, report = _constants(res, cfg)
    if rec is not None:
        report["deformation"] = bounds_mod.deformation_bound(
            res, cfg["radius"], rec, seed=cfg["seed"], norm=cfg["norm"])
    _dump_json(os.path.join(cfg["out"], "bounds-report.json"), report)
    return 0, {"all_pass": report["all_pass"]}


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
        return poly + cp.SeedPoly.term(m.exps, 1e-3 * (abs(c) + 1.0),
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
    chi, zeta = nf.solve_homological(lnf.h1, lnf.zeta0, lnf.omega, tol=1e-13)
    resid = nf.homological_residual(chi, zeta, lnf.h1, lnf.zeta0, lnf.omega)
    checks.append(("homological-residual",
                   resid / cp.poly_norm(lnf.h1, 1.0), 1e-10))

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


def cmd_verify(cfg: dict, args) -> tuple[int, dict]:
    checks = _verify_checks(cfg, args.inject_fault)
    rows = [{"name": name, "value": float(val), "tolerance": tol,
             "pass": bool(val <= tol)} for name, val, tol in checks]
    ok = all(r["pass"] for r in rows)
    if not args.json:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] "
                  f"{r['name']:<{width}}  {r['value']:.3e} "
                  f"(tol {r['tolerance']:g})")
        print("all checks passed" if ok else "FAILURES present")
    return (0 if ok else 1), {"checks": rows, "all_pass": ok}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each takes the resolved config and the flags and returns its exit
    # code and its --json payload
    handlers = {"normalize": cmd_normalize, "gdnls": cmd_gdnls,
                "simulate": cmd_simulate, "bounds": cmd_bounds,
                "verify": cmd_verify}
    try:
        code, payload = handlers[args.command](resolve_config(args), args)
        if args.json:
            print(json.dumps(_sanitize(payload), sort_keys=True))
        return code
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
