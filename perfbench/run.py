"""kgchain benchmark: run one workload in fresh processes and report it.

    python3 perfbench/run.py --workload nf-coupled --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; kgchain is imported from its ``src``.
With ``--trace 0`` the end-to-end metrics are measured: set-up runs in
``SETUP_REPEATS`` fresh processes (the last one also runs the timed
rounds) and ``setup_s`` is their median.  Set-up of ``nf-coupled`` and
``roundtrip`` is under a second, mostly interpreter start and imports,
so it is sampled five times; the N=16 set-up of the others three times.
With ``--trace 1`` one traced process gives the per-layer metrics (see
spans.py) and writes its spans to ``perfbench/out/``.  The last line of
stdout is the JSON result; lines before it name every metric with its
unit.  Exits 2 without a result when
the program is missing or cannot be set up.

Every process is single-threaded (BLAS/OpenMP pools pinned to one thread)
and runs alone: workers are started one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nf-coupled", "roundtrip", "ladder", "gdnls")
DETERMINISTIC = ("nf-coupled", "roundtrip")
SETUP_REPEATS = {"nf-coupled": 5, "roundtrip": 5, "ladder": 3, "gdnls": 3}
BUDGET_S = 170.0        # a run must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "PYTHONDONTWRITEBYTECODE": "1"}


class WorkerError(RuntimeError):
    pass


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": list(os.getloadavg()), "commit": commit}


def spawn(args, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("time budget used up before the run finished")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                          stdout=subprocess.PIPE, text=True, timeout=left)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(setups: list[dict], full: dict) -> tuple[dict, dict]:
    """The metrics of BENCHMARK.json, and the workload-specific figures
    printed beside them (a BENCHMARK.json metric exists on every workload)."""
    rounds = full["rounds"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": full["peak_rss_mb"],
    }
    nf = _median_of(r["times"].get("nf_s") for r in rounds)
    extra = {
        # ladder, gdnls: the normal form is built in set-up
        "nf_s": (nf if nf is not None else
                 _median_of(s["setup_times"].get("nf_s") for s in setups),
                 "s"),
        "transform_s": (_median_of(r["times"].get("transform_s")
                                   for r in rounds), "s"),
        "kg_steps_per_s": (_median_of(
            r["steps"] / r["times"]["kg_s"] for r in rounds
            if "kg_s" in r["times"] and "gdnls_s" not in r["times"]),
            "steps/s"),
        "gdnls_steps_per_s": (_median_of(
            r["steps"] / r["times"]["gdnls_s"] for r in rounds
            if "gdnls_s" in r["times"]), "steps/s"),
        "rounds": (len(rounds), "count"),
        # below 1 when the process waited for the CPU during its rounds
        "cpu_share": (sum(r["cpu_s"] for r in rounds)
                      / sum(r["wall_s"] for r in rounds), "ratio"),
    }
    return metrics, {k: v for k, v in extra.items() if v[0] is not None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "kgchain" / "__init__.py").is_file():
        print(f"kgchain sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print("env " + json.dumps(environment()))
    if args.workload in DETERMINISTIC:
        print(f"note: {args.workload} takes no random input; "
              f"seed {args.seed} is unused")

    try:
        if args.trace:
            full = spawn(args, deadline)
            from spans import PER_LAYER
            metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                       for k, v in full["layers"].items()}
        else:
            setups = [spawn(args, deadline, setup_only=True)
                      for _ in range(SETUP_REPEATS[args.workload] - 1)]
            full = spawn(args, deadline)
            setups.append(full)
            values, extra = end_to_end(setups, full)
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in values.items()}
            for name, (value, unit) in extra.items():
                print(f"info {name} = {value:.6g} {unit}")
    except (WorkerError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    print("versions " + json.dumps(full["versions"]))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for f in full["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['why'])}")
    failed = len(full["failures"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": full["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
