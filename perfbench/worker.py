"""One workload in one fresh process; started by run.py, not by hand.

Imports kgchain from the checkout's ``src`` (and refuses any other copy),
builds the inputs, and unless ``--setup-only`` repeats rounds until
``--seconds`` have passed.  Prints one JSON object on stdout; a traced
run also writes its spans to ``perfbench/out/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import kgchain
    where = Path(kgchain.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"kgchain imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawn-ns", type=int, required=True,
                    help="time.monotonic_ns() when the parent started us")
    args = ap.parse_args(argv)

    _import_program()
    import numpy
    import scipy

    import workloads
    from spans import Tracer, layer_metrics

    setup, run_round, check = workloads.WORKLOADS[args.workload]
    ops = workloads.OPS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with span("setup"):
        inp = setup(args.seed)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    result = {"setup_s": setup_s, "setup_times": inp.get("times", {}),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rounds, attempted, failures = run_rounds(run_round, check, ops, inp,
                                             args.seconds, span)
    result.update({
        "rounds": rounds,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


def run_rounds(run_round, check, ops, inp, seconds, span=None):
    """Repeat rounds until ``seconds`` have passed (at least one round).

    Returns the per-round timings, the operations attempted, and one
    failure record per failed operation.  A failed check fails its
    operation; an exception fails every operation of the round.
    """
    span = span or (lambda name: contextlib.nullcontext())
    rounds, attempted, failures = [], 0, []
    t_start = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with span("round"):
                try:
                    rnd = run_round(inp)
                finally:
                    wall = time.perf_counter() - t0
                    cpu = time.process_time() - c0
            verdicts = check(inp, rnd)
            if len(verdicts) != len(ops):
                raise RuntimeError("check returned the wrong verdict count")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            verdicts = [[traceback.format_exc(limit=1).strip()]] * len(ops)
            rnd = None
        attempted += len(ops)
        failures += [{"op": op, "why": bad}
                     for op, bad in zip(ops, verdicts) if bad]
        rounds.append({"wall_s": wall, "cpu_s": cpu,
                       "times": rnd.times if rnd else {},
                       "steps": rnd.steps if rnd else 0})
        if time.perf_counter() - t_start >= seconds:
            return rounds, attempted, failures


if __name__ == "__main__":
    sys.exit(main())
