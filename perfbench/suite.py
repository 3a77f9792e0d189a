"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 10 --traced 2 --out perfbench/out/suite.json

Each run is ``run.py`` in its own process, one after another, with the
workloads and ``run_seconds`` of BENCHMARK.json.  For every end-to-end
metric the summary gives the median, the quartiles (Python's
``statistics.quantiles(n=4)``), the sample count and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json; a metric is steady
when its spread is below a third of its bound.  The median ``cpu_share``
(process CPU time over wall time in the rounds) tells a slow host, whose
CPU runs slower, from one that takes the CPU away.  With
``--traced K`` each workload is also run K times traced on the first seed,
each time right after an untraced run: the per-layer counts must repeat
exactly, and the tracing overhead is the median over these pairs of the
traced round time over the untraced ``wall_s``, minus one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: "
                           f"exit {proc.returncode}")
    out = json.loads(lines[-1])
    out["info"] = {}
    for line in lines:
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("versions "):
            out["versions"] = json.loads(line[9:])
        elif line.startswith("info "):
            name, value = line[5:].split(" = ")
            out["info"][name] = float(value.split()[0])
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", default=str(HERE / "out" / "suite.json"))
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for w in names:
            r = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, **r})
            print(f"{w:10s} seed {seed:3d} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)

    report = {"seconds": seconds, "seeds": list(seeds), "workloads": {}}
    ok = True
    for w in names:
        entry = {"runs": runs[w], "summary": {},
                 "failed": sum(r["failed"] for r in runs[w]),
                 "attempted": sum(r["attempted"] for r in runs[w])}
        print(f"\n{w}: {entry['failed']} of {entry['attempted']} operations "
              "failed")
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for r in runs[w]])
            s["bound"] = bounds[metric]
            steady = s["spread"] < bounds[metric] / 3
            ok &= steady and entry["failed"] == 0
            entry["summary"][metric] = s
            print(f"  {metric:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                  f"  q3 {s['q3']:.5g}  n {s['n']}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{'' if steady else '  NOT STEADY'}")
        cpu = statistics.median(r["info"]["cpu_share"] for r in runs[w])
        entry["cpu_share"] = cpu
        print(f"  cpu_share    median {cpu:.4f}")
        if args.traced:
            # each traced run right after an untraced one, so that both
            # see the same host speed
            pairs = [(run_once(w, args.first_seed, seconds, 0),
                      run_once(w, args.first_seed, seconds, 1))
                     for _ in range(args.traced)]
            traced = [t for _, t in pairs]
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] == "count"} for t in traced]
            repeat = all(c == counts[0] for c in counts)
            ok &= repeat
            layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            overhead = statistics.median(
                t["metrics"]["trace.round_s"]["value"]
                / u["metrics"]["wall_s"]["value"] for u, t in pairs) - 1.0
            entry.update({"traced": traced,
                          "untraced_pairs": [u for u, _ in pairs],
                          "counts_repeat": repeat,
                          "trace_overhead": overhead})
            print(f"  traced x{args.traced}: counts repeat exactly: {repeat};"
                  f" tracing overhead {overhead:+.3f}")
            for k, v in layers.items():
                if v:
                    print(f"    {k} = {v:.6g}")
        report["workloads"][w] = entry

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.out}; {'steady' if ok else 'NOT steady or failed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
