"""Tests of the benchmark itself (not of kgchain):

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import time
import types
from pathlib import Path

import pytest

from worker import _import_program, run_rounds

_import_program()

import kgchain as kg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _reference_result():
    """A normal-form result rebuilt from the stored nf-coupled reference."""
    inp = W.nf_coupled_setup(0)
    lnf = inp["lnf"]

    def seeds(key):
        return [kg.SeedPoly(kg.REAL, 8, dict(p))
                for p in W.stored_reference()[key]]
    res = types.SimpleNamespace(lnf=lnf, zetas=seeds("zetas"),
                                seq=types.SimpleNamespace(chis=seeds("chis")))
    rnd = W.Round()
    rnd.out["res"] = res
    return inp, rnd


def test_reference_output_passes_nf_coupled_check():
    inp, rnd = _reference_result()
    assert W.nf_coupled_check(inp, rnd) == [[]]


@pytest.mark.parametrize("key,index", [("zetas", 0), ("zetas", 1),
                                       ("chis", 0), ("chis", 1)])
def test_scaled_seed_is_a_failed_operation(key, index):
    inp, rnd = _reference_result()
    res = rnd.out["res"]
    polys = res.zetas if key == "zetas" else res.seq.chis
    polys[index] = polys[index].scaled(1 + 1e-6)
    verdicts = W.nf_coupled_check(inp, rnd)
    assert verdicts[0], "a 1e-6 relative corruption must fail the solve"

    rounds, attempted, failures = run_rounds(
        lambda _: rnd, W.nf_coupled_check, W.OPS["nf-coupled"], inp,
        seconds=0)
    assert (attempted, len(failures)) == (1, 1)


def test_range_term_in_zeta_fails_kernel_purity():
    inp, rnd = _reference_result()
    z = rnd.out["res"].zetas[0]
    leak = kg.SeedPoly.term([(0, 3, 1)], 1e-4 * z.max_abs_coeff(), n=8)
    rnd.out["res"].zetas[0] = z + leak
    assert any("kernel-pure" in why for why in W.nf_coupled_check(inp, rnd)[0])


def test_exception_fails_every_operation_of_the_round():
    def boom(_):
        raise RuntimeError("diverged")
    ops = W.OPS["ladder"]
    rounds, attempted, failures = run_rounds(boom, None, ops, {}, seconds=0)
    assert attempted == len(ops) == 4
    assert [f["op"] for f in failures] == ops
    assert len(rounds) == 1


def test_self_time_on_a_synthetic_tree():
    # 0: [0, 100] with children 1: [10, 40] and 2: [50, 60]; 1 has child
    # 3: [20, 25].  Attribute work of 3 (4 ns, after it closed) is hidden
    # in 1 and 0; that of 1 (6 ns) in 0 only.
    start, end = [0, 10, 50, 20], [100, 40, 60, 25]
    parent, hidden = [-1, 0, 0, 1], [10, 4, 0, 0]
    dur = spans.net_durations(start, end, hidden)
    assert dur == [90, 26, 10, 5]
    assert spans.self_times(dur, parent) == [54, 21, 10, 5]


def test_attribute_work_is_charged_to_no_span():
    tr = spans.Tracer()
    slow_attrs = tr.wrap("inner", lambda: None,
                         lambda a, k, out: time.sleep(0.05) or {})
    outer = tr.wrap("outer", lambda: slow_attrs())
    with tr.span("round"):
        outer()
    dur = spans.net_durations(tr.start, tr.end, tr.hidden)
    assert tr.names == ["round", "outer", "inner"]
    assert tr.hidden[0] == tr.hidden[1] >= 0.05e9
    assert tr.hidden[2] == 0
    assert max(dur) < 0.01e9


def _synthetic_tracer():
    tr = spans.Tracer()
    t = iter(range(0, 10_000, 10))

    def add(name, parent, attrs=None):
        tr.names.append(name)
        tr.parent.append(parent)
        tr.start.append(next(t))
        tr.end.append(tr.start[-1] + 5)
        tr.attrs.append(attrs)
        tr.hidden.append(0)
        return len(tr.names) - 1

    s = add("setup", -1)
    add("seed_bracket", s, {"kind": "birkhoff", "pairs": 10, "out_terms": 2})
    for _ in range(3):
        r = add("round", -1)
        tr.end[r] = tr.start[r] + 1000
        h = add("solve_homological", r)
        for _ in range(3):
            add("invert_lie_omega", h)
        add("seed_bracket", h, {"kind": "real", "pairs": 4, "out_terms": 1})
    c = add("check", -1)
    add("seed_bracket", c, {"kind": "real", "pairs": 99, "out_terms": 9})
    return tr


def test_layer_metrics_count_setup_once_and_rounds_per_round():
    m = spans.layer_metrics(_synthetic_tracer())
    assert m["cyclic.bracket_b.calls"] == 1
    assert m["cyclic.bracket_b.pairs"] == 10
    assert m["cyclic.bracket_r.calls"] == 1       # the check is not counted
    assert m["cyclic.bracket_r.pairs"] == 4
    assert m["cyclic.bracket.round_calls"] == 1
    assert m["normalform.homological.calls"] == 1
    assert m["normalform.neumann_iters"] == 2
    assert m["trace.round_s"] == 1000 / 1e9
    assert list(m) == list(spans.PER_LAYER)


def test_traced_counts_repeat_and_tracer_restores_the_program():
    orig = kg.normalform.seed_bracket
    lnf = kg.linear_normalize(0.05, 4)
    counts = []
    for _ in range(2):
        tr = spans.Tracer()
        tr.install()
        assert kg.normalform.seed_bracket is not orig
        with tr.span("round"):
            kg.normal_form(lnf, order=2, prune_rel=1e-9)
        tr.uninstall()
        m = spans.layer_metrics(tr)
        counts.append({k: v for k, v in m.items()
                       if spans.PER_LAYER[k] == "count"})
    assert kg.normalform.seed_bracket is orig
    assert counts[0] == counts[1]
    assert counts[0]["cyclic.bracket_b.calls"] > 0
    assert counts[0]["normalform.homological.calls"] == 2


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(W.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == spans.PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
