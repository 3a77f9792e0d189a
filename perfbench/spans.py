"""Spans around the public entry points of the kgchain modules.

A :class:`Tracer` rebinds each traced function in every ``kgchain`` module
that holds it (so ``from .cyclic import seed_bracket`` in ``normalform`` is
caught as well) and wraps three class attributes.  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer figures, and
:meth:`Tracer.dump` writes them out when the run ends.

Per-layer figures describe one set-up plus one round of the workload:
spans under the ``setup`` root count once, spans under the ``round`` roots
are divided by the number of rounds.  Every round of a workload does the
same work, so counts stay exact.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time


class Tracer:
    """In-memory span recorder: name, start, end, parent, attributes."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.attrs: list[dict | None] = []
        self.hidden: list[int] = []     # attribute work inside the span, ns
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(None)
        self.hidden.append(0)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, attrs_of=None):
        """Callable that records a span around ``fn``.

        ``attrs_of(args, kwargs, result)`` runs after the span has closed,
        but while its ancestors are still open: its time is added to their
        ``hidden`` time, which :func:`net_durations` takes out again.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs_of is not None:
                t0 = time.perf_counter_ns()
                self.attrs[idx] = attrs_of(args, kwargs, out)
                spent = time.perf_counter_ns() - t0
                for j in self._stack:
                    self.hidden[j] += spent
            return out
        return traced

    def install(self):
        """Wrap every target in ``TARGETS`` and ``METHODS``."""
        import kgchain  # noqa: F401  (loads every traced module)

        modules = [m for name, m in list(sys.modules.items())
                   if name == "kgchain" or name.startswith("kgchain.")]
        for modname, attr, name, attrs_of in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig, attrs_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for modname, cls, attr, name, attrs_of in METHODS:
            owner = getattr(sys.modules[modname], cls)
            orig = owner.__dict__[attr]
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, attrs_of))

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "start_ns": self.start,
                       "end_ns": self.end, "parent": self.parent,
                       "hidden_ns": self.hidden, "attrs": self.attrs}, fh)


# -- what is traced ------------------------------------------------------------

def _bracket_attrs(args, kwargs, out):
    f, g = args[0], args[1]
    return {"kind": f.kind, "pairs": f.num_terms() * g.num_terms(),
            "out_terms": out.num_terms()}


def _terms_in(args, kwargs, out):
    return {"terms_in": args[0].num_terms()}


def _nf_attrs(args, kwargs, out):
    return {"chi_terms": sum(c.num_terms() for c in out.seq.chis),
            "zeta_terms": sum(z.num_terms() for z in out.zetas)}


def _kg_steps(args, kwargs, out):       # integrate_kg(cfg)
    return {"steps": args[0].steps()}


def _gdnls_steps(args, kwargs, out):    # integrate_gdnls(model, cfg, ...)
    return {"steps": args[1].steps()}


def _samples(args, kwargs, out):
    return {"samples": len(args[0].times)}


def _prune_attrs(args, kwargs, out):
    # imported here: run.py loads this module without kgchain on the path
    from kgchain import poly_norm          # at radius 1: sum of |c|
    mass_in = poly_norm(args[0], 1.0)
    return {"mass_in": mass_in, "dropped": mass_in - poly_norm(out, 1.0)}


# (module, function, span name, attributes)
TARGETS = [
    ("kgchain.cyclic", "seed_bracket", "seed_bracket", _bracket_attrs),
    ("kgchain.normalform", "solve_homological", "solve_homological", None),
    ("kgchain.normalform", "invert_lie_omega", "invert_lie_omega", None),
    ("kgchain.normalform", "normal_form", "normal_form", _nf_attrs),
    ("kgchain.normalform", "remainder_head", "remainder_head", None),
    ("kgchain.normalform", "lie_transform_apply", "lie_transform_apply",
     None),
    ("kgchain.chainpoly", "to_complex", "convert", _terms_in),
    ("kgchain.chainpoly", "to_real", "convert", _terms_in),
    ("kgchain.dynamics", "integrate_kg", "integrate_kg", _kg_steps),
    ("kgchain.dynamics", "kg_energy", "kg_energy", None),
    ("kgchain.dynamics", "observables", "observables", _samples),
    ("kgchain.dynamics", "integrate_gdnls", "integrate_gdnls", _gdnls_steps),
    ("kgchain.linearize", "linear_normalize", "linear_normalize", None),
    ("kgchain.linearize", "apply_linear", "apply_linear", None),
]

# (module, class, attribute, span name, attributes)
METHODS = [
    ("kgchain.chainpoly", "SeedPoly", "prune", "prune", _prune_attrs),
    ("kgchain.cyclic", "RealizedEvaluator", "__call__", "realized_eval",
     None),
    ("kgchain.cyclic", "FieldEvaluator", "__call__", "field_eval", None),
]

# name -> unit, in the order they are reported
PER_LAYER = {
    "cyclic.bracket_b.calls": "count",
    "cyclic.bracket_b.s": "s",
    "cyclic.bracket_b.pairs": "count",
    "cyclic.bracket_b.out_terms": "count",
    "cyclic.bracket_b.yield": "ratio",
    "cyclic.bracket_b.ns_per_pair": "ns",
    "cyclic.bracket_b.share": "ratio",
    "cyclic.bracket_r.calls": "count",
    "cyclic.bracket_r.s": "s",
    "cyclic.bracket_r.pairs": "count",
    "cyclic.bracket_r.out_terms": "count",
    "cyclic.bracket_r.yield": "ratio",
    "cyclic.bracket_r.ns_per_pair": "ns",
    "cyclic.bracket_r.share": "ratio",
    "cyclic.bracket.round_calls": "count",
    "normalform.homological.calls": "count",
    "normalform.homological.s": "s",
    "normalform.homological.self_s": "s",
    "normalform.neumann_iters": "count",
    "normalform.remainder_s": "s",
    "normalform.transform_s": "s",
    "normalform.normal_form_self_s": "s",
    "normalform.chi_terms": "count",
    "normalform.zeta_terms": "count",
    "chainpoly.convert.calls": "count",
    "chainpoly.convert.s": "s",
    "chainpoly.convert.terms_in": "count",
    "chainpoly.prune.calls": "count",
    "chainpoly.prune.dropped_rel": "ratio",
    "dynamics.kg.steps": "count",
    "dynamics.kg.step_us": "us",
    "dynamics.kg_energy.calls": "count",
    "dynamics.kg_energy.s": "s",
    "dynamics.observables.calls": "count",
    "dynamics.observables.samples": "count",
    "dynamics.observables.s": "s",
    "cyclic.realized_eval.calls": "count",
    "cyclic.realized_eval.us_p50": "us",
    "cyclic.realized_eval.us_p99": "us",
    "dynamics.gdnls.steps": "count",
    "dynamics.gdnls.step_us": "us",
    "dynamics.gdnls.evals_per_kick": "count",
    "cyclic.field_eval.calls": "count",
    "cyclic.field_eval.us_p50": "us",
    "cyclic.field_eval.us_p99": "us",
    "cyclic.field_eval.share": "ratio",
    "linearize.normalize_s": "s",
    "linearize.apply_linear_s": "s",
    "trace.round_s": "s",
}


# -- arithmetic on the span tree -----------------------------------------------

def net_durations(start, end, hidden) -> list[int]:
    """Each span's duration without the attribute work done inside it."""
    return [e - s - h for s, e, h in zip(start, end, hidden)]


def self_times(dur, parent) -> list[int]:
    """Each span's (net) duration minus its children's.

    Spans come from a stack, so a span's children are disjoint and lie
    inside it.
    """
    out = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= dur[i]
    return out


def _roots(parent) -> list[int]:
    root = []
    for i, p in enumerate(parent):
        root.append(i if p < 0 else root[p])
    return root


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round (see module doc)."""
    names, parent, attrs = tr.names, tr.parent, tr.attrs
    dur = net_durations(tr.start, tr.end, tr.hidden)
    selfs = self_times(dur, parent)
    root = _roots(parent)
    rounds = [i for i, p in enumerate(parent) if p < 0 and names[i] == "round"]
    n_rounds = max(len(rounds), 1)
    phase = [names[root[i]] for i in range(len(names))]
    in_round = [p == "round" for p in phase]
    round_ns = sum(dur[i] for i in rounds)

    def total(pred, value):
        # set-up once plus the mean round; the output checks are not counted
        once = per_round = 0
        for i in range(len(names)):
            if phase[i] == "setup" and pred(i):
                once += value(i)
            elif phase[i] == "round" and pred(i):
                per_round += value(i)
        return once + per_round / n_rounds

    def count(pred):
        return total(pred, lambda i: 1)

    def secs(pred, of=dur):
        return total(pred, lambda i: of[i]) / 1e9

    def attr(key):
        return lambda i: (attrs[i] or {}).get(key, 0)

    def named(name, **match):
        return lambda i: names[i] == name and all(
            (attrs[i] or {}).get(k) == v for k, v in match.items())

    def share(pred):
        return (sum(dur[i] for i in range(len(names))
                    if pred(i) and in_round[i]) / round_ns
                if round_ns else 0.0)

    m: dict[str, float] = {}
    for tag, kind in (("b", "birkhoff"), ("r", "real")):
        is_b = named("seed_bracket", kind=kind)
        pairs = total(is_b, attr("pairs"))
        out_terms = total(is_b, attr("out_terms"))
        s = secs(is_b)
        m[f"cyclic.bracket_{tag}.calls"] = count(is_b)
        m[f"cyclic.bracket_{tag}.s"] = s
        m[f"cyclic.bracket_{tag}.pairs"] = pairs
        m[f"cyclic.bracket_{tag}.out_terms"] = out_terms
        m[f"cyclic.bracket_{tag}.yield"] = out_terms / pairs if pairs else 0.0
        m[f"cyclic.bracket_{tag}.ns_per_pair"] = (s * 1e9 / pairs
                                                  if pairs else 0.0)
        m[f"cyclic.bracket_{tag}.share"] = share(is_b)
    m["cyclic.bracket.round_calls"] = count(
        lambda i: names[i] == "seed_bracket" and in_round[i])

    is_h = named("solve_homological")
    m["normalform.homological.calls"] = count(is_h)
    m["normalform.homological.s"] = secs(is_h)
    m["normalform.homological.self_s"] = secs(is_h, selfs)
    inverts: dict[int, int] = {}
    for i in range(len(names)):
        if names[i] == "invert_lie_omega" and parent[i] >= 0 \
                and names[parent[i]] == "solve_homological":
            inverts[parent[i]] = inverts.get(parent[i], 0) + 1
    m["normalform.neumann_iters"] = total(
        is_h, lambda i: max(inverts.get(i, 0) - 1, 0))
    m["normalform.remainder_s"] = secs(named("remainder_head"))
    m["normalform.transform_s"] = secs(named("lie_transform_apply"))
    m["normalform.normal_form_self_s"] = secs(named("normal_form"), selfs)
    m["normalform.chi_terms"] = total(named("normal_form"), attr("chi_terms"))
    m["normalform.zeta_terms"] = total(named("normal_form"),
                                       attr("zeta_terms"))

    is_c = named("convert")
    m["chainpoly.convert.calls"] = count(is_c)
    m["chainpoly.convert.s"] = secs(is_c)
    m["chainpoly.convert.terms_in"] = total(is_c, attr("terms_in"))
    is_p = named("prune")
    m["chainpoly.prune.calls"] = count(is_p)
    mass_in = total(is_p, attr("mass_in"))
    m["chainpoly.prune.dropped_rel"] = (total(is_p, attr("dropped")) / mass_in
                                        if mass_in else 0.0)

    # integrate_kg without its energy sampling; integrate_gdnls keeps its
    # field evaluations (they are the midpoint step) and drops the rest.
    child_ns: dict[int, int] = {}
    field_calls: dict[int, int] = {}
    for i in range(len(names)):
        p = parent[i]
        if p < 0:
            continue
        if names[p] == "integrate_kg" or (names[p] == "integrate_gdnls"
                                          and names[i] != "field_eval"):
            child_ns[p] = child_ns.get(p, 0) + dur[i]
        if names[p] == "integrate_gdnls" and names[i] == "field_eval":
            field_calls[p] = field_calls.get(p, 0) + 1
    for key, name in (("kg", "integrate_kg"), ("gdnls", "integrate_gdnls")):
        is_i = named(name)
        steps = total(is_i, attr("steps"))
        busy = total(is_i, lambda i: dur[i] - child_ns.get(i, 0))
        m[f"dynamics.{key}.steps"] = steps
        m[f"dynamics.{key}.step_us"] = busy / 1e3 / steps if steps else 0.0
    g_steps = m["dynamics.gdnls.steps"]
    m["dynamics.gdnls.evals_per_kick"] = (
        total(named("integrate_gdnls"), lambda i: field_calls.get(i, 0))
        / (2 * g_steps) if g_steps else 0.0)

    m["dynamics.kg_energy.calls"] = count(named("kg_energy"))
    m["dynamics.kg_energy.s"] = secs(named("kg_energy"))
    is_o = named("observables")
    m["dynamics.observables.calls"] = count(is_o)
    m["dynamics.observables.samples"] = total(is_o, attr("samples"))
    m["dynamics.observables.s"] = secs(is_o)
    for key in ("realized_eval", "field_eval"):
        us = [dur[i] / 1e3 for i in range(len(names))
              if names[i] == key and phase[i] in ("setup", "round")]
        m[f"cyclic.{key}.calls"] = count(named(key))
        m[f"cyclic.{key}.us_p50"] = _percentile(us, 0.50)
        m[f"cyclic.{key}.us_p99"] = _percentile(us, 0.99)
    m["cyclic.field_eval.share"] = share(named("field_eval"))
    m["linearize.normalize_s"] = secs(named("linear_normalize"))
    m["linearize.apply_linear_s"] = secs(named("apply_linear"))
    m["trace.round_s"] = (statistics.median(dur[i] for i in rounds) / 1e9
                          if rounds else 0.0)
    return {k: m[k] for k in PER_LAYER}
