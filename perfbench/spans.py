"""Span recording at peepgen's layer boundaries, installed from outside src/.

Every cross-module call in peepgen goes through a module attribute
(``verifier.check_refinement``) or a public name imported from another module
(``pipeline.print_rule``).  `Tracer.install` replaces each caller's reference
to another layer with a proxy whose public functions record a span, and
replaces each imported public function with the same recording wrapper.  Calls
inside one module are left alone, so ``engine.eval_pred_vec`` recursing, or
``textfmt`` printing a subexpression, records nothing.  The engine is traced
only at the verifier-to-engine boundary.

A few functions are also wrapped in their own module's namespace
(`SELF_HOOKS`), because the per-layer metrics need them: the instance boundary
in the CLI, the four pipeline stages, the heuristic constant fit, and every
verdict, constant draw, replay and width reduction inside the verifier.

Spans stay in memory until `layer_metrics` reduces them.  `Tracer.restore`
puts every replaced reference back.
"""
from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "pipeline", "pruner", "proposer", "verifier", "engine",
          "semantics", "textfmt", "cost")
# modules whose references to other layers are replaced; calls made by
# engine, semantics and textfmt count as their own time
CALLERS = ("cli", "pipeline", "pruner", "proposer", "verifier")
SELF_HOOKS = {
    "cli": ("_bench_one",),
    "pipeline": ("stage1_symbolic_constants", "stage2_structural",
                 "stage3_relax", "stage4_widths"),
    "proposer": ("heuristic_fit_constants",),
    "verifier": ("check_refinement", "sample_satisfying_consts",
                 "replay_counterexample", "reduce_widths"),
}
STAGES = ("stage1_symbolic_constants", "stage2_structural", "stage3_relax",
          "stage4_widths")
REFINE_OUTCOMES = ("verified_exhaustive", "verified_sampled", "refuted",
                   "inconclusive")
# exceptions peepgen reports as properties of the input although they are
# faults of the checker (ReplayMismatch, EvalError) or of the backend
ALARMS = ("ReplayMismatch", "EvalError")


def _verdict_note(args, verdict):
    kind = verdict.kind
    if kind == "verified":
        return {"outcome": f"verified_{verdict.mode}",
                "points": verdict.points}
    return {"outcome": kind}


def _sample_note(args, const_map):
    # args: (resolved, free, defs, const_only, budget, rng)
    got = len(next(iter(const_map.values()))[0]) if const_map else 0
    return {"free": len(args[1]), "want": args[4].constant_sample_count,
            "got": got}


def _draw_note(args, _patterns):
    return {"n": args[2]}  # (rng, width or precision, n)


def _report_note(args, row):
    report = row[2]  # (name, domain, report or None)
    stages = report["stages"] if report else []
    return {"candidates": sum(len(s["candidates"]) for s in stages),
            "accepted": sum(c["accepted"] for s in stages
                            for c in s["candidates"])}


NOTES = {
    "verifier.check_refinement": _verdict_note,
    "verifier.sample_satisfying_consts": _sample_note,
    "engine.sample_int_patterns": _draw_note,
    "engine.sample_float_patterns": _draw_note,
    "cli._bench_one": _report_note,
}


def _bench_instance(args):
    path, domain = args[0], args[1]  # cli._bench_one(path, domain, ...)
    return f"{domain}.{path.stem}"


class Span:
    __slots__ = ("id", "parent", "name", "layer", "instance", "start", "end",
                 "info")

    def __init__(self, id_, parent, name, layer, instance):
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.instance = instance
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _LayerProxy:
    """Stands in for a layer module inside one caller module."""

    def __init__(self, module, wrappers: dict):
        self._module = module
        self._wrappers = wrappers

    def __getattr__(self, name):
        wrapper = self._wrappers.get(name)
        return wrapper if wrapper is not None else getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._exc_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, instance=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if instance is None and parent is not None:
            instance = parent.instance
        span = Span(next(self._ids), parent.id if parent else 0, name, layer,
                    instance)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _raised(self, span: Span, exc: BaseException) -> None:
        # one id per exception object, however many wrappers it crosses
        exc_id = getattr(exc, "_perfbench_id", None)
        if exc_id is None:
            exc_id = next(self._exc_ids)
            try:
                exc._perfbench_id = exc_id
            except AttributeError:
                pass
        span.info = {"raised": (type(exc).__name__, exc_id)}

    def _wrap(self, qualname: str, layer: str, fn):
        tracer = self
        note = NOTES.get(qualname)
        # the CLI's per-instance call starts each instance's span tree
        instance_of = _bench_instance if qualname == "cli._bench_one" else None

        def traced(*args, **kwargs):
            span = tracer._open(qualname, layer,
                                instance_of(args) if instance_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._raised(span, exc)
                raise
            finally:
                tracer._close(span)
            if note is not None:
                span.info = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, namespace: dict, name: str, value) -> None:
        self._patches.append((namespace, name, namespace[name]))
        namespace[name] = value

    def install(self) -> None:
        mods = {name: importlib.import_module(f"peepgen.{name}")
                for name in LAYERS}
        layer_of = {mod: name for name, mod in mods.items()}
        wrappers: dict = {}  # original function -> its wrapper
        for name, mod in mods.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(f"{name}.{attr}", name, value)
        for name, attrs in SELF_HOOKS.items():
            namespace = vars(mods[name])
            for attr in attrs:
                fn = namespace[attr]
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{name}.{attr}", name, fn)
                self._patch(namespace, attr, wrappers[fn])
        for caller in CALLERS:
            namespace = vars(mods[caller])
            for attr, value in list(namespace.items()):
                if isinstance(value, types.ModuleType):
                    layer = layer_of.get(value)
                    if layer is None or layer == caller:
                        continue
                    if layer == "engine" and caller != "verifier":
                        continue
                    by_name = {a: wrappers[f] for a, f in vars(value).items()
                               if isinstance(f, types.FunctionType)
                               and f in wrappers}
                    self._patch(namespace, attr, _LayerProxy(value, by_name))
                elif (isinstance(value, types.FunctionType)
                      and value in wrappers
                      and value.__module__ != mods[caller].__name__):
                    self._patch(namespace, attr, wrappers[value])

    def restore(self) -> None:
        while self._patches:
            namespace, name, original = self._patches.pop()
            namespace[name] = original


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics


def percentile(values: list, q: int) -> float:
    """The q-th percentile (0 < q < 100) of a non-empty sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def union_length(intervals: list) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_metrics(spans: list, traced_wall: float, untraced_wall: float,
                  jobs: int, instance_names: list) -> dict:
    """Per-layer counts and times from the spans of one traced pass."""
    child_time: dict = defaultdict(float)
    for sp in spans:
        if sp.parent:
            child_time[sp.parent] += sp.duration
    # creation order puts parents first; record the ancestors that matter
    in_fit, in_prune, name_of = set(), set(), {}
    for sp in sorted(spans, key=lambda s: s.id):
        name_of[sp.id] = sp.name
        if (sp.parent in in_fit
                or sp.name == "proposer.heuristic_fit_constants"):
            in_fit.add(sp.id)
        if sp.parent in in_prune or sp.name == "pruner.prune":
            in_prune.add(sp.id)

    count: dict = defaultdict(int)
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    m: dict = defaultdict(float)
    kept = 0
    alarms, proposer_errors = set(), set()
    refine_by: dict = defaultdict(list)
    instance_s: dict = defaultdict(float)
    for sp in spans:
        d = sp.duration
        count[sp.name] += 1
        total[sp.name] += d
        self_s[sp.layer] += d - child_time.get(sp.id, 0.0)
        info = sp.info or {}
        raised = info.get("raised")
        if raised:
            if raised[0] in ALARMS and sp.layer in ("verifier", "semantics"):
                alarms.add(raised[1])
            if raised[0] == "ProposerError" and sp.name == "proposer.propose":
                proposer_errors.add(raised[1])
        if sp.parent == 0 and sp.instance is not None:
            instance_s[sp.instance] += d
        if raised:
            continue  # the notes below describe results
        if sp.name == "verifier.check_refinement":
            refine_by[info["outcome"]].append(d)
            m["verifier.points"] += info.get("points", 0)
            if sp.id in in_fit:
                m["proposer.fit_verify_calls"] += 1
            if sp.id in in_prune:
                m["pruner.refine_calls"] += 1
        elif sp.name == "verifier.sample_satisfying_consts":
            if info["got"] < info["want"]:
                m["verifier.cap_hits"] += 1
            kept += info["got"]
        elif sp.name.startswith("engine.sample_"):
            m["engine.patterns_drawn"] += info["n"]
        elif sp.name == "cli._bench_one":
            m["pipeline.candidates"] += info["candidates"]
            m["pipeline.accepted"] += info["accepted"]
        elif (sp.layer == "verifier"
              and name_of.get(sp.parent) == "pipeline.run_pipeline"):
            m["pipeline.recheck_s"] += d
    # a constant assignment drawn takes one pattern per free constant
    free_of = {sp.id: sp.info["free"] for sp in spans
               if sp.name == "verifier.sample_satisfying_consts"
               and "free" in (sp.info or {})}
    draws = sum(sp.info["n"] / max(free_of[sp.parent], 1) for sp in spans
                if sp.parent in free_of and "n" in (sp.info or {}))

    def calls(*names):
        return sum(count[n] for n in names)

    def secs(*names):
        return sum(total[n] for n in names)

    m["proposer.propose_calls"] = calls("proposer.propose")
    m["proposer.propose_s"] = sum(
        sp.duration - child_time.get(sp.id, 0.0) for sp in spans
        if sp.name == "proposer.propose")
    m["proposer.fit_s"] = secs("proposer.heuristic_fit_constants")
    m["proposer.errors"] = len(proposer_errors)
    m["verifier.const_sample_calls"] = calls(
        "verifier.sample_satisfying_consts")
    m["verifier.const_sample_s"] = secs("verifier.sample_satisfying_consts")
    m["verifier.const_yield"] = kept / draws if draws else 0.0
    verified_s = 0.0
    for outcome in REFINE_OUTCOMES:
        durations = refine_by.get(outcome, [])
        m[f"verifier.refine_calls.{outcome}"] = len(durations)
        m[f"verifier.refine_s.{outcome}"] = sum(durations)
        if outcome.startswith("verified"):
            verified_s += sum(durations)
    m["verifier.points_per_s"] = (m["verifier.points"] / verified_s
                                  if verified_s else 0.0)
    verdicts = [d for ds in refine_by.values() for d in ds]
    for q in (50, 90):
        m[f"verdict_s.p{q}"] = percentile(verdicts, q) if verdicts else 0.0
    m["verifier.weaker_calls"] = calls("verifier.check_strictly_weaker")
    m["verifier.weaker_s"] = secs("verifier.check_strictly_weaker")
    m["verifier.reduce_calls"] = calls("verifier.reduce_widths")
    m["verifier.replay_calls"] = calls("verifier.replay_counterexample")
    m["verifier.replay_s"] = secs("verifier.replay_counterexample")
    m["verifier.alarms"] = len(alarms)
    evals = ("engine.eval_function_vec", "engine.eval_pred_vec",
             "engine.eval_constexpr_vec")
    m["engine.eval_calls"] = calls(*evals)
    m["engine.eval_fn_s"] = secs("engine.eval_function_vec")
    m["engine.eval_pred_s"] = secs("engine.eval_pred_vec")
    m["engine.eval_cexpr_s"] = secs("engine.eval_constexpr_vec")
    for i, stage in enumerate(STAGES, 1):
        m[f"pipeline.stage{i}_s"] = secs(f"pipeline.{stage}")
    m["pruner.prune_s"] = secs("pruner.prune")
    m["cli.busy_share"] = secs("cli._bench_one") / (traced_wall * jobs)
    sem = [n for n in count if n.startswith("semantics.")]
    m["semantics.eval_calls"] = calls(*sem)
    m["semantics.eval_s"] = secs(*sem)
    m["textfmt.parse_s"] = secs(*[n for n in count
                                  if n.startswith("textfmt.parse")])
    m["textfmt.print_s"] = secs(*[n for n in count
                                  if n.startswith("textfmt.print")
                                  or n == "textfmt.canonical_text"])
    m["cost.profit_calls"] = calls("cost.check_profitable")
    m["cost.profit_s"] = secs("cost.check_profitable")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for name in instance_names:
        m[f"instance.{name}.s"] = instance_s.get(name, 0.0)
    m["trace.overhead"] = traced_wall / untraced_wall
    covered = union_length([(sp.start, sp.end) for sp in spans
                             if sp.parent == 0])
    m["trace.uncovered_share"] = max(0.0, 1.0 - covered / traced_wall)
    return dict(m)

