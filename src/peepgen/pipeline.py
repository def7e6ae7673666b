"""Closed-loop rule generalization: ingest, prune, then four gated stages.

Stage 1 symbolizes constants (with a feedback loop to the backend), stage 2
abstracts preserved subexpressions into fresh inputs, stage 3 relaxes the
precondition and instruction flags, and stage 4 generalizes bitwidths or
float precisions.  A proposed candidate is parsed and validated first: a
rule by `_parse_candidate`, a weakening or width predicate as the trial
rule it makes by `_parse_conjuncts`.  The instance at ingestion, every
pruning trial, every candidate of every stage, and the final rule are
judged by one gate (`_gate`): refinement at the rule's own widths, never
reduced, and profitability under the configured cost table.  Within one
run the gate asks each refinement question once (`_refinement`).
Weakenings additionally pass the strictly-weaker check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from . import cost as costmod
from . import proposer, pruner, semantics, textfmt, verifier
from .ir import (
    CAST_OPS, CCast, FloatType, IntType, Literal, PeepError, Rule,
    VarWidthType, guards_partial_op, iter_expr, map_rule, params_used,
    replace_instr, resolve_widths, retype_float_literal, rule_types,
    to_signed, validate,
)
from .proposer import (
    FeedbackItem, ProposalRequest, ProposerError, Structural,
    SymbolicConstants, WeakenPrecondition, WidthPredicate,
)
from .textfmt import ParseError, print_pred, print_rule
from .verifier import Budget, StrictlyWeaker, verdict_to_json


# ---------------------------------------------------------------------------
# Configuration and reporting


STAGE1_MAX_ITERATIONS = 4  # proposal rounds of the stage-1 feedback loop
K = 4  # proposals requested per backend call
WIDTH_CAP = 16  # stage 4 verifies each width 1..WIDTH_CAP


@dataclass
class PipelineConfig:
    budget: Budget = field(default_factory=Budget)
    table: Optional[costmod.CostTable] = None
    backend: object = None

    def __post_init__(self):
        if self.table is None:
            self.table = costmod.default_table()
        if self.backend is None:
            self.backend = proposer.HeuristicBackend(self.budget)


@dataclass
class CandidateOutcome:
    text: str
    syntax_ok: bool
    diagnostics: list = field(default_factory=list)
    verdict: Optional[dict] = None
    profitable: Optional[bool] = None
    strictly_weaker: Optional[bool] = None
    accepted: bool = False


@dataclass
class StageOutcome:
    stage: str
    candidates: list = field(default_factory=list)
    accepted: Optional[str] = None  # the accepted rule's text
    counts: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class PipelineReport:
    """A run's report; `dataclasses.asdict` of it is the report JSON."""
    instance: str
    prune_log: pruner.PruneLog
    pruned: str
    stages: list
    final: Optional[str]
    final_verdict: Optional[dict]
    final_widths: dict
    lhs_cost: str
    rhs_cost: str
    schema: str = "peepgen-report-1"


# ---------------------------------------------------------------------------
# Gating helpers


def _add_note(outcome: StageOutcome, text: str) -> None:
    outcome.note = f"{outcome.note}; {text}" if outcome.note else text


def _proposals(req: ProposalRequest, cfg: PipelineConfig,
               outcome: StageOutcome) -> list:
    """The backend's candidate texts; a backend failure yields none and is
    recorded in the stage's note."""
    try:
        return proposer.propose(req, cfg.backend)
    except ProposerError as e:
        _add_note(outcome, f"proposer error ({req.stage.tag}): {e}")
        return []


def _gate(rule: Rule, cfg: PipelineConfig, co: CandidateOutcome,
          verdicts: Optional[dict], widths: Optional[dict] = None,
          budget: Optional[Budget] = None) -> bool:
    """The acceptance gate: refinement at the rule's own widths (never
    reduced) and profitability under `cfg.table`, both recorded on `co`.
    `verdicts` is the run's verdict memo (`_refinement`), or None."""
    verdict = _refinement(rule, widths, budget or cfg.budget, verdicts)
    co.verdict = verdict_to_json(verdict)
    co.profitable = costmod.check_profitable(rule, cfg.table)
    return verdict.kind == "verified" and co.profitable


def _refinement(rule: Rule, widths: Optional[dict], budget: Budget,
                verdicts: Optional[dict]):
    """`verifier.check_refinement`, asked once per refinement question in
    `verdicts` (None: a memo for this call alone).

    A run creates `verdicts` and drops it when it returns, so separate runs
    and `--jobs` threads share no verdict.  The question is the
    width-resolved rule and the budget: a check resolves the width
    variables first and reads `widths` after that only to stamp a
    counterexample, so a verdict is reused under other widths that resolve
    the rule alike, a counterexample stamped with the caller's widths.  A
    verdict whose check did not use its seed (`Verified.seeded`) is reused
    under any seed, stamped with that seed; any other verdict only under
    its own."""
    verdicts = {} if verdicts is None else verdicts
    widths = widths or {}
    resolved = resolve_widths(rule, widths) if rule.width_vars else rule
    # repr, not the rule: `==` takes a literal -0.0 for 0.0
    key = (repr(resolved), replace(budget, rng_seed=None))
    seed = budget.rng_seed
    verdict = verdicts.get(key + (seed,)) or verdicts.get(key + (None,))
    if verdict is None:
        # the resolved rule asks the same question without resolving again
        verdict = verifier.check_refinement(resolved, widths, budget)
        seeded = verdict.kind == "inconclusive" or verdict.seeded
        verdicts[key + (seed if seeded else None,)] = verdict
    if verdict.kind == "verified":
        return replace(verdict, seed=seed)
    if verdict.kind == "refuted":
        return replace(verdict, seed=seed, counterexample=replace(
            verdict.counterexample, widths=dict(widths)))
    return verdict


def _parse_candidate(text: str, rule: Rule):
    """Returns (candidate, CandidateOutcome) with syntax/validation
    prefilled.  A candidate that declares other width variables than `rule`
    fails validation: the gate checks it at `rule`'s widths."""
    try:
        cand = textfmt.parse_rule(text)
    except ParseError as e:
        return None, CandidateOutcome(text, False, [str(e)])
    diags = [str(d) for d in validate(cand)]
    if not diags and set(cand.width_vars) != set(rule.width_vars):
        diags.append(f"declares width variables {list(cand.width_vars)}, "
                     f"the rule {list(rule.width_vars)}")
    if diags:
        return None, CandidateOutcome(text, False, diags)
    return cand, CandidateOutcome(text, True)


def _parse_conjuncts(label: str, text: str, rule: Rule, start: int,
                     end: int):
    """Returns (conjuncts, trial, CandidateOutcome) for the conjuncts of
    `text` put in place of `rule.pre[start:end]`: the trial is `rule` with
    that precondition, or None (and the outcome records why) when `text`
    does not parse or the trial fails validation."""
    co = CandidateOutcome(f"{label}: {text.strip()}", True)
    try:
        parsed = textfmt.parse_conjuncts(text, dict(rule.sym_consts),
                                         list(rule.width_vars))
    except ParseError as e:
        co.diagnostics.append(str(e))
    else:
        trial = replace(rule, pre=rule.pre[:start] + parsed + rule.pre[end:])
        co.diagnostics.extend(str(d) for d in validate(trial))
        if not co.diagnostics:
            return parsed, trial, co
    co.syntax_ok = False
    return (), None, co


# ---------------------------------------------------------------------------
# Stage 1: symbolic constants


def stage1_symbolic_constants(rule: Rule, cfg: PipelineConfig,
                              verdicts: Optional[dict] = None):
    outcome = StageOutcome("symbolic_constants",
                           counts={"constants_symbolized": 0})
    feedback: list = []
    for _iteration in range(STAGE1_MAX_ITERATIONS):
        req = ProposalRequest(SymbolicConstants(), print_rule(rule),
                              tuple(feedback), K)
        proposals = _proposals(req, cfg, outcome)
        passers: list = []
        new_feedback = 0
        for idx, text in enumerate(proposals):
            cand, co = _parse_candidate(text, rule)
            outcome.candidates.append(co)
            if cand is None:
                feedback.append(FeedbackItem("SyntaxError",
                                             "; ".join(co.diagnostics), text))
                new_feedback += 1
                continue
            if _gate(cand, cfg, co, verdicts):
                passers.append((len(cand.sym_consts), idx, cand, co))
            elif co.verdict["kind"] == "refuted":
                feedback.append(FeedbackItem(
                    "Counterexample", json.dumps(co.verdict["counterexample"]),
                    text))
                new_feedback += 1
            elif co.verdict["kind"] == "verified":
                feedback.append(FeedbackItem(
                    "Unprofitable",
                    f"lhs {costmod.cost(cand.lhs, cfg.table)} vs "
                    f"rhs {costmod.cost(cand.rhs, cfg.table)}", text))
                new_feedback += 1
        if passers:
            passers.sort(key=lambda t: (-t[0], t[1]))
            count, _idx, accepted, co = passers[0]
            co.accepted = True
            outcome.accepted = print_rule(accepted)
            outcome.counts["constants_symbolized"] = (
                len(accepted.sym_consts) - len(rule.sym_consts))
            return outcome, accepted
        if new_feedback == 0:
            break  # a deterministic backend would just repeat itself
    return outcome, rule


# ---------------------------------------------------------------------------
# Stage 2: structural abstraction


def _new_lhs_params(rule: Rule, cand: Rule) -> list:
    old = {n for n, _ in rule.lhs.params}
    return [n for n, _ in cand.lhs.params if n not in old]


def stage2_structural(rule: Rule, cfg: PipelineConfig,
                      verdicts: Optional[dict] = None):
    outcome = StageOutcome("structural",
                           counts={"subexpressions_abstracted": 0})
    req = ProposalRequest(Structural(), print_rule(rule), (), K)
    passers: list = []
    for idx, text in enumerate(_proposals(req, cfg, outcome)):
        cand, co = _parse_candidate(text, rule)
        outcome.candidates.append(co)
        if cand is None:
            continue
        fresh = _new_lhs_params(rule, cand)
        if not params_used(cand.lhs).intersection(fresh):
            co.diagnostics.append("no fresh parameter used in lhs")
            continue
        if _gate(cand, cfg, co, verdicts):
            abstracted = ((len(rule.lhs.body) + len(rule.rhs.body))
                          - (len(cand.lhs.body) + len(cand.rhs.body)))
            passers.append((abstracted, idx, cand, co))
    if passers:
        passers.sort(key=lambda t: (-t[0], t[1]))
        abstracted, _idx, accepted, co = passers[0]
        co.accepted = True
        outcome.accepted = print_rule(accepted)
        outcome.counts["subexpressions_abstracted"] = max(abstracted, 0)
        return outcome, accepted
    return outcome, rule


# ---------------------------------------------------------------------------
# Stage 3: relaxation (remove conjuncts, weaken conjuncts, remove flags)


def conjunct_removals(rule: Rule):
    """(description, trial) for each conjunct that can be dropped."""
    for i, conj in enumerate(rule.pre):
        if not guards_partial_op(conj, rule.pre):
            yield (f"remove: {print_pred(conj)}",
                   replace(rule, pre=rule.pre[:i] + rule.pre[i + 1:]))


def flag_removals(rule: Rule):
    """(description, trial) for each instruction flag that can be dropped."""
    for side in ("lhs", "rhs"):
        fn = getattr(rule, side)
        for index, instr in enumerate(fn.body):
            for flag in sorted(instr.flags):
                dropped = replace(instr, flags=instr.flags - {flag})
                yield (f"drop flag {flag} from {side} %{index}",
                       replace(rule, **{side: replace_instr(fn, index,
                                                            dropped)}))


def relax_to_fixpoint(rule: Rule, trials, cfg: PipelineConfig,
                      outcome: StageOutcome, verdicts: Optional[dict] = None):
    """Apply the first of `trials(rule)` that passes the gate, then start
    over; returns the rule no trial improves and the number applied."""
    applied = 0
    while True:
        for text, trial in trials(rule):
            co = CandidateOutcome(text, True)
            outcome.candidates.append(co)
            if _gate(trial, cfg, co, verdicts):
                co.accepted = True
                rule = trial
                applied += 1
                break
        else:
            return rule, applied


def weaken_conjuncts(rule: Rule, cfg: PipelineConfig, outcome: StageOutcome,
                     verdicts: Optional[dict] = None):
    weakened = 0
    i = 0
    while i < len(rule.pre):
        req = ProposalRequest(WeakenPrecondition(i), print_rule(rule), (), K)
        accepted_here = False
        for text in _proposals(req, cfg, outcome):
            parsed, trial, co = _parse_conjuncts(f"weaken[{i}]", text, rule,
                                                 i, i + 1)
            outcome.candidates.append(co)
            if trial is None or not _gate(trial, cfg, co, verdicts):
                continue
            sw = verifier.check_strictly_weaker(rule, trial.pre, cfg.budget)
            co.strictly_weaker = isinstance(sw, StrictlyWeaker)
            if not co.strictly_weaker:
                continue
            co.accepted = True
            rule = trial
            weakened += 1
            i += len(parsed)
            accepted_here = True
            break
        if not accepted_here:
            i += 1
    return rule, weakened


def stage3_relax(rule: Rule, cfg: PipelineConfig,
                 verdicts: Optional[dict] = None):
    outcome = StageOutcome("relax")
    rule, removed = relax_to_fixpoint(rule, conjunct_removals, cfg, outcome,
                                      verdicts)
    rule, weakened = weaken_conjuncts(rule, cfg, outcome, verdicts)
    rule, flags = relax_to_fixpoint(rule, flag_removals, cfg, outcome,
                                    verdicts)
    outcome.counts = {"conjuncts_removed": removed,
                      "conjuncts_weakened": weakened, "flags_removed": flags}
    if removed or weakened or flags:
        outcome.accepted = print_rule(rule)
    return outcome, rule


# ---------------------------------------------------------------------------
# Stage 4: bitwidth / precision generalization


def _uses_floats(rule: Rule) -> bool:
    return any(isinstance(t, FloatType) for t in rule_types(rule))


def _int_static_gate(rule: Rule) -> Optional[str]:
    for fn in (rule.lhs, rule.rhs):
        for instr in fn.body:
            if instr.op in CAST_OPS:
                return f"width-changing cast {instr.op} in {fn.name}"
            for o in instr.operands:
                if (isinstance(o, Literal) and isinstance(o.ty, IntType)
                        and to_signed(o.value, o.ty.width) not in (0, 1, -1)):
                    return (f"literal {to_signed(o.value, o.ty.width)} "
                            "outside {0, 1, -1}")
        if (isinstance(fn.ret, Literal) and isinstance(fn.ret.ty, IntType)
                and to_signed(fn.ret.value, fn.ret.ty.width) not in (0, 1, -1)):
            return (f"literal {to_signed(fn.ret.value, fn.ret.ty.width)} "
                    "outside {0, 1, -1}")
    for conj in rule.pre:
        if any(isinstance(e, CCast) for e in iter_expr(conj)):
            return "width-changing cast in the precondition"
    return None


def _erase_widths(rule: Rule, width: int, var: str) -> Rule:
    target = IntType(width)
    wty = VarWidthType(var)

    def conv(o):
        if isinstance(o, Literal) and o.ty == target:
            return Literal(to_signed(o.value, width), wty)
        return o

    erased = map_rule(rule, conv, lambda ty: wty if ty == target else ty)
    return replace(erased, width_vars=rule.width_vars + (var,))


def _retype_floats(rule: Rule, prec: int) -> Optional[Rule]:
    """Instantiate every float type at `prec`; None when a literal does not
    convert exactly."""
    new = FloatType(prec)
    bad = []

    def conv(o):
        if not (isinstance(o, Literal) and isinstance(o.ty, FloatType)):
            return o
        lit = retype_float_literal(o, prec)
        if lit is None:
            bad.append(o)
            return o
        return lit

    out = map_rule(rule, conv,
                   lambda ty: new if isinstance(ty, FloatType) else ty)
    return None if bad else out


def _admitted_widths(conjuncts: tuple, var: str, cap: int) -> list:
    out = []
    for w in range(1, cap + 1):
        try:
            if semantics.eval_predicate(conjuncts, {}, {}, {var: w}):
                out.append(w)
        except (semantics.EvalError, semantics.ConstEvalError):
            pass
    return out


def stage4_widths(rule: Rule, cfg: PipelineConfig,
                  verdicts: Optional[dict] = None):
    """Returns (outcome, rule, the widths 1..WIDTH_CAP at which the
    width-erased rule passed the gate, empty when none was swept)."""
    outcome = StageOutcome("widths", counts={"widths_generalized": 0,
                                             "precisions_passing": []})
    if _uses_floats(rule):
        return (*_stage4_floats(rule, cfg, outcome, verdicts), [])

    reason = _int_static_gate(rule)
    if reason is not None:
        outcome.note = f"static gate: {reason}"
        return outcome, rule, []
    widths = sorted({t.width for t in rule_types(rule)
                     if isinstance(t, IntType) and t.width != 1})
    if not widths:
        outcome.note = "no concrete integer widths to erase"
        return outcome, rule, []
    if len(widths) > 1:
        outcome.note = (f"multiple distinct widths {widths}; "
                        "joint erasure not attempted")
        return outcome, rule, []
    original = widths[0]
    var = "W"
    taken = set(rule.width_vars)
    n = 1
    while var in taken:
        n += 1
        var = f"W{n}"
    erased = _erase_widths(rule, original, var)

    passing, failing = [], []
    for w in range(1, WIDTH_CAP + 1):
        co = CandidateOutcome(f"width {var}={w}", True)
        outcome.candidates.append(co)
        if _gate(erased, cfg, co, verdicts, {var: w}):
            passing.append(w)
            co.accepted = True
        else:
            failing.append(w)

    if not failing and passing:
        outcome.accepted = print_rule(erased)
        outcome.counts["widths_generalized"] = 1
        outcome.note = f"all widths 1..{WIDTH_CAP} pass"
        return outcome, erased, passing
    if passing:
        req = ProposalRequest(WidthPredicate(tuple(passing), tuple(failing)),
                              print_rule(erased), (), K)
        end = len(erased.pre)
        for text in _proposals(req, cfg, outcome):
            parsed, guarded, co = _parse_conjuncts(
                "width predicate", text, erased, end, end)
            outcome.candidates.append(co)
            if guarded is None:
                continue
            admitted = _admitted_widths(parsed, var, WIDTH_CAP)
            ok = (admitted
                  and set(admitted) <= set(passing)
                  and (original in admitted or original > WIDTH_CAP)
                  and any(w != original for w in admitted))
            if not ok:
                co.diagnostics.append(
                    f"admits {admitted}, passing set is {passing}")
                continue
            co.accepted = True
            outcome.accepted = print_rule(guarded)
            outcome.counts["widths_generalized"] = 1
            outcome.note = f"width predicate admits {admitted}"
            return outcome, guarded, passing
    _add_note(outcome, f"passing widths {passing}, failing {failing}; "
                       "no predicate accepted")
    return outcome, rule, passing


def _stage4_floats(rule: Rule, cfg: PipelineConfig, outcome: StageOutcome,
                   verdicts: Optional[dict]):
    original = sorted({t.bits for t in rule_types(rule)
                       if isinstance(t, FloatType)})
    if len(original) != 1:
        outcome.note = f"multiple float precisions {original}"
        return outcome, rule
    passing = []
    for prec in (16, 32, 64):
        retyped = _retype_floats(rule, prec)
        if retyped is None:
            outcome.candidates.append(CandidateOutcome(
                f"precision f{prec}", True,
                diagnostics=["literal not exactly representable"]))
            continue
        co = CandidateOutcome(f"precision f{prec}", True)
        outcome.candidates.append(co)
        if _gate(retyped, cfg, co, verdicts):
            passing.append(prec)
            co.accepted = True
    outcome.counts["precisions_passing"] = [f"f{p}" for p in passing]
    if len(passing) > 1:
        outcome.accepted = print_rule(rule)
        outcome.note = ("rule holds at " +
                        ", ".join(f"f{p}" for p in passing))
    else:
        outcome.note = f"only f{original[0]} passes"
    return outcome, rule


# ---------------------------------------------------------------------------
# The pipeline


class InstanceRejected(PeepError):
    """An instance that is refuted, or unprofitable, before any stage."""


def run_pipeline(instance: Rule, cfg: Optional[PipelineConfig] = None
                 ) -> PipelineReport:
    cfg = cfg or PipelineConfig()
    diags = validate(instance)
    if diags:
        raise PeepError("invalid instance: " + "; ".join(str(d) for d in diags))
    # every verdict of this run, for the gate to reuse
    verdicts: dict = {}
    # ingestion rejects only refuted or unprofitable instances
    ingested = CandidateOutcome(print_rule(instance), True)
    _gate(instance, cfg, ingested, verdicts)
    refuted = ingested.verdict["kind"] == "refuted"
    if refuted or not ingested.profitable:
        raise InstanceRejected("instance rejected: " + (
            "refuted" if refuted else "unprofitable"))
    pruned, log = pruner.prune(instance, cfg, verdicts)
    rule = pruned
    stages = []
    for stage_fn in (stage1_symbolic_constants, stage2_structural,
                     stage3_relax):
        outcome, rule = stage_fn(rule, cfg, verdicts)
        stages.append(outcome)
    outcome, rule, passing = stage4_widths(rule, cfg, verdicts)
    stages.append(outcome)

    # re-verify a width-generalized rule at its largest passing width
    final_widths = {v: max(passing, default=WIDTH_CAP)
                    for v in rule.width_vars}
    # the final rule passes the gate again, under a fresh seed
    final = CandidateOutcome(print_rule(rule), True)
    recheck = replace(cfg.budget, rng_seed=cfg.budget.rng_seed + 1)
    passed = _gate(rule, cfg, final, verdicts, final_widths, recheck)
    return PipelineReport(
        instance=ingested.text,
        prune_log=log,
        pruned=print_rule(pruned),
        stages=stages,
        final=final.text if passed else None,
        final_verdict=final.verdict,
        final_widths=final_widths,
        lhs_cost=str(costmod.cost(rule.lhs, cfg.table)),
        rhs_cost=str(costmod.cost(rule.rhs, cfg.table)),
    )
