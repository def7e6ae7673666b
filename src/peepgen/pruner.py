"""Verification-guided pruning of concrete instances.

Each defined local is tentatively replaced (in both functions when the same
computation appears on both sides) by a fresh parameter, and dead code is
eliminated; the pipeline's gate keeps the substitution only when the
instance still refines and stays profitable.  Stage 3's fixpoint loop
(`pipeline.relax_to_fixpoint`) applies the first substitution the gate
passes and starts over, until none passes.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from . import cost as costmod
from . import pipeline
from .ir import (Function, Rule, abstract_local, dce_function, params_used,
                 pred_param_refs)


@dataclass(frozen=True)
class PruneAttempt:
    sweep: int
    local: int  # lhs definition index at attempt time
    fresh: str
    outcome: str  # accepted | refuted | unprofitable | inconclusive
    lhs_cost: str
    rhs_cost: str


@dataclass
class PruneLog:
    attempts: list = field(default_factory=list)
    sweeps: int = 0


# ---------------------------------------------------------------------------
# Dead-code elimination


def dce(rule: Rule) -> Rule:
    """Remove dead instructions, then parameters dead on both sides and
    unreferenced by the precondition."""
    lhs, rhs = dce_function(rule.lhs), dce_function(rule.rhs)
    used = params_used(lhs) | params_used(rhs)
    for conj in rule.pre:
        used |= pred_param_refs(conj)
    params = tuple((n, t) for n, t in lhs.params if n in used)
    lhs = Function(lhs.name, params, lhs.body, lhs.ret)
    rhs = Function(rhs.name, params, rhs.body, rhs.ret)
    return Rule(rule.name, rule.sym_consts, rule.width_vars, rule.pre, lhs, rhs)


# ---------------------------------------------------------------------------
# Pruning


def prune(rule: Rule, cfg: Optional[pipeline.PipelineConfig] = None,
          verdicts: Optional[dict] = None):
    """Fixpoint pruning through the pipeline's gate under `cfg`, asking
    each refinement question once in the run's verdict memo `verdicts`;
    returns (pruned rule, PruneLog).

    A sweep is one pass over the current rule's locals: it ends at its
    first accepted substitution, or after its last local."""
    cfg = cfg or pipeline.PipelineConfig()
    log = PruneLog()
    judged = []  # (sweep, local, fresh, trial) in the order the gate saw

    def abstractions(current: Rule):
        log.sweeps += 1
        names = {n for n, _ in current.lhs.params}
        for i in range(len(current.lhs.body)):
            fresh = f"newvar_v{i}"
            suffix = 0
            while fresh in names:
                suffix += 1
                fresh = f"newvar_v{i}_{suffix}"
            lhs, rhs = abstract_local(current.lhs, current.rhs, i, fresh)
            trial = dce(replace(current, lhs=lhs, rhs=rhs))
            judged.append((log.sweeps, i, fresh, trial))
            yield f"abstract %{i} as {fresh}", trial

    outcome = pipeline.StageOutcome("prune")
    pruned, _applied = pipeline.relax_to_fixpoint(
        dce(rule), abstractions, cfg, outcome, verdicts)
    for (sweep, i, fresh, trial), co in zip(judged, outcome.candidates):
        kind = co.verdict["kind"]
        log.attempts.append(PruneAttempt(
            sweep, i, fresh,
            "accepted" if co.accepted
            else "unprofitable" if kind == "verified" else kind,
            str(costmod.cost(trial.lhs, cfg.table)),
            str(costmod.cost(trial.rhs, cfg.table))))
    return pruned, log
