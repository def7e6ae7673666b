"""Verification-guided pruning of concrete instances.

Each defined local is tentatively replaced (in both functions when the same
computation appears on both sides) by a fresh parameter; the substitution is
kept only when the instance still refines and stays profitable.  Dead code
is eliminated after every acceptance and the sweep repeats to a fixpoint.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import cost as costmod
from . import verifier
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


def prune(instance: Rule, budget: Optional[verifier.Budget] = None,
          table: Optional[costmod.CostTable] = None):
    """Fixpoint pruning; returns (pruned instance, PruneLog)."""
    budget = budget or verifier.Budget()
    table = table or costmod.default_table()
    log = PruneLog()
    current = dce(instance)
    sweep = 0
    changed = True
    while changed:
        changed = False
        sweep += 1
        i = 0
        while i < len(current.lhs.body):
            fresh = f"newvar_v{i}"
            suffix = 0
            names = {n for n, _ in current.lhs.params}
            while fresh in names:
                suffix += 1
                fresh = f"newvar_v{i}_{suffix}"
            lhs, rhs = abstract_local(current.lhs, current.rhs, i, fresh)
            candidate = dce(Rule(current.name, current.sym_consts,
                                 current.width_vars, current.pre, lhs, rhs))
            lc, rc = costmod.cost(candidate.lhs, table), costmod.cost(candidate.rhs, table)
            verdict = verifier.check_refinement(candidate, {}, budget)
            if verdict.kind != "verified":
                outcome = "refuted" if verdict.kind == "refuted" else "inconclusive"
            elif not costmod.check_profitable(candidate, table):
                outcome = "unprofitable"
            else:
                outcome = "accepted"
            log.attempts.append(PruneAttempt(sweep, i, fresh, outcome,
                                             str(lc), str(rc)))
            if outcome == "accepted":
                current = candidate
                changed = True
                i = 0  # restart the sweep on the shrunken body
            else:
                i += 1
    log.sweeps = sweep
    return current, log
