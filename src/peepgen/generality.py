"""Rule matching (`match_rule`), generality comparison of two rules'
applicability domains (`compare_generality`), and the answer `peepgen
generalize` exits on (`generalizes`)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine, semantics, verifier
from .ir import (
    COMMUTATIVE_OPS, Function, Instr, IntType, Literal, Local, Param,
    PreconditionUnsatisfied, Rule, SymConst, VarWidthType, bind_pred_consts,
    map_pred, pred_param_refs, resolve_widths, substitute, to_unsigned,
)
from .textfmt import canonical_text
from .verifier import Budget


def _match_type(rty, cty, env: dict) -> bool:
    if isinstance(rty, VarWidthType):
        if not isinstance(cty, IntType):
            return False
        bound = env["widths"].get(rty.var)
        if bound is None:
            env["widths"][rty.var] = cty.width
            return True
        return bound == cty.width
    return rty == cty


def _match_operand(rfn: Function, rop, cfn: Function, cop, env: dict) -> bool:
    if isinstance(rop, Param):
        if not isinstance(cop, Param):
            return False
        fwd, rev = env["params"], env["rparams"]
        if rop.name in fwd:
            return fwd[rop.name] == cop.name
        if cop.name in rev:
            return False
        if not _match_type(rfn.param_type(rop.name),
                           cfn.param_type(cop.name), env):
            return False
        fwd[rop.name] = cop.name
        rev[cop.name] = rop.name
        return True
    if isinstance(rop, SymConst):
        if not isinstance(cop, Literal):
            return False
        if not _match_type(rop.ty, cop.ty, env):
            return False
        bound = env["consts"].get(rop.name)
        if bound is None:
            env["consts"][rop.name] = cop.value
            return True
        return bound == cop.value
    if isinstance(rop, Literal):
        if not isinstance(cop, Literal):
            return False
        if isinstance(rop.ty, VarWidthType):
            if not _match_type(rop.ty, cop.ty, env):
                return False
            w = env["widths"][rop.ty.var]
            return to_unsigned(rop.value, w) == cop.value
        return rop.ty == cop.ty and rop.value == cop.value
    if isinstance(rop, Local):
        if not isinstance(cop, Local):
            return False
        return _match_instr(rfn, rfn.body[rop.index], cfn,
                            cfn.body[cop.index], env)
    return False


def _snapshot(env: dict) -> dict:
    return {k: dict(v) for k, v in env.items()}


def _restore(env: dict, snap: dict) -> None:
    for k in env:
        env[k].clear()
        env[k].update(snap[k])


def _match_instr(rfn: Function, ri: Instr, cfn: Function, ci: Instr,
                 env: dict) -> bool:
    if ri.op != ci.op or ri.flags != ci.flags or ri.pred != ci.pred:
        return False
    if not _match_type(ri.ty, ci.ty, env):
        return False
    commutable = (ri.op in COMMUTATIVE_OPS
                  or (ri.op == "icmp" and ri.pred in ("eq", "ne"))
                  or (ri.op == "fcmp" and ri.pred in ("oeq", "one", "ueq",
                                                      "une")))
    snap = _snapshot(env)
    if all(_match_operand(rfn, ro, cfn, co, env)
           for ro, co in zip(ri.operands, ci.operands)):
        return True
    _restore(env, snap)
    if commutable and len(ri.operands) == 2:
        ro0, ro1 = ri.operands
        co0, co1 = ci.operands
        if (_match_operand(rfn, ro0, cfn, co1, env)
                and _match_operand(rfn, ro1, cfn, co0, env)):
            return True
        _restore(env, snap)
    return False


def _match_function(rfn: Function, cfn: Function, env: dict) -> bool:
    # matching starts from the returned value, so dead instructions on
    # either side do not affect applicability
    return _match_operand(rfn, rfn.ret, cfn, cfn.ret, env)


_PARAM_SPACE_CAP = 1 << 16


def _residual_implied(rule_conjs: tuple, inst: Rule) -> bool:
    """Every input admitted by the instance's residual precondition must be
    admitted by the rule's (bound) parameter conjuncts.  The verifier's
    implication scan checks this exhaustively; a space over
    `_PARAM_SPACE_CAP` points, or one it cannot evaluate, is not certified."""
    if not rule_conjs:
        return True
    answer = verifier.check_strictly_weaker(
        inst, rule_conjs, Budget(exhaustive_limit=_PARAM_SPACE_CAP,
                                 sample_count=0))
    return (isinstance(answer, verifier.StrictlyWeaker)
            or answer == verifier.EquivalentOrIncomparable("no_witness"))


def match_rule(rule: Rule, concrete: Rule,
               widths: Optional[dict] = None) -> Optional[dict]:
    """Match `rule` against a concrete instance.

    Returns the constant/width bindings on success, None otherwise.
    """
    widths = dict(widths or {})
    env = {"params": {}, "rparams": {}, "consts": {},
           "widths": dict(widths)}
    if not _match_function(rule.lhs, concrete.lhs, env):
        return None
    if not _match_function(rule.rhs, concrete.rhs, env):
        return None
    if any(n not in env["consts"] for n, _ in rule.sym_consts):
        return None
    if any(v not in env["widths"] for v in rule.width_vars):
        return None
    wmap = env["widths"]
    resolved = resolve_widths(rule, wmap) if rule.width_vars else rule
    consts = {n: (env["consts"][n], ty) for n, ty in resolved.sym_consts}
    const_only = tuple(c for c in resolved.pre if not pred_param_refs(c))
    param_conjs = tuple(c for c in resolved.pre if pred_param_refs(c))
    try:
        if not semantics.eval_predicate(const_only, {}, consts, {}):
            return None
    except (semantics.EvalError, semantics.ConstEvalError):
        return None
    rename = env["params"]
    renamed = tuple(map_pred(bind_pred_consts(c, consts),
                             ref=lambda n: rename.get(n, n))
                    for c in param_conjs)
    if frozenset(renamed) != frozenset(concrete.pre):
        if not _residual_implied(renamed, concrete):
            return None
    bindings = dict(env["consts"])
    bindings.update({v: w for v, w in env["widths"].items()
                     if v in rule.width_vars})
    return bindings


@dataclass(frozen=True)
class CompareResult:
    verdict: str  # AMoreGeneral | BMoreGeneral | Equal | Incomparable | Inconclusive
    mode: str  # exhaustive | sampled
    witness: Optional[dict] = None


_DOMAIN_CAP = 1 << 12


def _rule_domain(rule: Rule, widths: dict, budget: Budget):
    """Concrete instances of `rule`; returns (instances, exhaustive flag).

    The constant tuples and the flag are chosen up front; `instances`
    yields each (bindings, substituted Rule) on demand."""
    relevant = {v: w for v, w in widths.items() if v in rule.width_vars}
    resolved = resolve_widths(rule, relevant) if rule.width_vars else rule
    if not resolved.sym_consts:
        return _instances(resolved, {}, 1), True
    free, defs = verifier.typed_const_defs(resolved)
    const_only = [c for c in resolved.pre if not pred_param_refs(c)]
    cspace = math.prod(engine.space_of(ty) for _n, ty in free)
    exhaustive = cspace <= min(budget.exhaustive_limit, _DOMAIN_CAP * 16)
    if exhaustive:
        const_map = verifier.enumerate_satisfying_consts(
            resolved, free, defs, const_only)
    else:
        rng = np.random.default_rng(budget.rng_seed)
        const_map = verifier.sample_satisfying_consts(
            resolved, free, defs, const_only, budget, rng)
        if const_map is None:
            return iter(()), False
    n = len(next(iter(const_map.values()))[0]) if const_map else 0
    if n > _DOMAIN_CAP:
        exhaustive = False
        n = _DOMAIN_CAP
    return _instances(resolved, const_map, n), exhaustive


def _instances(resolved: Rule, const_map: dict, n: int):
    """The first `n` constant tuples of `const_map`, each distinct tuple
    that satisfies the precondition substituted into `resolved`."""
    seen = set()
    for i in range(n):
        bindings = {name: engine.vval_pattern_at(engine.VVal(arr, None, ty), i)
                    for name, (arr, ty) in const_map.items()}
        key = tuple(sorted(bindings.items()))
        if key in seen:
            continue
        seen.add(key)
        try:
            inst = substitute(resolved, bindings, {})
        except PreconditionUnsatisfied:
            continue
        yield bindings, inst


def compare_generality(a: Rule, b: Rule, widths: Optional[dict] = None,
                       budget: Optional[Budget] = None) -> CompareResult:
    """Compare applicability domains by enumerating matched instances.

    Each side's instances are matched against the other rule up to the
    first one it misses, the witness that the side is not covered.
    """
    widths = dict(widths or {})
    budget = budget or Budget()
    try:
        dom_a, ex_a = _rule_domain(a, widths, budget)
        dom_b, ex_b = _rule_domain(b, widths, budget)
    except engine.UnsupportedConstruct:
        return CompareResult("Inconclusive", "sampled")
    mode = "exhaustive" if (ex_a and ex_b) else "sampled"

    def first_missed(rule_id, domain, other):
        for bindings, inst in domain:
            if match_rule(other, inst, widths) is None:
                return {"rule": rule_id, "bindings": dict(bindings),
                        "instance": canonical_text(inst)}
        return None

    a_only = first_missed("a", dom_a, b)
    b_only = first_missed("b", dom_b, a)
    if a_only and b_only:
        return CompareResult("Incomparable", mode,
                             {"a_only": a_only, "b_only": b_only})
    # A has an instance B misses; A is more general iff A covers all of B
    if a_only:
        return CompareResult("AMoreGeneral" if ex_b else "Inconclusive",
                             mode, a_only)
    if b_only:
        return CompareResult("BMoreGeneral" if ex_a else "Inconclusive",
                             mode, b_only)
    return CompareResult("Equal" if mode == "exhaustive" else "Inconclusive",
                         mode)


def generalizes(final: Rule, instance: Rule, budget: Budget) -> bool:
    """Whether `final` is strictly more general than `instance`: it matches
    the instance, and at the matched widths it compares AMoreGeneral, or
    Equal when it has width variables (it then covers other widths too)."""
    bindings = match_rule(final, instance)
    if bindings is None:
        return False
    widths = {v: bindings[v] for v in final.width_vars}
    verdict = compare_generality(final, instance, widths, budget).verdict
    return verdict == "AMoreGeneral" or (verdict == "Equal"
                                         and bool(final.width_vars))
