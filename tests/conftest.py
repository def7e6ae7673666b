"""Shared helpers: an independently coded scalar interpreter and a
brute-force refinement checker used as oracles against the library."""
from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from peepgen import semantics, textfmt
from peepgen.ir import IntType, Literal, Local, Param

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
DOCS = REPO / "docs"

POISON = "poison"  # oracle-local poison marker, distinct from the library's

# an instance whose rule holds at every width but 1 (where `slt x, 1` reads
# 1 as -1), so stage 4 accepts a width predicate
SLT_ONE = """
rule "slt_one" {
  lhs fn(x: i8) -> i1 { %0 = add i8 %x, 0; %1 = icmp.slt i8 %0, 1; ret %1 }
  rhs fn(x: i8) -> i1 { %0 = icmp.sle i8 %x, 0; ret %0 }
}
"""


def structural_eq(a, b) -> bool:
    """Rule equality up to rule name and precondition conjunct order."""
    return (a.sym_consts == b.sym_consts
            and a.width_vars == b.width_vars
            and frozenset(a.pre) == frozenset(b.pre)
            and a.lhs == b.lhs and a.rhs == b.rhs)


def _sval(x: int, w: int) -> int:
    x &= (1 << w) - 1
    return x - (1 << w) if x >> (w - 1) else x


def oracle_instr(op, pred, flags, ty, args, widths):
    """Evaluate one instruction over plain unsigned ints; None-free args.

    Deliberately written from scratch (different structure and operations
    than the library's evaluator) so agreement is meaningful.
    """
    if op == "select":
        cond, t, f = args
        if cond == POISON:
            return POISON
        return t if cond else f
    if POISON in args:
        return POISON
    w = widths[0]
    full = (1 << w) - 1
    if op == "icmp":
        a, b = args
        table = {
            "eq": a == b, "ne": a != b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
            "slt": _sval(a, w) < _sval(b, w), "sle": _sval(a, w) <= _sval(b, w),
            "sgt": _sval(a, w) > _sval(b, w), "sge": _sval(a, w) >= _sval(b, w),
        }
        return int(table[pred])
    if op == "zext":
        if "nneg" in flags and _sval(args[0], w) < 0:
            return POISON
        return args[0]
    if op == "sext":
        return _sval(args[0], w) & ((1 << ty.width) - 1)
    if op == "trunc":
        return args[0] & ((1 << ty.width) - 1)
    if op in ("neg", "not", "ctpop", "cttz", "ctlz"):
        (a,) = args
        if op == "not":
            return a ^ full
        if op == "ctpop":
            return sum((a >> i) & 1 for i in range(w))
        if op == "cttz":
            return next((i for i in range(w) if (a >> i) & 1), w)
        if op == "ctlz":
            return next((i for i in range(w) if (a >> (w - 1 - i)) & 1), w)
        # neg
        r = (0 - a) & full
        if "nsw" in flags and _sval(a, w) == -(1 << (w - 1)):
            return POISON
        if "nuw" in flags and a != 0:
            return POISON
        return r
    a, b = args
    sa, sb = _sval(a, w), _sval(b, w)
    if op in ("add", "sub", "mul"):
        exact_u = {"add": a + b, "sub": a - b, "mul": a * b}[op]
        exact_s = {"add": sa + sb, "sub": sa - sb, "mul": sa * sb}[op]
        r = exact_u & full
        if "nsw" in flags and not (-(1 << (w - 1)) <= exact_s < (1 << (w - 1))):
            return POISON
        if "nuw" in flags and not (0 <= exact_u <= full):
            return POISON
        return r
    if op in ("shl", "lshr", "ashr"):
        if b >= w:
            return POISON
        if op == "shl":
            exact = a << b
            r = exact & full
            if "nsw" in flags and _sval(r, w) != sa * (1 << b):
                return POISON
            if "nuw" in flags and exact > full:
                return POISON
            return r
        if "exact" in flags and a & ((1 << b) - 1):
            return POISON
        if op == "lshr":
            return a >> b
        return (sa >> b) & full
    if op in ("udiv", "urem"):
        if b == 0:
            return POISON
        if op == "udiv":
            if "exact" in flags and a % b:
                return POISON
            return a // b
        return a % b
    if op in ("sdiv", "srem"):
        if b == 0 or (sa == -(1 << (w - 1)) and sb == -1):
            return POISON
        q, r = abs(sa) // abs(sb), abs(sa) % abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        if sa < 0:
            r = -r
        if op == "sdiv":
            if "exact" in flags and q * sb != sa:
                return POISON
            return q & full
        return r & full
    simple = {"and": a & b, "or": a | b, "xor": a ^ b}
    if op in simple:
        return simple[op]
    if op in ("smin", "smax", "umin", "umax"):
        key = {"smin": min(sa, sb), "smax": max(sa, sb),
               "umin": min(a, b), "umax": max(a, b)}[op]
        if op[0] == "s":
            return key & full
        return key
    raise AssertionError(f"oracle: unknown op {op}")


def oracle_eval(fn, args: dict):
    """Evaluate an integer-only function; returns unsigned int or POISON."""
    vals = []

    def opnd(o):
        if isinstance(o, Param):
            return args[o.name]
        if isinstance(o, Local):
            return vals[o.index]
        if isinstance(o, Literal):
            return o.value
        raise AssertionError(f"oracle: unexpected operand {o}")

    for instr in fn.body:
        in_w = []
        for o in instr.operands:
            ty = fn.operand_type(o)
            in_w.append(ty.width if isinstance(ty, IntType) else instr.ty.width)
        widths = in_w or [instr.ty.width]
        vals.append(oracle_instr(instr.op, instr.pred, instr.flags, instr.ty,
                                 [opnd(o) for o in instr.operands], widths))
    return opnd(fn.ret)


def oracle_pre(rule, consts: dict, params: dict) -> bool:
    """Precondition evaluation through the library's scalar evaluator with
    oracle-supplied values; the oracle checker exercises the function
    semantics, not the predicate language."""
    cvals = {n: (consts[n], ty) for n, ty in rule.sym_consts}
    pvals = {n: semantics.Bits(ty.width, params[n])
             for n, ty in rule.lhs.params}
    return semantics.eval_predicate(rule.pre, pvals, cvals, {})


def oracle_check_refinement(rule):
    """Brute-force refinement over the full joint space (small widths only).

    Returns None when verified, else (consts, inputs) of a violation.
    """
    from peepgen.ir import bind_consts

    cdims = [(n, ty.width) for n, ty in rule.sym_consts]
    pdims = [(n, ty.width) for n, ty in rule.lhs.params]
    for cvals in itertools.product(*(range(1 << w) for _, w in cdims)):
        consts = {n: v for (n, _), v in zip(cdims, cvals)}
        typed = {n: (consts[n], ty) for n, ty in rule.sym_consts}
        inst = bind_consts(rule, typed) if cdims else rule
        for pvals in itertools.product(*(range(1 << w) for _, w in pdims)):
            params = {n: v for (n, _), v in zip(pdims, pvals)}
            if not oracle_pre(rule, consts, params):
                continue
            lv = oracle_eval(inst.lhs, params)
            if lv == POISON:
                continue
            rv = oracle_eval(inst.rhs, params)
            if rv == POISON or rv != lv:
                return consts, params
    return None


@pytest.fixture(scope="session")
def fixture_corpus():
    from peepgen.fixtures import load_fixtures
    return load_fixtures(REPO / "fixtures")


def parse(text: str):
    return textfmt.parse_rule(text)
