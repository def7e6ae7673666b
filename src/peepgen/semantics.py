"""Poison-aware concrete evaluation of functions, constant expressions and
preconditions.

The value lattice is {concrete, poison}; there is no `undef`.  Flag
violations (nsw/nuw overflow, out-of-range shifts, inexact `exact`
division, nneg zext of a negative value) produce poison, as do division by
zero and INT_MIN/-1 signed overflow.  Float arithmetic is IEEE-754
round-to-nearest-even at the operand precision; every NaN we produce is the
canonical quiet NaN of that precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .ir import (
    CAST_OPS, FCMP_PREDS, ICMP_PREDS, CBin, CCast, CConst, CFloat, CInt, CRef, CUn,
    CWidth, MAX_INT_WIDTH, FloatType, Function, Instr, IntType, Literal, Local,
    Param,
    PeepError, Predicate, PAnd, PCmp, PKnownBits, PLowBitsZero, PNot, POr,
    PPow2, PRange, PTrue, SymConst, Type, mask, to_signed, to_unsigned,
)

np.seterr(all="ignore")


class EvalError(PeepError):
    """Programming error during evaluation (arity/type mismatch, unbound name)."""


class ConstEvalError(PeepError):
    """Partial constant operations applied outside their domain (e.g. log2)."""


# ---------------------------------------------------------------------------
# Values


class _Poison:
    _instance: Optional["_Poison"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Poison"


POISON = _Poison()


@dataclass(frozen=True)
class Bits:
    width: int
    value: int  # unsigned bit pattern, 0 <= value < 2^width

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise EvalError(f"bit pattern {self.value} out of range for i{self.width}")

    @property
    def signed(self) -> int:
        return to_signed(self.value, self.width)


@dataclass(frozen=True)
class FloatBits:
    prec: int  # 16, 32 or 64
    pattern: int

    def __post_init__(self):
        if not 0 <= self.pattern < (1 << self.prec):
            raise EvalError(f"float pattern out of range for f{self.prec}")


Value = Union[_Poison, Bits, FloatBits]

_FLOAT_DTYPES = {16: np.float16, 32: np.float32, 64: np.float64}
_UINT_DTYPES = {16: np.uint16, 32: np.uint32, 64: np.uint64}
CANONICAL_NAN = {16: 0x7E00, 32: 0x7FC00000, 64: 0x7FF8000000000000}


def bits_to_float(pattern: int, prec: int):
    return _UINT_DTYPES[prec](pattern).view(_FLOAT_DTYPES[prec])


def float_to_bits(x, prec: int) -> int:
    v = _FLOAT_DTYPES[prec](x)
    pattern = int(v.view(_UINT_DTYPES[prec]))
    if np.isnan(v):
        pattern = CANONICAL_NAN[prec]
    return pattern


def float_value(prec: int, x) -> FloatBits:
    return FloatBits(prec, float_to_bits(x, prec))


def values_equal(a: Value, b: Value) -> bool:
    """Bit-pattern equality, except that any two NaNs compare equal."""
    if a is POISON or b is POISON:
        return a is b
    if isinstance(a, FloatBits) and isinstance(b, FloatBits):
        if a.prec != b.prec:
            return False
        an = np.isnan(bits_to_float(a.pattern, a.prec))
        bn = np.isnan(bits_to_float(b.pattern, b.prec))
        if an and bn:
            return True
        return a.pattern == b.pattern
    return a == b


# ---------------------------------------------------------------------------
# Integer opcode semantics


def _shift_ok(b: Bits) -> bool:
    return b.value < b.width


def _eval_int_binop(op: str, flags, a: Bits, b: Bits) -> Value:
    w = a.width
    m = mask(w)
    if op == "add":
        r = (a.value + b.value) & m
        if "nsw" in flags and to_signed(r, w) != a.signed + b.signed:
            return POISON
        if "nuw" in flags and a.value + b.value > m:
            return POISON
        return Bits(w, r)
    if op == "sub":
        r = (a.value - b.value) & m
        if "nsw" in flags and to_signed(r, w) != a.signed - b.signed:
            return POISON
        if "nuw" in flags and a.value < b.value:
            return POISON
        return Bits(w, r)
    if op == "mul":
        r = (a.value * b.value) & m
        if "nsw" in flags and to_signed(r, w) != a.signed * b.signed:
            return POISON
        if "nuw" in flags and a.value * b.value > m:
            return POISON
        return Bits(w, r)
    if op == "udiv":
        if b.value == 0:
            return POISON
        if "exact" in flags and a.value % b.value != 0:
            return POISON
        return Bits(w, a.value // b.value)
    if op == "sdiv":
        if b.value == 0 or (a.signed == -(1 << (w - 1)) and b.signed == -1):
            return POISON
        q = abs(a.signed) // abs(b.signed)
        if (a.signed < 0) != (b.signed < 0):
            q = -q
        if "exact" in flags and q * b.signed != a.signed:
            return POISON
        return Bits(w, to_unsigned(q, w))
    if op == "urem":
        if b.value == 0:
            return POISON
        return Bits(w, a.value % b.value)
    if op == "srem":
        if b.value == 0 or (a.signed == -(1 << (w - 1)) and b.signed == -1):
            return POISON
        r = abs(a.signed) % abs(b.signed)
        if a.signed < 0:
            r = -r
        return Bits(w, to_unsigned(r, w))
    if op == "and":
        return Bits(w, a.value & b.value)
    if op == "or":
        return Bits(w, a.value | b.value)
    if op == "xor":
        return Bits(w, a.value ^ b.value)
    if op == "shl":
        if not _shift_ok(b):
            return POISON
        r = (a.value << b.value) & m
        if "nsw" in flags and to_signed(r, w) != a.signed * (1 << b.value):
            return POISON
        if "nuw" in flags and (a.value << b.value) > m:
            return POISON
        return Bits(w, r)
    if op == "lshr":
        if not _shift_ok(b):
            return POISON
        if "exact" in flags and a.value & mask(b.value) != 0:
            return POISON
        return Bits(w, a.value >> b.value)
    if op == "ashr":
        if not _shift_ok(b):
            return POISON
        if "exact" in flags and a.value & mask(b.value) != 0:
            return POISON
        return Bits(w, to_unsigned(a.signed >> b.value, w))
    if op == "smin":
        return a if a.signed <= b.signed else b
    if op == "smax":
        return a if a.signed >= b.signed else b
    if op == "umin":
        return a if a.value <= b.value else b
    if op == "umax":
        return a if a.value >= b.value else b
    raise EvalError(f"unknown integer binop {op}")


def _ctz(v: int, w: int) -> int:
    if v == 0:
        return w
    return (v & -v).bit_length() - 1


def _clz(v: int, w: int) -> int:
    if v == 0:
        return w
    return w - v.bit_length()


def _eval_int_unop(op: str, flags, a: Bits) -> Value:
    w = a.width
    if op == "neg":
        r = (-a.value) & mask(w)
        if "nsw" in flags and a.signed == -(1 << (w - 1)):
            return POISON
        if "nuw" in flags and a.value != 0:
            return POISON
        return Bits(w, r)
    if op == "not":
        return Bits(w, a.value ^ mask(w))
    if op == "ctpop":
        return Bits(w, bin(a.value).count("1"))
    if op == "cttz":
        return Bits(w, _ctz(a.value, w))
    if op == "ctlz":
        return Bits(w, _clz(a.value, w))
    raise EvalError(f"unknown integer unop {op}")


def icmp(pred: str, a: Bits, b: Bits) -> bool:
    if pred == "eq":
        return a.value == b.value
    if pred == "ne":
        return a.value != b.value
    ua, ub, sa, sb = a.value, b.value, a.signed, b.signed
    return {
        "ult": ua < ub, "ule": ua <= ub, "ugt": ua > ub, "uge": ua >= ub,
        "slt": sa < sb, "sle": sa <= sb, "sgt": sa > sb, "sge": sa >= sb,
    }[pred]


def fcmp(pred: str, a, b) -> bool:
    unordered = bool(np.isnan(a)) or bool(np.isnan(b))
    if pred == "ord":
        return not unordered
    if pred == "uno":
        return unordered
    ordered_result = {
        "oeq": a == b, "one": a != b and not unordered,
        "olt": a < b, "ole": a <= b, "ogt": a > b, "oge": a >= b,
        "ueq": a == b, "une": a != b or unordered,
        "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
    }[pred]
    if unordered:
        return pred.startswith("u")
    return bool(ordered_result)


def _eval_float_binop(op: str, flags, a: FloatBits, b: FloatBits) -> Value:
    prec = a.prec
    fa, fb = bits_to_float(a.pattern, prec), bits_to_float(b.pattern, prec)
    if "nnan" in flags and (np.isnan(fa) or np.isnan(fb)):
        return POISON
    if "ninf" in flags and (np.isinf(fa) or np.isinf(fb)):
        return POISON
    dt = _FLOAT_DTYPES[prec]
    if op == "fadd":
        r = dt(fa + fb)
    elif op == "fsub":
        r = dt(fa - fb)
    elif op == "fmul":
        r = dt(fa * fb)
    elif op == "fdiv":
        r = dt(np.divide(fa, fb))
    else:
        raise EvalError(f"unknown float binop {op}")
    if "nnan" in flags and np.isnan(r):
        return POISON
    if "ninf" in flags and np.isinf(r):
        return POISON
    return float_value(prec, r)


# ---------------------------------------------------------------------------
# Function evaluation


def _operand_value(fn: Function, opnd, env: dict, locals_: list) -> Value:
    if isinstance(opnd, Param):
        if opnd.name not in env:
            raise EvalError(f"unbound parameter {opnd.name}")
        return env[opnd.name]
    if isinstance(opnd, Local):
        return locals_[opnd.index]
    if isinstance(opnd, Literal):
        if isinstance(opnd.ty, IntType):
            return Bits(opnd.ty.width, to_unsigned(opnd.value, opnd.ty.width))
        if isinstance(opnd.ty, FloatType):
            return FloatBits(opnd.ty.bits, opnd.value)
        raise EvalError("literal with unresolved width variable")
    if isinstance(opnd, SymConst):
        raise EvalError(f"symbolic constant {opnd.name} in evaluated function")
    raise EvalError(f"bad operand {opnd!r}")


def eval_instr(instr: Instr, args: list) -> Value:
    op = instr.op
    if op == "select":
        cond, tval, fval = args
        if cond is POISON:
            return POISON
        return tval if cond.value else fval
    if any(a is POISON for a in args):
        return POISON
    if op in ("icmp",):
        return Bits(1, int(icmp(instr.pred, args[0], args[1])))
    if op == "fcmp":
        a, b = args
        fa, fb = bits_to_float(a.pattern, a.prec), bits_to_float(b.pattern, b.prec)
        if "nnan" in instr.flags and (np.isnan(fa) or np.isnan(fb)):
            return POISON
        if "ninf" in instr.flags and (np.isinf(fa) or np.isinf(fb)):
            return POISON
        return Bits(1, int(fcmp(instr.pred, fa, fb)))
    if op in CAST_OPS:
        (a,) = args
        dst = instr.ty.width
        if op == "zext":
            if "nneg" in instr.flags and a.signed < 0:
                return POISON
            return Bits(dst, a.value)
        if op == "sext":
            return Bits(dst, to_unsigned(a.signed, dst))
        return Bits(dst, a.value & mask(dst))  # trunc
    if op == "fneg":
        (a,) = args
        fa = bits_to_float(a.pattern, a.prec)
        if "nnan" in instr.flags and np.isnan(fa):
            return POISON
        if "ninf" in instr.flags and np.isinf(fa):
            return POISON
        return float_value(a.prec, -fa)
    if op in ("fadd", "fsub", "fmul", "fdiv"):
        return _eval_float_binop(op, instr.flags, args[0], args[1])
    if len(args) == 2:
        return _eval_int_binop(op, instr.flags, args[0], args[1])
    return _eval_int_unop(op, instr.flags, args[0])


def eval_function(fn: Function, args: list) -> Value:
    """Evaluate a fully concrete straight-line function on concrete values."""
    if len(args) != len(fn.params):
        raise EvalError(f"{fn.name}: expected {len(fn.params)} args, got {len(args)}")
    env = {}
    for (name, ty), value in zip(fn.params, args):
        if value is not POISON:
            if isinstance(ty, IntType) and (not isinstance(value, Bits) or value.width != ty.width):
                raise EvalError(f"argument {name} does not match {ty}")
            if isinstance(ty, FloatType) and (not isinstance(value, FloatBits) or value.prec != ty.bits):
                raise EvalError(f"argument {name} does not match {ty}")
        env[name] = value
    locals_: list = []
    for instr in fn.body:
        vals = [_operand_value(fn, o, env, locals_) for o in instr.operands]
        locals_.append(eval_instr(instr, vals))
    return _operand_value(fn, fn.ret, env, locals_)


# ---------------------------------------------------------------------------
# Constant-expression evaluation
#
# Values inside constant expressions are Bits/FloatBits plus "polymorphic"
# plain ints (literals and width references), which adopt the width of
# whatever they are combined with.


def _cbin_int(op: str, av: int, bv: int, w: Optional[int]):
    # math at width w (None = unbounded)
    def wrap(x: int) -> int:
        return x & mask(w) if w is not None else x

    if op == "+":
        return wrap(av + bv)
    if op == "-":
        return wrap(av - bv)
    if op == "*":
        return wrap(av * bv)
    if op == "/":
        if bv == 0:
            raise ConstEvalError("division by zero in constant expression")
        return wrap(av // bv)
    if op == "&":
        return wrap(av & bv)
    if op == "|":
        return wrap(av | bv)
    if op == "^":
        return wrap(av ^ bv)
    # a left or arithmetic shift by a negative amount is out of domain (a
    # negative `>>u` shifts left), and so is an unbounded left shift past
    # the widest type, as a shift by the width or more is at a width
    if op == "<<":
        if not 0 <= bv < (w if w is not None else MAX_INT_WIDTH + 1):
            raise ConstEvalError("shift amount exceeds width")
        return wrap(av << bv)
    if op == ">>u":
        if bv >= 0:
            return wrap(av >> bv)
        if -bv > MAX_INT_WIDTH:
            raise ConstEvalError("shift amount exceeds width")
        return wrap(av << -bv)
    if op == ">>s":
        if w is None:
            if bv < 0:
                raise ConstEvalError("negative shift amount")
            return av >> bv
        return to_unsigned(to_signed(av, w) >> bv, w)
    raise ConstEvalError(f"unknown operator {op}")


def eval_constexpr(e, consts: dict, widths: dict, params: Optional[dict] = None):
    """Evaluate a constant expression.

    `consts` maps symbolic constant names to (bit pattern, Type); `widths`
    maps width variables to ints; `params` (predicate evaluation only) maps
    parameter names to Values.  Returns Bits, FloatBits or a plain int for
    width-polymorphic results.
    """
    params = params or {}

    def ev(e):
        if isinstance(e, CInt):
            return e.value
        if isinstance(e, CFloat):
            return e.value  # plain float; adopts precision from context
        if isinstance(e, CWidth):
            if e.name not in widths:
                raise EvalError(f"unbound width variable {e.name}")
            return widths[e.name]
        if isinstance(e, CConst):
            if e.name not in consts:
                raise EvalError(f"unbound symbolic constant {e.name}")
            value, ty = consts[e.name]
            if isinstance(ty, FloatType):
                return FloatBits(ty.bits, value)
            width = ty.width if isinstance(ty, IntType) else widths.get(getattr(ty, "var", None))
            if width is None:
                raise EvalError(f"unresolved width for constant {e.name}")
            return Bits(width, to_unsigned(value, width))
        if isinstance(e, CRef):
            if e.name not in params:
                raise EvalError(f"unbound value reference {e.name}")
            v = params[e.name]
            if v is POISON:
                raise ConstEvalError("poison-bound value reference")
            return v
        if isinstance(e, CUn):
            a = ev(e.a)
            if isinstance(a, FloatBits):
                if e.op == "neg":
                    fa = bits_to_float(a.pattern, a.prec)
                    return float_value(a.prec, -fa)
                raise ConstEvalError(f"{e.op} on float constant")
            w = a.width if isinstance(a, Bits) else None
            av = a.value if isinstance(a, Bits) else a
            if e.op == "neg":
                return Bits(w, (-av) & mask(w)) if w is not None else -av
            uv = av if w is None else to_unsigned(av, w)
            if uv < 0:
                raise ConstEvalError(f"{e.op} of negative unbounded literal")
            if e.op == "popcount":
                r = bin(uv).count("1")
            elif e.op == "cttz":
                r = _ctz(uv, w if w is not None else 64)
            elif e.op == "ctlz":
                if w is None:
                    raise ConstEvalError("ctlz needs a width")
                r = _clz(uv, w)
            elif e.op == "log2":
                if uv == 0 or uv & (uv - 1):
                    raise ConstEvalError(f"log2 of non-power-of-two {uv}")
                r = uv.bit_length() - 1
            else:
                raise EvalError(f"unknown operator {e.op}")
            return Bits(w, r) if w is not None else r
        if isinstance(e, CCast):
            a = ev(e.a)
            w = e.width if isinstance(e.width, int) else widths.get(e.width)
            if w is None:
                raise EvalError(f"unbound width variable {e.width}")
            if isinstance(a, FloatBits):
                raise ConstEvalError("integer cast of float constant")
            if isinstance(a, int):
                return Bits(w, to_unsigned(a, w))
            if e.kind == "zext":
                return Bits(w, a.value & mask(w))
            if e.kind == "sext":
                return Bits(w, to_unsigned(a.signed, w))
            return Bits(w, a.value & mask(w))
        if isinstance(e, CBin):
            a, b = ev(e.a), ev(e.b)
            if (isinstance(a, (FloatBits, float))
                    or isinstance(b, (FloatBits, float))):
                return _cbin_float(e.op, a, b)
            aw = a.width if isinstance(a, Bits) else None
            bw = b.width if isinstance(b, Bits) else None
            if aw is not None and bw is not None and aw != bw:
                raise ConstEvalError(f"width mismatch i{aw} vs i{bw} in constant expression")
            w = aw if aw is not None else bw
            av = a.value if isinstance(a, Bits) else a
            bv = b.value if isinstance(b, Bits) else b
            if w is not None:
                av, bv = to_unsigned(av, w), to_unsigned(bv, w)
            r = _cbin_int(e.op, av, bv, w)
            return Bits(w, r) if w is not None else r
        raise EvalError(f"unknown constant expression {e!r}")

    return ev(e)


def _cbin_float(op: str, a, b):
    def coerce(x, prec):
        if isinstance(x, FloatBits):
            return bits_to_float(x.pattern, prec)
        return _FLOAT_DTYPES[prec](x)

    if isinstance(a, FloatBits):
        prec = a.prec
    elif isinstance(b, FloatBits):
        prec = b.prec
    else:
        prec = 64
    fa, fb = coerce(a, prec), coerce(b, prec)
    dt = _FLOAT_DTYPES[prec]
    if op == "+":
        return float_value(prec, dt(fa + fb))
    if op == "-":
        return float_value(prec, dt(fa - fb))
    if op == "*":
        return float_value(prec, dt(fa * fb))
    if op == "/":
        return float_value(prec, dt(np.divide(fa, fb)))
    raise ConstEvalError(f"operator {op} not defined on float constants")


# ---------------------------------------------------------------------------
# Predicate evaluation


def _interp(v, signed: bool):
    """Interpret a const-expr value as a mathematical number for comparison."""
    if isinstance(v, Bits):
        return v.signed if signed else v.value
    return v  # plain int


def _cmp_values(pred: str, a, b) -> bool:
    # ult/ule/ugt/uge name both an integer and a float predicate; the
    # operands decide which one is meant
    is_float = (isinstance(a, FloatBits) or isinstance(b, FloatBits)
                or isinstance(a, float) or isinstance(b, float))
    if pred in FCMP_PREDS and (pred not in ICMP_PREDS or is_float):
        prec = a.prec if isinstance(a, FloatBits) else (b.prec if isinstance(b, FloatBits) else 64)
        fa = bits_to_float(a.pattern, prec) if isinstance(a, FloatBits) else _FLOAT_DTYPES[prec](a)
        fb = bits_to_float(b.pattern, prec) if isinstance(b, FloatBits) else _FLOAT_DTYPES[prec](b)
        return fcmp(pred, fa, fb)
    if pred in ("eq", "ne"):
        if isinstance(a, Bits) and isinstance(b, Bits) and a.width == b.width:
            r = a.value == b.value
        else:
            r = _interp(a, False) == _interp(b, False) or _interp(a, True) == _interp(b, True)
        return r if pred == "eq" else not r
    signed = pred[0] == "s"
    av, bv = _interp(a, signed), _interp(b, signed)
    return {"lt": av < bv, "le": av <= bv, "gt": av > bv, "ge": av >= bv}[pred[1:]]


def eval_predicate(conjuncts, params: dict, consts: dict, widths: dict) -> bool:
    """Evaluate a conjunct list (or a single Predicate) to a boolean.

    Atoms over poison-bound value references and atoms whose constant
    expression is outside its domain (e.g. log2 of a non-power) evaluate to
    false, which keeps refinement conservative.
    """
    if isinstance(conjuncts, tuple) or isinstance(conjuncts, list):
        return all(eval_predicate(c, params, consts, widths) for c in conjuncts)
    p = conjuncts

    def ev_expr(e):
        return eval_constexpr(e, consts, widths, params)

    def ref_value(name: str):
        if name not in params:
            raise EvalError(f"unbound value reference {name}")
        return params[name]

    try:
        if isinstance(p, PTrue):
            return True
        if isinstance(p, PCmp):
            return _cmp_values(p.pred, ev_expr(p.a), ev_expr(p.b))
        if isinstance(p, PPow2):
            v = ev_expr(p.e)
            u = v.value if isinstance(v, Bits) else v
            return u > 0 and u & (u - 1) == 0
        if isinstance(p, PKnownBits):
            v = ref_value(p.ref)
            if v is POISON:
                return False
            z = ev_expr(p.zeros)
            o = ev_expr(p.ones)
            zu = z.value if isinstance(z, Bits) else to_unsigned(z, v.width)
            ou = o.value if isinstance(o, Bits) else to_unsigned(o, v.width)
            return (v.value & zu) == 0 and (v.value & ou) == ou
        if isinstance(p, PRange):
            v = ref_value(p.ref)
            if v is POISON:
                return False
            lo, hi = ev_expr(p.lo), ev_expr(p.hi)
            vv = _interp(v, p.signed)
            return _interp(lo, p.signed) <= vv <= _interp(hi, p.signed)
        if isinstance(p, PLowBitsZero):
            v = ref_value(p.ref)
            if v is POISON:
                return False
            k = ev_expr(p.k)
            kv = k.value if isinstance(k, Bits) else k
            if kv < 0:
                raise ConstEvalError("negative low-bit count")
            return v.value & mask(min(kv, v.width)) == 0
        if isinstance(p, PNot):
            return not eval_predicate(p.a, params, consts, widths)
        if isinstance(p, POr):
            return (eval_predicate(p.a, params, consts, widths)
                    or eval_predicate(p.b, params, consts, widths))
        if isinstance(p, PAnd):
            return (eval_predicate(p.a, params, consts, widths)
                    and eval_predicate(p.b, params, consts, widths))
    except ConstEvalError:
        return False
    raise EvalError(f"unknown predicate {p!r}")
