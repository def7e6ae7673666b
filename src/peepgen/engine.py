"""Vectorized evaluation over constant and input spaces.

The verifier enumerates (or samples) joint (constants, inputs) spaces; this
module does the heavy lifting with numpy.  All rules handled here must have
concrete types (width variables already resolved).  Integer values are kept
as unsigned bit patterns in the narrowest ufunc dtype that fits; floats are
kept in their native dtype and compared by bit pattern.

Poison is tracked as a parallel boolean mask per value.

Each constant-expression operator is the instruction it names and runs
through that instruction's kernel: `+ - * / & | ^ << >>u >>s` are `add sub
mul udiv and or xor shl lshr ashr`, `neg popcount cttz ctlz` are `neg ctpop
cttz ctlz`, float `+ - * /` are `fadd fsub fmul fdiv`, and `log2` is `cttz`
on powers of two.  A lane where that instruction is poison (division by
zero, a shift by the width or more, log2 of a non-power) is out of domain,
and the enclosing predicate atom is false there, as in the scalar
evaluator.  The one difference from the scalar evaluator is `>>u`/`>>s` by
the width or more: here the `lshr`/`ashr` kernels (`_int_binop_vec`) make
that lane poison, so it is out of domain, while `semantics._cbin_int` gives
0 or the sign fill (the strict xfail
`test_constexpr_vec_matches_scalar_on_right_shifts_past_the_width`).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ir import (
    CAST_OPS, CBin, CCast, CConst, CFloat, CInt, CRef, CUn, FloatType,
    Function, Instr, IntType, Literal, Local, Param, PeepError, PAnd, PCmp,
    PKnownBits, PLowBitsZero, PNot, POr, PPow2, PRange, PTrue, Rule,
    SymConst, iter_expr, mask, pred_const_names, pred_param_refs,
    to_unsigned,
)
from .ir import FCMP_PREDS as _FCMP_PREDS
from .ir import ICMP_PREDS as _ICMP_PREDS
from . import semantics

_UINT = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}
_SINT = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}
_FLOAT = {16: np.float16, 32: np.float32, 64: np.float64}
_FUINT = {16: np.uint16, 32: np.uint32, 64: np.uint64}


class UnsupportedConstruct(PeepError):
    """Raised when a rule cannot be evaluated by the vectorized engine."""


def storage_bits(width: int) -> int:
    for b in (8, 16, 32, 64):
        if width <= b:
            return b
    raise UnsupportedConstruct(f"integer width {width} exceeds 64")


def udtype(width: int):
    return _UINT[storage_bits(width)]


def space_of(ty) -> int:
    if isinstance(ty, IntType):
        return 1 << ty.width
    if isinstance(ty, FloatType):
        return 1 << ty.bits
    raise UnsupportedConstruct(f"non-concrete type {ty}")


def _signed(data, width: int):
    """Reinterpret zero-extended patterns as sign-extended signed values."""
    sb = storage_bits(width)
    if width == sb:
        return data.astype(_UINT[sb], copy=False).view(_SINT[sb])
    shift = sb - width
    return ((data.astype(_UINT[sb], copy=False) << np.uint8(shift))
            .view(_SINT[sb]) >> shift)


def _sext(data, src: int, dst: int):
    """Sign-extend `src`-bit patterns to `dst` bits.  The signed values are
    reinterpreted as patterns in place: an int64 to uint64 `astype` copies
    on a slow per-element loop."""
    wide = _signed(data, src).astype(_SINT[storage_bits(dst)])
    return _wrap(wide.view(udtype(dst)), dst)


def _wrap(data, width: int):
    dt = udtype(width)
    data = data.astype(dt, copy=False)
    if width == storage_bits(width):
        return data
    return data & dt(mask(width))


@dataclass
class VVal:
    """A vectorized value: patterns (ints) or native floats, plus poison."""

    data: np.ndarray
    poison: Optional[np.ndarray]
    ty: object  # IntType or FloatType

    @property
    def width(self) -> int:
        return self.ty.width


# Boolean masks that may differ in shape (a (k, 1) column of constant lanes
# against a (1, m) row of input lanes, or a 0-d mask against either) are
# combined on uint8 views: numpy's boolean `|`, `&` and `^` take a slow loop
# when an operand repeats, whether by broadcasting or through a stride-0
# view, 50-83 us per 65,600 lanes with numpy 2.4 against about 5 us for the
# same operation on uint8 views of the masks.


def _mask_op(ufunc, a, b):
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    return ufunc(a.view(np.uint8), b.view(np.uint8)).view(bool)


def mask_or(a, b):
    """`a | b` of boolean masks that broadcast together."""
    return _mask_op(np.bitwise_or, a, b)


def mask_and(a, b):
    """`a & b` of boolean masks that broadcast together."""
    return _mask_op(np.bitwise_and, a, b)


def mask_xor(a, b):
    """`a ^ b` of boolean masks that broadcast together."""
    return _mask_op(np.bitwise_xor, a, b)


def _por(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return mask_or(a, b)


# the comparison each predicate names, without its u/s/o prefix
_CMP = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
        "le": operator.le, "gt": operator.gt, "ge": operator.ge}


# ---------------------------------------------------------------------------
# Bit counts (on uint64 inputs)


def _cttz64(v, width: int):
    low = v & (~v + np.uint64(1))
    r = np.bitwise_count(low - np.uint64(1))
    return np.where(v == 0, np.uint64(width), r)


def _ctlz64(v, width: int):
    s = v.astype(np.uint64, copy=True)
    for k in (1, 2, 4, 8, 16, 32):
        s |= s >> np.uint64(k)
    return np.uint64(width) - np.bitwise_count(s)


# ---------------------------------------------------------------------------
# Integer instruction kernels
#
# Each kernel takes operand arrays and the width, and returns the result
# and the lanes the operation itself makes poison (None when it makes
# none); it computes only the result its opcode names (and, for `exact`,
# the remainder that decides poison).  A remainder is `a - (a // b) * b`,
# as numpy's `%` has no fast loop.  `mul` takes one path at every width: the
# product in the storage dtype, whose wrap the `nuw`/`nsw` checks detect by
# dividing back.
#
# numpy runs a ufunc on an operand that repeats along the inner axis (a
# scalar, or a column against rows) in one of two ways.  Measured with
# numpy 2.4 on AVX-512: it loops over rows of at least `_INPLACE_LANES`
# lanes (its buffer size) with the repeated operand in place, and over a
# block of shorter rows by copying the operands into buffers first (for
# one row broadcast against a column, from half that length on it loops in
# place).  Its `//` by an operand in place runs the divide-by-scalar loop,
# and by a buffered one the per-element loop: a (16, 4096) block by a
# (16, 1) column takes 250 us, and 40 us row by row, so `_quotient`
# divides such blocks row by row.  Its minimum and maximum have SIMD loops
# only for operands that do not repeat: 65,536 i16 lanes against one value
# in place take 65 us, and 7 us against a full operand, so `_minmax`
# copies a repeated operand out along long rows.

_BITWISE = {"and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor}

_INPLACE_LANES = 8192


def _quotient(a, b):
    """`a // b` for unsigned patterns; a block of rows that numpy would
    divide by a column of divisors on its per-element loop is divided row
    by row.  Rows of fewer than 1,024 lanes keep numpy's loop: they cost
    more in per-row calls than they save."""
    if np.ndim(a) == 2 and np.ndim(b) == 2 and b.shape[1] == 1 and len(b) > 1:
        lanes = a.shape[1]
        if 1024 <= lanes < (_INPLACE_LANES if len(a) > 1
                            else _INPLACE_LANES // 2):
            q = np.empty((len(b), lanes), np.result_type(a, b))
            for row, d, out in zip(np.broadcast_to(a, q.shape), b[:, 0], q):
                np.floor_divide(row, d, out=out)
            return q
    return a // b


def _minmax(pick, av, bv):
    """`pick(av, bv)` for `np.minimum` or `np.maximum`, with an operand
    that repeats along rows of `_INPLACE_LANES` lanes or more copied out to
    the full shape first."""
    if max(np.shape(av)[-1:] + np.shape(bv)[-1:], default=1) >= _INPLACE_LANES:
        for rep, other in ((av, bv), (bv, av)):
            if np.shape(rep)[-1:] in ((), (1,)):
                out = np.empty(np.broadcast_shapes(np.shape(av), np.shape(bv)),
                               np.result_type(av, bv))
                out[...] = rep
                return pick(other, out, out=out)
    return pick(av, bv)


def _negate_where(v, neg, w: int):
    """`v` negated (modulo 2**w) in the lanes where the mask `neg` holds:
    `(v ^ m) - m` for `m` all ones there and 0 elsewhere."""
    m = np.negative(neg, dtype=v.dtype)
    return _wrap(np.subtract(v ^ m, m), w)


def _int_binop_vec(op: str, flags, av, bv, w: int):
    poison = None

    if op in _BITWISE:
        return _BITWISE[op](av, bv), poison

    if op in ("add", "sub"):
        r = _wrap(av + bv if op == "add" else av - bv, w)
        if "nsw" in flags:
            na, nb, nr = (_signed(v, w) < 0 for v in (av, bv, r))
            # a sum overflows when its sign differs from both operands'; a
            # difference when the operands' signs differ and its own
            # differs from the minuend's
            ovf = mask_xor(nr, na) & (mask_xor(nr, nb) if op == "add"
                                      else mask_xor(na, nb))
            poison = _por(poison, ovf)
        if "nuw" in flags:
            ovf = r < av if op == "add" else av < bv
            poison = _por(poison, ovf)
        return r, poison

    dt = udtype(w)
    if op == "mul":
        wide = av * bv  # the product modulo 2**(storage bits)
        r = _wrap(wide, w)
        if "nuw" in flags:
            # divide-back overflow check: sound because when a*b wraps,
            # wide // a is strictly below b
            safe = av | (av == 0)
            poison = _por(poison, mask_and(av != 0, wide // safe != bv)
                          | (wide > dt(mask(w))))
        if "nsw" in flags:
            sa, sb = _signed(av, w), _signed(bv, w)
            # the magnitudes as patterns: abs wraps only at the storage
            # dtype's minimum, whose pattern is its magnitude
            ma, mb = np.abs(sa).view(dt), np.abs(sb).view(dt)
            prod = ma * mb
            safe = ma | (ma == 0)
            ovf_u = mask_and(ma != 0, prod // safe != mb)
            # |a*b| may reach 2**(w-1) only when the product is negative
            limit = dt((1 << (w - 1)) - 1) + mask_xor(sa < 0, sb < 0)
            poison = _por(poison, ovf_u | (prod > limit))
        return r, poison

    # a zero divisor is poison; it divides as 1 (`b | (b == 0)`)
    if op in ("udiv", "urem"):
        zero = bv == 0
        safe = bv | zero
        poison = zero
        q = _quotient(av, safe)
        if op == "urem":
            return av - q * safe, poison
        if "exact" in flags:
            poison = _por(poison, av != q * safe)
        return q, poison

    if op in ("sdiv", "srem"):
        sa, sb = _signed(av, w), _signed(bv, w)
        # the magnitudes as patterns, as in `mul nsw`
        ma, mb = np.abs(sa).view(dt), np.abs(sb).view(dt)
        zero = bv == 0
        minneg = mask_and(av == dt(1 << (w - 1)), bv == dt(mask(w)))
        safe = mb | zero
        poison = mask_or(zero, minneg)
        q = _quotient(ma, safe)
        if op == "sdiv":
            if "exact" in flags:
                poison = _por(poison, ma != q * safe)
            return _negate_where(q, mask_xor(sa < 0, sb < 0), w), poison
        return _negate_where(ma - q * safe, sa < 0, w), poison

    if op in ("shl", "lshr", "ashr"):
        big = bv >= dt(w)
        amt = np.where(big, dt(0), bv)
        poison = big
        if op == "shl":
            r = _wrap(av << amt, w)
            if "nsw" in flags:
                back = _signed(r, w) >> _signed(amt, w)
                poison = _por(poison, back != _signed(av, w))
            if "nuw" in flags:
                poison = _por(poison, (r >> amt) != av)
            return r, poison
        if op == "lshr":
            r = av >> amt
        else:
            r = _wrap(_signed(av, w) >> _signed(amt, w), w)
        if "exact" in flags:
            lost = av & _wrap((dt(1) << amt) - dt(1), w)
            poison = _por(poison, lost != 0)
        return r, poison

    if op in ("smin", "smax", "umin", "umax"):
        pick = np.minimum if op.endswith("min") else np.maximum
        if op[0] == "u":
            return _minmax(pick, av, bv), poison
        r = _minmax(pick, _signed(av, w), _signed(bv, w)).view(dt)
        return _wrap(r, w), poison

    raise UnsupportedConstruct(f"integer binop {op}")


def _int_unop_vec(op: str, flags, av, w: int):
    dt = udtype(w)
    av = np.asarray(av, dtype=dt)
    poison = None
    if op == "neg":
        r = _wrap((~av) + dt(1), w)
        if "nsw" in flags:
            poison = _por(poison, av == _wrap(np.asarray(dt(1) << dt(w - 1)), w))
        if "nuw" in flags:
            poison = _por(poison, av != 0)
        return r, poison
    if op == "not":
        return _wrap(~av, w), poison
    if op == "ctpop":
        return np.bitwise_count(av).astype(dt), poison
    v64 = av.astype(np.uint64)
    if op == "cttz":
        return _cttz64(v64, w).astype(dt), poison
    if op == "ctlz":
        return _ctlz64(v64, w).astype(dt), poison
    raise UnsupportedConstruct(f"integer unop {op}")


# ---------------------------------------------------------------------------
# Float instruction kernels


def _fcmp_vec(pred: str, fa, fb):
    with np.errstate(all="ignore"):
        unordered = mask_or(np.isnan(fa), np.isnan(fb))
        if pred == "ord":
            return ~unordered
        if pred == "uno":
            return unordered
        cmp = _CMP[pred[1:]](fa, fb)
    if pred.startswith("o"):
        return cmp & ~unordered
    return cmp | unordered


def _float_flag_poison(flags, poison, *arrs):
    for f in arrs:
        if "nnan" in flags:
            poison = _por(poison, np.isnan(f))
        if "ninf" in flags:
            poison = _por(poison, np.isinf(f))
    return poison


_FLOAT_BINOPS = {"fadd": np.add, "fsub": np.subtract, "fmul": np.multiply,
                 "fdiv": np.divide}


def _float_binop_vec(op: str, flags, fa, fb):
    poison = _float_flag_poison(flags, None, fa, fb)
    with np.errstate(all="ignore"):
        r = _FLOAT_BINOPS[op](fa, fb)
    return r, _float_flag_poison(flags, poison, r)


# ---------------------------------------------------------------------------
# Function evaluation


def lit_vval(lit: Literal) -> VVal:
    if isinstance(lit.ty, IntType):
        return VVal(udtype(lit.ty.width)(to_unsigned(lit.value, lit.ty.width)),
                    None, lit.ty)
    if isinstance(lit.ty, FloatType):
        return VVal(semantics.bits_to_float(lit.value, lit.ty.bits), None, lit.ty)
    raise UnsupportedConstruct("literal with unresolved width")


def _operand_vval(opnd, params: dict, locals_: list, consts: dict) -> VVal:
    if isinstance(opnd, Param):
        return params[opnd.name]
    if isinstance(opnd, Local):
        return locals_[opnd.index]
    if isinstance(opnd, Literal):
        return lit_vval(opnd)
    if isinstance(opnd, SymConst):
        data, ty = consts[opnd.name]
        return VVal(data, None, ty)
    raise UnsupportedConstruct(f"operand {opnd!r}")


def eval_instr_vec(instr: Instr, args: list) -> VVal:
    op = instr.op
    if op == "select":
        cond, t, f = args
        taken = cond.data != 0
        data = np.where(taken, t.data, f.data)
        arm_p = None
        if t.poison is not None or f.poison is not None:
            tp = t.poison if t.poison is not None else np.zeros(1, bool)
            fp = f.poison if f.poison is not None else np.zeros(1, bool)
            arm_p = np.where(taken, tp, fp)
        return VVal(data, _por(cond.poison, arm_p), instr.ty)
    if op == "icmp":
        a, b = args
        av, bv = a.data, b.data
        if instr.pred[0] == "s":
            av, bv = _signed(av, a.width), _signed(bv, a.width)
        r = _CMP[instr.pred[-2:]](av, bv)
        return VVal(r.view(np.uint8), _por(a.poison, b.poison), instr.ty)
    if op == "fcmp":
        a, b = args
        poison = _por(a.poison, b.poison)
        poison = _float_flag_poison(instr.flags, poison, a.data, b.data)
        r = _fcmp_vec(instr.pred, a.data, b.data)
        return VVal(r.astype(np.uint8), poison, instr.ty)
    if op in CAST_OPS:
        (a,) = args
        dst = instr.ty.width
        dt = udtype(dst)
        poison = a.poison
        if op == "zext":
            if "nneg" in instr.flags:
                poison = _por(poison, _signed(a.data, a.width) < 0)
            return VVal(np.asarray(a.data, dtype=udtype(a.width)).astype(dt), poison, instr.ty)
        if op == "sext":
            return VVal(_sext(a.data, a.width, dst), poison, instr.ty)
        return VVal(_wrap(np.asarray(a.data), dst), poison, instr.ty)
    if op == "fneg":
        (a,) = args
        poison = _float_flag_poison(instr.flags, a.poison, a.data)
        return VVal(-np.asarray(a.data), poison, a.ty)
    a = args[0]
    if op in _FLOAT_BINOPS:
        data, poison = _float_binop_vec(op, instr.flags, a.data, args[1].data)
    elif len(args) == 2:
        data, poison = _int_binop_vec(op, instr.flags, a.data, args[1].data,
                                      a.width)
    else:
        data, poison = _int_unop_vec(op, instr.flags, a.data, a.width)
    for v in args:
        poison = _por(v.poison, poison)
    return VVal(data, poison, a.ty)


def eval_function_vec(fn: Function, params: dict, consts: dict) -> VVal:
    """Evaluate `fn` over numpy-valued parameters and constant bindings.

    `params` maps parameter names to VVal; `consts` maps symbolic constant
    names to (data array, Type).  All arrays must be mutually broadcastable.
    """
    locals_: list = []
    for instr in fn.body:
        args = [_operand_vval(o, params, locals_, consts) for o in instr.operands]
        locals_.append(eval_instr_vec(instr, args))
    return _operand_vval(fn.ret, params, locals_, consts)


def values_equal_vec(a: VVal, b: VVal):
    if isinstance(a.ty, FloatType):
        fa, fb = np.asarray(a.data), np.asarray(b.data)
        pa = fa.view(_FUINT[a.ty.bits])
        pb = fb.view(_FUINT[b.ty.bits])
        return (pa == pb) | mask_and(np.isnan(fa), np.isnan(fb))
    return np.asarray(a.data) == np.asarray(b.data)


# ---------------------------------------------------------------------------
# Constant-expression and predicate evaluation (vectorized)


@dataclass
class CVal:
    """Const-expr value: integer patterns with a width, floats, or
    width-polymorphic Python ints; `poison` masks the lanes that are out of
    domain (an operator's instruction gave poison there, or a value
    reference is bound to poison)."""

    data: object  # ndarray | int | float
    width: Optional[int]  # None for poly ints and floats
    prec: Optional[int]
    poison: Optional[np.ndarray]

    @property
    def is_float(self) -> bool:
        return self.prec is not None


def _poly(v) -> CVal:
    return CVal(v, None, None, None)


def _ref_cval(v: VVal) -> CVal:
    if isinstance(v.ty, FloatType):
        return CVal(v.data, None, v.ty.bits, v.poison)
    return CVal(v.data, v.ty.width, None, v.poison)


def _as_width(v: CVal, width: int):
    """Patterns of `v` at `width` (poly ints wrapped)."""
    if isinstance(v.data, (int, np.integer)) and v.width is None:
        return udtype(width)(to_unsigned(int(v.data), width))
    return np.asarray(v.data)


def _as_floats(a: CVal, b: CVal):
    """Both operands as floats of the precision of the float one (f64 when
    neither has one), and that precision."""
    prec = a.prec or b.prec or 64
    dt = _FLOAT[prec]
    return [np.asarray(v.data) if v.is_float else np.asarray(v.data, dtype=dt)
            for v in (a, b)], prec


def _is_pow2(v64):
    return (v64 != 0) & ((v64 & (v64 - np.uint64(1))) == 0)


# the instruction each constant operator is (see the module docstring)
_CBIN_INT = {"+": "add", "-": "sub", "*": "mul", "/": "udiv", "&": "and",
             "|": "or", "^": "xor", "<<": "shl", ">>u": "lshr", ">>s": "ashr"}
_CUN_INT = {"neg": "neg", "popcount": "ctpop", "cttz": "cttz", "ctlz": "ctlz"}
_CBIN_FLOAT = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}


def eval_constexpr_vec(e, consts: dict, params: Optional[dict] = None) -> CVal:
    params = params or {}

    def ev(e) -> CVal:
        if isinstance(e, CInt):
            return _poly(e.value)
        if isinstance(e, CFloat):
            return CVal(float(e.value), None, None, None)
        if isinstance(e, CConst):
            data, ty = consts[e.name]
            if isinstance(ty, FloatType):
                return CVal(data, None, ty.bits, None)
            return CVal(data, ty.width, None, None)
        if isinstance(e, CRef):
            return _ref_cval(params[e.name])
        if isinstance(e, CUn):
            a = ev(e.a)
            if a.is_float or isinstance(a.data, float):
                if e.op == "neg":
                    return CVal(-np.asarray(a.data) if a.is_float else -a.data,
                                a.width, a.prec, a.poison)
                raise UnsupportedConstruct(f"{e.op} on float constant")
            if a.width is None:
                # poly scalar: reuse the scalar evaluator's semantics
                try:
                    r = semantics.eval_constexpr(CUn(e.op, CInt(int(a.data))), {}, {})
                except semantics.ConstEvalError:
                    return CVal(0, None, None, np.ones(1, bool))
                return CVal(int(r), None, None, a.poison)
            w = a.width
            if e.op == "log2":
                lg, _ = _int_unop_vec("cttz", (), a.data, w)
                ispow = _is_pow2(np.asarray(a.data).astype(np.uint64))
                return CVal(lg, w, None, _por(a.poison, ~ispow))
            if e.op not in _CUN_INT:
                raise UnsupportedConstruct(f"constant operator {e.op}")
            data, poison = _int_unop_vec(_CUN_INT[e.op], (), a.data, w)
            return CVal(data, w, None, _por(a.poison, poison))
        if isinstance(e, CCast):
            a = ev(e.a)
            if a.is_float:
                raise UnsupportedConstruct("integer cast of float constant")
            w = e.width
            if not isinstance(w, int):
                raise UnsupportedConstruct(f"unresolved width variable {w}")
            if a.width is None:
                return CVal(udtype(w)(to_unsigned(int(a.data), w)), w, None, a.poison)
            av = np.asarray(a.data)
            if e.kind == "sext":
                return CVal(_sext(av, a.width, w), w, None, a.poison)
            return CVal(_wrap(av, w), w, None, a.poison)
        if isinstance(e, CBin):
            a, b = ev(e.a), ev(e.b)
            poison = _por(a.poison, b.poison)
            if a.is_float or b.is_float or isinstance(a.data, float) or isinstance(b.data, float):
                if e.op not in _CBIN_FLOAT:
                    raise UnsupportedConstruct(f"operator {e.op} on float constants")
                (fa, fb), prec = _as_floats(a, b)
                data, _ = _float_binop_vec(_CBIN_FLOAT[e.op], (), fa, fb)
                return CVal(data, None, prec, poison)
            if a.width is not None and b.width is not None and a.width != b.width:
                raise UnsupportedConstruct(
                    f"width mismatch i{a.width} vs i{b.width} in constant expression")
            w = a.width if a.width is not None else b.width
            if w is None:
                try:
                    r = semantics.eval_constexpr(
                        CBin(e.op, CInt(int(a.data)), CInt(int(b.data))), {}, {})
                except semantics.ConstEvalError:
                    return CVal(0, None, None, np.ones(1, bool))
                return CVal(int(r), None, None, poison)
            if e.op not in _CBIN_INT:
                raise UnsupportedConstruct(f"constant operator {e.op}")
            dt = udtype(w)
            data, out = _int_binop_vec(
                _CBIN_INT[e.op], (), np.asarray(_as_width(a, w), dtype=dt),
                np.asarray(_as_width(b, w), dtype=dt), w)
            return CVal(data, w, None, _por(poison, out))
        raise UnsupportedConstruct(f"constant expression {e!r}")

    # ev refers to itself through its closure; without the del, each call
    # leaves a reference cycle that keeps `consts` and `params` (chunk-sized
    # arrays) alive until the next garbage collection
    try:
        return ev(e)
    finally:
        del ev


def _interp_vec(v: CVal, signed: bool):
    if v.is_float:
        return np.asarray(v.data)
    if v.width is None:
        return int(v.data)
    data = np.asarray(v.data)
    if signed:
        return _signed(data, v.width).astype(np.int64, copy=False)
    return data.astype(np.uint64, copy=False)


def _cmp_vec(pred: str, a: CVal, b: CVal):
    # ult/ule/ugt/uge name both an integer and a float predicate; the
    # operands decide which one is meant
    if pred in _FCMP_PREDS and (pred not in _ICMP_PREDS
                                or a.is_float or b.is_float):
        (fa, fb), _ = _as_floats(a, b)
        return _fcmp_vec(pred, fa, fb)
    if pred in ("eq", "ne"):
        if (a.width is not None and b.width is not None and a.width == b.width):
            r = np.asarray(a.data) == np.asarray(b.data)
        else:
            r = mask_or(_num_cmp("eq", a, b, False), _num_cmp("eq", a, b, True))
        return r if pred == "eq" else ~np.asarray(r, dtype=bool)
    signed = pred[0] == "s"
    return _num_cmp(pred[1:], a, b, signed)


def _num_cmp(base: str, a: CVal, b: CVal, signed: bool):
    av, bv = _interp_vec(a, signed), _interp_vec(b, signed)
    # a python int outside [0, 2**64) against uint64 lanes is resolved
    # without promotion: it lies below (or above) every lane, so each lane
    # compares with it as 0 with -1 (or with 1)
    for x, y, y_right in ((av, bv, True), (bv, av, False)):
        if (isinstance(y, int) and not isinstance(x, int)
                and x.dtype == np.uint64 and not 0 <= y <= mask(64)):
            pair = (0, -1 if y < 0 else 1)
            const = _CMP[base](*(pair if y_right else pair[::-1]))
            return np.full(np.shape(x), const, dtype=bool)
    with np.errstate(all="ignore"):
        return _CMP[base](av, bv)


def eval_pred_vec(p, params: dict, consts: dict):
    """Boolean ndarray for predicate `p`; lanes with out-of-domain constant
    arithmetic or poison-bound value references are false."""
    if isinstance(p, (tuple, list)):
        if not p:
            return np.asarray(True)
        r = eval_pred_vec(p[0], params, consts)
        for c in p[1:]:
            r = mask_and(r, eval_pred_vec(c, params, consts))
        return r
    if isinstance(p, PTrue):
        return np.asarray(True)
    if isinstance(p, PNot):
        return ~np.asarray(eval_pred_vec(p.a, params, consts), dtype=bool)
    if isinstance(p, POr):
        return mask_or(eval_pred_vec(p.a, params, consts),
                       eval_pred_vec(p.b, params, consts))
    if isinstance(p, PAnd):
        return mask_and(eval_pred_vec(p.a, params, consts),
                        eval_pred_vec(p.b, params, consts))

    if isinstance(p, PCmp):
        a = eval_constexpr_vec(p.a, consts, params)
        b = eval_constexpr_vec(p.b, consts, params)
        r = _cmp_vec(p.pred, a, b)
        return _in_domain(r, a.poison, b.poison)
    if isinstance(p, PPow2):
        a = eval_constexpr_vec(p.e, consts, params)
        if a.is_float:
            raise UnsupportedConstruct("PowerOfTwo on float")
        if a.width is None:
            v = int(a.data)
            return _in_domain(v > 0 and v & (v - 1) == 0, a.poison)
        return _in_domain(_is_pow2(np.asarray(a.data).astype(np.uint64)), a.poison)
    if isinstance(p, PKnownBits):
        v = _ref_cval(params[p.ref])
        z = eval_constexpr_vec(p.zeros, consts, params)
        o = eval_constexpr_vec(p.ones, consts, params)
        vd = np.asarray(v.data).astype(np.uint64)
        zd = np.asarray(_as_width(z, v.width)).astype(np.uint64)
        od = np.asarray(_as_width(o, v.width)).astype(np.uint64)
        r = mask_and((vd & zd) == 0, (vd & od) == od)
        return _in_domain(r, v.poison, z.poison, o.poison)
    if isinstance(p, PRange):
        v = _ref_cval(params[p.ref])
        lo = eval_constexpr_vec(p.lo, consts, params)
        hi = eval_constexpr_vec(p.hi, consts, params)
        r = mask_and(_num_cmp("le", lo, v, p.signed),
                     _num_cmp("le", v, hi, p.signed))
        return _in_domain(r, v.poison, lo.poison, hi.poison)
    if isinstance(p, PLowBitsZero):
        v = _ref_cval(params[p.ref])
        k = eval_constexpr_vec(p.k, consts, params)
        kv = _interp_vec(k, False)
        if isinstance(kv, int):
            # an unbounded count: a negative one is out of domain
            if kv < 0:
                return np.asarray(False)
            kv = min(kv, v.width)
        kv = np.minimum(np.asarray(kv, dtype=np.uint64), np.uint64(v.width))
        m = np.where(kv >= 64, np.uint64(mask(64)),
                     (np.uint64(1) << kv) - np.uint64(1))
        r = (np.asarray(v.data).astype(np.uint64) & m) == 0
        return _in_domain(r, v.poison, k.poison)
    raise UnsupportedConstruct(f"predicate {p!r}")


def _in_domain(r, *poisons):
    """`r` with the lanes that are out of domain in any operand false."""
    r = np.asarray(r, dtype=bool)
    for poison in poisons:
        if poison is not None:
            r = mask_and(r, ~poison)
    return r


# ---------------------------------------------------------------------------
# Constant-space handling


def _mixes_widths(e, ty, types: dict) -> bool:
    """Whether `e` involves a width other than `ty`'s: a cast, or a
    constant of another type."""
    return any(isinstance(x, CCast)
               or (isinstance(x, CConst) and types.get(x.name) != ty)
               for x in iter_expr(e))


def split_const_defs(rule: Rule):
    """Partition symbolic constants into free ones and derived ones.

    Two kinds of const-only conjunct define a constant C: `C == expr` (either
    side) whose expression does not mention C and involves no other width
    (no cast, no constant of another type; `==` compares such operands
    mathematically, so C is left free instead), and, for an integer C, a pin
    pair `C <=u k` and `C >=u k`, which defines C := k.  A k that is no
    pattern of C's width admits no value at all; C is then derived as k
    wrapped to its width, which the pin rejects, so an unsatisfiable pin
    costs one point instead of C's whole range.  The first definition of
    each constant wins.
    Definitions whose expression mentions only available constants are
    derived, iteratively; when the remaining ones form a cycle, the first
    remaining constant in declaration order is freed and derivation goes on.
    Derived constants are computed instead of enumerated or sampled, which
    shrinks the search space; the defining conjuncts are still checked like
    any other, so the satisfying set does not change.
    """
    types = dict(rule.sym_consts)
    candidates: dict = {}  # name -> expr, first defining conjunct wins
    bounds: set = set()  # (pred, name, k) of the `C <=u k` / `C >=u k` seen
    for conj in rule.pre:
        if not isinstance(conj, PCmp) or pred_param_refs(conj):
            continue
        if (conj.pred in ("ule", "uge") and isinstance(conj.a, CConst)
                and isinstance(conj.b, CInt)):
            name, k = conj.a.name, conj.b.value
            bounds.add((conj.pred, name, k))
            partner = "uge" if conj.pred == "ule" else "ule"
            if ((partner, name, k) in bounds and name not in candidates
                    and isinstance(types.get(name), IntType)):
                candidates[name] = CInt(k)
            continue
        if conj.pred != "eq":
            continue
        for tgt, other in ((conj.a, conj.b), (conj.b, conj.a)):
            if (isinstance(tgt, CConst) and tgt.name in types
                    and tgt.name not in candidates
                    and tgt.name not in pred_const_names(other)
                    and not _mixes_widths(other, types[tgt.name], types)):
                candidates[tgt.name] = other
                break
    # consts with no candidate definition are enumerated; candidates whose
    # expression depends only on available consts become derived, iteratively
    available = set(types) - set(candidates)
    defs: list = []
    while candidates:
        progress = False
        for name, expr in list(candidates.items()):
            if pred_const_names(expr) <= available:
                defs.append((name, expr))
                available.add(name)
                del candidates[name]
                progress = True
        if not progress:
            # every remaining definition waits on another one: break the cycle
            first = next(n for n in types if n in candidates)
            del candidates[first]
            available.add(first)
    derived_names = {n for n, _ in defs}
    free = [(n, t) for n, t in rule.sym_consts if n not in derived_names]
    return free, defs


# ---------------------------------------------------------------------------
# Grids, special values and sampling


def storage_dtype(ty):
    """The unsigned dtype that holds a bit pattern of `ty`."""
    if isinstance(ty, FloatType):
        return _FUINT[ty.bits]
    return udtype(ty.width)


def unravel_chunk(types: list, start: int, end: int) -> list:
    """The bit patterns of `types` at flat indices [start, end) of their
    joint space, last type fastest, each in its storage dtype."""
    bits = [space_of(ty).bit_length() - 1 for ty in types]
    idx = np.arange(start, end, dtype=index_dtype(sum(bits)))
    return slice_digits(idx, bits, [storage_dtype(ty) for ty in types])


def index_dtype(bits: int):
    """The dtype of flat indices into a space of 2**bits points."""
    return np.uint32 if bits <= 32 else np.uint64


def slice_digits(idx: np.ndarray, bits: list, dtypes: list) -> list:
    """The mixed-radix digits of flat indices `idx` (of `index_dtype`), digit
    i of radix 2**bits[i], last digit fastest, digit i in dtypes[i].

    Every radix is a power of two, so each digit is a shift and a mask of
    the index.
    """
    total = sum(bits)
    shifted = np.empty_like(idx)
    out = []
    shift = total
    for b, dtype in zip(bits, dtypes):
        shift -= b
        digit = np.empty(len(idx), dtype=dtype)
        # the leading digit needs no mask and the trailing one no shift
        if shift + b == total:
            np.right_shift(idx, idx.dtype.type(shift), out=digit,
                           casting="unsafe")
        else:
            src = idx if shift == 0 else np.right_shift(
                idx, idx.dtype.type(shift), out=shifted)
            np.bitwise_and(src, idx.dtype.type((1 << b) - 1), out=digit,
                           casting="unsafe")
        out.append(digit)
    return out


def special_int_patterns(width: int) -> np.ndarray:
    m = mask(width)
    vals = {0, 1, m, 2 & m, 1 << (width - 1), m >> 1}
    for k in range(width):
        vals.add(1 << k)
        vals.add((1 << k) - 1)
    return np.array(sorted(vals), dtype=udtype(width))


def special_float_patterns(prec: int) -> np.ndarray:
    f = semantics.float_to_bits
    pats = {
        f(0.0, prec), f(-0.0, prec), f(1.0, prec), f(-1.0, prec),
        f(float("inf"), prec), f(float("-inf"), prec),
        semantics.CANONICAL_NAN[prec], 1,  # smallest subnormal
        f(0.5, prec),
    }
    # largest finite value
    exp_bits = {16: 5, 32: 8, 64: 11}[prec]
    frac_bits = prec - 1 - exp_bits
    pats.add(((1 << exp_bits) - 2) << frac_bits | mask(frac_bits))
    return np.array(sorted(pats), dtype=_FUINT[prec])


def sample_int_patterns(rng: np.random.Generator, width: int, n: int) -> np.ndarray:
    """Mixture: uniform bits, geometric bit-length, and special values.

    Each draw takes a branch: 0 keeps its uniform bits, 1 their low
    `blen` bits, 2 a special value.  The branches are applied as masks, in
    place, without a select: a nested `np.where` and its temporaries cost
    about as much as the five draws."""
    u64 = np.uint64
    out = rng.integers(0, 1 << 32, size=n, dtype=u64)
    hi = rng.integers(0, 1 << 32, size=n, dtype=u64)
    hi <<= u64(32)
    out |= hi
    out &= u64(mask(width))
    del hi
    keep = rng.integers(1, width + 1, size=n, dtype=u64)  # blen
    np.subtract(u64(64), keep, out=keep)
    np.right_shift(u64(mask(64)), keep, out=keep)
    specials = special_int_patterns(width).astype(u64)
    spec = specials[rng.integers(0, len(specials), size=n)]
    branch = rng.integers(0, 3, size=n)
    # all ones where the branch is 0, else none: (0 - 1) >> 63 is -1
    keep |= ((branch - 1) >> 63).view(u64)
    # all ones where the branch is 2, else none: -(2 >> 1) is -1
    np.right_shift(branch, 1, out=branch)
    np.negative(branch, out=branch)
    special = branch.view(u64)
    keep &= ~special
    out &= keep
    spec &= special
    out |= spec
    return out.astype(udtype(width), copy=False)


def sample_float_patterns(rng: np.random.Generator, prec: int, n: int) -> np.ndarray:
    lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    uniform = ((hi << np.uint64(32)) | lo) & np.uint64(mask(prec))
    specials = special_float_patterns(prec).astype(np.uint64)
    spec = specials[rng.integers(0, len(specials), size=n)]
    branch = rng.integers(0, 3, size=n)
    out = np.where(branch < 2, uniform, spec)
    return out.astype(_FUINT[prec])


def patterns_to_vval(patterns: np.ndarray, ty) -> VVal:
    data = np.asarray(patterns, dtype=storage_dtype(ty))
    if isinstance(ty, FloatType):
        data = data.view(_FLOAT[ty.bits])
    return VVal(data, None, ty)


def vval_pattern_at(v: VVal, index) -> int:
    data = np.asarray(v.data)
    x = data.reshape(-1)[index] if data.ndim else data[()]
    if isinstance(v.ty, FloatType):
        return int(np.asarray(x).view(_FUINT[v.ty.bits]))
    return int(x)
