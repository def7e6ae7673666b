"""Core IR: types, operands, instructions, functions, predicates and rules.

Everything here is an immutable value; the rest of the package builds on
these types.  A rewrite rule is the triple (pre, lhs, rhs) together with its
declared symbolic constants and width variables; a concrete instance is just
a rule with no symbols left.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

MAX_INT_WIDTH = 64
FLOAT_PRECISIONS = (16, 32, 64)


class PeepError(Exception):
    """Base class for errors raised by this package."""


class SubstituteError(PeepError):
    pass


class PreconditionUnsatisfied(SubstituteError):
    """Raised by substitute() when a binding falsifies a precondition."""


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class IntType:
    width: int

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class FloatType:
    bits: int  # 16, 32 or 64

    def __str__(self) -> str:
        return f"f{self.bits}"


@dataclass(frozen=True)
class VarWidthType:
    """Integer type whose width is a declared width variable."""

    var: str

    def __str__(self) -> str:
        return f"i{self.var}"


Type = Union[IntType, FloatType, VarWidthType]

I1 = IntType(1)


def is_int_like(ty: Type) -> bool:
    return isinstance(ty, (IntType, VarWidthType))


def mask(width: int) -> int:
    return (1 << width) - 1


def to_signed(pattern: int, width: int) -> int:
    pattern &= mask(width)
    if pattern >= 1 << (width - 1):
        return pattern - (1 << width)
    return pattern


def to_unsigned(value: int, width: int) -> int:
    return value & mask(width)


def literal_fits(value: int, width: int) -> bool:
    """True when `value` (as written, possibly negative) is encodable at `width`."""
    return -(1 << (width - 1)) <= value < (1 << width)


# ---------------------------------------------------------------------------
# Operands


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Local:
    index: int


@dataclass(frozen=True)
class Literal:
    """A constant operand.

    For concrete integer types `value` is the two's-complement bit pattern
    (0 <= value < 2^width).  For var-width types only the trivial literals
    are allowed and `value` is stored as written (0, 1 or -1).  For float
    types `value` is the IEEE-754 bit pattern.
    """

    value: int
    ty: Type


@dataclass(frozen=True)
class SymConst:
    name: str
    ty: Type


Operand = Union[Param, Local, Literal, SymConst]


# ---------------------------------------------------------------------------
# Instructions

ICMP_PREDS = ("eq", "ne", "ult", "ule", "slt", "sle", "ugt", "uge", "sgt", "sge")
FCMP_PREDS = (
    "oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno",
    "ueq", "une", "ult", "ule", "ugt", "uge",
)

INT_BINOPS = (
    "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
    "and", "or", "xor", "shl", "lshr", "ashr",
    "smin", "smax", "umin", "umax",
)
INT_UNOPS = ("neg", "not", "ctpop", "cttz", "ctlz")
CAST_OPS = ("zext", "sext", "trunc")
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
FLOAT_UNOPS = ("fneg",)

OPCODES = INT_BINOPS + INT_UNOPS + CAST_OPS + FLOAT_BINOPS + FLOAT_UNOPS + (
    "icmp", "fcmp", "select",
)

COMMUTATIVE_OPS = ("add", "mul", "and", "or", "xor", "umin", "umax",
                   "smin", "smax", "fadd", "fmul")

FLOAT_FLAGS = frozenset({"nnan", "ninf", "nsz"})

LEGAL_FLAGS = {
    "add": frozenset({"nsw", "nuw"}),
    "sub": frozenset({"nsw", "nuw"}),
    "mul": frozenset({"nsw", "nuw"}),
    "shl": frozenset({"nsw", "nuw"}),
    "neg": frozenset({"nsw", "nuw"}),
    "udiv": frozenset({"exact"}),
    "sdiv": frozenset({"exact"}),
    "lshr": frozenset({"exact"}),
    "ashr": frozenset({"exact"}),
    "zext": frozenset({"nneg"}),
    "fadd": FLOAT_FLAGS,
    "fsub": FLOAT_FLAGS,
    "fmul": FLOAT_FLAGS,
    "fdiv": FLOAT_FLAGS,
    "fneg": FLOAT_FLAGS,
    "fcmp": FLOAT_FLAGS,
}


def opcode_arity(op: str) -> int:
    if op == "select":
        return 3
    if op in INT_BINOPS or op in FLOAT_BINOPS or op in ("icmp", "fcmp"):
        return 2
    return 1


@dataclass(frozen=True)
class Instr:
    op: str
    operands: tuple
    ty: Type  # result type
    flags: frozenset = frozenset()
    pred: Optional[str] = None  # icmp/fcmp predicate


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple  # of (name, Type)
    body: tuple  # of Instr
    ret: Operand

    def param_type(self, name: str) -> Optional[Type]:
        for pname, ty in self.params:
            if pname == name:
                return ty
        return None

    def operand_type(self, opnd: Operand) -> Optional[Type]:
        if isinstance(opnd, Param):
            return self.param_type(opnd.name)
        if isinstance(opnd, Local):
            if 0 <= opnd.index < len(self.body):
                return self.body[opnd.index].ty
            return None
        if isinstance(opnd, (Literal, SymConst)):
            return opnd.ty
        return None


# ---------------------------------------------------------------------------
# Constant expressions (the precondition term language)


@dataclass(frozen=True)
class CConst:
    name: str


@dataclass(frozen=True)
class CRef:
    """Reference to an lhs/rhs parameter, usable only inside predicates."""

    name: str


@dataclass(frozen=True)
class CInt:
    value: int


@dataclass(frozen=True)
class CFloat:
    value: float


@dataclass(frozen=True)
class CWidth:
    name: str


CBIN_OPS = ("+", "-", "*", "/", "&", "|", "^", "<<", ">>u", ">>s")
CUN_OPS = ("neg", "popcount", "cttz", "ctlz", "log2")


@dataclass(frozen=True)
class CBin:
    op: str
    a: "ConstExpr"
    b: "ConstExpr"


@dataclass(frozen=True)
class CUn:
    op: str
    a: "ConstExpr"


@dataclass(frozen=True)
class CCast:
    kind: str  # zext | sext | trunc
    a: "ConstExpr"
    width: Union[int, str]  # concrete width or width-var name


ConstExpr = Union[CConst, CRef, CInt, CFloat, CWidth, CBin, CUn, CCast]


# ---------------------------------------------------------------------------
# Predicates


@dataclass(frozen=True)
class PTrue:
    pass


# eq/ne and the signed/unsigned orders for integers; o*/u* preds for floats.
@dataclass(frozen=True)
class PCmp:
    pred: str
    a: ConstExpr
    b: ConstExpr


@dataclass(frozen=True)
class PPow2:
    e: ConstExpr


@dataclass(frozen=True)
class PKnownBits:
    ref: str
    zeros: ConstExpr
    ones: ConstExpr


@dataclass(frozen=True)
class PRange:
    ref: str
    lo: ConstExpr
    hi: ConstExpr
    signed: bool


@dataclass(frozen=True)
class PLowBitsZero:
    ref: str
    k: ConstExpr


@dataclass(frozen=True)
class PNot:
    a: "Predicate"


@dataclass(frozen=True)
class POr:
    a: "Predicate"
    b: "Predicate"


@dataclass(frozen=True)
class PAnd:
    a: "Predicate"
    b: "Predicate"


Predicate = Union[PTrue, PCmp, PPow2, PKnownBits, PRange, PLowBitsZero,
                  PNot, POr, PAnd]

PCMP_INT_PREDS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")


# ---------------------------------------------------------------------------
# Traversal
#
# Every rewrite and scan of the IR goes through these; only the evaluators,
# the printer and `validate` walk it by hand.  Rebuilders return new values;
# with identity maps they return an equal value.


def _identity(x):
    return x


def map_function(fn: Function, operand=_identity, ty=_identity) -> Function:
    """Rebuild `fn` with every operand (body and `ret`) mapped by `operand`
    and every declared type mapped by `ty`.

    Declared types are those of the parameters, of the instruction results
    and of symbolic-constant operands (applied after `operand`).  Literal
    operands are left to `operand`: re-typing a literal re-encodes its value.
    Per instruction, `ty` sees the result type before the operands.
    """
    def opnd(o: Operand) -> Operand:
        o = operand(o)
        return SymConst(o.name, ty(o.ty)) if isinstance(o, SymConst) else o

    params = tuple((n, ty(t)) for n, t in fn.params)
    body = []
    for i in fn.body:
        rty = ty(i.ty)
        body.append(Instr(i.op, tuple(opnd(o) for o in i.operands), rty,
                          i.flags, i.pred))
    return Function(fn.name, params, tuple(body), opnd(fn.ret))


def map_rule(rule: "Rule", operand=_identity, ty=_identity) -> "Rule":
    """`map_function` over lhs then rhs, plus `ty` over the declared types
    of the symbolic constants; the precondition and width variables are
    kept."""
    lhs = map_function(rule.lhs, operand, ty)
    rhs = map_function(rule.rhs, operand, ty)
    sym_consts = tuple((n, ty(t)) for n, t in rule.sym_consts)
    return Rule(rule.name, sym_consts, rule.width_vars, rule.pre, lhs, rhs)


def map_expr(e: ConstExpr, f) -> ConstExpr:
    """Rebuild constant expression `e` bottom-up: `f` maps every node after
    its children have been rebuilt."""
    if isinstance(e, CBin):
        e = CBin(e.op, map_expr(e.a, f), map_expr(e.b, f))
    elif isinstance(e, CUn):
        e = CUn(e.op, map_expr(e.a, f))
    elif isinstance(e, CCast):
        e = CCast(e.kind, map_expr(e.a, f), e.width)
    return f(e)


def map_pred(p: Predicate, f=_identity, ref=_identity) -> Predicate:
    """Rebuild predicate `p`, under PNot/POr/PAnd too: every term with
    `map_expr(term, f)`, and every value-reference name (the `%x` of an
    atom and every CRef term) with `ref`."""
    def node(e: ConstExpr) -> ConstExpr:
        return f(CRef(ref(e.name)) if isinstance(e, CRef) else e)

    def t(e: ConstExpr) -> ConstExpr:
        return map_expr(e, node)

    if isinstance(p, PCmp):
        return PCmp(p.pred, t(p.a), t(p.b))
    if isinstance(p, PPow2):
        return PPow2(t(p.e))
    if isinstance(p, PKnownBits):
        return PKnownBits(ref(p.ref), t(p.zeros), t(p.ones))
    if isinstance(p, PRange):
        return PRange(ref(p.ref), t(p.lo), t(p.hi), p.signed)
    if isinstance(p, PLowBitsZero):
        return PLowBitsZero(ref(p.ref), t(p.k))
    if isinstance(p, PNot):
        return PNot(map_pred(p.a, f, ref))
    if isinstance(p, (POr, PAnd)):
        return type(p)(map_pred(p.a, f, ref), map_pred(p.b, f, ref))
    return p


def _atoms(p: Predicate) -> tuple:
    if isinstance(p, PNot):
        return _atoms(p.a)
    if isinstance(p, (POr, PAnd)):
        return _atoms(p.a) + _atoms(p.b)
    return (p,)


def pred_exprs(p: Predicate) -> tuple:
    """The terms of every atom of `p`, under PNot/POr/PAnd too."""
    out: tuple = ()
    for a in _atoms(p):
        if isinstance(a, PCmp):
            out += (a.a, a.b)
        elif isinstance(a, PPow2):
            out += (a.e,)
        elif isinstance(a, PKnownBits):
            out += (a.zeros, a.ones)
        elif isinstance(a, PRange):
            out += (a.lo, a.hi)
        elif isinstance(a, PLowBitsZero):
            out += (a.k,)
    return out


def iter_expr(x):
    """Every node of constant expression `x`, parents first; for a predicate,
    every node of every one of its terms."""
    stack = [x] if isinstance(x, ConstExpr) else list(reversed(pred_exprs(x)))
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, CBin):
            stack += (e.b, e.a)
        elif isinstance(e, (CUn, CCast)):
            stack.append(e.a)


def pred_const_names(p) -> set:
    """Symbolic constants named in predicate or constant expression `p`."""
    return {e.name for e in iter_expr(p) if isinstance(e, CConst)}


def pred_param_refs(p: Predicate) -> set:
    """Parameters `p` refers to: atom references and CRef terms, under
    PNot/POr/PAnd too."""
    refs = {a.ref for a in _atoms(p)
            if isinstance(a, (PKnownBits, PRange, PLowBitsZero))}
    return refs | {e.name for e in iter_expr(p) if isinstance(e, CRef)}


# ---------------------------------------------------------------------------
# Rules


@dataclass(frozen=True)
class Rule:
    name: str
    sym_consts: tuple  # of (name, Type)
    width_vars: tuple  # of str
    pre: tuple  # conjunct list; empty means True
    lhs: Function
    rhs: Function

    def sym_const_type(self, name: str) -> Optional[Type]:
        for cname, ty in self.sym_consts:
            if cname == name:
                return ty
        return None


@dataclass(frozen=True)
class Diag:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# ---------------------------------------------------------------------------
# Validation


def _check_type(ty: Type, path: str, width_vars: set, diags: list) -> None:
    if isinstance(ty, IntType):
        if not 1 <= ty.width <= MAX_INT_WIDTH:
            diags.append(Diag(path, f"integer width {ty.width} out of range"))
    elif isinstance(ty, FloatType):
        if ty.bits not in FLOAT_PRECISIONS:
            diags.append(Diag(path, f"unknown float precision f{ty.bits}"))
    elif isinstance(ty, VarWidthType):
        if ty.var not in width_vars:
            diags.append(Diag(path, f"undeclared width variable {ty.var}"))


def _check_operand(fn: Function, opnd: Operand, idx: int, path: str,
                   rule: Optional[Rule], diags: list) -> None:
    if isinstance(opnd, Param):
        if fn.param_type(opnd.name) is None:
            diags.append(Diag(path, f"unknown parameter %{opnd.name}"))
    elif isinstance(opnd, Local):
        if not 0 <= opnd.index < idx:
            diags.append(Diag(path, f"local %{opnd.index} does not dominate use"))
    elif isinstance(opnd, Literal):
        if isinstance(opnd.ty, IntType):
            if not 0 <= opnd.value < (1 << opnd.ty.width):
                diags.append(Diag(path, f"literal {opnd.value} does not fit {opnd.ty}"))
        elif isinstance(opnd.ty, VarWidthType):
            if opnd.value not in (0, 1, -1):
                diags.append(Diag(path, "var-width literal must be 0, 1 or -1"))
    elif isinstance(opnd, SymConst):
        if rule is None or rule.sym_const_type(opnd.name) is None:
            diags.append(Diag(path, f"undeclared symbolic constant {opnd.name}"))
        elif rule.sym_const_type(opnd.name) != opnd.ty:
            diags.append(Diag(path, f"symbolic constant {opnd.name} type mismatch"))


def _check_instr(fn: Function, instr: Instr, idx: int, path: str,
                 width_vars: set, rule: Optional[Rule], diags: list) -> None:
    op = instr.op
    if op not in OPCODES:
        diags.append(Diag(path, f"unknown opcode {op}"))
        return
    if len(instr.operands) != opcode_arity(op):
        diags.append(Diag(path, f"arity: {op} takes {opcode_arity(op)} operands"))
        return
    _check_type(instr.ty, path, width_vars, diags)
    for i, opnd in enumerate(instr.operands):
        _check_operand(fn, opnd, idx, f"{path}.operand[{i}]", rule, diags)
    for flag in instr.flags:
        if flag not in LEGAL_FLAGS.get(op, frozenset()):
            diags.append(Diag(path, f"flag {flag} not legal on {op}"))
    if op == "icmp":
        if instr.pred not in ICMP_PREDS:
            diags.append(Diag(path, f"bad icmp predicate {instr.pred}"))
        if instr.ty != I1:
            diags.append(Diag(path, "icmp result must be i1"))
    elif op == "fcmp":
        if instr.pred not in FCMP_PREDS:
            diags.append(Diag(path, f"bad fcmp predicate {instr.pred}"))
        if instr.ty != I1:
            diags.append(Diag(path, "fcmp result must be i1"))
    elif instr.pred is not None:
        diags.append(Diag(path, f"predicate on non-comparison opcode {op}"))

    otys = [fn.operand_type(o) for o in instr.operands]
    if any(t is None for t in otys):
        return  # already diagnosed above
    if op in INT_BINOPS or op in INT_UNOPS:
        for t in otys:
            if not is_int_like(t):
                diags.append(Diag(path, f"{op} requires integer operands"))
                return
        if any(t != otys[0] for t in otys) or instr.ty != otys[0]:
            diags.append(Diag(path, f"{op} operand/result types must match"))
    elif op in FLOAT_BINOPS or op in FLOAT_UNOPS:
        for t in otys:
            if not isinstance(t, FloatType):
                diags.append(Diag(path, f"{op} requires float operands"))
                return
        if any(t != otys[0] for t in otys) or instr.ty != otys[0]:
            diags.append(Diag(path, f"{op} operand/result types must match"))
    elif op == "icmp":
        if not is_int_like(otys[0]) or otys[0] != otys[1]:
            diags.append(Diag(path, "icmp operands must be same integer type"))
    elif op == "fcmp":
        if not isinstance(otys[0], FloatType) or otys[0] != otys[1]:
            diags.append(Diag(path, "fcmp operands must be same float type"))
    elif op == "select":
        if otys[0] != I1:
            diags.append(Diag(path, "select condition must be i1"))
        if otys[1] != otys[2] or instr.ty != otys[1]:
            diags.append(Diag(path, "select arms/result types must match"))
    elif op in CAST_OPS:
        src, dst = otys[0], instr.ty
        if not is_int_like(src) or not is_int_like(dst):
            diags.append(Diag(path, f"{op} requires integer types"))
        elif isinstance(src, IntType) and isinstance(dst, IntType):
            if op in ("zext", "sext") and dst.width <= src.width:
                diags.append(Diag(path, f"{op} must widen"))
            if op == "trunc" and dst.width >= src.width:
                diags.append(Diag(path, "trunc must narrow"))


def _check_function(fn: Function, path: str, width_vars: set,
                    rule: Optional[Rule], diags: list) -> None:
    seen = set()
    for pname, ty in fn.params:
        if pname in seen:
            diags.append(Diag(f"{path}.params", f"duplicate parameter %{pname}"))
        seen.add(pname)
        _check_type(ty, f"{path}.params.{pname}", width_vars, diags)
    for i, instr in enumerate(fn.body):
        _check_instr(fn, instr, i, f"{path}.body[{i}]", width_vars, rule, diags)
    _check_operand(fn, fn.ret, len(fn.body), f"{path}.ret", rule, diags)


def _check_constexpr(e: ConstExpr, path: str, rule: Rule, params: dict,
                     diags: list) -> None:
    if isinstance(e, CConst):
        if rule.sym_const_type(e.name) is None:
            diags.append(Diag(path, f"undeclared symbolic constant {e.name}"))
    elif isinstance(e, CRef):
        if e.name not in params:
            diags.append(Diag(path, f"unknown value reference {e.name}"))
    elif isinstance(e, CWidth):
        if e.name not in rule.width_vars:
            diags.append(Diag(path, f"undeclared width variable {e.name}"))
    elif isinstance(e, CBin):
        if e.op not in CBIN_OPS:
            diags.append(Diag(path, f"bad operator {e.op}"))
        _check_constexpr(e.a, path, rule, params, diags)
        _check_constexpr(e.b, path, rule, params, diags)
    elif isinstance(e, CUn):
        if e.op not in CUN_OPS:
            diags.append(Diag(path, f"bad operator {e.op}"))
        _check_constexpr(e.a, path, rule, params, diags)
    elif isinstance(e, CCast):
        if e.kind not in CAST_OPS:
            diags.append(Diag(path, f"bad cast {e.kind}"))
        if isinstance(e.width, str) and e.width not in rule.width_vars:
            diags.append(Diag(path, f"undeclared width variable {e.width}"))
        _check_constexpr(e.a, path, rule, params, diags)


def _check_predicate(p: Predicate, path: str, rule: Rule, params: dict,
                     diags: list) -> None:
    if isinstance(p, PTrue):
        return
    if isinstance(p, (PKnownBits, PRange, PLowBitsZero)):
        if p.ref not in params:
            diags.append(Diag(path, f"unknown value reference {p.ref}"))
        elif isinstance(params[p.ref], FloatType):
            diags.append(Diag(path, f"bit predicate on %{p.ref} of "
                                    f"non-integer type {params[p.ref]}"))
    if (isinstance(p, PLowBitsZero) and isinstance(p.k, CInt)
            and p.k.value < 0):
        diags.append(Diag(path, f"negative LowBitsZero count {p.k.value}"))
    if isinstance(p, PCmp) and p.pred not in PCMP_INT_PREDS + FCMP_PREDS:
        diags.append(Diag(path, f"bad comparison predicate {p.pred}"))
    if isinstance(p, PNot):
        _check_predicate(p.a, path, rule, params, diags)
        return
    if isinstance(p, (POr, PAnd)):
        _check_predicate(p.a, path, rule, params, diags)
        _check_predicate(p.b, path, rule, params, diags)
        return
    for e in pred_exprs(p):
        _check_constexpr(e, path, rule, params, diags)


def validate(rule: Rule) -> list:
    """Structural validation; returns one Diag per violated invariant."""
    diags: list = []
    width_vars = set(rule.width_vars)
    seen = set()
    for name, ty in rule.sym_consts:
        if name in seen:
            diags.append(Diag("sym_consts", f"duplicate symbolic constant {name}"))
        seen.add(name)
        _check_type(ty, f"sym_consts.{name}", width_vars, diags)
    if len(set(rule.width_vars)) != len(rule.width_vars):
        diags.append(Diag("width_vars", "duplicate width variable"))

    _check_function(rule.lhs, "lhs", width_vars, rule, diags)
    _check_function(rule.rhs, "rhs", width_vars, rule, diags)

    if rule.lhs.params != rule.rhs.params:
        diags.append(Diag("rhs.params", "param list mismatch with lhs"))
    lret = rule.lhs.operand_type(rule.lhs.ret)
    rret = rule.rhs.operand_type(rule.rhs.ret)
    if lret is not None and rret is not None and lret != rret:
        diags.append(Diag("rhs.ret", "return type mismatch with lhs"))

    params = dict(rule.lhs.params)
    for i, conj in enumerate(rule.pre):
        _check_predicate(conj, f"pre[{i}]", rule, params, diags)
    return diags


# ---------------------------------------------------------------------------
# Width resolution and substitution


def _bound_width(var: str, widths: dict) -> int:
    if var not in widths:
        raise SubstituteError(f"unbound width variable {var}")
    return widths[var]


def resolve_type(ty: Type, widths: dict) -> Type:
    if isinstance(ty, VarWidthType):
        return IntType(_bound_width(ty.var, widths))
    return ty


def resolve_predicate(p: Predicate, widths: dict) -> Predicate:
    """`p` with every width variable replaced by its width from `widths`."""
    def node(e: ConstExpr) -> ConstExpr:
        if isinstance(e, CWidth):
            return CInt(_bound_width(e.name, widths))
        if isinstance(e, CCast) and isinstance(e.width, str):
            return CCast(e.kind, e.a, _bound_width(e.width, widths))
        return e

    return map_pred(p, node)


def resolve_widths(rule: Rule, widths: dict) -> Rule:
    """Instantiate all width variables, leaving symbolic constants in place."""
    for w in rule.width_vars:
        _bound_width(w, widths)

    def operand(o: Operand) -> Operand:
        if isinstance(o, Literal) and isinstance(o.ty, VarWidthType):
            ty = resolve_type(o.ty, widths)
            return Literal(to_unsigned(o.value, ty.width), ty)
        return o

    resolved = map_rule(rule, operand, lambda ty: resolve_type(ty, widths))
    pre = tuple(resolve_predicate(c, widths) for c in rule.pre)
    return replace(resolved, width_vars=(), pre=pre)


def bind_consts(rule: Rule, consts: dict) -> Rule:
    """`rule` with every SymConst operand replaced by its literal; `consts`
    maps constant names to (bit pattern, Type).  The declarations and the
    precondition are kept."""
    return map_rule(rule, lambda o: (Literal(*consts[o.name])
                                     if isinstance(o, SymConst) else o))


def bind_pred_consts(p: Predicate, consts: dict) -> Predicate:
    """`p` with every constant bound in `consts` (name -> (bit pattern,
    Type)) replaced by its value: signed for integers, a CFloat for floats."""
    def node(e: ConstExpr) -> ConstExpr:
        if not (isinstance(e, CConst) and e.name in consts):
            return e
        value, ty = consts[e.name]
        if isinstance(ty, FloatType):
            from . import semantics
            return CFloat(semantics.bits_to_float(value, ty.bits))
        return CInt(to_signed(value, ty.width) if isinstance(ty, IntType) else value)

    return map_pred(p, node)


def substitute(rule: Rule, bindings: dict, widths: Optional[dict] = None) -> Rule:
    """Instantiate every symbolic constant and width variable.

    `bindings` maps constant names to bit patterns; `widths` maps width
    variables to concrete widths.  Raises PreconditionUnsatisfied when a
    fully-bound precondition conjunct evaluates to false.  Conjuncts that
    reference lhs parameters cannot be discharged here and are kept on the
    resulting rule.
    """
    from . import semantics  # local import to avoid a cycle

    widths = widths or {}
    resolved = resolve_widths(rule, widths)
    consts: dict = {}
    for name, ty in resolved.sym_consts:
        if name not in bindings:
            raise SubstituteError(f"unbound symbolic constant {name}")
        value = bindings[name]
        if isinstance(ty, IntType):
            if not 0 <= value < (1 << ty.width):
                if literal_fits(value, ty.width):
                    value = to_unsigned(value, ty.width)
                else:
                    raise SubstituteError(
                        f"binding {value} for {name} does not fit {ty}")
        elif isinstance(ty, FloatType):
            if not 0 <= value < (1 << ty.bits):
                raise SubstituteError(
                    f"binding {value} for {name} does not fit {ty}")
        consts[name] = (value, ty)

    residual = []
    for conj in resolved.pre:
        if pred_param_refs(conj):
            residual.append(bind_pred_consts(conj, consts))
            continue
        if not semantics.eval_predicate((conj,), {}, consts, {}):
            raise PreconditionUnsatisfied(f"precondition unsatisfied: {conj!r}")
    return replace(bind_consts(resolved, consts), sym_consts=(),
                   pre=tuple(residual))


def retype_float_literal(lit: Literal, prec: int) -> Optional[Literal]:
    """Float literal `lit` re-encoded at f`prec`; None when its value is not
    exactly representable there."""
    from . import semantics

    f = semantics.bits_to_float(lit.value, lit.ty.bits)
    pat = semantics.float_to_bits(f, prec)
    back = semantics.bits_to_float(pat, prec)
    if back == f or (back != back and f != f):
        return Literal(pat, FloatType(prec))
    return None


# ---------------------------------------------------------------------------
# Misc helpers shared across modules


def rule_types(rule: Rule):
    """Every type in the lhs and rhs (parameters, results, operands) and in
    the constant declarations, with repeats."""
    for fn in (rule.lhs, rule.rhs):
        for _n, ty in fn.params:
            yield ty
        for instr in fn.body:
            yield instr.ty
            for o in instr.operands:
                t = fn.operand_type(o)
                if t is not None:
                    yield t
    for _n, ty in rule.sym_consts:
        yield ty


def params_used(fn: Function) -> set:
    """Names of the parameters `fn` uses as operands."""
    operands = [o for i in fn.body for o in i.operands] + [fn.ret]
    return {o.name for o in operands if isinstance(o, Param)}


def function_locals_used(fn: Function) -> set:
    """Indices of instructions transitively used by the return value."""
    used: set = set()
    work = [fn.ret]
    while work:
        opnd = work.pop()
        if isinstance(opnd, Local) and opnd.index not in used:
            used.add(opnd.index)
            work.extend(fn.body[opnd.index].operands)
    return used


def dce_function(fn: Function) -> Function:
    """`fn` without the instructions its return value does not use."""
    keep = sorted(function_locals_used(fn))
    remap = {old: new for new, old in enumerate(keep)}
    live = Function(fn.name, fn.params, tuple(fn.body[i] for i in keep), fn.ret)
    return map_function(live, lambda o: (Local(remap[o.index])
                                         if isinstance(o, Local) else o))


def replace_instr(fn: Function, index: int, instr: Instr) -> Function:
    body = fn.body[:index] + (instr,) + fn.body[index + 1:]
    return Function(fn.name, fn.params, body, fn.ret)


def _expr_key(fn: Function, opnd) -> tuple:
    """Structural key of the expression tree rooted at `opnd`."""
    if isinstance(opnd, Param):
        return ("param", opnd.name)
    if isinstance(opnd, Literal):
        return ("lit", opnd.value, str(opnd.ty))
    if isinstance(opnd, Local):
        i = fn.body[opnd.index]
        return ("instr", i.op, i.pred, tuple(sorted(i.flags)), str(i.ty),
                tuple(_expr_key(fn, o) for o in i.operands))
    return ("other", repr(opnd))


def _replace_local(fn: Function, index: Optional[int], fresh: str,
                   ty: Type) -> Function:
    withparam = Function(fn.name, fn.params + ((fresh, ty),), fn.body, fn.ret)
    return map_function(withparam, lambda o: (
        Param(fresh) if isinstance(o, Local) and o.index == index else o))


def abstract_local(lhs: Function, rhs: Function, index: int,
                   fresh: str) -> tuple:
    """Replace lhs local `index` by a new parameter `fresh`, and with it the
    first rhs local computing the structurally identical expression, if any.
    Both functions gain the parameter; returns (lhs, rhs)."""
    ty = lhs.body[index].ty
    key = _expr_key(lhs, Local(index))
    mirror = next((j for j in range(len(rhs.body))
                   if _expr_key(rhs, Local(j)) == key), None)
    return (_replace_local(lhs, index, fresh, ty),
            _replace_local(rhs, mirror, fresh, ty))


def guards_partial_op(conj: Predicate, conjuncts) -> bool:
    """Is `conj` an explicit PowerOfTwo(C) guard that another comparison in
    `conjuncts` needs because it applies log2 to C?

    log2 is partial; keeping its guard keeps the domain condition visible
    in the final rule.
    """
    if not (isinstance(conj, PPow2) and isinstance(conj.e, CConst)):
        return False
    log2 = CUn("log2", conj.e)
    return any(other is not conj and isinstance(other, PCmp)
               and any(e == log2 for e in iter_expr(other))
               for other in conjuncts)
