"""Textual rule format: tokenizer, recursive-descent parser and printer.

A rule file looks like:

    rule "mul_to_shl" {
      const C1: i8;
      const C2: i8;
      pre: PowerOfTwo(C1) && C2 == log2(C1);
      lhs fn(x: i8) -> i8 {
        %0 = mul i8 %x, C1;
        ret %0
      }
      rhs fn(x: i8) -> i8 {
        %0 = shl i8 %x, C2;
        ret %0
      }
    }

Casts are written `%1 = zext i8 %0 to i16`; comparison instructions carry
their predicate after a dot (`icmp.ult`), as do flags (`add.nsw.nuw`).
Float literals print as hex bit patterns so round-trips are exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .ir import (
    CAST_OPS, CBIN_OPS, FCMP_PREDS, ICMP_PREDS, INT_BINOPS, OPCODES,
    CBin, CCast, CConst, CFloat, CInt, CRef, CUn, CWidth, FloatType,
    Function, Instr, IntType, Literal, Local, Param, PeepError, PAnd, PCmp,
    PKnownBits, PLowBitsZero, PNot, POr, PPow2, PRange, PTrue, Rule,
    SymConst, VarWidthType, I1, literal_fits, opcode_arity, to_signed,
    to_unsigned,
)
from . import semantics


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ParseError(PeepError):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = (
    "&&", "||", "<<", ">>u", ">>s", "==", "!=",
    "<=u", "<=s", ">=u", ">=s", "<u", "<s", ">u", ">s",
    "->", "{", "}", "(", ")", ":", ";", ",", "=", "+", "-", "*", "/",
    "&", "|", "^", "!",
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<pct>%[A-Za-z0-9_]+)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|inf|nan)
  | (?P<hex>0[xX][0-9a-fA-F]+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>""" + "|".join(re.escape(p) for p in _PUNCT) + r""")
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # string | pct | float | int | ident | punct | eof
    text: str
    span: SourceSpan


def tokenize(src: str) -> list:
    tokens = []
    pos = 0
    line, linestart = 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             SourceSpan(line, pos - linestart + 1))
        span = SourceSpan(line, pos - linestart + 1)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            if kind == "hex":
                kind = "int"
            tokens.append(Token(kind, text, span))
        line += text.count("\n")
        if "\n" in text:
            linestart = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(line, pos - linestart + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_CMP_TOKENS = {
    "==": "eq", "!=": "ne",
    "<u": "ult", "<=u": "ule", ">u": "ugt", ">=u": "uge",
    "<s": "slt", "<=s": "sle", ">s": "sgt", ">=s": "sge",
}

_CONST_FUNCS = ("popcount", "cttz", "ctlz", "log2")

# binary constant operators by binding strength, as in C; the parser and the
# printer both read it
_PREC = {"|": 1, "^": 2, "&": 3, "<<": 4, ">>u": 4, ">>s": 4,
         "+": 5, "-": 5, "*": 6, "/": 6}


class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.i = 0
        self.consts: dict = {}      # name -> Type
        self.width_vars: list = []
        self.params: dict = {}      # name -> Type, current function

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {t.text!r}", t.span)
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    # -- grammar

    def parse_rule(self) -> Rule:
        self.expect("ident", "rule")
        name_tok = self.expect("string")
        name = name_tok.text[1:-1]
        self.expect("punct", "{")
        self.consts = {}
        self.width_vars = []
        sym_consts = []
        while True:
            if self.at_keyword("const"):
                self.next()
                cname = self.expect("ident").text
                self.expect("punct", ":")
                ty = self.parse_type()
                self.expect("punct", ";")
                if cname in self.consts:
                    raise ParseError(f"duplicate constant {cname}", name_tok.span)
                self.consts[cname] = ty
                sym_consts.append((cname, ty))
            elif self.at_keyword("widthvar"):
                self.next()
                wname = self.expect("ident").text
                self.expect("punct", ";")
                self.width_vars.append(wname)
            else:
                break
        pre: tuple = ()
        if self.at_keyword("pre"):
            self.next()
            self.expect("punct", ":")
            pre = self.parse_conjuncts()
            self.expect("punct", ";")
        self.expect("ident", "lhs")
        lhs = self.parse_function("lhs")
        self.expect("ident", "rhs")
        rhs = self.parse_function("rhs")
        self.expect("punct", "}")
        return Rule(name, tuple(sym_consts), tuple(self.width_vars), pre, lhs, rhs)

    def parse_type(self):
        t = self.expect("ident")
        text = t.text
        if re.fullmatch(r"i\d+", text):
            return IntType(int(text[1:]))
        if text in ("f16", "f32", "f64"):
            return FloatType(int(text[1:]))
        if text.startswith("i") and len(text) > 1:
            # width-var declarations may follow const declarations; undeclared
            # variables are caught by validate()
            return VarWidthType(text[1:])
        raise ParseError(f"expected a type, got {text!r}", t.span)

    def parse_function(self, name: str) -> Function:
        self.expect("ident", "fn")
        self.expect("punct", "(")
        params = []
        self.params = {}
        if not self.accept("punct", ")"):
            while True:
                pname = self.expect("ident").text
                self.expect("punct", ":")
                ty = self.parse_type()
                params.append((pname, ty))
                self.params[pname] = ty
                if self.accept("punct", ")"):
                    break
                self.expect("punct", ",")
        self.expect("punct", "->")
        declared_ret = self.parse_type()
        self.expect("punct", "{")
        body = []
        local_types: list = []
        while not self.at_keyword("ret"):
            body.append(self.parse_instr(len(body), local_types))
            self.accept("punct", ";")
        self.expect("ident", "ret")
        ret = self.parse_operand(declared_ret, local_types)
        self.accept("punct", ";")
        self.expect("punct", "}")
        return Function(name, tuple(params), tuple(body), ret)

    def parse_instr(self, index: int, local_types: list) -> Instr:
        lhs_tok = self.expect("pct")
        if not lhs_tok.text[1:].isdigit() or int(lhs_tok.text[1:]) != index:
            raise ParseError(f"expected %{index} on the left-hand side", lhs_tok.span)
        self.expect("punct", "=")
        op_tok = self.expect("ident")
        parts = op_tok.text.split(".")
        op = parts[0]
        if op not in OPCODES:
            raise ParseError(f"unknown opcode {op}", op_tok.span)
        pred = None
        rest = parts[1:]
        if op in ("icmp", "fcmp"):
            if not rest:
                raise ParseError(f"{op} needs a predicate, e.g. {op}.eq", op_tok.span)
            pred = rest[0]
            rest = rest[1:]
            preds = ICMP_PREDS if op == "icmp" else FCMP_PREDS
            if pred not in preds:
                raise ParseError(f"bad {op} predicate {pred}", op_tok.span)
        flags = frozenset(rest)
        ty = self.parse_type()

        if op in CAST_OPS:
            src = self.parse_operand(ty, local_types)
            self.expect("ident", "to")
            dst = self.parse_type()
            local_types.append(dst)
            return Instr(op, (src,), dst, flags, None)

        operands = []
        arity = opcode_arity(op)
        for k in range(arity):
            if k:
                self.expect("punct", ",")
            opnd_ty = I1 if (op == "select" and k == 0) else ty
            operands.append(self.parse_operand(opnd_ty, local_types))
        result_ty = I1 if op in ("icmp", "fcmp") else ty
        local_types.append(result_ty)
        return Instr(op, tuple(operands), result_ty, flags, pred)

    def parse_operand(self, ty, local_types: list):
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.next()
            n = self.peek()
            if n.kind == "int":
                self.next()
                return self._int_literal(-int(n.text, 0), ty, n.span)
            if n.kind == "float":
                self.next()
                if not isinstance(ty, FloatType):
                    raise ParseError("float literal in integer context", n.span)
                return Literal(semantics.float_to_bits(-float(n.text), ty.bits), ty)
            raise ParseError("expected a numeric literal after '-'", n.span)
        if t.kind == "pct":
            self.next()
            body = t.text[1:]
            if body.isdigit():
                idx = int(body)
                if idx >= len(local_types):
                    raise ParseError(f"%{idx} used before definition", t.span)
                return Local(idx)
            if body not in self.params:
                raise ParseError(f"unknown parameter %{body}", t.span)
            return Param(body)
        if t.kind == "int":
            self.next()
            return self._int_literal(int(t.text, 0), ty, t.span)
        if t.kind == "float":
            self.next()
            if not isinstance(ty, FloatType):
                raise ParseError("float literal in integer context", t.span)
            return Literal(semantics.float_to_bits(float(t.text), ty.bits), ty)
        if t.kind == "ident":
            self.next()
            if t.text not in self.consts:
                raise ParseError(f"undeclared symbolic constant {t.text}", t.span)
            return SymConst(t.text, self.consts[t.text])
        raise ParseError(f"expected an operand, got {t.text!r}", t.span)

    def _int_literal(self, value: int, ty, span: SourceSpan) -> Literal:
        if ty is None:
            raise ParseError("literal needs a typed context", span)
        if isinstance(ty, FloatType):
            if not 0 <= value < (1 << ty.bits):
                raise ParseError(f"float pattern does not fit {ty}", span)
            return Literal(value, ty)
        if isinstance(ty, VarWidthType):
            if value not in (0, 1, -1):
                raise ParseError("var-width literal must be 0, 1 or -1", span)
            return Literal(value, ty)
        if not literal_fits(value, ty.width):
            raise ParseError(f"literal {value} does not fit {ty}", span)
        return Literal(to_unsigned(value, ty.width), ty)

    # -- predicates

    def parse_conjuncts(self) -> tuple:
        conjuncts = [self.parse_pred_or()]
        while self.accept("punct", "&&"):
            conjuncts.append(self.parse_pred_or())
        return tuple(conjuncts)

    def parse_pred_or(self):
        # && binds only inside parentheses (parse_pred_atom); at the top
        # level it splits conjuncts
        p = self.parse_pred_atom()
        while self.accept("punct", "||"):
            p = POr(p, self.parse_pred_atom())
        return p

    def parse_pred_atom(self):
        t = self.peek()
        if self.accept("punct", "!"):
            return PNot(self.parse_pred_atom())
        if t.kind == "ident" and t.text == "true":
            self.next()
            return PTrue()
        if t.kind == "ident" and t.text == "PowerOfTwo":
            self.next()
            self.expect("punct", "(")
            e = self.parse_cexpr()
            self.expect("punct", ")")
            return PPow2(e)
        if t.kind == "ident" and t.text == "KnownBits":
            self.next()
            self.expect("punct", "(")
            ref = self.parse_pred_ref()
            self.expect("punct", ",")
            zeros = self.parse_cexpr()
            self.expect("punct", ",")
            ones = self.parse_cexpr()
            self.expect("punct", ")")
            return PKnownBits(ref, zeros, ones)
        if t.kind == "ident" and t.text in ("RangeU", "RangeS"):
            self.next()
            self.expect("punct", "(")
            ref = self.parse_pred_ref()
            self.expect("punct", ",")
            lo = self.parse_cexpr()
            self.expect("punct", ",")
            hi = self.parse_cexpr()
            self.expect("punct", ")")
            return PRange(ref, lo, hi, t.text == "RangeS")
        if t.kind == "ident" and t.text == "LowBitsZero":
            self.next()
            self.expect("punct", "(")
            ref = self.parse_pred_ref()
            self.expect("punct", ",")
            k = self.parse_cexpr()
            self.expect("punct", ")")
            return PLowBitsZero(ref, k)
        if t.kind == "ident" and t.text.startswith("fcmp."):
            self.next()
            pred = t.text[5:]
            if pred not in FCMP_PREDS:
                raise ParseError(f"bad fcmp predicate {pred}", t.span)
            self.expect("punct", "(")
            a = self.parse_cexpr()
            self.expect("punct", ",")
            b = self.parse_cexpr()
            self.expect("punct", ")")
            return PCmp(pred, a, b)
        if t.kind == "punct" and t.text == "(":
            # lookahead: parenthesized predicate vs parenthesized expression
            save = self.i
            try:
                self.next()
                p = self.parse_pred_or()
                while self.accept("punct", "&&"):
                    p = PAnd(p, self.parse_pred_or())
                self.expect("punct", ")")
                if self.peek().text in _CMP_TOKENS:
                    raise ParseError("expression, not predicate", t.span)
                return p
            except ParseError:
                self.i = save
        a = self.parse_cexpr()
        op_tok = self.next()
        if op_tok.text not in _CMP_TOKENS:
            raise ParseError(f"expected a comparison, got {op_tok.text!r}", op_tok.span)
        b = self.parse_cexpr()
        return PCmp(_CMP_TOKENS[op_tok.text], a, b)

    def parse_pred_ref(self) -> str:
        # the pre block precedes the functions, so references are checked
        # later by validate(), not here
        return self.expect("pct").text[1:]

    # -- constant expressions, C precedence (_PREC)

    def parse_cexpr(self, prec: int = 1):
        """Precedence climbing: binary operators binding at least `prec`
        (left-associative) over unary operands."""
        e = self.parse_cexpr_unary()
        while True:
            t = self.peek()
            p = _PREC.get(t.text) if t.kind == "punct" else None
            if p is None or p < prec:
                return e
            self.next()
            e = CBin(t.text, e, self.parse_cexpr(p + 1))

    def parse_cexpr_unary(self):
        t = self.peek()
        if self.accept("punct", "-"):
            inner = self.parse_cexpr_unary()
            if isinstance(inner, CInt):
                return CInt(-inner.value)
            if isinstance(inner, CFloat):
                return CFloat(-inner.value)
            return CUn("neg", inner)
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.parse_cexpr()
            self.expect("punct", ")")
            return e
        if t.kind == "int":
            self.next()
            return CInt(int(t.text, 0))
        if t.kind == "float":
            self.next()
            return CFloat(float(t.text))
        if t.kind == "pct":
            self.next()
            return CRef(t.text[1:])
        if t.kind == "ident":
            self.next()
            if t.text in _CONST_FUNCS:
                self.expect("punct", "(")
                e = self.parse_cexpr()
                self.expect("punct", ")")
                return CUn(t.text, e)
            if t.text in CAST_OPS:
                self.expect("punct", "(")
                e = self.parse_cexpr()
                self.expect("punct", ",")
                w = self.parse_cast_width()
                self.expect("punct", ")")
                return CCast(t.text, e, w)
            if t.text in self.width_vars:
                return CWidth(t.text)
            if t.text in self.consts:
                return CConst(t.text)
            raise ParseError(f"unknown name {t.text}", t.span)
        raise ParseError(f"expected an expression, got {t.text!r}", t.span)

    def parse_cast_width(self):
        t = self.next()
        if t.kind == "int":
            return int(t.text, 0)
        if t.kind == "ident" and t.text in self.width_vars:
            return t.text
        raise ParseError("cast width must be an integer or width variable", t.span)


def parse_rule(src: str) -> Rule:
    p = _Parser(src)
    rule = p.parse_rule()
    p.expect("eof")
    return rule


def parse_conjuncts(src: str, consts: Optional[dict] = None,
                    width_vars: Optional[list] = None) -> tuple:
    """Parse a standalone predicate (`&&`-separated conjuncts).

    `consts` and `width_vars` supply the names that are in scope, the same
    way a rule header would.
    """
    p = _Parser(src)
    p.consts = dict(consts or {})
    p.width_vars = list(width_vars or [])
    conjuncts = p.parse_conjuncts()
    p.expect("eof")
    return conjuncts


# ---------------------------------------------------------------------------
# Printer

_CMP_TEXT = {v: k for k, v in _CMP_TOKENS.items()}


def print_cexpr(e, prec: int = 0) -> str:
    if isinstance(e, CInt):
        return str(e.value)
    if isinstance(e, CFloat):
        v = float(e.value)
        if v != v:
            return "nan"
        if v == float("inf"):
            return "inf"
        if v == float("-inf"):
            return "-inf"
        s = repr(v)
        return s if ("." in s or "e" in s or "E" in s) else s + ".0"
    if isinstance(e, CConst) or isinstance(e, CWidth):
        return e.name
    if isinstance(e, CRef):
        return f"%{e.name}"
    if isinstance(e, CUn):
        if e.op == "neg":
            return f"-{print_cexpr(e.a, 7)}"
        return f"{e.op}({print_cexpr(e.a)})"
    if isinstance(e, CCast):
        return f"{e.kind}({print_cexpr(e.a)}, {e.width})"
    if isinstance(e, CBin):
        p = _PREC[e.op]
        s = f"{print_cexpr(e.a, p)} {e.op} {print_cexpr(e.b, p + 1)}"
        return f"({s})" if p < prec else s
    raise PeepError(f"unknown constant expression {e!r}")


def print_pred(p, top: bool = True) -> str:
    if isinstance(p, PTrue):
        return "true"
    if isinstance(p, PCmp):
        if p.pred in _CMP_TEXT:
            return f"{print_cexpr(p.a, 1)} {_CMP_TEXT[p.pred]} {print_cexpr(p.b, 1)}"
        return f"fcmp.{p.pred}({print_cexpr(p.a)}, {print_cexpr(p.b)})"
    if isinstance(p, PPow2):
        return f"PowerOfTwo({print_cexpr(p.e)})"
    if isinstance(p, PKnownBits):
        return f"KnownBits(%{p.ref}, {print_cexpr(p.zeros)}, {print_cexpr(p.ones)})"
    if isinstance(p, PRange):
        name = "RangeS" if p.signed else "RangeU"
        return f"{name}(%{p.ref}, {print_cexpr(p.lo)}, {print_cexpr(p.hi)})"
    if isinstance(p, PLowBitsZero):
        return f"LowBitsZero(%{p.ref}, {print_cexpr(p.k)})"
    if isinstance(p, PNot):
        return f"!({print_pred(p.a, False)})"
    if isinstance(p, POr):
        s = f"{print_pred(p.a, False)} || {print_pred(p.b, False)}"
        return s if top else f"({s})"
    if isinstance(p, PAnd):
        return f"({print_pred(p.a, False)} && {print_pred(p.b, False)})"
    raise PeepError(f"unknown predicate {p!r}")


def _print_operand(opnd) -> str:
    if isinstance(opnd, Param):
        return f"%{opnd.name}"
    if isinstance(opnd, Local):
        return f"%{opnd.index}"
    if isinstance(opnd, SymConst):
        return opnd.name
    if isinstance(opnd, Literal):
        if isinstance(opnd.ty, FloatType):
            return f"0x{opnd.value:X}"
        return str(opnd.value)
    raise PeepError(f"unknown operand {opnd!r}")


def _print_instr(fn: Function, instr: Instr, index: int) -> str:
    parts = [instr.op]
    if instr.pred is not None:
        parts.append(instr.pred)
    parts.extend(sorted(instr.flags))
    opspec = ".".join(parts)
    if instr.op in CAST_OPS:
        src_ty = fn.operand_type(instr.operands[0])
        opnd = _print_operand(instr.operands[0])
        return f"%{index} = {opspec} {src_ty} {opnd} to {instr.ty}"
    if instr.op in ("icmp", "fcmp"):
        ty = fn.operand_type(instr.operands[0])
    else:
        ty = instr.ty
    opnds = ", ".join(_print_operand(o) for o in instr.operands)
    return f"%{index} = {opspec} {ty} {opnds}"


def print_function(fn: Function, label: str) -> str:
    params = ", ".join(f"{n}: {t}" for n, t in fn.params)
    lines = [f"  {label} fn({params}) -> {fn.operand_type(fn.ret)} {{"]
    for i, instr in enumerate(fn.body):
        lines.append(f"    {_print_instr(fn, instr, i)};")
    lines.append(f"    ret {_print_operand(fn.ret)}")
    lines.append("  }")
    return "\n".join(lines)


def print_rule(rule: Rule) -> str:
    lines = [f'rule "{rule.name}" {{']
    for name, ty in rule.sym_consts:
        lines.append(f"  const {name}: {ty};")
    for name in rule.width_vars:
        lines.append(f"  widthvar {name};")
    if rule.pre:
        lines.append("  pre: " + " && ".join(print_pred(c) for c in rule.pre) + ";")
    lines.append(print_function(rule.lhs, "lhs"))
    lines.append(print_function(rule.rhs, "rhs"))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural comparison


def canonical_text(rule: Rule) -> str:
    """Canonical printed form, rule name elided, for use as a set key."""
    return print_rule(Rule("", rule.sym_consts, rule.width_vars,
                           tuple(sorted(rule.pre, key=repr)), rule.lhs, rule.rhs))
