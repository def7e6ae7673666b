import pytest
from hypothesis import given, settings, strategies as st

from peepgen import engine, textfmt
from peepgen.ir import (CAST_OPS, CBIN_OPS, CUN_OPS, FLOAT_BINOPS,
                        INT_BINOPS, INT_UNOPS, CBin, CCast, CConst, CFloat,
                        CInt, CRef, CUn, CWidth, Function, Instr, IntType,
                        Literal, Local, Param, PCmp, PPow2, Rule, SymConst,
                        validate)
from peepgen.textfmt import ParseError

from conftest import parse, structural_eq

WIDTHS = st.sampled_from([1, 4, 8, 13, 16, 32, 64])
BINOPS = ["add", "sub", "mul", "and", "or", "xor", "udiv", "urem",
          "smin", "smax", "umin", "umax"]
SHIFTS = ["shl", "lshr", "ashr"]
UNOPS = ["neg", "not", "ctpop", "cttz", "ctlz"]
FLAGS = {"add": ["nsw", "nuw"], "sub": ["nsw", "nuw"], "mul": ["nsw", "nuw"],
         "shl": ["nsw", "nuw"], "lshr": ["exact"], "ashr": ["exact"],
         "udiv": ["exact"]}


@st.composite
def int_rules(draw):
    w = draw(WIDTHS)
    ty = IntType(w)
    nparams = draw(st.integers(1, 3))
    params = tuple((f"p{i}", ty) for i in range(nparams))
    nconsts = draw(st.integers(0, 2))
    sym_consts = tuple((f"C{i + 1}", ty) for i in range(nconsts))

    def body(n):
        instrs = []
        for i in range(n):
            pool = [Param(p) for p, _ in params]
            pool += [Local(j) for j in range(i)]
            pool += [SymConst(c, cty) for c, cty in sym_consts]
            pool.append(Literal(draw(st.integers(0, (1 << w) - 1)), ty))
            op = draw(st.sampled_from(BINOPS + SHIFTS + UNOPS))
            flags = sorted(draw(st.sets(
                st.sampled_from(FLAGS.get(op, ["x"])), max_size=1)) - {"x"})
            arity = 1 if op in UNOPS else 2
            ops = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
            instrs.append(Instr(op, ops, ty, frozenset(flags), None))
        return instrs

    n = draw(st.integers(1, 4))
    lhs = Function("lhs", params, tuple(body(n)), Local(n - 1))
    m = draw(st.integers(1, 3))
    rhs = Function("rhs", params, tuple(body(m)), Local(m - 1))
    pre = []
    for cname, _ in sym_consts:
        kind = draw(st.sampled_from(["pow2", "cmp", "none"]))
        if kind == "pow2":
            pre.append(PPow2(CConst(cname)))
        elif kind == "cmp":
            pred = draw(st.sampled_from(["eq", "ne", "ult", "sge"]))
            pre.append(PCmp(pred, CConst(cname),
                            CInt(draw(st.integers(0, (1 << w) - 1)))))
    rule = Rule("gen", sym_consts, (), tuple(pre), lhs, rhs)
    if validate(rule):
        # operand pools occasionally violate a typing rule; skip those draws
        draw(st.nothing())
    return rule


@settings(max_examples=1000, deadline=None)
@given(int_rules())
def test_round_trip_property(rule):
    text = textfmt.print_rule(rule)
    again = textfmt.parse_rule(text)
    assert structural_eq(rule, again)
    assert textfmt.print_rule(again) == text


def test_fixture_round_trip(fixture_corpus):
    for fx in fixture_corpus:
        printed = textfmt.print_rule(fx.rule)
        assert structural_eq(fx.rule, textfmt.parse_rule(printed)), fx.name


def test_canonical_text_idempotent(fixture_corpus):
    for fx in fixture_corpus:
        canon = textfmt.canonical_text(fx.rule)
        assert textfmt.canonical_text(textfmt.parse_rule(canon)) == canon


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse('rule "x" { lhs fn(x: i8) -> i8 { %0 = frob i8 %x; ret %0 } }')
    assert ":" in str(e.value)


def test_parse_rejects_forward_local():
    with pytest.raises(ParseError):
        parse('rule "x" { lhs fn(x: i8) -> i8 { %0 = add i8 %1, %x; '
              '%1 = add i8 %x, %x; ret %1 } '
              'rhs fn(x: i8) -> i8 { ret %x } }')


def test_parse_conjuncts_standalone():
    conj = textfmt.parse_conjuncts("PowerOfTwo(C1) && C1 <u 16",
                                   {"C1": IntType(8)})
    assert len(conj) == 2
    assert textfmt.print_pred(conj[0]) == "PowerOfTwo(C1)"


CEXPR_CONSTS = {"C1": IntType(8), "C2": IntType(16)}
CEXPR_LEAVES = st.one_of(
    st.sampled_from([CConst("C1"), CConst("C2"), CRef("x"), CWidth("W")]),
    st.integers(-300, 1 << 40).map(CInt),
    st.floats(allow_nan=False, width=32).map(CFloat))


@st.composite
def cexprs(draw, depth):
    """A constant-expression tree over every operator, function and cast;
    the tree need not type-check, the parser does not check types."""
    kinds = ["leaf", "bin", "un", "cast"] if depth else ["leaf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(CEXPR_LEAVES)
    if kind == "bin":
        return CBin(draw(st.sampled_from(CBIN_OPS)),
                    draw(cexprs(depth - 1)), draw(cexprs(depth - 1)))
    a = draw(cexprs(depth - 1))
    if kind == "cast":
        return CCast(draw(st.sampled_from(CAST_OPS)), a,
                     draw(st.sampled_from([1, 8, 33, 64, "W"])))
    op = draw(st.sampled_from(CUN_OPS))
    if op == "neg" and isinstance(a, (CInt, CFloat)):
        # the parser folds `-` of a literal into the literal
        draw(st.nothing())
    return CUn(op, a)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(["eq", "ne", "ult", "ule", "ugt", "uge",
                        "slt", "sle", "sgt", "sge"]),
       cexprs(4), cexprs(3))
def test_constexpr_round_trip(pred, a, b):
    for p in (PCmp(pred, a, b), PPow2(a)):
        text = textfmt.print_pred(p)
        assert textfmt.parse_conjuncts(text, CEXPR_CONSTS, ["W"]) == (p,), text


def test_constant_operators_are_defined_once():
    # the IR's operator lists, the precedence table that parses and prints
    # them and the instructions the engine evaluates them with agree
    assert set(CBIN_OPS) == set(textfmt._PREC) == set(engine._CBIN_INT)
    assert set(engine._CBIN_FLOAT) < set(CBIN_OPS)
    assert set(CUN_OPS) == set(engine._CUN_INT) | {"log2"}
    assert set(CUN_OPS) == set(textfmt._CONST_FUNCS) | {"neg"}
    assert set(engine._CBIN_INT.values()) <= set(INT_BINOPS)
    assert set(engine._CUN_INT.values()) <= set(INT_UNOPS)
    assert set(engine._CBIN_FLOAT.values()) <= set(FLOAT_BINOPS)
