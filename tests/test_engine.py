import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peepgen import engine, semantics, verifier
from peepgen.ir import (FLOAT_BINOPS, INT_BINOPS, INT_UNOPS, CConst, CInt,
                        FloatType, Function, Instr, IntType, Local, Param,
                        PCmp, mask, opcode_arity)
from peepgen.semantics import Bits, FloatBits, POISON

from conftest import parse

WIDTHS = [1, 3, 8, 16, 32, 64]
FLAG_POOL = {"add": ["nsw", "nuw"], "sub": ["nsw", "nuw"],
             "mul": ["nsw", "nuw"], "shl": ["nsw", "nuw"],
             "udiv": ["exact"], "sdiv": ["exact"],
             "lshr": ["exact"], "ashr": ["exact"], "neg": ["nsw", "nuw"]}


def _run_both(op, w, args, flags=(), pred=None):
    ty = IntType(w)
    arity = len(args)
    params = tuple((f"p{i}", ty) for i in range(arity))
    out_ty = IntType(1) if op == "icmp" else ty
    fn = Function("lhs", params,
                  (Instr(op, tuple(Param(f"p{i}") for i in range(arity)),
                         out_ty, frozenset(flags), pred),),
                  Local(0))
    scalar = semantics.eval_function(fn, [Bits(w, a) for a in args])
    vparams = {f"p{i}": engine.VVal(np.array([a], dtype=engine.udtype(w)),
                                    None, ty)
               for i, a in enumerate(args)}
    vec = engine.eval_function_vec(fn, vparams, {})
    if scalar is POISON:
        assert vec.poison is not None and bool(np.asarray(vec.poison).reshape(-1)[0])
    else:
        if vec.poison is not None:
            assert not bool(np.asarray(vec.poison).reshape(-1)[0])
        assert int(np.asarray(vec.data).reshape(-1)[0]) == scalar.value


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(INT_BINOPS + INT_UNOPS), st.sampled_from(WIDTHS),
       st.data())
def test_vector_matches_scalar_int(op, w, data):
    arity = opcode_arity(op)
    args = [data.draw(st.integers(0, mask(w))) for _ in range(arity)]
    allowed = FLAG_POOL.get(op, [])
    flags = (data.draw(st.sets(st.sampled_from(allowed), max_size=2))
             if allowed else set())
    _run_both(op, w, args, flags)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(["eq", "ne", "ult", "ule", "ugt", "uge",
                        "slt", "sle", "sgt", "sge"]),
       st.sampled_from(WIDTHS), st.data())
def test_vector_matches_scalar_icmp(pred, w, data):
    a = data.draw(st.integers(0, mask(w)))
    b = data.draw(st.integers(0, mask(w)))
    _run_both("icmp", w, [a, b], pred=pred)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FLOAT_BINOPS), st.sampled_from([16, 32, 64]),
       st.data())
def test_vector_matches_scalar_float(op, prec, data):
    ty = FloatType(prec)
    pats = [data.draw(st.integers(0, (1 << prec) - 1)) for _ in range(2)]
    fn = Function("lhs", (("a", ty), ("b", ty)),
                  (Instr(op, (Param("a"), Param("b")), ty, frozenset(), None),),
                  Local(0))
    scalar = semantics.eval_function(fn, [FloatBits(prec, p) for p in pats])
    vparams = {n: engine.VVal(
        np.array([p], dtype=engine._FUINT[prec]).view(engine._FLOAT[prec]),
        None, ty) for n, p in zip(("a", "b"), pats)}
    vec = engine.eval_function_vec(fn, vparams, {})
    vpat = int(np.asarray(vec.data).view(engine._FUINT[prec]).reshape(-1)[0])
    assert semantics.values_equal(scalar, FloatBits(prec, vpat))


def test_special_int_patterns_cover_corners():
    for w in (8, 16, 32):
        sp = set(int(x) for x in engine.special_int_patterns(w))
        assert {0, 1, 2, mask(w), 1 << (w - 1), mask(w) >> 1} <= sp
        assert all(0 <= x <= mask(w) for x in sp)
        assert (1 << (w // 2)) in sp  # powers of two are included


def test_special_float_patterns_cover_corners():
    for prec in (16, 32, 64):
        sp = set(int(x) for x in engine.special_float_patterns(prec))
        floats = [semantics.bits_to_float(p, prec) for p in sp]
        assert any(np.isnan(f) for f in floats)
        assert any(np.isposinf(f) for f in floats)
        assert any(np.isneginf(f) for f in floats)
        assert 0x8000000000000000 >> (64 - prec) in sp  # negative zero


def test_space_of():
    assert engine.space_of(IntType(8)) == 256
    assert engine.space_of(FloatType(16)) == 65536


@pytest.mark.parametrize("types", [
    [IntType(1), IntType(3), IntType(8), IntType(12), FloatType(16)],
    [IntType(3), IntType(12), IntType(1), IntType(8)],
    [FloatType(16), IntType(1)],
    [IntType(8)],
])
def test_unravel_chunk_matches_unravel_index(types):
    # the bit-sliced digits are the mixed-radix digits of the flat index,
    # last type fastest, each already in its type's storage dtype
    sizes = [engine.space_of(ty) for ty in types]
    total = math.prod(sizes)
    for start, end in [(0, 1), (3, 1000), (total // 3 + 7, total // 3 + 5000),
                       (total - 777, total)]:
        start, end = max(start, 0), min(end, total)
        digits = engine.unravel_chunk(types, start, end)
        expected = np.unravel_index(np.arange(start, end, dtype=np.int64),
                                    sizes)
        assert len(digits) == len(types)
        for ty, d, e in zip(types, digits, expected):
            assert d.dtype == (np.uint16 if isinstance(ty, FloatType)
                               else engine.udtype(ty.width))
            assert np.array_equal(d.astype(np.int64), e)


@pytest.mark.parametrize("pred", ["eq", "ne"])
def test_mixed_width_equality_matches_scalar(pred):
    # between widths, `==` holds when the values agree read as unsigned or
    # read as signed: i8 0x80 is 128 and -128, so it equals i16 0x0080 (128)
    # and 0xff80 (-128) but not 0x7f80
    conj = PCmp(pred, CConst("C1"), CConst("C2"))
    c2 = [0x0080, 0xff80, 0x7f80]
    expected = [True, True, False] if pred == "eq" else [False, False, True]
    scalar = [semantics.eval_predicate(
        conj, {}, {"C1": (0x80, IntType(8)), "C2": (v, IntType(16))}, {})
        for v in c2]
    vector = engine.eval_pred_vec(conj, {}, {
        "C1": (np.full(3, 0x80, dtype=np.uint8), IntType(8)),
        "C2": (np.array(c2, dtype=np.uint16), IntType(16))})
    assert scalar == expected
    assert np.asarray(vector, dtype=bool).tolist() == expected


def _const_rule(decls: str, pre: str):
    return parse(f"""
rule "d" {{
  {decls}
  pre: {pre};
  lhs fn(x: i8) -> i8 {{ %0 = add i8 %x, C1; ret %0 }}
  rhs fn(x: i8) -> i8 {{ %0 = add i8 %x, C1; ret %0 }}
}}
""")


def test_split_const_defs_derives_pinned_constant():
    rule = _const_rule("const C1: i8; const C2: i8;",
                       "C1 <=u 173 && C2 <=u 9 && C1 >=u 173")
    free, defs = engine.split_const_defs(rule)
    assert [n for n, _ in free] == ["C2"]
    assert defs == [("C1", CInt(173))]


def test_split_const_defs_derives_unencodable_pin():
    # 256 is no i8 pattern: the pin admits nothing, and deriving C1 lets the
    # verifier find that out from one point instead of 256
    rule = _const_rule("const C1: i8; const C2: i8;",
                       "C1 <=u 256 && C1 >=u 256 && C2 <=u 9")
    free, defs = engine.split_const_defs(rule)
    assert [n for n, _ in free] == ["C2"]
    assert defs == [("C1", CInt(256))]
    verdict = verifier.check_refinement(rule)
    assert verdict.kind == "inconclusive"
    assert verdict.reason == "NoSatisfyingConstants"


def test_split_const_defs_breaks_a_cycle():
    rule = _const_rule("const C1: i8; const C2: i8;",
                       "C1 == C2 + 1 && C2 == C1 - 1")
    free, defs = engine.split_const_defs(rule)
    # the first constant in declaration order is freed, the other derived
    assert [n for n, _ in free] == ["C1"]
    assert [n for n, _ in defs] == ["C2"]
