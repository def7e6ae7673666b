import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peepgen import engine, semantics, textfmt, verifier
from peepgen.ir import (FCMP_PREDS, FLOAT_BINOPS, INT_BINOPS, INT_UNOPS, CBin,
                        CCast, CConst, CInt, CUn, FloatType, Function, Instr,
                        IntType, Local, Param, PAnd, PCmp, PPow2, mask,
                        iter_expr, opcode_arity, pred_const_names)
from peepgen.semantics import Bits, FloatBits, POISON

from conftest import POISON as OPOISON, oracle_instr, parse

WIDTHS = [1, 3, 8, 16, 32, 33, 40, 63, 64]
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


def _flag_sets(op):
    allowed = FLAG_POOL.get(op, [])
    return [frozenset(c) for n in range(len(allowed) + 1)
            for c in itertools.combinations(allowed, n)]


def _lane_values(w):
    full = mask(w)
    return sorted({0, 1, 2 & full, 3 & full, full, full >> 1,
                   1 << (w - 1), (1 << (w - 1)) + 1 & full, 0x5a5a & full,
                   w & full})


@pytest.mark.parametrize("w", [1, 3, 8, 16, 32, 33, 40, 63, 64])
@pytest.mark.parametrize("op", INT_BINOPS)
def test_binop_kernels_match_scalar_on_block_shapes(op, w):
    # the verifier feeds kernels a (k,1) constant column against a (1,m)
    # input row, and literals as numpy scalars; every lane must agree with
    # the scalar evaluator, poison included
    ty = IntType(w)
    dt = engine.udtype(w)
    vals = _lane_values(w)
    col = np.array(vals, dtype=dt).reshape(-1, 1)
    row = np.array(vals[::-1], dtype=dt).reshape(1, -1)
    mid = vals[len(vals) // 2]
    shapes = [(col, row), (dt(vals[-1]), row.reshape(-1)),
              (col.reshape(-1), dt(mid)), (dt(mid), dt(vals[-1]))]
    for flags in _flag_sets(op):
        fn = Function("lhs", (("p0", ty), ("p1", ty)),
                      (Instr(op, (Param("p0"), Param("p1")), ty, flags,
                             None),),
                      Local(0))
        for a, b in shapes:
            vec = engine.eval_function_vec(
                fn, {"p0": engine.VVal(a, None, ty),
                     "p1": engine.VVal(b, None, ty)}, {})
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            data = np.broadcast_to(np.asarray(vec.data), shape)
            assert data.dtype == dt
            poison = np.broadcast_to(
                np.asarray(False if vec.poison is None else vec.poison),
                shape)
            for idx in np.ndindex(*shape):
                av = np.broadcast_to(a, shape)[idx]
                bv = np.broadcast_to(b, shape)[idx]
                scalar = semantics.eval_function(
                    fn, [Bits(w, int(av)), Bits(w, int(bv))])
                lane = (op, sorted(flags), int(av), int(bv))
                if scalar is POISON:
                    assert poison[idx], lane
                else:
                    assert not poison[idx], lane
                    assert int(data[idx]) == scalar.value, lane


KERNEL_WIDTHS = [1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64]
DIVREM_KERNELS = [("udiv", ()), ("udiv", ("exact",)), ("urem", ()),
                  ("sdiv", ()), ("sdiv", ("exact",)), ("srem", ())]

# (rows, lanes) of the block and rows of the column it meets: a block of
# rows and one row that the division kernels divide by the column row by
# row, and rows long enough that min and max copy a repeated operand out
WIDE_BLOCKS = [(4, 4096, 4), (1, 2048, 4), (4, 8192, 4), (1, 8192, 1)]


@pytest.mark.parametrize("w", KERNEL_WIDTHS)
@pytest.mark.parametrize("op", INT_BINOPS)
def test_binop_kernels_match_rows_on_wide_blocks(op, w):
    # every lane of a wide block against a column (or a scalar) equals that
    # row's own evaluation against its scalar, and a seeded sample of lanes
    # equals the scalar evaluator, poison included
    ty = IntType(w)
    dt = engine.udtype(w)
    rng = np.random.default_rng(w)
    pats = np.array(_kernel_patterns(w), dtype=dt)
    col_pats = np.array([0, 1, mask(w), 1 << (w - 1)], dtype=dt)
    for flags in _flag_sets(op):
        fn = _kernel_fn(op, flags, w)

        def run(a, b):
            vec = engine.eval_function_vec(
                fn, {"p0": engine.VVal(a, None, ty),
                     "p1": engine.VVal(b, None, ty)}, {})
            shape = np.broadcast_shapes(a.shape, b.shape)
            poison = False if vec.poison is None else vec.poison
            return (np.broadcast_to(np.asarray(vec.data), shape),
                    np.broadcast_to(np.asarray(poison), shape))

        for rows, lanes, col_rows in WIDE_BLOCKS:
            block = rng.choice(pats, size=(rows, lanes))
            col = (col_pats if col_rows > 1
                   else rng.choice(pats, size=1)).reshape(-1, 1)
            for a, b in ((block, col), (col, block)):
                data, poison = run(a, b)
                assert data.dtype == dt
                for i in range(len(data)):
                    row_data, row_poison = run(a[i % len(a)][None],
                                               b[i % len(b)][None])
                    assert np.array_equal(data[i], row_data[0]), (op, flags, i)
                    assert np.array_equal(poison[i], row_poison[0]), (op, flags, i)
                for idx in zip(rng.integers(0, data.shape[0], 8),
                               rng.integers(0, data.shape[1], 8)):
                    av = np.broadcast_to(a, data.shape)[idx]
                    bv = np.broadcast_to(b, data.shape)[idx]
                    scalar = semantics.eval_function(
                        fn, [Bits(w, int(av)), Bits(w, int(bv))])
                    lane = (op, sorted(flags), int(av), int(bv))
                    if scalar is POISON:
                        assert poison[idx], lane
                    else:
                        assert not poison[idx], lane
                        assert int(data[idx]) == scalar.value, lane


SAMPLER_DIGESTS = {
    ("int", 1): "c4b698e068049f37271365de7a9bb1c6ddd468a1af85c2bed8df8a30ca1384e8",
    ("int", 8): "a7c6b6aa2d5a8e0da107c759d4b259444dbc35fa8919eab53b96a14f1df7d3fe",
    ("int", 13): "2c3c4de8bdb26fdcdb52b6503a62af25972de3409b0e980a017e56254e22ee04",
    ("int", 32): "d96d9922344e01a3470324a384e0d83888213ea05e5cadb1b04dae9228efb61e",
    ("int", 33): "e338a9163b80531cc67db8f5239078a191a95e5d0be36cc96abfe2995be003af",
    ("int", 64): "448e95ab0741371951dc0cc38d6a39f6f6ba513fdc381c5abc051b6102b2dc1e",
    ("float", 16): "1a799225c0766d764164e0439b83f47f6e0ae4f56175700e43c67634a47766fb",
    ("float", 32): "605e7a135fed1dce716480a96951e715a6a4600b167c6459f8d831926b4c7bee",
    ("float", 64): "5e0a038a5e1252e33f1b3576d2af77a81559068f130b1e894f748eef951534b2",
}


@pytest.mark.parametrize("kind, bits", sorted(SAMPLER_DIGESTS))
def test_sampled_patterns_are_pinned(kind, bits):
    # the samplers' draws, and the generator state they leave, are part of
    # every sampled verdict: a rewrite must keep them bit for bit
    sample = (engine.sample_int_patterns if kind == "int"
              else engine.sample_float_patterns)
    rng = np.random.default_rng(1000 + bits)
    pats = sample(rng, bits, 70_000)
    assert pats.dtype == engine.storage_dtype(
        IntType(bits) if kind == "int" else FloatType(bits))
    digest = hashlib.sha256(pats.tobytes())
    digest.update(rng.integers(0, 1 << 63, size=4).tobytes())
    assert digest.hexdigest() == SAMPLER_DIGESTS[kind, bits]


def _kernel_patterns(w):
    # the corner patterns, their neighbours and seeded random patterns
    full = mask(w)
    special = set(_lane_values(w))
    special |= {(v + d) & full for v in special for d in (-1, 1)}
    rng = np.random.default_rng(w)
    drawn = rng.integers(0, np.iinfo(np.uint64).max, size=24, dtype=np.uint64,
                         endpoint=True)
    return sorted(special | {int(v) & full for v in drawn})


def _kernel_fn(op, flags, w):
    ty = IntType(w)
    arity = opcode_arity(op)
    return Function("lhs", tuple((f"p{i}", ty) for i in range(arity)),
                    (Instr(op, tuple(Param(f"p{i}") for i in range(arity)),
                           ty, frozenset(flags), None),),
                    Local(0))


def _assert_kernel_lanes(op, flags, w, args):
    # every lane of the kernel's result against Python-int arithmetic (the
    # test oracle, not the scalar evaluator)
    ty = IntType(w)
    vec = engine.eval_function_vec(
        _kernel_fn(op, flags, w),
        {f"p{i}": engine.VVal(a, None, ty) for i, a in enumerate(args)}, {})
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    data = np.broadcast_to(np.asarray(vec.data), shape)
    assert data.dtype == engine.udtype(w)
    poison = np.broadcast_to(
        np.asarray(False if vec.poison is None else vec.poison), shape)
    lanes = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
    for i, (got, pois) in enumerate(zip(data.ravel().tolist(),
                                        poison.ravel().tolist())):
        operands = [lane[i] for lane in lanes]
        want = oracle_instr(op, None, flags, ty, operands, [w])
        assert (OPOISON if pois else got) == want, (op, flags, w, operands)


@pytest.mark.parametrize("w", KERNEL_WIDTHS)
@pytest.mark.parametrize("op, flags", DIVREM_KERNELS)
def test_divrem_kernels_match_python_ints(op, flags, w):
    # divisors as a full array (every pattern pair), a 0-d array and a
    # (k, 1) column against a row of dividends
    dt = engine.udtype(w)
    pats = np.array(_kernel_patterns(w), dtype=dt)
    a, b = (g.ravel() for g in np.meshgrid(pats, pats, indexing="ij"))
    _assert_kernel_lanes(op, flags, w, [a, b])
    for divisor in pats[::5]:
        _assert_kernel_lanes(op, flags, w, [pats, np.asarray(divisor)])
    _assert_kernel_lanes(op, flags, w, [pats.reshape(1, -1),
                                        pats.reshape(-1, 1)])


@pytest.mark.parametrize("w", KERNEL_WIDTHS)
@pytest.mark.parametrize("op", ["ctpop", "cttz", "ctlz"])
def test_bit_count_kernels_match_python_ints(op, w):
    dt = engine.udtype(w)
    pats = np.array(_kernel_patterns(w), dtype=dt)
    _assert_kernel_lanes(op, (), w, [pats])
    _assert_kernel_lanes(op, (), w, [pats.reshape(-1, 1)])
    for v in pats[::5]:
        _assert_kernel_lanes(op, (), w, [np.asarray(v)])


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


# Constant expressions: the engine against the scalar evaluator on random
# well-typed trees over i1-i8 and a few wider constants, several constant
# tuples per tree.

CEXPR_BINOPS = ("+", "-", "*", "/", "&", "|", "^", "<<", ">>u", ">>s")
CEXPR_UNOPS = ("neg", "popcount", "cttz", "ctlz", "log2")
CMP_PREDS = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")
LANES = 12
CEXPR_WIDTHS = st.one_of(st.integers(1, 8),
                         st.sampled_from([13, 16, 32, 33, 64]))


@st.composite
def _cexpr(draw, w, depth):
    """An expression of width `w`: constants A<w> and B<w>, literal right
    operands (shift amounts past the width included) and casts from other
    widths."""
    kinds = ["const", "un", "bin", "bin_lit", "cast"] if depth else ["const"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return CConst(draw(st.sampled_from([f"A{w}", f"B{w}"])))
    if kind == "un":
        return CUn(draw(st.sampled_from(CEXPR_UNOPS)),
                   draw(_cexpr(w, depth - 1)))
    if kind == "cast":
        return CCast(draw(st.sampled_from(("zext", "sext", "trunc"))),
                     draw(_cexpr(draw(CEXPR_WIDTHS), depth - 1)), w)
    b = (CInt(draw(st.integers(0, 9))) if kind == "bin_lit"
         else draw(_cexpr(w, depth - 1)))
    return CBin(draw(st.sampled_from(CEXPR_BINOPS)),
                draw(_cexpr(w, depth - 1)), b)


@st.composite
def _cpred_lanes(draw):
    """A predicate over a constant-expression tree, and LANES values of
    each constant it names."""
    w = draw(CEXPR_WIDTHS)
    a = draw(_cexpr(w, 3))
    if draw(st.booleans()):
        pred = PPow2(a)
    else:
        w2 = draw(st.sampled_from([w, draw(CEXPR_WIDTHS)]))
        pred = PCmp(draw(st.sampled_from(CMP_PREDS)), a, draw(_cexpr(w2, 2)))
    lanes = {}
    for n in sorted(pred_const_names(pred)):
        width = int(n[1:])
        lanes[n] = (draw(st.lists(st.integers(0, mask(width)),
                                  min_size=LANES, max_size=LANES)),
                    IntType(width))
    return pred, lanes


def _big_right_shift(pred, consts: dict) -> bool:
    """Whether evaluating `pred` shifts right (`>>u`, `>>s`) by the width
    or more somewhere."""
    for e in iter_expr(pred):
        if isinstance(e, CBin) and e.op in (">>u", ">>s"):
            try:
                a = semantics.eval_constexpr(e.a, consts, {})
                b = semantics.eval_constexpr(e.b, consts, {})
            except semantics.ConstEvalError:
                continue
            if (b.value if isinstance(b, Bits) else b) >= a.width:
                return True
    return False


def _compare_lanes(pred, lanes: dict):
    """(scalar result, engine result, big right shift) for every lane."""
    vector = engine.eval_pred_vec(pred, {}, {
        n: (np.array(v, dtype=engine.udtype(ty.width)), ty)
        for n, (v, ty) in lanes.items()})
    vector = np.broadcast_to(np.asarray(vector, dtype=bool), (LANES,))
    out = []
    for i in range(LANES):
        consts = {n: (v[i], ty) for n, (v, ty) in lanes.items()}
        out.append((semantics.eval_predicate(pred, {}, consts, {}),
                    bool(vector[i]),
                    _big_right_shift(pred, consts)))
    return out


@settings(max_examples=300, deadline=None)
@given(_cpred_lanes())
def test_constexpr_vec_matches_scalar(case):
    pred, lanes = case
    for scalar, vector, big in _compare_lanes(pred, lanes):
        if not big:  # those lanes are the xfail test below
            assert vector == scalar


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "engine.eval_constexpr_vec treats >>u/>>s by the width or more as out "
    "of domain (the atom is false); semantics.eval_constexpr gives 0 or "
    "the sign fill"))
def test_constexpr_vec_matches_scalar_on_right_shifts_past_the_width():
    # the lanes the test above leaves out; collected under hypothesis and
    # asserted after it, so the expected failure is one plain assertion
    big_lanes = []

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_cpred_lanes())
    def collect(case):
        big_lanes.extend((case[0], scalar, vector) for scalar, vector, big
                         in _compare_lanes(*case) if big)

    collect()
    assert big_lanes
    mismatches = [lane for lane in big_lanes if lane[1] != lane[2]]
    assert not mismatches, f"{len(mismatches)} lanes differ, e.g. {mismatches[0]}"


@pytest.mark.parametrize("w", WIDTHS)
def test_constant_operators_match_scalar_on_lane_pairs(w):
    # every constant operator on a column of corner values against a row of
    # them: the value where the scalar evaluator defines one, out of domain
    # where it raises (the right shifts past the width are the xfail above)
    ty = IntType(w)
    vals = _lane_values(w)
    col = np.array(vals, dtype=engine.udtype(w)).reshape(-1, 1)
    consts = {"A": (col, ty), "B": (col.reshape(1, -1), ty)}
    exprs = ([CBin(op, CConst("A"), CConst("B")) for op in CEXPR_BINOPS]
             + [CUn(op, CConst("A")) for op in CEXPR_UNOPS])
    shape = (len(vals), len(vals))
    for e in exprs:
        vec = engine.eval_constexpr_vec(e, consts)
        data = np.broadcast_to(np.asarray(vec.data), shape)
        poison = np.broadcast_to(
            np.asarray(False if vec.poison is None else vec.poison), shape)
        for i, j in np.ndindex(*shape):
            a, b = vals[i], vals[j]
            if e.op in (">>u", ">>s") and b >= w:
                continue
            lane = (e, a, b)
            try:
                scalar = semantics.eval_constexpr(
                    e, {"A": (a, ty), "B": (b, ty)}, {})
            except semantics.ConstEvalError:
                assert poison[i, j], lane
                continue
            assert not poison[i, j], lane
            assert int(data[i, j]) == scalar.value, lane


def _float_lanes(prec):
    # the special patterns (both zeros, both infinities, NaN, ±1, 0.5, the
    # smallest subnormal, the largest finite value) plus a negative NaN and
    # a value between 1 and 2
    return sorted(set(engine.special_float_patterns(prec).tolist())
                  | {semantics.CANONICAL_NAN[prec] | 1 << (prec - 1),
                     semantics.float_to_bits(1.5, prec)})


@pytest.mark.parametrize("prec", [16, 32, 64])
@pytest.mark.parametrize("flags", [frozenset(), frozenset({"nnan", "ninf"})])
def test_fcmp_matches_scalar_on_corner_lane_pairs(prec, flags):
    # every fcmp predicate on a column of corner floats against a row of
    # them, NaN, ±0 and ±inf included
    ty = FloatType(prec)
    pats = _float_lanes(prec)
    col = np.array(pats, dtype=engine._FUINT[prec]).view(engine._FLOAT[prec])
    params = {"a": engine.VVal(col.reshape(-1, 1), None, ty),
              "b": engine.VVal(col.reshape(1, -1), None, ty)}
    shape = (len(pats), len(pats))
    for pred in FCMP_PREDS:
        fn = Function("lhs", (("a", ty), ("b", ty)),
                      (Instr("fcmp", (Param("a"), Param("b")), IntType(1),
                             flags, pred),),
                      Local(0))
        vec = engine.eval_function_vec(fn, params, {})
        data = np.broadcast_to(np.asarray(vec.data), shape)
        poison = np.broadcast_to(
            np.asarray(False if vec.poison is None else vec.poison), shape)
        for i, j in np.ndindex(*shape):
            scalar = semantics.eval_function(
                fn, [FloatBits(prec, pats[i]), FloatBits(prec, pats[j])])
            lane = (pred, sorted(flags), hex(pats[i]), hex(pats[j]))
            if scalar is POISON:
                assert poison[i, j], lane
            else:
                assert not poison[i, j], lane
                assert int(data[i, j]) == scalar.value, lane


# width-less literals on both sides of the uint64 range, which compare
# against 64-bit lanes without numpy promotion
_POLY_LITERALS = [-(1 << 64), -(1 << 63) - 1, -(1 << 63), -1, 0, 1, 127,
                  (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, 1 << 70]


@pytest.mark.parametrize("wa, wb", [(8, 8), (64, 64), (1, 8), (8, 16),
                                    (33, 64), (64, 16), (64, None),
                                    (8, None), (33, None)])
def test_pcmp_matches_scalar_on_corner_lane_pairs(wa, wb):
    # every integer comparison, both ways round, between a column of corner
    # values A and a row of corner values B of the same or another width,
    # or (wb None) each width-less literal
    ta = IntType(wa)
    col = _lane_values(wa)
    consts = {"A": (np.array(col, dtype=engine.udtype(wa)).reshape(-1, 1), ta)}
    if wb is None:
        tb, row = None, _POLY_LITERALS
        others = [(CInt(v), [v]) for v in row]
    else:
        tb, row = IntType(wb), _lane_values(wb)
        consts["B"] = (np.array(row, dtype=engine.udtype(wb)).reshape(1, -1),
                       tb)
        others = [(CConst("B"), row)]
    for pred in CMP_PREDS:
        for other, values in others:
            for conj in (PCmp(pred, CConst("A"), other),
                         PCmp(pred, other, CConst("A"))):
                vec = np.broadcast_to(np.asarray(
                    engine.eval_pred_vec(conj, {}, consts), dtype=bool),
                    (len(col), len(values)))
                for i, j in np.ndindex(*vec.shape):
                    scalar_consts = {"A": (col[i], ta)}
                    if tb is not None:
                        scalar_consts["B"] = (values[j], tb)
                    scalar = semantics.eval_predicate(conj, {}, scalar_consts,
                                                      {})
                    assert bool(vec[i, j]) == scalar, (conj, col[i], values[j])


@pytest.mark.parametrize("w", [3, 8, 16, 33, 64])
@pytest.mark.parametrize("op, amounts", [
    # shift amounts at and past the width, and a zero divisor: a (k, 1)
    # column of poison lanes
    ("lshr", lambda w: [0, 1, w - 1, w, w + 1, mask(w)]),
    ("udiv", lambda w: [0, 1, 2, 3, mask(w)]),
])
def test_masks_of_different_shapes_match_scalar(op, amounts, w):
    # `add nsw` on the (1, m) row of x makes a row of poison lanes; the
    # kernel of the second instruction makes a (k, 1) column of them from
    # its column operand c, and the two masks meet in one (k, m) block
    ty = IntType(w)
    dt = engine.udtype(w)
    row = _lane_values(w)
    col = [v & mask(w) for v in amounts(w)]
    fn = Function("lhs", (("x", ty), ("c", ty)),
                  (Instr("add", (Param("x"), Param("x")), ty,
                         frozenset({"nsw"}), None),
                   Instr(op, (Local(0), Param("c")), ty, frozenset(), None)),
                  Local(1))
    vec = engine.eval_function_vec(fn, {
        "x": engine.VVal(np.array(row, dtype=dt).reshape(1, -1), None, ty),
        "c": engine.VVal(np.array(col, dtype=dt).reshape(-1, 1), None, ty)},
        {})
    shape = (len(col), len(row))
    data = np.broadcast_to(np.asarray(vec.data), shape)
    poison = np.broadcast_to(np.asarray(vec.poison), shape)
    for i, j in np.ndindex(*shape):
        scalar = semantics.eval_function(fn, [Bits(w, row[j]), Bits(w, col[i])])
        lane = (op, w, row[j], col[i])
        if scalar is POISON:
            assert poison[i, j], lane
        else:
            assert not poison[i, j], lane
            assert int(data[i, j]) == scalar.value, lane


def test_predicate_masks_of_different_shapes_match_scalar():
    # a constant-only conjunct over a (k, 1) column of constants (out of
    # domain where C2 is 0) and a parameter conjunct over a (1, m) row of
    # inputs (false where x is poison), joined by `&&` (as a tuple and as
    # an operator), `||` and `!`
    ty = IntType(8)
    consts_ty = {"C1": ty, "C2": ty}
    c1 = [0, 7, 40, 200, 255, 90]
    c2 = [0, 1, 3, 0, 255, 2]
    xs = [0, 2, 3, 100, 200, 201, 255]
    x_poison = [False, False, True, False, False, True, False]
    consts = {"C1": (np.array(c1, dtype=np.uint8).reshape(-1, 1), ty),
              "C2": (np.array(c2, dtype=np.uint8).reshape(-1, 1), ty)}
    params = {"x": engine.VVal(np.array(xs, dtype=np.uint8).reshape(1, -1),
                               np.array(x_poison).reshape(1, -1), ty)}
    for src in ["C1 / C2 <=u 40 && RangeU(%x, 3, 200)",
                "C1 / C2 <=u 40 || RangeU(%x, 3, 200)",
                "!(C1 / C2 <=u 40) || RangeU(%x, 3, 200)",
                "C1 / C2 <=u 40 && !RangeU(%x, 3, 200)",
                "!(C1 / C2 <=u 40 && RangeU(%x, 3, 200))",
                "!(C1 / C2 <=u 40 || RangeU(%x, 3, 200))"]:
        conjs = textfmt.parse_conjuncts(src, consts_ty)
        for p in (conjs, PAnd(*conjs)) if len(conjs) == 2 else conjs:
            vec = np.broadcast_to(np.asarray(
                engine.eval_pred_vec(p, params, consts), dtype=bool),
                (len(c1), len(xs)))
            for i, j in np.ndindex(*vec.shape):
                x = POISON if x_poison[j] else Bits(8, xs[j])
                scalar = semantics.eval_predicate(
                    p, {"x": x}, {"C1": (c1[i], ty), "C2": (c2[i], ty)}, {})
                assert bool(vec[i, j]) == scalar, (src, c1[i], c2[i], xs[j])
