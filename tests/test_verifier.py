import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from peepgen import engine, semantics, textfmt, verifier
from peepgen.ir import (CBIN_OPS, CUN_OPS, INT_BINOPS, INT_UNOPS, LEGAL_FLAGS,
                        CBin, CCast, CConst, CInt, CRef, CUn, Function, Instr,
                        IntType, Literal, Local, Param, PCmp, PeepError,
                        PKnownBits, PLowBitsZero, PNot, POr, PPow2, PRange,
                        Rule, SymConst, bind_consts, pred_param_refs,
                        validate)
from peepgen.verifier import (Budget, EquivalentOrIncomparable, Inconclusive,
                              Refuted, StrictlyWeaker, Verified,
                              check_refinement, check_strictly_weaker,
                              reduce_widths, replay_counterexample,
                              verdict_to_json, verify_with_reduction)

from conftest import (FIXTURES, POISON, oracle_check_refinement, oracle_eval,
                      oracle_pre, parse)

SMALL_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr",
             "udiv", "urem", "smin", "umax", "neg", "not", "ctpop", "cttz"]
UNARY = {"neg", "not", "ctpop", "cttz"}


def _draw_rule(draw, ty, sym_consts, pre, ops=SMALL_OPS, any_flags=False):
    """A valid rule over one input `x` of type `ty` whose bodies may use
    `sym_consts` and `ops` (with `nsw` or `nuw` on wrapping ops, or with
    any set of legal flags); rejects the example when the rule does not
    validate."""
    w = ty.width
    params = (("x", ty),)

    def body(n):
        instrs = []
        for i in range(n):
            pool = [Param("x")] + [Local(j) for j in range(i)]
            pool += [SymConst(c, t) for c, t in sym_consts]
            pool.append(Literal(draw(st.integers(0, (1 << w) - 1)), ty))
            op = draw(st.sampled_from(ops))
            if any_flags:
                legal = sorted(LEGAL_FLAGS.get(op, ()))
                flags = (frozenset(draw(st.sets(st.sampled_from(legal))))
                         if legal else frozenset())
            else:
                flags = (frozenset(draw(st.sets(
                    st.sampled_from(["nsw", "nuw"]), max_size=1)))
                    if op in ("add", "sub", "mul", "shl") else frozenset())
            arity = 1 if op in UNARY else 2
            operands = tuple(draw(st.sampled_from(pool))
                             for _ in range(arity))
            instrs.append(Instr(op, operands, ty, flags, None))
        return tuple(instrs)

    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    rule = Rule("gen", sym_consts, (), tuple(pre),
                Function("lhs", params, body(n), Local(n - 1)),
                Function("rhs", params, body(m), Local(m - 1)))
    if validate(rule):
        draw(st.nothing())
    return rule


@st.composite
def small_rules(draw):
    w = draw(st.sampled_from([2, 3, 4]))
    ty = IntType(w)
    nconsts = draw(st.integers(0, 1))
    sym_consts = tuple((f"C{i + 1}", ty) for i in range(nconsts))
    pre = []
    if sym_consts and draw(st.booleans()):
        pre.append(draw(st.sampled_from([
            PPow2(CConst("C1")),
            PCmp("ult", CConst("C1"), CInt(draw(st.integers(1, (1 << w) - 1)))),
        ])))
    return _draw_rule(draw, ty, sym_consts, pre)


@settings(max_examples=1000, deadline=None)
@given(small_rules())
def test_exhaustive_verifier_matches_brute_force(rule):
    verdict = check_refinement(rule, {}, Budget(exhaustive_limit=1 << 20))
    violation = oracle_check_refinement(rule)
    if isinstance(verdict, Verified):
        assert verdict.mode == "exhaustive"
        assert violation is None
    elif isinstance(verdict, Refuted):
        assert violation is not None
        assert replay_counterexample(rule, verdict.counterexample)
    else:
        assert verdict.reason == "NoSatisfyingConstants"
        assert violation is None


@st.composite
def derivable_rules(draw):
    """2-3 constants (two at i4) under pin pairs, some with a literal that
    no pattern of the width encodes, equalities between constants that may
    form cycles, and `ult` bounds."""
    w = draw(st.sampled_from([2, 3, 4]))
    ty = IntType(w)
    # three i4 constants would make the brute-force oracle the whole cost
    count = draw(st.integers(2, 3 if w < 4 else 2))
    names = [f"C{i + 1}" for i in range(count)]
    const = st.sampled_from(names).map(CConst)
    expr = st.one_of(
        const,
        st.builds(CBin, st.sampled_from(["+", "-", "^", "&", "|"]), const,
                  st.one_of(const, st.integers(0, (1 << w) - 1).map(CInt))))
    pre = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["pin", "eq", "ult"]))
        c = draw(const)
        if kind == "pin":
            k = CInt(draw(st.integers(-1, 1 << w)))
            pre += [PCmp("ule", c, k), PCmp("uge", c, k)]
        elif kind == "eq":
            pre.append(PCmp("eq", c, draw(expr)))
        else:
            pre.append(PCmp("ult", c, CInt(draw(st.integers(1, 1 << w)))))
    pre = draw(st.permutations(pre))
    return _draw_rule(draw, ty, tuple((n, ty) for n in names), pre)


def _satisfiable(rule) -> bool:
    # every conjunct is constant-only: brute force with the scalar evaluator
    for values in itertools.product(*(range(1 << ty.width)
                                      for _, ty in rule.sym_consts)):
        consts = {n: (v, ty) for (n, ty), v in zip(rule.sym_consts, values)}
        if semantics.eval_predicate(rule.pre, {}, consts, {}):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(derivable_rules())
def test_derived_constants_keep_verdicts_complete(rule):
    satisfiable = _satisfiable(rule)
    violation = oracle_check_refinement(rule) if satisfiable else None
    # exact: every constant assignment is enumerated (free ones) or derived
    exact = check_refinement(rule, {}, Budget(exhaustive_limit=1 << 20))
    if isinstance(exact, Verified):
        assert exact.mode == "exhaustive" and violation is None
    elif isinstance(exact, Refuted):
        assert violation is not None
        assert replay_counterexample(rule, exact.counterexample)
    else:
        assert exact.reason == "NoSatisfyingConstants"
        assert not satisfiable
    # sampled: a budget below the constant space sends most rules through
    # constant sampling, which must still find a non-empty satisfying set
    sampled = check_refinement(
        rule, {}, Budget(exhaustive_limit=16, constant_sample_count=8))
    if isinstance(sampled, Refuted):
        assert violation is not None
        assert replay_counterexample(rule, sampled.counterexample)
    elif isinstance(sampled, Inconclusive):
        assert sampled.reason == "NoSatisfyingConstants"
        assert not satisfiable


def _satisfying_count(rule) -> int:
    # the constant assignments that satisfy the constant-only conjuncts,
    # counted with the scalar evaluator
    pre = [c for c in rule.pre if not pred_param_refs(c)]
    return sum(
        semantics.eval_predicate(pre, {}, {n: (v, ty) for (n, ty), v in
                                           zip(rule.sym_consts, values)}, {})
        for values in itertools.product(*(range(1 << ty.width)
                                          for _, ty in rule.sym_consts)))


@st.composite
def constant_looping_rules(draw):
    """0-2 constants under `pow2`/`ult` bounds only, so none is derived,
    and no more satisfying assignments than inputs, so the exhaustive scan
    loops constants in the brute-force oracle's order."""
    w = draw(st.sampled_from([2, 3, 4]))
    ty = IntType(w)
    names = [f"C{i + 1}" for i in range(draw(st.integers(0, 2)))]
    pre = [draw(st.sampled_from([
        PPow2(CConst(n)),
        PCmp("ult", CConst(n), CInt(draw(st.integers(1, (1 << w) - 1))))]))
        for n in names if draw(st.booleans())]
    rule = _draw_rule(draw, ty, tuple((n, ty) for n in names), pre)
    assume(_satisfying_count(rule) <= 1 << w)
    return rule


@st.composite
def param_precondition_rules(draw):
    """`constant_looping_rules` with 1-2 parameter conjuncts as well:
    RangeU/RangeS, KnownBits, LowBitsZero and comparisons on %x, with
    literal or constant bounds, some under `!` and `||`."""
    w = draw(st.sampled_from([2, 3, 4]))
    ty = IntType(w)
    names = [f"C{i + 1}" for i in range(draw(st.integers(0, 2)))]
    pre = [draw(st.sampled_from([
        PPow2(CConst(n)),
        PCmp("ult", CConst(n), CInt(draw(st.integers(1, (1 << w) - 1))))]))
        for n in names if draw(st.booleans())]
    def term(lo, hi):
        lit = st.integers(lo, hi).map(CInt)
        return lit | st.sampled_from(names).map(CConst) if names else lit

    bound = term(-(1 << (w - 1)), (1 << w) - 1)
    x = st.just("x")
    atom = st.one_of(
        st.builds(PRange, x, bound, bound, st.booleans()),
        st.builds(PKnownBits, x, bound, bound),
        st.builds(PLowBitsZero, x, term(0, w + 1)),
        st.builds(PCmp, st.sampled_from(["eq", "ne", "ult", "sge"]),
                  st.just(CRef("x")), bound))
    pre += draw(st.lists(atom | st.builds(PNot, atom)
                         | st.builds(POr, atom, atom), min_size=1, max_size=2))
    rule = _draw_rule(draw, ty, tuple((n, ty) for n in names),
                      draw(st.permutations(pre)))
    assume(_satisfying_count(rule) <= 1 << w)
    return rule


@st.composite
def accepted_rules(draw):
    """Rules over one input at widths 1-64 with every integer instruction
    (division and remainder with and without `exact`, the bit counts, any
    legal flags) and 0-2 constants under constant and parameter conjuncts
    built from the constant operators and casts, some under `!` and `||`;
    the rule is kept only when `ir.validate` accepts it."""
    w = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 33, 64]))
    ty = IntType(w)
    names = [f"C{i + 1}" for i in range(draw(st.integers(0, 2)))]
    lit = st.integers(-(1 << w), (1 << w) + 1).map(CInt)
    leaf = lit | st.sampled_from(names).map(CConst) if names else lit
    # `>>u`/`>>s` by the width or more are out of domain in the engine but
    # not in the scalar evaluator (the strict xfail in test_engine.py), so
    # a rule that tests one under `!` raises ReplayMismatch; they stay out
    # until the two agree
    ops = [op for op in CBIN_OPS if op not in (">>u", ">>s")]
    expr = st.recursive(leaf, lambda sub: st.one_of(
        st.builds(CBin, st.sampled_from(ops), sub, sub),
        st.builds(CUn, st.sampled_from(CUN_OPS), sub),
        st.builds(CCast, st.sampled_from(["zext", "sext", "trunc"]), sub,
                  st.just(w))), max_leaves=3)
    x = st.just("x")
    atom = st.one_of(
        st.builds(PPow2, expr),
        st.builds(PCmp, st.sampled_from(["eq", "ne", "ult", "uge", "slt",
                                         "sge"]), expr, expr),
        st.builds(PRange, x, expr, expr, st.booleans()),
        st.builds(PKnownBits, x, expr, expr),
        st.builds(PLowBitsZero, x, expr),
        st.builds(PCmp, st.sampled_from(["eq", "ult", "sge"]),
                  st.just(CRef("x")), expr))
    pre = draw(st.lists(atom | st.builds(PNot, atom)
                        | st.builds(POr, atom, atom), max_size=3))
    return _draw_rule(draw, ty, tuple((n, ty) for n in names), pre,
                      ops=list(INT_BINOPS + INT_UNOPS), any_flags=True)


@settings(max_examples=400, deadline=None)
@given(accepted_rules(), st.data())
def test_accepted_rules_get_a_verdict_or_a_peep_error(rule, data):
    # a rule `validate` accepts is a verdict for the verifier and a value or
    # a PeepError for the scalar evaluator at any point, never another
    # exception (an internal alarm such as ReplayMismatch included)
    budget = Budget(exhaustive_limit=1 << 12, sample_count=256,
                    constant_sample_count=8)
    assert check_refinement(rule, {}, budget).kind in (
        "verified", "refuted", "inconclusive")
    (x, ty), = rule.lhs.params
    pattern = st.integers(0, (1 << ty.width) - 1)
    consts = {n: (data.draw(pattern), t) for n, t in rule.sym_consts}
    arg = semantics.Bits(ty.width, data.draw(pattern))
    try:
        assert isinstance(semantics.eval_predicate(rule.pre, {x: arg}, consts,
                                                   {}), bool)
    except PeepError:
        pass
    inst = bind_consts(rule, consts)
    for fn in (inst.lhs, inst.rhs):
        try:
            semantics.eval_function(fn, [arg])
        except PeepError:
            pass


@pytest.mark.parametrize("pre, verdict", [
    # a negative shift amount in a width-less constant expression
    (PPow2(CBin(">>s", CInt(0), CInt(-1))), "inconclusive"),
    (PPow2(CBin("<<", CInt(0), CInt(-1))), "inconclusive"),
    # a width-less left shift past the widest type
    (PPow2(CBin("<<", CInt(1), CInt(65))), "inconclusive"),
    # a low-bit count below 0
    (PLowBitsZero("x", CUn("neg", CInt(1))), "verified"),
    # an out-of-domain operand of a width-less constant operator
    (PPow2(CUn("cttz", CUn("popcount", CInt(-1)))), "inconclusive"),
    # a false literal-only conjunct in a rule without constants
    (PPow2(CInt(0)), "inconclusive"),
])
def test_out_of_domain_preconditions_admit_no_point(pre, verdict):
    # `x + x` is not `x + 0` at x = 1, but no point satisfies the
    # precondition: both evaluators read it as false
    def add_x(name, b):
        return Function(name, (("x", IntType(1)),),
                        (Instr("add", (Param("x"), b), IntType(1),
                               frozenset(), None),), Local(0))

    rule = Rule("gen", (), (), (pre,), add_x("lhs", Param("x")),
                add_x("rhs", Literal(0, IntType(1))))
    assert not validate(rule)
    assert check_refinement(rule, {}, Budget()).kind == verdict
    assert not semantics.eval_predicate(
        rule.pre, {"x": semantics.Bits(1, 1)}, {}, {})


# (verifier._BLOCK, verifier._CHUNK) pairs that split small scans into many
# blocks and, below the input grid's size, stream the grid in chunks
_SCAN_SIZES = st.sampled_from([(1, 1 << 22), (3, 1 << 22), (1 << 16, 1 << 22),
                               (5, 4), (1 << 16, 8)])


@settings(max_examples=300, deadline=None)
@given(constant_looping_rules(), _SCAN_SIZES)
def test_exhaustive_counterexample_is_first_violation(rule, sizes):
    _assert_first_violation(rule, sizes)


@settings(max_examples=300, deadline=None)
@given(param_precondition_rules(), _SCAN_SIZES)
def test_compacted_scan_counterexample_is_first_violation(rule, sizes):
    # a sparse parameter precondition makes each block evaluate lhs and rhs
    # on its admitted points only; the first violation must not move
    _assert_first_violation(rule, sizes)


def _assert_first_violation(rule, sizes):
    # shrinking the block and chunk sizes splits these small scans into
    # many blocks (and streams the input grid once it exceeds a chunk);
    # none of that may change which violation is reported first
    saved = verifier._BLOCK, verifier._CHUNK
    verifier._BLOCK, verifier._CHUNK = sizes
    try:
        verdict = check_refinement(rule, {}, Budget(exhaustive_limit=1 << 20))
    finally:
        verifier._BLOCK, verifier._CHUNK = saved
    violation = oracle_check_refinement(rule)
    if isinstance(verdict, Refuted):
        cx = verdict.counterexample
        assert (cx.consts, cx.inputs) == violation
    else:
        assert violation is None


@st.composite
def narrowed_rules(draw):
    """1-3 constants at i2-i6 (fewer at the wider widths, so the brute-force
    oracle stays cheap) under single-constant conjuncts whose allowed sets
    are mostly not powers of two, and at most one conjunct relating two
    constants, which narrowing leaves to the walk's filter."""
    w = draw(st.sampled_from([2, 3, 4, 5, 6]))
    ty = IntType(w)
    top = (1 << w) - 1
    names = [f"C{i + 1}" for i in range(
        draw(st.integers(1, {2: 3, 3: 3, 4: 2, 5: 1, 6: 1}[w])))]
    pre = []
    for name in names:
        c = CConst(name)
        pre += draw(st.lists(st.sampled_from([
            PPow2(c), PNot(PPow2(c)),
            PCmp("ult", c, CInt(draw(st.integers(1, top)))),
            PCmp("uge", c, CInt(draw(st.integers(0, top)))),
            PCmp("ne", c, CInt(draw(st.integers(0, top))))]), max_size=2))
    if len(names) > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(names))[:2]
        pre.append(PCmp(draw(st.sampled_from(["ne", "ult"])),
                        CConst(a), CConst(b)))
    pre = draw(st.permutations(pre))
    return _draw_rule(draw, ty, tuple((n, ty) for n in names), pre)


def _oracle_violations(rule) -> list:
    """Every (consts, inputs) violation of a rule over one input, in the
    brute-force oracle's order: constants outer, inputs inner."""
    (x, ty), = rule.lhs.params
    out = []
    for values in itertools.product(*(range(1 << t.width)
                                      for _, t in rule.sym_consts)):
        consts = dict(zip((n for n, _ in rule.sym_consts), values))
        inst = bind_consts(rule, {n: (consts[n], t)
                                  for n, t in rule.sym_consts})
        for v in range(1 << ty.width):
            if not oracle_pre(rule, consts, {x: v}):
                continue
            lv = oracle_eval(inst.lhs, {x: v})
            rv = oracle_eval(inst.rhs, {x: v})
            if lv != POISON and (rv == POISON or rv != lv):
                out.append((consts, {x: v}))
    return out


@settings(max_examples=200, deadline=None)
@given(narrowed_rules(),
       st.sampled_from([(1, 1 << 22), (5, 4), (1 << 16, 8)]),
       st.booleans())
def test_narrowed_exhaustive_verdicts_match_oracle(rule, sizes, tight):
    # a tight budget puts the walk's stop bound just past the satisfying
    # count, so it walks a seeded permutation of the narrowed space to the
    # end and sorts its finds back to index order
    sat = _satisfying_count(rule)
    w = rule.lhs.params[0][1].width
    budget = Budget(exhaustive_limit=1 << 20)
    if tight:
        free, _ = verifier.typed_const_defs(rule)
        size = verifier._FreeSpace(free, list(rule.pre)).size
        budget = Budget(exhaustive_limit=max(max(sat, 1) << w, size),
                        constant_sample_count=0)
    saved = verifier._BLOCK, verifier._CHUNK
    verifier._BLOCK, verifier._CHUNK = sizes
    try:
        verdict = check_refinement(rule, {}, budget)
    finally:
        verifier._BLOCK, verifier._CHUNK = saved
    if sat == 0:
        assert verdict.kind == "inconclusive"
        assert verdict.reason == "NoSatisfyingConstants"
        return
    violations = _oracle_violations(rule)
    assert violations[:1] == ([oracle_check_refinement(rule)]
                              if violations else [])
    assert verdict.kind != "inconclusive"
    if isinstance(verdict, Verified):
        assert verdict.mode == "exhaustive" and not violations
        assert verdict.space == f"{sat} constants x {1 << w} inputs"
        return
    # the scan loops inputs when more constants than inputs satisfy the
    # precondition, so its first violation is then the first in input order
    if sat > 1 << w:
        violations.sort(key=lambda v: (tuple(v[1].values()),
                                       tuple(v[0].values())))
    cx = verdict.counterexample
    assert (cx.consts, cx.inputs) == violations[0]


def test_walk_permutation_is_a_seeded_bijection():
    for bits in range(21):
        idx = np.arange(1 << bits, dtype=np.uint32)
        for seed in (0, 1):
            assert np.array_equal(np.sort(verifier._permute(idx, bits, seed)),
                                  idx)
    idx = np.arange(1 << 12, dtype=np.uint32)
    assert not np.array_equal(verifier._permute(idx, 12, 0),
                              verifier._permute(idx, 12, 1))


def test_sampled_walk_stops_early_with_a_spread_sample(monkeypatch):
    # all 2^24 tuples of xor_and's free constants satisfy its precondition:
    # the walk stops after 65537 of them (the exhaustive bound at 256
    # inputs) instead of filtering the whole space, and its 256 constants
    # come from a seeded permutation, not the first 256 in index order
    rule = parse((FIXTURES / "rules" / "xor_and_distribute.peep").read_text())
    filtered, scanned = [], []
    satisfying, scan_sampled = verifier._satisfying, verifier._scan_sampled

    def count(free, defs, const_only, patterns, n):
        filtered.append(n)
        return satisfying(free, defs, const_only, patterns, n)

    def keep(resolved, widths, const_map, budget, rng):
        scanned.append(const_map)
        return scan_sampled(resolved, widths, const_map, budget, rng)

    monkeypatch.setattr(verifier, "_satisfying", count)
    monkeypatch.setattr(verifier, "_scan_sampled", keep)
    verdict = check_refinement(rule, {}, Budget())
    assert verdict_to_json(verdict)["space"] == (
        "4352 sampled constants x 256 inputs (full grid)")
    assert sum(filtered) <= 1 << 18
    for name in ("C1", "C2", "C3"):
        assert len(np.unique(scanned[0][name][0][:256])) >= 128


def _reference_walk(resolved, space, defs, stop, seed):
    """The walk's contract, from whole-space filters: with fewer than
    `stop` satisfying tuples (or no bound) it is the index-order
    enumeration; otherwise the satisfying tuples of the whole permuted
    order, cut after the first `_WALK_PIECE` indices whose finds reach
    `stop`."""
    total = space.size
    bits = sum(space.bits)
    idx = np.arange(total, dtype=engine.index_dtype(bits))
    everything, _keep = space.satisfying(idx, defs)
    if stop is None or verifier._const_count(everything) < stop:
        return {name: everything[name] for name, _ in resolved.sym_consts}
    order = verifier._permute(idx, bits, seed) if stop < total else idx
    sat, keep = space.satisfying(order, defs)
    finds = np.cumsum(keep)
    # the end of the piece holding the index at which the finds reach stop
    end = (int(np.argmax(finds >= stop)) // verifier._WALK_PIECE + 1) * \
        verifier._WALK_PIECE
    kept = int(finds[min(end, total) - 1])
    return {name: (sat[name][0][:kept], ty)
            for name, ty in resolved.sym_consts}


@st.composite
def walked_spaces(draw):
    """1-3 constants of at most 12 bits together, under 0-3 conjuncts that
    compare a constant with a literal, another constant or a sum or xor of
    the two (some fold into narrowing, some define a constant, the rest
    filter the walk); returns (rule, free constants, definitions,
    const-only conjuncts)."""
    names, types, left = [], [], 12
    for i in range(draw(st.integers(1, 3))):
        if left < 1:
            break
        w = draw(st.integers(1, min(left, 8)))
        names.append(f"C{i + 1}")
        types.append(IntType(w))
        left -= w
    const = st.sampled_from(names).map(CConst)
    lit = st.integers(0, 255).map(CInt)
    expr = const | lit | st.builds(CBin, st.sampled_from(["+", "^"]), const,
                                   const | lit)
    pre = draw(st.lists(st.one_of(
        st.builds(PCmp, st.sampled_from(["eq", "ne", "ult", "uge"]), const,
                  expr),
        st.builds(PPow2, const)), max_size=3))
    ty = types[0]
    rule = Rule("walk", tuple(zip(names, types)), (), tuple(pre),
                Function("lhs", (("x", ty),), (), Param("x")),
                Function("rhs", (("x", ty),), (), Param("x")))
    free, defs = verifier.typed_const_defs(rule)
    return rule, free, defs, list(rule.pre)


@pytest.mark.parametrize("piece", [1, 3, 7, 1 << 14])
@settings(max_examples=25, deadline=None)
@given(walked_spaces())
def test_walk_stops_after_the_piece_that_reaches_its_bound(piece, space):
    # its tuples, their order and whether it is complete are those of the
    # reference, for every piece size
    rule, free, defs, const_only = space
    saved = verifier._WALK_PIECE
    verifier._WALK_PIECE = piece
    try:
        walked = verifier._FreeSpace(free, const_only)
        total = walked.size
        for stop in (None, 1, 2, 65, total - 1, total):
            if stop is not None and stop < 1:
                continue
            for seed in (0, 1):
                got = verifier._walk(rule, walked, defs, stop, seed)
                want = _reference_walk(rule, walked, defs, stop, seed)
                assert list(got) == list(want)
                for name, (arr, ty) in want.items():
                    assert got[name][1] == ty
                    assert np.array_equal(got[name][0], arr)
    except engine.UnsupportedConstruct:
        assume(False)
    finally:
        verifier._WALK_PIECE = saved


# FOUND-32's walk: C2 is not derived (cttz(cttz(C1)) is i8), so all 2^24
# tuples are filtered to find the 256 that satisfy the conjunct
SPARSE_WALK = """
rule "sparse_walk" {
  const C1: i8;
  const C2: i16;
  pre: C2 == cttz(cttz(C1));
  lhs fn(x: i8) -> i8 { ret %x }
  rhs fn(x: i8) -> i8 { ret %x }
}
"""


def test_sparse_walk_memory_stays_at_one_piece():
    import tracemalloc

    rule = parse(SPARSE_WALK)
    free, defs = verifier.typed_const_defs(rule)
    space = verifier._FreeSpace(free, list(rule.pre))
    budget = Budget()
    stop = budget.exhaustive_limit // 256 + 1
    tracemalloc.start()
    try:
        const_map = verifier._walk(rule, space, defs, stop, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # complete: fewer finds than the bound, so every index was visited
    assert space.size == 1 << 24
    assert verifier._const_count(const_map) == 256 < stop
    assert peak < 16 << 20


# A weak trial of clamp_concrete's stage-1 fit: C1 is derived, and the
# special-value pools of C2..C5 (39 patterns each) cross to 2,313,441 tuples
WEAK_CLAMP = """
rule "clamp_concrete" {
  const C1: i16;
  const C2: i16;
  const C3: i16;
  const C4: i16;
  const C5: i16;
  pre: C2 <=u 65381 && C3 >=u 100 && C5 >=u 256 && C1 == C2 + C4 && C1 == C5 - C4 ^ C2;
  lhs fn(x: i16) -> i1 {
    %0 = add i16 %x, C1;
    %1 = smax i16 %0, C2;
    %2 = smin i16 %1, C3;
    %3 = icmp.eq i16 %2, %0;
    ret %3
  }
  rhs fn(x: i16) -> i1 {
    %0 = add i16 %x, C4;
    %1 = icmp.ult i16 %0, C5;
    ret %1
  }
}
"""


def reference_sample_satisfying_consts(resolved, free, defs, const_only,
                                       budget, rng):
    """The unstreamed sampler: the whole special-value cross is built and
    filtered at once, then random draws until the sample count."""
    batches = []
    specials = verifier._cross_pools(
        verifier._const_special_pools(resolved, free), verifier._CHUNK)
    if specials:
        batches.append(verifier._satisfying(free, defs, const_only, specials,
                                            len(specials[0]))[0])
    found = sum(map(verifier._const_count, batches))
    drawn = 0
    while (found < budget.constant_sample_count
           and drawn < verifier.REJECTION_CAP):
        take = min(8192, verifier.REJECTION_CAP - drawn)
        batches.append(verifier._satisfying(
            free, defs, const_only,
            verifier._sample_free_patterns(rng, free, take), take)[0])
        found += verifier._const_count(batches[-1])
        drawn += take
    if found == 0:
        return None
    limit = budget.constant_sample_count
    return {name: (data[:limit], ty)
            for name, (data, ty) in verifier._join(resolved, batches).items()}


# every constant free: the pools cross to more than `_CHUNK` tuples, so the
# sampler takes their diagonal
FREE_CLAMP = WEAK_CLAMP.replace(
    " && C5 >=u 256 && C1 == C2 + C4 && C1 == C5 - C4 ^ C2", "")


@pytest.mark.parametrize("text, count", [
    pytest.param(WEAK_CLAMP, None, id="probe-budget"),
    pytest.param(WEAK_CLAMP, 0, id="count-0"),
    # more than the cross holds: the whole cross, then random draws
    pytest.param(WEAK_CLAMP, 1 << 20, id="past-the-cross"),
    pytest.param(FREE_CLAMP, None, id="diagonal"),
    pytest.param(SPARSE_WALK, None, id="small-cross"),
])
def test_streamed_special_cross_samples_as_the_whole_cross(text, count):
    from peepgen import proposer

    rule = parse(text)
    free, defs = verifier.typed_const_defs(rule)
    const_only = [c for c in rule.pre if not pred_param_refs(c)]
    budget = proposer._probe_budget(Budget(rng_seed=0))
    if count is not None:
        budget = dataclasses.replace(budget, constant_sample_count=count)
    rngs = [np.random.default_rng(0) for _ in range(2)]
    got = verifier.sample_satisfying_consts(rule, free, defs, const_only,
                                            budget, rngs[0])
    want = reference_sample_satisfying_consts(rule, free, defs, const_only,
                                              budget, rngs[1])
    assert got.keys() == want.keys()
    for name in want:
        assert got[name][1] == want[name][1]
        assert np.array_equal(got[name][0], want[name][0])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_streamed_special_cross_memory_stays_at_a_few_pieces():
    import tracemalloc

    from peepgen import proposer

    rule = parse(WEAK_CLAMP)
    free, defs = verifier.typed_const_defs(rule)
    const_only = [c for c in rule.pre if not pred_param_refs(c)]
    budget = proposer._probe_budget(Budget(rng_seed=0))
    assert math.prod(map(len, verifier._const_special_pools(rule, free))) \
        == 2_313_441
    tracemalloc.start()
    try:
        const_map = verifier.sample_satisfying_consts(
            rule, free, defs, const_only, budget, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole cross filtered at once peaks at about 46 MB
    assert verifier._const_count(const_map) == budget.constant_sample_count
    assert peak < 8 << 20


@settings(max_examples=200, deadline=None)
@given(small_rules(), st.integers(0, 1000))
def test_exhaustive_verdict_does_not_depend_on_the_seed(rule, seed):
    # the pipeline reuses an exhaustive verdict under another seed with only
    # its seed changed; that is sound only if the check agrees
    budget = Budget(exhaustive_limit=1 << 20, rng_seed=seed)
    verdict = check_refinement(rule, {}, budget)
    assume(isinstance(verdict, Verified) and verdict.mode == "exhaustive")
    again = check_refinement(rule, {}, Budget(exhaustive_limit=1 << 20,
                                              rng_seed=seed + 1))
    assert again == dataclasses.replace(verdict, seed=seed + 1)


@settings(max_examples=300, deadline=None)
@given(small_rules())
def test_verifier_is_deterministic(rule):
    b = Budget(exhaustive_limit=1 << 20, rng_seed=7)
    v1 = check_refinement(rule, {}, b)
    v2 = check_refinement(rule, {}, b)
    assert verdict_to_json(v1) == verdict_to_json(v2)


def test_sampled_determinism_large_rule(fixture_corpus):
    fx = next(f for f in fixture_corpus if f.name == "clamp_range")
    b = Budget(rng_seed=11)
    v1 = verifier.check_refinement(fx.rule, {}, b)
    v2 = verifier.check_refinement(fx.rule, {}, b)
    assert verdict_to_json(v1) == verdict_to_json(v2)
    assert v1.kind == "verified" and v1.mode == "sampled"


WEAKER_RULE = """
rule "w" {
  const C1: i8;
  pre: C1 >s 0;
  lhs fn(x: i8) -> i8 { %0 = umax i8 %x, C1; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = umax i8 C1, %x; ret %0 }
}
"""


def _conj(src):
    return textfmt.parse_conjuncts(src, {"C1": IntType(8)})


def test_strictly_weaker_positive_pair():
    rule = parse(WEAKER_RULE)
    result = check_strictly_weaker(rule, _conj("C1 >=s 0"))
    assert isinstance(result, StrictlyWeaker)
    assert result.witness["C1"] == 0


def test_strictly_weaker_equivalent_pair():
    rule = parse(WEAKER_RULE)
    result = check_strictly_weaker(rule, _conj("C1 >=s 1"))
    assert isinstance(result, EquivalentOrIncomparable)
    assert result.direction == "no_witness"


def test_strictly_weaker_rejects_non_implied():
    rule = parse(WEAKER_RULE)
    result = check_strictly_weaker(rule, _conj("C1 >s 1"))
    assert isinstance(result, EquivalentOrIncomparable)
    assert result.direction == "not_implied"


CHUNKED_WEAKER_RULE = """
rule "w" {
  const C1: i4;
  const C2: i4;
  pre: %s;
  lhs fn(x: i4) -> i4 { %%0 = and i4 %%x, C1; ret %%0 }
  rhs fn(x: i4) -> i4 { %%0 = and i4 C1, %%x; ret %%0 }
}
"""

SAMPLED_WEAKER_RULE = """
rule "w" {
  const C1: i8;
  pre: %s;
  lhs fn(x: i8) -> i8 { %%0 = and i8 %%x, C1; ret %%0 }
  rhs fn(x: i8) -> i8 { %%0 = and i8 C1, %%x; ret %%0 }
}
"""


@pytest.mark.parametrize("block", [4, 5, 1 << 16])
@pytest.mark.parametrize("chunk", [4, 5, 1 << 22])
@pytest.mark.parametrize("pre, weak, sampled, kind, point", [
    # exhaustive over (C1, C2) or (C1, C2, x): the point's flat index is
    # past the first chunk of 4 or 5 tuples
    ("C1 == 3 && C2 >=u 5", "C1 == 3", False,
     "strictly_weaker", {"C1": 3, "C2": 0}),
    ("C1 >=u 2", "C1 >=u 2 && C2 != 7", False,
     "not_implied", {"C1": 2, "C2": 7}),
    ("C1 == 1 && RangeU(%x, 2, 9)", "C1 == 1", False,
     "strictly_weaker", {"C1": 1, "C2": 0, "x": 0}),
    ("C1 == 1 && RangeU(%x, 2, 9)",
     "C1 == 1 && RangeU(%x, 3, 9)", False,
     "not_implied", {"C1": 1, "C2": 0, "x": 2}),
    # sampled: C1 = 78 is the only separating value, deep in the sample
    ("C1 != 77 && C1 != 78", "C1 != 77", True,
     "strictly_weaker", {"C1": 78}),
    ("C1 != 77", "C1 != 77 && C1 != 78", True,
     "not_implied", {"C1": 78}),
])
def test_strictly_weaker_across_chunks(monkeypatch, block, chunk, pre, weak,
                                       sampled, kind, point):
    # the point space is read in pieces of _WEAKER_PIECE points, and _CHUNK
    # caps the sampled special cross (one i8 pool: its diagonal is the pool
    # itself); the first separating or non-implied point must not depend
    # on where the pieces end
    rule = parse((SAMPLED_WEAKER_RULE if sampled else CHUNKED_WEAKER_RULE)
                 % pre)
    conj = textfmt.parse_conjuncts(weak, dict(rule.sym_consts))
    budget = (Budget(exhaustive_limit=8, sample_count=4096) if sampled
              else Budget())
    if sampled:
        pats = verifier._sampled_patterns(
            np.random.default_rng(budget.rng_seed), rule.sym_consts,
            budget.sample_count, verifier._CHUNK)
        assert list(pats[0]).index(point["C1"]) >= 5
    monkeypatch.setattr(verifier, "_WEAKER_PIECE", block)
    monkeypatch.setattr(verifier, "_CHUNK", chunk)
    result = check_strictly_weaker(rule, conj, budget=budget)
    if kind == "strictly_weaker":
        assert isinstance(result, StrictlyWeaker)
        assert result.witness == point
    else:
        assert isinstance(result, EquivalentOrIncomparable)
        assert (result.direction, result.point) == (kind, point)


@pytest.mark.parametrize("weak_src, flip, what", [
    # the weakening made false at a point where the scalar evaluator holds
    # it: a "not implied" point that does not replay
    ("C1 >=s 0", lambda ok, c1: ok & (c1 != 5), "not-implied point"),
    # an equivalent weakening made true outside pre: a witness that does
    # not replay
    ("C1 >=s 1", lambda ok, c1: ok | (c1 == 0), "strictly-weaker witness"),
])
def test_weaker_check_points_are_replayed(monkeypatch, weak_src, flip, what):
    # a point the vectorised weakening gets wrong is an internal alarm, not
    # a verdict
    rule = parse(WEAKER_RULE)
    weak = _conj(weak_src)
    eval_pred_vec = engine.eval_pred_vec

    def flipped(conjuncts, params, consts):
        ok = eval_pred_vec(conjuncts, params, consts)
        if conjuncts != weak:
            return ok
        return flip(np.asarray(ok, dtype=bool), consts["C1"][0])

    monkeypatch.setattr(engine, "eval_pred_vec", flipped)
    with pytest.raises(verifier.ReplayMismatch, match=what):
        check_strictly_weaker(rule, weak)


# the weakening a replay pass accepts in negate_lshr_or's stage 3: a sampled
# space of 65536 draws and a 2^20-tuple special cross over (C1, C2, V)
NEGATE_LSHR_OR_WEAKER = """
rule "negate_lshr_or" {
  const C1: i32;
  const C2: i64;
  pre: PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && C2 <=u 32 && RangeU(%V, 0, zext(C1, 64));
  lhs fn(V: i64) -> i64 {
    %0 = sub.nsw i64 0, %V;
    %1 = lshr i64 %0, C2;
    %2 = or i64 %1, %0;
    ret %2
  }
  rhs fn(V: i64) -> i64 {
    %0 = icmp.ne i64 %V, 0;
    %1 = sext i1 %0 to i64;
    ret %1
  }
}
"""


def test_strictly_weaker_memory_stays_at_a_few_pieces():
    import tracemalloc

    rule = parse(NEGATE_LSHR_OR_WEAKER)
    weak = textfmt.parse_conjuncts(
        "PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && "
        "C2 <=u 64 - popcount(C1) && RangeU(%V, 0, zext(C1, 64))",
        dict(rule.sym_consts))
    tracemalloc.start()
    try:
        result = check_strictly_weaker(rule, weak)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole space read as one chunk peaks at about 50 MB
    assert result == StrictlyWeaker({"C1": 1023, "C2": 51, "V": 31})
    assert peak < 16 << 20


def test_strictly_weaker_samples_a_space_without_declarations():
    # no constant and no parameter in either precondition: the sampled
    # space is the one empty tuple
    rule = parse("""
rule "w" {
  lhs fn(x: i8) -> i8 { %0 = xor i8 %x, 0; ret %0 }
  rhs fn(x: i8) -> i8 { ret %x }
}
""")
    result = check_strictly_weaker(rule, (), budget=Budget(exhaustive_limit=0))
    assert isinstance(result, Inconclusive)
    assert result.reason == "BudgetExceeded"


def test_reduce_widths_halves_types():
    rule = parse("""
rule "r" {
  lhs fn(x: i16) -> i16 { %0 = add i16 %x, 5; ret %0 }
  rhs fn(x: i16) -> i16 { %0 = add i16 %x, 5; ret %0 }
}
""")
    reduced, widths = reduce_widths(rule, {})
    assert reduced.lhs.params[0][1] == IntType(8)
    assert widths == {}


def test_reduce_widths_blocked_on_odd_width():
    rule = parse("""
rule "r" {
  lhs fn(x: i9) -> i9 { %0 = not i9 %x; ret %0 }
  rhs fn(x: i9) -> i9 { %0 = xor i9 %x, 511; ret %0 }
}
""")
    assert isinstance(reduce_widths(rule, {}), verifier.ReductionBlocked)


def test_verify_with_reduction_shrinks_oversized_rule():
    rule = parse("""
rule "r" {
  lhs fn(x: i64) -> i64 { %0 = xor i64 %x, %x; ret %0 }
  rhs fn(x: i64) -> i64 { %0 = and i64 %x, 0; ret %0 }
}
""")
    verdict, final, widths = verify_with_reduction(
        rule, {}, Budget(exhaustive_limit=1 << 16, sample_count=0))
    assert verdict.kind == "verified"
    assert final.lhs.params[0][1] == IntType(16)


def test_special_cross_catches_corner_violation():
    # sound only with the trailing bound; dropping it leaves violations in a
    # narrow large-constant corner that plain random draws can miss
    rule = parse("""
rule "t" {
  const C1: i32;
  const C2: i64;
  pre: PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && RangeU(%V, 0, zext(C1, 64));
  lhs fn(V: i64) -> i64 {
    %0 = sub i64 0, %V;
    %1 = lshr i64 %0, C2;
    %2 = or i64 %1, %0;
    ret %2
  }
  rhs fn(V: i64) -> i64 {
    %0 = icmp.ne i64 %V, 0;
    %1 = sext i1 %0 to i64;
    ret %1
  }
}
""")
    verdict = check_refinement(rule, {}, Budget())
    assert verdict.kind == "refuted"
    assert replay_counterexample(rule, verdict.counterexample)


def test_wide_mul_wraps_at_its_width():
    # at i40, x * 2 drops bit 39 (x = 2**39 gives lhs 0 and rhs 2); a product
    # kept modulo 2**64 instead of 2**40 makes the rule look sound
    rule = parse("""
rule "mul_i40" {
  lhs fn(x: i40) -> i40 {
    %0 = mul i40 %x, 2;
    %1 = udiv i40 %0, 549755813888;
    ret %1
  }
  rhs fn(x: i40) -> i40 {
    %0 = lshr i40 %x, 38;
    %1 = and i40 %0, 3;
    ret %1
  }
}
""")
    verdict = check_refinement(rule, {}, Budget())
    assert verdict.kind == "refuted"
    assert replay_counterexample(rule, verdict.counterexample)


def test_refuted_counterexamples_replay(fixture_corpus):
    # strip the precondition from each generalized fixture; every resulting
    # refutation must replay under the scalar evaluator
    for fx in fixture_corpus:
        if fx.domain != "rules" or not fx.rule.pre:
            continue
        stripped = Rule(fx.rule.name, fx.rule.sym_consts, fx.rule.width_vars,
                        (), fx.rule.lhs, fx.rule.rhs)
        verdict = check_refinement(stripped, {}, Budget())
        if verdict.kind == "refuted":
            assert replay_counterexample(stripped, verdict.counterexample), fx.name


@pytest.mark.parametrize("pre", [
    "!RangeU(%x, 0, 3)",
    "(RangeU(%x, 4, 7) || RangeU(%x, 8, 9))",
])
def test_value_reference_under_connective(pre):
    # a %x reference nested under ! or || makes the conjunct a parameter
    # conjunct; classifying it as constant-only evaluated it without inputs
    rule = parse(f"""
rule "nested_ref" {{
  pre: {pre};
  lhs fn(x: i8) -> i1 {{ %0 = icmp.ugt i8 %x, 3; ret %0 }}
  rhs fn(x: i8) -> i1 {{ ret 1 }}
}}
""")
    verdict = check_refinement(rule, {}, Budget())
    assert isinstance(verdict, Verified)
    assert (verdict.mode, verdict.points) == ("exhaustive", 256)


MIXED_WIDTH_RULE = """
rule "mixed_width" {{
  const C1: i8;
  const C2: i16;
  pre: C1 == C2;
  lhs fn(x: i8) -> i8 {{
    %0 = trunc i16 C2 to i8;
    %1 = {op} i8 %x, %0;
    ret %1
  }}
  rhs fn(x: i8) -> i8 {{ %0 = add i8 %x, C1; ret %0 }}
}}
"""


def test_mixed_width_definition_leaves_constants_free():
    # `==` compares an i8 and an i16 mathematically (equal as unsigned or as
    # signed values), so neither constant is derived from the other: both
    # are enumerated, and the 384 pairs where C2 is C1 zero- or
    # sign-extended satisfy the precondition
    verdict = check_refinement(parse(MIXED_WIDTH_RULE.format(op="add")),
                               {}, Budget())
    assert verdict_to_json(verdict) == {
        "kind": "verified", "mode": "exhaustive", "points": 384 * 256,
        "space": "384 constants x 256 inputs", "seed": 0}
    rule = parse(MIXED_WIDTH_RULE.format(op="sub"))
    verdict = check_refinement(rule, {}, Budget())
    assert isinstance(verdict, Refuted)
    assert replay_counterexample(rule, verdict.counterexample)


def _or_for_add_rule(cty, xty, pre):
    # lhs and rhs differ exactly where x and C1 share a set bit, so the first
    # counterexample depends on which of the two axes a scan loops over
    x, ext, r = "%x", "", "%0"
    if cty != xty:
        x, ext, r = "%0", f"%0 = zext {xty} %x to {cty}; ", "%1"
    return f"""
rule "scan_order" {{
  const C1: {cty};
  pre: {pre};
  lhs fn(x: {xty}) -> {cty} {{ {ext}{r} = add {cty} {x}, C1; ret {r} }}
  rhs fn(x: {xty}) -> {cty} {{ {ext}{r} = or {cty} {x}, C1; ret {r} }}
}}
"""


def _residue_rule(cty, pre, refutable=True):
    # lhs holds where (x + C1) mod 1000 is 777, which no special input value
    # reaches, so only the sampled scan can tell it from `ret 0`
    body = f"""
    %0 = {"zext i8 C1 to i32" if cty == "i8" else "add i32 C1, 0"};
    %1 = add i32 %x, %0;
    %2 = urem i32 %1, 1000;
    %3 = icmp.eq i32 %2, 777;
    ret %3
  """
    return f"""
rule "scan_order" {{
  const C1: {cty};
  pre: {pre};
  lhs fn(x: i32) -> i1 {{{body}}}
  rhs fn(x: i32) -> i1 {{{"ret 0" if refutable else body}}}
}}
"""


def _sum_rule(cty, xty, total, pre):
    # lhs holds where C1 + x (zero-extended to i16) is `total`: only the
    # constants near the top of the range reach it, each at one input, so
    # a scan that visits points in another order reports another point
    return f"""
rule "scan_order" {{
  const C1: {cty};
  pre: {pre};
  lhs fn(x: {xty}) -> i1 {{
    %0 = {"add i16 C1, 0" if cty == "i16" else f"zext {cty} C1 to i16"};
    %1 = zext {xty} %x to i16;
    %2 = add i16 %0, %1;
    %3 = icmp.eq i16 %2, {total};
    ret %3
  }}
  rhs fn(x: {xty}) -> i1 {{ ret 0 }}
}}
"""


# 4356 satisfying special constant pairs > 2048 special inputs, so the
# special pass loops inputs, 15 to a block: its 512-input cap ends two rows
# into a block, and the first input with x == 4 is number 512
_SPECIAL_CAP_RULE = """
rule "scan_order" {
  const C1: i32;
  const C2: i32;
  pre: C1 != C2 && C2 != 3000;
  lhs fn(x: i8, y: i8, z: i4) -> i1 { %0 = icmp.eq i8 %x, 4; ret %0 }
  rhs fn(x: i8, y: i8, z: i4) -> i1 { ret 0 }
}
"""


# 254 constants > 16 inputs, so the scan loops inputs; only C1 = 2..7 are
# live (the shifts are poison at C1 >= 8), fewer than the inputs.  The
# high bits of x are lost for C1 = 5..7: looping inputs reaches x = 2 at
# C1 = 7 first, looping constants would reach x = 8 at C1 = 5
_DEAD_ROWS_ORDER_RULE = """
rule "scan_order" {
  const C1: i8;
  pre: C1 >u 1;
  lhs fn(x: i4) -> i8 {
    %0 = zext i4 %x to i8;
    %1 = shl i8 %0, C1;
    %2 = lshr i8 %1, C1;
    ret %2
  }
  rhs fn(x: i4) -> i8 { %0 = zext i4 %x to i8; ret %0 }
}
"""


def _refuted(c1, x, lhs, rhs):
    return {"kind": "refuted", "seed": 0, "counterexample": {
        "consts": {"C1": c1}, "widths": {}, "inputs": {"x": x},
        "lhs": lhs, "rhs": rhs}}


@pytest.mark.parametrize("text, budget, expected", [
    pytest.param(_or_for_add_rule("i8", "i8", "C1 >u 199"), Budget(),
                 _refuted("0xc8", "0x8", "0xd0", "0xc8"),
                 id="exhaustive-loops-constants"),
    pytest.param(_or_for_add_rule("i8", "i4", "C1 >u 17"), Budget(),
                 _refuted("0x13", "0x1", "0x14", "0x13"),
                 id="exhaustive-loops-inputs"),
    pytest.param(_or_for_add_rule("i32", "i32", "C1 >u 1001"), Budget(),
                 _refuted("0x3ea", "0x2", "0x3ec", "0x3ea"),
                 id="special-pass-loops-constants"),
    pytest.param(_or_for_add_rule("i32", "i8", "C1 >u 1001"), Budget(),
                 _refuted("0x3ff", "0x1", "0x400", "0x3ff"),
                 id="special-pass-loops-inputs"),
    pytest.param(_residue_rule("i8", "C1 >u 199"), Budget(),
                 _refuted("0xc8", "0xe266ac39", "0x1", "0x0"),
                 id="sampled-enumerated-constants"),
    pytest.param(_residue_rule("i32", "C1 >u 1001"), Budget(),
                 _refuted("0x3ea", "0x2247", "0x1", "0x0"),
                 id="sampled-drawn-constants"),
    pytest.param(_residue_rule("i32", "C1 >u 1001", refutable=False),
                 Budget(sample_count=1000, constant_sample_count=20),
                 {"kind": "verified", "mode": "sampled", "points": 21280,
                  "space": "20 sampled constants x sampled inputs", "seed": 0},
                 id="sampled-verified"),
    # 1096 constants x 4096 inputs, 16 constants to a block: the first
    # violation is constant 105 (C1 = 3105) at the last input
    pytest.param(_sum_rule("i12", "i12", 7200, "C1 >=u 3000"), Budget(),
                 _refuted("0xc21", "0xfff", "0x1", "0x0"),
                 id="exhaustive-past-first-block"),
    # 6003 enumerated constants (all of them, in order) x the 256-input
    # grid, 256 constants to a block: the first violation is constant 845
    pytest.param(_sum_rule("i16", "i8", 40100, "C1 >=u 39000 && C1 <u 45000"),
                 Budget(exhaustive_limit=1 << 20, constant_sample_count=10000),
                 _refuted("0x9ba5", "0xff", "0x1", "0x0"),
                 id="sampled-full-grid-past-first-block"),
    # the special pass stops at its cap inside a block and finds nothing;
    # the sampled scan reports the first sampled input with x == 4
    pytest.param(_SPECIAL_CAP_RULE, Budget(),
                 {"kind": "refuted", "seed": 0, "counterexample": {
                     "consts": {"C1": "0x0", "C2": "0x1"}, "widths": {},
                     "inputs": {"x": "0x4", "y": "0x1b", "z": "0x9"},
                     "lhs": "0x1", "rhs": "0x0"}},
                 id="special-pass-cap-inside-block"),
    # a sparse parameter precondition: lhs and rhs run on the admitted
    # points of each block only, and the first of those that violates is
    # the first violation in row-major order
    pytest.param(_or_for_add_rule("i8", "i8", "C1 >u 199 && RangeU(%x, 16, 40)"),
                 Budget(), _refuted("0xc8", "0x18", "0xe0", "0xd8"),
                 id="sparse-pre-exhaustive-loops-constants"),
    pytest.param(_or_for_add_rule("i8", "i4", "C1 >u 17 && RangeU(%x, 5, 6)"),
                 Budget(), _refuted("0x13", "0x5", "0x18", "0x17"),
                 id="sparse-pre-exhaustive-loops-inputs"),
    pytest.param(_or_for_add_rule("i32", "i8",
                                  "C1 >u 1001 && LowBitsZero(%x, 2)"),
                 Budget(), _refuted("0x3ff", "0x4", "0x403", "0x3ff"),
                 id="sparse-pre-special-pass"),
    pytest.param(_residue_rule("i32", "C1 >u 1001 && RangeU(%x, 10000, 3000000)"),
                 Budget(), _refuted("0x3ea", "0xe97f", "0x1", "0x0"),
                 id="sparse-pre-sampled"),
    # 1552 of each 65536-point block admitted, the violation in block 7
    pytest.param(_sum_rule("i12", "i12", 7200, "C1 >=u 3000 && "
                           "(RangeU(%x, 4000, 4095) || %x == 17)"), Budget(),
                 _refuted("0xc21", "0xfff", "0x1", "0x0"),
                 id="sparse-pre-past-first-block"),
    pytest.param(_or_for_add_rule("i8", "i8", "C1 >u 199 && RangeU(%x, 0, 255)"),
                 Budget(), _refuted("0xc8", "0x8", "0xd0", "0xc8"),
                 id="pre-admits-whole-block"),
    # every scanned point counts, admitted or not
    pytest.param(_or_for_add_rule("i8", "i8", "C1 >u 199 && RangeU(%x, 1, 0)"),
                 Budget(),
                 {"kind": "verified", "mode": "exhaustive", "points": 14336,
                  "space": "56 constants x 256 inputs", "seed": 0},
                 id="pre-admits-no-point"),
    # the looped axis is the one the satisfying count picks, even when
    # fewer live constants than inputs remain
    pytest.param(_DEAD_ROWS_ORDER_RULE, Budget(),
                 _refuted("0x7", "0x2", "0x0", "0x2"),
                 id="dead-rows-keep-the-looped-axis"),
])
def test_scan_order_pins_reported_counterexample(text, budget, expected):
    # which counterexample a scan reports is decided by the order it visits
    # (constant, input) points and by the order of its random draws
    assert verdict_to_json(check_refinement(parse(text), {}, budget)) == expected


def _wide_rule(rhs: str) -> str:
    # 2^24 inputs, more than one chunk: the grid is streamed
    return f"""
rule "wide" {{
  lhs fn(x: i8, y: i16) -> i16 {{
    %0 = zext i8 %x to i16;
    %1 = or i16 %0, %y;
    ret %1
  }}
  rhs fn(x: i8, y: i16) -> i16 {{ {rhs} }}
}}
"""


def test_early_violation_in_a_streamed_grid_scans_few_points(monkeypatch):
    # `x | y` is `y` only while x is 0, so the first violation is at grid
    # index 2^16; the streamed grid's row is cut into pieces of _BLOCK
    # points, so the scan evaluates the pieces up to and including the one
    # that holds that index and builds no chunk of _CHUNK points
    evaluated, chunks = [], []
    eval_function_vec, unravel_chunk = engine.eval_function_vec, engine.unravel_chunk

    def counted_eval(fn, params, consts):
        if fn.name == "lhs":
            evaluated.append(math.prod(np.broadcast_shapes(
                *(np.shape(v.data) for v in params.values()))))
        return eval_function_vec(fn, params, consts)

    def counted_unravel(types, start, end):
        chunks.append(end - start)
        return unravel_chunk(types, start, end)

    monkeypatch.setattr(engine, "eval_function_vec", counted_eval)
    monkeypatch.setattr(engine, "unravel_chunk", counted_unravel)
    verdict = check_refinement(parse(_wide_rule("ret %y")), {}, Budget())
    assert verdict.kind == "refuted"
    assert verdict.counterexample.inputs == {"x": 1, "y": 0}
    pieces = (1 << 16) // verifier._BLOCK + 1
    assert sum(evaluated) == pieces * verifier._BLOCK
    assert max(chunks) == verifier._BLOCK


def test_verified_streamed_grid_counts_every_point():
    rhs = "%0 = zext i8 %x to i16; %1 = or i16 %y, %0; ret %1"
    assert verdict_to_json(check_refinement(parse(_wide_rule(rhs)), {},
                                            Budget())) == {
        "kind": "verified", "mode": "exhaustive", "points": 1 << 24,
        "space": "1 constants x 16777216 inputs", "seed": 0}


# `x * 8` is `x << 3`: one row of 2^24 inputs and no constant
WIDE_VERIFIED = """
rule "wide_verified" {
  lhs fn(x: i24) -> i24 {
    %0 = mul i24 %x, 8; %1 = add i24 %0, 5; %2 = xor i24 %1, 3; ret %2
  }
  rhs fn(x: i24) -> i24 {
    %0 = shl i24 %x, 3; %1 = add i24 %0, 5; %2 = xor i24 %1, 3; ret %2
  }
}
"""


def test_verified_wide_row_memory_stays_at_a_few_pieces():
    import tracemalloc

    rule = parse(WIDE_VERIFIED)
    tracemalloc.start()
    try:
        verdict = check_refinement(rule, {}, Budget())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # pieces grown to 2^22 points peak at about 116 MB
    assert verdict_to_json(verdict) == {
        "kind": "verified", "mode": "exhaustive", "points": 1 << 24,
        "space": "1 constants x 16777216 inputs", "seed": 0}
    assert peak < 16 << 20


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 200), st.one_of(st.none(),
                                                        st.integers(0, 40)),
       st.integers(1, 16))
def test_blocks_cover_rows_in_order_with_bounded_pieces(rows, cols, cap,
                                                        block):
    saved = verifier._BLOCK
    verifier._BLOCK = block
    try:
        blocks = list(verifier._blocks(rows, cols, cap))
    finally:
        verifier._BLOCK = saved
    covered = [(r, c) for r0, r1, c0, c1 in blocks
               for r in range(r0, r1) for c in range(c0, c1)]
    kept = rows if cap is None else min(rows, cap)
    assert covered == [(r, c) for r in range(kept) for c in range(cols)]
    for r0, r1, c0, c1 in blocks:
        if cols > block:
            # a wide row is cut into pieces of one row each
            assert r1 - r0 == 1
            assert block <= c1 - c0 < 2 * block
        else:
            assert (c0, c1) == (0, cols)
            assert (r1 - r0) * cols <= block


@pytest.mark.parametrize("ty, cmp, pre", [
    # lhs and rhs still run, on empty arrays, in a block whose precondition
    # admits no point: the unsupported width is a property of the rule
    ("i8", "icmp.eq", "RangeU(%x, 1, 0)"),
    # the precondition is evaluated first, but an unsupported construct in
    # lhs is still reported before its own
    ("f32", "fcmp.oeq", "PowerOfTwo(%x)"),
])
def test_unsupported_construct_is_reported_before_the_precondition(ty, cmp,
                                                                   pre):
    rule = parse(f"""
rule "wide" {{
  pre: {pre};
  lhs fn(x: {ty}) -> i8 {{
    %0 = {cmp} {ty} %x, %x;
    %1 = zext i1 %0 to i128;
    %2 = trunc i128 %1 to i8;
    ret %2
  }}
  rhs fn(x: {ty}) -> i8 {{ ret 0 }}
}}
""")
    assert verdict_to_json(check_refinement(rule, {}, Budget())) == {
        "kind": "inconclusive", "reason": "UnsupportedConstruct",
        "detail": "integer width 128 exceeds 64"}


@pytest.mark.parametrize("lhs, rhs", [
    # every constant tuple makes the lhs poison on every input, so none is
    # scanned; lhs and rhs still run once, on an empty block, and the
    # unsupported width in rhs is reported instead of a verdict
    ("%0 = lshr i8 %x, C1; ret %0",
     "%0 = zext i8 %x to i128; %1 = trunc i128 %0 to i8; ret %1"),
    # a constant-only instruction the engine cannot evaluate leaves the
    # tuples undecided: the lhs's first unsupported width is reported, not
    # the constant-only one that comes after it
    ("%0 = zext i8 %x to i128; %1 = trunc i128 %0 to i8; "
     "%2 = zext i8 C1 to i72; %3 = trunc i72 %2 to i8; "
     "%4 = add i8 %1, %3; ret %4", "ret %x"),
])
def test_unsupported_construct_is_reported_past_dead_tuples(lhs, rhs):
    rule = parse(f"""
rule "dead" {{
  const C1: i8;
  pre: C1 >=u 8;
  lhs fn(x: i8) -> i8 {{ {lhs} }}
  rhs fn(x: i8) -> i8 {{ {rhs} }}
}}
""")
    assert verdict_to_json(check_refinement(rule, {}, Budget())) == {
        "kind": "inconclusive", "reason": "UnsupportedConstruct",
        "detail": "integer width 128 exceeds 64"}


# ---------------------------------------------------------------------------
# Sampled scans check each distinct (constant tuple, input tuple) once


def _reference_scan_sampled(resolved, widths, const_map, budget, rng, seen):
    # every drawn constant tuple x every drawn input tuple, repeats
    # included, drawn afresh: the scan the verdict must not differ from
    fn = resolved.lhs
    pspace = verifier._space(fn.params)
    full_grid = pspace <= max(budget.sample_count, 1)
    if full_grid:
        grid, points = verifier._columns(fn.params), pspace
    else:
        pats = verifier._sampled_patterns(rng, fn.params, budget.sample_count,
                                          verifier._SPECIAL_CROSS_CAP)
        grid, points = verifier._columns(fn.params, pats), len(pats[0])
    seen.append((const_map, None if full_grid else pats))
    refuted = verifier._scan(
        resolved, widths, verifier._slices(const_map, grid, points), budget)
    count = verifier._const_count(const_map)
    space = f"{count} sampled constants x " + (
        f"{pspace} inputs (full grid)" if full_grid else "sampled inputs")
    return refuted or Verified("sampled", count * points, space,
                               budget.rng_seed)


def _reference_verdict(rule, budget):
    """The verdict of a scan over every drawn point, and what it scanned:
    [(constant map, sampled input patterns or None)], empty when the check
    did not reach the sampled scan."""
    seen = []
    saved = verifier._scan_sampled
    verifier._scan_sampled = lambda *args: _reference_scan_sampled(*args,
                                                                   seen)
    try:
        return verdict_to_json(check_refinement(rule, {}, budget)), seen
    finally:
        verifier._scan_sampled = saved


_BINARY_OPS = [op for op in SMALL_OPS if op not in UNARY]


@st.composite
def repeating_sampled_rules(draw):
    """1-2 parameters of i8, i16, i32 or f16 and 0-2 constants of i8-i32,
    each bounded to at most four values (so the sampled constants repeat),
    maybe a parameter conjunct; lhs and rhs compare an expression of one
    parameter against a literal."""
    ptypes = draw(st.lists(st.sampled_from(["i8", "i16", "i32", "f16"]),
                           min_size=1, max_size=2))
    params = [(f"x{i}", t) for i, t in enumerate(ptypes)]
    consts = [(f"C{i + 1}", t) for i, t in enumerate(
        draw(st.lists(st.sampled_from(["i8", "i16", "i32"]), max_size=2)))]
    pre = [f"{c} <=u {draw(st.integers(0, 3))}" for c, _ in consts]
    ints = [(p, t) for p, t in params if t != "f16"]
    if ints and draw(st.booleans()):
        p, _ = draw(st.sampled_from(ints))
        pre.append(draw(st.sampled_from([
            f"RangeU(%{p}, {draw(st.integers(0, 40))}, "
            f"{draw(st.integers(0, 300))})",
            f"LowBitsZero(%{p}, {draw(st.integers(0, 3))})",
            f"KnownBits(%{p}, 0, {draw(st.integers(0, 3))})"])))

    def body():
        lines = []
        p, ty = draw(st.sampled_from(params))
        cur = f"%{p}"
        for _ in range(draw(st.integers(1, 2))):
            if ty == "f16":
                op = draw(st.sampled_from(["fadd", "fsub", "fmul", "fdiv"]))
                b = draw(st.sampled_from(
                    ["0.5", "1.0", "-2.0", "0.0"]
                    + [f"%{q}" for q, t in params if t == ty]))
            else:
                op = draw(st.sampled_from(_BINARY_OPS))
                b = draw(st.sampled_from(
                    [str(draw(st.integers(0, 255)))]
                    + [f"%{q}" for q, t in params if t == ty]
                    + [c for c, _ in consts]))
                cty = dict(consts).get(b)
                if cty is not None and cty != ty:
                    cast = "zext" if int(cty[1:]) < int(ty[1:]) else "trunc"
                    lines.append(f"%{len(lines)} = {cast} {cty} {b} to {ty}")
                    b = f"%{len(lines) - 1}"
                elif cty is not None:
                    lines.append(f"%{len(lines)} = add {ty} {b}, 0")
                    b = f"%{len(lines) - 1}"
            lines.append(f"%{len(lines)} = {op} {ty} {cur}, {b}")
            cur = f"%{len(lines) - 1}"
        if ty == "f16":
            cmp = draw(st.sampled_from(["fcmp.olt", "fcmp.oeq", "fcmp.uno",
                                        "fcmp.ugt"]))
            lit = draw(st.sampled_from(["0.0", "1.0", "-0.5"]))
        else:
            cmp = draw(st.sampled_from(["icmp.ult", "icmp.eq", "icmp.sgt"]))
            lit = str(draw(st.integers(0, 255)))
        lines.append(f"%{len(lines)} = {cmp} {ty} {cur}, {lit}")
        return "; ".join(lines) + f"; ret %{len(lines) - 1}"

    sig = ", ".join(f"{p}: {t}" for p, t in params)
    decls = "".join(f"const {c}: {t}; " for c, t in consts)
    rhs = body() if draw(st.booleans()) else f"ret {draw(st.integers(0, 1))}"
    text = (f'rule "rep" {{ {decls}'
            + (f"pre: {' && '.join(pre)}; " if pre else "")
            + f"lhs fn({sig}) -> i1 {{ {body()} }} "
            + f"rhs fn({sig}) -> i1 {{ {rhs} }} }}")
    rule = parse(text)
    assume(not validate(rule))
    return rule


_REPEATING_BUDGETS = st.builds(
    Budget, exhaustive_limit=st.sampled_from([1, 64]),
    sample_count=st.sampled_from([40, 300, 1000]),
    constant_sample_count=st.sampled_from([4, 16]),
    rng_seed=st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(repeating_sampled_rules(), _REPEATING_BUDGETS)
def test_sampled_scan_of_distinct_points_matches_full_scan(rule, budget):
    # a repeated (constant tuple, input tuple) point is the same check as
    # its first occurrence, which comes first: dropping repeats must leave
    # the verdict, the counterexample and the point count as they are
    expected, seen = _reference_verdict(rule, budget)
    assume(seen)
    assert verdict_to_json(check_refinement(rule, {}, budget)) == expected
    # the second check finds its input row remembered
    assert verdict_to_json(check_refinement(rule, {}, budget)) == expected


def _sampled_case(rule, budget):
    """The verdict, checked against its reference, and the constant map
    and sampled inputs (None for a full grid) the reference scanned."""
    expected, seen = _reference_verdict(rule, budget)
    ((const_map, pats),) = seen
    verifier._last_inputs = None
    verdict = verdict_to_json(check_refinement(rule, {}, budget))
    assert verdict == expected
    return verdict, const_map, pats


def test_sampled_scan_reports_first_violating_input_that_repeats():
    # lhs is 1 at every odd x: the first odd sampled input is the
    # counterexample, and it is drawn again later in the row
    rule = parse("""
rule "odd" {
  lhs fn(x: i8) -> i1 { %0 = and i8 %x, 1; %1 = icmp.ne i8 %0, 0; ret %1 }
  rhs fn(x: i8) -> i1 { ret 0 }
}
""")
    verdict, _, (xs,) = _sampled_case(
        rule, Budget(exhaustive_limit=16, sample_count=64))
    first = int(np.flatnonzero(xs & 1)[0])
    assert verdict["counterexample"]["inputs"] == {"x": hex(xs[first])}
    assert xs[first] in xs[first + 1:]
    # keeping the last occurrence of each input would report another
    later = {int(x): i for i, x in enumerate(xs)}
    assert min((i, x) for x, i in later.items() if x & 1)[1] != xs[first]


def test_sampled_scan_reports_first_violating_constant_that_repeats():
    # every drawn constant tuple violates at x == 80 - C1, which no special
    # input reaches: the first drawn tuple is the counterexample, and it is
    # drawn again later
    rule = parse("""
rule "pinned" {
  const C1: i32;
  pre: C1 <=u 3;
  lhs fn(x: i8) -> i1 {
    %0 = trunc i32 C1 to i8;
    %1 = add i8 %x, %0;
    %2 = icmp.eq i8 %1, 80;
    ret %2
  }
  rhs fn(x: i8) -> i1 { ret 0 }
}
""")
    verdict, const_map, _ = _sampled_case(rule, Budget(sample_count=256))
    (c1s, _), = const_map.values()
    assert verdict["counterexample"]["consts"] == {"C1": hex(c1s[0])}
    assert verdict["counterexample"]["inputs"] == {"x": hex(80 - c1s[0])}
    assert c1s[0] in c1s[1:]
    # the last occurrences of the tuples come in another order
    last = {int(c): i for i, c in enumerate(c1s)}
    assert min(last, key=last.get) != c1s[0]


# at seed 5 the drawn row holds +0.0 at 7 and -0.0 at 37
_F16_SAMPLED = Budget(exhaustive_limit=16, sample_count=1000, rng_seed=5)


def test_sampled_scan_tells_negative_zero_and_nan_patterns_apart():
    # lhs is 1 at -0.0 only; +0.0 comes first in the drawn row, so a
    # comparison by float value would drop -0.0 as a repeat of +0.0
    neg_zero = parse("""
rule "neg_zero" {
  lhs fn(x: f16) -> i1 {
    %0 = fdiv f16 1.0, %x;
    %1 = fcmp.olt f16 %0, 0.0;
    %2 = fcmp.oeq f16 %x, 0.0;
    %3 = and i1 %1, %2;
    ret %3
  }
  rhs fn(x: f16) -> i1 { ret 0 }
}
""")
    verdict, _, (xs,) = _sampled_case(neg_zero, _F16_SAMPLED)
    assert verdict["counterexample"]["inputs"] == {"x": "0x8000"}
    assert np.flatnonzero(xs == 0)[0] < np.flatnonzero(xs == 0x8000)[0]
    # lhs is 1 at every NaN: the first NaN pattern drawn is the
    # counterexample, among several distinct NaN patterns
    nan = parse("""
rule "nan" {
  lhs fn(x: f16) -> i1 { %0 = fcmp.uno f16 %x, %x; ret %0 }
  rhs fn(x: f16) -> i1 { ret 0 }
}
""")
    verdict, _, (xs,) = _sampled_case(nan, _F16_SAMPLED)
    nans = xs[((xs & 0x7C00) == 0x7C00) & ((xs & 0x3FF) != 0)]
    assert len(set(nans.tolist())) > 1
    assert verdict["counterexample"]["inputs"] == {"x": hex(nans[0])}


def _lexsort_first_occurrences(columns):
    """The lexsort version of `verifier._first_occurrences`, the oracle of
    its one-key sort."""
    order = np.lexsort(columns)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for col in columns:
        s = col[order]
        first[1:] |= s[1:] != s[:-1]
    return None if first.all() else np.sort(order[first])


@st.composite
def pattern_columns(draw):
    """1-3 equal-length columns of uint8/16/32/64 bit patterns, drawn from
    few values (so rows repeat) or many, possibly empty."""
    n = draw(st.integers(0, 60))
    few = draw(st.booleans())
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32,
                                      np.uint64]))
        top = 2 if few else np.iinfo(dtype).max
        cols.append(np.array(draw(st.lists(st.integers(0, top), min_size=n,
                                           max_size=n)), dtype=dtype))
    return cols


@settings(max_examples=300, deadline=None)
@given(pattern_columns())
def test_first_occurrences_match_the_lexsort_oracle(columns):
    got = verifier._first_occurrences(columns)
    want = _lexsort_first_occurrences(columns)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)


def test_first_occurrences_fall_back_to_lexsort_on_a_key_collision(
        monkeypatch):
    # a key that keeps only the low bit of the first column makes different
    # rows share it: the neighbour check sees them differ and the stable
    # sort of the rows themselves answers
    sorted_rows = []
    lexsort_firsts = verifier._lexsort_firsts

    def spied(columns):
        sorted_rows.append(len(columns[0]))
        return lexsort_firsts(columns)

    monkeypatch.setattr(verifier, "_lexsort_firsts", spied)
    monkeypatch.setattr(verifier, "_row_key", lambda columns, n: (
        columns[0].astype(np.uint64) & np.uint64(1), False))
    columns = [np.array([5, 7, 5, 9, 7, 2, 4], dtype=np.uint64),
               np.array([1, 2, 1, 3, 2, 1, 1], dtype=np.uint32)]
    assert np.array_equal(verifier._first_occurrences(columns),
                          [0, 1, 3, 5, 6])
    assert sorted_rows == [7]


@settings(max_examples=100, deadline=None)
@given(pattern_columns())
def test_colliding_keys_match_the_lexsort_oracle(columns):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_row_key", lambda columns, n: (
            columns[0].astype(np.uint64) & np.uint64(3), False))
        got = verifier._first_occurrences(columns)
    want = _lexsort_first_occurrences(columns)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)


_I32_RULE = """
rule "memo" {{
  lhs fn(x: i32, y: {ty}) -> i1 {{ %0 = icmp.ult i32 %x, {k}; ret %0 }}
  rhs fn(x: i32, y: {ty}) -> i1 {{ %0 = icmp.ugt i32 {k}, %x; ret %0 }}
}}
"""


@pytest.fixture
def counted_draws(monkeypatch):
    """Counts the input rows drawn, with the remembered row cleared."""
    draws = []
    real = verifier._sampled_patterns

    def counted(*args):
        draws.append(args[2])
        return real(*args)
    monkeypatch.setattr(verifier, "_sampled_patterns", counted)
    monkeypatch.setattr(verifier, "_last_inputs", None)
    return draws


def test_equal_generator_state_reuses_the_sampled_inputs(counted_draws):
    budget = Budget(sample_count=1000)
    first = check_refinement(parse(_I32_RULE.format(ty="i8", k=7)), {}, budget)
    # another rule over the same parameter types, at the same seed: the
    # generator is in the same state when the inputs are drawn
    rule = parse(_I32_RULE.format(ty="i8", k=1000))
    remembered = verdict_to_json(check_refinement(rule, {}, budget))
    assert counted_draws == [1000]
    assert first.kind == "verified" and remembered["kind"] == "verified"
    verifier._last_inputs = None
    assert verdict_to_json(check_refinement(rule, {}, budget)) == remembered
    assert counted_draws == [1000, 1000]


@pytest.mark.parametrize("other", [
    dict(seed=1), dict(ty="i16"), dict(sample_count=999)])
def test_other_key_draws_the_inputs_again(counted_draws, other):
    def check(seed=0, ty="i8", sample_count=1000):
        check_refinement(parse(_I32_RULE.format(ty=ty, k=7)), {},
                         Budget(sample_count=sample_count, rng_seed=seed))

    check()
    check(**other)
    assert len(counted_draws) == 2


def test_remembered_inputs_are_a_draw(counted_draws):
    params = (("x", IntType(32)), ("y", IntType(8)))
    drawn = np.random.default_rng(5)
    pats, n = verifier._sampled_inputs(drawn, params, 500)
    again = np.random.default_rng(5)
    hit, hit_n = verifier._sampled_inputs(again, params, 500)
    assert len(counted_draws) == 1
    # the state a draw leaves, the draw's distinct tuples in order, and the
    # count of tuples drawn, repeats included
    fresh = np.random.default_rng(5)
    full = verifier._sampled_patterns(fresh, params, 500,
                                      verifier._SPECIAL_CROSS_CAP)
    assert again.bit_generator.state == fresh.bit_generator.state
    assert drawn.bit_generator.state == fresh.bit_generator.state
    assert hit_n == n == len(full[0])
    seen, rows = set(), []
    for row in zip(*(p.tolist() for p in full)):
        if row not in seen:
            seen.add(row)
            rows.append(row)
    assert len(rows) < n
    assert list(zip(*(p.tolist() for p in hit))) == rows
    assert [p.dtype for p in hit] == [p.dtype for p in full]
    for p in hit:
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 0


_ADD_SUB = """
rule "add_sub" {
  const C1: i8;
  lhs fn(x: i8) -> i8 { %0 = add i8 %x, C1; %1 = sub i8 %0, C1; ret %1 }
  rhs fn(x: i8) -> i8 { ret %x }
}
"""


@pytest.mark.parametrize("text, budget, mode, seeded", [
    pytest.param(_ADD_SUB, Budget(), "exhaustive", False, id="exhaustive"),
    # too many constants to walk: the special-value cross holds the four
    # constants, and the 256 inputs are the full grid
    pytest.param(_ADD_SUB, Budget(exhaustive_limit=100,
                                  constant_sample_count=4),
                 "sampled", False, id="special-constants-full-grid"),
    # the cross holds fewer than 1000 satisfying constants: the rest are
    # drawn
    pytest.param(_ADD_SUB, Budget(exhaustive_limit=100,
                                  constant_sample_count=1000),
                 "sampled", True, id="drawn-constants"),
    pytest.param(_I32_RULE.format(ty="i8", k=7), Budget(sample_count=1000),
                 "sampled", True, id="sampled-inputs"),
    # all 2^24 constant tuples satisfy the precondition: the permuted walk
    # stops at its bound, and the 256 inputs are the full grid
    pytest.param((FIXTURES / "rules" / "xor_and_distribute.peep").read_text(),
                 Budget(), "sampled", True, id="stopped-walk"),
])
def test_verdict_records_whether_the_check_used_its_seed(text, budget, mode,
                                                         seeded):
    rule = parse(text)
    verdict = check_refinement(rule, {}, budget)
    assert (verdict.kind, verdict.mode, verdict.seeded) == (
        "verified", mode, seeded)
    assert verdict_to_json(verdict).keys() == {"kind", "mode", "points",
                                               "space", "seed"}
    assert verdict == dataclasses.replace(verdict, seeded=not seeded)
    if not seeded:
        # the same check under another seed but for the seed it carries
        other = check_refinement(rule, {}, dataclasses.replace(
            budget, rng_seed=budget.rng_seed + 1))
        assert other == dataclasses.replace(verdict, seed=other.seed)


def test_refuted_verdict_records_whether_the_check_used_its_seed():
    wrong = parse(_ADD_SUB.replace("sub i8 %0, C1", "sub i8 %0, 1"))
    exhaustive = check_refinement(wrong, {}, Budget())
    # refuted in the special-value pass, before any draw
    special = check_refinement(wrong, {}, Budget(exhaustive_limit=100,
                                                 constant_sample_count=1000))
    # wrong only at inputs in [1100, 1500), which hold no special value
    drawn = check_refinement(parse("""
rule "range" {
  lhs fn(x: i32) -> i1 { %0 = icmp.ult i32 %x, 1100; ret %0 }
  rhs fn(x: i32) -> i1 { %0 = icmp.ugt i32 1500, %x; ret %0 }
}
"""), {}, Budget(sample_count=1000))
    assert [(v.kind, v.seeded) for v in (exhaustive, special, drawn)] == [
        ("refuted", False), ("refuted", False), ("refuted", True)]
    for v in (exhaustive, special, drawn):
        assert verdict_to_json(v).keys() == {"kind", "seed", "counterexample"}


# ---------------------------------------------------------------------------
# Constant tuples at which the lhs is poison on every input are not scanned

_DEAD_BY_SECOND = ["shl", "lshr", "ashr", "udiv", "urem", "sdiv", "srem"]


@st.composite
def dead_row_rules(draw):
    """Rules over one input `x` of i3, i4 or i6 and 1-2 constants of i2-i4,
    cast to x's width and combined by constant expressions, whose lhs
    shifts and divides by them under any legal flags, through `select`s and
    casts to a wider type and back, so that some constant tuples make the
    lhs poison on every input and others do not; 0-1 constant conjuncts;
    rhs is 0, x, the lhs or the lhs masked."""
    w = draw(st.sampled_from([3, 4, 6]))
    ty = IntType(w)
    consts = tuple((f"C{i + 1}", IntType(draw(st.integers(2, 4))))
                   for i in range(draw(st.integers(1, 2))))
    body, known, values = [], [], [Param("x")]

    def lit():
        return Literal(draw(st.integers(0, (1 << w) - 1)), ty)

    def flags(op):
        legal = sorted(LEGAL_FLAGS.get(op, ()))
        return (frozenset(draw(st.sets(st.sampled_from(legal)))) if legal
                else frozenset())

    def push(instr, pool=None):
        body.append(instr)
        if pool is not None:
            pool.append(Local(len(body) - 1))
        return Local(len(body) - 1)

    for name, cty in consts:
        c = SymConst(name, cty)
        if cty == ty:
            known.append(c)
        else:
            cast = "trunc" if cty.width > w else draw(st.sampled_from(
                ["zext", "sext"]))
            push(Instr(cast, (c,), ty), known)
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["add", "sub", "xor"] + _DEAD_BY_SECOND))
        push(Instr(op, (draw(st.sampled_from(known)),
                        draw(st.sampled_from(known + [lit()]))), ty,
                   flags(op)), known)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["binop", "binop", "select", "cast"]))
        if kind == "binop":
            op = draw(st.sampled_from(_DEAD_BY_SECOND + ["add", "mul", "and"]))
            b = draw(st.sampled_from(known + values + [lit()]))
            push(Instr(op, (draw(st.sampled_from(values)), b), ty, flags(op)),
                 values)
        elif kind == "select":
            pred = draw(st.sampled_from(["eq", "ult", "sgt"]))
            cond = push(Instr("icmp", (draw(st.sampled_from(known + values)),
                                       draw(st.sampled_from(known + values
                                                            + [lit()]))),
                              IntType(1), frozenset(), pred))
            push(Instr("select", (cond, draw(st.sampled_from(known + values)),
                                  draw(st.sampled_from(known + values))), ty),
                 values)
        else:
            op = draw(st.sampled_from(["zext", "sext"]))
            wide = push(Instr(op, (draw(st.sampled_from(values)),),
                              IntType(w + draw(st.integers(1, 4))),
                              flags(op)))
            push(Instr("trunc", (wide,), ty), values)
    params = (("x", ty),)
    lhs = Function("lhs", params, tuple(body), Local(len(body) - 1))
    rhs = draw(st.sampled_from([
        Function("rhs", params, (), Literal(0, ty)),
        Function("rhs", params, (), Param("x")),
        dataclasses.replace(lhs, name="rhs"),
        Function("rhs", params, lhs.body + (Instr(
            "and", (Local(len(body) - 1), lit()), ty),), Local(len(body)))]))
    pre = ()
    if draw(st.booleans()):
        name, cty = consts[0]
        pre = (PCmp(draw(st.sampled_from(["ult", "ne"])), CConst(name),
                    CInt(draw(st.integers(0, (1 << cty.width) - 1)))),)
    rule = Rule("dead", consts, (), pre, lhs, rhs)
    assume(not validate(rule))
    return rule


@settings(max_examples=300, deadline=None)
@given(dead_row_rules())
def test_dead_rows_are_poison_on_every_input_under_the_scalar_evaluator(rule):
    # every constant tuple `engine.dead_rows` marks makes the lhs poison at
    # each of the (at most 64) inputs, in the scalar evaluator
    types = [ty for _, ty in rule.sym_consts]
    tuples = list(itertools.product(*(range(1 << t.width) for t in types)))
    consts = {name: (np.array([t[i] for t in tuples],
                              dtype=engine.udtype(ty.width)), ty)
              for i, (name, ty) in enumerate(rule.sym_consts)}
    dead = engine.dead_rows(rule.lhs, consts)
    if dead is None:
        return
    (_, ty), = rule.lhs.params
    for i in np.flatnonzero(dead):
        lhs = bind_consts(rule, {name: (int(consts[name][0][i]), t)
                                 for name, t in rule.sym_consts}).lhs
        for x in range(1 << ty.width):
            assert semantics.eval_function(
                lhs, [semantics.Bits(ty.width, x)]) is semantics.POISON


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([1, 5, 64]))
@pytest.mark.parametrize("rules, budgets", [
    pytest.param(small_rules(), st.just(Budget(exhaustive_limit=1 << 20)),
                 id="small"),
    pytest.param(param_precondition_rules(),
                 st.just(Budget(exhaustive_limit=1 << 20)), id="param-pre"),
    pytest.param(repeating_sampled_rules(), _REPEATING_BUDGETS,
                 id="repeating-sampled"),
    pytest.param(dead_row_rules(), st.sampled_from([
        Budget(), Budget(exhaustive_limit=64, sample_count=40,
                         constant_sample_count=16)]), id="dead-rows"),
])
def test_skipping_dead_rows_leaves_the_verdict(rules, budgets, data, block):
    # no point of a dead tuple can violate refinement, and its points still
    # count: the verdict, counterexample and point count are those of a
    # scan that drops no tuple, over blocks of many sizes
    rule, budget = data.draw(rules), data.draw(budgets)
    saved = verifier._BLOCK, engine.dead_rows
    verifier._BLOCK = block
    try:
        skipping = verdict_to_json(check_refinement(rule, {}, budget))
        engine.dead_rows = lambda fn, consts: None
        assert verdict_to_json(check_refinement(rule, {}, budget)) == skipping
    finally:
        verifier._BLOCK, engine.dead_rows = saved
