"""Bounded refinement checking, strictly-weaker precondition testing, and
recursive width/precision reduction.

The joint (constants, inputs) space is checked exhaustively when it fits
the budget.  Each free constant of at most `_NARROW_SPACE` patterns is first
narrowed to the sorted patterns that satisfy the const-only conjuncts naming
it alone (`_FreeSpace`); the narrowed space is walked (`_walk`) in fixed
pieces of flat indices and stops after the piece in which the satisfying
tuples found make the check sampled for certain.  When that bound is
below the space the walk visits a seeded order of its flat indices
(`_permute`), so that the first finds are the sample.  A walk that finds
fewer than its bound has visited the whole space and sorts its finds back
to index order, so exhaustive verdicts and counterexamples do not depend
on the walk.  A space too large to walk is sampled by
rejection (`sample_satisfying_consts`), after the cross of special values,
which is filtered in the same pieces and stops once the sample is found.
Above the limit, a special-value pass first crosses the satisfying special
constant tuples with special inputs; then the sampled scan checks the
sampled constants against sampled inputs with a special-value set mixed
in.  Every check runs through one
scan loop (`_scan`) over the (inputs, constants, shape) blocks of one
producer (`_slices`): the exhaustive check and the special pass loop over
the smaller of the constant and input axes and vectorise the larger; the
sampled scan loops over its constants.  Inputs come from one column source
(`_columns`): given patterns, or the full grid, built once when it holds at
most `_CHUNK` tuples and otherwise range by range as the blocks ask for it.
`_blocks` is the one block-size policy: a block is a column of consecutive
looped entries x the vectorised row (about `_BLOCK`, 2^17, points); a row
wider than that is cut into pieces of `_BLOCK` points (the rest joining
the last), so a check refuted early pays for little more than the points
before its violation, and memory stays at a few pieces.  A block's first
violation is taken in row-major order, the order of looping one entry at a
time.  A block evaluates the parameter precondition first; when it admits
at most half of the block, lhs and rhs run only on the admitted points,
gathered in row-major order (`_admitted`), so the first violation is the
same point.  The point count covers every scanned point, admitted or not.
The exhaustive check and the sampled scan first drop the constant tuples at
which the constants alone make the lhs poison on every input
(`engine.dead_rows`, through `_live`): no point of such a tuple violates
refinement, so the first violation does not move, and their points still
count.  The exhaustive check keeps the looped axis that the satisfying
count picks, and a map left without tuples is one empty block, so that lhs
and rhs still run and a fault in them is reported.  The special-value pass
keeps every tuple, as its loop cap counts them.
Grids are enumerated by bit slicing the flat index (`engine.unravel_chunk`,
`engine.slice_digits`).  The sampled scan evaluates each distinct constant
tuple and each distinct sampled input tuple once (first occurrences in
order, compared by bit pattern through one sorted 64-bit key per tuple,
`_row_key`): a repeated point cannot hold the first
violation, because its first occurrence comes earlier.  Its point count
still covers every drawn point, repeats included.  The last sampled input
row is remembered and reused by a check whose generator is in the state it
was drawn from (`_sampled_inputs`).  Every satisfying constant set is built
by one filter (`_satisfying`).  Every Refuted verdict carries a
counterexample that is re-checked with the scalar evaluator before being
returned (self-validation).

The strictly-weaker check reads its point space `_WEAKER_PIECE` (2^16)
points at a time (`_pieces`): the exhaustive grid through
`engine.unravel_chunk`, or the seeded draws and then the special cross,
whose ranges are unravelled as they are read (`_cross_reader`, shared with
`sample_satisfying_consts`).
Its "not implied" point and its witness are both replayed with the scalar
evaluator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import engine, semantics
from .ir import (
    CBin, CInt, CUn, FloatType, IntType, Literal, PeepError, Rule,
    VarWidthType, bind_consts, iter_expr, literal_fits, map_rule,
    pred_const_names, pred_exprs, pred_param_refs, resolve_widths,
    retype_float_literal, to_signed, to_unsigned,
)

REJECTION_CAP = 10 ** 6
_SPECIAL_CROSS_CAP = 1 << 16
_SPECIAL_LOOP_CAP = 512
_CHUNK = 1 << 22
# a scan evaluates about this many points at once when its rows are short
_BLOCK = 1 << 17
# the strictly-weaker check reads its point space this many points at a
# time; it is kept apart from `_BLOCK` for memory, not speed: at 2^17 its
# pieces raised peak memory and saved no time
_WEAKER_PIECE = 1 << 16
# a walk can materialize every constant assignment of the space it filters;
# above this cap memory would blow up, so rejection sampling takes over even
# when the budget would nominally allow a walk
_ENUM_CAP = 1 << 26
# a free constant with at most this many patterns is narrowed to those that
# satisfy the const-only conjuncts naming it alone
_NARROW_SPACE = 1 << 16
# a constant walk filters this many flat indices at a time
_WALK_PIECE = 1 << 14


class ReplayMismatch(PeepError):
    """Vectorized and scalar evaluation disagreed on a counterexample."""


@dataclass(frozen=True)
class Budget:
    exhaustive_limit: int = 1 << 24
    sample_count: int = 65536  # 0 disables sampling (exhaustive-only mode)
    constant_sample_count: int = 256
    rng_seed: int = 0


@dataclass(frozen=True)
class Counterexample:
    consts: dict  # name -> bit pattern
    widths: dict  # width var -> int
    inputs: dict  # param -> bit pattern
    lhs_poison: bool
    rhs_poison: bool
    lhs_value: Optional[int]
    rhs_value: Optional[int]


@dataclass(frozen=True)
class Verified:
    mode: str  # "exhaustive" | "sampled"
    points: int
    space: str
    seed: int
    # the check used its seed (`check_refinement`); not in the JSON
    seeded: bool = field(default=False, compare=False)

    @property
    def kind(self) -> str:
        return "verified"


@dataclass(frozen=True)
class Refuted:
    counterexample: Counterexample
    seed: int
    # as `Verified.seeded`
    seeded: bool = field(default=False, compare=False)

    @property
    def kind(self) -> str:
        return "refuted"


@dataclass(frozen=True)
class Inconclusive:
    reason: str  # BudgetExceeded | NoSatisfyingConstants | UnsupportedConstruct
    detail: str = ""

    @property
    def kind(self) -> str:
        return "inconclusive"


Verdict = Union[Verified, Refuted, Inconclusive]


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Verified):
        return {"kind": "verified", "mode": v.mode, "points": v.points,
                "space": v.space, "seed": v.seed}
    if isinstance(v, Refuted):
        cx = v.counterexample
        return {
            "kind": "refuted", "seed": v.seed,
            "counterexample": {
                "consts": {k: hex(p) for k, p in cx.consts.items()},
                "widths": dict(cx.widths),
                "inputs": {k: hex(p) for k, p in cx.inputs.items()},
                "lhs": "poison" if cx.lhs_poison else hex(cx.lhs_value),
                "rhs": "poison" if cx.rhs_poison else hex(cx.rhs_value),
            },
        }
    return {"kind": "inconclusive", "reason": v.reason, "detail": v.detail}


# ---------------------------------------------------------------------------
# Scalar replay


def scalar_value(pattern: int, ty):
    """The scalar evaluator's value for bit pattern `pattern` of type `ty`."""
    if isinstance(ty, FloatType):
        return semantics.FloatBits(ty.bits, pattern)
    return semantics.Bits(ty.width, pattern)


def replay_counterexample(rule: Rule, cx: Counterexample) -> bool:
    """Re-evaluate a counterexample with the scalar evaluator; True when the
    refinement violation reproduces."""
    resolved = resolve_widths(rule, dict(cx.widths)) if rule.width_vars else rule
    consts = {name: (cx.consts[name], ty) for name, ty in resolved.sym_consts}
    params = {name: scalar_value(cx.inputs[name], ty)
              for name, ty in resolved.lhs.params}
    if not semantics.eval_predicate(resolved.pre, params, consts, {}):
        return False
    args = [params[name] for name, _ in resolved.lhs.params]
    inst = bind_consts(resolved, consts)
    lv = semantics.eval_function(inst.lhs, args)
    rv = semantics.eval_function(inst.rhs, args)
    if lv is semantics.POISON:
        return False
    return rv is semantics.POISON or not semantics.values_equal(lv, rv)


# ---------------------------------------------------------------------------
# Constant-space walk and sampling


def _space(decls) -> int:
    return math.prod(engine.space_of(ty) for _, ty in decls)


def _digits_to_data(digits, ty):
    return engine.patterns_to_vval(digits, ty).data


def _vvals(decls, patterns: list) -> dict:
    return {name: engine.patterns_to_vval(p, ty)
            for (name, ty), p in zip(decls, patterns)}


def _const_count(const_map: dict) -> int:
    """Assignments in a constant map; a map of no constants holds one."""
    return len(next(iter(const_map.values()))[0]) if const_map else 1


def typed_const_defs(resolved: Rule) -> tuple:
    """`engine.split_const_defs` with each derived constant's type attached:
    returns (free constants, [(name, expr, Type)] in definition order)."""
    free, defs = engine.split_const_defs(resolved)
    types = dict(resolved.sym_consts)
    return free, [(name, expr, types[name]) for name, expr in defs]


def _satisfying(free: list, defs: list, const_only, patterns: list,
                n: int) -> tuple:
    """The assignments among `n` patterns of the free constants that satisfy
    the const-only conjuncts, with the derived constants computed in
    definition order: name -> (array, Type), free constants first; and the
    boolean mask of the patterns kept."""
    consts = {name: (_digits_to_data(p, ty), ty)
              for (name, ty), p in zip(free, patterns)}
    for name, expr, ty in defs:
        cv = engine.eval_constexpr_vec(expr, consts)
        if isinstance(ty, FloatType):
            data = np.asarray(cv.data, dtype=f"float{ty.bits}")
        elif cv.width is None:
            data = engine.udtype(ty.width)(to_unsigned(int(cv.data), ty.width))
        elif cv.width == ty.width:
            data = np.asarray(cv.data)
        else:
            raise engine.UnsupportedConstruct(
                f"derived constant {name} width mismatch")
        consts[name] = (data, ty)
    keep = np.broadcast_to(np.asarray(
        engine.eval_pred_vec(const_only, {}, consts), dtype=bool), (n,))
    return {name: (np.broadcast_to(np.asarray(data), (n,))[keep], ty)
            for name, (data, ty) in consts.items()}, keep


def _join(resolved: Rule, batches: list) -> dict:
    """Concatenate `_satisfying` batches, in declaration order."""
    return {name: (np.concatenate([b[name][0] for b in batches]), ty)
            for name, ty in resolved.sym_consts}


class _FreeSpace:
    """The free constants' space, each constant narrowed by its own
    conjuncts.

    `allowed[i]` holds the sorted patterns of free constant i that satisfy
    every const-only conjunct naming that constant alone, or None (all of
    its patterns) when no such conjunct exists or its type has more than
    `_NARROW_SPACE` patterns.  Digit i of a flat index picks from
    `allowed[i]`; its radix is the count rounded up to a power of two, so
    grids are still bit-sliced, and a digit past the count is padding that
    names no tuple.  The lists are sorted, so flat index order is the
    lexicographic order of the tuples, the order of the unnarrowed product.
    `rest` holds the const-only conjuncts not folded into a digit.
    """

    def __init__(self, free: list, const_only: list):
        self.free = free
        self.allowed, self.bits = [], []
        folded = set()
        for name, ty in free:
            size = engine.space_of(ty)
            own = [i for i, c in enumerate(const_only)
                   if pred_const_names(c) == {name}]
            allowed = None
            if own and size <= _NARROW_SPACE:
                pats = np.arange(size, dtype=engine.storage_dtype(ty))
                keep = engine.eval_pred_vec(
                    [const_only[i] for i in own], {},
                    {name: (_digits_to_data(pats, ty), ty)})
                allowed = pats[np.broadcast_to(np.asarray(keep, dtype=bool),
                                               (size,))]
                size = len(allowed)
                folded.update(own)
            self.allowed.append(allowed)
            self.bits.append(max(size - 1, 0).bit_length())
        self.rest = [c for i, c in enumerate(const_only) if i not in folded]

    @property
    def size(self) -> int:
        """Flat indices in the space, padding included."""
        return 1 << sum(self.bits)

    @property
    def empty(self) -> bool:
        """Some constant has no allowed pattern."""
        return any(a is not None and not len(a) for a in self.allowed)

    def satisfying(self, idx: np.ndarray, defs: list) -> tuple:
        """`_satisfying` over the tuples at flat indices `idx`, in that
        order, padding skipped; its mask is over `idx`, padding unkept."""
        digits = engine.slice_digits(
            idx, self.bits, [engine.storage_dtype(ty) for _, ty in self.free])
        valid = None
        for d, allowed, b in zip(digits, self.allowed, self.bits):
            if allowed is not None and len(allowed) < 1 << b:
                ok = d < len(allowed)
                valid = ok if valid is None else valid & ok
        n = len(idx)
        if valid is not None:
            digits = [d[valid] for d in digits]
            n = int(np.count_nonzero(valid))
        patterns = [d if allowed is None else allowed[d]
                    for d, allowed in zip(digits, self.allowed)]
        sat, keep = _satisfying(self.free, defs, self.rest, patterns, n)
        if valid is not None:
            full = np.zeros(len(idx), dtype=bool)
            full[valid] = keep
            keep = full
        return sat, keep


def _permute(idx: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """Flat indices `idx` (uint32) under a seeded bijection of
    [0, 2**bits): an odd multiplier plus a seed-derived offset, then an
    xorshift and a second odd multiplier, each modulo 2**bits."""
    u = np.uint32
    m = u((1 << bits) - 1)
    offset = u((seed * 0x85EBCA6B + 0x6A09E667) & 0xFFFFFFFF)
    x = (idx * u(0x9E3779B1) + offset) & m
    x ^= x >> u((bits + 1) // 2)
    return (x * u(0xC2B2AE35)) & m


def _walk(resolved: Rule, space: _FreeSpace, defs: list,
          stop: Optional[int], seed: int) -> dict:
    """Filter the free space `_WALK_PIECE` flat indices at a time, until
    the piece in which the satisfying tuples found reach `stop` (None: no
    bound) or the end of the space; returns name -> (array, Type).

    A bound below the space walks a seeded bijection of the flat indices
    (`_permute`), so a stopped walk yields every find up to the end of that
    piece, in the seeded order.  A complete walk (fewer than `stop` finds)
    visited every index and sorts its finds back to index order.  Memory
    stays at one piece besides the finds.
    """
    total = space.size
    bits = sum(space.bits)
    permuted = stop is not None and stop < total
    dtype = engine.index_dtype(bits)
    pieces, found = [], 0
    for start in range(0, total, _WALK_PIECE):
        if stop is not None and found >= stop:
            break
        idx = np.arange(start, min(start + _WALK_PIECE, total), dtype=dtype)
        if permuted:
            idx = _permute(idx, bits, seed)
        pieces.append(space.satisfying(idx, defs)[0])
        found += _const_count(pieces[-1])
    const_map = _join(resolved, pieces)
    if permuted and found < stop:
        # index order is the lexicographic order of the free patterns
        order = np.lexsort([const_map[name][0].view(engine.storage_dtype(ty))
                            for name, ty in reversed(space.free)])
        const_map = {name: (arr[order], ty)
                     for name, (arr, ty) in const_map.items()}
    return const_map


def enumerate_satisfying_consts(resolved: Rule, free: list, defs: list,
                                const_only) -> dict:
    """All satisfying constant assignments in index order (a complete walk
    of the narrowed space); returns name -> (array, Type)."""
    return _walk(resolved, _FreeSpace(free, const_only), defs, None, 0)


def _type_pools(types: list) -> list:
    return [engine.special_float_patterns(ty.bits) if isinstance(ty, FloatType)
            else engine.special_int_patterns(ty.width) for ty in types]


def _cross_pools(pools: list, cap: int) -> list:
    """Cross the per-position pools up to `cap` tuples, diagonal beyond."""
    if not pools:
        return []
    if math.prod(len(p) for p in pools) <= cap:
        grids = np.meshgrid(*pools, indexing="ij")
        return [g.reshape(-1) for g in grids]
    n = max(len(p) for p in pools)
    return [np.resize(p, n) for p in pools]


def _cross_reader(pools: list, cap: int) -> tuple:
    """`_cross_pools` read by ranges: (its tuple count, a function from a
    range [a, b) of it to one pattern array per pool).  A range of a cross
    is unravelled when it is read, so a large cross is never built whole."""
    shape = tuple(map(len, pools))
    total = math.prod(shape) if pools else 0
    if total > cap:
        diagonal = _cross_pools(pools, cap)
        return len(diagonal[0]), lambda a, b: [d[a:b] for d in diagonal]
    return total, lambda a, b: [
        p[d] for p, d in zip(pools, np.unravel_index(np.arange(a, b), shape))]


def _harvested_literals(resolved: Rule) -> list:
    """Integer literals appearing in the precondition."""
    return sorted({e.value for conj in resolved.pre for e in iter_expr(conj)
                   if isinstance(e, CInt)})


def _const_special_pools(resolved: Rule, free: list) -> list:
    """Special values plus precondition literals (and neighbours) per constant.

    Bounds that `engine.split_const_defs` does not turn into definitions,
    such as `C1 + 1 <=u 174 && C1 + 1 >=u 174`, confine the satisfying set to
    a region random draws essentially never hit; seeding the pool with the
    precondition's own literals makes those assignments deterministic finds.
    """
    lits = _harvested_literals(resolved)
    pools = []
    for (_name, ty), base in zip(free, _type_pools([ty for _, ty in free])):
        if isinstance(ty, IntType) and lits:
            extra = {to_unsigned(v + d, ty.width)
                     for v in lits for d in (-1, 0, 1)
                     if literal_fits(v + d, ty.width)}
            if extra:
                base = np.unique(np.concatenate(
                    [base, np.array(sorted(extra), dtype=base.dtype)]))
        pools.append(base)
    return pools


def _sample_free_patterns(rng, free: list, n: int) -> list:
    out = []
    for _, ty in free:
        if isinstance(ty, FloatType):
            out.append(engine.sample_float_patterns(rng, ty.bits, n))
        else:
            out.append(engine.sample_int_patterns(rng, ty.width, n))
    return out


def _sampled_patterns(rng, decls: list, n: int, cap: int) -> list:
    """`n` random patterns per declaration, then the special-value cross
    product (up to `cap` tuples)."""
    pats = _sample_free_patterns(rng, decls, n)
    specials = _cross_pools(_type_pools([ty for _, ty in decls]), cap)
    if specials:
        pats = [np.concatenate([p, s.astype(p.dtype)])
                for p, s in zip(pats, specials)]
    return pats


def sample_satisfying_consts(resolved: Rule, free: list, defs: list,
                             const_only, budget: Budget, rng) -> Optional[dict]:
    """Rejection-sample satisfying assignments, special values first; None
    when the cap is hit without finding any.

    The special-value cross (`_cross_reader`, capped at `_CHUNK`) is
    filtered `_WALK_PIECE` tuples at a time and stops at the end of the
    piece where the finds reach `constant_sample_count`: the tuples past
    them would be cut, and no random draw is made."""
    batches, found = [], 0
    total, read = _cross_reader(_const_special_pools(resolved, free), _CHUNK)
    for start in range(0, total, _WALK_PIECE):
        end = min(start + _WALK_PIECE, total)
        batches.append(_satisfying(free, defs, const_only, read(start, end),
                                   end - start)[0])
        found += _const_count(batches[-1])
        # one find decides None for a sample count of 0
        if found >= max(budget.constant_sample_count, 1):
            break
    drawn = 0
    while found < budget.constant_sample_count and drawn < REJECTION_CAP:
        take = min(8192, REJECTION_CAP - drawn)
        batches.append(_satisfying(free, defs, const_only,
                                   _sample_free_patterns(rng, free, take),
                                   take)[0])
        found += _const_count(batches[-1])
        drawn += take
    if found == 0:
        return None
    limit = budget.constant_sample_count
    return {name: (data[:limit], ty)
            for name, (data, ty) in _join(resolved, batches).items()}


def _satisfying_specials(resolved: Rule, free: list, defs: list,
                         const_only) -> Optional[dict]:
    """Special-value constant tuples that satisfy the precondition."""
    specials = _cross_pools(_const_special_pools(resolved, free),
                            _SPECIAL_CROSS_CAP)
    if not specials:
        return None
    sat = _satisfying(free, defs, const_only, specials, len(specials[0]))[0]
    return sat if _const_count(sat) else None


# ---------------------------------------------------------------------------
# Cross-space scanning


def _columns(decls, patterns: Optional[list] = None):
    """The tuples of `decls` as columns: a function from a flat index range
    [a, b) to name -> VVal.

    With `patterns` (one array per declaration) the tuples are theirs,
    otherwise the full grid of `decls` in flat order.  Columns of at most
    `_CHUNK` tuples are built once, made read-only (an evaluator writing
    into its inputs would corrupt the next block) and sliced; a larger grid
    is built range by range, so peak memory stays at one block."""
    types = [ty for _, ty in decls]
    if patterns is None:
        total = _space(decls)
        if total > _CHUNK:
            return lambda a, b: _vvals(decls,
                                       engine.unravel_chunk(types, a, b))
        patterns = engine.unravel_chunk(types, 0, total) if types else []
    full = _vvals(decls, patterns)
    for v in full.values():
        v.data.setflags(write=False)
    return lambda a, b: {name: engine.VVal(v.data[a:b], None, v.ty)
                         for name, v in full.items()}


def _blocks(rows: int, cols: int, cap: Optional[int]):
    """The [r0, r1) x [c0, c1) blocks that cover the first `cap` of `rows`
    looped entries x `cols` vectorised ones in C order: consecutive rows
    of about `_BLOCK` points together, and a wider row in pieces of
    `_BLOCK` points, the rest joining the last piece, so every block holds
    fewer than `2 * _BLOCK` points.  A scan refuted early in a wide row so
    pays for little more than the points before its violation."""
    rows = min(rows, cap) if cap is not None else rows
    if cols <= _BLOCK:
        step = _BLOCK // cols
        for r in range(0, rows, step):
            yield r, min(r + step, rows), 0, cols
        return
    pieces = cols // _BLOCK
    for r in range(rows):
        for i in range(pieces):
            yield (r, r + 1, i * _BLOCK,
                   cols if i == pieces - 1 else (i + 1) * _BLOCK)


def _slices(const_map: dict, grid, points: int, cap: Optional[int] = None,
            loop_inputs: bool = False):
    """The (params, consts, shape) blocks of constants x the `points` input
    tuples of `grid` (a `_columns` function), in scan order.

    Constant assignments are looped and the inputs vectorised, or with
    `loop_inputs` the input tuples are looped and the constants vectorised.
    A block is a column of consecutive looped entries x a piece of the
    vectorised row (`_blocks`), so its flat C-order index visits points in
    the same order as looping one entry at a time.  `cap` bounds the
    number of looped entries.  A map of no tuple (`_live` dropped them all)
    is one empty block, so that a scan still evaluates lhs and rhs and
    reports a fault in them before any verdict.
    """
    nc = _const_count(const_map)
    rows, cols = (points, nc) if loop_inputs else (nc, points)
    pshape, kshape = ((-1, 1), (1, -1)) if loop_inputs else ((1, -1), (-1, 1))
    for r0, r1, c0, c1 in _blocks(rows, cols, cap) if nc else [(0, 0, 0, 0)]:
        p, k = ((r0, r1), (c0, c1)) if loop_inputs else ((c0, c1), (r0, r1))
        params = {name: engine.VVal(v.data.reshape(pshape), None, v.ty)
                  for name, v in grid(*p).items()}
        consts = {name: (np.asarray(arr)[slice(*k)].reshape(kshape), ty)
                  for name, (arr, ty) in const_map.items()}
        yield params, consts, (r1 - r0, c1 - c0)


def _scan(resolved: Rule, widths: dict, slices,
          budget: Budget) -> Optional[Refuted]:
    """Check the blocks in order; returns Refuted at the first violation,
    or None."""
    param_conjs = [c for c in resolved.pre if pred_param_refs(c)]
    for params, consts, shape in slices:
        pre = None
        if param_conjs:
            try:
                pre = _block_mask(
                    engine.eval_pred_vec(param_conjs, params, consts), shape)
            except Exception:
                # a fault in lhs or rhs is reported before one in the
                # precondition
                engine.eval_function_vec(resolved.lhs, params, consts)
                engine.eval_function_vec(resolved.rhs, params, consts)
                raise
            # gathering a point costs several elementwise operations: a
            # denser block is cheaper to evaluate whole and mask
            if 2 * np.count_nonzero(pre) <= pre.size:
                params, consts, shape = _admitted(params, consts, pre)
                pre = None
        lv = engine.eval_function_vec(resolved.lhs, params, consts)
        rv = engine.eval_function_vec(resolved.rhs, params, consts)
        viol = ~np.asarray(engine.values_equal_vec(lv, rv), dtype=bool)
        if rv.poison is not None:
            viol = engine.mask_or(viol, rv.poison)
        if lv.poison is not None:
            viol = engine.mask_and(viol, ~lv.poison)
        if pre is not None:
            viol = engine.mask_and(viol, pre)
        hit = _first_true(viol, shape)
        if hit is not None:
            cx = _extract_point(resolved, widths, params, consts, lv, rv,
                                np.unravel_index(hit, shape), shape)
            if not replay_counterexample(resolved, cx):
                raise ReplayMismatch(
                    f"counterexample does not replay under scalar semantics: {cx}")
            return Refuted(cx, budget.rng_seed)
    return None


def _live(resolved: Rule, const_map: dict) -> dict:
    """`const_map` without the tuples at which the constants alone make the
    lhs poison on every input (`engine.dead_rows`).  Refinement puts no
    constraint on a point where the lhs is poison, so no point of such a
    tuple holds a violation; its points are decided, and still counted."""
    try:
        dead = engine.dead_rows(resolved.lhs, const_map)
    except engine.UnsupportedConstruct:
        # the scan reports it, after any fault that comes before it
        return const_map
    if dead is None:
        return const_map
    return {name: (arr[~dead], ty) for name, (arr, ty) in const_map.items()}


def _admitted(params: dict, consts: dict, pre: np.ndarray) -> tuple:
    """The block's params and constants at the points `pre` (of the block's
    shape) admits, as 1-D arrays in C order, and their shape."""
    flat = np.flatnonzero(pre)
    # (row, column) of each point of a 2-D block; a 1-D block is one row
    at = np.divmod(flat, pre.shape[1]) if pre.ndim == 2 else (flat, flat)

    def take(data):
        # a block's array is a scalar, a row along its last axis or a
        # column along its first
        a = np.asarray(data)
        if a.size == 1:
            return a.reshape(())
        return a.reshape(-1)[at[1] if a.shape[-1] > 1 else at[0]]

    params = {name: engine.VVal(take(v.data),
                                None if v.poison is None else take(v.poison),
                                v.ty)
              for name, v in params.items()}
    consts = {name: (take(data), ty) for name, (data, ty) in consts.items()}
    return params, consts, flat.shape


def _block_mask(mask, shape: tuple) -> np.ndarray:
    """The boolean `mask` broadcast to `shape`; `np.broadcast_to` is a
    Python-level call, made only when the shape differs."""
    m = np.asarray(mask, dtype=bool)
    return m if m.shape == shape else np.broadcast_to(m, shape)


def _first_true(viol, shape: tuple) -> Optional[int]:
    """The flat C-order index of the first True in `viol` broadcast to
    `shape`, or None."""
    v = _block_mask(viol, shape)
    return int(v.argmax()) if v.any() else None


def _extract_point(resolved: Rule, widths: dict, params: dict, consts: dict,
                   lv, rv, at: tuple, shape: tuple) -> Counterexample:
    def pick(data):
        return np.broadcast_to(np.asarray(data), shape)[at]

    def pattern(data, ty) -> int:
        return engine.vval_pattern_at(engine.VVal(pick(data), None, ty), ())

    inputs = {name: pattern(params[name].data, ty)
              for name, ty in resolved.lhs.params}
    cx_consts = {name: pattern(data, ty) for name, (data, ty) in consts.items()}

    def result(v: engine.VVal):
        pois = bool(pick(v.poison)) if v.poison is not None else False
        return pois, (None if pois else pattern(v.data, v.ty))

    lp, lval = result(lv)
    rp, rval = result(rv)
    return Counterexample(cx_consts, dict(widths), inputs, lp, rp, lval, rval)


# ---------------------------------------------------------------------------
# check_refinement


def check_refinement(rule: Rule, widths: Optional[dict] = None,
                     budget: Optional[Budget] = None) -> Verdict:
    """Does `rule`, its width variables bound by `widths`, refine under
    `budget`?

    A Verified or Refuted verdict is `seeded` when the check used its
    seed: its permuted constant walk stopped at its bound, or it drew
    constants or inputs from its generator.  Any other check gives the same
    verdict under every seed but for the `seed` it carries."""
    widths = widths or {}
    budget = budget or Budget()
    try:
        return _check_refinement(rule, widths, budget)
    except engine.UnsupportedConstruct as e:
        return Inconclusive("UnsupportedConstruct", str(e))


def _check_refinement(rule: Rule, widths: dict, budget: Budget) -> Verdict:
    resolved = resolve_widths(rule, widths) if rule.width_vars else rule
    rng = np.random.default_rng(budget.rng_seed)

    const_only = [c for c in resolved.pre if not pred_param_refs(c)]
    free, defs = typed_const_defs(resolved)
    space = _FreeSpace(free, const_only)
    # a rule without constants has no constant map to filter: its
    # constant-only conjuncts are one truth value
    if space.empty or not (resolved.sym_consts or np.all(
            engine.eval_pred_vec(const_only, {}, {}))):
        return Inconclusive("NoSatisfyingConstants",
                            "no constant assignment satisfies the precondition")
    pspace = _space(resolved.lhs.params)

    const_map = None  # None: too many constants to walk, sample them
    stopped = False  # the permuted walk stopped at its bound
    if space.size <= min(budget.exhaustive_limit, _ENUM_CAP):
        # past this many satisfying tuples the check is sampled, and the
        # first `constant_sample_count` of them are its sample
        stop = (max(budget.exhaustive_limit // pspace,
                    budget.constant_sample_count) + 1
                if budget.sample_count else None)
        const_map = _walk(resolved, space, defs, stop, budget.rng_seed)
        sat = _const_count(const_map)
        if sat == 0:
            return Inconclusive("NoSatisfyingConstants",
                                "no constant assignment satisfies the precondition")
        if sat * pspace <= budget.exhaustive_limit:
            # the looped axis is the one the satisfying count picks, so that
            # dropping dead tuples does not change the scan order
            slices = _slices(_live(resolved, const_map),
                             _columns(resolved.lhs.params), pspace,
                             loop_inputs=sat > pspace)
            return _scan(resolved, widths, slices, budget) or Verified(
                "exhaustive", sat * pspace,
                f"{sat} constants x {pspace} inputs", budget.rng_seed)
        if budget.sample_count == 0:
            return Inconclusive(
                "BudgetExceeded",
                f"joint satisfying space {sat}x{pspace} exceeds "
                f"{budget.exhaustive_limit} and sampling is disabled")
        # a complete walk has at most `constant_sample_count` finds here
        # (more than `exhaustive_limit // pspace`), so all are kept; a
        # stopped walk keeps its first finds in the seeded order
        stopped = stop < space.size and sat >= stop
        const_map = {name: (arr[:budget.constant_sample_count], ty)
                     for name, (arr, ty) in const_map.items()}
    elif budget.sample_count == 0:
        return Inconclusive(
            "BudgetExceeded",
            f"constant space {space.size} exceeds {budget.exhaustive_limit} "
            "and sampling is disabled")

    # the special-value pass, then the sampled scan
    start = rng.bit_generator.state
    specials = _satisfying_specials(resolved, free, defs, const_only)
    verdict = _special_cross_refute(resolved, widths, specials, budget)
    if verdict is None:
        if const_map is None:
            const_map = sample_satisfying_consts(resolved, free, defs,
                                                 const_only, budget, rng)
            if const_map is None:
                return Inconclusive(
                    "NoSatisfyingConstants",
                    f"no satisfying constants in {REJECTION_CAP} draws")
        elif specials:
            const_map = _join(resolved, [const_map, specials])
        verdict = _scan_sampled(resolved, widths, const_map, budget, rng)
    # a draw of constants or inputs moves the generator
    return replace(verdict, seeded=stopped or rng.bit_generator.state != start)


def _special_cross_refute(resolved: Rule, widths: dict,
                          sp_consts: Optional[dict],
                          budget: Budget) -> Optional[Verdict]:
    """Scan the satisfying special constant tuples against special inputs.

    Random constant selection can miss narrow corner regions entirely; this
    pass makes refutation on the special-value grid deterministic.  At most
    `_SPECIAL_LOOP_CAP` entries of the looped axis are scanned.
    """
    if sp_consts is None:
        return None
    fn = resolved.lhs
    sp = _cross_pools(_type_pools([ty for _, ty in fn.params]),
                      _SPECIAL_CROSS_CAP)
    points = len(sp[0]) if sp else 1
    slices = _slices(sp_consts, _columns(fn.params, sp), points,
                     _SPECIAL_LOOP_CAP, _const_count(sp_consts) > points)
    return _scan(resolved, widths, slices, budget)


def _scan_sampled(resolved: Rule, widths: dict, const_map: dict,
                  budget: Budget, rng) -> Verdict:
    """Loop over the constants, each against the full input grid when it
    holds no more than `sample_count` points, else against sampled inputs.

    A repeated constant tuple or sampled input tuple gives the same lhs,
    rhs and precondition as its first occurrence, which comes first in
    row-major order, so only first occurrences are scanned, and of the
    constant tuples only the live ones (`_live`); the point count is that of
    the drawn constants x the drawn inputs, repeats and dead tuples
    included."""
    fn = resolved.lhs
    pspace = _space(fn.params)
    full_grid = pspace <= max(budget.sample_count, 1)
    if full_grid:
        grid, points, inputs = _columns(fn.params), pspace, pspace
    else:
        pats, inputs = _sampled_inputs(rng, fn.params, budget.sample_count)
        grid, points = _columns(fn.params, pats), len(pats[0])
    refuted = _scan(resolved, widths, _slices(
        _live(resolved, _distinct_consts(const_map)), grid, points), budget)
    count = _const_count(const_map)
    space = f"{count} sampled constants x " + (
        f"{pspace} inputs (full grid)" if full_grid else "sampled inputs")
    return refuted or Verified("sampled", count * inputs, space,
                               budget.rng_seed)


def _first_occurrences(columns: list) -> Optional[np.ndarray]:
    """The indices of the first occurrence of each distinct row of the
    equal-length bit-pattern `columns`, in increasing order; None when no
    row repeats."""
    n = len(columns[0])
    if not n:
        return None
    key, exact = _row_key(columns, n)
    # the sort need not be stable, as each group's first occurrence is its
    # least index
    order = np.argsort(key)
    s = key[order]
    same = s[1:] == s[:-1]
    if not exact and _collides(columns, order, same):
        firsts = _lexsort_firsts(columns)
    else:
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        firsts = (None if len(starts) == n
                  else np.minimum.reduceat(order, starts))
    if firsts is None:
        return None
    # marking the first occurrences puts them in increasing order without
    # a second sort
    marked = np.zeros(n, dtype=bool)
    marked[firsts] = True
    return np.flatnonzero(marked)


def _row_key(columns: list, n: int) -> tuple:
    """One uint64 key per row of `columns`, and whether equal keys mean
    equal rows: a row of at most 64 bits is packed into its key, a wider
    one mixed into it by a splitmix64 finalizer per column."""
    key = np.zeros(n, dtype=np.uint64)
    if sum(c.dtype.itemsize for c in columns) <= 8:
        for col in columns:
            key <<= np.uint64(8 * col.dtype.itemsize)
            key |= col
        return key, True
    for col in columns:
        key ^= col
        key ^= key >> np.uint64(30)
        key *= np.uint64(0xBF58476D1CE4E5B9)
        key ^= key >> np.uint64(27)
        key *= np.uint64(0x94D049BB133111EB)
        key ^= key >> np.uint64(31)
    return key, False


def _collides(columns: list, order: np.ndarray, same: np.ndarray) -> bool:
    """Two different rows share a key: some neighbours in key order
    (`order`) whose keys are equal (`same`) differ in a column."""
    at = np.flatnonzero(same)
    a, b = order[at], order[at + 1]
    return any(np.any(col[a] != col[b]) for col in columns)


def _lexsort_firsts(columns: list) -> Optional[np.ndarray]:
    """The first occurrence of each distinct row, by a stable sort of the
    rows themselves, which puts it first in its group; None when no row
    repeats."""
    order = np.lexsort(columns)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for col in columns:
        s = col[order]
        first[1:] |= s[1:] != s[:-1]
    return None if first.all() else order[first]


def _distinct_consts(const_map: dict) -> dict:
    """`const_map` without the repeats of its constant tuples, compared by
    bit pattern, first occurrences in order."""
    if not const_map:
        return const_map
    keep = _first_occurrences([np.asarray(arr).view(engine.storage_dtype(ty))
                               for arr, ty in const_map.values()])
    if keep is None:
        return const_map
    return {name: (arr[keep], ty) for name, (arr, ty) in const_map.items()}


# the last sampled input row: ((parameter types, sample count, generator
# state before the draw), its distinct tuples, the tuples drawn, generator
# state after the draw); shared by every check in the process
_last_inputs: Optional[tuple] = None


def _sampled_inputs(rng, params: tuple, n: int) -> tuple:
    """`_sampled_patterns` of `params`, without the repeats of its tuples
    (first occurrences in order, read-only), and the number of tuples drawn.

    The last row is remembered: a check with the same parameter types and
    sample count whose generator is in the same state gets that row and
    the generator state a draw would leave, without drawing."""
    global _last_inputs
    key = (tuple(ty for _, ty in params), n, rng.bit_generator.state)
    last = _last_inputs
    if last is not None and last[0] == key:
        rng.bit_generator.state = last[3]
        return last[1], last[2]
    pats = _sampled_patterns(rng, params, n, _SPECIAL_CROSS_CAP)
    drawn = len(pats[0])
    keep = _first_occurrences(pats)
    if keep is not None:
        pats = [p[keep] for p in pats]
    for p in pats:
        p.setflags(write=False)
    _last_inputs = (key, pats, drawn, rng.bit_generator.state)
    return pats, drawn


# ---------------------------------------------------------------------------
# Strictly-weaker precondition testing


@dataclass(frozen=True)
class StrictlyWeaker:
    witness: dict  # const name -> pattern (and input name -> pattern if needed)

    @property
    def kind(self) -> str:
        return "strictly_weaker"


@dataclass(frozen=True)
class EquivalentOrIncomparable:
    direction: str  # "no_witness" (B failed) | "not_implied" (A failed)
    point: Optional[dict] = None

    @property
    def kind(self) -> str:
        return "equivalent_or_incomparable"


def check_strictly_weaker(rule: Rule, weakened_pre: tuple,
                          budget: Optional[Budget] = None):
    """Is `weakened_pre` implied by rule.pre with some point separating them?
    `rule` and `weakened_pre` have concrete widths.

    Direction A: every point satisfying pre satisfies weakened_pre.
    Direction B: some point satisfies weakened_pre but not pre.
    """
    budget = budget or Budget()
    if not isinstance(weakened_pre, tuple):
        weakened_pre = (weakened_pre,)
    try:
        return _strictly_weaker(rule, weakened_pre, budget)
    except engine.UnsupportedConstruct as e:
        return Inconclusive("UnsupportedConstruct", str(e))


def _strictly_weaker(resolved: Rule, weak: tuple, budget: Budget):
    refs = set()
    for c in tuple(resolved.pre) + weak:
        refs |= pred_param_refs(c)
    # parameters that appear in a predicate are folded into the point space
    # as extra enumerated/sampled dimensions
    free = list(resolved.sym_consts)
    decls = free + [(n, ty) for n, ty in resolved.lhs.params if n in refs]
    space = _space(decls)
    exhaustive = space <= budget.exhaustive_limit
    if exhaustive:
        types = [ty for _, ty in decls]
        ranges = [(space, lambda a, b: engine.unravel_chunk(types, a, b))]
    elif budget.sample_count == 0:
        return Inconclusive("BudgetExceeded",
                            f"point space {space} exceeds the budget "
                            "and sampling is disabled")
    elif not decls:
        # no declaration leaves one point, the empty tuple
        ranges = [(1, lambda a, b: [])]
    else:
        draws = _sample_free_patterns(np.random.default_rng(budget.rng_seed),
                                      decls, budget.sample_count)
        # predicates are cheap to evaluate, so the special cross can be much
        # larger here than in function scans
        ranges = [(budget.sample_count, lambda a, b: [d[a:b] for d in draws]),
                  _cross_reader(_type_pools([ty for _, ty in decls]),
                                _CHUNK)]

    a_fail = None
    b_witness = None
    for n, patterns in _pieces(ranges):
        params = _vvals(decls, patterns)
        consts = {name: (params.pop(name).data, ty) for name, ty in free}
        pre_ok = np.broadcast_to(
            np.asarray(engine.eval_pred_vec(tuple(resolved.pre), params, consts),
                       dtype=bool), (n,))
        weak_ok = np.broadcast_to(
            np.asarray(engine.eval_pred_vec(weak, params, consts), dtype=bool), (n,))
        if a_fail is None:
            i = _first_true(pre_ok & ~weak_ok, (n,))
            if i is not None:
                a_fail = _point_at(consts, params, i)
        if b_witness is None:
            i = _first_true(weak_ok & ~pre_ok, (n,))
            if i is not None:
                b_witness = _point_at(consts, params, i)
        if a_fail is not None and b_witness is not None:
            break

    if a_fail is not None:
        _replay_point(resolved, weak, a_fail, True, "not-implied point")
        return EquivalentOrIncomparable("not_implied", a_fail)
    if b_witness is None:
        if exhaustive:
            return EquivalentOrIncomparable("no_witness")
        return Inconclusive("BudgetExceeded",
                            "no separating point found in the sampled space")
    _replay_point(resolved, weak, b_witness, False, "strictly-weaker witness")
    return StrictlyWeaker(b_witness)


def _pieces(ranges: list):
    """The (point count, patterns) pieces of at most `_WEAKER_PIECE` points
    that read each (count, read) range in turn, in order."""
    for total, read in ranges:
        for a in range(0, total, _WEAKER_PIECE):
            b = min(a + _WEAKER_PIECE, total)
            yield b - a, read(a, b)


def _point_at(consts: dict, params: dict, i: int) -> dict:
    out = {name: engine.vval_pattern_at(engine.VVal(data, None, ty), i)
           for name, (data, ty) in consts.items()}
    out.update({name: engine.vval_pattern_at(v, i)
                for name, v in params.items()})
    return out


def _replay_point(resolved: Rule, weak: tuple, point: dict, pre_holds: bool,
                  what: str) -> None:
    """Check with the scalar evaluator that rule.pre is `pre_holds` at
    `point` and `weak` is not."""
    consts = {name: (point[name], ty) for name, ty in resolved.sym_consts}
    params = {name: scalar_value(point[name], ty)
              for name, ty in resolved.lhs.params if name in point}
    weak_ok = semantics.eval_predicate(weak, params, consts, {})
    pre_ok = semantics.eval_predicate(resolved.pre, params, consts, {})
    if (bool(pre_ok), bool(weak_ok)) != (pre_holds, not pre_holds):
        raise ReplayMismatch(f"{what} does not replay: {point}")


# ---------------------------------------------------------------------------
# Width reduction


@dataclass(frozen=True)
class ReductionBlocked:
    reason: str


def _reduce_width(w: int):
    if w == 1:
        return 1  # i1 is never scaled
    if w % 2:
        return None
    return w // 2


def _reduce_type(ty):
    if isinstance(ty, IntType):
        w = _reduce_width(ty.width)
        if w is None:
            return ReductionBlocked(f"odd width i{ty.width}")
        return IntType(w)
    if isinstance(ty, FloatType):
        if ty.bits == 16:
            return ReductionBlocked("f16 cannot be demoted further")
        return FloatType(32 if ty.bits == 64 else 16)
    return ty  # width variables are handled via the assignment


def _reduce_literal(lit: Literal, new_ty):
    if isinstance(lit.ty, IntType) and isinstance(new_ty, IntType):
        w, nw = lit.ty.width, new_ty.width
        signed = to_signed(lit.value, w)
        if lit.value < (1 << nw):
            return Literal(lit.value, new_ty)
        if literal_fits(signed, nw):
            return Literal(to_unsigned(signed, nw), new_ty)
        return ReductionBlocked(f"literal {signed} not encodable at {new_ty}")
    if isinstance(lit.ty, FloatType) and isinstance(new_ty, FloatType):
        reduced = retype_float_literal(lit, new_ty.bits)
        if reduced is None:
            f = semantics.bits_to_float(lit.value, lit.ty.bits)
            return ReductionBlocked(
                f"float literal {float(f)} not exactly representable at {new_ty}")
        return reduced
    return lit


def reduce_widths(rule: Rule, widths: Optional[dict] = None):
    """Halve integer widths / demote float precisions uniformly.

    Returns (reduced rule, reduced width assignment) or ReductionBlocked.
    The rule itself is transformed because concrete types appear directly in
    functions and literals.
    """
    widths = widths or {}
    new_widths = {}
    for var, w in widths.items():
        nw = _reduce_width(w)
        if nw is None:
            return ReductionBlocked(f"odd width i{w} for {var}")
        if w > 1 and nw < 1:
            return ReductionBlocked(f"width for {var} would reach 0")
        new_widths[var] = nw

    blocked: list = []

    def conv_ty(ty):
        nt = _reduce_type(ty)
        if isinstance(nt, ReductionBlocked):
            blocked.append(nt)
            return ty
        return nt

    def conv_operand(o):
        if not isinstance(o, Literal):
            return o
        r = _reduce_literal(o, conv_ty(o.ty))
        if isinstance(r, ReductionBlocked):
            blocked.append(r)
            return o
        return r

    reduced = map_rule(rule, conv_operand, conv_ty)
    pre_block = _check_pre_literals(rule, dict(reduced.sym_consts), new_widths)
    if pre_block is not None:
        blocked.append(pre_block)
    if blocked:
        return blocked[0]
    return reduced, new_widths


def _check_pre_literals(rule: Rule, reduced_const_types: dict,
                        new_widths: dict) -> Optional[ReductionBlocked]:
    """Integer literals used in width-wrapped PRE arithmetic must still be
    encodable at the reduced width of the constants they combine with."""
    for conj in rule.pre:
        ws = []
        for name in pred_const_names(conj):
            ty = reduced_const_types.get(name)
            if isinstance(ty, IntType):
                ws.append(ty.width)
            elif isinstance(ty, VarWidthType) and ty.var in new_widths:
                ws.append(new_widths[ty.var])
        if not ws:
            continue
        wmin = min(ws)
        for e in pred_exprs(conj):
            bad = _arith_literal_overflow(e, wmin, top=True)
            if bad is not None:
                return ReductionBlocked(
                    f"precondition constant {bad} not encodable at i{wmin}")
    return None


def _arith_literal_overflow(e, width: int, top: bool) -> Optional[int]:
    # bare comparison operands are compared mathematically and are exempt;
    # literals inside arithmetic wrap at the constant's width and must fit
    if isinstance(e, CInt):
        if not top and not literal_fits(e.value, width):
            return e.value
        return None
    if isinstance(e, CBin):
        return (_arith_literal_overflow(e.a, width, False)
                or _arith_literal_overflow(e.b, width, False))
    if isinstance(e, CUn):
        return _arith_literal_overflow(e.a, width, False)
    return None


# ---------------------------------------------------------------------------
# verify_with_reduction


def verify_with_reduction(rule: Rule, widths: Optional[dict] = None,
                          budget: Optional[Budget] = None):
    """check_refinement with recursive width reduction on BudgetExceeded.

    Returns (verdict, final rule, final width assignment).
    """
    widths = dict(widths or {})
    budget = budget or Budget()
    current = rule
    while True:
        verdict = check_refinement(current, widths, budget)
        if not (isinstance(verdict, Inconclusive)
                and verdict.reason == "BudgetExceeded"):
            return verdict, current, widths
        reduced = reduce_widths(current, widths)
        if isinstance(reduced, ReductionBlocked):
            return (Inconclusive("BudgetExceeded",
                                 f"still over budget; reduction blocked: "
                                 f"{reduced.reason}"),
                    current, widths)
        current, widths = reduced
