"""Pluggable candidate generation for the four generalization stages.

Three interchangeable backends sit behind one `propose` entry point: a
remote chat-completion backend, a deterministic offline heuristic, and a
replay backend that serves previously recorded responses keyed by request
hash.  Every backend has one method, `respond`, which returns its raw
response text; `propose` extracts the fenced candidate texts from it.
Parsing and gating happen in the pipeline.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine, semantics, textfmt, verifier
from .ir import (
    CBin, CCast, CConst, CInt, CUn, Function, IntType, Literal, Local, PCmp,
    PeepError, PPow2, PRange, Rule, SymConst, abstract_local,
    guards_partial_op, map_rule, to_signed, to_unsigned,
)


class ProposerError(PeepError):
    """Transport failure or malformed backend response (retryable)."""


# ---------------------------------------------------------------------------
# Requests and responses


@dataclass(frozen=True)
class SymbolicConstants:
    tag = "symbolic_constants"


@dataclass(frozen=True)
class Structural:
    tag = "structural"


@dataclass(frozen=True)
class WeakenPrecondition:
    conjunct: int
    tag = "weaken_precondition"


@dataclass(frozen=True)
class WidthPredicate:
    passing: tuple
    failing: tuple
    tag = "width_predicate"


@dataclass(frozen=True)
class FeedbackItem:
    kind: str  # SyntaxError | Counterexample | Unprofitable
    detail: str
    candidate: str


@dataclass(frozen=True)
class ProposalRequest:
    stage: object
    rule_text: str
    feedback: tuple = ()
    k: int = 4

    def __post_init__(self):
        if self.feedback and not isinstance(self.stage, SymbolicConstants):
            raise PeepError("feedback is only fed back into the first stage")


def request_hash(req: ProposalRequest) -> str:
    stage = req.stage
    key = {
        "stage": stage.tag,
        "conjunct": getattr(stage, "conjunct", None),
        "passing": list(getattr(stage, "passing", ()) or ()),
        "failing": list(getattr(stage, "failing", ()) or ()),
        "rule": req.rule_text,
        "feedback": [[f.kind, f.detail, f.candidate] for f in req.feedback],
        "k": req.k,
    }
    blob = json.dumps(key, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _data_text(name: str) -> str:
    return resources.files("peepgen").joinpath(f"data/prompts/{name}").read_text()


def render_prompt(req: ProposalRequest) -> str:
    stage = req.stage
    template = _data_text(stage.tag + ".txt")
    feedback = ""
    if req.feedback:
        lines = ["", "Previous attempts failed:"]
        for f in req.feedback:
            lines.append(f"- {f.kind}: {f.detail}")
            if f.candidate:
                lines.append("  candidate was:")
                lines.extend("  " + ln for ln in f.candidate.splitlines())
        lines.append("")
        feedback = "\n".join(lines)
    text = (template
            .replace("{{GRAMMAR}}", _data_text("grammar.txt").rstrip())
            .replace("{{RULE}}", req.rule_text.rstrip())
            .replace("{{FEEDBACK}}", feedback)
            .replace("{{K}}", str(req.k)))
    if isinstance(stage, WeakenPrecondition):
        rule = textfmt.parse_rule(req.rule_text)
        text = text.replace("{{CONJUNCT}}",
                            textfmt.print_pred(rule.pre[stage.conjunct]))
    if isinstance(stage, WidthPredicate):
        text = (text
                .replace("{{PASSING}}", ", ".join(map(str, stage.passing)) or "none")
                .replace("{{FAILING}}", ", ".join(map(str, stage.failing)) or "none"))
    return text


_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_fenced(text: str) -> list:
    return [m.group(1).strip() + "\n" for m in _FENCE.finditer(text)]


def fence(texts: list) -> str:
    """A response holding each of `texts` in its own fenced block."""
    return "\n".join(f"```\n{t.rstrip()}\n```" for t in texts)


def propose(req: ProposalRequest, backend) -> list:
    """The candidate texts fenced in the backend's response to `req` (its
    `respond`, None when it has none), at most `req.k` of them."""
    return extract_fenced(backend.respond(req) or "")[: req.k]


# ---------------------------------------------------------------------------
# Symbolizing literals (shared by the heuristic backend and tests)

_TRIVIAL = (0, 1, -1)


def symbolize_literals(instance: Rule):
    """Replace each distinct non-trivial integer literal with a SymConst.

    Returns (symbolized rule with an empty precondition, assignment mapping
    each new constant name to its original bit pattern).
    """
    taken = {n for n, _ in instance.sym_consts}
    names: dict = {}  # (pattern, ty) -> SymConst
    assignment: dict = {}
    order = [0]

    def conv(o):
        if (isinstance(o, Literal) and isinstance(o.ty, IntType)
                and to_signed(o.value, o.ty.width) not in _TRIVIAL):
            key = (o.value, o.ty)
            if key not in names:
                order[0] += 1
                name = f"C{order[0]}"
                while name in taken:
                    order[0] += 1
                    name = f"C{order[0]}"
                names[key] = SymConst(name, o.ty)
                assignment[name] = o.value
            return names[key]
        return o

    rule = map_rule(instance, conv)
    sym_consts = instance.sym_consts + tuple(
        (sc.name, sc.ty) for sc in names.values())
    return replace(rule, sym_consts=sym_consts), assignment


# ---------------------------------------------------------------------------
# Heuristic template search (stage 1)
#
# The equality screen asks, for each constant C, which expressions over the
# other constants evaluate to C's value.  The expressions form a lattice of
# three depths over the k other constants ("atoms"), in this order:
#
#   depth 1   the k atoms
#   depth 2   each unary operator on each atom (3k), then each binary
#             operator on each ordered pair of atoms (7k^2)
#   depth 3   for each binary operator, for each depth-2 expression e, for
#             each side, for each atom a: `e op a` then `a op e` (14k per
#             depth-2 expression); then each unary operator on each depth-2
#             expression
#
# The whole lattice is evaluated as numpy lanes, one operation per operator
# per depth.  A lane carries its bit pattern (uint64), its width and an `ok`
# flag, and follows the scalar evaluator (`semantics.eval_constexpr`)
# exactly: operands of different widths, `<<` by the width or more and log2
# of a non-power are errors (the template does not hold); `>>u` by the
# width or more gives 0; cttz(0) is the width.  `C == e` holds when e
# evaluates and its value equals C's read as unsigned or read as signed
# (equal patterns when the widths agree).  Only the lanes that hold are
# decoded into `PCmp` objects, in lattice order.

_TEMPLATE_BINOPS = ("&", "|", "^", "+", "-", "<<", ">>u")
_TEMPLATE_UNOPS = ("log2", "cttz", "popcount")
_MASKS = np.array([(1 << w) - 1 for w in range(65)], dtype=np.uint64)
_ONE = np.uint64(1)


def _lane_binop(op: str, a: tuple, b: tuple) -> tuple:
    (av, aw, aok), (bv, bw, bok) = a, b
    ok = aok & bok & (aw == bw)
    m = _MASKS[aw]
    if op == "&":
        r = av & bv
    elif op == "|":
        r = av | bv
    elif op == "^":
        r = av ^ bv
    elif op == "+":
        r = (av + bv) & m
    elif op == "-":
        r = (av - bv) & m
    else:
        inside = bv < aw
        amt = np.where(inside, bv, np.uint64(0))
        if op == "<<":
            r = (av << amt) & m
            ok = ok & inside
        else:  # >>u past the width shifts every bit out
            r = np.where(inside, av >> amt, np.uint64(0))
    return r, np.broadcast_to(aw, ok.shape), ok


def _lane_unop(op: str, a: tuple) -> tuple:
    v, w, ok = a
    if op == "popcount":
        return np.bitwise_count(v).astype(np.uint64), w, ok
    # cttz and log2 (of a power of two) both count the trailing zeros
    r = np.bitwise_count((v & (~v + _ONE)) - _ONE).astype(np.uint64)
    if op == "log2":
        return r, w, ok & (np.bitwise_count(v) == 1)
    return np.where(v == 0, w, r), w, ok


def _concat(blocks: list) -> tuple:
    return tuple(np.concatenate([blk[i].ravel() for blk in blocks])
                 for i in range(3))


def _template_lanes(values: np.ndarray, widths: np.ndarray) -> tuple:
    """(pattern, width, ok) lanes of the template lattice over the atoms."""
    d1 = (values, widths, np.ones(len(values), dtype=bool))
    col = tuple(x[:, None] for x in d1)
    row = tuple(x[None, :] for x in d1)
    d2 = _concat([_lane_unop(u, d1) for u in _TEMPLATE_UNOPS]
                 + [_lane_binop(b, col, row) for b in _TEMPLATE_BINOPS])
    # depth 3 binary lanes as (depth-2 expression, side, atom)
    shape = (len(d2[0]), len(values))
    inner = [np.broadcast_to(x[:, None], shape) for x in d2]
    atom = [np.broadcast_to(x[None, :], shape) for x in d1]
    lhs = tuple(np.stack([i, a], axis=1) for i, a in zip(inner, atom))
    rhs = tuple(np.stack([a, i], axis=1) for i, a in zip(inner, atom))
    return _concat([d1, d2]
                   + [_lane_binop(b, lhs, rhs) for b in _TEMPLATE_BINOPS]
                   + [_lane_unop(u, d2) for u in _TEMPLATE_UNOPS])


def _sext64(v, w):
    """Sign-extend `w`-bit patterns to 64 bits (still as uint64)."""
    negative = (v >> (w - _ONE)) & _ONE
    return np.where(negative == _ONE, v | ~_MASKS[w], v)


def _template_expr(i: int, atoms: list):
    """The lattice expression at lane `i` (the order `_template_lanes`
    evaluates)."""
    k = len(atoms)
    n2 = 3 * k + 7 * k * k

    def depth2(j: int):
        if j < 3 * k:
            u, a = divmod(j, k)
            return CUn(_TEMPLATE_UNOPS[u], atoms[a])
        b, pair = divmod(j - 3 * k, k * k)
        a1, a2 = divmod(pair, k)
        return CBin(_TEMPLATE_BINOPS[b], atoms[a1], atoms[a2])

    if i < k:
        return atoms[i]
    i -= k
    if i < n2:
        return depth2(i)
    i -= n2
    if i < 14 * k * n2:
        b, rest = divmod(i, 2 * k * n2)
        inner, rest = divmod(rest, 2 * k)
        right, a = divmod(rest, k)
        pair = (atoms[a], depth2(inner)) if right else (depth2(inner), atoms[a])
        return CBin(_TEMPLATE_BINOPS[b], *pair)
    u, inner = divmod(i - 14 * k * n2, n2)
    return CUn(_TEMPLATE_UNOPS[u], depth2(inner))


def template_equalities(consts: dict) -> list:
    """`C == e` for every constant C and lattice expression e over the
    other constants that holds on `consts` (name -> (pattern, IntType)),
    constants in `consts` order, each one's expressions in lattice order."""
    names = list(consts)
    widths = np.array([consts[n][1].width for n in names], dtype=np.uint64)
    values = np.array([to_unsigned(consts[n][0], consts[n][1].width)
                       for n in names], dtype=np.uint64)
    out = []
    for t, name in enumerate(names):
        others = [j for j in range(len(names)) if j != t]
        val, wid, ok = _template_lanes(values[others], widths[others])
        tv, tw = values[t], widths[t]
        holds = ok & ((val == tv) | (_sext64(val, wid) == _sext64(tv, tw)))
        atoms = [CConst(names[j]) for j in others]
        out.extend(PCmp("eq", CConst(name), _template_expr(int(i), atoms))
                   for i in np.flatnonzero(holds))
    return out


def _probe_budget(budget: verifier.Budget) -> verifier.Budget:
    return verifier.Budget(
        exhaustive_limit=min(budget.exhaustive_limit, 1 << 20),
        sample_count=min(budget.sample_count, 8192) or 8192,
        constant_sample_count=min(budget.constant_sample_count, 64) or 64,
        rng_seed=budget.rng_seed)


def _drop_to_fixpoint(keep: list, removable: list, verified) -> list:
    """Drop conjuncts of `keep` while `verified(trial)` holds, sweeping
    `removable` in order until a sweep drops nothing; returns what is kept.

    A sweep cuts `removable` into maximal runs of conjuncts still kept and
    tries to drop a whole run in one probe; a run that does not verify is
    halved, the first half tried before the second against what is kept
    then.  A `PowerOfTwo` conjunct is tried alone, and not while a kept
    comparison applies log2 to it (`guards_partial_op`).  When `verified`
    is monotone in the precondition (exact checks), a run that verifies
    as a whole would also have been dropped one conjunct at a time, so the
    result is that of one-at-a-time greedy dropping, in fewer probes.
    """
    changed = True

    def drop(block: list) -> None:
        nonlocal keep, changed
        if not block:
            return
        ids = set(map(id, block))
        trial = [c for c in keep if id(c) not in ids]
        if verified(trial):
            keep, changed = trial, True
        elif len(block) > 1:
            half = len(block) // 2
            drop(block[:half])
            drop(block[half:])

    while changed:
        changed = False
        run: list = []
        for conj in removable:
            if conj not in keep:
                continue
            if not isinstance(conj, PPow2):
                run.append(conj)
                continue
            drop(run)
            run = []
            if not guards_partial_op(conj, keep):
                drop([conj])
        drop(run)
    return keep


def heuristic_fit_constants(instance: Rule,
                            budget: Optional[verifier.Budget] = None) -> list:
    """Symbolize literals and search templates for precondition conjuncts.

    The templates are, per constant, a pin (`C <=u k && C >=u k`), the
    `PowerOfTwo` atoms of C, C + 1 and C - 1 that hold, and the equalities
    `C == e` that hold on the instance (`template_equalities`, screened as
    numpy lanes under the scalar evaluator's semantics).  Starting from all
    of them, conjuncts are dropped greedily, in halving blocks, while a
    probe check stays green (`_drop_to_fixpoint`).  A precondition is
    probed at most once: checks are seeded, so a repeat has the same
    verdict.

    Returns a list of (assignment, conjunct tuple) candidates; the
    symbolized rule itself is `symbolize_literals(instance)[0]`.
    """
    budget = budget or verifier.Budget()
    probe = _probe_budget(budget)
    skeleton, assignment = symbolize_literals(instance)
    if not assignment:
        return [(assignment, ())]

    consts = {name: (pattern, dict(skeleton.sym_consts)[name])
              for name, pattern in assignment.items()}
    names = list(assignment)

    pins: list = []
    pow2s: list = []
    for name in names:
        pattern, ty = consts[name]
        pins.append(PCmp("ule", CConst(name), CInt(pattern)))
        pins.append(PCmp("uge", CConst(name), CInt(pattern)))
        for delta in (0, 1, -1):
            e = CConst(name) if delta == 0 else CBin("+", CConst(name), CInt(delta))
            conj = PPow2(e)
            if semantics.eval_predicate(conj, {}, consts, {}):
                pow2s.append(conj)
    equalities = template_equalities(consts)

    # start pinned (trivially verified: the rule is the instance itself),
    # then greedily drop conjuncts while the probe check stays green
    keep = pins + pow2s + equalities
    # pins are dropped first (the other conjuncts still constrain), then the
    # deepest equality templates, so the simplest sufficient conjunct survives
    removable = pins + pow2s + equalities[::-1]

    probed: dict = {}

    def verified(conjuncts: list) -> bool:
        pre = tuple(conjuncts)
        if pre not in probed:
            verdict = verifier.check_refinement(
                replace(skeleton, pre=pre), {}, probe)
            probed[pre] = verdict.kind == "verified"
        return probed[pre]

    if not verified(keep):
        return []
    # a coincidental conjunct can block removal of an earlier one until it is
    # itself dropped, so sweep to a fixpoint
    keep = _drop_to_fixpoint(keep, removable, verified)
    candidates = [(assignment, tuple(keep))]
    pinned = tuple(pins + [c for c in keep if c not in pins])
    if pinned != candidates[0][1]:
        candidates.append((assignment, pinned))
    return candidates


# ---------------------------------------------------------------------------
# Heuristic backend: the other stages


def _value_bound(fn: Function, index: int):
    """Upper bound (as a ConstExpr) for instruction `index`, when obvious."""
    instr = fn.body[index]
    if instr.op == "and":
        for o in instr.operands:
            if isinstance(o, Literal) and isinstance(o.ty, IntType):
                return CInt(o.value)
            if isinstance(o, SymConst):
                return CConst(o.name)
        return None
    if instr.op == "zext" and isinstance(instr.operands[0], Local):
        inner = _value_bound(fn, instr.operands[0].index)
        if inner is not None and isinstance(instr.ty, IntType):
            return CCast("zext", inner, instr.ty.width)
        return None
    return None


def _structural_candidates(rule: Rule) -> list:
    """Replace a bounded lhs subexpression (and its rhs mirror) by a fresh
    parameter with a RangeU atom."""
    from .pruner import dce

    out = []
    taken = {n for n, _ in rule.lhs.params}
    for i in range(len(rule.lhs.body)):
        ty = rule.lhs.body[i].ty
        if not isinstance(ty, IntType):
            continue
        bound = _value_bound(rule.lhs, i)
        if bound is None:
            continue
        fresh = "V"
        n = 1
        while fresh in taken:
            n += 1
            fresh = f"V{n}"
        lhs, rhs = abstract_local(rule.lhs, rule.rhs, i, fresh)
        atom = PRange(fresh, CInt(0), bound, False)
        out.append(dce(replace(rule, pre=rule.pre + (atom,), lhs=lhs, rhs=rhs)))
    return out


def _weaken_candidates(rule: Rule, index: int) -> list:
    conj = rule.pre[index]
    out = []
    if isinstance(conj, PCmp) and len(conj.pred) == 3 and conj.pred[1:] == "lt":
        out.append(PCmp(conj.pred[0] + "le", conj.a, conj.b))
    if isinstance(conj, PCmp) and len(conj.pred) == 3 and conj.pred[1:] == "gt":
        out.append(PCmp(conj.pred[0] + "ge", conj.a, conj.b))
    return out


def _width_pred_candidates(rule: Rule, stage: WidthPredicate) -> list:
    if not rule.width_vars or not stage.passing:
        return []
    w = rule.width_vars[0]
    lo, hi = min(stage.passing), max(stage.passing)
    out = [f"{w} <=u {hi}"]
    if lo > 1:
        out.append(f"{w} >=u {lo} && {w} <=u {hi}")
    return out


class HeuristicBackend:
    """Deterministic offline candidate generation."""

    def __init__(self, budget: Optional[verifier.Budget] = None):
        self.budget = budget or verifier.Budget()

    def respond(self, req: ProposalRequest) -> str:
        rule = textfmt.parse_rule(req.rule_text)
        stage = req.stage
        if isinstance(stage, SymbolicConstants):
            skeleton, _ = symbolize_literals(rule)
            texts = [textfmt.print_rule(replace(skeleton, pre=conjuncts))
                     for _assignment, conjuncts in heuristic_fit_constants(
                         rule, self.budget)]
        elif isinstance(stage, Structural):
            texts = [textfmt.print_rule(c) for c in _structural_candidates(rule)]
        elif isinstance(stage, WeakenPrecondition):
            texts = [textfmt.print_pred(p)
                     for p in _weaken_candidates(rule, stage.conjunct)]
        else:
            texts = _width_pred_candidates(rule, stage)
        return fence(texts[: req.k])


# ---------------------------------------------------------------------------
# Remote chat-completion backend


_ENV_VARS = {
    "endpoint": "PEEPGEN_LLM_ENDPOINT",
    "model": "PEEPGEN_LLM_MODEL",
    "api_key": "PEEPGEN_LLM_API_KEY",
    "timeout_s": "PEEPGEN_LLM_TIMEOUT_S",
    "retries": "PEEPGEN_LLM_RETRIES",
}


class LLMBackend:
    """HTTP chat-completion backend.

    Settings come only from the PEEPGEN_LLM_* environment variables.  A
    missing or malformed setting raises ProposerError before any request
    is made.
    """

    def __init__(self):
        cfg = {key: os.environ[env] for key, env in _ENV_VARS.items()
               if env in os.environ}
        if "endpoint" not in cfg:
            raise ProposerError(
                "no endpoint configured (set PEEPGEN_LLM_ENDPOINT)")
        self.endpoint = cfg["endpoint"]
        self.model = cfg.get("model", "")
        self.api_key = cfg.get("api_key", "")
        try:
            self.timeout_s = float(cfg.get("timeout_s", 60))
            self.retries = int(cfg.get("retries", 2))
            ok = self.timeout_s > 0 and self.retries >= 0
        except ValueError:
            ok = False
        if not ok:
            raise ProposerError(
                "PEEPGEN_LLM_TIMEOUT_S must be a positive number and "
                "PEEPGEN_LLM_RETRIES a non-negative integer (got timeout_s="
                f"{cfg.get('timeout_s')!r}, retries={cfg.get('retries')!r})")

    def _complete(self, prompt: str) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        last: Optional[Exception] = None
        for _attempt in range(self.retries + 1):
            try:
                resp = requests.post(self.endpoint, json=payload,
                                     headers=headers, timeout=self.timeout_s)
                if resp.status_code // 100 != 2:
                    raise ProposerError(
                        f"chat endpoint returned {resp.status_code}")
                body = resp.json()
                return body["choices"][0]["message"]["content"]
            except (ProposerError, KeyError, IndexError, TypeError,
                    ValueError, requests.RequestException) as e:
                last = e
        raise ProposerError(f"chat request failed after retries: {last}")

    def respond(self, req: ProposalRequest) -> str:
        return self._complete(render_prompt(req))


# ---------------------------------------------------------------------------
# Recorded-response replay


class ReplayBackend:
    """Serves recorded responses from a directory keyed by request hash."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def respond(self, req: ProposalRequest) -> Optional[str]:
        path = self.directory / f"{request_hash(req)}.txt"
        return path.read_text() if path.exists() else None


class RecordingBackend:
    """Wraps a backend and writes each of its raw responses where
    `ReplayBackend` reads it back (no response is recorded as empty)."""

    def __init__(self, inner, directory):
        self.inner = inner
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def respond(self, req: ProposalRequest) -> str:
        raw = self.inner.respond(req) or ""
        (self.directory / f"{request_hash(req)}.txt").write_text(raw)
        return raw
