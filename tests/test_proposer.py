import http.server
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from peepgen import proposer, semantics, textfmt, verifier
from peepgen.ir import (CBin, CConst, CInt, CUn, IntType, PCmp, PeepError,
                        PPow2, guards_partial_op, mask)
from peepgen.proposer import (FeedbackItem, HeuristicBackend, LLMBackend,
                              ProposalRequest, ProposerError,
                              RecordingBackend, ReplayBackend, Structural,
                              SymbolicConstants, WeakenPrecondition,
                              WidthPredicate, extract_fenced, fence,
                              heuristic_fit_constants, propose, render_prompt,
                              request_hash, symbolize_literals,
                              template_equalities)
from peepgen.verifier import Budget

from conftest import FIXTURES, parse

XOR_AND_TEXT = (FIXTURES / "int" / "xor_and_distribute.peep").read_text()
MUL8_TEXT = (FIXTURES / "int" / "strength_reduce_mul8.peep").read_text()


def test_symbolize_literals_skips_trivial():
    rule = parse("""
rule "s" {
  lhs fn(x: i8) -> i8 { %0 = add i8 %x, 0; %1 = mul i8 %0, 7; ret %1 }
  rhs fn(x: i8) -> i8 { %0 = mul i8 %x, 7; ret %0 }
}
""")
    sym, assignment = symbolize_literals(rule)
    assert [n for n, _ in sym.sym_consts] == ["C1"]
    assert assignment == {"C1": 7}
    assert "add i8 %x, 0" in textfmt.print_rule(sym)


def test_heuristic_rediscovers_xor_and_relation():
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)
    texts = propose(req, HeuristicBackend())
    # either xor-rearrangement of the same relation is acceptable
    assert any("C4 == C3 ^ C1 & C2" in t or "C3 == C1 & C2 ^ C4" in t
               for t in texts)


def test_heuristic_finds_power_of_two_shift():
    req = ProposalRequest(SymbolicConstants(), MUL8_TEXT)
    texts = propose(req, HeuristicBackend())
    assert any("PowerOfTwo(C1)" in t and "log2(C1)" in t for t in texts)


def test_heuristic_generalizes_clamp_concrete():
    # five i16 constants: the pinned seed check only passes when the pins
    # define the constants instead of leaving them to rejection sampling
    rule = parse((FIXTURES / "int" / "clamp_concrete.peep").read_text())
    assert heuristic_fit_constants(rule, Budget())


# The scalar template screen that `template_equalities` replaces, kept as its
# oracle: every template is built as an expression object and evaluated on
# its own by the scalar evaluator.

ORACLE_BINOPS = ("&", "|", "^", "+", "-", "<<", ">>u")
ORACLE_UNOPS = ("log2", "cttz", "popcount")


def oracle_candidate_exprs(others: list) -> list:
    """Constant expressions over `others`, up to two nested operators."""
    atoms = [CConst(n) for n in others]
    depth2 = [CUn(u, a) for u in ORACLE_UNOPS for a in atoms]
    depth2 += [CBin(b, a1, a2) for b in ORACLE_BINOPS
               for a1 in atoms for a2 in atoms]
    out = atoms + depth2
    for b in ORACLE_BINOPS:
        for inner in depth2:
            out.extend(CBin(b, inner, a) for a in atoms)
            out.extend(CBin(b, a, inner) for a in atoms)
    for u in ORACLE_UNOPS:
        out.extend(CUn(u, inner) for inner in depth2)
    return out


def oracle_holds(conj, consts: dict) -> bool:
    try:
        return semantics.eval_predicate((conj,), {}, consts, {})
    except (semantics.EvalError, semantics.ConstEvalError):
        return False


def oracle_equalities(consts: dict) -> list:
    out = []
    for name in consts:
        seen = set()
        for expr in oracle_candidate_exprs([n for n in consts if n != name]):
            conj = PCmp("eq", CConst(name), expr)
            if oracle_holds(conj, consts) and conj not in seen:
                seen.add(conj)
                out.append(conj)
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_template_lanes_decode_in_oracle_order(k):
    names = [f"C{i}" for i in range(1, k + 1)]
    exprs = oracle_candidate_exprs(names)
    atoms = [CConst(n) for n in names]
    assert [proposer._template_expr(i, atoms)
            for i in range(len(exprs))] == exprs


@pytest.mark.parametrize("path", sorted((FIXTURES / "int").glob("*.peep")),
                         ids=lambda p: p.stem)
def test_template_screen_matches_oracle_on_fixtures(path):
    skeleton, assignment = symbolize_literals(parse(path.read_text()))
    types = dict(skeleton.sym_consts)
    consts = {n: (v, types[n]) for n, v in assignment.items()}
    assert template_equalities(consts) == oracle_equalities(consts)


@st.composite
def _screen_consts(draw):
    n = draw(st.integers(1, 4))
    width = st.sampled_from([1, 2, 3, 4, 5, 8, 16])
    widths = ([draw(width)] * n if draw(st.booleans())
              else [draw(width) for _ in range(n)])
    consts = {}
    for i, w in enumerate(widths):
        # small values make coincidences and shift amounts past the width
        value = draw(st.one_of(
            st.integers(0, min(20, mask(w))), st.integers(0, mask(w)),
            st.sampled_from([1 << j for j in range(w)]), st.just(mask(w))))
        consts[f"C{i + 1}"] = (value, IntType(w))
    return consts


@settings(max_examples=40, deadline=None)
@given(_screen_consts())
def test_template_screen_matches_scalar_oracle(consts):
    # element for element and in order: mixed widths, `<<` and `>>u` by
    # the width or more, log2 of non-powers and cttz(0) all included
    assert template_equalities(consts) == oracle_equalities(consts)


def test_pinned_probes_do_not_exhaust_the_rejection_cap(monkeypatch):
    # a pinned or defined constant is derived, so only probes whose free
    # constants really are constrained to a few values come back short
    calls = []
    sample = verifier.sample_satisfying_consts

    def counted(resolved, free, defs, const_only, budget, rng):
        out = sample(resolved, free, defs, const_only, budget, rng)
        got = len(next(iter(out.values()))[0]) if out else 0
        calls.append(got < budget.constant_sample_count)
        return out

    monkeypatch.setattr(verifier, "sample_satisfying_consts", counted)
    heuristic_fit_constants(parse(XOR_AND_TEXT), Budget(rng_seed=0))
    assert calls and sum(calls) <= 1


# The one-at-a-time greedy drop that `_drop_to_fixpoint` replaces, kept as
# its oracle: each removable conjunct still kept is tried alone, in order,
# and the sweeps repeat until one drops nothing.

def oracle_drop_to_fixpoint(keep: list, removable: list, verified) -> list:
    changed = True
    while changed:
        changed = False
        for conj in removable:
            if conj not in keep or guards_partial_op(conj, keep):
                continue
            trial = [c for c in keep if c is not conj]
            if verified(trial):
                keep = trial
                changed = True
    return keep


def _pruned(name: str):
    from peepgen import pruner

    instance = parse((FIXTURES / "int" / f"{name}.peep").read_text())
    return pruner.prune(instance)[0]


@pytest.mark.parametrize("name", [
    # exhaustive probes: verification is monotone in the precondition, so
    # a block that verifies would also have been dropped one at a time
    "masked_sign", "mod_div_zero", "strength_reduce_mul8",
    # sampled probes are not monotone: the same fit is measured at seed 0
    "clamp_concrete", "xor_and_distribute"])
def test_block_drop_fits_as_one_at_a_time_dropping(name, monkeypatch):
    rule = _pruned(name)
    fit = heuristic_fit_constants(rule, Budget(rng_seed=0))
    monkeypatch.setattr(proposer, "_drop_to_fixpoint", oracle_drop_to_fixpoint)
    assert fit == heuristic_fit_constants(rule, Budget(rng_seed=0))


@st.composite
def _drop_problems(draw):
    """Distinct conjuncts (bounds, PowerOfTwo guards and log2 users of some
    guard's constant), a removal order, and an upward-closed `verified`
    given by its minimal sets; the full set verifies."""
    n = draw(st.integers(1, 9))
    conjuncts = []
    for i in range(n):
        kind = draw(st.sampled_from(["bound", "guard", "user"]))
        if kind == "bound":
            conjuncts.append(PCmp("ule", CConst(f"B{i}"), CInt(i)))
        elif kind == "guard":
            conjuncts.append(PPow2(CConst(f"C{i}")))
        else:
            conjuncts.append(PCmp("eq", CConst(f"B{i}"), CUn(
                "log2", CConst(f"C{draw(st.integers(0, n - 1))}"))))
    removable = draw(st.permutations(conjuncts))
    minimal = draw(st.lists(st.sets(st.integers(0, n - 1)), max_size=4))
    needed = [{id(conjuncts[i]) for i in m} for m in minimal] or [set()]

    def verified(trial: list) -> bool:
        ids = set(map(id, trial))
        return any(m <= ids for m in needed)
    return conjuncts, removable, verified


@settings(max_examples=300, deadline=None)
@given(_drop_problems())
def test_block_drop_matches_the_oracle_under_monotone_checks(problem):
    keep, removable, verified = problem
    assert (proposer._drop_to_fixpoint(list(keep), removable, verified)
            == oracle_drop_to_fixpoint(list(keep), removable, verified))


def test_power_of_two_guard_is_not_dropped_while_its_log2_user_stays():
    # the guard sits between conjuncts that are dropped as one run around
    # it; only trials that keep the log2 user verify
    guard = PPow2(CConst("C1"))
    user = PCmp("eq", CConst("C2"), CUn("log2", CConst("C1")))
    bounds = [PCmp("ule", CConst("C3"), CInt(k)) for k in (7, 8)]
    keep = [bounds[0], guard, user, bounds[1]]
    for verified in (lambda trial: user in trial, lambda trial: True):
        got = proposer._drop_to_fixpoint(list(keep), keep, verified)
        assert got == oracle_drop_to_fixpoint(list(keep), keep, verified)
        assert (guard in got) == (user in got)
    assert proposer._drop_to_fixpoint(
        list(keep), keep, lambda trial: user in trial) == [guard, user]


def test_fit_of_clamp_concrete_drops_conjuncts_in_blocks(monkeypatch):
    # one-at-a-time dropping probes 81 times here; the count is seeded
    probes = []
    check = verifier.check_refinement

    def counted(rule, widths=None, budget=None):
        probes.append(rule)
        return check(rule, widths, budget)

    monkeypatch.setattr(verifier, "check_refinement", counted)
    heuristic_fit_constants(_pruned("clamp_concrete"), Budget(rng_seed=0))
    assert len(probes) <= 64


def test_heuristic_width_predicates_parse():
    rule_text = """
rule "w" {
  widthvar W;
  lhs fn(x: iW) -> iW { %0 = xor iW %x, %x; ret %0 }
  rhs fn(x: iW) -> iW { ret 0 }
}
"""
    req = ProposalRequest(WidthPredicate((4, 6, 8), (1, 2, 3, 16)), rule_text)
    admitted = []
    for text in propose(req, HeuristicBackend()):
        conjuncts = textfmt.parse_conjuncts(text, {}, ["W"])
        admitted.append([w for w in range(1, 17)
                         if semantics.eval_predicate(conjuncts, {}, {},
                                                     {"W": w})])
    assert admitted == [list(range(1, 9)), list(range(4, 9))]


def test_heuristic_is_deterministic():
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)
    a = HeuristicBackend().respond(req)
    b = HeuristicBackend().respond(req)
    assert a == b


def test_feedback_restricted_to_stage_one():
    fb = (FeedbackItem("Counterexample", "x=1", "bad text"),)
    with pytest.raises(PeepError):
        ProposalRequest(Structural(), XOR_AND_TEXT, feedback=fb)
    ProposalRequest(SymbolicConstants(), XOR_AND_TEXT, feedback=fb)


def test_request_hash_sensitivity():
    base = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)
    assert request_hash(base) == request_hash(
        ProposalRequest(SymbolicConstants(), XOR_AND_TEXT))
    assert request_hash(base) != request_hash(
        ProposalRequest(SymbolicConstants(), MUL8_TEXT))
    assert request_hash(base) != request_hash(
        ProposalRequest(Structural(), XOR_AND_TEXT))
    assert request_hash(base) != request_hash(
        ProposalRequest(SymbolicConstants(), XOR_AND_TEXT,
                        feedback=(FeedbackItem("SyntaxError", "d", "c"),)))


def test_render_prompt_fills_slots():
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT,
                          feedback=(FeedbackItem("SyntaxError",
                                                 "unexpected token", "bad"),))
    prompt = render_prompt(req)
    assert "xor_and_distribute" in prompt
    assert "unexpected token" in prompt
    assert "{{" not in prompt
    rule = parse(XOR_AND_TEXT)
    weaken = ProposalRequest(WeakenPrecondition(0),
                             textfmt.print_rule(parse(
                                 (FIXTURES / "rules" /
                                  "cttz_general.peep").read_text())))
    assert "PowerOfTwo(C1)" in render_prompt(weaken)
    widthreq = ProposalRequest(WidthPredicate((1, 2, 8), (9, 16)), MUL8_TEXT)
    text = render_prompt(widthreq)
    assert "1, 2, 8" in text and "9, 16" in text


def test_extract_fenced():
    raw = "intro\n```\nblock one\n```\nmiddle\n```peep\nblock two\n```\n"
    assert extract_fenced(raw) == ["block one\n", "block two\n"]


def test_fence_round_trips_through_extract_fenced():
    texts = ['rule "r" {\n}\n', "C1 <=u 3"]
    assert extract_fenced(fence(texts)) == ['rule "r" {\n}\n', "C1 <=u 3\n"]
    assert fence([]) == "" and extract_fenced("") == []


def test_replay_missing_request_yields_nothing(tmp_path):
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)
    assert ReplayBackend(tmp_path).respond(req) is None
    assert propose(req, ReplayBackend(tmp_path)) == []


def test_recording_then_replay_round_trip(tmp_path):
    # a recording is the wrapped backend's raw response, byte for byte
    req = ProposalRequest(SymbolicConstants(), MUL8_TEXT)
    recorded = propose(req, RecordingBackend(HeuristicBackend(), tmp_path))
    assert recorded
    assert (tmp_path / f"{request_hash(req)}.txt").read_text() == \
        HeuristicBackend().respond(req)
    assert propose(req, ReplayBackend(tmp_path)) == recorded


def test_recording_a_missing_response_writes_an_empty_one(tmp_path):
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)
    recorder = RecordingBackend(ReplayBackend(tmp_path / "none"),
                                tmp_path / "rec")
    assert propose(req, recorder) == []
    assert (tmp_path / "rec" / f"{request_hash(req)}.txt").read_text() == ""


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    status = 200

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert body["messages"][0]["role"] == "user"
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        reply = {"choices": [{"message": {
            "content": "```\nrule \"x\" { lhs fn(x: i8) -> i8 { ret %x } "
                       "rhs fn(x: i8) -> i8 { ret %x } }\n```"}}]}
        self.wfile.write(json.dumps(reply).encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def _llm_env(monkeypatch, endpoint, retries):
    for name, value in (("ENDPOINT", endpoint), ("MODEL", "m"),
                        ("TIMEOUT_S", "5"), ("RETRIES", retries)):
        monkeypatch.setenv(f"PEEPGEN_LLM_{name}", value)


def test_llm_backend_against_mock_server(chat_server, monkeypatch):
    _llm_env(monkeypatch, chat_server, "0")
    backend = LLMBackend()
    proposals = propose(ProposalRequest(SymbolicConstants(), XOR_AND_TEXT),
                        backend)
    assert len(proposals) == 1
    assert 'rule "x"' in proposals[0]


def test_llm_backend_error_is_retryable(chat_server, monkeypatch):
    _ChatHandler.status = 500
    try:
        _llm_env(monkeypatch, chat_server, "1")
        backend = LLMBackend()
        with pytest.raises(ProposerError):
            backend.respond(ProposalRequest(SymbolicConstants(),
                                            XOR_AND_TEXT))
    finally:
        _ChatHandler.status = 200


def test_llm_backend_requires_endpoint(monkeypatch):
    monkeypatch.delenv("PEEPGEN_LLM_ENDPOINT", raising=False)
    with pytest.raises(ProposerError):
        LLMBackend()


def test_propose_caps_at_k():
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT, k=1)
    assert len(propose(req, HeuristicBackend())) <= 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the fit's sampled probes can verify a trial that an earlier probe's "
    "counterexample refutes: heuristic clamp_concrete at seed 0 verifies a "
    "trial whose constants admit the counterexample of probe 11"))
def test_no_verified_fit_trial_admits_an_earlier_counterexample(monkeypatch):
    from peepgen import pruner

    instance = parse((FIXTURES / "int" / "clamp_concrete.peep").read_text())
    pruned, _log = pruner.prune(instance)
    probes = []
    check = verifier.check_refinement

    def recorded(rule, widths=None, budget=None):
        verdict = check(rule, widths, budget)
        probes.append((rule, verdict))
        return verdict

    monkeypatch.setattr(verifier, "check_refinement", recorded)
    proposer.heuristic_fit_constants(pruned, Budget(rng_seed=0))
    # the probes share the fit's skeleton, so a refuted probe's
    # counterexample refutes every later trial whose precondition admits it
    refuted = []
    for rule, verdict in probes:
        if verdict.kind == "refuted":
            refuted.append(verdict.counterexample)
        elif verdict.kind == "verified":
            for cx in refuted:
                assert not verifier.replay_counterexample(rule, cx), (
                    textfmt.print_rule(rule), cx)
