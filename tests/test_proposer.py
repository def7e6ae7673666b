import http.server
import json
import threading

import pytest

from peepgen import textfmt, verifier
from peepgen.ir import PeepError
from peepgen.proposer import (FeedbackItem, HeuristicBackend, LLMBackend,
                              Proposal, ProposalRequest, ProposerError,
                              RecordingBackend, ReplayBackend, Structural,
                              SymbolicConstants, WeakenPrecondition,
                              WidthPredicate, extract_fenced,
                              heuristic_fit_constants, propose, render_prompt,
                              request_hash, symbolize_literals)
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
    texts = [p.text for p in HeuristicBackend().generate(req)]
    # either xor-rearrangement of the same relation is acceptable
    assert any("C4 == C3 ^ C1 & C2" in t or "C3 == C1 & C2 ^ C4" in t
               for t in texts)


def test_heuristic_finds_power_of_two_shift():
    req = ProposalRequest(SymbolicConstants(), MUL8_TEXT)
    texts = [p.text for p in HeuristicBackend().generate(req)]
    assert any("PowerOfTwo(C1)" in t and "log2(C1)" in t for t in texts)


def test_heuristic_generalizes_clamp_concrete():
    # five i16 constants: the pinned seed check only passes when the pins
    # define the constants instead of leaving them to rejection sampling
    rule = parse((FIXTURES / "int" / "clamp_concrete.peep").read_text())
    assert heuristic_fit_constants(rule, {}, Budget())


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
    heuristic_fit_constants(parse(XOR_AND_TEXT), {}, Budget(rng_seed=0))
    assert calls and sum(calls) <= 1


def test_heuristic_is_deterministic():
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)
    a = [p.text for p in HeuristicBackend().generate(req)]
    b = [p.text for p in HeuristicBackend().generate(req)]
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


def test_replay_missing_request_yields_nothing(tmp_path):
    backend = ReplayBackend(tmp_path)
    assert backend.generate(
        ProposalRequest(SymbolicConstants(), XOR_AND_TEXT)) == []


def test_recording_then_replay_round_trip(tmp_path):
    req = ProposalRequest(SymbolicConstants(), MUL8_TEXT)
    recorded = RecordingBackend(HeuristicBackend(), tmp_path).generate(req)
    replayed = ReplayBackend(tmp_path).generate(req)
    assert [p.text.strip() for p in replayed] == \
        [p.text.strip() for p in recorded]


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


def test_llm_backend_against_mock_server(chat_server):
    backend = LLMBackend({"endpoint": chat_server, "model": "m",
                          "timeout_s": 5, "retries": 0})
    proposals = backend.generate(
        ProposalRequest(SymbolicConstants(), XOR_AND_TEXT))
    assert len(proposals) == 1
    assert 'rule "x"' in proposals[0].text


def test_llm_backend_error_is_retryable(chat_server):
    _ChatHandler.status = 500
    try:
        backend = LLMBackend({"endpoint": chat_server, "model": "m",
                              "timeout_s": 5, "retries": 1})
        with pytest.raises(ProposerError):
            backend.generate(ProposalRequest(SymbolicConstants(),
                                             XOR_AND_TEXT))
    finally:
        _ChatHandler.status = 200


def test_llm_backend_requires_endpoint(monkeypatch):
    monkeypatch.delenv("PEEPGEN_LLM_ENDPOINT", raising=False)
    with pytest.raises(ProposerError):
        LLMBackend({})


def test_propose_caps_at_k():
    req = ProposalRequest(SymbolicConstants(), XOR_AND_TEXT, k=1)
    assert len(propose(req, HeuristicBackend())) <= 1
