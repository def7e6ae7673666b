from dataclasses import asdict

import pytest

from peepgen import pipeline, textfmt, verifier
from peepgen.generality import compare_generality
from peepgen.ir import resolve_widths
from peepgen.pipeline import (PipelineConfig, flag_removals,
                              relax_to_fixpoint, run_pipeline, stage3_relax,
                              stage4_widths, StageOutcome, weaken_conjuncts)
from peepgen.proposer import (HeuristicBackend, ProposerError, ReplayBackend,
                              SymbolicConstants, WeakenPrecondition,
                              WidthPredicate, fence)
from peepgen.verifier import Budget, verdict_to_json

from conftest import FIXTURES, SLT_ONE, parse

REPLAY = FIXTURES / "replay"
STAGES = ("stage1_symbolic_constants", "stage2_structural", "stage3_relax",
          "stage4_widths")


def _cfg(**kw):
    kw.setdefault("budget", Budget())
    kw.setdefault("backend", HeuristicBackend(kw["budget"]))
    return PipelineConfig(**kw)


FLAGGED = """
rule "f" {
  const C1: i8;
  pre: C1 <=u 100;
  lhs fn(x: i8) -> i8 {
    %0 = add.nsw i8 %x, C1;
    %1 = sub i8 %0, C1;
    ret %1
  }
  rhs fn(x: i8) -> i8 { ret %x }
}
"""


def test_relax_drops_flag_and_reaches_fixpoint():
    outcome, relaxed = stage3_relax(parse(FLAGGED), _cfg())
    assert outcome.counts["flags_removed"] == 1
    assert not any(i.flags for i in relaxed.lhs.body)
    # relaxation is idempotent: nothing left to remove on the second pass
    again, same = stage3_relax(relaxed, _cfg())
    assert again.counts == {"conjuncts_removed": 0, "conjuncts_weakened": 0,
                            "flags_removed": 0}
    assert textfmt.print_rule(same) == textfmt.print_rule(relaxed)


def test_flag_removal_is_monotone_on_fixture_corpus(fixture_corpus):
    # every output of the flag-removal sweep admits no further removal
    for fx in fixture_corpus:
        if fx.domain != "rules":
            continue
        widths = (fx.expect or {}).get("widths", {})
        if widths or fx.rule.width_vars:
            continue
        outcome = StageOutcome("relax", counts={})
        stripped, _n = relax_to_fixpoint(fx.rule, flag_removals, _cfg(),
                                         outcome)
        outcome2 = StageOutcome("relax", counts={})
        _again, n2 = relax_to_fixpoint(stripped, flag_removals, _cfg(),
                                       outcome2)
        assert n2 == 0, fx.name
        # the second sweep tried every remaining flag and accepted none
        assert len(outcome2.candidates) == len(list(flag_removals(stripped)))
        assert not any(c.accepted for c in outcome2.candidates), fx.name


def test_gate_never_reduces_widths():
    # 2^32 inputs exceed the exhaustive budget and sampling is off: the gate
    # checks the rule at i16 and cannot, rather than checking it at i8
    instance = parse("""
rule "xor_xor" {
  lhs fn(x: i16, y: i16) -> i16 {
    %0 = xor i16 %x, %y;
    %1 = xor i16 %0, %y;
    ret %1
  }
  rhs fn(x: i16, y: i16) -> i16 { ret %x }
}
""")
    budget = Budget(exhaustive_limit=70000, sample_count=0)
    report = run_pipeline(instance, _cfg(budget=budget))
    (candidate,) = report.stages[0].candidates
    assert candidate.verdict["reason"] == "BudgetExceeded"
    assert not candidate.accepted
    assert report.final_verdict["reason"] == "BudgetExceeded"
    assert report.final is None


def test_unprofitable_instance_is_rejected_at_ingestion():
    # shl costs 1 and mul 3: the rule is correct but not worth applying
    instance = parse("""
rule "shl_to_mul" {
  lhs fn(x: i8) -> i8 { %0 = shl i8 %x, 3; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = mul i8 %x, 8; ret %0 }
}
""")
    co = pipeline.CandidateOutcome("shl_to_mul", True)
    assert not pipeline._gate(instance, _cfg(), co, None)
    assert (co.verdict["kind"], co.profitable) == ("verified", False)
    with pytest.raises(pipeline.InstanceRejected,
                       match="^instance rejected: unprofitable$"):
        run_pipeline(instance, _cfg())


def test_ingestion_prices_the_instance_without_its_dead_code(monkeypatch):
    # the dead mul would make the lhs cost 4 > 3; pruning starts from the
    # instance without it, where the live shl (cost 1) is not worth the mul
    # (cost 3), so no stage runs
    instance = parse("""
rule "shl_to_mul_dead" {
  lhs fn(x: i8) -> i8 { %0 = mul i8 %x, 3; %1 = shl i8 %x, 3; ret %1 }
  rhs fn(x: i8) -> i8 { %0 = mul i8 %x, 8; ret %0 }
}
""")

    def no_stage(*args):
        raise AssertionError("a stage ran on a rejected instance")

    for name in STAGES:
        monkeypatch.setattr(pipeline, name, no_stage)
    monkeypatch.setattr(pipeline.pruner, "prune", no_stage)
    with pytest.raises(pipeline.InstanceRejected,
                       match="^instance rejected: unprofitable$"):
        run_pipeline(instance, _cfg())


@pytest.mark.parametrize("name", ["mod_div_zero", "xor_self"])
def test_each_refinement_question_is_asked_once_per_run(monkeypatch, name):
    # ingestion, pruning and the stages share the run's verdict memo
    instance = parse((FIXTURES / "int" / f"{name}.peep").read_text())
    asked = []
    check = verifier.check_refinement

    def recorded(rule, widths=None, budget=None):
        resolved = resolve_widths(rule, widths) if rule.width_vars else rule
        asked.append((repr(resolved), budget or Budget()))
        return check(rule, widths, budget)

    monkeypatch.setattr(verifier, "check_refinement", recorded)
    run_pipeline(instance, _cfg(budget=Budget(rng_seed=0)))
    assert asked[0] == (repr(instance), Budget(rng_seed=0))
    repeated = [q for i, q in enumerate(asked) if q in asked[:i]]
    assert repeated == []


def test_widths_stage_generalizes_xor_self():
    rule = parse((FIXTURES / "int" / "xor_self.peep").read_text())
    outcome, erased = stage4_widths(rule, _cfg())
    assert outcome.counts["widths_generalized"] == 1
    assert erased.width_vars == ("W",)
    assert "all widths" in outcome.note
    assert [co.text for co in outcome.candidates if co.accepted] == [
        f"width W={w}" for w in range(1, pipeline.WIDTH_CAP + 1)]


def test_pipeline_transitions_never_lose_generality():
    instance = parse(
        (FIXTURES / "int" / "strength_reduce_mul8.peep").read_text())
    report = run_pipeline(instance, _cfg())
    current = parse(report.pruned)
    for stage in report.stages:
        if stage.accepted is None:
            continue
        nxt = parse(stage.accepted)
        widths = {v: 8 for v in nxt.width_vars}
        result = compare_generality(nxt, current, widths)
        assert result.verdict in ("AMoreGeneral", "Equal"), stage.stage
        current = nxt


def test_pipeline_is_deterministic():
    instance = parse(
        (FIXTURES / "int" / "strength_reduce_mul8.peep").read_text())
    a = run_pipeline(instance, _cfg())
    b = run_pipeline(instance, _cfg())
    assert asdict(a) == asdict(b)


class _FailingBackend:
    def respond(self, req):
        raise ProposerError("endpoint unreachable")


def test_backend_failure_is_recorded_in_the_stage_note():
    instance = parse("""
rule "i" {
  lhs fn(x: i8) -> i8 { %0 = add i8 %x, 3; %1 = sub i8 %0, 3; ret %1 }
  rhs fn(x: i8) -> i8 { ret %x }
}
""")
    report = run_pipeline(instance, _cfg(backend=_FailingBackend()))
    notes = {s.stage: s.note for s in report.stages}
    assert notes["symbolic_constants"] == (
        "proposer error (symbolic_constants): endpoint unreachable")
    assert notes["structural"] == (
        "proposer error (structural): endpoint unreachable")


class _WidthVarBackend:
    """Proposes a width-generic rule for stage 1, nothing elsewhere."""

    def __init__(self):
        self.feedback = []

    def respond(self, req):
        if not isinstance(req.stage, SymbolicConstants):
            return None
        self.feedback.append(req.feedback)
        return fence(["""
rule "xor_self" {
  widthvar W;
  lhs fn(x: iW) -> iW { %0 = xor iW %x, %x; ret %0 }
  rhs fn(x: iW) -> iW { ret 0 }
}
"""])


def test_candidate_with_other_width_variables_is_rejected():
    # the gate checks a stage-1 candidate at the instance's own widths, so
    # one that declares a width variable fails validation instead
    backend = _WidthVarBackend()
    instance = parse((FIXTURES / "int" / "xor_self.peep").read_text())
    report = run_pipeline(instance, _cfg(backend=backend))
    stage1 = report.stages[0]
    assert not stage1.accepted and stage1.candidates
    for co in stage1.candidates:
        assert (co.syntax_ok, co.verdict) == (False, None)
        assert co.diagnostics == ["declares width variables ['W'], the rule []"]
    # fed back like any validation error, until the iterations run out
    assert len(backend.feedback) == pipeline.STAGE1_MAX_ITERATIONS
    assert backend.feedback[-1][0].kind == "SyntaxError"
    assert report.final is not None


def _counted_checks(monkeypatch) -> list:
    """Record the widths and budget of every `verifier.check_refinement`
    call."""
    calls = []
    check = verifier.check_refinement

    def counted(rule, widths=None, budget=None):
        calls.append((widths, budget))
        return check(rule, widths, budget)

    monkeypatch.setattr(verifier, "check_refinement", counted)
    return calls


def _marked_stage4(monkeypatch, calls: list) -> list:
    """Record the number of `calls` when stage 4 returns."""
    after_stage4 = []
    stage4 = pipeline.stage4_widths

    def marked(rule, cfg, verdicts=None):
        result = stage4(rule, cfg, verdicts)
        after_stage4.append(len(calls))
        return result

    monkeypatch.setattr(pipeline, "stage4_widths", marked)
    return after_stage4


def _instance(name: str):
    return parse((FIXTURES / "int" / f"{name}.peep").read_text())


def test_verdicts_are_not_shared_across_runs(monkeypatch):
    # each run reuses verdicts within itself only: a second run of the same
    # instance in the same process checks as much as the first
    instance = _instance("cttz_concrete")
    calls = _counted_checks(monkeypatch)
    first = run_pipeline(instance, _cfg(backend=ReplayBackend(REPLAY)))
    count = len(calls)
    second = run_pipeline(instance, _cfg(backend=ReplayBackend(REPLAY)))
    assert count > 0 and len(calls) == 2 * count
    assert asdict(first) == asdict(second)


def test_final_recheck_reuses_the_exhaustive_stage4_verdict(monkeypatch):
    # cttz_concrete's width-generalized rule is checked exhaustively at its
    # largest passing width in stage 4; the recheck under the next seed
    # takes that verdict with the new seed instead of checking again
    calls = _counted_checks(monkeypatch)
    after_stage4 = _marked_stage4(monkeypatch, calls)
    report = run_pipeline(_instance("cttz_concrete"),
                          _cfg(backend=ReplayBackend(REPLAY)))
    assert report.final_widths == {"W": 16}
    assert report.final_verdict["kind"] == "verified"
    assert report.final_verdict["mode"] == "exhaustive"
    assert report.final_verdict["seed"] == 1
    assert after_stage4 == [len(calls)]
    assert all(budget.rng_seed == 0 for _, budget in calls)


def test_stage4_and_the_recheck_reuse_seed_free_verdicts(monkeypatch):
    # add_fold's erased rule at its own width W=8 is stage 3's rule, and its
    # sampled W=16 check takes its constants from the special-value cross
    # and scans the full input grid, so the recheck under the next seed asks
    # nothing new either
    calls = _counted_checks(monkeypatch)
    after_stage4 = _marked_stage4(monkeypatch, calls)
    report = run_pipeline(_instance("add_fold"),
                          _cfg(backend=ReplayBackend(REPLAY)))
    assert report.final_widths == {"W": 16}
    assert report.final_verdict["kind"] == "verified"
    assert report.final_verdict["mode"] == "sampled"
    assert report.final_verdict["seed"] == 1
    assert after_stage4 == [len(calls)]
    assert {"W": 8} not in [widths for widths, _ in calls]
    assert {"W": 16} in [widths for widths, _ in calls]


def test_recheck_of_a_seeded_verdict_is_checked_again(monkeypatch):
    # mod_div_zero's W=16 check walks a seeded order of its constants and
    # stops at its bound, so the recheck under the next seed runs
    calls = _counted_checks(monkeypatch)
    after_stage4 = _marked_stage4(monkeypatch, calls)
    report = run_pipeline(_instance("mod_div_zero"),
                          _cfg(backend=ReplayBackend(REPLAY)))
    assert report.final_widths == {"W": 16}
    assert report.final_verdict["seed"] == 1
    assert after_stage4 == [len(calls) - 1]
    widths, budget = calls[-1]
    assert (widths, budget.rng_seed) == ({"W": 16}, 1)


def test_refuted_verdict_is_reused_with_the_callers_widths(monkeypatch):
    # the erased rule at its own width resolves to the concrete rule: its
    # verdict is reused, the counterexample stamped with the widths asked
    wrong = parse("""
rule "wrong" {
  lhs fn(x: i8) -> i8 { %0 = add i8 %x, 3; %1 = sub i8 %0, 2; ret %1 }
  rhs fn(x: i8) -> i8 { ret %x }
}
""")
    erased = pipeline._erase_widths(wrong, 8, "W")
    calls = _counted_checks(monkeypatch)
    verdicts, budget = {}, Budget()
    concrete = pipeline._refinement(wrong, None, budget, verdicts)
    reused = pipeline._refinement(erased, {"W": 8}, budget, verdicts)
    assert len(calls) == 1
    assert concrete.kind == "refuted"
    assert concrete.counterexample.widths == {}
    assert verdict_to_json(reused) == verdict_to_json(
        verifier.check_refinement(erased, {"W": 8}, budget))
    assert reused.counterexample.widths == {"W": 8}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("backend", ["heuristic", "replay"])
def test_every_reused_verdict_equals_a_fresh_check(monkeypatch, backend,
                                                   seed):
    calls = _counted_checks(monkeypatch)
    reused = []
    refinement = pipeline._refinement

    def watched(rule, widths, budget, verdicts):
        count = len(calls)
        verdict = refinement(rule, widths, budget, verdicts)
        if len(calls) == count:
            reused.append((rule, widths, budget, verdict))
        return verdict

    monkeypatch.setattr(pipeline, "_refinement", watched)
    budget = Budget(rng_seed=seed)
    for name in ("add_fold", "xor_and_distribute", "clamp_concrete",
                 "mod_div_zero", "cttz_concrete"):
        run_pipeline(_instance(name), _cfg(
            budget=budget, backend=(HeuristicBackend(budget)
                                    if backend == "heuristic"
                                    else ReplayBackend(REPLAY))))
    assert reused
    for rule, widths, budget, verdict in reused:
        fresh = verifier.check_refinement(rule, widths, budget)
        assert verdict_to_json(verdict) == verdict_to_json(fresh)
        assert (getattr(verdict, "seeded", None)
                == getattr(fresh, "seeded", None))


class _ScriptedBackend:
    """Answers the stages named in `responses` (stage tag -> candidate
    texts), nothing elsewhere."""

    def __init__(self, responses):
        self.responses = responses

    def respond(self, req):
        texts = self.responses.get(req.stage.tag)
        return None if texts is None else fence(texts)


def test_weakening_that_fails_validation_is_a_syntax_error():
    # %zz names no parameter: the trial is rejected before the gate, which
    # would evaluate the unbound reference
    rule = parse(FLAGGED)
    backend = _ScriptedBackend({WeakenPrecondition.tag: ["RangeU(%zz, 0, 5)"]})
    outcome = StageOutcome("relax")
    relaxed, weakened = weaken_conjuncts(rule, _cfg(backend=backend), outcome)
    assert (relaxed, weakened) == (rule, 0)
    [co] = outcome.candidates
    assert co.text == "weaken[0]: RangeU(%zz, 0, 5)"
    assert (co.syntax_ok, co.verdict, co.accepted) == (False, None, False)
    assert co.diagnostics == ["pre[0]: unknown value reference zz"]


def test_width_predicate_that_fails_validation_is_a_syntax_error():
    # the accepted predicate is a stage-4 candidate too: the final width
    # is the largest one the final rule admits, not a candidate label
    backend = _ScriptedBackend({WidthPredicate.tag: [
        "RangeU(%zz, 0, 5)", "W >=u 2 && W <=u 16"]})
    report = run_pipeline(parse(SLT_ONE), _cfg(backend=backend))
    bad, good = report.stages[-1].candidates[-2:]
    assert bad.text == "width predicate: RangeU(%zz, 0, 5)"
    assert (bad.syntax_ok, bad.accepted) == (False, False)
    assert bad.diagnostics == ["pre[0]: unknown value reference zz"]
    assert (good.syntax_ok, good.accepted) == (True, True)
    assert "pre: W >=u 2 && W <=u 16;" in report.final
    assert report.final_widths == {"W": 16}


def test_recheck_runs_at_the_largest_width_the_final_rule_admits():
    # slt_one fails at W=1 only, so every W in 2..8 passes stage 4; the
    # recheck runs at W=8, the largest width `W <=u 8` admits
    backend = _ScriptedBackend({WidthPredicate.tag: ["W >=u 2 && W <=u 8"]})
    report = run_pipeline(parse(SLT_ONE), _cfg(backend=backend))
    assert report.stages[-1].note == (
        "width predicate admits [2, 3, 4, 5, 6, 7, 8]")
    assert "pre: W >=u 2 && W <=u 8;" in report.final
    assert report.final_verdict["kind"] == "verified"
    assert report.final_widths == {"W": 8}


@pytest.mark.parametrize("backend", ["heuristic", "replay"])
def test_every_stage_returns_its_outcome_and_rule(monkeypatch,
                                                  fixture_corpus, backend):
    # each stage returns (outcome, rule): the rule its outcome accepted, or
    # the rule it was given; the loop looks each stage up when it runs
    returned = []

    def watched(name):
        stage = getattr(pipeline, name)

        def run(rule, cfg, verdicts=None):
            outcome, out = stage(rule, cfg, verdicts)
            returned.append((name, rule, outcome, out))
            return outcome, out
        return run

    for name in STAGES:
        monkeypatch.setattr(pipeline, name, watched(name))
    budget = Budget(rng_seed=0)
    instances = [fx for fx in fixture_corpus if fx.domain in ("int", "float")]
    assert len(instances) == 12
    for fx in instances:
        run_pipeline(fx.rule, _cfg(budget=budget, backend=(
            HeuristicBackend(budget) if backend == "heuristic"
            else ReplayBackend(REPLAY))))
    assert [name for name, *_ in returned] == list(STAGES) * 12
    for name, rule, outcome, out in returned:
        if outcome.accepted is not None:
            assert outcome.accepted == textfmt.print_rule(out), name
        else:
            assert out is rule, name


@pytest.mark.parametrize("lhs, rhs, note", [
    ("fn(x: i8) -> i16 { %0 = zext i8 %x to i16; %1 = add i16 %0, 5; "
     "ret %1 }",
     "fn(x: i8) -> i16 { %0 = zext i8 %x to i16; ret %0 }",
     "width-changing cast zext in lhs"),
    ("fn(x: i8) -> i16 { %0 = add i8 %x, 5; %1 = zext i8 %0 to i16; "
     "ret %1 }",
     "fn(x: i8) -> i16 { %0 = zext i8 %x to i16; ret %0 }",
     "literal 5 outside {0, 1, -1}"),
    ("fn(x: i8) -> i8 { %0 = add i8 %x, 1; ret 7 }",
     "fn(x: i8) -> i8 { %0 = zext i8 %x to i16; %1 = trunc i16 %0 to i8; "
     "ret %1 }",
     "literal 7 outside {0, 1, -1}"),
], ids=["cast-before-literal", "literal-before-cast", "lhs-ret-before-rhs"])
def test_static_gate_names_the_first_offender_in_instruction_order(lhs, rhs,
                                                                   note):
    # a cast, then the same instruction's literals, then the next
    # instruction, and `ret` after the body
    rule = parse(f'rule "r" {{ lhs {lhs} rhs {rhs} }}')
    assert pipeline._int_static_gate(rule) == note
