"""End-to-end checks over the bundled fixture corpus.

Each test exercises one headline behavior of the toolchain: exhaustive and
sampled verification of the curated rules, counterexample replay, pruning,
the recorded-response pipeline trace, heuristic end-to-end generalization,
and bench determinism.
"""
import json
import re
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from peepgen import textfmt, verifier
from peepgen.cli import summarize_reports
from peepgen.ir import Rule, substitute, to_unsigned
from peepgen.generality import compare_generality, match_rule
from peepgen.pipeline import PipelineConfig, _retype_floats, run_pipeline
from peepgen.proposer import HeuristicBackend, ReplayBackend
from peepgen.pruner import prune
from peepgen.verifier import (Budget, check_refinement, check_strictly_weaker,
                              replay_counterexample, verdict_to_json)

from conftest import FIXTURES, REPO, parse

REPLAY = FIXTURES / "replay"


def _rule(rel):
    return parse((FIXTURES / rel).read_text())


def _without_pre(rule):
    return Rule(rule.name, rule.sym_consts, rule.width_vars, (),
                rule.lhs, rule.rhs)


# -- exhaustive verification of the distributed-xor rule --------------------


def test_xor_and_rule_verifies_exhaustively_at_i8():
    rule = _rule("rules/xor_and_distribute.peep")
    budget = Budget(exhaustive_limit=1 << 33, sample_count=0)
    start = time.monotonic()
    verdict = check_refinement(rule, {}, budget)
    elapsed = time.monotonic() - start
    assert verdict.kind == "verified"
    assert verdict.mode == "exhaustive"
    assert elapsed < 60, elapsed


def test_xor_and_rule_without_pre_is_refuted_with_replay():
    rule = _without_pre(_rule("rules/xor_and_distribute.peep"))
    start = time.monotonic()
    verdict = check_refinement(rule, {}, Budget())
    elapsed = time.monotonic() - start
    assert verdict.kind == "refuted"
    assert replay_counterexample(rule, verdict.counterexample)
    assert elapsed < 60, elapsed


# -- the cttz rule dominates its less general counterpart -------------------


def test_cttz_rule_verifies_and_dominates_counterpart():
    general = _rule("rules/cttz_general.peep")
    fixed = _rule("rules/cttz_fixed_rhs.peep")
    start = time.monotonic()
    verdict = check_refinement(general, {}, Budget())
    assert verdict.kind == "verified"
    assert verdict.mode == "exhaustive"
    assert verdict.points == 8 * 8 * 256
    assert verdict.space == "64 constants x 256 inputs"
    result = compare_generality(general, fixed)
    elapsed = time.monotonic() - start
    assert result.verdict == "AMoreGeneral"
    assert result.witness is not None
    assert elapsed < 30, elapsed


# -- clamp rule: sampled constants, exhaustive inputs, exact bindings -------


def test_clamp_rule_sampled_consts_exhaustive_inputs():
    rule = _rule("rules/clamp_range.peep")
    verdict = check_refinement(rule, {}, Budget())
    assert verdict.kind == "verified"
    assert verdict.mode == "sampled"
    assert "65536 inputs (full grid)" in verdict.space


def test_clamp_binding_reproduces_exact_literals():
    rule = _rule("rules/clamp_range.peep")
    concrete = _rule("int/clamp_concrete.peep")
    env = match_rule(rule, concrete)
    assert env is not None
    assert env["C1"] == to_unsigned(-60, 16)
    assert env["C2"] == to_unsigned(-155, 16)
    assert env["C3"] == 100
    # derived rhs constants: C1 - C2 and C3 - C2 + 1, exactly
    assert env["C4"] == 95
    assert env["C5"] == 256
    names = [n for n, _ in rule.sym_consts]
    inst = substitute(rule, {n: env[n] for n in names})
    literals = {o.value for i in inst.rhs.body for o in i.operands
                if hasattr(o, "value")}
    assert {95, 256} <= literals


# -- float clamp: exhaustive at f16, sampled at f32/f64, finiteness needed --


def test_fp_rules_hold_at_f16_and_wider_precisions():
    concrete = _rule("float/fp_mul2_sub1.peep")
    v = check_refinement(concrete, {}, Budget())
    assert v.kind == "verified" and v.mode == "exhaustive"

    rule = _rule("rules/fp_half_clamp.peep")
    v16 = check_refinement(rule, {}, Budget())
    assert v16.kind == "verified"
    assert "65536 inputs (full grid)" in v16.space
    for prec in (32, 64):
        retyped = _retype_floats(rule, prec)
        assert retyped is not None
        v = check_refinement(retyped, {}, Budget())
        assert v.kind == "verified" and v.mode == "sampled", prec


def _f16_values(cx):
    from peepgen import semantics
    pats = list(cx.consts.values()) + list(cx.inputs.values())
    return [semantics.bits_to_float(p, 16) for p in pats]


def test_fp_clamp_finiteness_conjuncts_are_both_required():
    import math

    rule = _rule("rules/fp_half_clamp.peep")
    for drop in (0, 1):
        pre = rule.pre[:drop] + rule.pre[drop + 1:]
        weakened = Rule(rule.name, rule.sym_consts, rule.width_vars, pre,
                        rule.lhs, rule.rhs)
        verdict = check_refinement(weakened, {}, Budget())
        assert verdict.kind == "refuted", drop
        assert replay_counterexample(weakened, verdict.counterexample)
        values = _f16_values(verdict.counterexample)
        assert any(math.isnan(v) or math.isinf(v)
                   or (v == 0.0 and math.copysign(1.0, v) < 0)
                   for v in values), drop


# -- pruning reaches the reduced form and stays there -----------------------


def test_pruning_eliminates_trunc_and_is_idempotent():
    instance = _rule("int/mod_div_zero.peep")
    pruned, _log = prune(instance)
    text = textfmt.print_rule(pruned)
    assert "trunc" not in text
    assert "newvar_v0: i8" in text
    again, log2 = prune(pruned)
    assert textfmt.print_rule(again) == text
    assert not any(a.outcome == "accepted" for a in log2.attempts)
    assert check_refinement(pruned, {}, Budget()).kind == "verified"
    from peepgen.cost import check_profitable
    assert check_profitable(pruned)


# -- recorded-response pipeline trace on the bit-trick instance -------------


def test_replayed_pipeline_trace_on_negate_lshr_or_instance():
    instance = _rule("int/negate_lshr_or.peep")
    cfg = PipelineConfig(budget=Budget(), backend=ReplayBackend(REPLAY))
    report = run_pipeline(instance, cfg)
    stages = {s.stage: s for s in report.stages}

    s1 = stages["symbolic_constants"]
    assert s1.counts["constants_symbolized"] == 2
    sym = parse(s1.accepted)
    assert [n for n, _ in sym.sym_consts] == ["C1", "C2"]

    s2 = stages["structural"]
    assert s2.accepted
    abstracted = parse(s2.accepted)
    assert any(n == "V" for n, _ in abstracted.lhs.params)
    assert any("RangeU" in textfmt.print_pred(c) for c in abstracted.pre)

    s3 = stages["relax"]
    assert s3.counts == {"conjuncts_removed": 1, "conjuncts_weakened": 1,
                         "flags_removed": 1}
    accepted = [c for c in s3.candidates if c.accepted]
    texts = [c.text for c in accepted]
    assert any(t == "remove: C1 >=s 0" for t in texts)
    weaken = next(c for c in accepted if c.text.startswith("weaken"))
    assert "64 - popcount(C1)" in weaken.text
    assert weaken.strictly_weaker is True
    assert any("nsw" in t for t in texts)
    # every accepted transition was re-verified
    assert all(c.verdict["kind"] == "verified" for c in accepted)

    s4 = stages["widths"]
    assert s4.counts["widths_generalized"] == 0
    assert "static gate" in s4.note and "sext" in s4.note

    assert report.final_verdict["kind"] == "verified"
    final = parse(report.final)
    pre = " && ".join(textfmt.print_pred(c) for c in final.pre)
    assert "C2 <=u 64 - popcount(C1)" in pre
    assert "C1 >=s 0" not in pre


# -- heuristic end-to-end: multiply by eight becomes a shift ----------------


def test_heuristic_generalizes_multiply_to_shift_across_widths():
    instance = _rule("int/strength_reduce_mul8.peep")
    start = time.monotonic()
    cfg = PipelineConfig(budget=Budget(), backend=HeuristicBackend(Budget()))
    report = run_pipeline(instance, cfg)
    elapsed = time.monotonic() - start
    assert elapsed < 300, elapsed
    assert report.final_verdict["kind"] == "verified"
    final = parse(report.final)
    pre = " && ".join(textfmt.print_pred(c) for c in final.pre)
    assert "PowerOfTwo(C1)" in pre
    assert "C2 == log2(C1)" in pre
    assert final.width_vars
    widths_stage = next(s for s in report.stages if s.stage == "widths")
    passing = {int(c.text.split("=")[-1]) for c in widths_stage.candidates
               if c.accepted and c.text.startswith("width ")}
    assert set(range(2, 17)) <= passing


# -- headline property-suite coverage ---------------------------------------


def test_strictly_weaker_on_positive_versus_nonnegative():
    rule = parse("""
rule "p" {
  const C1: i8;
  pre: C1 >s 0;
  lhs fn(x: i8) -> i8 { %0 = umax i8 %x, C1; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = umax i8 C1, %x; ret %0 }
}
""")
    from peepgen.ir import IntType
    conj = lambda s: textfmt.parse_conjuncts(s, {"C1": IntType(8)})
    assert check_strictly_weaker(rule, conj("C1 >=s 0")).__class__.__name__ \
        == "StrictlyWeaker"
    assert check_strictly_weaker(rule, conj("C1 >=s 1")).__class__.__name__ \
        == "EquivalentOrIncomparable"


def test_property_suites_keep_their_case_budgets():
    # the generative suites must not silently shrink below 1000 cases
    budgets = {
        "test_textfmt.py": 1,
        "test_semantics.py": 1,
        "test_engine.py": 2,
        "test_verifier.py": 1,
    }
    for fname, minimum in budgets.items():
        src = (Path(__file__).parent / fname).read_text()
        big = [int(m) for m in re.findall(r"max_examples=(\d+)", src)
               if int(m) >= 1000]
        assert len(big) >= minimum, fname


def test_seeded_pipeline_is_deterministic():
    instance = _rule("int/xor_self.peep")
    def run():
        cfg = PipelineConfig(budget=Budget(rng_seed=3),
                             backend=HeuristicBackend(Budget(rng_seed=3)))
        return asdict(run_pipeline(instance, cfg))
    assert run() == run()


# -- bench over the corpus with recorded responses --------------------------


def test_bench_replay_is_reproducible_and_reconciles(tmp_path):
    outs = []
    rdirs = []
    for i in range(2):
        rdir = tmp_path / f"reports{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "peepgen.cli", "bench", str(FIXTURES),
             "--backend", f"replay:{REPLAY}", "--seed", "0",
             "--report-dir", str(rdir)],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        rdirs.append(rdir)
    assert outs[0] == outs[1]
    summary = json.loads(outs[0])
    assert summary["total"]["success"] == summary["total"]["instances"] == 12
    rows = []
    for path in rdirs[0].glob("*.json"):
        domain, _, name = path.stem.partition("_")
        rows.append((name, domain, json.loads(path.read_text())))
    assert summarize_reports(rows) == summary
