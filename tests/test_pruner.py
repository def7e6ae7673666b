from dataclasses import asdict

from peepgen import textfmt, verifier
from peepgen.cost import check_profitable
from peepgen.pipeline import PipelineConfig
from peepgen.pruner import dce, prune
from peepgen.verifier import Budget, check_refinement

from conftest import FIXTURES, parse


def _prune_instance():
    return parse((FIXTURES / "int" / "mod_div_zero.peep").read_text())


def test_prune_eliminates_irrelevant_trunc():
    pruned, log = prune(_prune_instance())
    text = textfmt.print_rule(pruned)
    assert "trunc" not in text
    assert "newvar_v0: i8" in text
    assert any(a.outcome == "accepted" for a in log.attempts)


def test_prune_judges_no_trial_twice(monkeypatch):
    asked = []
    check = verifier.check_refinement

    def recorded(rule, widths=None, budget=None):
        asked.append(repr(rule))
        return check(rule, widths, budget)

    monkeypatch.setattr(verifier, "check_refinement", recorded)
    _pruned, log = prune(_prune_instance(), PipelineConfig(Budget(rng_seed=0)))
    # a sweep ends at its acceptance, and the last one after its last local
    assert [(a.sweep, a.local, a.outcome) for a in log.attempts] == [
        (1, 0, "accepted"), (2, 0, "refuted"), (2, 1, "refuted")]
    assert log.sweeps == 2
    assert len(asked) == len(set(asked)) == 3


def test_prune_output_passes_both_gates():
    pruned, _log = prune(_prune_instance())
    assert check_refinement(pruned, {}, Budget()).kind == "verified"
    assert check_profitable(pruned)


def test_prune_is_idempotent():
    pruned, _ = prune(_prune_instance())
    again, log = prune(pruned)
    assert textfmt.print_rule(again) == textfmt.print_rule(pruned)
    assert not any(a.outcome == "accepted" for a in log.attempts)


def test_prune_monotone_shrinkage():
    rule = _prune_instance()
    pruned, _ = prune(rule)
    before = len(rule.lhs.body) + len(rule.rhs.body)
    after = len(pruned.lhs.body) + len(pruned.rhs.body)
    assert after <= before


def test_prune_keeps_essential_instance():
    rule = parse((FIXTURES / "int" / "xor_and_distribute.peep").read_text())
    pruned, log = prune(rule)
    assert textfmt.print_rule(pruned) == textfmt.print_rule(rule)
    assert not any(a.outcome == "accepted" for a in log.attempts)


def test_dce_removes_dead_instruction():
    rule = parse("""
rule "dead" {
  lhs fn(x: i8) -> i8 {
    %0 = add i8 %x, 1;
    %1 = mul i8 %x, 3;
    ret %0
  }
  rhs fn(x: i8) -> i8 { %0 = add i8 %x, 1; ret %0 }
}
""")
    cleaned = dce(rule)
    assert len(cleaned.lhs.body) == 1
    assert cleaned.lhs.body[0].op == "add"


def test_prune_deterministic():
    a, la = prune(_prune_instance())
    b, lb = prune(_prune_instance())
    assert textfmt.print_rule(a) == textfmt.print_rule(b)
    assert asdict(la) == asdict(lb)


def test_prune_keeps_constants_and_precondition():
    # x is abstracted away; y is referenced only by the precondition
    rule = parse("""
rule "mod_div_const" {
  const C1: i8;
  pre: C1 != 0 && RangeU(%y, 0, 3);
  lhs fn(x: i16, y: i8) -> i8 {
    %0 = trunc i16 %x to i8;
    %1 = urem i8 %0, C1;
    %2 = udiv i8 %1, C1;
    ret %2
  }
  rhs fn(x: i16, y: i8) -> i8 {
    %0 = trunc i16 %x to i8;
    %1 = and i8 %0, 0;
    ret %1
  }
}
""")
    pruned, log = prune(rule)
    assert pruned.sym_consts == rule.sym_consts
    assert pruned.pre == rule.pre
    assert [n for n, _ in pruned.lhs.params] == ["y", "newvar_v0"]
    assert "trunc" not in textfmt.print_rule(pruned)
    assert log.attempts[0].outcome == "accepted"
    assert check_refinement(pruned, {}, Budget()).kind == "verified"


def test_prune_rule_with_symbolic_constants():
    rule = parse((FIXTURES / "rules" / "clamp_range.peep").read_text())
    pruned, log = prune(rule)
    assert textfmt.print_rule(pruned) == textfmt.print_rule(rule)
    assert [a.outcome for a in log.attempts] == ["refuted"] * 4
