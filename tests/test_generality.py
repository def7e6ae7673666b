import json
import sys
from functools import lru_cache

import pytest

from peepgen import cli, generality, textfmt
from peepgen.generality import compare_generality, generalizes, match_rule
from peepgen.ir import substitute
from peepgen.pipeline import PipelineConfig, run_pipeline
from peepgen.proposer import HeuristicBackend, ReplayBackend
from peepgen.verifier import Budget

from conftest import FIXTURES, parse, structural_eq

INSTANCES = sorted((FIXTURES / "int").glob("*.peep")) + sorted(
    (FIXTURES / "float").glob("*.peep"))


def _xor_and_pair():
    rule = parse((FIXTURES / "rules" / "xor_and_distribute.peep").read_text())
    concrete = parse(
        (FIXTURES / "int" / "xor_and_distribute.peep").read_text())
    return rule, concrete


def test_match_rule_binds_constants():
    rule, concrete = _xor_and_pair()
    env = match_rule(rule, concrete)
    assert env is not None
    assert env["C1"] == 173 and env["C2"] == 94 and env["C3"] == 57
    assert env["C4"] == 53


def test_match_rule_rejects_broken_relation():
    rule, concrete = _xor_and_pair()
    broken = parse((FIXTURES / "int" / "xor_and_distribute.peep")
                   .read_text().replace(", 53", ", 54"))
    assert match_rule(rule, broken) is None


def test_match_rule_handles_commuted_operands():
    rule, concrete = _xor_and_pair()
    commuted = parse((FIXTURES / "int" / "xor_and_distribute.peep")
                     .read_text().replace("xor i8 %x, 173", "xor i8 173, %x"))
    env = match_rule(rule, commuted)
    assert env is not None and env["C1"] == 173


def test_match_then_substitute_reproduces_instance():
    rule, concrete = _xor_and_pair()
    env = match_rule(rule, concrete)
    widths = {v: env[v] for v in rule.width_vars}
    bindings = {n for n, _ in rule.sym_consts}
    inst = substitute(rule, {n: env[n] for n in bindings}, widths)
    assert structural_eq(
        textfmt.parse_rule(textfmt.print_rule(inst)), concrete)


def test_compare_generality_reflexive_and_disjoint():
    rule = parse((FIXTURES / "rules" / "cttz_general.peep").read_text())
    assert compare_generality(rule, rule).verdict == "Equal"
    other = parse("""
rule "o" {
  lhs fn(x: i8) -> i8 { %0 = add i8 %x, 1; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = sub i8 %x, 255; ret %0 }
}
""")
    assert compare_generality(rule, other).verdict == "Incomparable"


def test_compare_generality_strict_superset():
    a = parse((FIXTURES / "rules" / "cttz_general.peep").read_text())
    b = parse((FIXTURES / "rules" / "cttz_fixed_rhs.peep").read_text())
    result = compare_generality(a, b)
    assert result.verdict == "AMoreGeneral"
    assert result.witness is not None


_AND_RANGE = """
rule "and_range" {{
  {decl}pre: {pre};
  lhs fn({params}) -> i16 {{ %0 = and i16 %x, {k}; {ret} }}
  rhs fn({params}) -> i16 {{ %0 = and i16 %x, {k}; {ret} }}
}}
"""


def _and_range(pre: str, k: str, two: bool = False):
    """`and i16 %x, k` under `pre`; with `two`, or'ed with a second
    parameter %y.  k is the constant C1 or a literal."""
    return parse(_AND_RANGE.format(
        decl="const C1: i16;\n  " if k == "C1" else "", pre=pre, k=k,
        params="x: i16, y: i16" if two else "x: i16",
        ret="%1 = or i16 %0, %y; ret %1" if two else "ret %0"))


def test_match_rule_requires_the_instance_pre_to_imply_param_conjuncts():
    rule = _and_range("RangeU(%x, 0, 2000)", "C1")
    assert match_rule(rule, _and_range("RangeU(%x, 0, 1000)", "255")) \
        == {"C1": 255}
    assert match_rule(rule, _and_range("RangeU(%x, 0, 3000)", "255")) is None


def test_match_rule_refuses_residual_spaces_over_the_cap():
    # the implication holds, but (x, y) spans 2^32 points
    both = "RangeU(%x, 0, {0}) && RangeU(%y, 0, {0})"
    rule = _and_range(both.format(2000), "C1", two=True)
    assert match_rule(rule, _and_range(both.format(1000), "255", two=True)) \
        is None


# -- generalize's answer per fixture -----------------------------------------


@lru_cache(maxsize=None)
def _final(backend: str, name: str):
    """The seed-0 final rule for one instance fixture, or None."""
    path = next(p for p in INSTANCES if p.stem == name)
    budget = Budget()
    be = (HeuristicBackend(budget) if backend == "heuristic"
          else ReplayBackend(FIXTURES / "replay"))
    report = run_pipeline(parse(path.read_text()),
                          PipelineConfig(budget, None, be))
    return None if report.final is None else parse(report.final)


GENERALIZED = {"add_fold", "clamp_concrete", "cttz_concrete",
               "strength_reduce_mul8", "xor_and_distribute", "xor_self"}


@pytest.mark.parametrize("backend, expected", [
    ("heuristic", GENERALIZED),
    ("replay", GENERALIZED - {"clamp_concrete"}),
])
def test_generalizes_per_fixture_at_seed_0(backend, expected):
    got = set()
    for path in INSTANCES:
        final = _final(backend, path.stem)
        if final is not None and generalizes(
                final, parse(path.read_text()), Budget()):
            got.add(path.stem)
    assert got == expected


def _main(monkeypatch, capsys, *args):
    """Run the console entry point in this process; returns (exit code,
    stdout)."""
    monkeypatch.setattr(sys, "argv", ["peepgen", *args])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    return exited.value.code, capsys.readouterr().out


@pytest.mark.parametrize("name, code", [("int/xor_self", 0),
                                        ("float/fneg_fneg", 1)])
def test_generalize_exits_on_the_answer_of_generalizes(
        name, code, monkeypatch, capsys):
    answers = []

    def recorded(*args):
        answers.append(generalizes(*args))
        return answers[-1]

    monkeypatch.setattr(generality, "generalizes", recorded)
    exit_code, _out = _main(monkeypatch, capsys, "generalize",
                            str(FIXTURES / f"{name}.peep"))
    assert answers == [code == 0]
    assert exit_code == code


# -- the comparison stops at its first witness -------------------------------


def test_comparison_stops_at_its_first_witness(monkeypatch):
    instance = parse((FIXTURES / "int" / "add_fold.peep").read_text())
    final = _final("heuristic", "add_fold")
    widths = {v: match_rule(final, instance)[v] for v in final.width_vars}
    calls = []

    def counted(*args):
        calls.append(args)
        return substitute(*args)

    monkeypatch.setattr(generality, "substitute", counted)
    result = compare_generality(final, instance, widths, Budget())
    # one instance of the final rule that the instance misses, and the
    # instance itself, which the final rule matches
    assert len(calls) == 2
    assert (result.verdict, result.mode) == ("AMoreGeneral", "sampled")
    bindings = {"C1": 0, "C2": 0, "C3": 0}
    assert result.witness == {
        "rule": "a", "bindings": bindings,
        "instance": textfmt.canonical_text(
            substitute(final, bindings, widths))}


@pytest.mark.parametrize("reference, instance, verdict, mode", [
    ("cttz_general", "cttz_concrete", "AMoreGeneral", "exhaustive"),
    ("clamp_range", "clamp_concrete", "AMoreGeneral", "sampled"),
    ("xor_and_distribute", "xor_and_distribute", "AMoreGeneral", "sampled"),
])
def test_reference_rules_compare_against_their_instances(
        reference, instance, verdict, mode, monkeypatch, capsys):
    code, out = _main(monkeypatch, capsys, "compare",
                      str(FIXTURES / "rules" / f"{reference}.peep"),
                      str(FIXTURES / "int" / f"{instance}.peep"))
    result = json.loads(out)
    assert code == 0
    assert (result["verdict"], result["mode"]) == (verdict, mode)
