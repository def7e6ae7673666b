import pytest

from peepgen import textfmt, verifier
from peepgen.fixtures import FixtureError, load_fixtures
from peepgen.generality import match_rule
from peepgen.ir import IntType, substitute, to_unsigned, validate
from peepgen.pruner import prune
from peepgen.verifier import Budget

from conftest import FIXTURES, structural_eq


def test_corpus_loads_and_validates(fixture_corpus):
    assert len(fixture_corpus) >= 15
    assert {f.domain for f in fixture_corpus} == {"int", "float", "rules"}
    for fx in fixture_corpus:
        assert not validate(fx.rule), fx.name
        assert fx.expect, f"{fx.name} has no expectation file"
        assert fx.expect["schema"] == "peepgen-expect-1"


def test_corrupted_fixture_is_named(tmp_path):
    ddir = tmp_path / "int"
    ddir.mkdir()
    (ddir / "mangled.peep").write_text("rule { not a rule")
    with pytest.raises(FixtureError, match="int/mangled"):
        load_fixtures(tmp_path)


def test_bad_expectation_file_is_named(tmp_path):
    ddir = tmp_path / "int"
    ddir.mkdir()
    (ddir / "ok.peep").write_text(
        (FIXTURES / "int" / "xor_self.peep").read_text())
    (ddir / "ok.expect.json").write_text("{ not json")
    with pytest.raises(FixtureError, match="int/ok"):
        load_fixtures(tmp_path)


def test_round_trip_invariant(fixture_corpus):
    for fx in fixture_corpus:
        assert structural_eq(
            textfmt.parse_rule(textfmt.print_rule(fx.rule)), fx.rule), fx.name


def test_expected_verdicts_reproduce(fixture_corpus):
    for fx in fixture_corpus:
        want = fx.expect["verdict"]
        verdict = verifier.check_refinement(fx.rule, fx.expect["widths"],
                                            Budget())
        got = verifier.verdict_to_json(verdict)
        assert got["kind"] == want["kind"], fx.name
        if "mode" in want:
            assert got["mode"] == want["mode"], fx.name
        if "space" in want:
            assert got["space"] == want["space"], fx.name


def _resolved_const_types(rule, env):
    widths = {v: env[v] for v in rule.width_vars}
    resolved = rule
    if widths:
        from peepgen.ir import resolve_widths
        resolved = resolve_widths(rule, widths)
    return dict(resolved.sym_consts), widths


def test_expected_bindings_reproduce(fixture_corpus):
    for fx in fixture_corpus:
        if "rule" not in fx.expect:
            continue
        rule = textfmt.parse_rule((FIXTURES / fx.expect["rule"]).read_text())
        env = match_rule(rule, fx.rule)
        assert env is not None, fx.name
        types, _widths = _resolved_const_types(rule, env)
        for name, want in fx.expect["bindings"].items():
            ty = types[name]
            assert isinstance(ty, IntType)
            assert env[name] == to_unsigned(want, ty.width), (fx.name, name)


def test_expected_rhs_literals_reproduce(fixture_corpus):
    for fx in fixture_corpus:
        if "rhs_literals" not in fx.expect:
            continue
        rule = textfmt.parse_rule((FIXTURES / fx.expect["rule"]).read_text())
        env = match_rule(rule, fx.rule)
        types, widths = _resolved_const_types(rule, env)
        inst = substitute(rule, {n: env[n] for n in types}, widths)
        literals = {o.value for i in inst.rhs.body for o in i.operands
                    if hasattr(o, "value") and hasattr(o, "ty")}
        assert set(fx.expect["rhs_literals"]) <= literals, fx.name


def test_expected_pruned_forms_reproduce(fixture_corpus):
    for fx in fixture_corpus:
        if "pruned" not in fx.expect:
            continue
        pruned, _log = prune(fx.rule)
        assert textfmt.print_rule(pruned) == fx.expect["pruned"], fx.name
