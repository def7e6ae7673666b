import pytest
from hypothesis import given, strategies as st

from peepgen.ir import (IntType, PeepError, PreconditionUnsatisfied,
                        literal_fits, map_function, map_pred, mask,
                        pred_param_refs, resolve_widths, rule_types,
                        substitute, to_signed, to_unsigned, validate)
from peepgen import textfmt
from peepgen.pipeline import _erase_widths

from conftest import FIXTURES, parse

PEEP_FILES = sorted(p for d in ("int", "float", "rules")
                    for p in (FIXTURES / d).glob("*.peep"))

MUL_W = """
rule "m" {
  const C1: iW;
  widthvar W;
  pre: PowerOfTwo(C1);
  lhs fn(x: iW) -> iW { %0 = mul iW %x, C1; ret %0 }
  rhs fn(x: iW) -> iW { %0 = shl iW %x, C1; ret %0 }
}
"""


@given(st.integers(min_value=1, max_value=64), st.data())
def test_signed_unsigned_round_trip(w, data):
    pattern = data.draw(st.integers(min_value=0, max_value=mask(w)))
    assert to_unsigned(to_signed(pattern, w), w) == pattern
    signed = to_signed(pattern, w)
    assert -(1 << (w - 1)) <= signed < (1 << (w - 1))
    assert literal_fits(signed, w)


def test_literal_fits_bounds():
    assert literal_fits(255, 8)
    assert literal_fits(-128, 8)
    assert not literal_fits(256, 8)
    assert not literal_fits(-129, 8)


def test_validate_clean_corpus(fixture_corpus):
    for fx in fixture_corpus:
        assert validate(fx.rule) == [], fx.name


def test_validate_rejects_duplicate_const():
    rule = parse(MUL_W)
    bad = rule.__class__(rule.name, rule.sym_consts * 2, rule.width_vars,
                         rule.pre, rule.lhs, rule.rhs)
    assert any("duplicate" in d.message for d in validate(bad))


def test_validate_rejects_unknown_width_var():
    rule = parse(MUL_W)
    bad = rule.__class__(rule.name, rule.sym_consts, (), rule.pre,
                         rule.lhs, rule.rhs)
    assert validate(bad)


def test_resolve_widths_concretizes():
    rule = parse(MUL_W)
    resolved = resolve_widths(rule, {"W": 8})
    assert resolved.width_vars == ()
    assert resolved.lhs.params[0][1] == IntType(8)
    assert resolved.sym_consts[0][1] == IntType(8)


def test_resolve_widths_requires_assignment():
    rule = parse(MUL_W)
    with pytest.raises(PeepError):
        resolve_widths(rule, {})


def test_substitute_binds_constants():
    rule = parse(MUL_W)
    inst = substitute(rule, {"C1": 4}, {"W": 8})
    text = textfmt.print_rule(inst)
    assert "mul i8 %x, 4" in text
    assert inst.sym_consts == ()


def test_substitute_accepts_signed_values():
    src = """
rule "s" {
  const C1: i8;
  pre: C1 <s 0;
  lhs fn(x: i8) -> i8 { %0 = add i8 %x, C1; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = sub i8 %x, 3; ret %0 }
}
"""
    inst = substitute(parse(src), {"C1": -3})
    assert "add i8 %x, 253" in textfmt.print_rule(inst)


def test_substitute_rejects_pre_violations():
    rule = parse(MUL_W)
    with pytest.raises(PreconditionUnsatisfied):
        substitute(rule, {"C1": 3}, {"W": 8})


@pytest.mark.parametrize("path", PEEP_FILES,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_walkers_on_fixture(path):
    rule = textfmt.parse_rule(path.read_text())
    for fn in (rule.lhs, rule.rhs):
        assert map_function(fn, lambda o: o, lambda ty: ty) == fn
    for conj in rule.pre:
        assert map_pred(conj, lambda e: e, lambda n: n) == conj
    # erase each concrete integer width into a width variable, then resolve
    # it back: the printed rule is the fixture's own
    widths = {t.width for t in rule_types(rule)
              if isinstance(t, IntType) and t.width != 1}
    for w in sorted(widths):
        erased = _erase_widths(rule, w, "W")
        assert textfmt.print_rule(resolve_widths(erased, {"W": w})) == \
            textfmt.print_rule(rule)


def test_walkers_reach_references_under_connectives():
    def conjunct(text):
        (conj,) = textfmt.parse_conjuncts(text, {}, [])
        return conj

    conj = conjunct("!RangeU(%x, 0, 3) || KnownBits(%y, 1, 0) || %z == 2")
    assert pred_param_refs(conj) == {"x", "y", "z"}
    assert map_pred(conj, ref=str.upper) == conjunct(
        "!RangeU(%X, 0, 3) || KnownBits(%Y, 1, 0) || %Z == 2")


@pytest.mark.parametrize("pre, ty, message", [
    ("LowBitsZero(%x, -1)", "i8", "negative LowBitsZero count -1"),
    ("KnownBits(%x, 0, 0)", "f32", "bit predicate on %x of non-integer type f32"),
    ("LowBitsZero(%x, 2)", "f16", "bit predicate on %x of non-integer type f16"),
    ("RangeU(%x, 0, 3)", "f64", "bit predicate on %x of non-integer type f64"),
    ("!RangeS(%x, -1, 3)", "f32", "bit predicate on %x of non-integer type f32"),
])
def test_validate_rejects_bit_predicates_the_evaluators_cannot_take(pre, ty,
                                                                     message):
    # both evaluators raise a Python error on these instead of a verdict
    rule = parse(f"""
rule "bits" {{
  pre: {pre};
  lhs fn(x: {ty}) -> {ty} {{ ret %x }}
  rhs fn(x: {ty}) -> {ty} {{ ret %x }}
}}
""")
    assert [d.message for d in validate(rule)] == [message]


@pytest.mark.parametrize("pre", ["LowBitsZero(%x, 0)", "KnownBits(%x, 0, 0)",
                                 "RangeS(%x, -1, 3)"])
def test_validate_accepts_bit_predicates_on_integers(pre):
    rule = parse(f"""
rule "bits" {{
  pre: {pre};
  lhs fn(x: i8) -> i8 {{ ret %x }}
  rhs fn(x: i8) -> i8 {{ ret %x }}
}}
""")
    assert validate(rule) == []
