"""Curated fixture corpus loader.

Fixtures live under ``fixtures/<domain>/`` as ``.peep`` rule texts paired
with ``.expect.json`` expectation files (expected verdict kind/mode, and
where applicable a generalized-rule reference with its binding map and the
expected pruned form).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .ir import PeepError, Rule
from . import textfmt


class FixtureError(PeepError):
    """A fixture failed to load; the message names the fixture."""


@dataclass(frozen=True)
class Fixture:
    name: str
    domain: str  # int | float | rules
    rule: Rule
    expect: dict = field(default_factory=dict)


def _load_one(path: Path, domain: str) -> Fixture:
    name = path.stem
    try:
        rule = textfmt.parse_rule(path.read_text())
    except (OSError, PeepError) as e:
        raise FixtureError(f"fixture {domain}/{name}: {e}") from e
    expect_path = path.with_suffix(".expect.json")
    expect = {}
    if expect_path.exists():
        try:
            expect = json.loads(expect_path.read_text())
        except (OSError, ValueError) as e:
            raise FixtureError(
                f"fixture {domain}/{name}: bad expectation file: {e}") from e
        if not isinstance(expect, dict):
            raise FixtureError(
                f"fixture {domain}/{name}: expectation file is not an object")
    return Fixture(name, domain, rule, expect)


def load_fixtures(root: Path,
                  domains: tuple = ("int", "float", "rules")) -> list:
    """All fixtures under `root`, sorted by (domain, name)."""
    out = []
    for domain in domains:
        ddir = Path(root) / domain
        if not ddir.is_dir():
            continue
        for path in sorted(ddir.glob("*.peep")):
            out.append(_load_one(path, domain))
    return out

