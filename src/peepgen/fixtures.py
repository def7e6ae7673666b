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
from typing import Optional

from .ir import PeepError, Rule
from . import textfmt


class FixtureError(PeepError):
    """A fixture failed to load; the message names the fixture."""


@dataclass(frozen=True)
class Fixture:
    name: str
    domain: str  # int | float | rules
    peep_path: Path
    text: str
    rule: Rule
    expect: dict = field(default_factory=dict)

    @property
    def expect_path(self) -> Path:
        return self.peep_path.with_suffix(".expect.json")


def fixtures_root(start: Optional[Path] = None) -> Path:
    """Locate the fixtures/ directory by walking up from `start` (default:
    this package's source checkout, then the current directory)."""
    candidates = []
    if start is not None:
        candidates.append(Path(start))
    candidates.append(Path(__file__).resolve())
    candidates.append(Path.cwd())
    for base in candidates:
        for parent in [base] + list(base.parents):
            probe = parent / "fixtures"
            if probe.is_dir():
                return probe
    raise FixtureError("no fixtures/ directory found")


def _load_one(path: Path, domain: str) -> Fixture:
    name = path.stem
    try:
        text = path.read_text()
        rule = textfmt.parse_rule(text)
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
    return Fixture(name, domain, path, text, rule, expect)


def load_fixtures(root: Optional[Path] = None,
                  domains: tuple = ("int", "float", "rules")) -> list:
    """All fixtures under root (auto-located when omitted), sorted by
    (domain, name)."""
    base = Path(root) if root is not None else fixtures_root()
    out = []
    for domain in domains:
        ddir = base / domain
        if not ddir.is_dir():
            continue
        for path in sorted(ddir.glob("*.peep")):
            out.append(_load_one(path, domain))
    return out

