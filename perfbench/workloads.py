"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass returns a `PassResult`.  Every operation a pass attempts is counted,
and one that raised, was rejected at ingestion or gave a wrong answer is
counted as failed.  A digest of the pass's deterministic output lets the
caller check that every pass of one seed, traced or not, printed the same.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from peepgen import cli, fixtures


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    errors: int = 0   # raised, or rejected at ingestion
    wrong: int = 0    # finished with an answer other than the known one
    digest: str = ""
    stages_accepted: int = 0
    problems: list = field(default_factory=list)

    def fail(self, kind: str, what: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        self.problems.append(what)


def call_cli(argv: list):
    """Run the `peepgen` console entry point in this process; returns
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["peepgen", *argv]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


class BenchWorkload:
    """`peepgen bench` over the int/ and float/ fixtures with one backend."""

    def __init__(self, backend: str, jobs: int, leave_out: tuple = ()):
        self.backend = backend
        self.jobs = jobs
        self.leave_out = leave_out

    def prepare(self, root: Path, work: Path) -> None:
        corpus = root / "fixtures"
        self.expected = [(fx.domain, fx.name) for fx in
                         fixtures.load_fixtures(corpus, ("int", "float"))
                         if fx.name not in self.leave_out]
        self.dataset = corpus
        if self.leave_out:
            # bench takes a directory: the kept instances get their own
            self.dataset = work / "dataset"
            for domain, name in self.expected:
                (self.dataset / domain).mkdir(parents=True, exist_ok=True)
                shutil.copyfile(corpus / domain / f"{name}.peep",
                                self.dataset / domain / f"{name}.peep")
        schema = json.loads((root / "docs" / "bench.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def run_pass(self, seed: int) -> PassResult:
        argv = ["bench", str(self.dataset), "--backend", self.backend,
                "--seed", str(seed), "--jobs", str(self.jobs)]
        res = PassResult(attempted=len(self.expected))
        start = time.perf_counter()
        try:
            code, out, err = call_cli(argv)
        except Exception:  # a crash of the whole bench fails every instance
            traceback.print_exc()
            code, out, err = None, "", ""
        res.wall = time.perf_counter() - start
        res.digest = hashlib.sha256(out.encode()).hexdigest()
        if code != 0:
            res.errors = res.attempted
            res.problems.append(f"bench exited with {code}: {err.strip()}")
            return res
        try:
            summary = json.loads(out)
            self.validator.validate(summary)
        except (ValueError, jsonschema.ValidationError) as exc:
            res.wrong = res.attempted
            res.problems.append(f"bench summary is invalid: {exc}")
            return res
        rows = {(r["domain"], r["name"]): r["status"]
                for r in summary["instances"]}
        extra = sorted(set(rows) - set(self.expected))
        if extra:
            res.fail("wrong", f"bench listed unexpected instances {extra}")
        for key in self.expected:
            status = rows.get(key)
            # every instance in the corpus is known to generalize
            if status == "success":
                continue
            kind = "errors" if status in (None, "rejected at ingestion") \
                else "wrong"
            res.fail(kind, f"{key[0]}/{key[1]}: {status}")
        res.stages_accepted = sum(s["effective"]
                                  for s in summary["strategies"].values())
        return res


# the instances whose traced time is reported: every int/ and float/ fixture
INSTANCES = tuple(f"int.{n}" for n in (
    "add_fold", "clamp_concrete", "cttz_concrete", "masked_sign",
    "mod_div_zero", "negate_lshr_or", "negate_lshr_or_reduced",
    "strength_reduce_mul8", "xor_and_distribute", "xor_self")) + (
    "float.fneg_fneg", "float.fp_mul2_sub1")

WORKLOADS = {
    # the cap-burning stage-1 search; cttz_concrete and add_fold (about 32 s
    # and 20 s alone) are left out so that two passes fit one run, while
    # xor_and_distribute keeps the rejection-cap hot spot in the pass
    "heuristic-corpus": BenchWorkload("heuristic", 1,
                                      ("cttz_concrete", "add_fold")),
    "replay-corpus": BenchWorkload("replay:fixtures/replay", 1),
    # the parallel scheduler; not in BENCHMARK.json, because its wall time
    # and verdict percentiles spread too much between runs on two CPUs
    "replay-jobs2": BenchWorkload("replay:fixtures/replay", 2),
}
