"""Regenerate the recorded proposer responses under fixtures/replay/.

Most fixtures are recorded from the deterministic heuristic backend.  The
negate_lshr_or fixture instead uses a scripted backend whose responses
walk the rule through the documented stage trace (symbolic constants C1/C2,
the V abstraction with its range conjunct, and the popcount bound
weakening); the heuristic backend does not reach that form on its own.

Run from the repository root:  python3 tools/record_fixtures.py
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from peepgen import textfmt  # noqa: E402
from peepgen.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from peepgen.proposer import (  # noqa: E402
    HeuristicBackend, RecordingBackend, Structural, SymbolicConstants,
    WeakenPrecondition, fence)
from peepgen.verifier import Budget  # noqa: E402

NEG_LSHR_STAGE1 = '''rule "negate_lshr_or" {
  const C1: i32;
  const C2: i64;
  pre: C1 >=s 0 && PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && C2 <=u 32;
  lhs fn(x: i32) -> i64 {
    %0 = sub i32 0, %x;
    %1 = and i32 %0, C1;
    %2 = zext i32 %1 to i64;
    %3 = sub.nsw i64 0, %2;
    %4 = lshr i64 %3, C2;
    %5 = or i64 %4, %3;
    ret %5
  }
  rhs fn(x: i32) -> i64 {
    %0 = and i32 %x, C1;
    %1 = icmp.ne i32 %0, 0;
    %2 = sext i1 %1 to i64;
    ret %2
  }
}
'''

NEG_LSHR_STAGE2 = '''rule "negate_lshr_or" {
  const C1: i32;
  const C2: i64;
  pre: C1 >=s 0 && PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && C2 <=u 32 && RangeU(%V, 0, zext(C1, 64));
  lhs fn(V: i64) -> i64 {
    %0 = sub.nsw i64 0, %V;
    %1 = lshr i64 %0, C2;
    %2 = or i64 %1, %0;
    ret %2
  }
  rhs fn(V: i64) -> i64 {
    %0 = icmp.ne i64 %V, 0;
    %1 = sext i1 %0 to i64;
    ret %1
  }
}
'''

NEG_LSHR_WEAKENED_BOUND = "C2 <=u 64 - popcount(C1)\n"


class ScriptedNegateLshrBackend:
    """Canned responses reproducing the documented stage trace for the negate/lshr/or rule."""

    def respond(self, req):
        if isinstance(req.stage, SymbolicConstants):
            return fence([NEG_LSHR_STAGE1])
        if isinstance(req.stage, Structural):
            return fence([NEG_LSHR_STAGE2])
        if isinstance(req.stage, WeakenPrecondition):
            rule = textfmt.parse_rule(req.rule_text)
            conj = textfmt.print_pred(rule.pre[req.stage.conjunct])
            if conj == "C2 <=u 32":
                return fence([NEG_LSHR_WEAKENED_BOUND])
        return None


def record(path: pathlib.Path, backend, replay_dir: pathlib.Path) -> None:
    rule = textfmt.parse_rule(path.read_text())
    cfg = PipelineConfig(budget=Budget(),
                         backend=RecordingBackend(backend, replay_dir))
    report = run_pipeline(rule, cfg)
    verdict = report.final_verdict["kind"] if report.final_verdict else None
    print(f"{path.name:30s} final={verdict}")


def main() -> None:
    replay_dir = ROOT / "fixtures" / "replay"
    for old in replay_dir.glob("*.txt"):
        old.unlink()
    heuristic = HeuristicBackend(Budget())
    for domain in ("int", "float"):
        for path in sorted((ROOT / "fixtures" / domain).glob("*.peep")):
            if path.stem == "negate_lshr_or":
                record(path, ScriptedNegateLshrBackend(), replay_dir)
            else:
                record(path, heuristic, replay_dir)
    print(f"recorded {len(list(replay_dir.glob('*.txt')))} responses")


if __name__ == "__main__":
    main()
