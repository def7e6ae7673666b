"""Print the verifier's throughput, in points per second, on three fixed
kernels, so that a change to the engine or the scan loop can be measured
layer by layer:

  enumerate  build and filter the 2^24-tuple free-constant space of
             fixtures/rules/xor_and_distribute.peep
  xor_and    check_refinement on that rule (4352 sampled constants x the
             full 256-input grid, constant enumeration included)
  clamp      check_refinement on fixtures/rules/clamp_range.peep (256
             sampled constants x the full 65536-input grid)

Each kernel runs 5 times; the rate is its point count over the median
time.  Stdlib and numpy only (numpy through peepgen).

Run from anywhere:  python3 tools/kernel_rate.py
"""
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from peepgen import textfmt, verifier  # noqa: E402
from peepgen.ir import pred_param_refs  # noqa: E402

RUNS = 5


def _rule(name: str):
    return textfmt.parse_rule(
        (ROOT / "fixtures" / "rules" / f"{name}.peep").read_text())


def enumerate_kernel():
    rule = _rule("xor_and_distribute")
    free, defs = verifier.typed_const_defs(rule)
    const_only = [c for c in rule.pre if not pred_param_refs(c)]

    def run() -> int:
        verifier.enumerate_satisfying_consts(rule, free, defs, const_only)
        return 1 << 24
    return run


def refinement_kernel(name: str, space: str):
    rule = _rule(name)

    def run() -> int:
        verdict = verifier.check_refinement(rule)
        if verdict.kind != "verified" or verdict.space != space:
            raise SystemExit(f"{name}: unexpected verdict "
                             f"{verifier.verdict_to_json(verdict)}")
        return verdict.points
    return run


KERNELS = (
    ("enumerate", enumerate_kernel()),
    ("xor_and", refinement_kernel(
        "xor_and_distribute", "4352 sampled constants x 256 inputs (full grid)")),
    ("clamp", refinement_kernel(
        "clamp_range", "256 sampled constants x 65536 inputs (full grid)")),
)


def main() -> None:
    print(f"{'kernel':10s} {'points':>10s} {'median_s':>9s} {'points/s':>12s}")
    for name, run in KERNELS:
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            points = run()
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        print(f"{name:10s} {points:10d} {median:9.4f} {points / median:12.4g}")


if __name__ == "__main__":
    main()
