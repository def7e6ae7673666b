"""Print the verifier's throughput, in points per second, and its peak
memory on eighteen fixed kernels, so that a change to the engine, the
constant walk or the scan loop can be measured layer by layer:

  enumerate  walk and filter the whole 2^24-tuple free-constant space of
             fixtures/rules/xor_and_distribute.peep
  xor_and    check_refinement on that rule (4352 sampled constants x the
             full 256-input grid, the constant walk included)
  narrow     check_refinement on cttz_concrete's generalization at W=12
             (C1 derived, C2 narrowed to its 12 powers of two; 78 constants
             x 4096 inputs, exhaustive)
  clamp      check_refinement on fixtures/rules/clamp_range.peep (256
             sampled constants x the full 65536-input grid)
  divrem     check_refinement on `(x urem C) udiv C` => `and x, 0` at i16
             under C != 0 (287 sampled constants, special values
             included, x the full 65536-input grid): the udiv and urem
             kernels
  divcol     check_refinement on mod_div_zero's final rule at W=12,
             `(x urem C1) udiv C1` => `and x, 0`, exhaustive (4096 constants
             x 4096 inputs): blocks of 16 rows of 4096 inputs divided by a
             column of 16 constants
  range_pre  check_refinement on negate_lshr_or's final rule, whose
             parameter conjunct RangeU(%V, 0, zext(C1, 64)) admits a few
             percent of each constant's sampled i64 inputs (256 sampled
             constants x 65664 sampled inputs): the parameter precondition
             and the scan of the points it admits
  dup_inputs check_refinement on negate_lshr_or's first sampled rule (x: i32,
             no parameter precondition; 256 sampled constants, 170 of them
             distinct, x 65600 sampled inputs, 36670 of them distinct): the
             scan of each distinct point once, with the input row drawn on
             the first run and remembered on the others
  poison_column
             check_refinement on an i32 rule whose `lshr` by a constant
             C1 <=u 40 meets `add nsw` of the input, which carries its own
             poison (256 sampled constants x 65600 sampled inputs, 36766
             of them distinct): each block ORs a (k, 1) column of poison
             into a (1, m) row of it, several constant rows to a block: the
             masks of different shapes; the rows where C1 >= 32, on which
             the lhs is poison whatever the input, are not scanned
  vacuous_rows
             check_refinement on heuristic negate_lshr_or's final rule at
             seed 1, whose `lshr i64` by C2 under `C2 >=u 8 &&
             PowerOfTwo(C2)` is poison at every C2 >= 64 (256 sampled
             constants x sampled inputs): the constant tuples at which the
             lhs is poison on every input are decided without a scan
  refute_wide
             check_refinement on a rule over (x: i8, y: i16) whose first
             violation is at index 65536 of the 2^24-point input grid, which
             is built block by block: the cost of a check refuted early in a
             large grid; points are those up to and including the violation
  sparse_walk
             check_refinement on a rule under `C2 == cttz(cttz(C1))` (C1:
             i8, C2: i16, not derived): the constant walk filters all 2^24
             tuples to find the 256 that satisfy it, then checks them
             exhaustively against 256 inputs; points are the tuples walked
  fit        proposer.heuristic_fit_constants on clamp_concrete (pruned) at
             seed 0: stage 1's template fit, which drops conjuncts in halving
             blocks; points are its probe checks
  weak_probe check_refinement, at the fit's probe budget, on a weak trial of
             that fit whose special-value constant pools cross to 2,313,441
             tuples; the sampler filters them a piece at a time and stops
             at 64 finds, so peak_MB shows a few pieces, not the cross;
             points are the cross's tuples
  weaker     check_strictly_weaker on the stage-3 weakening of negate_lshr_or
             that a replay pass accepts (C2 <=u 32 widened to
             C2 <=u 64 - popcount(C1)): a sampled point space over (C1: i32,
             C2: i64, V: i64) of 65536 seeded draws and the 1,048,576-tuple
             special-value cross, read a piece at a time; points are the
             space's
  wide_verified
             check_refinement on an i24 rule without constants (mul, add and
             xor against shl, add and xor), exhaustive over its 2^24 inputs:
             the cost of a verified check whose one row is cut into pieces
  filter64, filter65536
             one engine.eval_pred_vec call on xor_and_distribute's
             constant-only conjunct `C4 == (C1 & C2) ^ C3` over a block of
             64 or 65536 seeded random constant tuples: the constant
             operators and the constant filter, one call at a time

Each kernel is built and timed in a fresh process of its own: with one
kernel named, this process; otherwise one child process per kernel.  So no
figure depends on which kernels ran before it.  In one long process it
would, because glibc hands large numpy temporaries back to the operating
system, and faults them in again, until an earlier large allocation has
raised its trim and mmap thresholds.

Each kernel runs 5 times (a filter kernel 5 batches of many calls);
median_s is the median time of one call (for a filter kernel, times 1e6 it
is microseconds per call), and points/s is the points of one call over it.
peak_MB is the tracemalloc peak of one more call, made after the timed
runs (tracemalloc slows allocation, so that call is not timed).
The host's speed drifts between runs and between processes, so perfbench's
reference job (`perfbench/hostspeed.py`) is timed right before and after
each run, and scaled/s is the rate at the host speed where that job takes
its nominal time: each run's time is scaled by the nominal time over the
median job time around it.  Stdlib and numpy only (numpy through peepgen).

Run from anywhere:  python3 tools/kernel_rate.py [kernel ...]
(default: every kernel, in the order above).
"""
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Optional

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from peepgen import (  # noqa: E402
    engine, proposer, pruner, textfmt, verifier)
from peepgen.ir import pred_param_refs  # noqa: E402
import hostspeed  # noqa: E402

RUNS = 5
# reference jobs timed before and after each run
REFERENCE_JOBS = 5


# cttz_concrete's final rule with its width variable W fixed at 12
CTTZ_W12 = """
rule "cttz_w12" {
  const C1: i12;
  const C2: i12;
  const C3: i12;
  pre: PowerOfTwo(C1) && PowerOfTwo(C2) && C1 == C2 >>u C3;
  lhs fn(x: i12) -> i1 {
    %0 = shl i12 C1, %x;
    %1 = and i12 C2, %0;
    %2 = icmp.ne i12 %1, 0;
    ret %2
  }
  rhs fn(x: i12) -> i1 {
    %0 = icmp.eq i12 %x, C3;
    ret %0
  }
}
"""


# a quotient of a remainder by the same divisor is always 0
DIVREM_I16 = """
rule "divrem_i16" {
  const C1: i16;
  pre: C1 != 0;
  lhs fn(x: i16) -> i16 {
    %0 = urem i16 %x, C1;
    %1 = udiv i16 %0, C1;
    ret %1
  }
  rhs fn(x: i16) -> i16 {
    %0 = and i16 %x, 0;
    ret %0
  }
}
"""


# mod_div_zero's generalization (the bench's final rule) at W=12: without
# a precondition, C1 = 0 is checked too (the lhs is poison there, which any
# rhs refines)
DIVCOL_W12 = """
rule "mod_div_zero_w12" {
  const C1: i12;
  lhs fn(x: i12) -> i12 {
    %0 = urem i12 %x, C1;
    %1 = udiv i12 %0, C1;
    ret %1
  }
  rhs fn(x: i12) -> i12 {
    %0 = and i12 %x, 0;
    ret %0
  }
}
"""


# negate_lshr_or's generalization (the bench's final rule)
NEGATE_LSHR_OR = """
rule "negate_lshr_or" {
  const C1: i32;
  const C2: i64;
  pre: PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && C2 <=u 64 - popcount(C1) && RangeU(%V, 0, zext(C1, 64));
  lhs fn(V: i64) -> i64 {
    %0 = sub i64 0, %V;
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
"""


# the first rule negate_lshr_or's replay run checks by sampling: its i32
# input draws repeat many values
DUP_INPUTS = """
rule "negate_lshr_or" {
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
"""


# `(x + x) >>u C1` with `nsw` refines `(x << 1) >>u C1`: the lhs is poison
# on a row of inputs (where x + x overflows) and on a column of constants
# (C1 >= 32), and both masks meet in every block
POISON_COLUMN = """
rule "poison_column" {
  const C1: i32;
  pre: C1 <=u 40;
  lhs fn(x: i32) -> i32 {
    %0 = add.nsw i32 %x, %x;
    %1 = lshr i32 %0, C1;
    ret %1
  }
  rhs fn(x: i32) -> i32 {
    %0 = shl i32 %x, 1;
    %1 = lshr i32 %0, C1;
    ret %1
  }
}
"""


# heuristic negate_lshr_or's final rule at seed 1: PowerOfTwo(C2) and
# C2 >=u 8 admit C2 = 8..2^63, and the lshr is poison at every C2 >= 64
VACUOUS_ROWS = """
rule "negate_lshr_or" {
  const C1: i32;
  const C2: i64;
  pre: C1 <=u 63 && C2 >=u 8 && PowerOfTwo(C1 + 1) && PowerOfTwo(C2);
  lhs fn(x: i32) -> i64 {
    %0 = sub i32 0, %x;
    %1 = and i32 %0, C1;
    %2 = zext i32 %1 to i64;
    %3 = sub i64 0, %2;
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
"""


# `x | y` is `y` only while x is 0: the first violation is x = 1, y = 0,
# grid index 1 * 2^16 + 0
REFUTE_WIDE = """
rule "refute_wide" {
  lhs fn(x: i8, y: i16) -> i16 {
    %0 = zext i8 %x to i16;
    %1 = or i16 %0, %y;
    ret %1
  }
  rhs fn(x: i8, y: i16) -> i16 {
    ret %y
  }
}
"""


# C2 is not derived, because cttz(cttz(C1)) is i8: the walk visits every
# one of the 2^24 (C1, C2) tuples and keeps 256
SPARSE_WALK = """
rule "sparse_walk" {
  const C1: i8;
  const C2: i16;
  pre: C2 == cttz(cttz(C1));
  lhs fn(x: i8) -> i8 { ret %x }
  rhs fn(x: i8) -> i8 { ret %x }
}
"""


# a weak trial of clamp_concrete's stage-1 fit: C1 is derived, and the
# special-value pools of C2..C5 (39 patterns each) cross to 39^4 tuples
WEAK_CLAMP = """
rule "clamp_concrete" {
  const C1: i16;
  const C2: i16;
  const C3: i16;
  const C4: i16;
  const C5: i16;
  pre: C2 <=u 65381 && C3 >=u 100 && C5 >=u 256 && C1 == C2 + C4 && C1 == C5 - C4 ^ C2;
  lhs fn(x: i16) -> i1 {
    %0 = add i16 %x, C1;
    %1 = smax i16 %0, C2;
    %2 = smin i16 %1, C3;
    %3 = icmp.eq i16 %2, %0;
    ret %3
  }
  rhs fn(x: i16) -> i1 {
    %0 = add i16 %x, C4;
    %1 = icmp.ult i16 %0, C5;
    ret %1
  }
}
"""


# negate_lshr_or's rule when stage 3 proposes the weakening WEAKENED_PRE
WEAKER_RULE = """
rule "negate_lshr_or" {
  const C1: i32;
  const C2: i64;
  pre: PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && C2 <=u 32 && RangeU(%V, 0, zext(C1, 64));
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
"""
WEAKENED_PRE = ("PowerOfTwo(C1 + 1) && popcount(C1) <=u C2 && "
                "C2 <=u 64 - popcount(C1) && RangeU(%V, 0, zext(C1, 64))")


# `x * 8` is `x << 3` at every width: exhaustive over 2^24 inputs
WIDE_VERIFIED = """
rule "wide_verified" {
  lhs fn(x: i24) -> i24 {
    %0 = mul i24 %x, 8;
    %1 = add i24 %0, 5;
    %2 = xor i24 %1, 3;
    ret %2
  }
  rhs fn(x: i24) -> i24 {
    %0 = shl i24 %x, 3;
    %1 = add i24 %0, 5;
    %2 = xor i24 %1, 3;
    ret %2
  }
}
"""


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


def refinement_kernel(rule, space: str, points: Optional[int] = None,
                      budget: Optional[verifier.Budget] = None):
    """A verified check with verdict space `space`; its points are the
    verdict's, or `points`."""
    def run() -> int:
        verdict = verifier.check_refinement(rule, None, budget)
        if verdict.kind != "verified" or verdict.space != space:
            raise SystemExit(f"{rule.name}: unexpected verdict "
                             f"{verifier.verdict_to_json(verdict)}")
        return points or verdict.points
    return run


def refuting_kernel(rule, inputs: dict, points: int,
                    budget: Optional[verifier.Budget] = None):
    def run() -> int:
        verdict = verifier.check_refinement(rule, None, budget)
        if verdict.kind != "refuted" or verdict.counterexample.inputs != inputs:
            raise SystemExit(f"{rule.name}: unexpected verdict "
                             f"{verifier.verdict_to_json(verdict)}")
        return points
    return run


def fit_kernel():
    instance = textfmt.parse_rule(
        (ROOT / "fixtures" / "int" / "clamp_concrete.peep").read_text())
    rule = pruner.prune(instance)[0]
    check = verifier.check_refinement

    def run() -> int:
        probes = []

        def counted(*args):
            probes.append(args[0])
            return check(*args)

        verifier.check_refinement = counted
        try:
            fit = proposer.heuristic_fit_constants(
                rule, verifier.Budget(rng_seed=0))
        finally:
            verifier.check_refinement = check
        if not fit:
            raise SystemExit("clamp_concrete: the fit found no candidate")
        return len(probes)
    return run


def weaker_kernel():
    rule = textfmt.parse_rule(WEAKER_RULE)
    weak = textfmt.parse_conjuncts(WEAKENED_PRE, dict(rule.sym_consts))

    def run() -> int:
        result = verifier.check_strictly_weaker(rule, weak)
        if result.kind != "strictly_weaker":
            raise SystemExit(f"{rule.name}: unexpected result {result}")
        return verifier.Budget().sample_count + 64 * 128 * 128
    return run


def filter_kernel(lanes: int):
    rule = _rule("xor_and_distribute")
    (conj,) = [c for c in rule.pre if not pred_param_refs(c)]
    rng = np.random.default_rng(0)
    consts = {name: (rng.integers(0, 256, size=lanes, dtype=np.uint8), ty)
              for name, ty in rule.sym_consts}

    def run() -> int:
        engine.eval_pred_vec(conj, {}, consts)
        return lanes
    return run


# (name, kernel factory, calls timed together); a kernel is built only in
# the process that times it
KERNELS = (
    ("enumerate", enumerate_kernel, 1),
    ("xor_and", lambda: refinement_kernel(
        _rule("xor_and_distribute"),
        "4352 sampled constants x 256 inputs (full grid)"), 1),
    ("narrow", lambda: refinement_kernel(
        textfmt.parse_rule(CTTZ_W12), "78 constants x 4096 inputs"), 1),
    ("clamp", lambda: refinement_kernel(
        _rule("clamp_range"),
        "256 sampled constants x 65536 inputs (full grid)"), 1),
    ("divrem", lambda: refinement_kernel(
        textfmt.parse_rule(DIVREM_I16),
        "287 sampled constants x 65536 inputs (full grid)"), 1),
    ("divcol", lambda: refinement_kernel(
        textfmt.parse_rule(DIVCOL_W12), "4096 constants x 4096 inputs"), 1),
    ("range_pre", lambda: refinement_kernel(
        textfmt.parse_rule(NEGATE_LSHR_OR),
        "256 sampled constants x sampled inputs"), 1),
    ("dup_inputs", lambda: refinement_kernel(
        textfmt.parse_rule(DUP_INPUTS),
        "256 sampled constants x sampled inputs"), 1),
    ("poison_column", lambda: refinement_kernel(
        textfmt.parse_rule(POISON_COLUMN),
        "256 sampled constants x sampled inputs"), 1),
    ("vacuous_rows", lambda: refinement_kernel(
        textfmt.parse_rule(VACUOUS_ROWS),
        "256 sampled constants x sampled inputs",
        budget=verifier.Budget(rng_seed=1)), 1),
    ("refute_wide", lambda: refuting_kernel(
        textfmt.parse_rule(REFUTE_WIDE), {"x": 1, "y": 0}, 65537), 1),
    ("sparse_walk", lambda: refinement_kernel(
        textfmt.parse_rule(SPARSE_WALK), "256 constants x 256 inputs",
        1 << 24), 1),
    ("fit", fit_kernel, 1),
    ("weak_probe", lambda: refuting_kernel(
        textfmt.parse_rule(WEAK_CLAMP), {"x": 0}, 39 ** 4,
        proposer._probe_budget(verifier.Budget(rng_seed=0))), 1),
    ("weaker", weaker_kernel, 1),
    ("wide_verified", lambda: refinement_kernel(
        textfmt.parse_rule(WIDE_VERIFIED), "1 constants x 16777216 inputs"),
     1),
    ("filter64", lambda: filter_kernel(64), 2000),
    ("filter65536", lambda: filter_kernel(65536), 50),
)


def _reference_jobs() -> list:
    times = []
    for _ in range(REFERENCE_JOBS):
        start = time.perf_counter()
        hostspeed.reference_job()
        times.append(time.perf_counter() - start)
    return times


def _row(name: str, build, calls: int) -> str:
    run = build()
    times, scaled = [], []
    for _ in range(RUNS):
        jobs = _reference_jobs()
        start = time.perf_counter()
        for _ in range(calls):
            points = run()
        times.append((time.perf_counter() - start) / calls)
        job_s = statistics.median(jobs + _reference_jobs())
        scaled.append(times[-1] * hostspeed.NOMINAL_S / job_s)
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1] / (1 << 20)
    tracemalloc.stop()
    median = statistics.median(times)
    return (f"{name:13s} {points:10d} {median:9.4g} {points / median:12.4g} "
            f"{points / statistics.median(scaled):12.4g} {peak:8.4g}")


def main() -> None:
    names = sys.argv[1:] or [name for name, _, _ in KERNELS]
    unknown = set(names) - {name for name, _, _ in KERNELS}
    if unknown:
        raise SystemExit(f"unknown kernel(s): {', '.join(sorted(unknown))}; "
                         f"choose from {', '.join(n for n, _, _ in KERNELS)}")
    print(f"{'kernel':13s} {'points':>10s} {'median_s':>9s} {'points/s':>12s} "
          f"{'scaled/s':>12s} {'peak_MB':>8s}", flush=True)
    for name, build, calls in KERNELS:
        if name not in names:
            continue
        if len(names) == 1:
            print(_row(name, build, calls))
            continue
        # a fresh process per kernel: see the module docstring
        proc = subprocess.run([sys.executable, __file__, name],
                              stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode:
            raise SystemExit(proc.returncode)
        print(proc.stdout.splitlines()[-1], flush=True)


if __name__ == "__main__":
    main()
