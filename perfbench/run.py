"""peepgen benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload replay-corpus --seed 0 --seconds 45 --trace 0

Workloads are defined in `workloads.py`.  With ``--trace 0`` the run repeats
untraced passes of the workload until ``--seconds`` would be exceeded (at
least `MIN_PASSES`) and reports the end-to-end metrics; set-up time is the
median of several fresh interpreters that import peepgen and load the
fixtures.  Both times are scaled to a fixed host speed, because the speed of
a shared host drifts by more than a regression bound: pass times by a
reference job timed inside the passes (`hostspeed.py`), set-up by the start
of a reference interpreter timed next to each set-up probe.
With ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics from the spans that `spans.py` records.

Every output is checked; a pass whose output differs from another pass of the
same seed, traced or not, is a failure too.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are the same figures for people, with the
run's context.  The names and units of the metrics are those declared in
BENCHMARK.json.  The exit code is 0 only when every output was correct.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer, layer_metrics, percentile, union_length

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
# a fresh interpreter that imports numpy and nothing of peepgen's, and a
# time near its median on a 2-CPU Xeon VM (it sets only the scale of setup_s)
REFERENCE_START = [sys.executable, "-c", "import numpy"]
REFERENCE_START_S = 0.2
MIN_PASSES = 2


def _parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _setup_seconds() -> tuple:
    """Median time of a fresh interpreter that imports peepgen and loads the
    fixture corpus, at the host speed where `REFERENCE_START` takes
    `REFERENCE_START_S`.

    Set-up is process start and imports, whose speed does not follow the
    in-process reference job of `hostspeed.py`, so each probe is paired with
    a reference start that runs none of peepgen's code, and the ratio of the
    two medians is reported, with the medians themselves."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")]
    times: dict = {"probe": [], "reference": []}
    for i in range(SETUP_PROBES):
        pair = [("probe", probe), ("reference", REFERENCE_START)]
        for name, argv in pair[::1 if i % 2 else -1]:
            start = time.perf_counter()
            subprocess.run(argv, check=True, cwd=ROOT)
            times[name].append(time.perf_counter() - start)
    probe_s = statistics.median(times["probe"])
    reference_s = statistics.median(times["reference"])
    return probe_s / reference_s * REFERENCE_START_S, probe_s, reference_s


@contextlib.contextmanager
def _timed_verdicts(samples: list):
    """Time every `verifier.check_refinement` call (two clock reads each)."""
    from peepgen import verifier
    original = verifier.check_refinement

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    verifier.check_refinement = timed
    try:
        yield
    finally:
        verifier.check_refinement = original


def _warm_up() -> None:
    """Load what the first CLI call and the first verdict load lazily."""
    from workloads import call_cli
    code, _out, err = call_cli(["verify", "fixtures/int/xor_self.peep"])
    if code != 0:
        raise RuntimeError(f"warm-up verify exited with {code}: {err}")


def _untraced(workload, seed: int, seconds: float, speed: HostSpeed):
    samples: list = []
    passes, intervals = [], []
    start = time.perf_counter()
    with _timed_verdicts(samples), speed.ticking():
        while True:
            begun = time.perf_counter()
            passes.append(workload.run_pass(seed))
            done = time.perf_counter()
            intervals.append((begun, done))
            if len(passes) >= MIN_PASSES and \
                    done - start + (done - begun) > seconds:
                break
    scaled = [speed.scaled(begun, done) for begun, done in intervals]
    walls = [p.wall for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.errors + p.wrong for p in passes)
    metrics = {
        "scaled_wall_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "correct_share": (attempted - failed) / attempted,
    }
    notes = {
        "passes": len(passes),
        "wall_s": [round(w, 4) for w in walls],
        "scaled_wall_s": [round(w, 4) for w in scaled],
        "host_job_s": statistics.median(speed.jobs),
        "verdict_s.p50": percentile(samples, 50),
        "verdict_s.p90": percentile(samples, 90),
        "verdict_samples": len(samples),
        "error_share": sum(p.errors for p in passes) / attempted,
        "stages_accepted": statistics.median(p.stages_accepted
                                             for p in passes),
    }
    return passes, metrics, notes


def _traced(workload, seed: int):
    from workloads import INSTANCES
    untraced = workload.run_pass(seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(seed)
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer.spans, traced.wall, untraced.wall,
                            workload.jobs, INSTANCES)
    fit_or_sample = union_length([
        (sp.start, sp.end) for sp in tracer.spans
        if sp.name in ("proposer.heuristic_fit_constants",
                       "verifier.sample_satisfying_consts")])
    notes = {"spans": len(tracer.spans),
             "untraced_wall_s": round(untraced.wall, 4),
             "traced_wall_s": round(traced.wall, 4),
             "fit_or_sample_s": round(fit_or_sample, 4)}
    return [untraced, traced], metrics, notes


def _baseline_lines(m: dict, wall: float, fit_or_sample: float) -> list:
    """The heuristic breakdown next to ROADMAP.md's baseline, which was
    measured on all 12 instances (cap hits on cttz_concrete, add_fold and
    xor_and_distribute; stage-1 share under cProfile)."""
    hits = m.get("verifier.cap_hits", 0)
    calls = m.get("verifier.const_sample_calls", 0)
    return [
        "breakdown vs ROADMAP baseline:",
        f"  rejection-cap hits         {hits:.0f}/{calls:.0f}"
        "   baseline 98/122",
        f"  stage 1 share of wall      {m['pipeline.stage1_s'] / wall:.1%}"
        "   baseline 87%",
        f"  fit_s share                {m['proposer.fit_s'] / wall:.1%}",
        "  const_sample_s share       "
        f"{m['verifier.const_sample_s'] / wall:.1%}",
        f"  inside fit or const sample {fit_or_sample / wall:.1%}",
    ]


def main() -> int:
    args = _parse_args()
    if not (ROOT / "src" / "peepgen").is_dir() or \
            not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no peepgen sources (src/peepgen) and "
              "fixtures/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports peepgen from src/
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 64
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    import numpy
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__}
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload.prepare(ROOT, work)
        _warm_up()
        if args.trace:
            passes, metrics, notes = _traced(workload, args.seed)
        else:
            setup_s, probe_s, reference_s = _setup_seconds()
            passes, metrics, notes = _untraced(workload, args.seed,
                                               args.seconds, HostSpeed())
            metrics["setup_s"] = setup_s
            notes["setup_probe_s"] = probe_s
            notes["reference_start_s"] = reference_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(
            f"metrics not declared in BENCHMARK.json: {unknown}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.errors + p.wrong for p in passes)
    problems = [q for p in passes for q in p.problems]
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"passes of seed {args.seed} printed different "
                        f"outputs: {sorted(digests)}")
    context["output_sha256"] = sorted(digests)
    correct = failed == 0 and len(digests) == 1

    print(f"context {json.dumps(context)}")
    print(f"notes   {json.dumps(notes)}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics.get(name, 0.0):>16.6g} {unit}")
    if args.workload == "heuristic-corpus" and args.trace:
        print("\n".join(_baseline_lines(metrics, passes[1].wall,
                                        notes["fit_or_sample_s"])))
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics.get(name, 0.0),
                                 "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
