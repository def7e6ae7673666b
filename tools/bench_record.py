"""Write a BENCH_<n>.json record from saved perfbench and kernel_rate output.

Each run file holds the standard output of one `perfbench/run.py` run: its
`context` line names the workload, seed and trace flag, and its last line is
the run's JSON result.  Untraced runs give, per workload and end-to-end
metric, the median and quartiles of the parent's and the change's runs and
how many same-seed pairs the change won; traced runs give the per-layer
metrics of one seed.  The kernel tables are the output of
`tools/kernel_rate.py` on each side; with several tables per side (runs
alternated between the sides) each figure is their median.  The optional
Tier-1 files hold each side's saved pytest output; its final summary line
gives the test counts and the wall time.  Stdlib only.

    python3 tools/bench_record.py --out BENCH_7.json \\
        --parent-commit cfaa51e \\
        --parent-runs runs/parent/*.out --change-runs runs/change/*.out \\
        --parent-kernels kr/p*.txt --change-kernels kr/c*.txt \\
        --parent-tier1 t1-parent.txt --change-tier1 t1-change.txt
"""
import argparse
import json
import pathlib
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read_run(path: pathlib.Path) -> dict:
    lines = path.read_text().splitlines()
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), None)
    if context is None:
        raise SystemExit(f"{path}: no perfbench context line")
    return {"context": context, "result": json.loads(lines[-1])}


# kernel_rate columns -> record keys; tables written before scaled/s or
# peak_MB was added lack that column
KERNEL_FIGURES = {"median_s": "median_s", "points/s": "points_per_s",
                  "scaled/s": "scaled_points_per_s", "peak_MB": "peak_mb"}


def read_kernels(paths: list) -> dict:
    """kernel -> points and the median, over the given kernel_rate tables,
    of each table's median_s, points/s, scaled/s and peak_MB (when
    present)."""
    rows: dict = {}
    for path in paths:
        header, *lines = path.read_text().splitlines()
        columns = header.split()
        for line in lines:
            cells = dict(zip(columns, line.split()))
            row = rows.setdefault(cells["kernel"],
                                  {"points": int(cells["points"])})
            for column, key in KERNEL_FIGURES.items():
                if column in cells:
                    row.setdefault(key, []).append(float(cells[column]))
    for row in rows.values():
        row["tables"] = len(row["median_s"])
        for key in KERNEL_FIGURES.values():
            if key in row:
                row[key] = statistics.median(row[key])
    return rows


_OUTCOME = re.compile(r"(\d+) (passed|failed|error|skipped|xfailed|xpassed)s?\b")
_WALL = re.compile(r" in ([0-9.]+)s\b")


def read_tier1(path: pathlib.Path) -> dict:
    """Test counts and wall time from the last pytest summary line, e.g.
    `289 passed, 1 xfailed, 5 warnings in 151.20s (0:02:31)`."""
    for line in reversed(path.read_text().splitlines()):
        wall = _WALL.search(line)
        counts = {kind: int(n) for n, kind in _OUTCOME.findall(line)}
        if wall and counts:
            return {"summary": line.strip(" ="), "wall_s": float(wall.group(1)),
                    "passed": 0, "failed": 0, **counts}
    raise SystemExit(f"{path}: no pytest summary line")


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def end_to_end(parent: list, change: list, declared: list) -> dict:
    out = {}
    workloads = sorted({r["context"]["workload"] for r in parent + change})
    for workload in workloads:
        runs = {side: {r["context"]["seed"]: r["result"] for r in rs
                       if r["context"]["workload"] == workload}
                for side, rs in (("parent", parent), ("change", change))}
        seeds = sorted(set(runs["parent"]) & set(runs["change"]))
        metrics = {}
        for m in declared:
            name, lower = m["name"], m["better"] == "lower"
            vals = {side: [r["metrics"][name]["value"] for r in rs.values()]
                    for side, rs in runs.items()}
            wins = sum((c < p) if lower else (c > p) for p, c in (
                (runs["parent"][s]["metrics"][name]["value"],
                 runs["change"][s]["metrics"][name]["value"]) for s in seeds))
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             "bound": m["bound"],
                             "parent": summary(vals["parent"]),
                             "change": summary(vals["change"]),
                             "pairs": len(seeds), "change_wins": wins}
        out[workload] = {
            "seeds": seeds,
            "correct": {side: all(r["correct"] for r in rs.values())
                        for side, rs in runs.items()},
            "metrics": metrics}
    return out


def per_layer(parent: list, change: list) -> dict:
    out = {}
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            ctx = r["context"]
            entry = out.setdefault(ctx["workload"], {"seed": ctx["seed"]})
            entry[side] = {name: m["value"]
                           for name, m in r["result"]["metrics"].items()}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--parent-runs", nargs="+", required=True,
                    type=pathlib.Path)
    ap.add_argument("--change-runs", nargs="+", required=True,
                    type=pathlib.Path)
    ap.add_argument("--parent-kernels", nargs="+", required=True,
                    type=pathlib.Path)
    ap.add_argument("--change-kernels", nargs="+", required=True,
                    type=pathlib.Path)
    ap.add_argument("--parent-tier1", type=pathlib.Path)
    ap.add_argument("--change-tier1", type=pathlib.Path)
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {side: [read_run(p) for p in paths] for side, paths in
            (("parent", args.parent_runs), ("change", args.change_runs))}
    host = {(r["context"]["nproc"], r["context"]["python"],
             r["context"]["numpy"]) for rs in runs.values() for r in rs}
    if len(host) != 1:
        raise SystemExit(f"runs come from different hosts: {sorted(host)}")
    (nproc, python, numpy), = host

    def split(traced: int) -> dict:
        return {side: [r for r in rs if r["context"]["trace"] == traced]
                for side, rs in runs.items()}

    untraced, traced = split(0), split(1)
    record = {
        "parent_commit": args.parent_commit,
        "change_commit": "the commit that adds this file",
        "host": {"nproc": nproc, "python": python, "numpy": numpy},
        "seconds": sorted({r["context"]["seconds"]
                           for rs in runs.values() for r in rs}),
        "end_to_end": end_to_end(untraced["parent"], untraced["change"],
                                 declared["end_to_end"]),
        "per_layer": per_layer(traced["parent"], traced["change"]),
        "kernel_rate": {"parent": read_kernels(args.parent_kernels),
                        "change": read_kernels(args.change_kernels)},
    }
    if args.parent_tier1 or args.change_tier1:
        record["tier1"] = {side: read_tier1(path) for side, path in
                           (("parent", args.parent_tier1),
                            ("change", args.change_tier1)) if path}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
