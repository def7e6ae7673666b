"""Command-line interface.

Exit codes: 0 verified/success, 1 refuted (or generalize produced no
strictly-more-general rule, or generalize or prune rejected its instance
as refuted or unprofitable), 2 inconclusive, 64 usage error, 65 parse or
validation error, 70 internal error (a bench instance raised an internal
alarm, or a PeepError escaped a command).
"""
from __future__ import annotations

import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import click

from . import cost as costmod
from . import pipeline as pipemod
from . import generality, pruner, textfmt, verifier
from .ir import MAX_INT_WIDTH, PeepError, rule_types, validate
from .proposer import (HeuristicBackend, LLMBackend, ProposerError,
                       ReplayBackend)
from .semantics import EvalError

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70

_VERDICT_EXIT = {"verified": EXIT_VERIFIED, "refuted": EXIT_REFUTED,
                 "inconclusive": EXIT_INCONCLUSIVE}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_widths(pairs: tuple, *rules) -> dict:
    """The --width map: a width for each width variable `rules` declare,
    and for no other name."""
    widths = {}
    for item in pairs:
        var, eq, num = item.partition("=")
        if not (eq and num.isdigit() and 0 < int(num) <= MAX_INT_WIDTH):
            raise CliError(f"bad --width value {item!r} (expected VAR=N, "
                           f"N in 1..{MAX_INT_WIDTH})", EXIT_USAGE)
        widths[var] = int(num)
    declared = {v for rule in rules for v in rule.width_vars}
    if widths.keys() != declared:
        raise CliError(f"--width binds {', '.join(sorted(widths)) or 'none'}"
                       " but the width variables declared are "
                       f"{', '.join(sorted(declared)) or 'none'}", EXIT_USAGE)
    return widths


def _load_rule(path, instance: bool = False):
    """The validated rule of file `path`; an instance has concrete widths."""
    try:
        rule = textfmt.parse_rule(Path(path).read_text())
    except (OSError, PeepError) as e:
        raise CliError(str(e), EXIT_PARSE)
    diags = [str(d) for d in validate(rule)]
    if instance and rule.width_vars:
        diags.append(f"an instance declares no width variable (found "
                     f"{', '.join(rule.width_vars)})")
    if diags:
        raise CliError("; ".join(diags), EXIT_PARSE)
    return rule


def _budget(exhaustive, samples, seed) -> verifier.Budget:
    """The default budget with the values of the flags that were given."""
    values = {}
    for key, flag, value in (
            ("exhaustive_limit", "--budget-exhaustive", exhaustive),
            ("sample_count", "--budget-samples", samples),
            ("rng_seed", "--seed", seed)):
        if value is None:
            continue
        if value < 0:
            raise CliError(f"{flag} must not be negative (got {value})",
                           EXIT_USAGE)
        values[key] = value
    return verifier.Budget(**values)


def _budget_options(command):
    """Declares --budget-exhaustive, --budget-samples and --seed, and calls
    `command` with the budget they make (`_budget`) as `budget`."""
    @functools.wraps(command)
    def run(budget_exhaustive, budget_samples, seed, **kwargs):
        return command(budget=_budget(budget_exhaustive, budget_samples, seed),
                       **kwargs)
    for flag in ("--seed", "--budget-samples", "--budget-exhaustive"):
        run = click.option(flag, type=int, default=None)(run)
    return run


def _cost_table(path) -> costmod.CostTable:
    """The default cost table with the overrides of file `path`, if any."""
    if path is None:
        return costmod.default_table()
    try:
        return costmod.CostTable.parse(Path(path).read_text(),
                                       costmod.default_table())
    except (OSError, costmod.CostTableError) as e:
        raise CliError(f"cost table {path}: {e}", EXIT_USAGE)


def _backend(spec: str, budget: verifier.Budget):
    if spec == "heuristic":
        return HeuristicBackend(budget)
    if spec == "llm":
        try:
            return LLMBackend()
        except ProposerError as e:
            raise CliError(str(e), EXIT_USAGE)
    if spec.startswith("replay:"):
        directory = spec.split(":", 1)[1]
        # Path("") is the working directory: an empty name names none
        if not directory or not Path(directory).is_dir():
            raise CliError(f"replay directory {directory!r} not found",
                           EXIT_USAGE)
        return ReplayBackend(directory)
    raise CliError(f"unknown backend {spec!r} "
                   "(expected llm, heuristic, or replay:<dir>)", EXIT_USAGE)


def _emit(data: dict, out=None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    click.echo(text)


@click.group()
def cli():
    """Verification-gated generalization of peephole rewrite rules."""


@cli.command("verify")
@click.argument("rule_file", type=click.Path(exists=True))
@click.option("--width", "widths", multiple=True, metavar="VAR=N")
@_budget_options
def cmd_verify(rule_file, widths, budget):
    """Check LHS-to-RHS refinement of a rule file."""
    rule = _load_rule(rule_file)
    verdict, final, used = verifier.verify_with_reduction(
        rule, _parse_widths(widths, rule), budget)
    data = verifier.verdict_to_json(verdict)
    # a check made after width reduction names the types it was made at
    reduced = ", ".join(dict.fromkeys(
        f"{a} to {b}" for a, b in zip(rule_types(rule), rule_types(final))
        if a != b))
    if reduced:
        data["reduced"] = reduced
    data["widths"] = dict(used)
    _emit(data)
    sys.exit(_VERDICT_EXIT[verdict.kind])


@cli.command("generalize")
@click.argument("instance_file", type=click.Path(exists=True))
@click.option("--backend", "backend_spec", default="heuristic",
              metavar="{llm|heuristic|replay:<dir>}")
@click.option("--table", "table_file", type=click.Path())
@click.option("--out", type=click.Path())
@_budget_options
def cmd_generalize(instance_file, backend_spec, table_file, out, budget):
    """Run the full generalization pipeline on a concrete instance.

    Exits 0 only when the final rule is strictly more general than the
    input instance."""
    instance = _load_rule(instance_file, instance=True)
    cfg = pipemod.PipelineConfig(budget, _cost_table(table_file),
                                 _backend(backend_spec, budget))
    report = pipemod.run_pipeline(instance, cfg)
    _emit(asdict(report), out)
    if report.final is None:
        sys.exit(EXIT_INCONCLUSIVE)
    final = textfmt.parse_rule(report.final)
    sys.exit(EXIT_VERIFIED if generality.generalizes(final, instance, budget)
             else EXIT_REFUTED)


@cli.command("prune")
@click.argument("instance_file", type=click.Path(exists=True))
@_budget_options
def cmd_prune(instance_file, budget):
    """Strip data flow irrelevant to the rewrite."""
    instance = _load_rule(instance_file, instance=True)
    cfg, verdicts = pipemod.PipelineConfig(budget), {}
    pipemod.ingest(instance, cfg, verdicts)
    pruned, log = pruner.prune(instance, cfg, verdicts)
    _emit({"pruned": textfmt.print_rule(pruned), "log": asdict(log)})
    sys.exit(EXIT_VERIFIED)


@cli.command("cost")
@click.argument("rule_file", type=click.Path(exists=True))
@click.option("--table", "table_file", type=click.Path())
def cmd_cost(rule_file, table_file):
    """Report uOps costs and profitability for a rule file."""
    rule = _load_rule(rule_file)
    table = _cost_table(table_file)
    _emit({"lhs": str(costmod.cost(rule.lhs, table)),
           "rhs": str(costmod.cost(rule.rhs, table)),
           "profitable": costmod.check_profitable(rule, table)})
    sys.exit(EXIT_VERIFIED)


@cli.command("compare")
@click.argument("rule_a", type=click.Path(exists=True))
@click.argument("rule_b", type=click.Path(exists=True))
@click.option("--width", "widths", multiple=True, metavar="VAR=N")
@_budget_options
def cmd_compare(rule_a, rule_b, widths, budget):
    """Compare the applicability domains of two rules."""
    a = _load_rule(rule_a)
    b = _load_rule(rule_b)
    result = generality.compare_generality(a, b, _parse_widths(widths, a, b),
                                           budget)
    _emit(asdict(result))
    sys.exit(EXIT_INCONCLUSIVE if result.verdict == "Inconclusive"
             else EXIT_VERIFIED)


# ---------------------------------------------------------------------------
# Bench harness

_STAGES = ("symbolic_constants", "structural", "relax", "widths")


def summarize_reports(rows: list) -> dict:
    """Aggregate (name, domain, report-or-None[, alarm]) rows into a
    BenchSummary.

    A row with an alarm message is an instance that raised an internal
    alarm (`ReplayMismatch`, `EvalError`): status "error", counted under
    "errors", a key present only when some instance has one.  Otherwise a
    None report marks an instance rejected at ingestion (it failed parsing,
    validation, refinement or profitability before any stage ran);
    rejected and errored instances are excluded from success denominators.
    """
    domains: dict = {}
    strategies = {s: {"effective": 0, "affected": 0} for s in _STAGES}
    instances = []
    for name, domain, report, *alarm in sorted(rows, key=lambda r: (r[1], r[0])):
        d = domains.setdefault(domain, {"instances": 0, "success": 0,
                                        "rejected": 0})
        if alarm and alarm[0] is not None:
            d["errors"] = d.get("errors", 0) + 1
            instances.append({"name": name, "domain": domain,
                              "status": "error", "error": alarm[0]})
            continue
        if report is None:
            d["rejected"] += 1
            instances.append({"name": name, "domain": domain,
                              "status": "rejected at ingestion"})
            continue
        d["instances"] += 1
        success = report["final"] is not None
        if success:
            d["success"] += 1
        for stage in report["stages"]:
            sid = stage["stage"]
            if sid not in strategies or stage["accepted"] is None:
                continue
            strategies[sid]["effective"] += 1
            strategies[sid]["affected"] += sum(
                v for v in stage["counts"].values()
                if isinstance(v, int))
        instances.append({"name": name, "domain": domain,
                          "status": "success" if success else "failed"})
    total = {key: sum(d[key] for d in domains.values())
             for key in ("instances", "success", "rejected")}
    errors = sum(d.get("errors", 0) for d in domains.values())
    if errors:
        total["errors"] = errors
    return {
        "schema": "peepgen-bench-1",
        "domains": domains,
        "strategies": strategies,
        "instances": instances,
        "total": total,
    }


def _bench_table(summary: dict) -> str:
    lines = [f"{'domain':8s} {'instances':>9s} {'success':>7s} {'rejected':>8s}"]
    for domain in sorted(summary["domains"]):
        d = summary["domains"][domain]
        lines.append(f"{domain:8s} {d['instances']:9d} {d['success']:7d} "
                     f"{d['rejected']:8d}")
    t = summary["total"]
    lines.append(f"{'total':8s} {t['instances']:9d} {t['success']:7d} "
                 f"{t['rejected']:8d}")
    lines.append("")
    lines.append(f"{'strategy':20s} {'effective':>9s} {'affected':>8s}")
    for stage in _STAGES:
        s = summary["strategies"][stage]
        lines.append(f"{stage:20s} {s['effective']:9d} {s['affected']:8d}")
    for row in summary["instances"]:
        if row["status"] == "error":
            lines.append(f"error: {row['domain']}/{row['name']}: {row['error']}")
    return "\n".join(lines)


def _bench_one(path: Path, domain: str, table: costmod.CostTable, backend,
               budget: verifier.Budget, report_dir):
    """(name, domain, report or None, internal alarm message or None)."""
    name = path.stem
    try:
        instance = textfmt.parse_rule(path.read_text())
        cfg = pipemod.PipelineConfig(budget, table, backend)
        # an invalid, refuted or unprofitable instance raises a PeepError
        report = asdict(pipemod.run_pipeline(instance, cfg))
    except (verifier.ReplayMismatch, EvalError) as e:
        # an internal alarm is a fault of peepgen, not of the instance
        return name, domain, None, f"{type(e).__name__}: {e}"
    except PeepError:
        return name, domain, None, None
    if report_dir:
        out = Path(report_dir) / f"{domain}_{name}.json"
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return name, domain, report, None


@cli.command("bench")
@click.argument("dataset_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--backend", "backend_spec", default="heuristic",
              metavar="{llm|heuristic|replay:<dir>}")
@click.option("--table", "table_file", type=click.Path())
@click.option("--out", type=click.Path())
@click.option("--report-dir", type=click.Path(file_okay=False))
@click.option("--jobs", type=int, default=1)
@click.option("--seed", type=int, default=None)
def cmd_bench(dataset_dir, backend_spec, table_file, out, report_dir, jobs,
              seed):
    """Run the pipeline over a dataset directory (int/ and float/ domains)."""
    if jobs <= 0:
        raise CliError("--jobs must be positive", EXIT_USAGE)
    budget = _budget(None, None, seed)
    table = _cost_table(table_file)
    # one backend for every instance: a bad spec or LLM setting fails fast
    backend = _backend(backend_spec, budget)
    if report_dir:
        Path(report_dir).mkdir(parents=True, exist_ok=True)
    tasks = []
    for domain in ("int", "float"):
        ddir = Path(dataset_dir) / domain
        if not ddir.is_dir():
            continue
        for path in sorted(ddir.glob("*.peep")):
            tasks.append((path, domain))
    if jobs == 1:
        rows = [_bench_one(p, d, table, backend, budget, report_dir)
                for p, d in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(
                lambda t: _bench_one(t[0], t[1], table, backend, budget,
                                     report_dir), tasks))
    summary = summarize_reports(rows)
    _emit(summary, out)
    click.echo(_bench_table(summary), err=True)
    sys.exit(EXIT_INTERNAL if "errors" in summary["total"] else EXIT_VERIFIED)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except (CliError, pipemod.InstanceRejected) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(e.code if isinstance(e, CliError) else EXIT_REFUTED)
    except PeepError as e:
        # exit 1 means refuted, so a fault that escapes a command is not 1
        click.echo(f"error: internal: {type(e).__name__}: {e}", err=True)
        sys.exit(EXIT_INTERNAL)
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
