import dataclasses
import json
import re
import subprocess
import sys

import click
import jsonschema
import pytest

from peepgen import cli, pipeline, pruner, verifier
from peepgen.cli import EXIT_INTERNAL, summarize_reports
from peepgen.ir import PeepError
from peepgen.proposer import LLMBackend
from peepgen.verifier import ReplayMismatch

from conftest import DOCS, FIXTURES, REPO, SLT_ONE

BAD_RULE = """
rule "bad" {
  lhs fn(x: i8) -> i8 { %0 = xor i8 %x, 1; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = and i8 %x, 1; ret %0 }
}
"""


def run_cli(*args, cwd=REPO):
    return subprocess.run([sys.executable, "-m", "peepgen.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def _schema(name):
    return json.loads((DOCS / name).read_text())


def test_verify_verified_rule():
    proc = run_cli("verify", str(FIXTURES / "rules" / "cttz_general.peep"))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["kind"] == "verified"
    assert data["mode"] == "exhaustive"
    assert data["space"] == "64 constants x 256 inputs"
    jsonschema.validate(data, _schema("verdict.schema.json"))


def test_verify_refuted_rule(tmp_path):
    path = tmp_path / "bad.peep"
    path.write_text(BAD_RULE)
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["kind"] == "refuted"
    jsonschema.validate(data, _schema("verdict.schema.json"))


XOR_XOR_I16 = """
rule "xor_xor" {
  lhs fn(x: i16, y: i16) -> i16 {
    %0 = xor i16 %x, %y;
    %1 = xor i16 %0, %y;
    ret %1
  }
  rhs fn(x: i16, y: i16) -> i16 { ret %x }
}
"""


ADD_OR_I16 = """
rule "add_or" {
  lhs fn(x: i16, y: i16) -> i16 { %0 = add i16 %x, %y; ret %0 }
  rhs fn(x: i16, y: i16) -> i16 { %0 = or i16 %x, %y; ret %0 }
}
"""

ADD_OR_W = """
rule "add_or" {
  widthvar W;
  lhs fn(x: iW, y: iW) -> iW { %0 = add iW %x, %y; ret %0 }
  rhs fn(x: iW, y: iW) -> iW { %0 = or iW %x, %y; ret %0 }
}
"""


def test_verify_names_width_reduction(tmp_path):
    # 2^32 inputs exceed the exhaustive budget and sampling is off, so the
    # rule is checked at i8; the verdict says so
    path = tmp_path / "xor_xor.peep"
    path.write_text(XOR_XOR_I16)
    proc = run_cli("verify", str(path), "--budget-exhaustive", "65536",
                   "--budget-samples", "0")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data == {"kind": "verified", "mode": "exhaustive", "points": 65536,
                    "space": "1 constants x 65536 inputs", "seed": 0,
                    "reduced": "i16 to i8", "widths": {}}
    jsonschema.validate(data, _schema("verdict.schema.json"))
    # checked at its own width, a verdict names no reduction
    proc = run_cli("verify", str(path))
    data = json.loads(proc.stdout)
    assert (data["kind"], data["mode"]) == ("verified", "sampled")
    assert "reduced" not in data
    # a counterexample found after reduction is at the reduced type
    path.write_text(ADD_OR_I16)
    proc = run_cli("verify", str(path), "--budget-exhaustive", "65536",
                   "--budget-samples", "0")
    assert proc.returncode == 1, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["reduced"], data["counterexample"]["inputs"]) == (
        "i16 to i8", {"x": "0x1", "y": "0x1"})
    jsonschema.validate(data, _schema("verdict.schema.json"))
    # a reduced width variable is reported by the final `widths` alone
    path.write_text(ADD_OR_W)
    proc = run_cli("verify", str(path), "--width", "W=16",
                   "--budget-exhaustive", "65536", "--budget-samples", "0")
    assert proc.returncode == 1, proc.stderr
    data = json.loads(proc.stdout)
    assert data["widths"] == {"W": 8} and "reduced" not in data


def test_generalize_never_reduces_widths(tmp_path):
    # the same check as above: the pipeline's gate does not reduce, so it
    # cannot check the i16 rule and says so
    path = tmp_path / "xor_xor.peep"
    path.write_text(XOR_XOR_I16)
    proc = run_cli("generalize", str(path), "--budget-exhaustive", "70000",
                   "--budget-samples", "0")
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    assert report["final"] is None
    assert report["final_verdict"]["reason"] == "BudgetExceeded"


def test_verify_parse_error(tmp_path):
    path = tmp_path / "broken.peep"
    path.write_text("rule { nonsense")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 65


@pytest.mark.parametrize("pre, ty", [("LowBitsZero(%x, -1)", "i8"),
                                     ("KnownBits(%x, 0, 0)", "f32")])
def test_verify_rejects_invalid_bit_predicate(tmp_path, pre, ty):
    # a validation error with the parse/validation exit code, no traceback
    path = tmp_path / "bits.peep"
    path.write_text(f"""
rule "bits" {{
  pre: {pre};
  lhs fn(x: {ty}) -> {ty} {{ ret %x }}
  rhs fn(x: {ty}) -> {ty} {{ ret %x }}
}}
""")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 65
    assert proc.stderr.startswith("error: pre[0]: ")
    assert "Traceback" not in proc.stderr


def test_verify_bad_width_flag():
    proc = run_cli("verify", str(FIXTURES / "rules" / "cttz_general.peep"),
                   "--width", "W")
    assert proc.returncode == 64


def test_readme_names_every_option_of_every_command():
    # README's `## Command line` block has one line per command; it names
    # each option of the command, and no option the command lacks
    text = (REPO / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    documented = {}
    for line in block.strip().splitlines():
        _peepgen, command, rest = line.split(" ", 2)
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    actual = {name: {opt for param in command.params
                     if isinstance(param, click.Option) for opt in param.opts}
              for name, command in cli.cli.commands.items()}
    assert documented == actual


def test_unknown_command():
    assert run_cli("frobnicate").returncode == 64


def test_missing_file():
    assert run_cli("verify", "no_such_file.peep").returncode == 64


NEGATE = str(FIXTURES / "int" / "negate_lshr_or.peep")
XOR_SELF = str(FIXTURES / "int" / "xor_self.peep")


@pytest.mark.parametrize("code, args", [
    (64, ("verify", "{negate}", "--budget-samples", "-1")),
    (64, ("verify", "{negate}", "--seed", "-3")),
    (64, ("verify", "{negate}", "--budget-exhaustive", "-5")),
    (64, ("generalize", "{negate}", "--table", "no_such_dir/uops.cost")),
    (64, ("generalize", "{negate}", "--table", "{bad_table}")),
    (64, ("bench", "{fixtures}", "--table", "no_such_dir/uops.cost")),
    (64, ("generalize", "{negate}", "--backend", "replay:")),
    (64, ("cost", "{negate}", "--table", "{bad_table}")),
    # a width map from outside binds exactly the declared width variables,
    # each to a width of at most ir.MAX_INT_WIDTH
    (64, ("verify", "{add_or_w}")),
    (64, ("verify", "{add_or_w}", "--width", "V=8")),
    (64, ("verify", "{add_or_w}", "--width", "W=65")),
    (64, ("verify", "{add_or_w}", "--width", "W=8", "--width", "V=8")),
    (64, ("compare", "{add_or_w}", "{xor_self}")),
    (64, ("compare", "{add_or_w}", "{add_or_w}", "--width", "W=65")),
    (64, ("compare", "{xor_self}", "{negate}", "--width", "W=8")),
    # an instance is concrete
    (65, ("generalize", "{add_or_w}")),
    (65, ("prune", "{add_or_w}")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_bad_flag_or_config_value_is_a_usage_error(tmp_path, code, args):
    # exit 1 means refuted: a bad value must be reported before any
    # instance runs
    (tmp_path / "add_or_w.peep").write_text(ADD_OR_W)
    (tmp_path / "bad.cost").write_text("shl = ten\n")
    paths = {"add_or_w": tmp_path / "add_or_w.peep",
             "bad_table": tmp_path / "bad.cost", "fixtures": FIXTURES,
             "negate": NEGATE, "xor_self": XOR_SELF}
    proc = run_cli(*(arg.format(**paths) for arg in args))
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _main(monkeypatch, capsys, *args):
    """Run the console entry point in this process; returns (exit code,
    stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", ["peepgen", *args])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    out = capsys.readouterr()
    return exited.value.code, out.out, out.err


@pytest.mark.parametrize("env", [
    {},
    {"PEEPGEN_LLM_ENDPOINT": "http://localhost:9/v1",
     "PEEPGEN_LLM_TIMEOUT_S": "abc"},
    {"PEEPGEN_LLM_ENDPOINT": "http://localhost:9/v1",
     "PEEPGEN_LLM_RETRIES": "1.5"},
], ids=["no-endpoint", "bad-timeout", "bad-retries"])
@pytest.mark.parametrize("command, target", [("generalize", XOR_SELF),
                                             ("bench", str(FIXTURES))],
                         ids=["generalize", "bench"])
def test_llm_settings_are_checked_before_any_request(monkeypatch, capsys,
                                                      env, command, target):
    for var in ("ENDPOINT", "MODEL", "API_KEY", "TIMEOUT_S", "RETRIES"):
        monkeypatch.delenv(f"PEEPGEN_LLM_{var}", raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)

    def no_request(self, prompt):
        pytest.fail("a request was made")

    monkeypatch.setattr(LLMBackend, "_complete", no_request)
    code, out, err = _main(monkeypatch, capsys, command, target,
                           "--backend", "llm")
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and "PEEPGEN_LLM_" in err
    assert err.count("\n") == 1


def test_escaped_peep_error_is_an_internal_error(monkeypatch, capsys):
    # exit 1 means refuted, so a fault that escapes a command is not 1
    def fault(*args, **kwargs):
        raise PeepError("fault in the checker")

    monkeypatch.setattr(verifier, "check_refinement", fault)
    code, out, err = _main(monkeypatch, capsys, "verify", XOR_SELF)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "error: internal: PeepError: fault in the checker\n"


def test_generalize_heuristic_succeeds(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        proc = run_cli("generalize",
                       str(FIXTURES / "int" / "strength_reduce_mul8.peep"),
                       "--backend", "heuristic", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["final"] is not None
    jsonschema.validate(report, _schema("report.schema.json"))


def test_report_records_have_the_schema_properties_as_fields():
    # a report is `dataclasses.asdict` of its records: each record's fields
    # are the properties its schema object lists
    report = _schema("report.schema.json")["properties"]
    log = report["prune_log"]["properties"]
    stage = report["stages"]["items"]["properties"]
    for record, properties in (
            (pipeline.PipelineReport, report),
            (pruner.PruneLog, log),
            (pruner.PruneAttempt, log["attempts"]["items"]["properties"]),
            (pipeline.StageOutcome, stage),
            (pipeline.CandidateOutcome,
             stage["candidates"]["items"]["properties"])):
        fields = {f.name for f in dataclasses.fields(record)}
        assert fields == properties.keys(), record.__name__


def test_generalize_and_bench_survive_an_accepted_width_predicate(tmp_path):
    # slt_one holds at every width but 1; its width-predicate rule is
    # rechecked at W = 16, and neither command ends in a traceback
    ddir = tmp_path / "data" / "int"
    ddir.mkdir(parents=True)
    (ddir / "slt_one.peep").write_text(SLT_ONE)
    proc = run_cli("generalize", str(ddir / "slt_one.peep"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "pre: W >=u 2 && W <=u 16;" in report["final"]
    assert report["final_widths"] == {"W": 16}
    assert report["final_verdict"]["mode"] == "exhaustive"
    proc = run_cli("bench", str(tmp_path / "data"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total"] == {
        "instances": 1, "success": 1, "rejected": 0}


def test_bench_builds_one_backend(tmp_path, monkeypatch, capsys):
    ddir = tmp_path / "data" / "int"
    ddir.mkdir(parents=True)
    for name in ("a", "b"):
        (ddir / f"{name}.peep").write_text(
            (FIXTURES / "int" / "xor_self.peep").read_text())
    built = []
    backend = cli._backend

    def counted(spec, budget):
        built.append(spec)
        return backend(spec, budget)

    monkeypatch.setattr(cli, "_backend", counted)
    code, out, _err = _main(monkeypatch, capsys, "bench",
                            str(tmp_path / "data"))
    assert code == 0
    assert json.loads(out)["total"]["success"] == 2
    assert built == ["heuristic"]


def test_generalize_replay_backend():
    proc = run_cli("generalize",
                   str(FIXTURES / "int" / "strength_reduce_mul8.peep"),
                   "--backend", f"replay:{FIXTURES / 'replay'}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["final"] is not None


def test_generalize_unknown_backend():
    proc = run_cli("generalize",
                   str(FIXTURES / "int" / "strength_reduce_mul8.peep"),
                   "--backend", "psychic")
    assert proc.returncode == 64


SHL_TO_MUL = """
rule "shl_to_mul" {
  lhs fn(x: i8) -> i8 { %0 = shl i8 %x, 3; ret %0 }
  rhs fn(x: i8) -> i8 { %0 = mul i8 %x, 8; ret %0 }
}
"""


@pytest.mark.parametrize("text, reason", [(BAD_RULE, "refuted"),
                                          (SHL_TO_MUL, "unprofitable")],
                         ids=["refuted", "unprofitable"])
def test_generalize_rejects_instance_before_any_stage(tmp_path, monkeypatch,
                                                      capsys, text, reason):
    path = tmp_path / "instance.peep"
    path.write_text(text)

    def no_stage(*args):
        raise AssertionError("a stage ran on a rejected instance")

    for name in ("stage1_symbolic_constants", "stage2_structural",
                 "stage3_relax", "stage4_widths"):
        monkeypatch.setattr(pipeline, name, no_stage)
    monkeypatch.setattr(pruner, "prune", no_stage)
    code, out, err = _main(monkeypatch, capsys, "generalize", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: instance rejected: {reason}\n"
    proc = run_cli("generalize", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: instance rejected: {reason}\n"


def test_prune_prints_the_generalize_reports_pruning(tmp_path):
    instance = str(FIXTURES / "int" / "mod_div_zero.peep")
    pruned = run_cli("prune", instance, "--seed", "0")
    assert pruned.returncode == 0, pruned.stderr
    out = tmp_path / "report.json"
    run_cli("generalize", instance, "--seed", "0", "--out", str(out))
    report = json.loads(out.read_text())
    assert json.loads(pruned.stdout) == {"pruned": report["pruned"],
                                         "log": report["prune_log"]}


def test_prune_output():
    proc = run_cli("prune", str(FIXTURES / "int" / "mod_div_zero.peep"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert "trunc" not in data["pruned"]
    assert data["log"]["sweeps"] >= 1


def test_cost_output():
    proc = run_cli("cost", str(FIXTURES / "int" / "xor_and_distribute.peep"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lhs": "3", "rhs": "2",
                                       "profitable": True}


def test_compare_output():
    proc = run_cli("compare", str(FIXTURES / "rules" / "cttz_general.peep"),
                   str(FIXTURES / "rules" / "cttz_fixed_rhs.peep"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verdict"] == "AMoreGeneral"
    assert data["witness"]


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    procs = []
    for i in range(2):
        rdir = root / f"reports{i}"
        procs.append((run_cli("bench", str(FIXTURES), "--seed", "0",
                              "--report-dir", str(rdir)), rdir))
    return procs


def test_bench_is_byte_identical(bench_runs):
    (p1, _), (p2, _) = bench_runs
    assert p1.returncode == 0, p1.stderr
    assert p1.stdout == p2.stdout


def test_every_heuristic_proposal_parses(bench_runs):
    # every proposal of every stage on every fixture parsed and validated
    _, rdir = bench_runs[0]
    reports = sorted(rdir.glob("*.json"))
    assert len(reports) == 12
    for path in reports:
        for stage in json.loads(path.read_text())["stages"]:
            for c in stage["candidates"]:
                assert c["syntax_ok"], (path.name, c["text"], c["diagnostics"])


def test_bench_summary_shape(bench_runs):
    proc, _ = bench_runs[0]
    summary = json.loads(proc.stdout)
    jsonschema.validate(summary, _schema("bench.schema.json"))
    assert summary["total"]["instances"] == 12
    assert summary["total"]["success"] == 12
    assert summary["total"]["rejected"] == 0


def test_bench_reconciles_with_reports(bench_runs):
    proc, rdir = bench_runs[0]
    rows = []
    for path in rdir.glob("*.json"):
        domain, _, name = path.stem.partition("_")
        rows.append((name, domain, json.loads(path.read_text())))
    assert summarize_reports(rows) == json.loads(proc.stdout)


def test_bench_rejects_unsound_instance(tmp_path):
    ddir = tmp_path / "data" / "int"
    ddir.mkdir(parents=True)
    (ddir / "bad.peep").write_text(BAD_RULE)
    (ddir / "ok.peep").write_text(
        (FIXTURES / "int" / "xor_self.peep").read_text())
    proc = run_cli("bench", str(tmp_path / "data"))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["total"] == {"instances": 1, "success": 1, "rejected": 1}
    statuses = {i["name"]: i["status"] for i in summary["instances"]}
    assert statuses == {"bad": "rejected at ingestion", "ok": "success"}


def test_bench_ingestion_uses_the_configured_cost_table(tmp_path):
    # mul x, 8 => shl x, 3 saves two uOps by default; with shl at 10 it
    # costs more than it saves, so ingestion rejects it
    ddir = tmp_path / "data" / "int"
    ddir.mkdir(parents=True)
    (ddir / "mul8.peep").write_text(
        (FIXTURES / "int" / "strength_reduce_mul8.peep").read_text())
    table = tmp_path / "slow_shl.cost"
    table.write_text("shl = 10\n")
    for extra, status in (((), "success"),
                          (("--table", str(table)), "rejected at ingestion")):
        proc = run_cli("bench", str(tmp_path / "data"), *extra)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert [i["status"] for i in summary["instances"]] == [status]


def test_bench_reports_internal_alarm_as_error(tmp_path, monkeypatch, capsys):
    # an alarm raised mid-pipeline is peepgen's fault, not the instance's
    ddir = tmp_path / "data" / "int"
    ddir.mkdir(parents=True)
    (ddir / "ok.peep").write_text(
        (FIXTURES / "int" / "xor_self.peep").read_text())
    (ddir / "unparsable.peep").write_text('rule "unparsable" {')

    def alarm(*args, **kwargs):
        raise ReplayMismatch("counterexample does not replay")

    monkeypatch.setattr(pipeline, "run_pipeline", alarm)
    with pytest.raises(SystemExit) as exited:
        cli.cli.main(["bench", str(tmp_path / "data")], standalone_mode=False)
    assert exited.value.code == EXIT_INTERNAL != 0
    out = capsys.readouterr()
    summary = json.loads(out.out)
    jsonschema.validate(summary, _schema("bench.schema.json"))
    statuses = {i["name"]: i["status"] for i in summary["instances"]}
    assert statuses == {"ok": "error", "unparsable": "rejected at ingestion"}
    assert summary["total"] == {"instances": 0, "success": 0, "rejected": 1,
                                "errors": 1}
    assert ("error: int/ok: ReplayMismatch: counterexample does not replay"
            in out.err)


def test_bench_parallel_matches_serial(bench_runs):
    proc, _ = bench_runs[0]
    par = run_cli("bench", str(FIXTURES), "--seed", "0", "--jobs", "4")
    assert par.returncode == 0
    assert par.stdout == proc.stdout
