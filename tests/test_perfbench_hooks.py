"""perfbench's span tracer finds peepgen's functions by name
(`perfbench/spans.py`): renaming a hooked function must fail here, not
leave the traced benchmark silently counting nothing."""
import importlib
import importlib.util
import types

from peepgen import verifier
from peepgen.pipeline import PipelineConfig, run_pipeline
from peepgen.verifier import Budget

from conftest import FIXTURES, REPO, parse


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves():
    spans = _spans()
    for layer in spans.LAYERS + spans.CALLERS:
        importlib.import_module(f"peepgen.{layer}")
    hooked = [f"{layer}.{name}" for layer, names in spans.SELF_HOOKS.items()
              for name in names]
    hooked += [f"pipeline.{stage}" for stage in spans.STAGES]
    hooked += list(spans.NOTES)
    for qualname in hooked:
        layer, name = qualname.split(".")
        module = importlib.import_module(f"peepgen.{layer}")
        assert isinstance(getattr(module, name, None), types.FunctionType), \
            qualname


def test_traced_run_counts_prune_checks():
    spans = _spans()
    instance = parse((FIXTURES / "int" / "mod_div_zero.peep").read_text())
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = run_pipeline(instance, PipelineConfig(Budget(rng_seed=0)))
    finally:
        tracer.restore()
    assert not hasattr(verifier.check_refinement, "__wrapped__")
    metrics = spans.layer_metrics(tracer.spans, 1.0, 1.0, 1, [])
    # every prune trial asks a question no earlier check of the run asked
    assert metrics["pruner.refine_calls"] == len(report.prune_log.attempts)
    assert len(report.prune_log.attempts) == 3
