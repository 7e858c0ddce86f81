"""The names the benchmark binds in the package still resolve.

``perfbench/`` wraps functions by module and attribute name (the layers
of ``tracing.LAYERS`` and ``workloads.ReportCapture.ATTRS``) and reads
report fields by name.  Renaming or deleting one otherwise fails only a
traced benchmark run; these tests fail in seconds instead.  They import
the benchmark's modules and change none of its files.
"""

import importlib.util
import json
import operator
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in perfbench/

import tracing  # noqa: E402
import workloads  # noqa: E402

from sparsemix import evaluate  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
sys.dont_write_bytecode = _write_bytecode

# report fields read by workloads.digest, report_problem and fit_problem and by run.exact_metrics
REPORT_FIELDS = {
    "sparse": ("objective_trace", "cycles_run", "converged", "diagnostic", "reseed_events", "assignments",
               "params.weights", "params.variances", "params.betas"),
    "baseline": ("loglik_trace", "iterations", "converged", "diagnostic", "reseed_events", "assignments",
                 "params.weights", "params.variances", "params.means"),
}
# per-layer metrics that only the traced sweep or the traced/untraced pair produce
NOT_FROM_FITS = {"evaluate.pool_busy_frac", "evaluate.cell_overhead_ms", "cli.write_outputs_ms",
                 "trace.overhead_frac", "trace.wrapped_calls_per_fit"}


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_traced_bindings_resolve(layer):
    for owner, attr in tracing.LAYERS[layer]:
        value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(value), f"{layer}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def test_report_capture_bindings_resolve():
    for attr in workloads.ReportCapture.ATTRS:
        assert callable(getattr(evaluate, attr, None)), f"evaluate.{attr} is gone"


def test_traced_fits_give_every_field_and_metric():
    sc = workloads.scenario(2, 30, seed=1)
    with tracing.Tracer() as tracer, workloads.ReportCapture() as capture:
        fits = [workloads.fit_one(workloads.Item(sc, method, 0), 0, capture, workloads.HP)
                for method in workloads.METHODS]
    for fit in fits:
        assert fit.error is None and fit.report is not None
        for name in REPORT_FIELDS[fit.item.method]:
            operator.attrgetter(name)(fit.report)
        assert len(workloads.digest(fit)) == 64
    problems = []
    assert workloads.check_fits(fits, problems) == 0 and problems == []
    assert tracer.spans["sparse_em.run"].calls == 1 and tracer.spans["baseline.fit"].calls == 1
    metrics = {**bench_run.layer_metrics(tracer, fits), **bench_run.exact_metrics(fits, workloads.HP.max_cycles)}
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - NOT_FROM_FITS
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
