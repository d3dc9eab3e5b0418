"""The benchmark's tracer must find every name it patches and run.

bench/spans.py replaces `owner.__dict__[attr]` for each PATCHES entry; a
name removed from its module makes `bench/run.py --trace 1` fail with a
KeyError.  The smoke tests trace reduced study calls the way
bench/child.py does and check that layer_metrics reports every per-layer
metric BENCHMARK.json declares.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from spdelab import (RunConfig, SpectralField, run_convergence_study,
                     run_theorem15_study)

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
# every per-layer metric but trace.overhead_s, which bench/run.py computes
LAYER_KEYS = [entry["name"] for entry in
              json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
              if entry["name"] != "trace.overhead_s"]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    patches = load_spans().PATCHES
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in owner.__dict__]
    assert missing == []


def traced(spans, fn, *args):
    with spans.Tracer() as tracer:
        result = tracer.run_root(fn, *args)
    return result, spans.layer_metrics(tracer)


@pytest.mark.parametrize("study,run", [
    ("converge", run_convergence_study), ("theorem15", run_theorem15_study)])
def test_traced_reduced_study_reports_every_layer(study, run):
    spans = load_spans()
    cfg = RunConfig(study=study, eps_grid=(0.5, 0.25), replicas=2,
                    fixed_modes=8, dt=0.05, t_final=0.2, u0_modes=6,
                    workers=2)
    report, metrics = traced(spans, run, cfg)
    assert report.per_eps[0]["n_censored"] == 0
    assert [key for key in LAYER_KEYS if key not in metrics] == []
    if study == "converge":
        # only the initial field: the block core runs on plain arrays
        assert metrics["spectral.fields_created"] == 1
    else:
        assert metrics["integrate.run.calls"] == 2 * len(cfg.eps_grid)
        assert metrics["spectral.sobolev_norm.calls"] > 0
        # only the initial field: the limits record coefficient arrays
        assert metrics["spectral.fields_created"] == 1


def test_traced_to_grid_counts_its_points():
    # the work count reads the GridField that spectral.to_grid returns
    spans = load_spans()
    field = SpectralField(2, 4, np.ones((2, 5), dtype=np.complex128))
    grid, metrics = traced(spans, lambda: spans.spectral.to_grid(field, 2))
    assert metrics["spectral.to_grid.calls"] == 1
    assert metrics["spectral.to_grid.points"] == 2 * grid.grid_size == 40
