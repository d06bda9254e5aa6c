"""The benchmark's span hooks name functions that exist, and a traced
mission meets the benchmark's counting identities.

perfbench/spans.py intercepts calls by replacing `module.attr` for each
entry of its HOOKS table. A refactor that renames or inlines a hooked
function would leave the traced benchmark without that span; the first
test fails instead. The traced benchmark also checks that every particle
score and every block makes one `solve_allocation` call and each of those
one `assign_binaries` call; a cache or a shortcut placed around a hooked
name would break that, and the second test fails instead. The last test
runs the benchmark's own worker once per workload, traced, so a removed
field or name that the worker reads fails here too. spans.py and run.py
are loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dronegrid

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SPANS = BENCH / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("perfbench_spans", SPANS)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _spans().HOOKS])
def test_hooked_name_is_a_callable(module, attr):
    mod = importlib.import_module(f"dronegrid.{module}")
    assert callable(getattr(mod, attr, None)), f"dronegrid.{module}.{attr}"


def test_traced_mission_meets_the_counting_identities():
    spans = _spans()
    sc = dronegrid.load_scenario(ROOT / "demos" / "scenarios" / "quick_look.json")
    tracer = spans.Tracer()
    with tracer.installed(dronegrid):
        results = dronegrid.run_simulation(sc)
    blocks = len(results) - 1
    m = spans.layer_metrics(tracer.spans, blocks)
    evals = sum(res.placement_evals for res in results[1:])
    assert spans.identity_errors(m, evals) == []
    assert m["placement.evaluate_particle.calls"][0] == evals >= blocks


@pytest.mark.parametrize("workload", ["flagship", "clustered", "dense_users"])
def test_benchmark_worker_runs_each_workload(workload, tmp_path, monkeypatch):
    # one traced pair of missions in the worker process, as the benchmark
    # runs it; run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(str(BENCH))
    run = _load("perfbench_run", BENCH / "run.py")
    _, worker = run.measure(run.workloads.build(workload, 1), 0, 1, spans=tmp_path / "spans.json")
    assert run.check(worker) == []
    assert run.per_layer(worker)[1] == []
    assert [m["failed"] for m in worker["missions"]] == [0, 0]
