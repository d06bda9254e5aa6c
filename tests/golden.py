"""Golden manifest: the traces and solver counts of every shipped run.

    python tests/golden.py           # re-run and compare with tests/golden.json
    python tests/golden.py --write   # regenerate tests/golden.json

The runs are the shipped scenarios (demos/scenarios/*.json) and each
benchmark workload (perfbench/workloads.py's build) at seeds 1-3, all in
process. Per run the manifest holds the sha256 of each of the five CSV
traces, the audit verdict (audit_run's violation strings, empty when
clean) and, per block, placement_evals, placement_pruned and
sca_iterations. tests/test_golden.py re-runs them and compares; a change
that moves a trace or a count regenerates the file and names every moved
entry. The comparison prints the moved entries and exits 1 if there are
any. Run it from the repository root with src/ importable (pytest's
pythonpath, or PYTHONPATH=src).
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import types
from pathlib import Path

from dronegrid import audit_run, emit_traces, load_scenario, run_simulation

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
WORKLOADS = ("flagship", "clustered", "dense_users")
SEEDS = (1, 2, 3)


def _workloads():
    """perfbench/workloads.py, executed from its source, so that nothing
    is imported from or written under perfbench/."""
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def runs():
    """(entry name, scenario source) of every run in the manifest."""
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.json")):
        yield path.name, path
    build = _workloads().build
    for workload in WORKLOADS:
        for seed in SEEDS:
            yield f"{workload}/seed{seed}", build(workload, seed)


def record(source, out_dir) -> dict:
    """One run's manifest entry; the traces are written under out_dir."""
    sc = load_scenario(source)
    results = run_simulation(sc)
    paths = emit_traces(results, out_dir)
    return {
        "csv_sha256": {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in sorted(paths)},
        "audit": audit_run(sc, results),
        "blocks": [
            {"placement_evals": r.placement_evals, "placement_pruned": r.placement_pruned,
             "sca_iterations": r.sca_iterations}
            for r in results[1:]
        ],
    }


def manifest(work_dir) -> dict:
    """Every run's entry, keyed by entry name; traces go under work_dir."""
    work_dir = Path(work_dir)
    return {name: record(source, work_dir / name.replace("/", "_"))
            for name, source in runs()}


def moved(expected: dict, got: dict) -> list:
    """Names of the entries that differ, are missing or are new."""
    return sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as work:
        got = manifest(work)
    if argv == ["--write"]:
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} entries to {MANIFEST}")
        return 0
    if argv:
        print(__doc__)
        return 2
    names = moved(json.loads(MANIFEST.read_text()), got)
    for name in names:
        print(f"moved: {name}")
    print(f"{len(got) - len(names)} of {len(got)} entries match")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
