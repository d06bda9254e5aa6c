"""Self-test of the benchmark harness; takes about a minute.

    python3 perfbench/selftest.py

Checks that
- every metric name is well formed and BENCHMARK.json lists exactly the
  metrics run.py emits;
- two traced runs of one input, in separate processes, give identical
  per-layer counts and identical trace digests, and an untraced run with
  the speed probe interrupting it writes the same traces;
- the counting identities in spans.identity_errors hold;
- each workload also completes cleanly on a geometry it was not tuned on.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import sys

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
HELD_OUT_LAYOUT = 7


def fail(text: str):
    raise SystemExit(f"selftest failed: {text}")


def traced(doc: dict) -> dict:
    _, worker = run.measure(doc, 0, 1)
    problems = run.check(worker)
    metrics, more = run.per_layer(worker)
    if problems + more:
        fail(f"traced run: {problems + more}")
    return {"metrics": metrics, "sha": worker["missions"][0]["trace_sha256"]}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    if {w["name"] for w in spec["workloads"]} != set(workloads.WHY):
        fail("BENCHMARK.json workloads differ from workloads.WHY")

    doc = workloads.tiny(seed=11)
    first, second = traced(doc), traced(doc)
    emitted_layer = set(first["metrics"])
    if emitted_layer != declared_layer:
        fail(f"per-layer metrics differ from BENCHMARK.json: {sorted(emitted_layer ^ declared_layer)}")
    for name in sorted(emitted_layer | declared_e2e):
        if not NAME.fullmatch(name):
            fail(f"bad metric name {name!r}")
    for name, (value, unit) in first["metrics"].items():
        if unit == "count" and second["metrics"][name][0] != value:
            fail(f"{name} changed between traced runs: {value} vs {second['metrics'][name][0]}")
    if first["sha"] != second["sha"]:
        fail("trace digest changed between runs of one input")
    _, probed = run.measure(doc, 0, 0)
    if probed["missions"][0]["trace_sha256"] != first["sha"]:
        fail("the speed probe changed the mission's traces")
    counts = first["metrics"]
    for name in ("placement.accepted", "energy.battery_step.calls", "placement.shrink_and_realign.calls"):
        if counts[name][0] < 1:
            fail(f"the tiny mission no longer exercises {name}")
    print(f"traced runs agree: {len(emitted_layer)} per-layer metrics, digest {first['sha'][:12]}")

    for name in sorted(workloads.WHY):
        setup, worker = run.measure(workloads.build(name, seed=1, layout_seed=HELD_OUT_LAYOUT), 0, 0)
        problems = run.check(worker)
        emitted = set(run.end_to_end(setup, worker))
        if emitted != declared_e2e:
            fail(f"end-to-end metrics differ from BENCHMARK.json: {sorted(emitted ^ declared_e2e)}")
        failed = sum(m["failed"] for m in worker["missions"])
        if problems or failed:
            fail(f"{name} on held-out layout {HELD_OUT_LAYOUT}: failed={failed} {problems}")
        print(f"{name}: held-out layout {HELD_OUT_LAYOUT} completes cleanly")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
