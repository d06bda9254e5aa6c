"""Mission benchmark for dronegrid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, with no install step. The workload's scenario document
is generated from the seed (see workloads.py) and handed to a worker
process with BLAS and OpenMP pinned to one thread. The worker repeats the
mission the CLI runs with `--audit --out` for S seconds (see mission.py).

Every run checks the outputs: the audit must be clean, every served
user's rate must clear the floor, and repeats of the mission must write
byte-identical traces and spend identical energy. With --trace 1 the
traced mission's counts must also satisfy the identities in spans.py.

setup_s, mission_s and mission_cpu_s are given in reference seconds: the
measured time times the core's speed relative to a reference speed, which
speed.py samples while the mission runs and right after each set-up. On a shared machine the raw times of
identical work drift too far to compare commits; the raw values are
printed too.

Output: an `env` line (machine, versions, thread settings and, with
--trace 1, where the last traced mission's spans were written), with
--trace 0 a `raw` line (median wall and CPU seconds as measured, and the
core's speed relative to the reference), a `trace_sha256` line, and last
a JSON object with `correct`, `attempted` (blocks), `failed` (blocks) and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from spans import identity_errors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # setup_s is the median of this many fresh processes
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child(args: list) -> dict:
    env = dict(os.environ, **THREADS)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "mission.py"), *args],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _same(values: list) -> bool:
    return all(v == values[0] for v in values)


def end_to_end(setup: list, worker: dict) -> dict:
    """End-to-end metrics of an untraced run from its set-up samples
    (dicts with setup_s and setup_speed) and the worker's report."""
    runs = worker["missions"]
    attempted = sum(m["blocks"] for m in runs)
    failed = sum(m["failed"] for m in runs)
    return {
        "setup_s": (statistics.median(m["setup_s"] * m["setup_speed"] for m in setup), "s"),
        "mission_s": (statistics.median(m["ref_wall_s"] for m in runs), "s"),
        "mission_cpu_s": (statistics.median(m["ref_cpu_s"] for m in runs), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "transmit_j": (runs[0]["transmit_j"], "J"),
        "motion_j": (runs[0]["motion_j"], "J"),
        "completed_share": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(worker: dict) -> tuple:
    """Per-layer metrics of the traced missions, and any count that did
    not repeat exactly between them."""
    traced = [m for m in worker["missions"] if m["traced"]]
    plain = [m for m in worker["missions"] if not m["traced"]]
    problems = []
    for m in traced:
        problems += identity_errors(m["layers"], m["placement_evals"])
    out = {}
    for name, (value, unit) in traced[0]["layers"].items():
        values = [m["layers"][name][0] for m in traced]
        if unit == "count":
            if not _same(values):
                problems.append(f"{name} differs between traced missions: {values}")
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    out["tracing.overhead_s"] = (
        statistics.median(m["wall_s"] for m in traced) - statistics.median(m["wall_s"] for m in plain),
        "s",
    )
    return out, problems


def check(worker: dict) -> list:
    """Output problems common to every run; empty means correct."""
    problems = []
    missions = worker["missions"]
    for m in missions:
        if m["violations"]:
            problems.append(f"audit: {m['violations']}")
        if m["low_rate_blocks"]:
            problems.append(f"rate below the floor in blocks {m['low_rate_blocks']}")
        if m["error"]:
            problems.append(f"run failed: {m['error']}")
    for key in ("trace_sha256", "transmit_j", "motion_j", "placement_evals"):
        if not _same([m[key] for m in missions]):
            problems.append(f"{key} differs between repeats of one input")
    return problems


def measure(doc: dict, seconds: float, trace: int, spans: Path | None = None) -> tuple:
    """Set-up samples (none when tracing; the worker's own is the last) and
    the worker's report for one scenario document. A traced run leaves its
    spans in `spans`."""
    work = HERE / ".work" / str(os.getpid())
    spans = spans or work / "spans.json"
    try:
        work.mkdir(parents=True, exist_ok=True)
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(doc))
        setup = []
        if not trace:
            setup = [_child(["setup", str(SRC), str(scenario)])
                     for _ in range(SETUP_SAMPLES - 1)]
        worker = _child(["run", str(SRC), str(scenario), str(seconds), str(trace),
                         str(work / "out"), str(spans)])
        if not trace:
            setup.append(worker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setup, worker


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dronegrid mission benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "dronegrid" / "__init__.py").is_file():
        print(f"no dronegrid sources under {SRC}", file=sys.stderr)
        return 2
    spans = HERE / ".work" / f"spans-{args.workload}-{args.seed}.json"
    try:
        setup, worker = measure(workloads.build(args.workload, args.seed), args.seconds, args.trace,
                                spans)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    problems = check(worker)
    if args.trace:
        metrics, more = per_layer(worker)
        problems += more
    else:
        metrics = end_to_end(setup, worker)
    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)

    missions = worker["missions"]
    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **worker["versions"],
        "threads": THREADS,
        "missions": len(missions),
        **({"spans": str(spans.relative_to(ROOT))} if args.trace else {}),
    }}))
    if not args.trace:
        print(json.dumps({"raw": {
            "setup_s": statistics.median(m["setup_s"] for m in setup),
            "mission_wall_s": statistics.median(m["wall_s"] for m in missions),
            "mission_cpu_s": statistics.median(m["cpu_s"] for m in missions),
            "speed": statistics.median(m["speed"] for m in missions),
        }}))
    print(json.dumps({"trace_sha256": missions[0]["trace_sha256"]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(m["blocks"] for m in missions),
        "failed": sum(m["failed"] for m in missions),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
