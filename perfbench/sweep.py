"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 1] [--out FILE] [WORKLOAD ...]

Runs `run.py` once per workload and seed, one run at a time, for the
`run_seconds` in BENCHMARK.json. Prints, for every metric, the median and
the spread: the distance between the first and third quartile as a share
of the median. With --out the runs and the summary go to a JSON file
(perfbench/baseline.json is one). Exits non-zero if any run failed or
reported incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    record = {"workload": workload, "seed": seed, "exit": 0, "run_s": time.perf_counter() - t0}
    for line in lines[:-1]:  # env, raw timings, trace digest
        record.update(json.loads(line))
    record["result"] = json.loads(lines[-1])
    record["stderr"] = proc.stderr[-2000:]
    return record


def summarise(runs: list) -> dict:
    values = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = one_run(workload, seed, args.trace)
            runs.append(r)
            good = r["exit"] == 0 and r["result"]["correct"] and r["result"]["failed"] == 0
            ok &= good
            tail = f"{r['run_s']:.1f}s correct={r['result']['correct']}" if r["exit"] == 0 else r["stderr"]
            print(f"{workload} seed {seed}: {'ok' if good else 'FAILED'} {tail}", flush=True)
        summary = summarise([r for r in runs if r["exit"] == 0])
        for name, s in summary.items():
            bound = bounds.get(name)
            note = f" bound={bound}" if bound is not None else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:50s} median={s['median']:.6g} spread={spread}{note}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
