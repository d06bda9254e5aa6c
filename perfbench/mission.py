"""The benchmark's worker: times missions of one scenario in one process.

    python3 perfbench/mission.py setup SRC SCENARIO
    python3 perfbench/mission.py run SRC SCENARIO SECONDS TRACE OUT_DIR SPANS

Both modes first time `import dronegrid` plus `load_scenario(SCENARIO)`,
importing nothing else the package would import, so the figure is the
set-up a fresh `dronegrid` process pays, and then measure the core's
speed for SETUP_SPEED_S seconds (speed.py). `setup` stops there. `run`
then repeats the mission the CLI performs with `--audit --out`
(run_simulation, emit_traces, audit_run) while the next repeat still
fits in SECONDS; at least one repeat always runs. With TRACE 0 the core's
speed is sampled during each mission. With TRACE 1 every repeat is a
pair, one mission untraced and one traced, both without the speed probe,
so the tracing overhead is measured on the same process; the last traced
mission's spans are written to the file SPANS when the run ends. Prints
one JSON object.
"""

import contextlib
import sys
import time

SETUP_SPEED_S = 0.3


def _setup(src, scenario):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dronegrid

    sc = dronegrid.load_scenario(scenario)
    setup_s = time.perf_counter() - t0
    from pathlib import Path

    where = Path(dronegrid.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"imported dronegrid from {where}, not from {src}")
    return dronegrid, sc, setup_s


def _cpu_s():
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(paths):
    import hashlib

    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode() + b"\0")
        h.update(paths[name].read_bytes())
    return h.hexdigest()


def _failed_blocks(error, violations, blocks):
    """Blocks lost to a SimulationError at or before them, or named by an
    audit violation; a violation naming no block fails every block."""
    import re

    failed = set()
    if error is not None:
        first = getattr(error, "block", len(error.results))
        failed.update(range(max(first, 1), blocks + 1))
    for v in violations:
        hit = re.match(r"block (\d+):", v)
        if hit:
            failed.add(int(hit.group(1)))
        else:
            failed.update(range(1, blocks + 1))
    return len(failed)


def mission(dg, sc, scenario, out_dir, tracer=None, probe=None):
    """One CLI-equivalent mission; returns its timings and quality record.
    A SpeedProbe, when given, samples the core's speed during the mission."""
    from spans import layer_metrics

    if tracer is None:
        def call(_name, fn, *args):
            return fn(*args)
    else:
        call = tracer.call
        call("scenario_io.load_scenario", dg.load_scenario, scenario)

    error = None
    with probe or contextlib.nullcontext():
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            results = call("orchestrator.run_simulation", dg.run_simulation, sc)
        except dg.SimulationError as err:
            results, error = err.results, err
        paths = call("scenario_io.emit_traces", dg.emit_traces, results, out_dir) if results else {}
        violations = call("orchestrator.audit_run", dg.audit_run, sc, results) if results else []
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0

    floor = sc.rates.rate_floor - 1e-9
    low_rates = [
        res.block for res in results[1:]
        if res.active_drones.any() and res.user_rate_values.size
        and float(res.user_rate_values.min()) < floor
    ]
    blocks = sc.time.blocks
    record = {
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "blocks": blocks,
        "failed": _failed_blocks(error, violations, blocks),
        "error": None if error is None else str(error),
        "violations": violations[:5],
        "low_rate_blocks": low_rates,
        "transmit_j": sum(float(res.transmit_j.sum()) for res in results[1:]),
        "motion_j": sum(float(res.hardware_j.sum()) for res in results[1:]),
        "placement_evals": sum(res.placement_evals for res in results[1:]),
        "trace_sha256": _digest(paths),
    }
    if probe is not None:
        record["ref_wall_s"], record["ref_cpu_s"] = probe.rescale(wall, cpu)
        record["speed"] = probe.speed()
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, len(results) - 1)
    return record


def main(argv):
    mode, src, scenario = argv[:3]
    dg, sc, setup_s = _setup(src, scenario)
    import json
    import resource

    import numpy
    import scipy

    from spans import Tracer
    from speed import SpeedProbe

    probe = SpeedProbe()
    setup = {"setup_s": setup_s, "setup_speed": probe.calibrate(SETUP_SPEED_S)}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    seconds, trace, out_dir, spans_file = float(argv[3]), argv[4] == "1", argv[5], argv[6]
    # traced runs report raw span times, so they leave the probe out
    probe = None if trace else probe
    missions = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        missions.append(mission(dg, sc, scenario, out_dir, probe=probe))
        if trace:
            tracer = Tracer()
            with tracer.installed(dg):
                missions.append(mission(dg, sc, scenario, out_dir, tracer))
        repeat_s = time.perf_counter() - t0
        if time.perf_counter() - start + repeat_s > seconds:
            break
    if trace:
        with open(spans_file, "w") as fh:
            json.dump(tracer.records(), fh)
    print(json.dumps({
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "missions": missions,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
