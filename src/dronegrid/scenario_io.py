"""Scenario files, CSV traces and the command-line entry point.

Scenario files are JSON documents whose sections mirror the parameter
dataclasses one to one. Every key is optional (missing keys take the
defaults), unknown keys are rejected by name, and all failures are
collected into one error instead of stopping at the first. Battery values
in files are kilojoules, geometry meters, times seconds, powers watts;
internally everything runs in SI base units.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .assign_power import RateConstraintParams
from .channel import ChannelParams, UserEquipment
from .energy import BatteryParams, EnergyParams, TimeGrid
from .orchestrator import Scenario, SimulationError, audit_run, run_simulation
from .placement import AreaBounds, SearchConfig

KJ = 1e3


class ScenarioError(Exception):
    """Invalid scenario document; .errors lists every failure found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario: " + "; ".join(self.errors))


def _schema(cls, suffix: str = "", scale: float = 1.0) -> dict:
    """{file key: (field, scale)} for every field of a parameter dataclass;
    a file key is the field name plus suffix."""
    return {f.name + suffix: (f.name, scale) for f in dataclasses.fields(cls)}


# section name -> (Scenario attribute, dataclass, {file key: (field,
# scale)}); battery values are given in kilojoules under keys ending in _kj
_SECTIONS = {
    "area": ("bounds", AreaBounds, _schema(AreaBounds)),
    "channel": ("channel", ChannelParams, _schema(ChannelParams)),
    "energy": ("energy", EnergyParams, _schema(EnergyParams)),
    "pd_energy": ("pd_energy", EnergyParams, _schema(EnergyParams)),
    "battery": ("battery", BatteryParams, _schema(BatteryParams, "_kj", KJ)),
    "time": ("time", TimeGrid, _schema(TimeGrid)),
    "rates": ("rates", RateConstraintParams, _schema(RateConstraintParams)),
    "search": ("search", SearchConfig, _schema(SearchConfig)),
}

_TOP_KEYS = {"seed", "drones", "pd_pool", "users", "time_total_s"} | set(_SECTIONS)


def draw_users(count: int, bounds: AreaBounds, seed: int) -> list:
    """Scatter `count` users uniformly over the area, deterministically in
    the scenario seed (a stream separate from the simulation's own)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    lo = [bounds.x_min, bounds.y_min]
    hi = [bounds.x_max, bounds.y_max]
    pts = rng.uniform(lo, hi, size=(count, 2))
    return [UserEquipment(i, float(x), float(y)) for i, (x, y) in enumerate(pts)]


def _coerce(name: str, kind: str, raw, scale: float, errors: list):
    """Returns (ok, value); when not ok, appends an error that calls the
    value name. kind is the field's annotation as written ("int" or
    "float"), which the parameter modules keep as a string (postponed
    annotations). A float must be finite once scaled: JSON's NaN and
    Infinity would slip past every range check, since NaN compares false."""
    if kind == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            errors.append(f"{name} must be an integer, got {raw!r}")
            return False, None
        return True, raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        errors.append(f"{name} must be a number, got {raw!r}")
        return False, None
    try:
        val = float(raw) * scale
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        errors.append(f"{name} must be a finite number, got {raw!r}")
        return False, None
    return True, val


def _read_document(source) -> dict:
    """None -> {}, dict -> copy, str -> inline JSON or a path to a file."""
    if source is None:
        return {}
    if isinstance(source, dict):
        return dict(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        raw = text
    else:
        path = Path(text)
        if not path.exists():
            raise ScenarioError([f"scenario file not found: {path}"])
        raw = path.read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ScenarioError([f"not valid JSON: {err}"]) from err
    if not isinstance(doc, dict):
        raise ScenarioError(["scenario document must be a JSON object"])
    return doc


def load_scenario(source=None) -> Scenario:
    """Build a Scenario from a JSON document.

    source: None for pure defaults, a dict, a JSON string, or a path to a
    JSON file. Raises ScenarioError listing every unknown key, type error
    and inconsistency found.
    """
    doc = _read_document(source)
    errors = [f"unknown key '{k}'" for k in doc if k not in _TOP_KEYS]

    parts = {}
    for section, (attr, cls, mapping) in _SECTIONS.items():
        if section not in doc:
            continue
        sub = doc[section]
        if not isinstance(sub, dict):
            errors.append(f"section '{section}' must be an object")
            sub = {}
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in sub.items():
            if key not in mapping:
                errors.append(f"unknown key '{key}' in section '{section}'")
                continue
            field, scale = mapping[key]
            ok, val = _coerce(f"{section}.{key}", kinds[field], raw, scale, errors)
            if ok:
                kwargs[field] = val
        try:
            parts[attr] = cls(**kwargs)
        except (ValueError, TypeError) as err:
            errors.append(f"section '{section}': {err}")
    # whatever the document leaves out keeps Scenario's defaults
    sc = Scenario(**parts)

    seed = doc.get("seed", sc.seed)
    drones = doc.get("drones", sc.drones)
    pd_pool = doc.get("pd_pool", sc.pd_pool)
    for name, val, want in (("seed", seed, int), ("drones", drones, int), ("pd_pool", pd_pool, int)):
        if isinstance(val, bool) or not isinstance(val, want):
            errors.append(f"{name} must be an integer, got {val!r}")

    users_doc = doc.get("users", 12)
    users = []
    if isinstance(users_doc, bool):
        errors.append(f"users must be a count or a list, got {users_doc!r}")
    elif isinstance(users_doc, int):
        if users_doc < 0:
            errors.append("users count cannot be negative")
        elif isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0:
            # a bad seed draws nobody; the checks below name it
            users = draw_users(users_doc, sc.bounds, seed)
    elif isinstance(users_doc, list):
        for i, entry in enumerate(users_doc):
            if isinstance(entry, (list, tuple)) and len(entry) == 2:
                entry = {"x": entry[0], "y": entry[1]}
            elif not isinstance(entry, dict):
                errors.append(f"users[{i}] must be [x, y] or an object with x and y")
                continue
            extra = set(entry) - {"uid", "x", "y"}
            if extra:
                errors.append(f"users[{i}]: unknown key(s) {sorted(extra)}")
                continue
            if not {"x", "y"} <= set(entry):
                errors.append(f"users[{i}] needs 'x' and 'y'")
                continue
            vals = {}
            for key, kind in (("uid", "int"), ("x", "float"), ("y", "float")):
                if key in entry:
                    ok, val = _coerce(f"users[{i}].{key}", kind, entry[key], 1.0, errors)
                    if ok:
                        vals[key] = val
            if len(vals) == len(entry):  # every key passed its check
                users.append(UserEquipment(vals.get("uid", i), vals["x"], vals["y"]))
    else:
        errors.append(f"users must be a count or a list, got {users_doc!r}")

    if "time_total_s" in doc:
        ok, total = _coerce("time_total_s", "float", doc["time_total_s"], 1.0, errors)
        tg = sc.time
        if ok and abs(total - tg.total_s) > 1e-9 * max(1.0, tg.total_s):
            errors.append(
                f"time_total_s={doc['time_total_s']} inconsistent with blocks*block_s="
                f"{tg.total_s} ({tg.blocks} blocks x {tg.block_s} s)"
            )

    if errors:
        raise ScenarioError(errors)

    sc = dataclasses.replace(sc, users=users, drones=drones, pd_pool=pd_pool, seed=seed)
    structural = sc.validate()
    if structural:
        raise ScenarioError(structural)
    return sc


def serialize_scenario(sc: Scenario) -> dict:
    """Scenario -> plain JSON-ready dict; load_scenario(result) round-trips."""
    out = {
        "seed": sc.seed,
        "drones": sc.drones,
        "pd_pool": sc.pd_pool,
        "users": [{"uid": ue.uid, "x": ue.x, "y": ue.y} for ue in sc.users],
        "time_total_s": sc.time.total_s,
    }
    for section, (attr, _, mapping) in _SECTIONS.items():
        obj = getattr(sc, attr)
        sec = {}
        for key, (field, scale) in mapping.items():
            val = getattr(obj, field)
            if isinstance(val, int):
                sec[key] = val
            else:
                sec[key] = float(val) / scale
        out[section] = sec
    return out


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def emit_traces(results: list, out_dir) -> dict:
    """Write the five run traces under out_dir; returns {name: Path}.

    cdbs_battery and pd_battery include the block-0 initial state; rates,
    energy breakdown and events start at block 1. Batteries are reported
    in kilojoules.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    def write(name, header, rows):
        path = out_dir / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        paths[name] = path
        return path

    write(
        "cdbs_battery.csv",
        ["block", "drone", "battery_kj"],
        [
            [res.block, d, _fmt(res.batteries[d] / KJ)]
            for res in results
            for d in range(res.batteries.shape[0])
        ],
    )
    write(
        "pd_battery.csv",
        ["block", "battery_kj", "swapped"],
        [
            [res.block, _fmt(res.pd_battery / KJ), int(res.pd_swapped)]
            for res in results
            if not np.isnan(res.pd_battery)
        ],
    )
    write(
        "user_rates.csv",
        ["block", "user", "rate_bps_hz"],
        [
            [res.block, u, _fmt(res.user_rate_values[u])]
            for res in results
            if res.block > 0
            for u in range(res.user_rate_values.shape[0])
        ],
    )
    energy_rows = []
    for res in results:
        if res.block == 0:
            continue
        D = res.batteries.shape[0]
        for d in range(D):
            energy_rows.append([
                res.block, f"drone{d}", _fmt(res.hardware_j[d]), _fmt(res.hover_j[d]),
                _fmt(res.transmit_j[d]), _fmt(res.charge[d] * 1.0),
            ])
    write(
        "energy_breakdown.csv",
        ["block", "entity", "hardware_j", "hover_j", "transmit_j", "charged"],
        energy_rows,
    )
    write(
        "events.csv",
        ["block", "kind", "entity", "value"],
        [
            [res.block, kind, entity, _fmt(value)]
            for res in results
            for kind, entity, value in res.events
        ],
    )
    return paths


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="dronegrid", description="Run one aerial-coverage mission and write CSV traces.", add_help=True)
    p.add_argument("--scenario", metavar="PATH", help="scenario JSON file (defaults used when omitted)")
    p.add_argument("--out", metavar="DIR", default="out", help="directory for CSV traces (default: ./out)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--users", type=int, help="override the user count (redrawn from the seed)")
    p.add_argument("--drones", type=int, help="override the coverage-drone count")
    p.add_argument("--blocks", type=int, help="override the number of time blocks")
    p.add_argument("--no-pd", action="store_true", help="run without any powering drone")
    p.add_argument("--audit", action="store_true", help="self-check the finished run and report violations")
    p.add_argument("--quiet", action="store_true", help="suppress the per-block summary")
    return p


def cli_main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, 1 bad usage or invalid scenario,
    2 runtime failure (depletion, infeasible floors, audit violations)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        # overrides are applied to the raw document so that, e.g., a new
        # seed redraws users given as a count instead of freezing the old
        # coordinates
        doc = _read_document(args.scenario) if args.scenario else {}
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.users is not None:
            doc["users"] = args.users
        if args.drones is not None:
            doc["drones"] = args.drones
        if args.blocks is not None:
            time_sec = doc.get("time")
            time_sec = dict(time_sec) if isinstance(time_sec, dict) else {}
            time_sec["blocks"] = args.blocks
            doc["time"] = time_sec
            doc.pop("time_total_s", None)
        if args.no_pd:
            doc["pd_pool"] = 0
        sc = load_scenario(doc)
    except ScenarioError as err:
        for e in err.errors:
            print(f"scenario error: {e}", file=sys.stderr)
        return 1

    try:
        results = run_simulation(sc)
        failed = None
    except SimulationError as err:
        results = err.results
        failed = str(err)

    if results:
        emit_traces(results, args.out)
    if not args.quiet:
        for res in results:
            batt = "/".join(f"{b / KJ:.1f}" for b in res.batteries)
            pd_txt = "-" if np.isnan(res.pd_battery) else f"{res.pd_battery / KJ:.1f}"
            charged = np.nonzero(res.charge)[0]
            tag = f" charge->drone{charged[0]}" if charged.size else ""
            tag += " pd-swap" if res.pd_swapped else ""
            print(f"block {res.block}: batteries {batt} kJ, pd {pd_txt} kJ{tag}")
        print(f"traces written to {Path(args.out).resolve()}")

    if failed is not None:
        print(f"run failed: {failed}", file=sys.stderr)
        return 2

    if args.audit:
        violations = audit_run(sc, results)
        if violations:
            for v in violations:
                print(f"audit violation: {v}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"audit: clean ({len(results) - 1} blocks checked)")
    return 0


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
