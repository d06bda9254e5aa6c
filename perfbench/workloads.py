"""Seeded scenario documents for the benchmark workloads.

Each workload is one fixed user geometry, drawn once from the workload's
own layout seed, plus the solver and radio settings that make it stress
one part of the program. The scenario's own `seed`, which drives the
particle draws and the charge tie-break, is that layout seed too. The run
seed (`--seed`) nudges every user by a couple of metres and shuffles the
user order, so every seed gives different inputs that pose an equally
hard problem. Fresh layouts per seed were tried and rejected: block time
varied by more than 2x between them (the placement search refines more or
less often), and transmit energy varied with the luck of the search, far
more than any bound a regression check could use.

Documents are plain JSON objects for `dronegrid.load_scenario`, so the
program under test receives only the generated inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCENARIO = ROOT / "demos" / "scenarios" / "default.json"

HALF_SIDE = 400.0  # the default area is the square [-400, 400]^2
JITTER_M = 2.0

# Why each workload exists. The same text goes into BENCHMARK.json.
WHY = {
    "flagship": "paper configuration; placement search is ~80% of a block and cannot beat the incumbent, so pruning acts here",
    "clustered": "clustered users where transmit energy outweighs motion; particles win and some are rate-infeasible, so pruning is bypassed",
    "dense_users": "36 users and a one-particle search; time goes to assign_binaries' probe ranking and local search, placement is bypassed",
}

# layout seed, blocks per mission
_LAYOUT = {
    "flagship": (0, 1),
    "clustered": (0, 1),
    "dense_users": (0, 2),
}


def _uniform_users(count: int, layout_seed: int) -> np.ndarray:
    rng = np.random.default_rng([layout_seed, count])
    return rng.uniform(-HALF_SIDE, HALF_SIDE, size=(count, 2))


def _clustered_users(layout_seed: int, clusters: int = 4, per_cluster: int = 3,
                     spread: float = 300.0, sigma: float = 40.0) -> np.ndarray:
    rng = np.random.default_rng([layout_seed, clusters, per_cluster])
    centres = rng.uniform(-spread, spread, size=(clusters, 2))
    pts = centres[:, None, :] + rng.normal(0.0, sigma, size=(clusters, per_cluster, 2))
    return np.clip(pts.reshape(-1, 2), -HALF_SIDE, HALF_SIDE)


def _variant(points: np.ndarray, seed: int) -> np.ndarray:
    """The run seed's copy of a geometry: every user nudged by a few
    metres, then the user order shuffled."""
    rng = np.random.default_rng([seed, 0x5EED])
    moved = points + rng.normal(0.0, JITTER_M, size=points.shape)
    moved = np.clip(moved, -HALF_SIDE, HALF_SIDE)
    return moved[rng.permutation(len(moved))]


def _users_doc(points: np.ndarray) -> list:
    return [[float(x), float(y)] for x, y in points]


def build(workload: str, seed: int, layout_seed: int | None = None) -> dict:
    """Scenario document for `workload` under run seed `seed`.

    layout_seed overrides the workload's fixed geometry; it exists so the
    self-test can check that a held-out geometry also completes.
    """
    if workload not in _LAYOUT:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(_LAYOUT)}")
    default_layout, blocks = _LAYOUT[workload]
    lseed = default_layout if layout_seed is None else layout_seed
    if workload == "flagship":
        doc = json.loads(DEFAULT_SCENARIO.read_text())
        users = _uniform_users(int(doc["users"]), lseed)
    elif workload == "clustered":
        doc = {
            "drones": 4,
            "channel": {"noise_power": 1e-7},
            "rates": {"rate_floor": 2.0, "max_power": 10.0, "backhaul_cap": 100.0},
            # tol 0 runs every refinement round, so the block always scores
            # 61 particles; with the default tol a near-tie decides whether
            # the search stops after 41 or 81, and block time doubles
            "search": {"max_refines": 2, "tol": 0.0},
        }
        users = _clustered_users(lseed)
    else:
        doc = {
            "drones": 4,
            "search": {"particles": 1, "max_refines": 0},
            # a low start charge puts the first top-up and the powering
            # drone's first pack swap in block 2, so both paths are timed
            "battery": {"initial_kj": 130.0, "pd_initial_kj": 180.0},
            "rates": {"backhaul_cap": 20.0},
        }
        users = _uniform_users(36, lseed)
    doc["seed"] = lseed
    doc["users"] = _users_doc(_variant(users, seed))
    time_sec = dict(doc.get("time", {}))
    time_sec["blocks"] = blocks
    doc["time"] = time_sec
    doc.pop("time_total_s", None)
    return doc


def tiny(seed: int) -> dict:
    """A few-second mission for the self-test: every layer runs, a charge
    and a pack swap happen, and particles are both accepted and rejected."""
    doc = build("clustered", seed)
    doc["search"] = {"particles": 4, "max_refines": 1}
    doc["time"] = {"blocks": 2}
    doc["battery"] = {"initial_kj": 130.0, "pd_initial_kj": 180.0}
    return doc
