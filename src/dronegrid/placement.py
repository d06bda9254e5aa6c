"""Per-block drone placement search.

The service area is tiled into one rectangular sector per drone and each
drone starts at its sector's center. Every block, candidate joint
placements ("particles") are sampled around anchor points, scored by the
block's full energy bill (transmit + motion + hover, with the radio
subproblem re-solved at the candidate positions), and the best is refined
by repeatedly shrinking the sampling radius around the incumbent and
realigning the swarm there. Candidates always respect the area bounds and
each drone's per-block reachability disc.

Pruning. A candidate's score is bounded from below (`particle_floor`)
by a transmit floor plus its motion and hover energy, and the incumbent
is only replaced by a strictly lower score. A candidate whose floor
already reaches the incumbent's score cannot be accepted, so the search
skips its radio solve. The transmit floor is the power that no allocation
can undercut (`assign_power.transmit_power_floor`: interference only
raises the power a rate needs, and a user holds at most M subchannels on
one drone), shrunk by `assign_power.FLOOR_MARGIN` so that it stays below
the solver's answer in floating point, times the block length. The floor
then adds the same motion and hover terms in the same order as the
score, starting from that transmit floor instead of the solved transmit
energy; rounded addition is monotone, so the floor never exceeds the
score, exactly and not just within a tolerance. Every round draws all of its particles
before scoring any, so pruning leaves the random stream, the incumbent
sequence and the stopping rule unchanged: the search returns the same
positions as without pruning, after fewer radio solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assign_power import (
    FLOOR_MARGIN,
    RateConstraintParams,
    RateInfeasibleError,
    SolverConfig,
    solve_allocation,
    transmit_power_floor,
)
from .channel import ChannelParams, gain_table
from .energy import EnergyParams, TimeGrid, billed_speed, hardware_energy, hover_energy


# Meters a point may stray past the area's edge and still count as inside.
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class AreaBounds:
    """Axis-aligned rectangle, meters."""

    x_min: float = -400.0
    x_max: float = 400.0
    y_min: float = -400.0
    y_max: float = 400.0

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError("degenerate area bounds")

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2])

    @property
    def diagonal(self) -> float:
        return math.hypot(self.x_max - self.x_min, self.y_max - self.y_min)

    def contains(self, xy) -> bool:
        """Whether xy lies in the rectangle, up to _EDGE_TOL meters."""
        x, y = float(xy[0]), float(xy[1])
        return (
            self.x_min - _EDGE_TOL <= x <= self.x_max + _EDGE_TOL
            and self.y_min - _EDGE_TOL <= y <= self.y_max + _EDGE_TOL
        )


@dataclass(frozen=True)
class SearchConfig:
    """Particle-search knobs.

    particles: candidates sampled per round.
    max_refines: refinement rounds after the initial scatter; each halves
    the sampling radius (_SHRINK_FACTOR).
    tol: stop refining once a round improves the incumbent by less than
    this relative amount.
    """

    particles: int = 20
    max_refines: int = 4
    tol: float = 1e-3

    def __post_init__(self):
        if self.particles < 1 or self.max_refines < 0:
            raise ValueError("particles must be >= 1 and max_refines >= 0")


# Sampling-radius multiplier between refinement rounds.
_SHRINK_FACTOR = 0.5

# Draws per drone before generate_particles gives up and keeps the drone
# where it was.
_MAX_TRIES = 200

# Candidate positions only need a consistent ranking, not converged optima,
# so the per-particle solves skip the local search and run the convexified
# loop at a coarser tolerance than the final block solve.
PARTICLE_SOLVER = SolverConfig(swap_passes=0, sca_tol=1e-3, max_sca_iters=12)


def sector_partition(bounds: AreaBounds, count: int) -> list:
    """Tile the area into `count` rectangles on a ceil(sqrt)-column grid.

    Rows fill top to bottom, left to right. When count does not fill the
    grid, the last row's sectors widen to span the full area, so the tiles
    always cover the whole rectangle (equal areas whenever count fits the
    grid exactly).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    cols = math.isqrt(count)
    if cols * cols < count:
        cols += 1
    rows = math.ceil(count / cols)
    width = bounds.x_max - bounds.x_min
    height = bounds.y_max - bounds.y_min
    row_h = height / rows
    sectors = []
    for r in range(rows):
        in_row = min(cols, count - r * cols)
        col_w = width / in_row
        y1 = bounds.y_max - r * row_h
        for c in range(in_row):
            sectors.append(
                AreaBounds(
                    bounds.x_min + c * col_w,
                    bounds.x_min + (c + 1) * col_w,
                    y1 - row_h,
                    y1,
                )
            )
    return sectors


def generate_particles(
    anchors: np.ndarray,
    radius: float,
    count: int,
    rng: np.random.Generator,
    bounds: AreaBounds,
    prev_positions: np.ndarray,
    reach_radius: float,
) -> np.ndarray:
    """Sample `count` joint placements around per-drone anchor points.

    Each drone's candidate is drawn uniformly from the disc of the given
    radius around its anchor, rejecting draws that leave the area or the
    drone's reachability disc (reach_radius around its previous position).
    A drone whose sampler misses the feasible intersection _MAX_TRIES
    times falls back to staying where it was, which is always feasible.
    Returns (count, D, 2).
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    prev_positions = np.atleast_2d(np.asarray(prev_positions, dtype=float))
    D = anchors.shape[0]
    out = np.empty((count, D, 2))
    for p in range(count):
        for d in range(D):
            pos = None
            for _ in range(_MAX_TRIES):
                rho = radius * math.sqrt(rng.uniform())
                theta = rng.uniform(0.0, 2.0 * math.pi)
                cand = anchors[d] + rho * np.array([math.cos(theta), math.sin(theta)])
                if not bounds.contains(cand):
                    continue
                if np.hypot(*(cand - prev_positions[d])) > reach_radius + 1e-9:
                    continue
                pos = cand
                break
            out[p, d] = prev_positions[d] if pos is None else pos
    return out


def evaluate_particle(
    positions: np.ndarray,
    prev_positions: np.ndarray,
    user_positions: np.ndarray,
    cp: ChannelParams,
    ep: EnergyParams,
    tg: TimeGrid,
    rcp: RateConstraintParams,
    memo: dict | None = None,
) -> float:
    """Energy bill (joules) of serving one block from these positions.

    Re-solves the radio subproblem at the candidate placement with the
    coarse PARTICLE_SOLVER (memo is passed on to `solve_allocation`, so
    the block's final solve at the chosen placement goes on from the
    score's SCA run); the score is transmit energy plus each drone's
    motion energy (at the speed implied by its displacement from the
    previous block) plus hover energy. Infeasible placements score +inf so
    the search simply avoids them.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    prev_positions = np.atleast_2d(np.asarray(prev_positions, dtype=float))
    gains = gain_table(positions, user_positions, cp)
    try:
        alloc, _ = solve_allocation(gains, rcp, PARTICLE_SOLVER, cp.noise_power, memo)
    except RateInfeasibleError:
        return math.inf
    return _add_motion_hover(
        float(alloc.power.sum()) * tg.block_s, positions, prev_positions, ep, tg
    )


def particle_floor(
    positions: np.ndarray,
    prev_positions: np.ndarray,
    user_positions: np.ndarray,
    cp: ChannelParams,
    ep: EnergyParams,
    tg: TimeGrid,
    rcp: RateConstraintParams,
) -> float:
    """Lower bound (joules) on `evaluate_particle` at the same placement.

    The score's motion and hover terms, summed the same way but from the
    transmit floor (`transmit_power_floor` at the candidate's gains, shrunk
    by FLOOR_MARGIN, times the block length) instead of the solved
    transmit energy, so it never exceeds the score in floating point. A
    rate-infeasible candidate scores inf and gets a finite floor.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    prev_positions = np.atleast_2d(np.asarray(prev_positions, dtype=float))
    gains = gain_table(positions, user_positions, cp)
    tx_floor_j = transmit_power_floor(gains, rcp, cp.noise_power) * FLOOR_MARGIN * tg.block_s
    return _add_motion_hover(tx_floor_j, positions, prev_positions, ep, tg)


def _add_motion_hover(total, positions, prev_positions, ep, tg) -> float:
    """Add each drone's motion energy (at the speed implied by its
    displacement from the previous block) and hover energy to `total`."""
    for d in range(positions.shape[0]):
        disp = float(np.hypot(*(positions[d] - prev_positions[d])))
        speed = billed_speed(disp, ep, tg.move_s)
        total += hardware_energy(speed, ep, tg.move_s) + hover_energy(ep, tg)
    return total


def _score_round(parts, best, best_val, evaluator, bound):
    """Score one round's particles against the incumbent; returns (best,
    best_val, evaluations, pruned). A particle whose bound reaches the
    running best is skipped: its score could not be strictly lower."""
    evals = pruned = 0
    for cand in parts:
        if bound is not None and bound(cand) >= best_val:
            pruned += 1
            continue
        val = evaluator(cand)
        evals += 1
        if val < best_val:
            best, best_val = cand, val
    return best, best_val, evals, pruned


def shrink_and_realign(
    incumbent: np.ndarray,
    incumbent_value: float,
    radius: float,
    evaluator,
    cfg: SearchConfig,
    rng: np.random.Generator,
    bounds: AreaBounds,
    prev_positions: np.ndarray,
    reach_radius: float,
    bound=None,
):
    """One refinement round: shrink the radius, rescatter around the
    incumbent, keep the best of old and new. `bound`, when given, is a
    lower bound on `evaluator` used to skip hopeless particles. Returns
    (positions, value, new_radius, evaluations, pruned)."""
    new_radius = radius * _SHRINK_FACTOR
    parts = generate_particles(
        incumbent, new_radius, cfg.particles, rng, bounds, prev_positions, reach_radius
    )
    best, best_val, evals, pruned = _score_round(
        parts, np.asarray(incumbent, dtype=float), incumbent_value, evaluator, bound
    )
    return best, best_val, new_radius, evals, pruned


def search_positions(
    prev_positions: np.ndarray,
    sector_centers: np.ndarray,
    radius: float,
    evaluator,
    cfg: SearchConfig,
    bounds: AreaBounds,
    reach_radius: float,
    rng: np.random.Generator,
    bound=None,
):
    """Full per-block placement search.

    Starts from the zero-motion incumbent (staying put is always feasible),
    scatters an initial swarm of the given radius around the sector
    centers, then runs up to cfg.max_refines shrink-and-realign rounds
    around the running best.
    `bound(cand)`, when given, must never exceed `evaluator(cand)`; every
    particle whose bound reaches the running best is pruned unscored, which
    leaves the result unchanged (None scores every particle). The
    incumbent is always scored. Returns (positions, evaluations, pruned),
    where evaluations counts the evaluator calls made.
    """
    prev_positions = np.atleast_2d(np.asarray(prev_positions, dtype=float))
    sector_centers = np.atleast_2d(np.asarray(sector_centers, dtype=float))
    best = prev_positions.copy()
    best_val = evaluator(best)
    parts = generate_particles(
        sector_centers, radius, cfg.particles, rng, bounds, prev_positions, reach_radius
    )
    best, best_val, evals, pruned = _score_round(parts, best, best_val, evaluator, bound)
    evals += 1  # the incumbent's own score
    for _ in range(cfg.max_refines):
        before = best_val
        best, best_val, radius, n, k = shrink_and_realign(
            best, best_val, radius, evaluator, cfg, rng, bounds, prev_positions, reach_radius,
            bound,
        )
        evals += n
        pruned += k
        if before - best_val < cfg.tol * max(abs(before), 1e-300):
            break
    return best, evals, pruned
