"""
Sectored particle search for drone positions
============================================

One drone per sector, users piled into two corners. The search starts from
the previous block's positions (here: the sector centroids), scatters
candidate placements, and repeatedly shrinks the sampling radius around
the best one. Moving costs real energy, so improvements must buy more in
transmit power than they spend in propulsion.

A candidate's motion and hover energy plus a transmit floor
(`particle_floor`) is a lower bound on its score. The transmit floor is
the noise-only power each user's rate needs over all M subchannels of its
best drone, which no allocation can undercut, less a relative 1e-9 for
rounding. Candidates whose floor already reaches the best score so far
cannot win, so the search prunes them without re-solving the radio
problem; the answer is the same as scoring every one.
"""

import numpy as np

from dronegrid import (
    SearchConfig,
    SolverConfig,
    evaluate_particle,
    load_scenario,
    particle_floor,
    search_positions,
    sector_partition,
)

sc = load_scenario({
    "drones": 2,
    "users": [[-350.0, -350.0], [-320.0, -360.0], [-340.0, -310.0],
              [350.0, 350.0], [330.0, 320.0]],
})
users = np.array([ue.xy for ue in sc.users])
centers = np.array([s.center for s in sector_partition(sc.bounds, sc.drones)])
reach = sc.energy.v_max * sc.time.move_s


def evaluator(cand):
    return evaluate_particle(cand, centers, users, sc.channel, sc.energy,
                             sc.time, sc.rates, SolverConfig())


def floor(cand):
    return particle_floor(cand, centers, users, sc.channel, sc.energy,
                          sc.time, sc.rates)


stay_cost = evaluator(centers)
cfg = SearchConfig(particles=12, max_refines=3)
best, evals, pruned = search_positions(
    centers, centers, sc.bounds.diagonal / 2, evaluator, cfg, sc.bounds, reach,
    np.random.default_rng(0), bound=floor,
)

print("sector centroids:")
print(np.round(centers, 1))
print(f"cost of staying put: {stay_cost / 1e3:.3f} kJ")
print(f"\nbest found after {evals} evaluations; {pruned} candidates pruned unscored:")
print(np.round(best, 1))
print(f"cost: {evaluator(best) / 1e3:.3f} kJ")
moved = np.linalg.norm(best - centers, axis=1)
for d, m in enumerate(moved):
    print(f"drone {d} moved {m:.1f} m")
print("\npropulsion dominates at this scale, so placements move only when"
      "\nthe transmit-power savings repay the trip")
