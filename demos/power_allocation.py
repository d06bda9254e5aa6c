"""
Minimum-power allocation for one block
======================================

Fixes a four-drone grid over a 800 m x 800 m area, scatters twelve users,
and solves a single block's radio problem: who serves whom, on which
subchannels, at what power. The power stage relaxes the non-convex rate
constraints iteratively; the objective trace below is non-increasing and
settles within a handful of rounds.
"""

import numpy as np

from dronegrid import (
    ChannelParams,
    RateConstraintParams,
    SolverConfig,
    gain_table,
    load_scenario,
    sector_partition,
    solve_allocation,
    user_rates,
)

sc = load_scenario(None)
users = np.array([ue.xy for ue in sc.users])
centers = np.array([s.center for s in sector_partition(sc.bounds, sc.drones)])
gains = gain_table(centers, users, sc.channel)

alloc, state = solve_allocation(gains, sc.rates, SolverConfig(), sc.channel.noise_power)

print("objective trace (total watts per round):")
for i, obj in enumerate(state.objective_trace):
    print(f"  round {i + 1}: {obj:.6e}")
print(f"converged: {state.converged} after {state.iteration} rounds\n")

loads = alloc.assoc.sum(axis=0)
watts = alloc.power.sum(axis=(0, 2))
print("drone  users  subchannels  watts")
for d in range(sc.drones):
    subs = int(alloc.chan[:, d, :].sum())
    print(f"{d:>5}  {int(loads[d]):>5}  {subs:>11}  {watts[d]:.5f}")

rates = user_rates(alloc.power, gains, sc.channel.noise_power)
print(f"\nper-user rate: min {rates.min():.4f}, max {rates.max():.4f} bps/Hz "
      f"(floor {sc.rates.rate_floor})")
print(f"violations: {alloc.violations(sc.rates) or 'none'}")
