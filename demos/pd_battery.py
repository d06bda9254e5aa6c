"""
Powering-drone battery, charging and the mid-mission swap
=========================================================

The powering drone spends roughly 86 kJ per block just staying airborne
(it is twice the mass of a coverage drone) and 50 kJ more for every top-up
it delivers. When its reserve falls to the 100 kJ threshold it is replaced
by a standby unit carrying a fresh 400 kJ pack. This script traces that
lifecycle on two fleets.
"""

from pathlib import Path

import numpy as np

from dronegrid import load_scenario, run_simulation

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

for name in ("default.json", "three_drones_eight_users.json"):
    sc = load_scenario(str(SCENARIOS / name))
    results = run_simulation(sc)
    print(f"\ndemos/scenarios/{name}  ({sc.drones} coverage drones, {len(sc.users)} users)")
    print("block  start kJ   end kJ  charges  swapped")
    for res in results[1:]:
        charges = int(res.charge.sum())
        print(
            f"{res.block:>5}  {res.pd_battery_start / 1e3:8.1f}  "
            f"{res.pd_battery / 1e3:7.1f}  {charges:>7}  {'yes' if res.pd_swapped else ''}"
        )
    swaps = sum(r.pd_swapped for r in results)
    spent = sum(
        r.pd_battery_start - r.pd_battery for r in results[1:]
    )
    print(f"swaps: {swaps}, total energy drawn from PD packs: {spent / 1e3:.1f} kJ")
