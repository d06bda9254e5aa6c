"""
Coverage-drone battery trajectories, with and without a powering drone
======================================================================

Runs the flagship scenario twice: once with the powering drone topping up
whichever unit falls to the 100 kJ threshold, once with no powering drone
at all. Prints both battery tables and, when matplotlib is importable,
saves a side-by-side step plot to battery_trajectories.png.

Takes about a second: each mission is six blocks of placement search
plus power optimization.
"""

from pathlib import Path

import numpy as np

from dronegrid import load_scenario, run_simulation

# the supported fleet
sc = load_scenario(str(Path(__file__).resolve().parent / "scenarios" / "default.json"))
with_pd = run_simulation(sc)

# the same fleet left on its own
sc_alone = load_scenario({"seed": 0, "drones": 4, "users": 12, "pd_pool": 0})
without_pd = run_simulation(sc_alone)


def print_table(tag, results):
    print(f"\n{tag}")
    print("block  " + "  ".join(f"drone{d:>2}" for d in range(results[0].batteries.size)))
    for res in results:
        cells = "  ".join(f"{b / 1e3:7.1f}" for b in res.batteries)
        marks = ""
        if res.charge.sum():
            marks += f"  <- charged drone {int(np.nonzero(res.charge)[0][0])}"
        print(f"{res.block:>5}  {cells} kJ{marks}")


print_table("with powering drone", with_pd)
print_table("without powering drone", without_pd)

lowest = min(r.batteries.min() for r in with_pd)
print(f"\nsupported fleet never fell below {lowest / 1e3:.1f} kJ")
lowest_alone = without_pd[-1].batteries.min()
print(f"unsupported fleet ended at {lowest_alone / 1e3:.1f} kJ "
      f"(threshold is {sc.battery.threshold / 1e3:.0f} kJ)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available, skipping the plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, (tag, results) in zip(
        axes, [("with powering drone", with_pd), ("without", without_pd)]
    ):
        blocks = [r.block for r in results]
        levels = np.array([r.batteries for r in results]) / 1e3
        for d in range(levels.shape[1]):
            ax.step(blocks, levels[:, d], where="post", label=f"drone {d}")
        ax.axhline(sc.battery.threshold / 1e3, ls="--", c="gray", lw=0.8)
        ax.set_title(tag)
        ax.set_xlabel("block")
    axes[0].set_ylabel("battery (kJ)")
    axes[0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("battery_trajectories.png", dpi=120)
    print("wrote battery_trajectories.png")
