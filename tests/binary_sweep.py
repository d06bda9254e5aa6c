"""Random-instance sweep of assign_binaries, to compare two checkouts.

    PYTHONPATH=src python tests/binary_sweep.py [--seeds N] > new.txt
    python tests/binary_sweep.py --compare old.txt new.txt

Instance s (0 <= s < N, N = 150 by default) draws D in 2-4 drones, U in
3-24 users, M in {4, 8, 12} subchannels and gains uniform in [1e-8, 1e-6]
from numpy's default_rng(s), in one of three rate and noise regimes
(s mod 3): the paper's rate floor 0.5 at noise 1e-10, a high floor in
[1, 2.5] at noise 1e-7, and a low floor in [0.05, 0.3] at noise 1e-12.
Shapes with U > D*M are skipped. Each instance prints one line: seed,
shape, regime, verdict (ok, or infeasible for a RateInfeasibleError) and
the summed power that assign_binaries returns, in full precision.

--compare reads two such outputs and reports, over the instances both
solve, how many answers agree within 1e-4 relative, how many fall or
rise by more than 1% and the worst of each, and every verdict flip.

The file is not named test_*, so pytest does not collect it; a sweep
takes under a minute on one core.
"""

from __future__ import annotations

import sys

import numpy as np

REGIMES = ("paper", "high", "low")


def instance(seed: int):
    """(U, D, M, regime, rcp, noise, gains) of instance seed."""
    from dronegrid import RateConstraintParams

    rng = np.random.default_rng(seed)
    D = int(rng.integers(2, 5))
    U = int(rng.integers(3, 25))
    M = int(rng.choice([4, 8, 12]))
    regime = REGIMES[seed % 3]
    if regime == "paper":
        rate, noise = 0.5, 1e-10
    elif regime == "high":
        rate, noise = float(rng.uniform(1.0, 2.5)), 1e-7
    else:
        rate, noise = float(rng.uniform(0.05, 0.3)), 1e-12
    gains = rng.uniform(1e-8, 1e-6, (U, D))
    return U, D, M, regime, RateConstraintParams(rate_floor=rate, subchannels=M), noise, gains


def sweep(seeds: int) -> None:
    from dronegrid import RateInfeasibleError, SolverConfig, assign_binaries

    for seed in range(seeds):
        U, D, M, regime, rcp, noise, gains = instance(seed)
        if U > D * M:
            continue
        try:
            _, _, (power, _) = assign_binaries(gains, rcp, SolverConfig(), noise)
            verdict, objective = "ok", float(power.sum())
        except RateInfeasibleError:
            verdict, objective = "infeasible", float("nan")
        print(f"{seed} {U} {D} {M} {regime} {verdict} {objective!r}", flush=True)


def _read(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            seed, *_, verdict, objective = line.split()
            out[int(seed)] = (verdict, float(objective))
    return out


def compare(old_path: str, new_path: str) -> None:
    old, new = _read(old_path), _read(new_path)
    seeds = sorted(old.keys() & new.keys())
    flips = [s for s in seeds if old[s][0] != new[s][0]]
    both = [s for s in seeds if old[s][0] == new[s][0] == "ok"]
    change = {s: new[s][1] / old[s][1] - 1.0 for s in both}
    falls = sorted((c, s) for s, c in change.items() if c < -0.01)
    rises = sorted(((c, s) for s, c in change.items() if c > 0.01), reverse=True)
    print(f"instances in both: {len(seeds)}, solved by both: {len(both)}")
    print(f"within 1e-4 relative: {sum(abs(c) <= 1e-4 for c in change.values())}")
    print(f"fall by more than 1%: {len(falls)}" + (f", worst {falls[0][0]:+.2%} (seed {falls[0][1]})" if falls else ""))
    print(f"rise by more than 1%: {len(rises)}" + (f", worst {rises[0][0]:+.2%} (seed {rises[0][1]})" if rises else ""))
    print(f"verdict flips: {len(flips)}" + "".join(f"\n  seed {s}: {old[s][0]} -> {new[s][0]}" for s in flips))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        compare(argv[1], argv[2])
    elif not argv:
        sweep(150)
    elif len(argv) == 2 and argv[0] == "--seeds":
        sweep(int(argv[1]))
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
