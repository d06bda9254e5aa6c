"""Acceptance gate: the eight checks the package must pass before release.

Each test prints one pass/fail line under pytest -v. The two mission-scale
fixtures run the flagship four-drone scenario once with and once without
the powering drone and are shared by the battery-behavior gates.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    coupling_admits,
    draw_tight_instance,
    grid_oracle,
    interference_term,
    random_binaries,
    sca_rate_upper_bound,
)
from dronegrid import (
    EnergyParams,
    RateConstraintParams,
    SolverConfig,
    cli_main,
    gain_table,
    hardware_energy,
    hover_energy,
    hover_power,
    load_scenario,
    run_simulation,
    solve_allocation,
    subchannel_rate,
    user_rates,
)
from dronegrid.assign_power import linearization_admits
from dronegrid.channel import ChannelParams

SCENARIOS = sorted(Path(__file__).resolve().parent.parent.glob("demos/scenarios/*.json"))
DEFAULT = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "default.json"


@pytest.fixture(scope="module")
def default_run():
    sc = load_scenario(str(DEFAULT))
    return sc, run_simulation(sc)


@pytest.fixture(scope="module")
def unsupported_run():
    sc = load_scenario({"seed": 0, "drones": 4, "users": 12, "pd_pool": 0})
    return sc, run_simulation(sc)


def test_gate_1_formulas_match_closed_forms():
    rng = np.random.default_rng(1001)
    for _ in range(100):
        cp = ChannelParams(
            ref_gain=float(rng.uniform(1e-4, 1.0)),
            ref_dist=float(rng.uniform(0.5, 2.0)),
            altitude=float(rng.uniform(10.0, 500.0)),
        )
        j = rng.uniform(-400, 400, 2)
        g = rng.uniform(-400, 400, 2)
        expect = cp.ref_gain * cp.ref_dist**2 / (cp.altitude**2 + float(np.sum((j - g) ** 2)))
        assert gain_table([j], [g], cp)[0, 0] == pytest.approx(expect, rel=1e-9)

        ep = EnergyParams(
            mass=float(rng.uniform(0.5, 10.0)),
            gravity=float(rng.uniform(9.0, 10.0)),
            air_density=float(rng.uniform(1.0, 1.4)),
            prop_radius=float(rng.uniform(0.05, 0.5)),
            prop_count=int(rng.integers(2, 9)),
            power_full=float(rng.uniform(2.0, 50.0)),
            power_idle=float(rng.uniform(0.0, 2.0)),
            v_max=float(rng.uniform(5.0, 40.0)),
        )
        w = ep.mass * ep.gravity
        hover_expect = math.sqrt(
            w**3 / (2 * math.pi * ep.prop_radius**2 * ep.prop_count * ep.air_density)
        )
        assert hover_power(ep) == pytest.approx(hover_expect, rel=1e-9)

        v = float(rng.uniform(0.0, ep.v_max))
        t = float(rng.uniform(1.0, 120.0))
        hw_expect = ((ep.power_full - ep.power_idle) / ep.v_max * v + ep.power_idle) * t
        assert hardware_energy(v, ep, t) == pytest.approx(hw_expect, rel=1e-9)

        s = float(rng.uniform(0.0, 1e4))
        assert subchannel_rate(s) == pytest.approx(math.log2(1.0 + s), rel=1e-9, abs=1e-12)


def test_gate_2_linearized_set_is_the_product_set():
    # linearization_admits is what Allocation.violations, and so the
    # audit, checks powers against; the referee is the product form
    rng = np.random.default_rng(1002)
    pmax = 1.0
    for a_bit in (0, 1):
        for c_bit in (0, 1):
            assoc = np.full((1, 1), a_bit, dtype=np.int8)
            chan = np.full((1, 1, 1), c_bit, dtype=np.int8)
            for p in [*rng.uniform(-0.5, 1.5, 1000), 0.0, pmax, -0.0]:
                tens = np.full((1, 1, 1), p)
                assert bool(linearization_admits(tens, assoc, chan, pmax).all()) == bool(
                    coupling_admits(tens, assoc, chan, pmax).all()
                )


def test_gate_3_surrogate_bounds_the_interference_term():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        U, D, M = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gains = rng.uniform(1e-8, 1e-6, (U, D))
        assoc, chan = random_binaries(rng, U, D, M)
        ref = rng.uniform(0.0, 0.5, (U, D, M)) * chan
        r2_ref = interference_term(assoc, chan, ref, gains, 1e-10)
        at_ref = sca_rate_upper_bound(assoc, chan, ref, ref, gains, 1e-10)
        assert at_ref == pytest.approx(r2_ref, rel=1e-12, abs=1e-12)
        for _ in range(100):
            power = rng.uniform(0.0, 1.0, ref.shape) * chan
            r2 = interference_term(assoc, chan, power, gains, 1e-10)
            bound = sca_rate_upper_bound(assoc, chan, power, ref, gains, 1e-10)
            assert np.all(bound >= r2 - 1e-12 * np.maximum(1.0, np.abs(r2)))


def test_gate_4_solver_tracks_brute_force_within_five_percent():
    for k in range(20):
        gains, rcp, obj, alloc = draw_tight_instance(
            k, RateConstraintParams,
            lambda g, r, n: solve_allocation(g, r, SolverConfig(), n),
        )
        oracle = grid_oracle(gains, rcp.rate_floor, rcp.max_power, 1e-7)
        assert oracle is not None
        assert abs(obj - oracle) <= 0.05 * oracle, f"instance {k}: {obj} vs {oracle}"
        rates = user_rates(alloc.power, gains, 1e-7)
        assert rates.min() >= rcp.rate_floor - 1e-9, f"instance {k} floor broken"


def test_gate_5_supported_fleet_survives_unsupported_fleet_sags(default_run, unsupported_run):
    sc, results = default_run
    # (a) with the powering drone: nobody dies, and every top-up goes to a
    # drone that had already fallen to the threshold
    for res in results:
        assert (res.batteries > 0).all(), f"block {res.block}: a battery hit zero"
    saw_charge = False
    for res in results[1:]:
        for d in np.nonzero(res.charge)[0]:
            saw_charge = True
            assert res.batteries_start[d] <= sc.battery.threshold + 1e-9
    assert saw_charge, "the supported run never exercised a charge"

    # (b) left alone, at least one unit is at or below the threshold by the
    # final block
    sc2, results2 = unsupported_run
    assert (results2[-1].batteries <= sc2.battery.threshold + 1e-9).any()


def test_gate_6_pd_ledger_is_exact_and_swap_restores_full_pack(default_run):
    sc, results = default_run
    swaps = 0
    for prev, res in zip(results, results[1:]):
        spend = (
            hardware_energy(res.pd_speed, sc.pd_energy, sc.time.move_s)
            + hover_energy(sc.pd_energy, sc.time)
            + sc.battery.charge_per_block * int(res.charge.sum())
        )
        assert res.pd_battery == pytest.approx(res.pd_battery_start - spend, rel=1e-9)
        if res.pd_swapped:
            swaps += 1
            assert res.pd_battery_start == sc.battery.pd_initial
            assert prev.pd_battery <= sc.battery.pd_threshold + 1e-9
    assert swaps >= 1, "the flagship run should wear out its first pack"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_gate_7_audit_passes_on_shipped_scenarios(scenario, tmp_path):
    code = cli_main([
        "--scenario", str(scenario), "--audit", "--quiet",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0


def test_gate_7_sees_drone_motion_in_some_shipped_scenario():
    # the audit's kinematics check compares displacement with billed speed,
    # which a fleet that never moves cannot fail
    def moves(path):
        return any(res.speeds.max() > 0 for res in run_simulation(load_scenario(str(path))))

    assert any(moves(path) for path in SCENARIOS)


def test_gate_8_reruns_are_byte_identical(tmp_path):
    quick = DEFAULT.parent / "quick_look.json"
    for tag in ("a", "b"):
        code = cli_main([
            "--scenario", str(quick), "--quiet", "--out", str(tmp_path / tag),
        ])
        assert code == 0
    names = ["cdbs_battery.csv", "pd_battery.csv", "user_rates.csv",
             "energy_breakdown.csv", "events.csv"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
