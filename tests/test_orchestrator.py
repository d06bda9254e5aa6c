import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dronegrid import (
    AreaBounds,
    DepletionError,
    EnergyParams,
    PdDepletedError,
    SolverConfig,
    TimeGrid,
    audit_run,
    cdbs_battery_step,
    gain_table,
    hover_energy,
    kinematics_check,
    load_scenario,
    pd_battery_step,
    run_simulation,
    solve_allocation,
)

# small, fast search settings shared by the scenarios below
FAST_SEARCH = {"particles": 5, "max_refines": 1, "tol": 1e-3}

QUICK_LOOK = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "quick_look.json"


def _mini(doc):
    base = {"search": FAST_SEARCH}
    base.update(doc)
    return load_scenario(base)


@pytest.fixture(scope="module")
def tiny_run():
    sc = _mini({"users": 3, "drones": 2, "seed": 11, "time": {"blocks": 2}})
    return sc, run_simulation(sc)


def test_block_zero_is_initial_state(tiny_run):
    sc, res = tiny_run
    first = res[0]
    assert first.block == 0
    np.testing.assert_allclose(first.batteries, sc.battery.initial)
    np.testing.assert_allclose(first.speeds, 0.0)
    assert first.pd_battery_start == sc.battery.pd_initial
    assert len(res) == sc.time.blocks + 1


def test_blocks_are_consecutive_and_complete(tiny_run):
    sc, res = tiny_run
    assert [r.block for r in res] == list(range(sc.time.blocks + 1))
    for r in res[1:]:
        assert r.user_rate_values.shape == (3,)
        assert r.user_rate_values.min() >= sc.rates.rate_floor - 1e-9
        assert r.positions.shape == (2, 2)
        assert r.charge.sum() <= 1


def test_first_move_billed_at_full_speed(tiny_run):
    # deployment block: the fleet crosses from outside the area, so the
    # move window is billed at v_max regardless of the in-area displacement
    sc, res = tiny_run
    from dronegrid import hardware_energy

    expect = hardware_energy(sc.energy.v_max, sc.energy, sc.time.move_s)
    np.testing.assert_allclose(res[1].hardware_j, expect, rtol=1e-12)


def test_battery_recursion_matches_reference(tiny_run):
    sc, res = tiny_run
    for prev, cur in zip(res, res[1:]):
        for d in range(2):
            if cur.block == 1:
                speed = sc.energy.v_max
            else:
                speed = cur.speeds[d]
            tx = cur.transmit_j[d] / sc.time.block_s
            expect = cdbs_battery_step(
                prev.batteries[d], speed, tx, bool(cur.charge[d]),
                sc.energy, sc.battery, sc.time,
            )
            assert cur.batteries[d] == pytest.approx(expect, rel=1e-12)


def test_transmit_energy_sums_per_drone(tiny_run):
    # each drone's RF energy is its allocated power, summed over users and
    # subchannels, held for the whole block
    sc, res = tiny_run
    for cur in res[1:]:
        per_drone = cur.alloc.power.sum(axis=(0, 2)) * sc.time.block_s
        np.testing.assert_allclose(cur.transmit_j, per_drone, rtol=1e-12)
        assert (cur.transmit_j > 0).any()


def test_run_is_deterministic(tiny_run):
    sc, res = tiny_run
    sc2 = _mini({"users": 3, "drones": 2, "seed": 11, "time": {"blocks": 2}})
    res2 = run_simulation(sc2)
    assert len(res) == len(res2)
    for a, b in zip(res, res2):
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.batteries, b.batteries)
        np.testing.assert_array_equal(a.user_rate_values, b.user_rate_values)
        np.testing.assert_array_equal(a.charge, b.charge)
        assert a.pd_battery == b.pd_battery
        assert a.events == b.events


def test_audit_clean_on_tiny_run(tiny_run):
    sc, res = tiny_run
    assert audit_run(sc, res) == []


def test_zero_users_hover_only():
    sc = _mini({"users": 0, "drones": 2, "time": {"blocks": 3}})
    res = run_simulation(sc)
    drain = hover_energy(sc.energy, sc.time)
    for n, r in enumerate(res):
        if n == 0:
            continue
        assert r.transmit_j.sum() == 0.0
        if n == 1:
            continue  # deployment block also pays the transit
        np.testing.assert_allclose(
            r.batteries, res[n - 1].batteries - drain, rtol=1e-12
        )
    assert audit_run(sc, res) == []


def test_transmit_floor_prunes_where_transmit_outweighs_motion():
    # users in four clusters under heavy noise: transmit energy dwarfs any
    # move, so motion and hover alone never reach the incumbent's score
    # and every pruned candidate is pruned by the transmit floor
    rng = np.random.default_rng(7)
    centres = rng.uniform(-300.0, 300.0, size=(4, 2))
    users = np.clip(centres[:, None, :] + rng.normal(0.0, 40.0, size=(4, 3, 2)), -400.0, 400.0)
    search = {"particles": 6, "max_refines": 1}
    sc = load_scenario({
        "drones": 4,
        "users": users.reshape(-1, 2).tolist(),
        "channel": {"noise_power": 1e-7},
        "rates": {"rate_floor": 2.0, "max_power": 10.0, "backhaul_cap": 100.0},
        "search": search,
        "time": {"blocks": 1},
    })
    (block,) = run_simulation(sc)[1:]
    assert block.placement_pruned > 0
    drawn = search["particles"] * (1 + search["max_refines"])
    assert block.placement_evals + block.placement_pruned == drawn + 1


def test_charge_fires_only_at_or_below_threshold():
    # batteries cross the threshold after the first block; from then on one
    # drone per block gets the quantum, never one that is still above
    sc = _mini({
        "users": 0, "drones": 2, "time": {"blocks": 2},
        "battery": {"initial_kj": 90.0, "threshold_kj": 80.0},
    })
    res = run_simulation(sc)
    saw_charge = False
    for r in res[1:]:
        if (r.batteries_start <= sc.battery.threshold).any():
            assert r.charge.sum() == 1
            d = int(np.nonzero(r.charge)[0][0])
            assert r.batteries_start[d] <= sc.battery.threshold
            saw_charge = True
        else:
            assert r.charge.sum() == 0
    assert saw_charge
    assert audit_run(sc, res) == []


def test_pd_swap_replaces_battery():
    # threshold set high enough that one block of self-consumption trips it
    sc = _mini({
        "users": 0, "drones": 2, "time": {"blocks": 2},
        "battery": {"pd_threshold_kj": 350.0},
    })
    res = run_simulation(sc)
    assert not res[1].pd_swapped
    assert res[2].pd_swapped
    assert res[2].pd_battery_start == sc.battery.pd_initial
    assert ("pd_swap", "pd", sc.battery.pd_initial) in res[2].events
    spend = res[2].pd_battery_start - res[2].pd_battery
    assert spend == pytest.approx(hover_energy(sc.pd_energy, sc.time), rel=1e-9)


def test_pd_conservation_with_charges():
    sc = _mini({
        "users": 0, "drones": 2, "time": {"blocks": 2},
        "battery": {"initial_kj": 90.0, "threshold_kj": 80.0},
    })
    res = run_simulation(sc)
    assert any(r.charge.sum() == 1 for r in res[1:])
    for r in res[1:]:
        expect = pd_battery_step(
            r.pd_battery_start, r.pd_speed, int(r.charge.sum()),
            sc.pd_energy, sc.battery, sc.time,
        )
        assert r.pd_battery == pytest.approx(expect, rel=1e-12)


def test_pd_exhaustion_without_standby_raises():
    sc = _mini({
        "users": 0, "drones": 2, "pd_pool": 1, "time": {"blocks": 2},
        "battery": {"pd_initial_kj": 101.0},
    })
    with pytest.raises(PdDepletedError) as err:
        run_simulation(sc)
    assert any(e[0] == "pd_low_no_standby" for r in err.value.results for e in r.events)


def test_pd_depletion_partial_record_keeps_the_pd_ledger():
    # block 2 charges a drone, so the powering drone flies out to it and
    # runs dry on the way; the partial record must carry that flight
    sc = _mini({
        "users": 0, "drones": 2, "pd_pool": 1, "time": {"blocks": 2},
        "battery": {"initial_kj": 90.0, "threshold_kj": 80.0,
                    "pd_initial_kj": 200.0, "pd_threshold_kj": 50.0},
    })
    with pytest.raises(PdDepletedError) as err:
        run_simulation(sc)
    assert err.value.block == 2
    last = err.value.results[-1]
    assert last.block == 2
    assert last.charge.sum() == 1
    assert last.pd_speed > 0.0
    assert last.pd_battery < 0.0
    assert last.pd_battery == pd_battery_step(
        last.pd_battery_start, last.pd_speed, int(last.charge.sum()),
        sc.pd_energy, sc.battery, sc.time,
    )
    assert audit_run(sc, err.value.results) == []


def test_cdbs_depletion_partial_record_keeps_the_ledgers():
    # the whole fleet runs dry in block 1: the record of that block still
    # steps every drone and the powering drone
    sc = _mini({
        "users": 0, "drones": 2, "time": {"blocks": 2},
        "battery": {"initial_kj": 30.0, "threshold_kj": 20.0},
    })
    with pytest.raises(DepletionError) as err:
        run_simulation(sc)
    assert err.value.drone == 0
    last = err.value.results[-1]
    assert (last.batteries == 0.0).all()
    assert (last.hover_j > 0.0).all()
    assert last.pd_battery == pd_battery_step(
        last.pd_battery_start, last.pd_speed, 0, sc.pd_energy, sc.battery, sc.time,
    )
    assert audit_run(sc, err.value.results) == []


def test_cdbs_depletion_strict_aborts():
    sc = _mini({
        "users": 0, "drones": 2, "time": {"blocks": 2},
        "battery": {"initial_kj": 30.0, "threshold_kj": 20.0},
        "pd_pool": 0,
    })
    with pytest.raises(DepletionError) as err:
        run_simulation(sc)
    assert err.value.block == 1
    assert len(err.value.results) == 2  # initial row + the failing block


def test_cdbs_depletion_permissive_grounds_and_continues():
    sc = _mini({
        "users": 0, "drones": 2, "permissive_depletion": True,
        "time": {"blocks": 2},
        "battery": {"initial_kj": 30.0, "threshold_kj": 20.0},
        "pd_pool": 0,
    })
    res = run_simulation(sc)
    assert len(res) == 3
    assert not res[1].active_drones.any()
    kinds = [e[0] for e in res[1].events]
    assert kinds.count("drone_grounded") == 2


def test_no_pd_scenario_has_no_pd_rows(tiny_run):
    sc = _mini({"users": 0, "drones": 2, "pd_pool": 0, "time": {"blocks": 2}})
    res = run_simulation(sc)
    assert all(np.isnan(r.pd_battery) for r in res)
    assert audit_run(sc, res) == []


def test_kinematics_check_flags_teleport(tiny_run):
    sc, res = tiny_run
    assert kinematics_check(res, sc.energy, sc.time, sc.bounds) == []
    # forge a 650 m jump with an innocent reported speed
    forged = [dataclasses.replace(r) for r in res]
    moved = forged[1].positions.copy()
    moved[0] = moved[0] + np.array([650.0, 0.0])
    forged[1] = dataclasses.replace(forged[1], positions=moved)
    bad = kinematics_check(forged, sc.energy, sc.time, sc.bounds)
    assert bad  # displacement no longer matches the reported speed
    outside = [dataclasses.replace(r) for r in res]
    moved = outside[2].positions.copy()
    moved[1] = np.array([999.0, 0.0])
    outside[2] = dataclasses.replace(outside[2], positions=moved)
    assert any("outside" in v for v in kinematics_check(outside, sc.energy, sc.time, sc.bounds))


def test_kinematics_check_accepts_boundary_point():
    tg = TimeGrid(blocks=1, block_s=480.0, move_s=30.0)
    ep = EnergyParams()
    bounds = AreaBounds()
    mk = lambda block, pos, speed: dataclasses.replace(
        _blank_result(block), positions=np.array(pos), speeds=np.array(speed)
    )
    rows = [
        mk(0, [[400.0, 400.0]], [0.0]),
        mk(1, [[400.0, 100.0]], [10.0]),  # 300 m at 10 m/s * 30 s
    ]
    assert kinematics_check(rows, ep, tg, bounds) == []


def _blank_result(block):
    from dronegrid import BlockResult

    return BlockResult(
        block=block,
        positions=np.zeros((1, 2)),
        speeds=np.zeros(1),
        batteries_start=np.zeros(1),
        batteries=np.zeros(1),
        hardware_j=np.zeros(1),
        hover_j=np.zeros(1),
        transmit_j=np.zeros(1),
        user_rate_values=np.zeros(0),
        charge=np.zeros(1, dtype=np.int8),
        pd_battery_start=float("nan"),
        pd_battery=float("nan"),
        pd_speed=0.0,
        pd_swapped=False,
        backhaul_ok=True,
        sum_rate=0.0,
        active_drones=np.ones(1, dtype=bool),
    )


def test_scenario_validation_collects_errors():
    sc = _mini({"users": 3, "drones": 2})
    bad = dataclasses.replace(sc, drones=0, pd_pool=-1)
    problems = bad.validate()
    assert len(problems) >= 2


# ---------------------------------------------------------------------------
# solves reused across blocks (the assign_binaries memo of one mission)
# ---------------------------------------------------------------------------

def _grounding_scenario():
    # both drones end block 1 below the threshold; block 2 charges one and
    # grounds the other, so block 3 solves with one drone instead of two
    return _mini({
        "users": 3, "drones": 2, "seed": 11, "permissive_depletion": True,
        "time": {"blocks": 3},
        "battery": {"initial_kj": 40.0, "threshold_kj": 20.0, "charge_per_block_kj": 80.0},
    })


def _count_solves(monkeypatch):
    """Record 'block' at each placement search and 'solve' at each power solve."""
    from dronegrid import assign_power, orchestrator

    log = []
    solve, search = assign_power.solve_power_given_binaries, orchestrator.search_positions

    def counting_solve(*args):
        log.append("solve")
        return solve(*args)

    def marking_search(*args, **kwargs):
        log.append("block")
        return search(*args, **kwargs)

    monkeypatch.setattr(assign_power, "solve_power_given_binaries", counting_solve)
    monkeypatch.setattr(orchestrator, "search_positions", marking_search)
    return log


def _solves_per_block(log):
    blocks = []
    for entry in log:
        if entry == "block":
            blocks.append(0)
        else:
            blocks[-1] += 1
    return blocks


@pytest.mark.parametrize("scenario", ["quick_look", "grounding"])
def test_each_block_equals_a_fresh_solve_at_its_gains(scenario):
    sc = load_scenario(QUICK_LOOK) if scenario == "quick_look" else _grounding_scenario()
    res = run_simulation(sc)
    users = np.array([ue.xy for ue in sc.users])
    shapes = set()
    for prev, cur in zip(res, res[1:]):
        act = np.nonzero(prev.active_drones)[0]  # the fleet the block solved for
        gains = gain_table(cur.positions[act], users, sc.channel)
        shapes.add(gains.shape)
        alloc, sca = solve_allocation(gains, sc.rates, SolverConfig(), sc.channel.noise_power)
        np.testing.assert_array_equal(cur.alloc.assoc[:, act], alloc.assoc)
        np.testing.assert_array_equal(cur.alloc.chan[:, act], alloc.chan)
        assert cur.alloc.power[:, act].tobytes() == alloc.power.tobytes()
        assert cur.sca_iterations == sca.iteration
    if scenario == "grounding":
        assert shapes == {(3, 2), (3, 1)}
        assert audit_run(sc, res) == []


def test_a_fleet_holding_its_placement_solves_nothing_again(monkeypatch):
    # quick_look keeps the zero-motion incumbent in every block, so from
    # block 2 on the incumbent's score and the final allocation are both
    # answers the mission already has
    log = _count_solves(monkeypatch)
    sc = load_scenario(QUICK_LOOK)
    res = run_simulation(sc)
    assert all((r.speeds == 0).all() for r in res[1:])
    blocks = _solves_per_block(log)
    assert len(blocks) == sc.time.blocks >= 3
    assert blocks[0] > 0 and blocks[1:] == [0] * (sc.time.blocks - 1)


def test_no_answer_outlives_its_mission(monkeypatch):
    from dronegrid import orchestrator

    log = _count_solves(monkeypatch)
    kept = []
    retain = orchestrator.retain_memo

    def measuring_retain(memo, gains):
        retain(memo, gains)
        kept.append(len(memo))

    monkeypatch.setattr(orchestrator, "retain_memo", measuring_retain)
    sc = load_scenario(QUICK_LOOK)
    first = run_simulation(sc)
    once = _solves_per_block(log)
    # each block ends holding at most the particle and the final answer
    # at the chosen placement, however many particles it scored
    assert kept == [2] * sc.time.blocks
    log.clear()
    second = run_simulation(sc)
    assert _solves_per_block(log) == once
    for a, b in zip(first, second):
        assert a.alloc is None or a.alloc.power.tobytes() == b.alloc.power.tobytes()
