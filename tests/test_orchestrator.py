import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dronegrid import (
    Allocation,
    AreaBounds,
    DepletionError,
    EnergyParams,
    PdDepletedError,
    SimulationError,
    SolverConfig,
    TimeGrid,
    audit_run,
    cdbs_battery_step,
    emit_traces,
    gain_table,
    hover_energy,
    kinematics_check,
    load_scenario,
    pd_battery_step,
    run_simulation,
    solve_allocation,
    transmit_power_floor,
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


def test_audit_names_each_injected_defect_once():
    # quick_look with the threshold raised above both drones' block-3
    # start, so the scheduler charges one of two eligible drones there
    doc = json.loads(QUICK_LOOK.read_text())
    doc["battery"] = {"threshold_kj": 150.0}
    sc = load_scenario(doc)
    res = run_simulation(sc)
    assert audit_run(sc, res) == []
    last = res[-1]
    assert last.block == 3 and last.charge.sum() == 1
    assert (last.batteries_start <= sc.battery.threshold).all()

    def audit_last(**changes):
        return audit_run(sc, res[:-1] + [dataclasses.replace(last, **changes)])

    # a stray watt on a triple the binaries leave unassigned
    u, d, m = np.argwhere(last.alloc.chan == 0)[0]
    power = last.alloc.power.copy()
    power[u, d, m] = 1e-3
    stray = Allocation(last.alloc.assoc, last.alloc.chan, power)
    assert audit_last(alloc=stray) == [
        f"block 3: power outside the linearized coupling set at 1 triple(s), first "
        f"user {u} drone {d} subchannel {m}: 0.001 W"
    ]

    # the other eligible drone charged too, with both ledgers paying for it
    other = int(np.nonzero(last.charge == 0)[0][0])
    charge = last.charge.copy()
    charge[other] = 1
    batteries = last.batteries.copy()
    batteries[other] += sc.battery.charge_per_block
    assert audit_last(
        charge=charge, batteries=batteries,
        pd_battery=last.pd_battery - sc.battery.charge_per_block,
    ) == ["block 3: drones [0, 1] charged in one block"]

    # one battery a joule off its recursion
    batteries = last.batteries.copy()
    batteries[1] += 1.0
    off = audit_last(batteries=batteries)
    assert len(off) == 1 and off[0].startswith("block 3: drone 1 battery ")
    assert "recursion value" in off[0]


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


def _transmit_floor_only(positions, prev_positions, user_positions, cp, ep, tg, rcp):
    """particle_floor with the deal-free transmit floor (every user on all
    M subchannels of its best drone) in place of the greedy deal's."""
    from dronegrid.assign_power import FLOOR_MARGIN
    from dronegrid.placement import _add_motion_hover

    positions = np.atleast_2d(positions)
    gains = gain_table(positions, user_positions, cp)
    tx_j = transmit_power_floor(gains, rcp, cp.noise_power) * FLOOR_MARGIN * tg.block_s
    return _add_motion_hover(tx_j, positions, np.atleast_2d(prev_positions), ep, tg)


def test_greedy_deal_floor_prunes_without_moving_the_mission(tmp_path, monkeypatch):
    # the shipped clustered mission with fewer particles, once with the
    # real floor, once with no pruning at all and once with the deal-free
    # transmit floor: the same placements, energies and trace bytes, and
    # the greedy deal's floor prunes the most
    from dronegrid import orchestrator

    doc = json.loads((QUICK_LOOK.parent / "clustered.json").read_text())
    doc["search"] = {**doc["search"], "particles": 8}
    sc = load_scenario(doc)
    floors = {
        "deal": orchestrator.particle_floor,
        "none": lambda *args: -np.inf,
        "transmit": _transmit_floor_only,
    }
    runs = {}
    for name, floor in floors.items():
        monkeypatch.setattr(orchestrator, "particle_floor", floor)
        results = run_simulation(sc)
        paths = emit_traces(results, tmp_path / name)
        traces = {Path(p).name: Path(p).read_bytes() for p in paths.values()}
        runs[name] = results, traces
    deal, deal_traces = runs["deal"]
    assert audit_run(sc, deal) == []
    for name in ("none", "transmit"):
        other, other_traces = runs[name]
        assert len(other) == len(deal)
        for a, b in zip(deal, other):
            for f in ("positions", "batteries", "hardware_j", "hover_j", "transmit_j"):
                np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        assert other_traces == deal_traces
    pruned = {name: sum(r.placement_pruned for r in res) for name, (res, _) in runs.items()}
    assert pruned["none"] == 0
    assert pruned["deal"] > pruned["transmit"] > 0


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


def test_pd_target_beyond_its_reach_fails_by_name():
    # on a 2 km square the sector centres sit 707 m from the middle, where
    # a fresh powering drone starts, and it flies at most 600 m per block;
    # block 5 charges drone 2 after a swap, so the run ends there, keeping
    # blocks 0-4
    sc = load_scenario({
        "area": {"x_min": -1000.0, "x_max": 1000.0, "y_min": -1000.0, "y_max": 1000.0},
        "time": {"blocks": 8},
    })
    with pytest.raises(SimulationError) as err:
        run_simulation(sc)
    assert str(err.value) == "block 5: powering drone cannot reach drone 2: 707.1 m away, reach 600.0 m"
    assert [r.block for r in err.value.results] == [0, 1, 2, 3, 4]
    assert audit_run(sc, err.value.results) == []


@pytest.mark.parametrize("users", [0, 3])
def test_cdbs_depletion_partial_record_keeps_the_ledgers(users):
    # the whole fleet runs dry in block 1: the record of that block still
    # steps every drone and the powering drone, and with users it still
    # holds the block's allocation and serves every user at the floor
    sc = _mini({
        "users": users, "drones": 2, "seed": 11, "time": {"blocks": 2},
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
    assert last.user_rate_values.shape == (users,)
    assert last.user_rate_values == pytest.approx(np.full(users, sc.rates.rate_floor))
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


@pytest.mark.parametrize("scenario", ["quick_look", "clustered", "default", "three_drones_eight_users"])
def test_each_block_equals_a_fresh_solve_at_its_gains(scenario):
    # quick_look holds its placement, so every block after the first is
    # answered from the mission's memo; clustered moves every drone in
    # block 1, to a placement the particle search chose. In every block
    # the final solve's greedy deal goes on from the particle score's
    # coarse SCA run, and must still equal a fresh solve
    sc = load_scenario(QUICK_LOOK.with_name(f"{scenario}.json"))
    res = run_simulation(sc)
    users = np.array([ue.xy for ue in sc.users])
    for cur in res[1:]:
        gains = gain_table(cur.positions, users, sc.channel)
        alloc, sca = solve_allocation(gains, sc.rates, SolverConfig(), sc.channel.noise_power)
        np.testing.assert_array_equal(cur.alloc.assoc, alloc.assoc)
        np.testing.assert_array_equal(cur.alloc.chan, alloc.chan)
        assert cur.alloc.power.tobytes() == alloc.power.tobytes()
        assert cur.sca_iterations == sca.iteration


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
    from dronegrid import assign_power, orchestrator

    log = _count_solves(monkeypatch)
    kept, rounds = [], []
    retain, subproblem = orchestrator.retain_memo, assign_power._subproblem

    def measuring_retain(memo, gains):
        retain(memo, gains)
        # answers are keyed by solver config, SCA runs by binaries
        kept.append(sum(isinstance(key[1], SolverConfig) for key in memo))

    def counting_subproblem(*args):
        rounds.append(1)
        return subproblem(*args)

    monkeypatch.setattr(orchestrator, "retain_memo", measuring_retain)
    monkeypatch.setattr(assign_power, "_subproblem", counting_subproblem)
    sc = load_scenario(QUICK_LOOK)
    first = run_simulation(sc)
    once, once_rounds = _solves_per_block(log), len(rounds)
    # each block ends holding at most the particle and the final answer
    # at the chosen placement, however many particles it scored
    assert kept == [2] * sc.time.blocks
    log.clear()
    rounds.clear()
    second = run_simulation(sc)
    # no answer and no SCA run carried over: every round is run again
    assert _solves_per_block(log) == once and len(rounds) == once_rounds > 0
    for a, b in zip(first, second):
        assert a.alloc is None or a.alloc.power.tobytes() == b.alloc.power.tobytes()
