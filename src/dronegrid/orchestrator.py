"""Mission simulation: ties channel, energy, allocation and placement
together over the discrete block clock.

Block 0 is the initial state: every coverage drone sits at its sector
center with a full battery and nobody is served yet (the fleet spends that
block in transit to the area, billed to block 1's motion energy as one
full-speed move). Each subsequent block runs, in order: powering-drone
replacement, the charge decision, the placement search with its nested
radio solves, and finally the battery recursions and bookkeeping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .assign_power import (
    Allocation,
    RateConstraintParams,
    RateInfeasibleError,
    SolverConfig,
    charge_decisions,
    check_backhaul,
    retain_memo,
    solve_allocation,
)
from .channel import ChannelParams, gain_table, user_rates
from .energy import (
    BatteryParams,
    EnergyParams,
    TimeGrid,
    billed_speed,
    cdbs_battery_step,
    hardware_energy,
    hover_energy,
    pd_battery_step,
)
from .placement import (
    AreaBounds,
    SearchConfig,
    evaluate_particle,
    particle_floor,
    search_positions,
    sector_partition,
)


@dataclass
class Scenario:
    """Everything a run needs. Batteries in joules, geometry in meters.

    pd_energy left as None becomes energy with twice the mass: the
    powering drone hauls the charging payload.
    """

    users: list = field(default_factory=list)
    drones: int = 4
    pd_pool: int = 2
    seed: int = 0
    bounds: AreaBounds = field(default_factory=AreaBounds)
    channel: ChannelParams = field(default_factory=ChannelParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    pd_energy: EnergyParams | None = None
    battery: BatteryParams = field(default_factory=BatteryParams)
    time: TimeGrid = field(default_factory=TimeGrid)
    rates: RateConstraintParams = field(default_factory=RateConstraintParams)
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        if self.pd_energy is None:
            self.pd_energy = dataclasses.replace(self.energy, mass=2 * self.energy.mass)

    def validate(self) -> list:
        """Structural checks; returns every failure, not just the first."""
        errors = []
        if self.seed < 0:
            errors.append(f"seed must be a nonnegative integer, got {self.seed}")
        if self.drones < 1:
            errors.append("drones must be at least 1")
        if self.pd_pool < 0:
            errors.append("pd_pool cannot be negative")
        U = len(self.users)
        need = -(-U // max(self.drones, 1))  # ceil
        if self.rates.subchannels < need:
            errors.append(
                f"subchannels={self.rates.subchannels} cannot cover {U} users with "
                f"{self.drones} drones: every user needs a subchannel, so at least "
                f"{need} are required"
            )
        for ue in self.users:
            if not self.bounds.contains((ue.x, ue.y)):
                errors.append(f"user {ue.uid} at ({ue.x}, {ue.y}) lies outside the area")
        uids = [ue.uid for ue in self.users]
        if len(set(uids)) != len(uids):
            errors.append("duplicate user ids")
        return errors


@dataclass
class PdState:
    """Powering-drone bookkeeping between blocks."""

    battery: float
    position: np.ndarray
    standby_left: int = 0


@dataclass
class BlockResult:
    """Everything observed during one block.

    active_drones is all ones: every drone serves the whole mission, and a
    depleted one ends the run (DepletionError). The field stays because the
    benchmark worker (perfbench/mission.py) still reads it.
    """

    block: int
    positions: np.ndarray
    speeds: np.ndarray
    batteries_start: np.ndarray
    batteries: np.ndarray
    hardware_j: np.ndarray
    hover_j: np.ndarray
    transmit_j: np.ndarray
    user_rate_values: np.ndarray
    charge: np.ndarray
    pd_battery_start: float
    pd_battery: float
    pd_speed: float
    pd_swapped: bool
    active_drones: np.ndarray
    alloc: Allocation | None = None
    sca_iterations: int = 0
    placement_evals: int = 0
    placement_pruned: int = 0
    events: list = field(default_factory=list)


class SimulationError(Exception):
    """A run aborted mid-mission; .results carries the blocks completed."""

    def __init__(self, message: str, results=None):
        super().__init__(message)
        self.results = results or []


class DepletionError(SimulationError):
    def __init__(self, drone: int, block: int, results=None):
        super().__init__(f"drone {drone} battery depleted in block {block}", results)
        self.drone = drone
        self.block = block


class PdDepletedError(SimulationError):
    def __init__(self, block: int, results=None):
        super().__init__(f"powering drone depleted in block {block} with no standby left", results)
        self.block = block


def _initial_result(sc: Scenario, centers: np.ndarray, pd: PdState | None) -> BlockResult:
    D = sc.drones
    U = len(sc.users)
    full = np.full(D, sc.battery.initial)
    return BlockResult(
        block=0,
        positions=centers.copy(),
        speeds=np.zeros(D),
        batteries_start=full.copy(),
        batteries=full.copy(),
        hardware_j=np.zeros(D),
        hover_j=np.zeros(D),
        transmit_j=np.zeros(D),
        user_rate_values=np.zeros(U),
        charge=np.zeros(D, dtype=np.int8),
        pd_battery_start=pd.battery if pd else float("nan"),
        pd_battery=pd.battery if pd else float("nan"),
        pd_speed=0.0,
        pd_swapped=False,
        active_drones=np.ones(D, dtype=bool),
    )


def run_simulation(sc: Scenario) -> list:
    """Run every block; returns the list of BlockResults (block 0 included).

    Raises DepletionError / PdDepletedError / SimulationError with the
    partial trace attached when the mission cannot continue.
    """
    errors = sc.validate()
    if errors:
        raise ValueError("; ".join(errors))

    D = sc.drones
    U = len(sc.users)
    user_pos = np.array([[ue.x, ue.y] for ue in sc.users], dtype=float).reshape(U, 2)
    sectors = sector_partition(sc.bounds, D)
    centers = np.array([s.center for s in sectors])
    half_diag = sectors[0].diagonal / 2
    reach = sc.energy.v_max * sc.time.move_s

    root = np.random.SeedSequence(sc.seed)
    place_seed, charge_seed = root.spawn(2)
    place_rng = np.random.default_rng(place_seed)
    charge_rng = np.random.default_rng(charge_seed)

    pd = None
    if sc.pd_pool > 0:
        pd = PdState(
            battery=sc.battery.pd_initial,
            position=sc.bounds.center,
            standby_left=sc.pd_pool - 1,
        )

    positions = centers.copy()
    batteries = np.full(D, sc.battery.initial)
    results = [_initial_result(sc, centers, pd)]
    # assign_binaries' answers for this mission, reused wherever a block
    # solves the radio problem at gains solved before (see retain_memo below)
    memo = {}

    for n in range(1, sc.time.blocks + 1):
        events = []

        # (i) powering-drone replacement
        pd_swapped = False
        if pd is not None:
            if pd.battery <= sc.battery.pd_threshold:
                if pd.standby_left > 0:
                    pd.standby_left -= 1
                    pd.battery = sc.battery.pd_initial
                    pd.position = sc.bounds.center
                    pd_swapped = True
                    events.append(("pd_swap", "pd", pd.battery))
                else:
                    events.append(("pd_low_no_standby", "pd", pd.battery))
        pd_battery_start = pd.battery if pd else float("nan")

        # (ii) charge decision from start-of-block levels
        charge = np.zeros(D, dtype=np.int8) if pd is None else charge_decisions(batteries, sc.battery, charge_rng)
        for d in np.nonzero(charge)[0]:
            events.append(("charge", f"drone{d}", sc.battery.charge_per_block))

        # (iii) placement search
        def evaluator(cand):
            return evaluate_particle(
                cand, positions, user_pos, sc.channel, sc.energy, sc.time,
                sc.rates, memo,
            )

        new_positions, evals, pruned = search_positions(
            positions, centers, half_diag, evaluator, sc.search, sc.bounds, reach, place_rng,
            bound=lambda cand: particle_floor(
                cand, positions, user_pos, sc.channel, sc.energy, sc.time, sc.rates
            ),
        )
        gains = gain_table(new_positions, user_pos, sc.channel)
        try:
            alloc, sca = solve_allocation(gains, sc.rates, SolverConfig(), sc.channel.noise_power, memo)
        except RateInfeasibleError as err:
            raise SimulationError(f"block {n}: {err}", results) from err
        # keep only the chosen placement's answers: the next block's
        # incumbent stays there, and another placement recurs only by chance
        retain_memo(memo, gains)

        rate_vals = user_rates(alloc.power, gains, sc.channel.noise_power) if U else np.zeros(0)
        bh_ok, sum_rate = check_backhaul(rate_vals, sc.rates)
        if not bh_ok:
            events.append(("backhaul_exceeded", "network", sum_rate))

        # (iv) battery recursions; a depletion still completes the block's
        # accounting, so the partial record obeys the ledgers
        depleted = None
        speeds = np.zeros(D)
        hardware_j = np.zeros(D)
        hover_j = np.zeros(D)
        transmit_j = np.zeros(D)
        batteries_start = batteries.copy()
        new_batteries = batteries.copy()
        for d in range(D):
            disp = float(np.hypot(*(new_positions[d] - positions[d])))
            speeds[d] = billed_speed(disp, sc.energy, sc.time.move_s)
            # block 1 additionally pays the approach flight: full speed for
            # the whole move window, whatever the within-area adjustment was
            energy_speed = sc.energy.v_max if n == 1 else speeds[d]
            hardware_j[d] = hardware_energy(energy_speed, sc.energy, sc.time.move_s)
            hover_j[d] = hover_energy(sc.energy, sc.time)
            tx_power = float(alloc.power[:, d, :].sum())
            transmit_j[d] = tx_power * sc.time.block_s
            new_batteries[d] = cdbs_battery_step(
                batteries[d], energy_speed, tx_power, bool(charge[d]),
                sc.energy, sc.battery, sc.time,
            )
            if new_batteries[d] <= 0.0:
                if depleted is None:
                    depleted = d
            elif new_batteries[d] <= sc.battery.threshold:
                events.append(("below_threshold", f"drone{d}", new_batteries[d]))

        # powering-drone recursion: fly to the charge target (or hold), then
        # subtract whatever it delivered; a target out of reach ends the run
        pd_battery = float("nan")
        pd_speed = 0.0
        if pd is not None:
            target_idx = np.nonzero(charge)[0]
            if target_idx.size:
                target = new_positions[target_idx[0]]
                disp = float(np.hypot(*(target - pd.position)))
                pd_reach = sc.pd_energy.v_max * sc.time.move_s
                if disp > pd_reach:
                    raise SimulationError(f"block {n}: powering drone cannot reach drone {target_idx[0]}: "
                                          f"{disp:.1f} m away, reach {pd_reach:.1f} m", results)
                pd_speed = billed_speed(disp, sc.pd_energy, sc.time.move_s)
                pd.position = target.copy()
            pd.battery = pd_battery_step(
                pd.battery, pd_speed, int(charge.sum()), sc.pd_energy, sc.battery, sc.time
            )
            pd_battery = pd.battery

        positions = new_positions
        batteries = new_batteries
        results.append(BlockResult(
            block=n,
            positions=positions.copy(),
            speeds=speeds,
            batteries_start=batteries_start,
            batteries=batteries.copy(),
            hardware_j=hardware_j,
            hover_j=hover_j,
            transmit_j=transmit_j,
            user_rate_values=rate_vals,
            charge=charge,
            pd_battery_start=pd_battery_start,
            pd_battery=pd_battery,
            pd_speed=pd_speed,
            pd_swapped=pd_swapped,
            active_drones=np.ones(D, dtype=bool),
            alloc=alloc,
            sca_iterations=sca.iteration,
            placement_evals=evals,
            placement_pruned=pruned,
            events=events,
        ))
        if depleted is not None:
            raise DepletionError(depleted, n, results)
        if pd_battery < 0:
            raise PdDepletedError(n, results)
    return results


def audit_run(sc: Scenario, results: list) -> list:
    """Post-run self-audit; returns violation strings (empty = clean).

    Covers the trajectory (bounds, reachability, speed consistency), the
    per-block allocation constraints (Allocation.violations), at most one
    charge per block and its eligibility, rate floors and battery
    conservation.
    """
    violations = list(kinematics_check(results, sc.energy, sc.time, sc.bounds))

    for prev, res in zip(results, results[1:]):
        n = res.block
        if res.alloc is not None:
            for msg in res.alloc.violations(sc.rates):
                violations.append(f"block {n}: {msg}")
        if res.charge.sum() > 1:
            violations.append(f"block {n}: drones {np.nonzero(res.charge)[0].tolist()} charged in one block")
        for d in np.nonzero(res.charge)[0]:
            if res.batteries_start[d] > sc.battery.threshold:
                violations.append(
                    f"block {n}: drone {d} charged at {res.batteries_start[d]:.1f} J, "
                    f"above the {sc.battery.threshold:.1f} J threshold"
                )
        if res.user_rate_values.size:
            worst = float(res.user_rate_values.min())
            if worst < sc.rates.rate_floor - 1e-9:
                violations.append(f"block {n}: user rate {worst:.9f} below the floor")
        for d in range(res.batteries.shape[0]):
            drain = res.hardware_j[d] + res.hover_j[d] + res.transmit_j[d]
            gain = sc.battery.charge_per_block * float(res.charge[d])
            expect = max(prev.batteries[d] - drain + gain, 0.0)
            if abs(res.batteries[d] - expect) > 1e-9 * max(1.0, expect):
                violations.append(
                    f"block {n}: drone {d} battery {res.batteries[d]:.3f} J != "
                    f"recursion value {expect:.3f} J"
                )
        if not np.isnan(res.pd_battery):
            charges = int(res.charge.sum())
            expect_pd = (
                res.pd_battery_start
                - hardware_energy(res.pd_speed, sc.pd_energy, sc.time.move_s)
                - hover_energy(sc.pd_energy, sc.time)
                - charges * sc.battery.charge_per_block
            )
            if abs(res.pd_battery - expect_pd) > 1e-9 * max(1.0, abs(expect_pd)):
                violations.append(
                    f"block {n}: powering-drone battery {res.pd_battery:.3f} J != "
                    f"recursion value {expect_pd:.3f} J"
                )
    return violations


def kinematics_check(results: list, ep: EnergyParams, tg: TimeGrid, bounds: AreaBounds) -> list:
    """Audit the trajectory: every position in bounds, every per-block
    displacement consistent with the reported speed, every speed within
    [0, v_max]. Returns a list of violation strings (empty = clean)."""
    violations = []
    for res in results:
        for d, pos in enumerate(res.positions):
            if not bounds.contains(pos):
                violations.append(f"block {res.block}: drone {d} at {pos.tolist()} is outside the area")
    for prev, cur in zip(results, results[1:]):
        for d in range(cur.positions.shape[0]):
            disp = float(np.hypot(*(cur.positions[d] - prev.positions[d])))
            speed = float(cur.speeds[d])
            if speed < -1e-12 or speed > ep.v_max + 1e-9:
                violations.append(f"block {cur.block}: drone {d} speed {speed:.3f} outside [0, {ep.v_max}]")
            expected = speed * tg.move_s
            if abs(disp - expected) > 1e-6 * max(1.0, disp):
                violations.append(
                    f"block {cur.block}: drone {d} moved {disp:.3f} m but reported "
                    f"speed {speed:.3f} m/s implies {expected:.3f} m"
                )
    return violations
