"""Drone energy and battery bookkeeping.

Each time block splits into a short repositioning window followed by a
hover-and-serve window. Hardware (motion) energy grows linearly with the
commanded speed, hover power follows the ideal induced-power law for a
multirotor, and transmit energy is the allocated RF power integrated over
the block. Battery levels follow a per-block recursion: coverage drones
drain by all three terms and gain a fixed quantum when the powering drone
charges them; the powering drone drains by its own flight costs plus every
quantum it delivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EnergyParams:
    """Airframe constants for one drone class.

    mass: total takeoff mass, kg (frame + payload + battery).
    gravity: m/s^2.
    air_density: kg/m^3.
    prop_radius: propeller radius, meters.
    prop_count: number of propellers.
    power_full: hardware power at top speed, watts.
    power_idle: hardware power when holding position, watts.
    v_max: top horizontal speed, m/s.
    """

    mass: float = 1.5
    gravity: float = 9.81
    air_density: float = 1.225
    prop_radius: float = 0.15
    prop_count: int = 4
    power_full: float = 5.0
    power_idle: float = 0.0
    v_max: float = 20.0

    def __post_init__(self):
        if min(self.mass, self.gravity, self.air_density, self.prop_radius) <= 0:
            raise ValueError("mass, gravity, air_density, prop_radius must be positive")
        if self.prop_count < 1:
            raise ValueError("prop_count must be at least 1")
        if not 0 <= self.power_idle <= self.power_full:
            raise ValueError("need 0 <= power_idle <= power_full")
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")


@dataclass(frozen=True)
class TimeGrid:
    """Discrete mission clock: `blocks` blocks of block_s seconds, each
    starting with a move window of move_s seconds."""

    blocks: int = 6
    block_s: float = 480.0
    move_s: float = 30.0

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        if self.block_s < 0 or not 0 <= self.move_s <= self.block_s:
            raise ValueError("need 0 <= move_s <= block_s")

    @property
    def total_s(self) -> float:
        """Mission duration; equals blocks * block_s by construction."""
        return self.blocks * self.block_s


@dataclass(frozen=True)
class BatteryParams:
    """Battery capacities, thresholds and the per-block charge quantum (joules)."""

    initial: float = 200e3
    pd_initial: float = 400e3
    threshold: float = 100e3
    pd_threshold: float = 100e3
    charge_per_block: float = 50e3

    def __post_init__(self):
        for name in ("initial", "pd_initial", "threshold", "pd_threshold", "charge_per_block"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.threshold >= self.initial:
            raise ValueError("threshold must be below the initial charge")
        if self.pd_threshold >= self.pd_initial:
            raise ValueError("pd_threshold must be below pd_initial")


def billed_speed(disp: float, ep: EnergyParams, move_s: float) -> float:
    """Speed billed for a displacement of disp meters within one move
    window: disp / move_s, capped at v_max; 0 when the window is empty."""
    return min(disp / move_s, ep.v_max) if move_s > 0 else 0.0


def hardware_energy(speed: float, ep: EnergyParams, move_s: float) -> float:
    """Avionics/motion energy for one move window at the given speed.

    Power interpolates linearly from power_idle at rest to power_full at
    v_max. Speeds outside [0, v_max] are rejected rather than clipped so
    kinematics bugs surface early.
    """
    if not 0.0 <= speed <= ep.v_max * (1 + 1e-12):
        raise ValueError(f"speed {speed} outside [0, {ep.v_max}]")
    power = (ep.power_full - ep.power_idle) / ep.v_max * speed + ep.power_idle
    return power * move_s


def hover_power(ep: EnergyParams) -> float:
    """Induced power to hold altitude: sqrt(W^3 / (2 pi r^2 n rho)) for
    weight W = mass * gravity spread over n rotor disks."""
    weight = ep.mass * ep.gravity
    disk = 2.0 * math.pi * ep.prop_radius**2 * ep.prop_count * ep.air_density
    return math.sqrt(weight**3 / disk)


def hover_energy(ep: EnergyParams, tg: TimeGrid) -> float:
    """Hover energy for the serve window of one block."""
    return hover_power(ep) * (tg.block_s - tg.move_s)


def cdbs_battery_step(
    prev: float,
    speed: float,
    tx_power: float,
    charged: bool,
    ep: EnergyParams,
    bp: BatteryParams,
    tg: TimeGrid,
) -> float:
    """One block of the coverage-drone battery recursion.

    prev: level at the start of the block, joules. tx_power: this drone's
    summed transmit watts. charged: whether the powering drone tops it up
    this block. The level is floored at zero; a zero return means the drone
    depleted mid-block and the caller decides whether that aborts the run.
    """
    drain = hardware_energy(speed, ep, tg.move_s) + hover_energy(ep, tg) + tx_power * tg.block_s
    level = prev - drain + (bp.charge_per_block if charged else 0.0)
    return max(level, 0.0)


def pd_battery_step(
    prev: float,
    speed: float,
    charges: int,
    ep_pd: EnergyParams,
    bp: BatteryParams,
    tg: TimeGrid,
) -> float:
    """One block of the powering-drone battery recursion.

    charges: number of charge quanta delivered this block (the scheduler
    allows at most one). Returns the raw level, which may be negative; a
    negative level means the swap logic failed to retire the drone in time
    and the caller must treat it as a simulation error.
    """
    drain = hardware_energy(speed, ep_pd, tg.move_s) + hover_energy(ep_pd, tg)
    return prev - drain - charges * bp.charge_per_block
