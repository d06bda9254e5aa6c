import math

import numpy as np
import pytest

from dronegrid import (
    BatteryParams,
    EnergyParams,
    TimeGrid,
    cdbs_battery_step,
    hardware_energy,
    hover_energy,
    hover_power,
    pd_battery_step,
)
from dronegrid.energy import billed_speed

# reference parameter set used throughout: 1.5 kg quad, 0.127 m props
EP_127 = EnergyParams(prop_radius=0.127)
EP_PD_127 = EnergyParams(mass=3.0, prop_radius=0.127)
TG = TimeGrid(blocks=6, block_s=480.0, move_s=30.0)


def test_hardware_energy_at_rest_is_idle_power():
    ep = EnergyParams(power_full=5.0, power_idle=0.0, v_max=20.0)
    assert hardware_energy(0.0, ep, 30.0) == 0.0
    ep_idle = EnergyParams(power_full=5.0, power_idle=1.0, v_max=20.0)
    assert hardware_energy(0.0, ep_idle, 30.0) == pytest.approx(30.0, rel=1e-12)


def test_hardware_energy_midpoint():
    # halfway speed: (5-0)/20*10 * 30 s = 75 J
    ep = EnergyParams(power_full=5.0, power_idle=0.0, v_max=20.0)
    assert hardware_energy(10.0, ep, 30.0) == pytest.approx(75.0, rel=1e-12)


def test_hardware_energy_endpoint():
    ep = EnergyParams(power_full=5.0, power_idle=0.0, v_max=20.0)
    assert hardware_energy(20.0, ep, 30.0) == pytest.approx(150.0, rel=1e-12)


def test_hardware_energy_rejects_out_of_range_speed():
    ep = EnergyParams()
    with pytest.raises(ValueError):
        hardware_energy(-0.1, ep, 30.0)
    with pytest.raises(ValueError):
        hardware_energy(ep.v_max * 1.01, ep, 30.0)


def test_hardware_energy_random_draws_match_direct_formula():
    rng = np.random.default_rng(21)
    for _ in range(100):
        ep = EnergyParams(
            power_full=float(rng.uniform(2.0, 50.0)),
            power_idle=float(rng.uniform(0.0, 2.0)),
            v_max=float(rng.uniform(5.0, 40.0)),
        )
        v = float(rng.uniform(0.0, ep.v_max))
        t = float(rng.uniform(1.0, 120.0))
        expect = ((ep.power_full - ep.power_idle) / ep.v_max * v + ep.power_idle) * t
        assert hardware_energy(v, ep, t) == pytest.approx(expect, rel=1e-12)


def test_hover_power_reference_masses():
    # sqrt((m g)^3 / (2 pi r^2 n rho)) for the 1.5 kg and 3.0 kg builds
    assert hover_power(EP_127) == pytest.approx(80.10298580032313, rel=1e-12)
    assert hover_power(EP_PD_127) == pytest.approx(226.56545781079285, rel=1e-12)


def test_hover_power_default_radius():
    assert hover_power(EnergyParams()) == pytest.approx(67.82052797760691, rel=1e-12)
    assert hover_power(EnergyParams(mass=3.0)) == pytest.approx(191.82542094647127, rel=1e-12)


def test_hover_power_scaling_laws():
    # power ~ mass^(3/2) and ~ 1/radius
    base = hover_power(EP_127)
    heavy = hover_power(EnergyParams(mass=6.0, prop_radius=0.127))
    assert heavy / base == pytest.approx(4.0**1.5, rel=1e-12)
    wide = hover_power(EnergyParams(prop_radius=0.254))
    assert wide / base == pytest.approx(0.5, rel=1e-12)


def test_hover_power_random_draws_match_direct_formula():
    rng = np.random.default_rng(22)
    for _ in range(100):
        ep = EnergyParams(
            mass=float(rng.uniform(0.5, 10.0)),
            gravity=float(rng.uniform(9.0, 10.0)),
            air_density=float(rng.uniform(1.0, 1.4)),
            prop_radius=float(rng.uniform(0.05, 0.5)),
            prop_count=int(rng.integers(2, 9)),
        )
        w = ep.mass * ep.gravity
        expect = math.sqrt(w**3 / (2 * math.pi * ep.prop_radius**2 * ep.prop_count * ep.air_density))
        assert hover_power(ep) == pytest.approx(expect, rel=1e-12)


def test_hover_energy_serve_window():
    # hover power applies to the block minus the move window
    assert hover_energy(EP_127, TG) == pytest.approx(36046.343610145406, rel=1e-12)
    assert hover_energy(EP_PD_127, TG) == pytest.approx(101954.45601485678, rel=1e-12)


def test_hover_energy_zero_window():
    tg = TimeGrid(blocks=1, block_s=30.0, move_s=30.0)
    assert hover_energy(EP_127, tg) == 0.0


def test_hover_energy_linear_in_window():
    tg_half = TimeGrid(blocks=6, block_s=255.0, move_s=30.0)  # window 225 = 450/2
    assert hover_energy(EP_127, tg_half) == pytest.approx(hover_energy(EP_127, TG) / 2, rel=1e-12)


def test_billed_speed_is_displacement_over_window_capped_at_v_max():
    ep = EnergyParams(v_max=20.0)
    assert billed_speed(300.0, ep, 30.0) == 10.0
    assert billed_speed(0.0, ep, 30.0) == 0.0
    assert billed_speed(900.0, ep, 30.0) == 20.0  # capped
    assert billed_speed(300.0, ep, 0.0) == 0.0  # no move window


def test_cdbs_step_hover_only_block():
    bp = BatteryParams()
    level = cdbs_battery_step(200e3, 0.0, 0.0, False, EP_127, bp, TG)
    assert level == pytest.approx(200e3 - 36046.343610145406, rel=1e-12)


def test_cdbs_step_charge_adds_quantum():
    bp = BatteryParams()
    plain = cdbs_battery_step(200e3, 0.0, 0.0, False, EP_127, bp, TG)
    topped = cdbs_battery_step(200e3, 0.0, 0.0, True, EP_127, bp, TG)
    assert topped - plain == pytest.approx(bp.charge_per_block, rel=1e-12)


def test_cdbs_step_floors_at_zero():
    bp = BatteryParams()
    assert cdbs_battery_step(10e3, 0.0, 0.0, False, EP_127, bp, TG) == 0.0


def test_cdbs_step_zero_duration_block_is_identity():
    bp = BatteryParams()
    tg = TimeGrid(blocks=1, block_s=1e-9, move_s=0.0)
    assert cdbs_battery_step(200e3, 0.0, 0.0, False, EP_127, bp, tg) == pytest.approx(
        200e3, rel=1e-9
    )


def test_cdbs_step_random_conservation():
    rng = np.random.default_rng(23)
    bp = BatteryParams()
    for _ in range(100):
        prev = float(rng.uniform(150e3, 300e3))
        v = float(rng.uniform(0.0, EP_127.v_max))
        tx = float(rng.uniform(0.0, 2.0))
        charged = bool(rng.integers(0, 2))
        level = cdbs_battery_step(prev, v, tx, charged, EP_127, bp, TG)
        drain = (
            hardware_energy(v, EP_127, TG.move_s)
            + hover_energy(EP_127, TG)
            + tx * TG.block_s
        )
        expect = prev - drain + (bp.charge_per_block if charged else 0.0)
        assert level == pytest.approx(max(expect, 0.0), rel=1e-12)


def test_pd_step_one_charge_block():
    bp = BatteryParams()
    level = pd_battery_step(400e3, 0.0, 1, EP_PD_127, bp, TG)
    assert level == pytest.approx(400e3 - 101954.45601485678 - 50e3, rel=1e-12)


def test_pd_step_no_charge_only_self_consumption():
    bp = BatteryParams()
    level = pd_battery_step(400e3, 0.0, 0, EP_PD_127, bp, TG)
    assert level == pytest.approx(400e3 - 101954.45601485678, rel=1e-12)


def test_pd_step_can_go_negative():
    # the raw recursion is returned; retiring the drone is the caller's job
    bp = BatteryParams()
    level = pd_battery_step(90e3, 0.0, 1, EP_PD_127, bp, TG)
    assert level < 0


def test_timegrid_total_and_validation():
    assert TG.total_s == pytest.approx(2880.0)
    with pytest.raises(ValueError):
        TimeGrid(blocks=0)
    with pytest.raises(ValueError):
        TimeGrid(block_s=100.0, move_s=200.0)


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(mass=0.0)
    with pytest.raises(ValueError):
        EnergyParams(power_full=1.0, power_idle=2.0)
    with pytest.raises(ValueError):
        EnergyParams(power_idle=-0.5)


def test_battery_params_validation():
    with pytest.raises(ValueError):
        BatteryParams(threshold=250e3)  # above initial
    with pytest.raises(ValueError):
        BatteryParams(charge_per_block=0.0)
