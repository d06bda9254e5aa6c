"""Discrete-time simulator and optimizer for a grid of aerial base
stations serving ground users after infrastructure loss, with a powering
drone that tops up depleted units between blocks.

Layers, bottom up: channel (geometry to rates), energy (motion, hover,
batteries), assign_power (user/subchannel binaries plus convexified power
minimization), placement (sectored particle search over positions),
orchestrator (multi-block mission loop), scenario_io (files, traces, CLI).
"""

from .assign_power import (
    Allocation,
    RateConstraintParams,
    RateInfeasibleError,
    ScaState,
    SolverConfig,
    assign_binaries,
    charge_decisions,
    check_backhaul,
    linearization_admits,
    sca_rate_upper_bound,
    solve_allocation,
    solve_power_given_binaries,
    transmit_power_floor,
)
from .channel import (
    ChannelParams,
    UserEquipment,
    gain_table,
    interference_table,
    rate_table,
    sinr_table,
    subchannel_rate,
    user_rates,
)
from .energy import (
    BatteryParams,
    EnergyParams,
    TimeGrid,
    cdbs_battery_step,
    hardware_energy,
    hover_energy,
    hover_power,
    pd_battery_step,
)
from .orchestrator import (
    BlockResult,
    DepletionError,
    PdDepletedError,
    Scenario,
    SimulationError,
    audit_run,
    kinematics_check,
    run_simulation,
)
from .placement import (
    AreaBounds,
    SearchConfig,
    evaluate_particle,
    generate_particles,
    particle_floor,
    search_positions,
    sector_partition,
    shrink_and_realign,
)
from .scenario_io import (
    ScenarioError,
    cli_main,
    draw_users,
    emit_traces,
    load_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AreaBounds",
    "BatteryParams",
    "BlockResult",
    "ChannelParams",
    "DepletionError",
    "EnergyParams",
    "PdDepletedError",
    "RateConstraintParams",
    "RateInfeasibleError",
    "ScaState",
    "Scenario",
    "ScenarioError",
    "SearchConfig",
    "SimulationError",
    "SolverConfig",
    "TimeGrid",
    "UserEquipment",
    "assign_binaries",
    "audit_run",
    "cdbs_battery_step",
    "charge_decisions",
    "check_backhaul",
    "cli_main",
    "draw_users",
    "emit_traces",
    "evaluate_particle",
    "gain_table",
    "generate_particles",
    "hardware_energy",
    "hover_energy",
    "hover_power",
    "interference_table",
    "kinematics_check",
    "linearization_admits",
    "load_scenario",
    "particle_floor",
    "pd_battery_step",
    "rate_table",
    "run_simulation",
    "sca_rate_upper_bound",
    "search_positions",
    "sector_partition",
    "serialize_scenario",
    "shrink_and_realign",
    "sinr_table",
    "solve_allocation",
    "solve_power_given_binaries",
    "subchannel_rate",
    "transmit_power_floor",
    "user_rates",
]
