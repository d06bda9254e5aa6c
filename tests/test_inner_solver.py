"""The convexified power subproblem's log-barrier solver.

`_subproblem` is checked against `slsqp_subproblem`, an SLSQP referee in
`_oracles.py`: on random instances its answer must meet every surrogate
floor, cap and sign constraint exactly and cost no more than the
referee's, and phase I must find interior points from infeasible anchors
and reject subproblems that have none. Degenerate shapes must not break
the Newton solve.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _oracles import random_binaries, slsqp_subproblem
from dronegrid import RateConstraintParams, RateInfeasibleError, SolverConfig
from dronegrid.assign_power import (
    _build_struct,
    _phase_one,
    _probe_start,
    _subproblem,
    solve_power_given_binaries,
)

NOISE = 1e-10
SRC = Path(__file__).resolve().parent.parent / "src"


def _surrogate_slack(st, y, rcp, x):
    """Per-user surrogate rate minus the floor, anchored at y."""
    lin, base = st.interference_bound(y)
    num = st.den @ x + st.g_own * x + st.noise
    return st.agg @ np.log2(num) - lin @ x - base - rcp.rate_floor


def _assert_feasible(st, y, rcp, x):
    assert np.all(_surrogate_slack(st, y, rcp, x) >= 0)
    assert np.all(st.cap_mat @ x <= rcp.max_power)
    assert np.all(x >= 0)


def _random_instance(rng):
    """Random binaries, gains, rate floor and an anchor within the caps."""
    U, D, M = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    gains = rng.uniform(1e-8, 1e-6, (U, D))
    assoc, chan = random_binaries(rng, U, D, M)
    rcp = RateConstraintParams(rate_floor=float(rng.uniform(0.2, 6.0)), subchannels=M)
    st = _build_struct(assoc, chan, gains, NOISE)
    loads = st.cap_mat.sum(axis=1)[st.td]
    y = rng.uniform(0.0, 1.0, st.n) * rcp.max_power / loads
    return st, y, rcp


def test_barrier_meets_the_constraints_and_matches_slsqp():
    rng = np.random.default_rng(51)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        st, y, rcp = _random_instance(rng)
        x, ok = _subproblem(st, y, rcp)
        x_ref, ok_ref = slsqp_subproblem(st, y, rcp)
        if ok:
            _assert_feasible(st, y, rcp, x)
        if ok_ref:
            assert ok
            assert x.sum() <= x_ref.sum() * (1 + 1e-6)
        outcomes[ok] += 1
    assert min(outcomes.values()) >= 50  # both outcomes well represented


def test_phase_one_reaches_the_interior_from_an_infeasible_anchor():
    rng = np.random.default_rng(52)
    checked = 0
    for _ in range(80):
        st, y, rcp = _random_instance(rng)
        y = y * 1e-4  # a starved anchor: its own rates miss the floor
        if _surrogate_slack(st, y, rcp, y).min() >= 0:
            continue
        x_ref, ok_ref = slsqp_subproblem(st, y, rcp)
        if not ok_ref:
            continue
        x, ok = _subproblem(st, y, rcp)
        assert ok
        _assert_feasible(st, y, rcp, x)
        assert x.sum() <= x_ref.sum() * (1 + 1e-6)
        checked += 1
    assert checked >= 20


def test_infeasible_subproblem_fails_and_the_probe_names_the_users():
    # a 1e-3 SNR at full power cannot carry 8 bps/Hz
    gains = np.full((2, 1), 1e-13)
    rcp = RateConstraintParams(rate_floor=8.0, subchannels=2, max_power=1.0)
    assoc = np.ones((2, 1), dtype=np.int8)
    chan = np.zeros((2, 1, 2), dtype=np.int8)
    chan[0, 0, 0] = 1
    chan[1, 0, 1] = 1
    st = _build_struct(assoc, chan, gains, NOISE)
    y = np.full(st.n, 0.4)
    _, ok = _subproblem(st, y, rcp)
    assert not ok
    lin, base = st.interference_bound(y)
    _, interior = _phase_one(st, lin, base + rcp.rate_floor, rcp.max_power, y)
    assert not interior  # phase I itself proves it, not only phase II's failure
    _, feasible, violators = _probe_start(st, rcp)
    assert not feasible and violators
    with pytest.raises(RateInfeasibleError) as err:
        solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    assert list(err.value.users) == violators


@pytest.mark.parametrize("anchor", [0.5, 1e-9])
def test_single_variable_hits_the_closed_form(anchor):
    # n = 1, no interference: the surrogate is exact, p = (2^r - 1) N / g
    st = _build_struct(np.ones((1, 1), dtype=np.int8), np.ones((1, 1, 1), dtype=np.int8),
                       np.array([[1e-7]]), NOISE)
    rcp = RateConstraintParams(rate_floor=1.5, subchannels=1)
    x, ok = _subproblem(st, np.array([anchor]), rcp)
    expect = (2.0**1.5 - 1.0) * NOISE / 1e-7
    assert ok
    assert expect <= x[0] <= expect * (1 + 1e-6)


def test_single_user_splits_evenly_over_equal_subchannels():
    st = _build_struct(np.ones((1, 1), dtype=np.int8), np.ones((1, 1, 4), dtype=np.int8),
                       np.array([[1e-7]]), NOISE)
    rcp = RateConstraintParams(rate_floor=6.0, subchannels=4)
    x, ok = _subproblem(st, np.array([0.3, 0.01, 0.01, 1e-6]), rcp)
    expect = (2.0**1.5 - 1.0) * NOISE / 1e-7
    assert ok
    np.testing.assert_allclose(x, expect, rtol=1e-6)


def test_power_whose_optimum_is_zero():
    # user 0 holds both subchannels of drone 0; on subchannel 1 it would
    # meet user 1's signal, so all its power belongs on subchannel 0
    assoc = np.array([[1, 0], [0, 1]], dtype=np.int8)
    chan = np.zeros((2, 2, 2), dtype=np.int8)
    chan[0, 0, :] = 1
    chan[1, 1, 1] = 1
    gains = np.full((2, 2), 1e-7)
    rcp = RateConstraintParams(rate_floor=2.0, subchannels=2)
    st = _build_struct(assoc, chan, gains, NOISE)
    y = np.full(st.n, 1e-3)
    x, ok = _subproblem(st, y, rcp)
    x_ref, ok_ref = slsqp_subproblem(st, y, rcp)
    assert ok and ok_ref
    _assert_feasible(st, y, rcp, x)
    assert x[1] <= 1e-6 * x.sum()
    assert x.sum() <= x_ref.sum() * (1 + 1e-6)


def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import dronegrid, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


def test_tilted_first_anchor_breaks_subchannel_symmetry(monkeypatch):
    # five users on four drones with four subchannels each: _deal_channels
    # leaves subchannels that meet the same co-channel users interchangeable.
    # From a flat anchor the exact solves keep treating them alike and the
    # SCA stalls on a symmetric stationary point; the tilt lets it put each
    # user's power where it meets less interference
    from dronegrid import assign_power

    rng = np.random.default_rng(9)
    gains = rng.uniform(1e-9, 1e-6, (5, 4))
    rcp = RateConstraintParams(rate_floor=2.0, subchannels=4)
    assoc, chan = assign_power._greedy_binaries(gains, rcp)
    tilted, _ = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), 1e-8)
    monkeypatch.setattr(assign_power, "_TILT", 0.0)
    flat, _ = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), 1e-8)
    assert tilted.sum() < 0.5 * flat.sum()


def test_phase_one_never_rejects_what_slsqp_solves_at_the_boundary():
    # raise each instance's floor by bisection to the edge of what the
    # referee can meet, then start phase I from a starved anchor with the
    # floor 1e-4 below that edge: there an infeasibility verdict resting
    # on a poorly centred point would be wrong
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(24):
        st, y, rcp = _random_instance(rng)
        y = y * 1e-4
        # no user can beat its interference-free rate at full power
        lo, hi = 0.0, (st.agg @ np.log2(1.0 + st.g_own * rcp.max_power / st.noise)).min()
        for _ in range(9):
            mid = 0.5 * (lo + hi)
            trial = RateConstraintParams(rate_floor=mid, subchannels=rcp.subchannels)
            if slsqp_subproblem(st, y, trial)[1]:
                lo = mid
            else:
                hi = mid
        if lo == 0.0:
            continue
        edge = RateConstraintParams(rate_floor=lo - 1e-4, subchannels=rcp.subchannels)
        if _surrogate_slack(st, y, edge, y).min() >= 0:
            continue  # the anchor is feasible, phase I would not run
        lin, base = st.interference_bound(y)
        x, interior = _phase_one(st, lin, base + edge.rate_floor, edge.max_power, y)
        assert interior
        assert _surrogate_slack(st, y, edge, x).min() > 0
        x, ok = _subproblem(st, y, edge)
        assert ok
        _assert_feasible(st, y, edge, x)
        checked += 1
    assert checked >= 15
