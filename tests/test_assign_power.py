import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    draw_tight_instance,
    grid_oracle,
    interference_term,
    loop_struct,
    random_binaries,
    sca_rate_upper_bound,
)
from dronegrid import (
    Allocation,
    BatteryParams,
    ChannelParams,
    RateConstraintParams,
    RateInfeasibleError,
    SolverConfig,
    assign_binaries,
    charge_decisions,
    check_backhaul,
    cli_main,
    gain_table,
    interference_table,
    sinr_table,
    solve_allocation,
    solve_power_given_binaries,
    transmit_power_floor,
    user_rates,
)
from dronegrid.assign_power import (
    _assignment_floor,
    _build_struct,
    _deal_channels,
    _greedy_binaries,
    _neighbours,
    _probe_start,
    _split_deals,
    _water_filling_power,
    retain_memo,
)

NOISE = 1e-10


def _random_setup(rng, U=3, D=2, M=3):
    """Gains, random binaries and powers living on the assigned triples."""
    gains = rng.uniform(1e-8, 1e-6, (U, D))
    assoc, chan = random_binaries(rng, U, D, M)
    power = rng.uniform(0.0, 0.3, (U, D, M)) * chan
    return gains, assoc, chan, power


def test_rate_split_reassembles_plain_rate():
    # the difference-of-logs form: log2 of everything received, minus the
    # interference term the solver linearizes (here the surrogate at its
    # own anchor), must match the summed log2(1 + SINR) rates
    rng = np.random.default_rng(31)
    for _ in range(50):
        gains, assoc, chan, power = _random_setup(rng)
        own = np.einsum("ud,udm->um", gains, power)
        held = (assoc[:, :, None] * chan).sum(axis=1)
        r1 = (held * np.log2(own + interference_table(power, gains, NOISE))).sum(axis=1)
        r2 = sca_rate_upper_bound(assoc, chan, power, power, gains, NOISE)
        np.testing.assert_allclose(r1 - r2, user_rates(power, gains, NOISE), rtol=0, atol=1e-12)


def test_sca_bound_tight_at_reference():
    rng = np.random.default_rng(32)
    for _ in range(100):
        gains, assoc, chan, ref = _random_setup(rng)
        r2 = interference_term(assoc, chan, ref, gains, NOISE)
        bound = sca_rate_upper_bound(assoc, chan, ref, ref, gains, NOISE)
        np.testing.assert_allclose(bound, r2, rtol=1e-12, atol=1e-12)


def test_sca_bound_dominates_everywhere():
    rng = np.random.default_rng(33)
    for _ in range(25):
        gains, assoc, chan, ref = _random_setup(rng)
        for _ in range(100):
            power = rng.uniform(0.0, 1.0, ref.shape) * chan
            r2 = interference_term(assoc, chan, power, gains, NOISE)
            bound = sca_rate_upper_bound(assoc, chan, power, ref, gains, NOISE)
            assert np.all(bound >= r2 - 1e-12 * np.maximum(1.0, np.abs(r2)))


def test_packed_layout_matches_loop_construction():
    # the (u, d, m) order of the triples is the solver's variable order,
    # which the byte-identical traces rest on
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(100):
        U, D, M = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        gains = rng.uniform(1e-8, 1e-6, (U, D))
        assoc, chan = random_binaries(rng, U, D, M)
        chan[rng.random(U) < 0.2] = 0  # some users go unserved
        cases.append((assoc, chan, gains))
    cases.append((assoc, np.zeros_like(chan), gains))  # nobody holds a subchannel
    for assoc, chan, gains in cases:
        st = _build_struct(assoc, chan, gains, NOISE)
        for name, want in loop_struct(assoc, chan, gains).items():
            got = getattr(st, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
        x = rng.uniform(0.0, 1.0, st.n)
        assert np.array_equal(st.pack(st.scatter(x)), x)
        full = rng.uniform(0.0, 1.0, st.shape)
        back = st.scatter(st.pack(full))
        held = (assoc[:, :, None] != 0) & (chan != 0)
        assert np.array_equal(back[held], full[held]) and not back[~held].any()
    assert st.n == 0


def _iterated_probe(st, rcp):
    """The equal-split power-control iteration x <- need (den x + N) / g_own
    from zero, run until it settles (returns x) or passes 1e6 max_power
    (returns None: it diverges, or converges far outside every cap)."""
    need = st.agg.T @ (2.0 ** (rcp.rate_floor / st.agg.sum(axis=1)) - 1.0)
    x = np.zeros(st.n)
    for _ in range(200_000):
        x_new = need * (st.den @ x + st.noise) / st.g_own
        if np.all(np.abs(x_new - x) <= 1e-15 * x_new):
            return x_new
        if not np.all(x_new < 1e6 * rcp.max_power):
            return None
        x = x_new
    raise AssertionError("the iteration neither settled nor diverged")


def test_probe_is_the_limit_of_the_power_control_iteration():
    rng = np.random.default_rng(42)
    outcomes = {"feasible": 0, "breach": 0, "diverged": 0}
    for _ in range(300):
        U, D, M = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        gains = 10.0 ** rng.uniform(-12.0, -6.0, (U, D))
        assoc, chan = random_binaries(rng, U, D, M)
        rcp = RateConstraintParams(rate_floor=float(rng.uniform(0.1, 4.0)), subchannels=M)
        st = _build_struct(assoc, chan, gains, NOISE)
        x, feasible, violators = _probe_start(st, rcp)
        x_ref = _iterated_probe(st, rcp)
        if x_ref is None:
            outcomes["diverged"] += 1
            assert not feasible
        else:
            outcomes["feasible" if feasible else "breach"] += 1
            np.testing.assert_allclose(x, x_ref, rtol=1e-10, atol=0)
        if feasible:
            assert np.all(np.isfinite(x)) and violators == []
        elif np.all(np.isfinite(x)):
            assert violators  # a cap or box breach names its users
        else:
            # no finite equal split: every user holding a triple is named
            assert np.all(x == np.inf) and violators == st.users.tolist()
    assert min(outcomes.values()) > 0, outcomes

    # no floor: nothing to transmit
    x, feasible, violators = _probe_start(st, RateConstraintParams(rate_floor=0.0, subchannels=M))
    assert feasible and violators == [] and np.array_equal(x, np.zeros(st.n))

    # user 0 alone on drone 0 needs about 2 W (box breach); users 1 and 2
    # share drone 1 at about 0.6 W each (cap breach, each within the box)
    assoc = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.int8)
    chan = np.zeros((3, 2, 2), dtype=np.int8)
    chan[0, 0, 0] = chan[1, 1, 0] = chan[2, 1, 1] = 1
    gains = np.array([[0.5e-10, 1e-12], [1e-12, 1e-10 / 0.6], [1e-12, 1e-10 / 0.6]])
    st = _build_struct(assoc, chan, gains, NOISE)
    x, feasible, violators = _probe_start(st, RateConstraintParams(rate_floor=1.0, subchannels=2))
    assert not feasible
    assert x[0] > 1.0 and x[1] < 1.0 and x[2] < 1.0 and x[1] + x[2] > 1.0
    assert violators == [0, 1, 2]


def test_probe_meets_a_tiny_floor_to_the_last_digits():
    # at r = 1e-9 the SINR need 2^r - 1 = expm1(ln2 r) is 6.93147181e-10;
    # computed as 2.0 ** r - 1.0 it comes out 1.2e-7 relative too low
    rate = 1e-9
    rcp = RateConstraintParams(rate_floor=rate, subchannels=1)
    gains = np.full((1, 1), 3e-7)
    st = _build_struct(np.ones((1, 1), dtype=np.int8), np.ones((1, 1, 1), dtype=np.int8), gains, NOISE)
    x, feasible, _ = _probe_start(st, rcp)
    need = math.expm1(math.log(2.0) * rate)
    assert feasible
    assert x[0] * gains[0, 0] / NOISE == pytest.approx(need, rel=1e-14, abs=0)


def test_single_user_single_channel_closed_form():
    # min p s.t. log2(1 + p*Gamma/sigma^2) >= 0.5 has the explicit solution
    # p = (2^0.5 - 1) sigma^2 / Gamma
    cp = ChannelParams()
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=1)
    gains = gain_table(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), cp)
    assoc = np.ones((1, 1), dtype=np.int8)
    chan = np.ones((1, 1, 1), dtype=np.int8)
    power, state = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    expect = (2.0**0.5 - 1.0) * NOISE / gains[0, 0]
    assert expect == pytest.approx(4.142135623730952e-05, rel=1e-12)
    assert power.sum() == pytest.approx(expect, rel=1e-6)
    assert state.converged


def test_zero_floor_needs_zero_power():
    rcp = RateConstraintParams(rate_floor=0.0, subchannels=2)
    gains = np.array([[1e-6, 5e-7], [5e-7, 1e-6]])
    assoc = np.array([[1, 0], [0, 1]], dtype=np.int8)
    chan = np.zeros((2, 2, 2), dtype=np.int8)
    chan[0, 0, 0] = 1
    chan[1, 1, 1] = 1
    power, state = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    assert power.sum() == 0.0
    assert state.objective == 0.0


def test_sca_trace_never_increases():
    rng = np.random.default_rng(35)
    for _ in range(10):
        gains = rng.uniform(1e-8, 1e-6, (4, 2))
        rcp = RateConstraintParams(rate_floor=1.0, subchannels=4)
        alloc, state = solve_allocation(gains, rcp, SolverConfig(), NOISE)
        trace = state.objective_trace
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1 + 1e-9)


@pytest.mark.parametrize("subchannels", [1, 3])
def test_sca_keeps_the_round_before_a_rise_on_a_tiny_objective(monkeypatch, subchannels):
    # one user alone on a drone needs about 9.2e-14 W; a second round that
    # returns its anchor raised by a relative 1e-6 must not be accepted,
    # although the rise is far below 1e-15 W
    from dronegrid import assign_power

    real = assign_power._subproblem
    anchors = []

    def rising(st, y, rcp, gap=1.0):
        anchors.append(y)
        if len(anchors) == 2:
            return y * (1 + 1e-6), True
        return real(st, y, rcp, gap)

    monkeypatch.setattr(assign_power, "_subproblem", rising)
    rcp = RateConstraintParams(rate_floor=1e-3, subchannels=subchannels, max_power=10.0)
    gains = np.full((1, 1), 7.5e-7)
    assoc, chan = np.ones((1, 1), dtype=np.int8), np.ones((1, 1, subchannels), dtype=np.int8)
    power, state = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), 1e-16)
    assert len(anchors) == 2 and state.iteration == 2
    assert state.objective_trace == [float(np.sum(anchors[1]))]
    assert state.objective == pytest.approx(9.2e-14, rel=0.01)
    assert np.array_equal(power[0, 0], anchors[1])


def test_solved_rates_clear_the_floor():
    rng = np.random.default_rng(36)
    for _ in range(10):
        gains = rng.uniform(1e-8, 1e-6, (4, 2))
        rcp = RateConstraintParams(rate_floor=1.0, subchannels=4)
        alloc, _ = solve_allocation(gains, rcp, SolverConfig(), NOISE)
        rates = user_rates(alloc.power, gains, NOISE)
        assert rates.min() >= rcp.rate_floor - 1e-9
        assert not alloc.violations(rcp)


def test_infeasible_floor_names_the_users():
    # microscopic gains cannot clear a high floor within the power cap
    gains = np.full((2, 1), 1e-13)
    rcp = RateConstraintParams(rate_floor=8.0, subchannels=2, max_power=1.0)
    assoc = np.ones((2, 1), dtype=np.int8)
    chan = np.zeros((2, 1, 2), dtype=np.int8)
    chan[0, 0, 0] = 1
    chan[1, 0, 1] = 1
    with pytest.raises(RateInfeasibleError) as err:
        solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    assert set(err.value.users) == {0, 1}


def test_unsolvable_subproblem_names_a_user():
    # one user alone on a drone at a tiny per-subchannel rate: the barrier
    # fails to certify any round although the floor is reachable (a false
    # infeasibility that is still open), and at the failed iterate the
    # user's rate clears the floor, so the error must fall back to naming
    # the users that hold triples instead of nobody
    rcp = RateConstraintParams(rate_floor=1e-5, subchannels=3, max_power=10.0)
    gains = np.full((1, 1), 7e-7)
    assoc, chan = np.ones((1, 1), dtype=np.int8), np.ones((1, 1, 3), dtype=np.int8)
    with pytest.raises(RateInfeasibleError) as err:
        solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    assert err.value.users == (0,)
    assert "convexified subproblem unsolvable" in str(err.value)
    # one drone leaves the search nothing to try, so assign_binaries
    # raises the greedy deal's own error, naming the same user
    with pytest.raises(RateInfeasibleError) as err:
        solve_allocation(gains, rcp, SolverConfig(), NOISE)
    assert err.value.users == (0,)


def test_uncovered_user_is_reported():
    gains = np.full((2, 1), 1e-6)
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=2)
    assoc = np.array([[1], [1]], dtype=np.int8)
    chan = np.zeros((2, 1, 2), dtype=np.int8)
    chan[0, 0, 0] = 1  # user 1 holds nothing
    with pytest.raises(RateInfeasibleError) as err:
        solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    assert list(err.value.users) == [1]


def test_assign_binaries_rejects_overload():
    gains = np.full((5, 2), 1e-6)
    rcp = RateConstraintParams(subchannels=2)
    with pytest.raises(ValueError):
        assign_binaries(gains, rcp, SolverConfig(), NOISE)


def test_assign_binaries_feasible_shape():
    rng = np.random.default_rng(37)
    gains = rng.uniform(1e-8, 1e-6, (5, 2))
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    assoc, chan, _ = assign_binaries(gains, rcp, SolverConfig(), NOISE)
    assert assoc.shape == (5, 2)
    assert chan.shape == (5, 2, 4)
    np.testing.assert_array_equal(assoc.sum(axis=1), 1)
    # chan only where associated, at least one subchannel each
    assert (chan.sum(axis=(1, 2)) >= 1).all()
    assert ((chan.sum(axis=2) > 0) <= (assoc > 0)).all()
    # no subchannel handed out twice inside one drone
    assert (chan.sum(axis=0) <= 1).all()


def test_solve_allocation_reuses_the_winners_powers(monkeypatch):
    # assign_binaries hands back the powers it solved for its winner on
    # every path, so solve_allocation adds no power solve of its own
    from dronegrid import assign_power

    calls = []
    real = assign_power.solve_power_given_binaries

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(assign_power, "solve_power_given_binaries", counting)
    # gains where some neighbours of the greedy deal have a transmit floor
    # below its objective, so the local search runs full solves
    rng = np.random.default_rng(40)
    gains = rng.uniform(1e-8, 1e-6, (5, 2))
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    searched = []
    for cfg in (SolverConfig(), SolverConfig(swap_passes=0)):
        calls.clear()
        _, _, (power, state) = assign_binaries(gains, rcp, cfg, NOISE)
        searched.append(len(calls))
        alloc, sca = solve_allocation(gains, rcp, cfg, NOISE)
        assert len(calls) == 2 * searched[-1]
        np.testing.assert_array_equal(alloc.power, power)
        assert sca.objective_trace == state.objective_trace
    # the local search solves neighbours too; without it only the greedy deal
    assert searched[0] > 1 and searched[1] == 1
    # a neighbourhood whose every floor reaches the greedy objective: the
    # search ends without solving any neighbour, in any number of passes
    pruned = np.random.default_rng(43).uniform(1e-8, 1e-6, (5, 2))
    deal = _greedy_binaries(pruned, rcp)
    target = real(*deal, pruned, rcp, SolverConfig(), NOISE)[1].objective * (1 - 1e-9)
    for neighbour in _neighbours(deal[0], rcp.subchannels):
        assert _assignment_floor(*neighbour, pruned, rcp, NOISE) >= target
    for passes in (1, 2):
        calls.clear()
        assoc, _, _ = assign_binaries(pruned, rcp, SolverConfig(swap_passes=passes), NOISE)
        assert len(calls) == 1
        np.testing.assert_array_equal(assoc, deal[0])
    # no users: the one solve returns empty powers
    calls.clear()
    alloc, _ = solve_allocation(np.zeros((0, 2)), rcp, SolverConfig(), NOISE)
    assert len(calls) == 1 and alloc.power.shape == (0, 2, 4)
    # nothing feasible, though every user alone could clear the floor on
    # its best drone: the greedy deal's own error is raised, and no
    # binaries are solved twice on the way
    calls.clear()
    hopeless = RateConstraintParams(rate_floor=8.0, subchannels=2)
    with pytest.raises(RateInfeasibleError) as err:
        solve_allocation(np.full((3, 2), 1e-8), hopeless, SolverConfig(), NOISE)
    solved = [(a.tobytes(), c.tobytes()) for a, c, *_ in calls]
    assert len(calls) > 1 and len(set(solved)) == len(solved)
    with pytest.raises(RateInfeasibleError) as greedy:
        real(*calls[0])
    assert str(err.value) == str(greedy.value)
    # one drone: no neighbour and no split deal, so the greedy deal is the
    # only binaries solved and its own error is raised
    calls.clear()
    tiny = np.full((2, 1), 1e-8)
    with pytest.raises(RateInfeasibleError) as err:
        solve_allocation(tiny, hopeless, SolverConfig(), NOISE)
    assert len(calls) == 1
    assert [b.tobytes() for b in calls[0][:2]] == [b.tobytes() for b in _greedy_binaries(tiny, hopeless)]
    with pytest.raises(RateInfeasibleError) as greedy:
        real(*calls[0])
    assert str(err.value) == str(greedy.value)


def test_users_no_drone_can_serve_fail_before_any_solve(monkeypatch):
    # at gain 1e-13 a rate of 8 over both subchannels of a drone needs
    # 2 N (2^4 - 1) / g = 30 W alone, above the 1 W budget: the
    # certificate names every such user and nothing is solved
    from dronegrid import assign_power

    calls = []
    real = assign_power.solve_power_given_binaries

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(assign_power, "solve_power_given_binaries", counting)
    hopeless = RateConstraintParams(rate_floor=8.0, subchannels=2)
    for gains, users in (
        (np.full((3, 2), 1e-13), (0, 1, 2)),
        (np.full((2, 1), 1e-13), (0, 1)),
        # only user 1 is out of reach; the certificate names it alone
        (np.array([[1e-8, 1e-9], [1e-13, 2e-13], [1e-9, 1e-8]]), (1,)),
    ):
        with pytest.raises(RateInfeasibleError) as err:
            solve_allocation(gains, hopeless, SolverConfig(), NOISE)
        assert calls == [] and err.value.users == users
        assert "best drone" in err.value.detail
    # a user that needs the whole budget passes the certificate (its margin
    # is for rounding only) and the solver decides; one that needs 90% of
    # it is served
    rcp = RateConstraintParams(rate_floor=2.0, subchannels=1)
    with pytest.raises(RateInfeasibleError) as err:
        solve_allocation(np.array([[NOISE * 3.0 / rcp.max_power]]), rcp, SolverConfig(), NOISE)
    assert len(calls) == 1 and "best drone" not in err.value.detail
    alloc, _ = solve_allocation(np.array([[NOISE * 3.0 / (0.9 * rcp.max_power)]]), rcp, SolverConfig(), NOISE)
    assert len(calls) == 2 and alloc.power.sum() == pytest.approx(0.9 * rcp.max_power, rel=1e-6)


def test_memo_answers_repeat_inputs_with_copies(monkeypatch):
    from dronegrid import assign_power

    calls = []
    real = assign_power.solve_power_given_binaries

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(assign_power, "solve_power_given_binaries", counting)
    gains = np.random.default_rng(40).uniform(1e-8, 1e-6, (5, 2))
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    cfg = SolverConfig()

    def frozen(out):
        assoc, chan, (power, state) = out
        return assoc.tobytes(), chan.tobytes(), power.tobytes(), state.iteration, list(state.objective_trace)

    def answers(memo):
        # the memo holds assign_binaries' answers, keyed by config, next
        # to the power solves' SCA runs, keyed by binaries
        return sum(isinstance(key[1], SolverConfig) for key in memo)

    memo = {}
    expect = frozen(assign_binaries(gains, rcp, cfg, NOISE))
    solves = len(calls)
    calls.clear()
    miss = assign_binaries(gains, rcp, cfg, NOISE, memo)
    assert len(calls) == solves and answers(memo) == 1 and len(memo) == 1 + solves
    hit = assign_binaries(gains.copy(), rcp, cfg, NOISE, memo)
    assert len(calls) == solves  # the hit solved nothing
    # changing either answer changes neither the memo nor a later hit
    for assoc, chan, (power, state) in (miss, hit):
        assoc[:] = 0
        chan[:] = 1
        power[:] = -1.0
        state.iteration = -1
        state.objective_trace.append(-1.0)
    assert frozen(assign_binaries(gains, rcp, cfg, NOISE, memo)) == expect
    assert len(calls) == solves
    # any other input is a miss: one gain a single ulp off, another config
    nudged = gains.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 1.0)
    assign_binaries(nudged, rcp, cfg, NOISE, memo)
    assign_binaries(gains, rcp, SolverConfig(swap_passes=0), NOISE, memo)
    assert answers(memo) == 3 and len(calls) > solves
    # the mission keeps only the entries at the gains it settled on: the
    # two answers there and the runs of the binaries solved there
    retain_memo(memo, gains)
    assert answers(memo) == 2 and len(memo) == 2 + solves
    retain_memo(memo, nudged)
    assert memo == {}


def test_converged_is_false_only_when_the_cap_stops_the_run():
    # with the defaults this run's tolerance test fires on round 9; a cap
    # of 9 rounds lets it fire on the cap round, which is still convergence
    gains = np.random.default_rng(40).uniform(1e-8, 1e-6, (5, 2))
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    deal = _greedy_binaries(gains, rcp)
    power, state = solve_power_given_binaries(*deal, gains, rcp, SolverConfig(), NOISE)
    assert state.iteration == 9 and state.converged
    capped = solve_power_given_binaries(*deal, gains, rcp, SolverConfig(max_sca_iters=9), NOISE)
    assert capped[0].tobytes() == power.tobytes()
    assert capped[1].objective_trace == state.objective_trace and capped[1].converged
    short = solve_power_given_binaries(*deal, gains, rcp, SolverConfig(max_sca_iters=8), NOISE)[1]
    assert short.iteration == 8 and not short.converged


def _resume_case(name):
    """(gains, rcp, binaries) of one SCA run to resume: the greedy deal."""
    if name == "tolerance":
        gains = np.random.default_rng(40).uniform(1e-8, 1e-6, (5, 2))
        rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    elif name == "probe":
        # the flat first anchor admits no feasible round; the equal-split
        # probe restarts the run, which then converges after 21 rounds
        rng = np.random.default_rng(192)
        gains = rng.uniform(1e-8, 1e-6, (3, 2))
        rcp = RateConstraintParams(rate_floor=float(rng.uniform(1, 6)), subchannels=2)
    else:  # "infeasible": every user could clear the floor alone, not together
        gains = np.full((3, 2), 1e-8)
        rcp = RateConstraintParams(rate_floor=8.0, subchannels=2)
    return gains, rcp, _greedy_binaries(gains, rcp)


@pytest.mark.parametrize(
    "name, first",
    [
        ("tolerance", SolverConfig(sca_tol=1e-3, max_sca_iters=12)),  # the particle score's
        ("tolerance", SolverConfig(max_sca_iters=2)),  # stopped by the cap
        ("probe", SolverConfig(max_sca_iters=1)),  # capped before any accepted round
        ("probe", SolverConfig(sca_tol=1e-3, max_sca_iters=12)),
        ("infeasible", SolverConfig(sca_tol=1e-3, max_sca_iters=12)),
    ],
)
def test_a_resumed_run_equals_a_fresh_solve(monkeypatch, name, first):
    # a default solve through a memo that holds a coarser run of the same
    # binaries goes on from that run and gives the fresh solve's answer
    # byte for byte, in fewer convexified subproblems
    from dronegrid import assign_power

    rounds = []
    subproblem = assign_power._subproblem

    def counting(*args):
        rounds.append(1)
        return subproblem(*args)

    monkeypatch.setattr(assign_power, "_subproblem", counting)
    gains, rcp, deal = _resume_case(name)

    def outcome(cfg, memo=None):
        rounds.clear()
        try:
            power, state = solve_power_given_binaries(*deal, gains, rcp, cfg, NOISE, memo)
        except RateInfeasibleError as err:
            return str(err), len(rounds)
        return (power.tobytes(), state.iteration, list(state.objective_trace), state.converged), len(rounds)

    fresh, fresh_rounds = outcome(SolverConfig())
    memo = {}
    _, first_rounds = outcome(first, memo)
    resumed, resumed_rounds = outcome(SolverConfig(), memo)
    assert resumed == fresh and len(memo) == 1
    assert resumed_rounds == fresh_rounds - first_rounds < fresh_rounds
    if name == "infeasible":
        assert resumed_rounds == 0 and "drone budget" in resumed
    # the settled run answers again without a round
    assert outcome(SolverConfig(), memo) == (fresh, 0)


def test_a_looser_config_after_a_tighter_one_solves_afresh():
    gains, rcp, deal = _resume_case("tolerance")
    coarse = SolverConfig(sca_tol=1e-3, max_sca_iters=12)

    def outcome(cfg, memo=None):
        power, state = solve_power_given_binaries(*deal, gains, rcp, cfg, NOISE, memo)
        return power.tobytes(), state.iteration, list(state.objective_trace), state.converged

    memo = {}
    assert outcome(SolverConfig(), memo) == outcome(SolverConfig())
    assert outcome(coarse, memo) == outcome(coarse)
    # a cap below the stored run's rounds is looser too
    assert outcome(SolverConfig(max_sca_iters=3), memo) == outcome(SolverConfig(max_sca_iters=3))
    assert outcome(SolverConfig(), memo) == outcome(SolverConfig())


def test_a_stored_run_hands_out_copies():
    gains, rcp, deal = _resume_case("tolerance")
    fresh = solve_power_given_binaries(*deal, gains, rcp, SolverConfig(), NOISE)
    memo = {}
    for cfg in (SolverConfig(sca_tol=1e-3, max_sca_iters=12), SolverConfig(), SolverConfig()):
        power, state = solve_power_given_binaries(*deal, gains, rcp, cfg, NOISE, memo)
        power[:] = -1.0
        state.iteration = -1
        state.objective_trace.append(-1.0)
    power, state = solve_power_given_binaries(*deal, gains, rcp, SolverConfig(), NOISE, memo)
    assert power.tobytes() == fresh[0].tobytes()
    assert (state.iteration, state.objective_trace) == (fresh[1].iteration, fresh[1].objective_trace)


@pytest.fixture(scope="module")
def warm_search():
    """A 36-user, 4-drone, M = 12 search in which a candidate beats the
    greedy deal, with every power solve it made: (args, (power, state)),
    or (args, None) for a rate-infeasible one."""
    from dronegrid import assign_power

    gains = np.random.default_rng(0).uniform(1e-8, 1e-6, (36, 4))
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=12)
    real = assign_power.solve_power_given_binaries
    solves = []

    def recording(*args):
        try:
            out = real(*args)
        except RateInfeasibleError:
            solves.append((args, None))
            raise
        solves.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assign_power, "solve_power_given_binaries", recording)
        answer = assign_binaries(gains, rcp, SolverConfig(), NOISE)
    return gains, rcp, answer, solves


def test_local_search_candidates_start_from_the_incumbents_powers(warm_search):
    gains, rcp, (assoc, chan, (power, state)), solves = warm_search
    greedy = _greedy_binaries(gains, rcp)
    assert not np.array_equal(assoc, greedy[0])  # a candidate won
    # the greedy deal starts flat, every candidate from the greedy deal's powers
    (first, (greedy_power, _)), *candidates = solves
    assert [b.tobytes() for b in first[:2]] == [b.tobytes() for b in greedy] and first[7] is None
    assert len(candidates) > 1
    for args, out in candidates:
        assert args[7] is greedy_power
        assert out is not None
        alloc = Allocation(args[0], args[1], out[0])
        assert alloc.violations(rcp) == []
        assert user_rates(alloc.power, gains, NOISE).min() >= rcp.rate_floor - 1e-9
    # the winner's power is that of its binaries solved from the flat anchor
    _, flat = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), NOISE)
    assert state.objective == pytest.approx(flat.objective, rel=1e-4)


def test_warm_started_search_is_a_pure_function(warm_search):
    gains, rcp, answer, _ = warm_search

    def frozen(out):
        assoc, chan, (power, state) = out
        return assoc.tobytes(), chan.tobytes(), power.tobytes(), state.iteration, list(state.objective_trace)

    expect = frozen(answer)
    memo = {}
    assert frozen(assign_binaries(gains, rcp, SolverConfig(), NOISE, memo)) == expect
    assert frozen(assign_binaries(gains, rcp, SolverConfig(), NOISE, memo)) == expect
    assert frozen(assign_binaries(gains, rcp, SolverConfig(), NOISE)) == expect
    # a memo that holds the candidate runs of a coarser search, started
    # from that search's incumbent, does not change the answer
    primed = {}
    assign_binaries(gains, rcp, SolverConfig(sca_tol=1e-2), NOISE, primed)
    assert frozen(assign_binaries(gains, rcp, SolverConfig(), NOISE, primed)) == expect


def test_greedy_prefers_the_stronger_drone():
    # two tight clusters, one per drone, forced onto the greedy path
    cp = ChannelParams()
    drones = np.array([[-300.0, 0.0], [300.0, 0.0]])
    users = np.array([[-310.0, 5.0], [-290.0, -5.0], [310.0, 5.0], [290.0, -5.0]])
    gains = gain_table(drones, users, cp)
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    cfg = SolverConfig(swap_passes=0)
    assoc, _, _ = assign_binaries(gains, rcp, cfg, NOISE)
    np.testing.assert_array_equal(assoc[:, 0], [1, 1, 0, 0])
    np.testing.assert_array_equal(assoc[:, 1], [0, 0, 1, 1])


def test_local_search_rescues_greedy_misassignment():
    # both users prefer drone 0 but it has a single subchannel, so greedy
    # hands user 1 (processed second, yet the one glued to drone 0) to the
    # far drone; that corner cannot clear the floor, the swapped pairing
    # can, and the search must find it
    cp = ChannelParams(noise_power=1e-8)
    drones = np.array([[0.0, 0.0], [400.0, 0.0]])
    users = np.array([[60.0, 0.0], [10.0, 0.0]])
    gains = gain_table(drones, users, cp)
    rcp = RateConstraintParams(rate_floor=1.0, subchannels=1, max_power=1.0)
    greedy_only = SolverConfig(swap_passes=0)
    searched = SolverConfig(swap_passes=2)
    with pytest.raises(RateInfeasibleError):
        solve_allocation(gains, rcp, greedy_only, 1e-8)
    alloc, state = solve_allocation(gains, rcp, searched, 1e-8)
    np.testing.assert_array_equal(alloc.assoc, [[0, 1], [1, 0]])
    rates = user_rates(alloc.power, gains, 1e-8)
    assert rates.min() >= rcp.rate_floor - 1e-9


def test_local_search_finds_the_better_of_two_assignments():
    # one subchannel per drone puts the two users on different drones, so
    # there are exactly two assignments; the search must end on the better
    cp = ChannelParams(noise_power=1e-8)
    drones = np.array([[0.0, 0.0], [400.0, 0.0]])
    users = np.array([[60.0, 0.0], [10.0, 0.0]])
    gains = gain_table(drones, users, cp)
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=1, max_power=1.0)
    objectives = []
    for assoc in (np.eye(2, dtype=np.int8), np.eye(2, dtype=np.int8)[::-1].copy()):
        chan = assoc[:, :, None].copy()
        try:
            _, state = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), 1e-8)
        except RateInfeasibleError:
            continue
        objectives.append(state.objective)
    assert objectives
    _, searched = solve_allocation(gains, rcp, SolverConfig(swap_passes=3), 1e-8)
    assert searched.objective == pytest.approx(min(objectives), rel=1e-4)


def test_search_matches_oracle_objective():
    gains, rcp, obj, alloc = draw_tight_instance(
        7, RateConstraintParams,
        lambda g, r, n: solve_allocation(g, r, SolverConfig(), n),
    )
    oracle = grid_oracle(gains, rcp.rate_floor, rcp.max_power, 1e-7)
    assert oracle is not None
    assert obj == pytest.approx(oracle, rel=0.05)
    rates = user_rates(alloc.power, gains, 1e-7)
    assert rates.min() >= rcp.rate_floor - 1e-9


def test_local_search_splits_subchannels_between_drones():
    # 4 users, 3 drones, 2 subchannels: giving drones 0 and 2 one
    # subchannel each, instead of both to each drone, saves about 5% power
    rng = np.random.default_rng([54, 77])
    U, D, M = (int(v) for v in (rng.integers(3, 9), rng.integers(2, 5), rng.integers(2, 7)))
    assert (U, D, M) == (4, 3, 2)
    gains = rng.uniform(1e-8, 1e-6, (U, D))
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=M, max_power=1.0)
    alloc, state = solve_allocation(gains, rcp, SolverConfig(), NOISE)
    assert state.objective < 3.05e-4
    held = alloc.chan.any(axis=0)  # (D, M): subchannels each drone deals
    busy = np.nonzero(alloc.assoc.any(axis=0))[0]
    assert any(not (held[d1] & held[d2]).any() for d1 in busy for d2 in busy if d1 < d2)
    assert user_rates(alloc.power, gains, NOISE).min() >= rcp.rate_floor - 1e-9
    assert not alloc.violations(rcp)


def test_split_deals_hold_disjoint_halves():
    rng = np.random.default_rng(44)
    gains = rng.uniform(1e-8, 1e-6, (5, 3))
    cases = [(_greedy_binaries(gains, RateConstraintParams(subchannels=4))[0], 4)]
    for _ in range(50):
        U, D = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        assoc = np.zeros((U, D), dtype=np.int8)
        assoc[np.arange(U), rng.integers(0, D, U)] = 1
        cases.append((assoc, int(rng.integers(1, 7))))
    splits = 0
    for assoc, M in cases:
        U, D = assoc.shape
        # no split: the deal is the plain one, byte for byte
        plain = _deal_channels(assoc, M)
        assert plain.tobytes() == _deal_channels(assoc, M, ()).tobytes()
        # one deal per pair of busy drones whose halves hold their users
        load = assoc.sum(axis=0)
        pairs = [
            (d1, d2) for d1, d2 in itertools.combinations(np.nonzero(load)[0], 2)
            if load[d1] <= (M + 1) // 2 and load[d2] <= M // 2
        ]
        deals = list(_split_deals(assoc, M))
        assert len(deals) == len(pairs)
        for (a2, chan), (first, second) in zip(deals, pairs):
            splits += 1
            assert np.array_equal(a2, assoc)
            held = chan.any(axis=0)  # (D, M): the subchannels each drone deals
            assert not held[first, 1::2].any() and not held[second, ::2].any()
            # every user still holds a subchannel, and no drone hands one out twice
            assert (chan[np.arange(U), assoc.argmax(axis=1)].sum(axis=1) >= 1).all()
            assert (chan.sum(axis=0) <= 1).all()
            # drones outside the pair deal all M, as without the split
            others = [d for d in range(D) if d not in (first, second)]
            assert np.array_equal(chan[:, others], plain[:, others])
    assert splits > 10
    # nothing to split with one subchannel, or with a drone over its half
    assert list(_split_deals(np.eye(2, dtype=np.int8), 1)) == []
    crowded = np.zeros((8, 2), dtype=np.int8)
    crowded[:7, 0] = crowded[7, 1] = 1  # 7 users for 6 even subchannels
    assert list(_split_deals(crowded, 12)) == []
    assert len(list(_split_deals(crowded[1:], 12))) == 1  # 6 fit


# --- pruning: _assignment_floor bounds the power solve exactly ------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "noise, rate_floor",
    [
        (1e-10, 0.5),  # the shipped radio settings
        (1e-16, 1e-3),  # tiny rates: the floor is nearly tight
        (1e-7, 2.0),  # heavy noise, some binaries rate-infeasible
        (1e-10, 0.0),  # no floor: both are exactly zero
        (1e-2, 6.0),  # drowning noise: every solve is rate-infeasible
    ],
)
def test_assignment_floor_never_exceeds_the_solve(seed, noise, rate_floor):
    rng = np.random.default_rng(seed)
    gains = rng.uniform(1e-8, 1e-6, (3, 2))
    rcp = RateConstraintParams(rate_floor=rate_floor, subchannels=3, max_power=10.0)
    for _ in range(3):
        assoc, chan = random_binaries(rng, 3, 2, 3)
        floor = _assignment_floor(assoc, chan, gains, rcp, noise)
        try:
            _, state = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), noise)
        except RateInfeasibleError:
            assert np.isfinite(floor) and floor > 0
            continue
        assert floor <= state.objective
        if rate_floor == 0.0:
            assert floor == state.objective == 0.0


@pytest.mark.parametrize(
    "subchannels, held, noise, rate_floor",
    [(1, 1, 1e-10, 3.0), (3, 3, 1e-10, 0.5), (12, 5, 1e-7, 2.0)],
)
def test_assignment_floor_is_tight_for_a_user_alone_on_a_drone(subchannels, held, noise, rate_floor):
    # no interference and an equal split of the floor is optimal, so the
    # solve meets the water-filling power up to its certified 1e-7 gap
    gains = np.array([[3e-7, 7e-7]])
    rcp = RateConstraintParams(rate_floor=rate_floor, subchannels=subchannels, max_power=10.0)
    assoc = np.array([[0, 1]], dtype=np.int8)
    chan = np.zeros((1, 2, subchannels), dtype=np.int8)
    chan[0, 1, :held] = 1
    _, state = solve_power_given_binaries(assoc, chan, gains, rcp, SolverConfig(), noise)
    floor = _assignment_floor(assoc, chan, gains, rcp, noise)
    assert floor <= state.objective <= floor * (1 + 1e-6)


def test_water_filling_power_per_user():
    # k N (2^(r/k) - 1) / g per user; the placement floor takes k = M at
    # each user's best drone, in the same operation order as ever, so its
    # value (and hence which particles are pruned) is unchanged bit for bit
    rng = np.random.default_rng(5)
    gains = rng.uniform(1e-9, 1e-6, (7, 3))
    for M, r in [(1, 0.5), (3, 2.0), (12, 1e-4)]:
        rcp = RateConstraintParams(rate_floor=r, subchannels=M)
        per_gain = M * NOISE * math.expm1(math.log(2.0) * r / M)
        assert transmit_power_floor(gains, rcp, NOISE) == float(np.sum(per_gain / gains.max(axis=1)))
    expect = 2 * NOISE * (2.0 ** 0.25 - 1) / 1e-7 + NOISE * (2.0 ** 0.5 - 1) / 2e-7
    assert _water_filling_power([2, 1], np.array([1e-7, 2e-7]), 0.5, NOISE) == pytest.approx(expect, rel=1e-12)
    # the formula divides by k, so a user holding no subchannel is named
    # explicitly: no power reaches a positive floor, and none is needed for 0
    gains = np.array([1e-7, 1e-7])
    assert _water_filling_power([0, 2], gains, 0.5, NOISE) == np.inf
    assert _water_filling_power([0, 2], gains, 0.0, NOISE) == 0.0


@pytest.mark.parametrize(
    "U, D, M, cfg",
    [
        (5, 2, 4, SolverConfig(swap_passes=1)),
        # seed 1 accepts a swap, then searches again
        (4, 2, 2, SolverConfig(swap_passes=2)),
        (2, 2, 2, SolverConfig()),  # small enough to split subchannels
    ],
)
def test_floor_pruning_leaves_assign_binaries_unchanged(monkeypatch, U, D, M, cfg):
    # the same binaries, powers and SCA trace with the floor as with a
    # floor of 0.0, which prunes nothing; only the count of solves falls
    from dronegrid import assign_power

    calls = []
    real = assign_power.solve_power_given_binaries

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(assign_power, "solve_power_given_binaries", counting)
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=M, max_power=1.0)
    instances = [np.random.default_rng(seed).uniform(1e-8, 1e-6, (U, D)) for seed in range(3)]

    def outcome(gains):
        assoc, chan, (power, state) = assign_binaries(gains, rcp, cfg, NOISE)
        return assoc.tobytes(), chan.tobytes(), power.tobytes(), state.objective_trace

    floor_on = assign_power._assignment_floor
    runs, solves = [], []
    for floor in (floor_on, lambda *args: 0.0):
        monkeypatch.setattr(assign_power, "_assignment_floor", floor)
        calls.clear()
        runs.append([outcome(gains) for gains in instances])
        solves.append(len(calls))
    assert runs[0] == runs[1]
    assert solves[0] < solves[1]  # the floor did skip solves


def test_floor_pruning_leaves_the_mission_traces_unchanged(monkeypatch, tmp_path):
    from dronegrid import assign_power

    scenario = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "quick_look.json"
    outs = []
    for tag, floor in (("on", assign_power._assignment_floor), ("off", lambda *args: 0.0)):
        monkeypatch.setattr(assign_power, "_assignment_floor", floor)
        out = tmp_path / tag
        assert cli_main(["--scenario", str(scenario), "--out", str(out), "--quiet"]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert len(outs[0]) == 5
    assert outs[0] == outs[1]


def test_allocation_violations_catch_defects():
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=2, max_power=1.0)
    assoc = np.array([[1, 0], [0, 1]], dtype=np.int8)
    chan = np.zeros((2, 2, 2), dtype=np.int8)
    chan[0, 0, 0] = 1
    chan[1, 1, 1] = 1
    power = np.zeros((2, 2, 2))
    power[0, 0, 0] = 0.2
    power[1, 1, 1] = 0.2
    good = Allocation(assoc, chan, power)
    assert good.violations(rcp) == []

    double = Allocation(np.ones((2, 2), dtype=np.int8), chan, power)
    assert any("assoc" in v or "drone" in v for v in double.violations(rcp))

    stray = power.copy()
    stray[0, 1, 1] = 0.1  # power outside the owned triple: one line, naming it
    assert Allocation(assoc, chan, stray).violations(rcp) == [
        "power outside the linearized coupling set at 1 triple(s), first "
        "user 0 drone 1 subchannel 1: 0.1 W"
    ]

    hot = power.copy()
    hot[0, 0, 0] = 1.2  # beyond the per-subchannel and per-drone caps
    assert Allocation(assoc, chan, hot).violations(rcp) == [
        "power outside the linearized coupling set at 1 triple(s), first "
        "user 0 drone 0 subchannel 0: 1.2 W",
        "drone 0 total power 1.2 exceeds cap 1.0",
    ]


def test_charge_decisions_threshold_gate():
    bp = BatteryParams()
    rng = np.random.default_rng(38)
    none = charge_decisions(np.array([150e3, 200e3]), bp, rng)
    assert none.sum() == 0
    one = charge_decisions(np.array([90e3, 200e3]), bp, rng)
    np.testing.assert_array_equal(one, [1, 0])
    at_threshold = charge_decisions(np.array([100e3, 200e3]), bp, rng)
    np.testing.assert_array_equal(at_threshold, [1, 0])


def test_charge_decisions_uniform_tie_break():
    bp = BatteryParams()
    rng = np.random.default_rng(39)
    picks = np.zeros(2)
    trials = 10_000
    for _ in range(trials):
        beta = charge_decisions(np.array([90e3, 80e3, 150e3]), bp, rng)
        assert beta.sum() == 1
        assert beta[2] == 0
        picks += beta[:2]
    assert abs(picks[0] / trials - 0.5) < 0.02


def test_check_backhaul():
    rcp = RateConstraintParams(backhaul_cap=10.0)
    ok, total = check_backhaul(np.array([3.0, 4.0]), rcp)
    assert ok and total == pytest.approx(7.0)
    bad, total = check_backhaul(np.array([6.0, 5.0]), rcp)
    assert not bad and total == pytest.approx(11.0)
