import dataclasses

import numpy as np
import pytest

from dronegrid import (
    AreaBounds,
    ChannelParams,
    EnergyParams,
    RateConstraintParams,
    SearchConfig,
    SolverConfig,
    TimeGrid,
    evaluate_particle,
    gain_table,
    generate_particles,
    hover_energy,
    particle_floor,
    search_positions,
    sector_partition,
    solve_allocation,
    transmit_power_floor,
)
from dronegrid.orchestrator import PARTICLE_SOLVER  # an orchestrated run's particle scoring

BOUNDS = AreaBounds()
RADIUS = BOUNDS.diagonal / 2  # initial sampling radius of the searches below


def test_sector_partition_quadrants():
    secs = sector_partition(BOUNDS, 4)
    centers = sorted(tuple(np.round(s.center, 9)) for s in secs)
    assert centers == [(-200.0, -200.0), (-200.0, 200.0), (200.0, -200.0), (200.0, 200.0)]


def test_sector_partition_single_is_whole_area():
    (sec,) = sector_partition(BOUNDS, 1)
    assert (sec.x_min, sec.x_max, sec.y_min, sec.y_max) == (-400.0, 400.0, -400.0, 400.0)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 9])
def test_sector_partition_tiles_the_area(count):
    secs = sector_partition(BOUNDS, count)
    assert len(secs) == count
    area = sum((s.x_max - s.x_min) * (s.y_max - s.y_min) for s in secs)
    whole = (BOUNDS.x_max - BOUNDS.x_min) * (BOUNDS.y_max - BOUNDS.y_min)
    assert area == pytest.approx(whole, rel=1e-12)
    for s in secs:
        assert s.x_min >= BOUNDS.x_min - 1e-9 and s.x_max <= BOUNDS.x_max + 1e-9
        assert s.y_min >= BOUNDS.y_min - 1e-9 and s.y_max <= BOUNDS.y_max + 1e-9


def test_generate_particles_respect_all_discs():
    rng = np.random.default_rng(51)
    anchors = np.array([[350.0, 350.0], [-200.0, 0.0]])
    prev = np.array([[300.0, 300.0], [-150.0, 0.0]])
    reach = 120.0
    parts = generate_particles(anchors, 200.0, 30, rng, BOUNDS, prev, reach)
    assert len(parts) == 30
    for cand in parts:
        for d in range(2):
            assert BOUNDS.contains(cand[d])
            assert np.linalg.norm(cand[d] - anchors[d]) <= 200.0 + 1e-9
            assert np.linalg.norm(cand[d] - prev[d]) <= reach + 1e-9


def test_generate_particles_zero_radius_sits_on_anchor():
    rng = np.random.default_rng(52)
    anchors = np.array([[10.0, 20.0]])
    prev = anchors.copy()
    parts = generate_particles(anchors, 0.0, 5, rng, BOUNDS, prev, 600.0)
    for cand in parts:
        np.testing.assert_allclose(cand, anchors, atol=1e-9)


def test_generate_particles_unreachable_anchor_falls_back_to_prev():
    # anchor disc and reachability disc are disjoint: sampling cannot
    # succeed, the drone stays where it was
    rng = np.random.default_rng(53)
    anchors = np.array([[300.0, 0.0]])
    prev = np.array([[-300.0, 0.0]])
    parts = generate_particles(anchors, 50.0, 8, rng, BOUNDS, prev, 100.0)
    for cand in parts:
        np.testing.assert_allclose(cand[0], prev[0], atol=1e-9)


def test_generate_particles_deterministic_per_seed():
    anchors = np.array([[0.0, 0.0], [100.0, 100.0]])
    prev = anchors.copy()
    a = generate_particles(anchors, 150.0, 10, np.random.default_rng(99), BOUNDS, prev, 600.0)
    b = generate_particles(anchors, 150.0, 10, np.random.default_rng(99), BOUNDS, prev, 600.0)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_search_finds_synthetic_optimum():
    # convex bowl with a known bottom, no motion term: the shrink rounds
    # must land within 10 m
    target = np.array([[123.0, -77.0]])

    def ev(pos):
        return float(np.sum((pos - target) ** 2))

    cfg = SearchConfig(particles=20, max_refines=4)
    best, evals, _ = search_positions(
        np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]), RADIUS, ev, cfg, BOUNDS, 600.0,
        np.random.default_rng(9),
    )
    assert np.linalg.norm(best - target) < 10.0
    assert evals >= cfg.particles + 1


def test_search_keeps_incumbent_when_it_is_best():
    # previous position already optimal: nothing sampled may displace it
    prev = np.array([[42.0, -17.0]])

    def ev(pos):
        return float(np.sum((pos - prev) ** 2))

    cfg = SearchConfig(particles=10, max_refines=2)
    best, _, _ = search_positions(
        prev, np.array([[0.0, 0.0]]), RADIUS, ev, cfg, BOUNDS, 600.0, np.random.default_rng(4)
    )
    np.testing.assert_array_equal(best, prev)
    assert ev(best) == 0.0


def test_search_deterministic_per_seed():
    target = np.array([[50.0, 50.0], [-60.0, 10.0]])

    def ev(pos):
        return float(np.sum((pos - target) ** 2))

    cfg = SearchConfig(particles=8, max_refines=2)
    centers = np.array([[0.0, 0.0], [0.0, 0.0]])
    prev = centers.copy()
    a = search_positions(prev, centers, RADIUS, ev, cfg, BOUNDS, 600.0, np.random.default_rng(1))
    b = search_positions(prev, centers, RADIUS, ev, cfg, BOUNDS, 600.0, np.random.default_rng(1))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_evaluate_particle_hover_plus_transmit():
    # one drone parked right over its single user: value must equal hover
    # energy plus the closed-form transmit energy for an even split over
    # every subchannel, with zero motion cost
    cp = ChannelParams()
    ep = EnergyParams()
    tg = TimeGrid()
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    pos = np.array([[0.0, 0.0]])
    users = np.array([[0.0, 0.0]])
    val = evaluate_particle(pos, pos, users, cp, ep, tg, rcp, SolverConfig())
    gain = cp.ref_gain * cp.ref_dist**2 / cp.altitude**2
    m = rcp.subchannels
    tx = m * (2.0 ** (rcp.rate_floor / m) - 1.0) * cp.noise_power / gain
    expect = hover_energy(ep, tg) + tx * tg.block_s
    assert val == pytest.approx(expect, rel=1e-4)


def test_evaluate_particle_charges_for_motion():
    cp = ChannelParams()
    ep = EnergyParams()
    tg = TimeGrid()
    rcp = RateConstraintParams(rate_floor=0.5, subchannels=4)
    users = np.array([[0.0, 0.0]])
    home = np.array([[0.0, 0.0]])
    away = np.array([[300.0, 0.0]])
    stay = evaluate_particle(home, home, users, cp, ep, tg, rcp, SolverConfig())
    came_back = evaluate_particle(home, away, users, cp, ep, tg, rcp, SolverConfig())
    # same radio cost, but the second one pays for a 300 m repositioning
    assert came_back > stay
    assert came_back - stay == pytest.approx(
        (ep.power_full - ep.power_idle) / ep.v_max * (300.0 / tg.move_s) * tg.move_s, rel=1e-6
    )


def test_evaluate_particle_infeasible_is_infinite():
    cp = ChannelParams(noise_power=1e-2)  # drowning noise
    ep = EnergyParams()
    tg = TimeGrid()
    rcp = RateConstraintParams(rate_floor=6.0, subchannels=1, max_power=1.0)
    pos = np.array([[0.0, 0.0]])
    users = np.array([[350.0, 350.0]])
    val = evaluate_particle(pos, pos, users, cp, ep, tg, rcp, SolverConfig())
    assert val == np.inf


# --- pruning: particle_floor bounds evaluate_particle exactly ---------------

def _random_instance(rng, drones, users, noise, rate_floor):
    prev = rng.uniform(-350.0, 350.0, size=(drones, 2))
    pos = np.clip(prev + rng.uniform(-150.0, 150.0, size=(drones, 2)), -400.0, 400.0)
    ue = rng.uniform(-400.0, 400.0, size=(users, 2))
    rcp = RateConstraintParams(rate_floor=rate_floor, subchannels=3, max_power=1.0)
    return pos, prev, ue, ChannelParams(noise_power=noise), rcp


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "noise, rate_floor",
    [
        (1e-10, 0.5),  # the shipped radio settings
        (1e-16, 1e-6),  # transmit energy vanishes next to motion and hover
        (1e-10, 0.0),  # no floor: transmit is exactly zero
        (1e-2, 6.0),  # drowning noise: rate-infeasible, the score is inf
    ],
)
def test_particle_floor_never_exceeds_the_score(seed, noise, rate_floor):
    ep, tg = EnergyParams(), TimeGrid()
    rng = np.random.default_rng(seed)
    pos, prev, ue, cp, rcp = _random_instance(rng, 2, 3, noise, rate_floor)
    val = evaluate_particle(pos, prev, ue, cp, ep, tg, rcp, PARTICLE_SOLVER)
    floor = particle_floor(pos, prev, ue, cp, ep, tg, rcp)
    assert floor <= val
    if rate_floor == 0.0:
        assert floor == val
    else:
        # motion and hover alone: the same floor with no rate to meet
        motion = particle_floor(pos, prev, ue, cp, ep, tg, dataclasses.replace(rcp, rate_floor=0.0))
        assert floor >= motion
        if rate_floor >= 0.5:
            assert floor > motion  # a transmit term too large to round away
    if noise == 1e-2:
        assert val == np.inf and np.isfinite(floor)


@pytest.mark.parametrize("noise, rate_floor", [(1e-10, 0.5), (1e-2, 6.0)])
def test_particle_floor_equals_the_score_without_users(noise, rate_floor):
    ep, tg = EnergyParams(), TimeGrid()
    pos, prev, ue, cp, rcp = _random_instance(np.random.default_rng(0), 2, 0, noise, rate_floor)
    val = evaluate_particle(pos, prev, ue, cp, ep, tg, rcp, PARTICLE_SOLVER)
    assert transmit_power_floor(gain_table(pos, ue, cp), rcp, noise) == 0.0
    assert particle_floor(pos, prev, ue, cp, ep, tg, rcp) == val


@pytest.mark.parametrize(
    "subchannels, noise, rate_floor", [(3, 1e-10, 0.5), (12, 1e-7, 2.0)]
)
def test_transmit_floor_is_tight_for_a_user_alone_on_a_drone(subchannels, noise, rate_floor):
    # with no interference and every subchannel on one drone, the equal
    # split of the floor is the optimum, so the solver's power meets the
    # bound up to its certified 1e-7 gap
    cp = ChannelParams(noise_power=noise)
    rcp = RateConstraintParams(rate_floor=rate_floor, subchannels=subchannels, max_power=10.0)
    gains = gain_table(np.array([[10.0, -20.0]]), np.array([[40.0, 30.0]]), cp)
    alloc, _ = solve_allocation(gains, rcp, PARTICLE_SOLVER, noise)
    tx = float(alloc.power.sum())
    bound = transmit_power_floor(gains, rcp, noise)
    assert bound <= tx <= bound * (1 + 1e-6)


def _pruning_instance(noise):
    # two drones, users in two clusters; the noise sets how much transmit
    # energy a move can save against the motion it costs
    ep, tg = EnergyParams(), TimeGrid()
    cp = ChannelParams(noise_power=noise)
    rcp = RateConstraintParams(rate_floor=2.0, max_power=10.0, subchannels=4, backhaul_cap=100.0)
    users = np.array([[150.0, 150.0], [170.0, 130.0], [-250.0, 220.0]])
    prev = np.array([[0.0, 0.0], [-100.0, 100.0]])

    def ev(cand):
        return evaluate_particle(cand, prev, users, cp, ep, tg, rcp, PARTICLE_SOLVER)

    def bound(cand):
        return particle_floor(cand, prev, users, cp, ep, tg, rcp)

    # the motion-and-hover part alone: the same floor with no rate to meet
    no_rate = dataclasses.replace(rcp, rate_floor=0.0)

    def motion_bound(cand):
        return particle_floor(cand, prev, users, cp, ep, tg, no_rate)

    return prev, ev, bound, motion_bound, ep.v_max * tg.move_s


@pytest.mark.parametrize("noise, moves", [(1e-8, True), (3e-10, False)])
def test_pruning_leaves_the_search_unchanged(noise, moves):
    prev, ev, bound, motion_bound, reach = _pruning_instance(noise)
    cfg = SearchConfig(particles=6, max_refines=2, tol=0.0)
    plain_rng, pruned_rng = np.random.default_rng(3), np.random.default_rng(3)
    best, evals, pruned = search_positions(prev, prev, RADIUS, ev, cfg, BOUNDS, reach, plain_rng)
    assert pruned == 0
    best_p, evals_p, pruned_p = search_positions(
        prev, prev, RADIUS, ev, cfg, BOUNDS, reach, pruned_rng, bound=bound
    )
    np.testing.assert_array_equal(best_p, best)
    assert ev(best_p) == ev(best)
    assert pruned_rng.uniform() == plain_rng.uniform()
    # every drawn particle is either scored or pruned; the incumbent is
    # always scored
    drawn = cfg.particles * (1 + cfg.max_refines)
    assert evals == 1 + drawn
    assert evals_p + pruned_p == 1 + drawn
    if moves:
        # candidates win, and some are still pruned on the way, more of
        # them than motion and hover alone would prune
        assert (best != prev).any()
        assert 0 < pruned_p < drawn
        motion_rng = np.random.default_rng(3)
        best_m, _, pruned_m = search_positions(
            prev, prev, RADIUS, ev, cfg, BOUNDS, reach, motion_rng, bound=motion_bound
        )
        np.testing.assert_array_equal(best_m, best)
        assert ev(best_m) == ev(best)
        assert pruned_p > pruned_m
    else:
        # the zero-motion incumbent wins and nothing else is scored
        np.testing.assert_array_equal(best, prev)
        assert (evals_p, pruned_p) == (1, drawn)


def test_pruned_plus_evaluated_counts_every_particle_drawn():
    # with a nonzero tol the search may stop early; the bound sees every
    # drawn particle except the incumbent, so it counts what was drawn
    prev, ev, bound, _, reach = _pruning_instance(1e-8)
    drawn = []

    def counting_bound(cand):
        drawn.append(cand)
        return bound(cand)

    cfg = SearchConfig(particles=6, max_refines=4)
    _, evals, pruned = search_positions(
        prev, prev, RADIUS, ev, cfg, BOUNDS, reach, np.random.default_rng(5), bound=counting_bound
    )
    assert len(drawn) % cfg.particles == 0
    assert pruned > 0
    assert evals + pruned == 1 + len(drawn)
