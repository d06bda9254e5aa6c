import numpy as np
import pytest

from dronegrid import (
    ChannelParams,
    UserEquipment,
    gain_table,
    interference_table,
    rate_table,
    sinr_table,
    subchannel_rate,
    user_rates,
)


def _gain(drone_xy, ground_xy, cp):
    """gain_table for a single (user, drone) pair."""
    return gain_table([drone_xy], [ground_xy], cp)[0, 0]


def test_slant_distance_345_triangle():
    # the gain sees the 3-D slant distance: a horizontal offset of 100 m at
    # altitude 100 m is 100*sqrt(2) away, and the planar offset combines
    # both axes (3 m and 4 m make 5 m)
    cp = ChannelParams(ref_gain=0.01, ref_dist=1.0, altitude=100.0)
    g = _gain([100.0, 0.0], [0.0, 0.0], cp)
    assert g == pytest.approx(0.01 / 141.4213562373095**2, rel=1e-12)
    g = _gain([3.0, 0.0], [0.0, 4.0], cp)
    assert g == pytest.approx(0.01 / (100.0**2 + 5.0**2), rel=1e-12)


def test_path_gain_directly_below():
    cp = ChannelParams(ref_gain=0.01, ref_dist=1.0, altitude=100.0)
    # squared distance h^2 = 1e4 -> 0.01/1e4
    g = _gain([0.0, 0.0], [0.0, 0.0], cp)
    assert g == pytest.approx(1e-6, rel=1e-12)


def test_path_gain_halves_when_squared_distance_doubles():
    cp = ChannelParams(ref_gain=0.01, ref_dist=1.0, altitude=100.0)
    g0 = _gain([0.0, 0.0], [0.0, 0.0], cp)
    g1 = _gain([100.0, 0.0], [0.0, 0.0], cp)
    assert g1 == pytest.approx(g0 / 2, rel=1e-12)
    assert g1 == pytest.approx(5e-7, rel=1e-12)


def test_path_gain_random_draws_match_direct_formula():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cp = ChannelParams(
            ref_gain=float(rng.uniform(1e-4, 1.0)),
            ref_dist=float(rng.uniform(0.5, 2.0)),
            altitude=float(rng.uniform(10.0, 500.0)),
        )
        j = rng.uniform(-400, 400, 2)
        g = rng.uniform(-400, 400, 2)
        expect = cp.ref_gain * cp.ref_dist**2 / (cp.altitude**2 + np.sum((j - g) ** 2))
        assert _gain(j, g, cp) == pytest.approx(expect, rel=1e-12)


def test_gain_table_matches_scalar_calls():
    cp = ChannelParams()
    rng = np.random.default_rng(3)
    drones = rng.uniform(-400, 400, (3, 2))
    users = rng.uniform(-400, 400, (5, 2))
    table = gain_table(drones, users, cp)
    assert table.shape == (5, 3)
    for u in range(5):
        for d in range(3):
            assert table[u, d] == pytest.approx(_gain(drones[d], users[u], cp), rel=1e-14)


def test_user_equipment_xy():
    ue = UserEquipment(3, 1.5, -2.0)
    assert ue.uid == 3
    np.testing.assert_allclose(ue.xy, [1.5, -2.0])


def test_subchannel_rate_known_value():
    assert subchannel_rate(1000.0) == pytest.approx(9.967226258835993, rel=1e-12)
    assert subchannel_rate(0.0) == 0.0
    assert subchannel_rate(1.0) == pytest.approx(1.0, rel=1e-12)


def test_interference_excludes_own_transmissions():
    # a lone user never interferes with itself, whichever drones carry it
    gains = np.array([[1e-6, 2e-7]])
    power = np.zeros((1, 2, 1))
    power[0, 0, 0] = 0.4
    power[0, 1, 0] = 0.3
    inter = interference_table(power, gains, 1e-10)
    assert inter[0, 0] == pytest.approx(1e-10, rel=1e-12)


def test_interference_is_other_users_only():
    # user 1's transmission through drone 1 leaks into user 0 via user 0's
    # gain toward drone 1; user 0's own power does not appear
    gains = np.array([[1e-6, 2e-7], [3e-7, 8e-7]])
    power = np.zeros((2, 2, 1))
    power[0, 0, 0] = 0.4
    power[1, 1, 0] = 0.3
    inter = interference_table(power, gains, 1e-10)
    assert inter[0, 0] == pytest.approx(0.3 * 2e-7 + 1e-10, rel=1e-12)
    assert inter[1, 0] == pytest.approx(0.4 * 3e-7 + 1e-10, rel=1e-12)


def test_interference_includes_same_drone_other_users():
    # two users on one drone sharing a subchannel interfere with each other
    gains = np.array([[1e-6], [1e-6]])
    power = np.zeros((2, 1, 1))
    power[0, 0, 0] = 0.2
    power[1, 0, 0] = 0.5
    inter = interference_table(power, gains, 1e-10)
    assert inter[0, 0] == pytest.approx(0.5 * 1e-6 + 1e-10, rel=1e-12)
    assert inter[1, 0] == pytest.approx(0.2 * 1e-6 + 1e-10, rel=1e-12)


def test_sinr_noise_only():
    gains = np.array([[1e-6]])
    power = np.zeros((1, 1, 1))
    power[0, 0, 0] = 0.1
    val = sinr_table(power, gains, 1e-10)[0, 0, 0]
    assert val == pytest.approx(0.1 * 1e-6 / 1e-10, rel=1e-12)
    assert val == pytest.approx(1000.0, rel=1e-12)


def test_sinr_symmetric_pair_is_one_when_signal_equals_interference():
    # two users, two drones, same subchannel, unit-symmetric layout:
    # each link's interference equals its signal when gains and powers match
    gains = np.array([[1e-6, 1e-6], [1e-6, 1e-6]])
    power = np.zeros((2, 2, 1))
    power[0, 0, 0] = 0.5
    power[1, 1, 0] = 0.5
    val = sinr_table(power, gains, 0.0)[0, 0, 0]
    assert val == pytest.approx(1.0, rel=1e-12)


def test_sinr_table_matches_scalar():
    rng = np.random.default_rng(11)
    gains = rng.uniform(1e-8, 1e-6, (3, 2))
    power = rng.uniform(0, 0.2, (3, 2, 4))
    table = sinr_table(power, gains, 1e-10)
    for u in range(3):
        for d in range(2):
            for m in range(4):
                # every other user's transmission on m, through u's gains
                inr = 1e-10 + sum(
                    power[i, j, m] * gains[u, j] for i in range(3) if i != u for j in range(2)
                )
                assert table[u, d, m] == pytest.approx(
                    power[u, d, m] * gains[u, d] / inr, rel=1e-12
                )


def test_rate_table_is_log2_of_one_plus_sinr():
    rng = np.random.default_rng(12)
    gains = rng.uniform(1e-8, 1e-6, (2, 2))
    power = rng.uniform(0, 0.2, (2, 2, 3))
    rates = rate_table(power, gains, 1e-10)
    expect = np.log2(1.0 + sinr_table(power, gains, 1e-10))
    np.testing.assert_allclose(rates, expect, rtol=1e-13)


def test_user_rate_masks_by_binaries():
    # the binaries mask the powers, so a user's rate is the sum of the rates
    # on the subchannels it was assigned
    rng = np.random.default_rng(13)
    gains = rng.uniform(1e-8, 1e-6, (2, 2))
    assoc = np.array([[1, 0], [0, 1]])
    chan = np.zeros((2, 2, 3), dtype=int)
    chan[0, 0, :2] = 1
    chan[1, 1, 2] = 1
    power = rng.uniform(0.01, 0.2, (2, 2, 3)) * assoc[:, :, None] * chan
    rates = rate_table(power, gains, 1e-10)
    r0, r1 = user_rates(power, gains, 1e-10)
    assert r0 == pytest.approx(rates[0, 0, 0] + rates[0, 0, 1], rel=1e-13)
    assert r1 == pytest.approx(rates[1, 1, 2], rel=1e-13)


def test_user_rates_sums_where_power_lives():
    # with power placed only on owned triples, the unmasked per-user sum
    # equals the sum of the rates masked by the binaries, for every user
    rng = np.random.default_rng(14)
    gains = rng.uniform(1e-8, 1e-6, (3, 2))
    assoc = np.array([[1, 0], [0, 1], [1, 0]])
    chan = np.zeros((3, 2, 4), dtype=int)
    chan[0, 0, 0] = 1
    chan[1, 1, 1] = 1
    chan[2, 0, [2, 3]] = 1
    power = np.where(chan, rng.uniform(0.01, 0.2, chan.shape), 0.0)
    totals = user_rates(power, gains, 1e-10)
    rates = rate_table(power, gains, 1e-10)
    for u in range(3):
        masked = float(np.sum(assoc[u][:, None] * chan[u] * rates[u]))
        assert totals[u] == pytest.approx(masked, rel=1e-12)


def test_rates_increase_with_own_power_decrease_with_interference():
    gains = np.array([[1e-6, 5e-7], [5e-7, 1e-6]])
    power = np.zeros((2, 2, 1))
    power[0, 0, 0] = 0.1
    power[1, 1, 0] = 0.1
    base = rate_table(power, gains, 1e-10)[0, 0, 0]
    boosted = power.copy()
    boosted[0, 0, 0] = 0.2
    assert rate_table(boosted, gains, 1e-10)[0, 0, 0] > base
    jammed = power.copy()
    jammed[1, 1, 0] = 0.5
    assert rate_table(jammed, gains, 1e-10)[0, 0, 0] < base


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(ref_gain=0.0)
    with pytest.raises(ValueError):
        ChannelParams(noise_power=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(altitude=0.0)
