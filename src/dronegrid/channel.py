"""Air-to-ground channel model.

Hovering base stations see ground users over line-of-sight links, so the
link gain is a free-space inverse-square law in the slant distance. All
subchannels share one gain per (user, drone) pair; what differs per
subchannel is the co-channel interference created by every other user's
transmission on that subchannel, at any drone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants.

    ref_gain: power gain measured at ref_dist meters from the antenna.
    ref_dist: reference distance for ref_gain, meters.
    noise_power: thermal noise per subchannel, watts.
    altitude: hover height shared by every drone, meters.
    """

    ref_gain: float = 0.01
    ref_dist: float = 1.0
    noise_power: float = 1e-10
    altitude: float = 100.0

    def __post_init__(self):
        if self.ref_gain <= 0 or self.ref_dist <= 0:
            raise ValueError("ref_gain and ref_dist must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if self.altitude <= 0:
            raise ValueError("altitude must be positive")


@dataclass(frozen=True)
class UserEquipment:
    """A ground user at a fixed planar position (meters)."""

    uid: int
    x: float
    y: float

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


def gain_table(drone_positions, user_positions, cp: ChannelParams) -> np.ndarray:
    """Gains for every (user, drone) pair.

    drone_positions: (D, 2) hover points, user_positions: (U, 2) ground
    points. Returns a (U, D) array. Gains depend on the block's fixed
    positions only, so callers compute the table once per candidate
    placement and reuse it.
    """
    drones = np.atleast_2d(np.asarray(drone_positions, dtype=float))
    users = np.atleast_2d(np.asarray(user_positions, dtype=float))
    if users.size == 0:
        return np.zeros((0, len(drones)))
    # (U, D) pairwise squared planar offsets
    off2 = np.sum((users[:, None, :] - drones[None, :, :]) ** 2, axis=-1)
    return cp.ref_gain * cp.ref_dist**2 / (cp.altitude**2 + off2)


def interference_table(power: np.ndarray, gains: np.ndarray, noise_power: float) -> np.ndarray:
    """Interference-plus-noise seen by each user on each subchannel.

    power: (U, D, M) transmit powers, gains: (U, D). Entry [u, m] sums
    p[i, j, m] * gains[u, j] over every transmission except user u's own
    (all serving drones j count, including u's serving drone), plus noise.
    Returns (U, M).
    """
    power = np.asarray(power, dtype=float)
    gains = np.asarray(gains, dtype=float)
    # received power at u on m from everyone: sum_j gains[u,j] * sum_i p[i,j,m]
    total = np.einsum("ud,idm->um", gains, power)
    own = np.einsum("ud,udm->um", gains, power)
    return total - own + noise_power


def sinr_table(power: np.ndarray, gains: np.ndarray, noise_power: float) -> np.ndarray:
    """(U, D, M) SINR for every triple under the current power profile."""
    inr = interference_table(power, gains, noise_power)  # (U, M)
    signal = np.asarray(power, dtype=float) * np.asarray(gains, dtype=float)[:, :, None]
    return signal / inr[:, None, :]


def subchannel_rate(sinr_value):
    """Spectral efficiency log2(1 + SINR), bps/Hz, elementwise."""
    return np.log2(1.0 + np.asarray(sinr_value, dtype=float))


def rate_table(power: np.ndarray, gains: np.ndarray, noise_power: float) -> np.ndarray:
    """(U, D, M) per-subchannel rates under the current power profile."""
    return subchannel_rate(sinr_table(power, gains, noise_power))


def user_rates(power: np.ndarray, gains: np.ndarray, noise_power: float) -> np.ndarray:
    """(U,) achieved rate per user, summing over all of its transmissions."""
    rates = rate_table(power, gains, noise_power)
    return rates.sum(axis=(1, 2))
