"""Association, subchannel assignment and minimum-power allocation.

For one time block the radio side of the problem is: pick which drone
serves each user, hand each user at least one subchannel on that drone,
and set per-subchannel transmit powers so every user clears its rate floor
with the least total radiated power.

The binary layer is combinatorial. It starts from a greedy assignment and
runs a local search over re-associations, drone swaps and splits of the
subchannels between two drones. For fixed binaries the power problem has
concave-minus-concave rate constraints, handled by successive convex
approximation: the interference log-term is replaced with its first-order
Taylor expansion at a reference point, which upper-bounds it everywhere
(the log is concave), so each convexified problem is conservative: any
feasible point of the approximation meets the true rate floors.
Re-anchoring at each solution gives a non-increasing objective sequence.

Each convexified problem (minimise the summed power subject to the
surrogate rate floors, the per-drone caps and nonnegative powers) is
solved in numpy by a log-barrier interior-point method (Boyd &
Vandenberghe, Convex Optimization, section 11.3): damped Newton steps with
the exact Hessian centre the barrier problem for a growing weight t, and
the solve stops once the centred point's duality gap m/t (m barrier
terms) is within a relative 1e-7 of its objective. That gap certifies the
answer, and the answer is strictly interior, so it clears every surrogate
floor and cap. An anchor that is not strictly feasible first goes through
a phase I that minimises the largest rate shortfall; phase I either finds
an interior point or proves, by the same gap bound, that none exists.
The first anchor is tilted by a relative 1e-6 across subchannels, so
that exact solves do not keep interchangeable subchannels alike (see
_TILT).
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import user_rates

LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateConstraintParams:
    """Radio-resource constants for the allocation problem.

    rate_floor: minimum spectral efficiency per user, bps/Hz.
    backhaul_cap: total rate the shared backhaul can carry, bps/Hz.
    subchannels: number of orthogonal subchannels per drone.
    max_power: per-drone (and per-subchannel) transmit power budget, watts.
    """

    rate_floor: float = 0.5
    backhaul_cap: float = 10.0
    subchannels: int = 12
    max_power: float = 1.0

    def __post_init__(self):
        if self.rate_floor < 0:
            raise ValueError("rate_floor must be nonnegative")
        if self.backhaul_cap <= 0 or self.max_power <= 0:
            raise ValueError("backhaul_cap and max_power must be positive")
        if self.subchannels < 1:
            raise ValueError("subchannels must be at least 1")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the allocation solver; a mission solves each block with
    the defaults and scores placement candidates with coarser ones
    (placement.PARTICLE_SOLVER).

    sca_tol: the SCA stops once a round lowers the summed power by less
        than this fraction of it.
    max_sca_iters: cap on SCA rounds per power solve.
    swap_passes: local-search passes over the greedy assignment.
    """

    sca_tol: float = 1e-4
    max_sca_iters: int = 50
    swap_passes: int = 1


@dataclass
class ScaState:
    """Trace of one successive-convex-approximation run.

    A round is one convexified subproblem, anchored at the previous
    round's powers and solved by the log-barrier method (phase I first
    when the anchor is not strictly feasible). iteration counts the rounds
    run, including a failed one that sent the loop to the feasibility
    probe and one whose answer was rejected; objective_trace holds the
    summed power of every accepted round. converged is False only when
    the round cap stopped the run.
    """

    iteration: int
    objective_trace: list = field(default_factory=list)
    converged: bool = False

    @property
    def objective(self) -> float:
        """Final summed transmit power, watts."""
        return self.objective_trace[-1] if self.objective_trace else 0.0


# Slack, relative to the power cap, that the audit allows a solved power
# before calling it a violation.
_AUDIT_TOL = 1e-9


@dataclass
class Allocation:
    """One block's radio decisions.

    assoc: (U, D) user-to-drone indicators, one drone per user.
    chan: (U, D, M) subchannel indicators on the serving drone.
    power: (U, D, M) transmit watts, zero off the assigned triples.
    """

    assoc: np.ndarray
    chan: np.ndarray
    power: np.ndarray

    def violations(self, rcp: RateConstraintParams) -> list:
        """Hard-constraint audit; returns human-readable violation strings."""
        out = []
        U = self.assoc.shape[0]
        pm = rcp.max_power
        tol = _AUDIT_TOL * pm
        for u in range(U):
            if self.assoc[u].sum() != 1:
                out.append(f"user {u} associated with {int(self.assoc[u].sum())} drones (need exactly 1)")
            if (self.assoc[u][:, None] * self.chan[u]).sum() < 1:
                out.append(f"user {u} holds no subchannel")
        escaped = np.argwhere(~linearization_admits(self.power, self.assoc, self.chan, pm, tol))
        if escaped.size:
            u, d, m = (int(i) for i in escaped[0])
            out.append(
                f"power outside the linearized coupling set at {len(escaped)} triple(s), first "
                f"user {u} drone {d} subchannel {m}: {self.power[u, d, m]:.6g} W"
            )
        drone_tot = self.power.sum(axis=(0, 2))
        for d, tot in enumerate(drone_tot):
            if tot > pm + tol:
                out.append(f"drone {d} total power {tot:.6g} exceeds cap {pm}")
        return out


class RateInfeasibleError(Exception):
    """No power profile can satisfy every rate floor for these binaries."""

    def __init__(self, users, detail: str):
        self.users = tuple(sorted(set(int(u) for u in users)))
        self.detail = detail
        super().__init__(f"rate floor unreachable for users {list(self.users)}: {detail}")


# ---------------------------------------------------------------------------
# linearized coupling between binaries and powers
# ---------------------------------------------------------------------------

def linearization_admits(power, assoc, chan, max_power: float, tol: float = 0.0) -> np.ndarray:
    """Elementwise membership in the linearized set.

    The pair of caps p <= assoc*Pmax and p <= chan*Pmax (with p >= 0) pins
    p to zero unless both indicators are set, and frees it up to Pmax when
    they are: exactly the product-form set, with no extra lower bound. A
    lower bound of (assoc + chan - 1)*Pmax would instead weld assigned
    powers to Pmax and break the per-drone budget, so it has no place here.
    """
    p = np.asarray(power, dtype=float)
    a = np.asarray(assoc, dtype=float)[:, :, None] * max_power
    c = np.asarray(chan, dtype=float) * max_power
    return (p >= -tol) & (p <= a + tol) & (p <= c + tol)


# ---------------------------------------------------------------------------
# fixed-binary power solver (successive convex approximation)
# ---------------------------------------------------------------------------

@dataclass
class _Struct:
    """Dense per-active-triple view of one fixed-binary instance.

    Active triple r is user tu[r] on drone td[r], subchannel tm[r]; its own
    power is variable r. The triples run in lexicographic (u, d, m) order,
    the order np.nonzero walks the (U, D, M) mask in. That order is the
    solver's variable order, and the rounding of its sums (hence the last
    digits of the traces) depends on it, so it must not change. den[r, v]
    is the gain with which variable v lands as interference in triple r's
    subchannel (zero for v belonging to the same user or another
    subchannel), g_own[r] the direct gain. Row k of agg, the per-user
    summing matrix, sums the triples of user users[k]; row d of cap_mat
    sums the triples on drone d. noise is the noise power per subchannel,
    watts.
    """

    tu: np.ndarray
    td: np.ndarray
    tm: np.ndarray
    g_own: np.ndarray
    den: np.ndarray
    agg: np.ndarray
    cap_mat: np.ndarray
    users: np.ndarray
    shape: tuple
    noise: float

    @property
    def n(self) -> int:
        return self.tu.size

    def pack(self, full) -> np.ndarray:
        return np.asarray(full, dtype=float)[self.tu, self.td, self.tm]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        full = np.zeros(self.shape)
        full[self.tu, self.td, self.tm] = x
        return full

    def interference_bound(self, y: np.ndarray):
        """SCA surrogate of each user's summed log2(interference + noise).

        The first-order Taylor expansion at the packed powers y. Returns
        (lin, base) such that lin @ x + base bounds the term from above for
        every x (log2 is concave) and equals it at x = y.
        """
        den_ref = self.den @ y + self.noise
        w = 1.0 / (LN2 * den_ref)
        lin = self.agg @ (self.den * w[:, None])
        return lin, self.agg @ np.log2(den_ref) - lin @ y


def _build_struct(assoc, chan, gains, noise_power: float):
    assoc = np.asarray(assoc)
    chan = np.asarray(chan)
    gains = np.asarray(gains, dtype=float)
    U, D = assoc.shape
    M = chan.shape[2]
    tu, td, tm = np.nonzero((assoc[:, :, None] != 0) & (chan != 0))
    rival = (tm[:, None] == tm) & (tu[:, None] != tu)  # same subchannel, other user
    den = np.where(rival, gains[tu[:, None], td], 0.0)
    users = np.unique(tu)
    agg = (users[:, None] == tu).astype(float)
    cap_mat = (np.arange(D)[:, None] == td).astype(float)
    return _Struct(tu, td, tm, gains[tu, td], den, agg, cap_mat, users, (U, D, M), noise_power)


# Constants of the log-barrier method that solves each convexified
# subproblem (Boyd & Vandenberghe, Convex Optimization, section 11.3).
_GROWTH = 20.0       # factor by which the barrier weight t grows per centring
# The certified gap is relative to the objective. 1e-7 keeps an inexact
# round 1e3 below the SCA's own stopping test (sca_tol, 1e-4 by default),
# so inner error can neither end the SCA early nor fake an increase, and
# 1e2 below a 1e-5 relative agreement with any other exact solver; every
# twentyfold tightening costs one more centring.
_GAP_REL = 1e-7
_LIFT = 0.1          # anchor powers below _LIFT / t are raised to it
_CENTRED = 1e-5      # a centring ends once half the squared Newton decrement is below this
_ROUGH = 0.5         # the same bound for centrings that certify nothing
_ARMIJO = 0.01       # sufficient-decrease fraction of the backtracking line search
_MAX_NEWTON = 100    # Newton steps per centring
_MAX_ROUNDS = 40     # centrings per phase


class _Barrier:
    """Log barrier of one convexified subproblem.

    Phase II minimises 1'x subject to the surrogate rate slacks
    f_k(x) = agg_k log2(A x + N) - lin_k x - const_k > 0, with
    A = den + diag(g_own), the per-drone caps max_power - cap_mat x > 0 and
    x > 0. Phase I (shift) appends a variable s, adds it to every rate
    slack and minimises s alone. Points are z = x or z = (x, s).
    """

    def __init__(self, st: _Struct, lin, const, max_power: float, shift: bool):
        self.st, self.lin, self.const, self.pmax = st, lin, const, max_power
        self.shift = shift
        self.a_mat = st.den + np.diag(st.g_own)
        self.row = np.searchsorted(st.users, st.tu)  # each variable's user row
        n = st.n
        self.cost = np.zeros(n + 1) if shift else np.ones(n)
        if shift:
            self.cost[n] = 1.0
        self.m = st.agg.shape[0] + st.cap_mat.shape[0] + n  # barrier terms

    def slacks(self, z):
        """(num, f, g): received power per variable, rate and cap slacks."""
        st = self.st
        x = z[: st.n]
        num = self.a_mat @ x + st.noise
        f = st.agg @ np.log2(num) - self.lin @ x - self.const
        if self.shift:
            f = f + z[-1]
        return num, f, self.pmax - st.cap_mat @ x

    def inside(self, z):
        """slacks(z) when z is strictly feasible, else None."""
        if z[: self.st.n].min() <= 0:
            return None
        num, f, g = self.slacks(z)
        return (num, f, g) if f.min() > 0 and g.min() > 0 else None

    def jacobian(self, num):
        """Gradient of each rate slack, one row per user."""
        st = self.st
        jac = (st.agg / (LN2 * num)) @ self.a_mat - self.lin
        if self.shift:
            jac = np.hstack([jac, np.ones((jac.shape[0], 1))])
        return jac

    def newton(self, z, num, f, g, t):
        """Gradient of t cost'z + barrier, the Newton step and H^-1 cost.

        The Hessian is exact: H = J'diag(1/f^2)J + B with
        B = A'diag(w)A + cap_mat'diag(1/g^2)cap_mat + diag(1/x^2) and
        w_r = 1/(ln2 num_r^2 f_k) for the user k that owns variable r.
        Near the optimum the rate slacks f are tiny and the rank-K first
        term swamps B in floating point, so H is never formed: the step
        solves the equivalent augmented system
        [[B, J'], [J, -diag(f^2)]] (step, v) = (-grad, 0),
        with B's rows and columns scaled to a unit diagonal.
        """
        st, n = self.st, self.st.n
        x = z[:n]
        jac = self.jacobian(num)
        inv_g = 1.0 / g
        grad = t * self.cost - (1.0 / f) @ jac
        grad[:n] += inv_g @ st.cap_mat - 1.0 / x
        # B = rate' rate + caps' caps + diag(1/x^2)
        rate = self.a_mat * np.sqrt(1.0 / (LN2 * num * num * f[self.row]))[:, None]
        caps = st.cap_mat * inv_g[:, None]
        b = rate.T @ rate + caps.T @ caps + np.diag(1.0 / (x * x))
        N, K = self.cost.size, f.size
        aug = np.zeros((N + K, N + K))
        aug[:n, :n] = b
        aug[:N, N:] = jac.T
        aug[N:, :N] = jac
        aug[N:, N:] = np.diag(-f * f)
        d = np.ones(N + K)
        d[:n] = 1.0 / np.sqrt(np.diag(b))
        rhs = np.zeros((N + K, 2))
        rhs[:N, 0] = -grad
        rhs[:N, 1] = self.cost
        sol = np.linalg.solve(aug * np.outer(d, d), rhs * d[:, None])[:N] * d[:N, None]
        return grad, sol[:, 0], sol[:, 1]

    def center(self, z, t, tol):
        """Damped Newton on t cost'z + barrier from the interior point z.

        Returns (z, H^-1 cost at z, centred); centred means half the
        squared Newton decrement at z is within tol. Once the decrement is
        small, Newton's method is in its quadratic region and a full step
        that stays interior is taken even if rounding fails the line
        search's decrease test; the next decrement decides.
        """
        n = self.st.n
        num, f, g = self.slacks(z)
        for _ in range(_MAX_NEWTON + 1):
            try:
                grad, step, u = self.newton(z, num, f, g, t)
            except np.linalg.LinAlgError:
                return z, None, False
            dec2 = -grad @ step
            if not dec2 > 2 * tol:
                return z, u, np.isfinite(dec2)
            # longest step that keeps the powers and caps positive
            dx = step[:n]
            load = self.st.cap_mat @ dx
            shrink, grow = dx < 0, load > 0
            reach = np.concatenate([-z[:n][shrink] / dx[shrink], g[grow] / load[grow]])
            s = min(1.0, 0.99 * reach.min()) if reach.size else 1.0
            while True:
                z_new = z + s * step
                new = self.inside(z_new)
                if new is not None:
                    num_new, f_new, g_new = new
                    # change in the barrier objective, summed as log ratios
                    change = (t * s * (self.cost @ step) - np.log(f_new / f).sum()
                              - np.log(g_new / g).sum() - np.log(z_new[:n] / z[:n]).sum())
                    if change <= -_ARMIJO * s * dec2:
                        break
                if s == 1.0 and dec2 < 1e-2 and new is not None:
                    break  # quadratic region: rounding, not distance, fails the test
                s *= 0.5
                if s < 1e-12:
                    return z, u, False
            z, num, f, g = z_new, num_new, f_new, g_new
        return z, u, False

    def run(self, z, t, done):
        """Follow the central path from z at t until done(z, t) decides.

        Returns (z, verdict); verdict is False when a centring fails.
        Between centrings the point takes the predictor step
        -(1 - 1/growth) t H^-1 cost, the path's first-order move in 1/t,
        shortened until it stays interior.
        """
        for _ in range(_MAX_ROUNDS):
            z, u, centred = self.center(z, t, _ROUGH)
            if not centred:
                return z, False
            if done(z, t) is not None:
                # a verdict is only as good as the centring behind it
                z, u, centred = self.center(z, t, _CENTRED)
                if not centred:
                    return z, False
                verdict = done(z, t)
                if verdict is not None:
                    return z, verdict
            step = -(1.0 - 1.0 / _GROWTH) * t * u
            for _ in range(10):
                if self.inside(z + step) is not None:
                    z = z + step
                    break
                step *= 0.5
            t *= _GROWTH
        return z, False


def _subproblem(st: _Struct, y: np.ndarray, rcp: RateConstraintParams, gap: float = 1.0):
    """Solve one convexified problem anchored at y. Returns (x, ok).

    Minimises the summed power subject to the surrogate rate floors (the
    interference term replaced by its tangent at y), the per-drone caps
    and x >= 0, with the log-barrier method of Boyd & Vandenberghe
    (Convex Optimization, section 11.3): damped Newton centring with the
    exact Hessian, then t grows by _GROWTH until the centred point's
    duality gap m/t, which bounds its distance to the optimum, is within
    _GAP_REL of its objective. The result is strictly interior, so it
    clears every surrogate floor and cap. ok is False when phase I proves
    that no point clears every floor, or when a centring fails and the
    answer is uncertified.

    gap is the relative improvement expected over y's objective (the SCA
    loop passes its last one); the first centring's t is m / (gap 1'y),
    so that its duality gap m/t is of the order of the distance to the
    optimum (Boyd & Vandenberghe's rule for the initial t).
    """
    lin, base = st.interference_bound(y)
    const = base + rcp.rate_floor
    bar = _Barrier(st, lin, const, rcp.max_power, shift=False)
    x = y
    if bar.inside(y) is None:
        x, ok = _phase_one(st, lin, const, rcp.max_power, y)
        if not ok:
            return x, False
        gap = 1.0  # far from the optimum: start on a wide gap

    t = bar.m / (gap * x.sum())
    lifted = np.maximum(x, _LIFT / t)
    if bar.inside(lifted) is not None:
        x = lifted  # near-zero powers would need many halvings to re-centre

    def certified(x, t):
        return True if bar.m / t <= _GAP_REL * x.sum() else None

    return bar.run(x, t, certified)


def _phase_one(st: _Struct, lin, const, max_power: float, y: np.ndarray):
    """A strictly feasible point of the subproblem, from an anchor y that is not.

    Minimises s subject to f_k(x) + s > 0, the caps and x > 0 with the
    phase II Newton code and one extra variable, starting from y pulled
    strictly inside the caps and x > 0. Returns (x, True) at the first
    centred point with s < 0, and (x, False) once the gap bound
    s - m/t > 0 proves that no point clears every floor, or when a
    centring fails.
    """
    x = np.maximum(y, 1e-12 * max_power)
    x *= np.minimum(1.0, 0.99 * max_power / (st.cap_mat @ x)[st.td])
    p1 = _Barrier(st, lin, const, max_power, shift=True)
    _, f, _ = p1.slacks(np.append(x, 0.0))
    z = np.append(x, 1.0 - f.min())

    def settled(z, t):
        if z[-1] < 0:
            return True
        return False if z[-1] - p1.m / t > 0 else None

    z, ok = p1.run(z, 1.0, settled)
    return z[: st.n], ok


def _probe_start(st: _Struct, rcp: RateConstraintParams):
    """Equal-split feasibility probe, solved in closed form.

    Splits each user's floor evenly over its subchannels, so triple r needs
    the SINR need_r under the interference of the others: x = F x + b with
    F = diag(need/g_own) den >= 0 and b = need * noise / g_own. From zero,
    the power-control iteration x <- F x + b (Foschini & Miljanic, IEEE TVT
    1993; Yates, IEEE JSAC 1995) rises monotonically to (I - F)^-1 b when
    the spectral radius of F is below 1 and diverges otherwise. One linear
    solve gives that limit, taken as such only under a positivity
    certificate: x > 0 wherever b > 0 and x == 0 where b == 0 (rate_floor
    0, where need is 0). By Perron-Frobenius subinvariance a nonnegative
    x with (I - F) x = b >= 0 exists only when rho(F) <= 1, and x > 0 with
    F x < x gives rho(F) < 1, so the certificate holds exactly where the
    iteration converges. When it fails, or the solve is singular, no finite
    equal split exists: the probe returns x = inf, infeasible, naming every
    user that holds a triple. Otherwise a box or per-drone cap breach flags
    the floor as unreachable and names the users that demand the excess.
    """
    need = st.agg.T @ (2.0 ** (rcp.rate_floor / st.agg.sum(axis=1)) - 1.0)  # per triple
    b = need * st.noise / st.g_own
    try:
        x = np.linalg.solve(np.eye(st.n) - (need / st.g_own)[:, None] * st.den, b)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.where(b > 0, x > 0, x == 0)):
        return np.full(st.n, np.inf), False, st.users.tolist()
    # a triple is bad above the box or on a drone above its cap
    bad = (x > rcp.max_power) | (st.cap_mat @ x > rcp.max_power)[st.td]
    return x, not bad.any(), np.unique(st.tu[bad]).tolist()


# Relative tilt of the SCA's first anchor across subchannels. _deal_channels
# makes subchannels with the same co-channel users interchangeable, an exact
# inner solve maps an anchor that treats them alike to an answer that does
# too, and the SCA can then end on such a symmetric stationary point although
# concentrating each user's power on fewer of them needs less power.
_TILT = 1e-6

# Flat first SCA anchor per triple, watts.
_INIT_POWER = 0.1


# Why an SCA run stopped: its tolerance test, its round cap, or a verdict
# no further round can change (an increase break, a failed round after an
# accepted one, or a RateInfeasibleError).
_TOL, _CAP, _FINAL = "tol", "cap", "final"


class _ScaRun:
    """One SCA run for fixed binaries, resumable at a tighter config.

    The loop's locals live here, so a run that did not end for good can
    go on under a smaller sca_tol or a larger max_sca_iters. Each round
    starts with the one stop test: the tolerance, then the round cap. The
    rounds are deterministic, and a fresh run at such a config passes
    through the same iterates and does not stop earlier, so going on gives
    exactly its answer. tol is the sca_tol under which the run last
    stopped.
    """

    def __init__(self, st: _Struct, gains: np.ndarray, rcp: RateConstraintParams):
        self.st, self.gains, self.rcp = st, gains.copy(), rcp  # the caller may change its gains
        # reference point: flat _INIT_POWER, shrunk where a drone's triple
        # count would already break its cap, and tilted across subchannels
        # by a relative _TILT (see there)
        base = min(_INIT_POWER, rcp.max_power)
        loads = st.cap_mat.sum(axis=1)[st.td]  # triples on each variable's drone
        self.tilt = 1.0 + _TILT * (st.tm + 1) / st.shape[2]
        self.y = self.tilt * np.where(loads * base > 0.9 * rcp.max_power, 0.9 * rcp.max_power / loads, base)
        self.trace = []
        self.accepted = None
        self.obj_prev = math.inf
        self.improvement = math.inf
        self.probed = False
        self.gap = 1.0
        self.it = 0
        self.tol = math.inf
        self.stop = None
        self.error = None

    def advance(self, cfg: SolverConfig):
        """Go on until cfg stops the run; (power, state) as a fresh run at
        cfg returns them. cfg must not be looser than the last one
        (sca_tol no larger than tol, max_sca_iters no smaller than it)."""
        if self.stop != _FINAL:
            self.stop = self._rounds(cfg)
        self.tol = cfg.sca_tol
        if self.error is not None:
            raise RateInfeasibleError(self.error.users, self.error.detail)
        if self.accepted is None:
            raise RateInfeasibleError(list(self.st.users), "no feasible iterate found")
        state = ScaState(self.it, list(self.trace), converged=self.stop != _CAP)
        return self.st.scatter(self.accepted), state

    def _rounds(self, cfg: SolverConfig):
        st, rcp = self.st, self.rcp
        while True:
            if self.improvement < cfg.sca_tol * max(self.obj_prev, 1e-300):
                return _TOL
            if self.it >= cfg.max_sca_iters:
                return _CAP
            self.it += 1
            x, ok = _subproblem(st, self.y, rcp, self.gap)
            if not ok:
                if not self.probed:
                    self.probed = True
                    px, feas, violators = _probe_start(st, rcp)
                    if not feas:
                        self.error = RateInfeasibleError(violators, "power demand exceeds the drone budget")
                        return _FINAL
                    self.y = self.tilt * px
                    continue
                if self.accepted is None:
                    rates = user_rates(st.scatter(x), self.gains, st.noise)[st.users]
                    bad = st.users[rates < rcp.rate_floor]
                    # no user short at the failed iterate: name every user
                    # that holds a triple, so the error always names someone
                    self.error = RateInfeasibleError(
                        bad if bad.size else st.users, "convexified subproblem unsolvable within tolerance"
                    )
                return _FINAL
            obj = float(np.sum(x))
            if obj > self.obj_prev * (1 + 1e-15):
                return _FINAL  # anchor is already a fixed point; keep the incumbent
            self.accepted = x
            self.improvement = self.obj_prev - obj
            self.trace.append(obj)
            self.obj_prev = obj
            self.y = x
            self.gap = min(1.0, self.improvement / max(obj, 1e-300))


def solve_power_given_binaries(
    assoc: np.ndarray,
    chan: np.ndarray,
    gains: np.ndarray,
    rcp: RateConstraintParams,
    cfg: SolverConfig = SolverConfig(),
    noise_power: float = 1e-10,
    memo: dict | None = None,
):
    """Minimum-total-power profile for fixed binaries.

    Returns (power, state): power is the (U, D, M) tensor, state the SCA
    trace. Raises RateInfeasibleError when no profile within the caps can
    clear every floor, naming the violating users.

    memo is assign_binaries' dict (a call without one gets a fresh one),
    and keeps one SCA run per (rcp, assigned triples, noise_power, gains),
    the gains byte for byte. A stored run is replaced by a fresh one when
    cfg is looser than the config it last stopped under (a larger sca_tol
    or a max_sca_iters below its rounds); otherwise the call goes on from
    where it stopped and gets exactly a fresh run's answer, iteration
    count included.
    """
    memo = {} if memo is None else memo
    assoc = np.asarray(assoc)
    chan = np.asarray(chan)
    gains = np.asarray(gains, dtype=float)
    held = (assoc[:, :, None] != 0) & (chan != 0)
    key = (rcp, (held.shape, held.tobytes()), noise_power, gains.shape, gains.tobytes())
    run = memo.get(key)
    if run is None or cfg.sca_tol > run.tol or cfg.max_sca_iters < run.it:
        st = _build_struct(assoc, chan, gains, noise_power)
        uncovered = np.setdiff1d(np.arange(st.shape[0]), st.users)
        if uncovered.size and rcp.rate_floor > 0:
            raise RateInfeasibleError(uncovered, "user holds no subchannel")
        if st.n == 0 or rcp.rate_floor == 0.0:
            return np.zeros(st.shape), ScaState(0, [0.0], converged=True)
        run = memo[key] = _ScaRun(st, gains, rcp)
    return run.advance(cfg)


# Factor that shrinks every water-filling power floor. The solver's answer
# is strictly interior to a conservative surrogate, so its summed power
# sits at or above the exact floor up to rounding of about 1e-13; the
# relative 1e-9 covers that and the floor's own rounding, so a shrunk
# floor stays below a solved power, and below a budget one can meet.
FLOOR_MARGIN = 1.0 - 1e-9


def _water_filling_power(held, gains: np.ndarray, rate_floor: float, noise_power: float) -> float:
    """Summed noise-only water-filling power, watts.

    User i holds held[i] subchannels, all of gain gains[i] (one drone).
    Interference only raises the power a rate needs, so the user needs at
    least the noise-only water-filling power over k equal gains (Cover &
    Thomas, Elements of Information Theory, ch. 9): k N (2^(r/k) - 1) / g,
    with N the noise power and r the rate floor. A user holding no
    subchannel counts inf (no power reaches a positive floor; 0 when r is
    0) instead of the formula's NaN. math.expm1 (one call per distinct k)
    rather than np.expm1, whose last bit differs on about 1% of inputs.
    """
    def need(k):
        if k == 0:
            return math.inf if rate_floor > 0 else 0.0
        return k * noise_power * math.expm1(LN2 * rate_floor / k)

    per_k = {k: need(k) for k in set(held)}
    return float(np.sum(np.array([per_k[k] for k in held], dtype=float) / gains))


def transmit_power_floor(gains: np.ndarray, rcp: RateConstraintParams, noise_power: float) -> float:
    """Summed transmit power (watts) that no allocation can undercut.

    User u, holding k subchannels on drone d, needs at least the
    water-filling power k N (2^(r/k) - 1) / g_ud (_water_filling_power).
    That falls as k grows and a user holds at most M subchannels on its
    one drone, so the user needs at least M N (2^(r/M) - 1) / max_d g_ud.
    Exactly 0.0 when rate_floor is 0 or there are no users.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.shape[0] == 0:
        return 0.0  # no users
    held = [rcp.subchannels] * gains.shape[0]
    return _water_filling_power(held, gains.max(axis=1), rcp.rate_floor, noise_power)


def _assignment_floor(assoc, chan, gains, rcp: RateConstraintParams, noise_power: float) -> float:
    """Lower bound on solve_power_given_binaries' objective for these binaries.

    The water-filling power of every user over the subchannels it holds
    on its drone, shrunk by FLOOR_MARGIN.
    """
    users = np.arange(assoc.shape[0])
    drone = np.asarray(assoc).argmax(axis=1)
    held = np.asarray(chan)[users, drone].sum(axis=1).tolist()
    return _water_filling_power(held, gains[users, drone], rcp.rate_floor, noise_power) * FLOOR_MARGIN


# ---------------------------------------------------------------------------
# binary assignment
# ---------------------------------------------------------------------------

def _deal_channels(assoc: np.ndarray, M: int, split=()) -> np.ndarray:
    """Spread each drone's subchannels evenly over its users.

    Distinct subchannels within a drone (co-channel users of one drone jam
    each other at full signal strength, which is never power-efficient),
    handed out round-robin in user-index order. A drone deals all M, since
    spreading a fixed rate over more subchannels lowers the power bill,
    unless it is in the drone pair split: then the first deals only the
    even subchannels and the second only the odd ones, so the pair's users
    never share a subchannel and the pair trades bandwidth for
    interference (Yu & Lui, IEEE Trans. Commun. 2006).
    """
    U, D = assoc.shape
    chan = np.zeros((U, D, M), dtype=np.int8)
    for d in range(D):
        users_d = np.nonzero(assoc[:, d])[0]
        if users_d.size == 0:
            continue
        subs = range(split.index(d), M, 2) if d in split else range(M)
        for i, m in enumerate(subs):
            chan[users_d[i % users_d.size], d, m] = 1
    return chan


def _split_deals(assoc: np.ndarray, M: int):
    """The split deals of an association, as (assoc, chan) pairs: one per
    pair of busy drones (itertools.combinations order) whose halves can
    give each of its users a subchannel, the first drone at most ceil(M/2)
    users and the second at most floor(M/2)."""
    load = assoc.sum(axis=0)
    for pair in itertools.combinations(np.nonzero(load)[0].tolist(), 2):
        if load[pair[0]] <= (M + 1) // 2 and load[pair[1]] <= M // 2:
            yield assoc, _deal_channels(assoc, M, pair)


def _greedy_binaries(gains: np.ndarray, rcp: RateConstraintParams):
    U, D = gains.shape
    M = rcp.subchannels
    assoc = np.zeros((U, D), dtype=np.int8)
    load = np.zeros(D, dtype=int)
    for u in range(U):
        order = np.argsort(-gains[u], kind="stable")  # ties -> lowest drone index
        d = next(d for d in order if load[d] < M)
        assoc[u, d] = 1
        load[d] += 1
    return assoc, _deal_channels(assoc, M)


def _objective_for(assoc, chan, gains, rcp, cfg, noise_power, memo):
    """(objective, (power, state)) of the power solve; (None, error) when
    the binaries are rate-infeasible."""
    try:
        solved = solve_power_given_binaries(assoc, chan, gains, rcp, cfg, noise_power, memo)
    except RateInfeasibleError as err:
        return None, err
    return solved[1].objective, solved


def _probe_objective(assoc, chan, gains, rcp, noise_power):
    """Cheap stand-in for the full solve, used only to rank neighbourhood
    candidates: total power of the equal-split fixed point (_probe_start's
    closed form), inf when the floors admit no such point or it breaches a
    box or per-drone cap."""
    st = _build_struct(assoc, chan, gains, noise_power)
    x, feasible, _ = _probe_start(st, rcp)
    return float(np.sum(x)) if feasible else np.inf


def _neighbours(assoc: np.ndarray, M: int):
    """Deterministic neighbourhood as (assoc, chan) pairs, channels dealt by
    _deal_channels: single-user re-associations first, then pairwise drone
    exchanges between users on different drones."""
    U, D = assoc.shape
    load = assoc.sum(axis=0)
    cur = assoc.argmax(axis=1)
    for u in range(U):
        for d2 in range(D):
            if d2 != cur[u] and load[d2] < M:
                out = assoc.copy()
                out[u] = 0
                out[u, d2] = 1
                yield out, _deal_channels(out, M)
    for u1 in range(U):
        for u2 in range(u1 + 1, U):
            if cur[u1] != cur[u2]:
                out = assoc.copy()
                out[u1], out[u2] = 0, 0
                out[u1, cur[u2]] = 1
                out[u2, cur[u1]] = 1
                yield out, _deal_channels(out, M)


def _lowest_below(candidates, bar, gains, rcp, cfg, noise_power, memo):
    """(objective, assoc, chan, (power, state)) of the candidate binaries
    with the lowest solved power strictly below bar, None if none gets
    below it. Each win lowers the bar to its objective, so ties keep the
    earlier candidate. Binaries whose _assignment_floor reaches the
    running bar cannot win and are not solved."""
    best = None
    for assoc, chan in candidates:
        if _assignment_floor(assoc, chan, gains, rcp, noise_power) >= bar:
            continue
        obj, solved = _objective_for(assoc, chan, gains, rcp, cfg, noise_power, memo)
        if obj is not None and obj < bar:
            best, bar = (obj, assoc, chan, solved), obj
    return best


# Full power solves per local-search pass, spent on the candidates that the
# feasibility probe (_probe_start, one linear solve) ranks lowest. A
# candidate whose _assignment_floor proves it cannot win is not solved but
# still takes its slot, so the budget picks the same candidates as without
# the floor.
_SEARCH_BUDGET = 6


def assign_binaries(
    gains: np.ndarray,
    rcp: RateConstraintParams,
    cfg: SolverConfig = SolverConfig(),
    noise_power: float = 1e-10,
    memo: dict | None = None,
):
    """Choose association and subchannel indicators for the given gains.

    The greedy deal is solved first, then cfg.swap_passes passes of local
    search, at every instance size. Returns (assoc, chan, (power, state)),
    the last being what solve_power_given_binaries gave for the winning
    binaries. Raises the greedy deal's RateInfeasibleError if the search
    finds no feasible binaries either, and ValueError when U > D*M (some
    user could never hold a subchannel).

    A pass solves, through one loop (_lowest_below) and against the
    incumbent less its 1e-9 acceptance margin, first the _SEARCH_BUDGET
    best probe-ranked neighbours (_neighbours, every drone dealing all M
    subchannels), then the split deals (_split_deals) of the incumbent and
    of those neighbours, so ties keep the neighbour. A split deal is
    solved only when its equal-split probe, a feasible profile, already
    beats the bar. Binaries whose _assignment_floor reaches the running
    bar are not solved; the floor never exceeds the solve's objective, so
    the result is the same as without it. A neighbourhood whose floors
    all reach the bar is not ranked.

    Raises RateInfeasibleError before any solve, naming them, when some
    users cannot clear the floor even alone on all M subchannels of their
    best drone at its full budget (_water_filling_power, shrunk by
    FLOOR_MARGIN).

    The answer is a pure function of the arguments. memo is a dict the
    caller owns (run_simulation keeps one per mission; a call without one
    gets a fresh one): every answer is stored in it, and a call whose
    inputs equal a stored call's exactly, the gains byte for byte, gets a
    copy of the stored answer instead of a solve. A rate-infeasible input
    raises and is not stored. The power solves keep their SCA runs in the
    same dict (solve_power_given_binaries), so a solve of binaries that a
    coarser config already solved at these gains, such as the final
    allocation's greedy deal after the particle score at the same
    placement, goes on from that run instead of starting again.
    """
    memo = {} if memo is None else memo
    gains = np.asarray(gains, dtype=float)
    key = (rcp, cfg, noise_power, gains.shape, gains.tobytes())
    if key not in memo:
        memo[key] = _assign_binaries(gains, rcp, cfg, noise_power, memo)
    return copy.deepcopy(memo[key])  # the caller may change what it gets


def retain_memo(memo: dict, gains: np.ndarray) -> None:
    """Drop every entry of an assign_binaries memo, answer or SCA run,
    whose gains differ from these in any byte; what stays is at most one
    answer per (rcp, cfg, noise_power) and one run per (rcp, assigned
    triples, noise_power)."""
    gains = np.asarray(gains, dtype=float)
    at = (gains.shape, gains.tobytes())
    for key in [k for k in memo if k[3:] != at]:
        del memo[key]


def _assign_binaries(gains: np.ndarray, rcp: RateConstraintParams, cfg: SolverConfig, noise_power: float, memo):
    """assign_binaries' solve, without the answer lookup (memo holds the
    SCA runs). A miss solves through this and not through the public
    name, so each assign_binaries call the benchmark's tracer counts is
    one call made by solve_allocation."""
    U, D = gains.shape
    M = rcp.subchannels
    if U > D * M:
        raise ValueError(f"{U} users cannot each hold a subchannel with {D} drones x {M} subchannels")
    # a user needs at least the water-filling power over all M subchannels
    # of its best drone, and no drone carries more than max_power
    need = _water_filling_power([M], np.ones(1), rcp.rate_floor, noise_power) / gains.max(axis=1)
    short = np.nonzero(need * FLOOR_MARGIN > rcp.max_power)[0]
    if short.size:
        raise RateInfeasibleError(short, "needs more than max_power even on every subchannel of its best drone")

    assoc, chan = _greedy_binaries(gains, rcp)
    obj, solved = _objective_for(assoc, chan, gains, rcp, cfg, noise_power, memo)
    if obj is None:
        # kept to be raised if no other binaries are feasible; it names the
        # users the greedy deal leaves below the floor
        greedy_error, obj, solved = solved, math.inf, None

    for _ in range(cfg.swap_passes):
        # a candidate is accepted only if its re-solved powers beat the
        # incumbent by a relative 1e-9; one whose floor reaches that cannot
        target = obj * (1 - 1e-9)
        neighbours = list(_neighbours(assoc, M))
        ranked, tried = [], []
        if any(_assignment_floor(a2, c2, gains, rcp, noise_power) < target for a2, c2 in neighbours):
            # rank the whole neighbourhood with the cheap probe, then spend
            # the expensive full solves only on the most promising few; next
            # to a feasible incumbent, a probe-infeasible candidate is not tried
            probes = [_probe_objective(a2, c2, gains, rcp, noise_power) for a2, c2 in neighbours]
            ranked = sorted(range(len(neighbours)), key=lambda k: (probes[k], k))[:_SEARCH_BUDGET]
            tried = [neighbours[k] for k in ranked if solved is None or np.isfinite(probes[k])]
        # then the split deals of the incumbent and of the budgeted
        # neighbours, each only when its equal-split probe is a feasible
        # profile below target
        for a2 in [assoc] + [neighbours[k][0] for k in ranked]:
            tried += [
                (a3, c3) for a3, c3 in _split_deals(a2, M)
                if _assignment_floor(a3, c3, gains, rcp, noise_power) < target
                and _probe_objective(a3, c3, gains, rcp, noise_power) < target
            ]
        best = _lowest_below(tried, target, gains, rcp, cfg, noise_power, memo)
        if best is None:
            break
        obj, assoc, chan, solved = best
    if solved is None:
        raise greedy_error
    return assoc, chan, solved


def solve_allocation(
    gains: np.ndarray,
    rcp: RateConstraintParams,
    cfg: SolverConfig = SolverConfig(),
    noise_power: float = 1e-10,
    memo: dict | None = None,
):
    """Full radio solve for one block: assign_binaries' winning binaries
    and the powers it solved for them (memo is passed on to it).

    Returns (Allocation, ScaState).
    """
    assoc, chan, (power, state) = assign_binaries(gains, rcp, cfg, noise_power, memo)
    return Allocation(assoc, chan, power), state


# ---------------------------------------------------------------------------
# charging and backhaul
# ---------------------------------------------------------------------------

def charge_decisions(batteries: np.ndarray, bp, rng: np.random.Generator) -> np.ndarray:
    """Pick this block's charge recipient.

    A drone qualifies when its battery is at or below the threshold; the
    powering drone can top up one drone per block, so when several qualify
    one is drawn uniformly at random. Returns (D,) indicators with at most
    a single 1.
    """
    batteries = np.asarray(batteries, dtype=float)
    beta = np.zeros(batteries.shape[0], dtype=np.int8)
    qualifying = np.nonzero(batteries <= bp.threshold)[0]
    if qualifying.size:
        beta[qualifying[rng.integers(qualifying.size)]] = 1
    return beta


def check_backhaul(user_rate_values: np.ndarray, rcp: RateConstraintParams):
    """Whether the summed user rates fit the shared backhaul link."""
    total = float(np.sum(user_rate_values))
    return total <= rcp.backhaul_cap + 1e-12, total
