"""Independent brute-force reference for small allocation instances.

Everything here is computed from first principles with plain numpy so the
package under test shares no code with its referee: binaries by explicit
enumeration, powers by grid search over per-user totals and split
fractions, rates by direct evaluation of log2(1 + signal/interference).
Only the two-user, two-subchannel shape is supported; that is the largest
shape where the grid stays exhaustive at useful resolution.

`coupling_admits` is the product form of the binary-power coupling, the
referee of the linearized form the audit checks powers against.
The surrogate checks share `random_binaries` and `interference_term`, the
true interference log-term taken from the channel model's interference
table rather than from the solver's packed view. `loop_struct` builds the
solver's packed view of one instance with explicit loops, as the referee
of its array construction. `slsqp_subproblem` solves one convexified
power subproblem with scipy's SLSQP, as the referee of the package's
log-barrier solver; it is the only user of scipy and reads the packed
view it is given.
"""

import itertools

import numpy as np


def direct_rates(p0, p1, d0, d1, gains, noise):
    """Rates for two users with per-subchannel powers p0, p1 (each (..., 2))
    served by drones d0, d1. Interference on a subchannel is the other
    user's power there, through the victim's gain toward the serving drone."""
    r0 = np.zeros(p0.shape[:-1])
    r1 = np.zeros(p1.shape[:-1])
    for m in range(2):
        i0 = p1[..., m] * gains[0, d1] + noise
        i1 = p0[..., m] * gains[1, d0] + noise
        r0 = r0 + np.log2(1.0 + p0[..., m] * gains[0, d0] / i0)
        r1 = r1 + np.log2(1.0 + p1[..., m] * gains[1, d1] / i1)
    return r0, r1


def _power_menu(subset, totals, splits):
    """(n, 2) per-subchannel powers for one user: every total, and for a
    two-subchannel holding every split fraction of that total."""
    if len(subset) == 1:
        menu = np.zeros((totals.size, 2))
        menu[:, subset[0]] = totals
        return menu
    t = np.repeat(totals, len(splits))
    f = np.tile(splits, totals.size)
    menu = np.column_stack([t * f, t * (1.0 - f)])
    return menu


def grid_oracle(gains, rate_floor, max_power, noise, steps=200,
                splits=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """Minimum total power over every binary choice and a power grid.

    gains: (2, 2) user-by-drone gains. Enumerates, for each user, a serving
    drone and a nonempty subchannel subset of {0, 1}; powers come from a
    grid of per-user totals with step max_power/steps. Returns the best
    objective, or None when no grid point is feasible.
    """
    gains = np.asarray(gains, dtype=float)
    totals = np.linspace(0.0, max_power, steps + 1)
    splits = np.asarray(splits, dtype=float)
    subsets = [(0,), (1,), (0, 1)]
    options = list(itertools.product(range(2), subsets))
    best = None
    for (d0, s0), (d1, s1) in itertools.product(options, options):
        menu0 = _power_menu(s0, totals, splits)
        menu1 = _power_menu(s1, totals, splits)
        p0 = menu0[:, None, :]
        p1 = menu1[None, :, :]
        t0 = menu0.sum(axis=1)[:, None]
        t1 = menu1.sum(axis=1)[None, :]
        if d0 == d1:
            ok = t0 + t1 <= max_power + 1e-12
        else:
            ok = np.broadcast_to((t0 <= max_power + 1e-12) & (t1 <= max_power + 1e-12),
                                 (menu0.shape[0], menu1.shape[0]))
        r0, r1 = direct_rates(p0, p1, d0, d1, gains, noise)
        ok = ok & (r0 >= rate_floor - 1e-12) & (r1 >= rate_floor - 1e-12)
        if not ok.any():
            continue
        obj = np.where(ok, t0 + t1, np.inf).min()
        if best is None or obj < best:
            best = float(obj)
    return best


def coupling_admits(power, assoc, chan, max_power):
    """Elementwise membership in the product-form coupling set
    0 <= p <= assoc * chan * Pmax, the referee of the package's
    linearized form."""
    p = np.asarray(power, dtype=float)
    ub = np.asarray(assoc, dtype=float)[:, :, None] * np.asarray(chan, dtype=float) * max_power
    return (p >= 0.0) & (p <= ub)


def random_binaries(rng, U, D, M):
    """(assoc, chan): one random drone per user and a random nonempty
    subchannel set on it."""
    assoc = np.zeros((U, D), dtype=np.int8)
    assoc[np.arange(U), rng.integers(0, D, U)] = 1
    held = rng.random((U, M)) < 0.5
    held[np.arange(U), rng.integers(0, M, U)] = True
    return assoc, (assoc[:, :, None] * held[:, None, :]).astype(np.int8)


def interference_term(assoc, chan, power, gains, noise):
    """(U,) each user's sum, over the subchannels it holds, of
    log2(interference + noise)."""
    from dronegrid import interference_table

    log_inr = np.log2(interference_table(power, gains, noise))  # (U, M)
    held = (np.asarray(assoc)[:, :, None] * chan).sum(axis=1)  # (U, M)
    return (held * log_inr).sum(axis=1)


def loop_struct(assoc, chan, gains):
    """The packed view of fixed binaries, one element at a time.

    Returns a dict of the solver's `_Struct` arrays: the held triples
    (tu, td, tm) in nested-loop (u, d, m) order, g_own, den, agg, cap_mat
    and users, with the meaning the solver's docstring gives them.
    """
    gains = np.asarray(gains, dtype=float)
    U, D, M = np.shape(chan)
    triples = [(u, d, m) for u in range(U) for d in range(D) for m in range(M)
               if assoc[u, d] and chan[u, d, m]]
    n = len(triples)
    users = sorted({u for u, _, _ in triples})
    den = np.zeros((n, n))
    agg = np.zeros((len(users), n))
    cap_mat = np.zeros((D, n))
    for r, (u, d, m) in enumerate(triples):
        for v, (u2, d2, m2) in enumerate(triples):
            if m2 == m and u2 != u:
                den[r, v] = gains[u, d2]
        agg[users.index(u), r] = 1.0
        cap_mat[d, r] = 1.0
    return {
        "tu": np.array([t[0] for t in triples], dtype=int),
        "td": np.array([t[1] for t in triples], dtype=int),
        "tm": np.array([t[2] for t in triples], dtype=int),
        "g_own": np.array([gains[u, d] for u, d, _ in triples]),
        "den": den,
        "agg": agg,
        "cap_mat": cap_mat,
        "users": np.array(users, dtype=int),
    }


def draw_tight_instance(seed, rcp_cls, solve, max_power=1.0, noise=1e-7):
    """Random two-user geometry whose optimum is well inside the grid's
    resolution: redraws until the package's own solve succeeds with a total
    above 0.25 W so a max_power/200 grid quantizes below the 5% band.
    Returns (gains, rcp, solver_objective, allocation)."""
    from dronegrid import ChannelParams, gain_table

    for k in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        cp = ChannelParams(noise_power=noise)
        drones = rng.uniform(-250, 250, (2, 2))
        users = rng.uniform(-350, 350, (2, 2))
        floor = float(rng.uniform(1.5, 2.5))
        gains = gain_table(drones, users, cp)
        rcp = rcp_cls(rate_floor=floor, backhaul_cap=1e9, subchannels=2,
                      max_power=max_power)
        try:
            alloc, state = solve(gains, rcp, noise)
        except Exception:
            continue
        if state.objective >= 0.25:
            return gains, rcp, state.objective, alloc


def slsqp_subproblem(st, y, rcp, inner_tol=1e-6):
    """One convexified subproblem anchored at y, solved with SLSQP.

    Minimises the summed power over the packed variables subject to the
    surrogate rate floors (the interference term replaced by its tangent
    at y), the per-drone caps and the box [0, max_power]. Returns (x, ok):
    the clipped iterate and whether it meets every surrogate floor within
    inner_tol and every cap within inner_tol * max_power.
    """
    from scipy.optimize import minimize

    n = st.n
    ln2 = np.log(2.0)
    lin, base = st.interference_bound(y)
    const = base + rcp.rate_floor

    def rate_slack(x):
        num = st.den @ x + st.g_own * x + st.noise
        return st.agg @ np.log2(num) - lin @ x - const

    def rate_jac(x):
        num = st.den @ x + st.g_own * x + st.noise
        inv = 1.0 / (ln2 * num)
        return st.agg @ ((st.den + np.diag(st.g_own)) * inv[:, None]) - lin

    def cap_slack(x):
        return rcp.max_power - st.cap_mat @ x

    res = minimize(
        lambda x: float(np.sum(x)),
        y,
        jac=lambda x: np.ones(n),
        bounds=[(0.0, rcp.max_power)] * n,
        constraints=[
            {"type": "ineq", "fun": rate_slack, "jac": rate_jac},
            {"type": "ineq", "fun": cap_slack, "jac": lambda x: -st.cap_mat},
        ],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    x = np.clip(res.x, 0.0, rcp.max_power)
    ok = (np.all(rate_slack(x) >= -inner_tol)
          and np.all(cap_slack(x) >= -inner_tol * rcp.max_power))
    return x, bool(ok)
