"""Test-only diagnostics: the paper's identities evaluated on a run.

A second augmented layout (in-transit slots newest first) as the
reference for the oracle's build, value iteration as the reference for
the stationary Riccati solution, the dense stationary gain and its
undisturbed closed loop, the shifted aggregates S_k, V_k, m_k as arrays
indexed [k, t], the two shifted-sum cost decompositions, a filter over a
harness message log, a per-hop reference for the ledger's announcement
update and a scalar reference for synthesis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from pathlq.harness import Message, MessageLog
from pathlq.ledger import DisturbancePlan, ShiftedWindows
from pathlq.model import GraphSpec, PlantState, Trajectory
from pathlq.oracle import RICCATI_TOL, AugmentedSystem, stationary_riccati
from pathlq.synthesis import ControllerParams, terminal_riccati


@dataclass(frozen=True)
class ReferenceAugmentedSystem(AugmentedSystem):
    """The augmented system with each edge's slots newest first:
    [z_1..z_N, edge-1 slots, edge-2 slots, ...] where the slots of edge e
    hold u_e[t-1], u_e[t-2], .., u_e[t-tau_e] from offsets[e]."""

    offsets: tuple[int, ...]


def reference_build_augmented_system(spec: GraphSpec) -> ReferenceAugmentedSystem:
    n = spec.n
    dim = n + sum(spec.tau)
    m = (n - 1) + n
    offsets = []
    pos = n
    for tau in spec.tau:
        offsets.append(pos)
        pos += tau

    A = np.zeros((dim, dim))
    B = np.zeros((dim, m))
    E = np.zeros((dim, n))
    for i in range(n):
        A[i, i] = 1.0
        E[i, i] = 1.0
    for e in range(n - 1):
        off, tau = offsets[e], spec.tau[e]
        # Arrival into node e+1 (0-based e): z_{e+1} gains u_{e+1}[t - tau].
        A[e, off + tau - 1] = 1.0
        # Departure from node e+2: z_{e+2} loses u_{e+1}[t].
        B[e + 1, e] = -1.0
        # New slot u_{e+1}[t]; older slots shift by one.
        B[off, e] = 1.0
        for s in range(1, tau):
            A[off + s, off + s - 1] = 1.0
    for i in range(n):
        B[i, (n - 1) + i] = 1.0  # production v_i

    Q = np.diag(np.concatenate([np.asarray(spec.q, float), np.zeros(dim - n)]))
    R = np.diag(np.concatenate([np.zeros(n - 1), np.asarray(spec.r, float)]))
    return ReferenceAugmentedSystem(
        spec=spec, A=A, B=B, E=E, Q=Q, R=R, dim=dim, n_inputs=m,
        offsets=tuple(offsets),
    )


def reference_state_vector(
    system: ReferenceAugmentedSystem, state: PlantState
) -> np.ndarray:
    """Pack a PlantState into these coordinates, each edge's slots newest first."""
    x = np.zeros(system.dim)
    x[: system.spec.n] = state.z
    for e, off in enumerate(system.offsets):
        # Pipelines are stored oldest first; slots are newest first.
        x[off : off + system.spec.tau[e]] = state.pipelines[e][::-1]
    return x


def reference_layout_permutation(spec: GraphSpec) -> np.ndarray:
    """perm with x = x_ref[perm]: each edge's slot block reversed."""
    perm = np.arange(spec.n + spec.sigma_total)
    for a, b in zip(spec.sigma, spec.sigma[1:]):
        perm[spec.n + a : spec.n + b] = perm[spec.n + a : spec.n + b][::-1]
    return perm


# Value iteration converges linearly: it needs far more steps than doubling.
RICCATI_MAX_ITER = 200_000


def reference_stationary_riccati(system: AugmentedSystem) -> np.ndarray:
    """Stabilizing solution of the discrete Riccati fixed point.

    Plain value iteration seeded with Q; the production weights make
    R + B'PB positive definite at every iterate even though the flow
    inputs are free.
    """
    A, B, Q, R = system.A, system.B, system.Q, system.R
    P = Q.copy()
    for _ in range(RICCATI_MAX_ITER):
        PB = P @ B
        M = R + B.T @ PB
        K = np.linalg.solve(M, PB.T @ A)
        AP = A.T @ P
        P_next = Q + AP @ A - (A.T @ PB) @ K
        P_next = 0.5 * (P_next + P_next.T)
        update = np.max(np.abs(P_next - P))
        P = P_next
        if update <= RICCATI_TOL * max(1.0, np.max(np.abs(P))):
            break
    else:
        raise RuntimeError(
            f"Riccati iteration did not converge; last update {update:.3e}"
        )
    resid = np.max(np.abs(
        Q + A.T @ P @ A
        - (A.T @ P @ B) @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        - P
    ))
    if resid > 1e-8 * max(1.0, np.max(np.abs(P))):
        warnings.warn(f"Riccati residual {resid:.3e} unexpectedly large")
    return P


def stationary_gain(system: AugmentedSystem, P: np.ndarray | None = None) -> np.ndarray:
    """Dense feedback gain K for the undisturbed problem: u = -K x."""
    if P is None:
        P = stationary_riccati(system)
    A, B, R = system.A, system.B, system.R
    return np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def gain_closed_loop(
    system: AugmentedSystem, K: np.ndarray, x0: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Undisturbed closed loop under u = -K x; returns (states, inputs)."""
    xs = np.zeros((steps + 1, system.dim))
    us = np.zeros((steps, system.n_inputs))
    xs[0] = x0
    for t in range(steps):
        us[t] = -K @ xs[t]
        xs[t + 1] = system.A @ xs[t] + system.B @ us[t]
    return xs, us


# --- shifted-sum diagnostics ------------------------------------------------

@dataclass
class ShiftedAggregates:
    """S_k, V_k, m_k as (N+1, T+1) arrays [k, t]; NaN in row 0 and out of range."""

    spec: GraphSpec
    S: np.ndarray
    V: np.ndarray
    m: np.ndarray


def shifted_aggregates(traj: Trajectory, spec: GraphSpec) -> ShiftedAggregates:
    """Exact shifted sums: S_k[t] = sum_{i<=k} z_i[t - sigma_i], etc.

    S is defined for t in [sigma_k, T], V for t in [sigma_k, T - 1 + sigma_1]
    (each term needs v_i[t - sigma_i] within the run), m for t in [0, T].
    m_k[t] adds, node by node for i <= k, z_i[t] and then the flows
    u_i[t-1], .., u_i[t-tau_i] still in transit on edge i.
    """
    n, T, lead = spec.n, traj.steps, spec.sigma_total
    # Every signal at times -sigma_N..T, NaN where the run has no value:
    # levels, productions, then flows, reaching into the initial pipelines.
    hist = np.full((lead + T + 1, 3 * n - 1), np.nan)
    hist[lead:, :n] = traj.z
    hist[lead:-1, n:] = np.hstack([traj.v, traj.u])
    for e, pipe in enumerate(traj.init_pipelines):
        hist[lead - len(pipe) : lead, 2 * n + e] = pipe
    # One term row per (lag, column): S's, V's, then m's in the order they add.
    lag, col = [*spec.sigma, *spec.sigma], [*range(2 * n)]
    widths = [1 + tau for tau in (*spec.tau, 0)]
    for i, width in enumerate(widths):
        lag += range(width)
        col += [i] + [2 * n + i] * (width - 1)
    rows = lead + np.arange(T + 1) - np.array(lag)[:, None]
    terms = hist[rows, np.array(col)[:, None]]

    S, V, m = np.full((3, n + 1, T + 1), np.nan)
    S[1:] = np.cumsum(terms[:n], axis=0)
    V[1:] = np.cumsum(terms[n : 2 * n], axis=0)
    m[1:] = np.cumsum(terms[2 * n :], axis=0)[np.cumsum(widths) - 1]
    return ShiftedAggregates(spec=spec, S=S, V=V, m=m)


@dataclass
class DecompositionReport:
    level_lhs: float
    level_rhs: float
    production_lhs: float
    production_rhs: float
    truncation_bound: float

    @property
    def level_residual(self) -> float:
        return abs(self.level_lhs - self.level_rhs) / max(self.level_lhs, 1e-30)

    @property
    def production_residual(self) -> float:
        return abs(self.production_lhs - self.production_rhs) / max(
            self.production_lhs, 1e-30
        )


def check_cost_decomposition(
    traj: Trajectory, spec: GraphSpec, gamma: np.ndarray, rho: np.ndarray
) -> DecompositionReport:
    """Evaluate both shifted-sum cost decompositions on a trajectory.

    Level side: sum_t sum_i q_i z_i[t]^2 against the initial levels plus
    gamma-weighted shifted level sums, grouped by which aggregate owns
    each shifted time.  Production side: r-weighted productions against
    rho-weighted shifted production sums.  All sums truncated at the run
    length; the reported truncation bound is a geometric tail estimate
    from the decay observed over the last quarter of the run.
    """
    agg = shifted_aggregates(traj, spec)
    T = traj.steps
    q, r = spec.weights

    # Aggregate k owns the level times sigma_k < t <= sigma_{k+1} and the
    # production times sigma_k <= t < sigma_{k+1}, where sigma_{N+1} = inf.
    level_lhs = float(np.sum(traj.z**2 @ q))
    t = np.arange(1, T + 1)
    k = np.searchsorted(spec.sigma, t)
    level_rhs = float(q @ traj.z[0] ** 2 + gamma[k - 1] @ agg.S[k, t] ** 2)

    prod_lhs = float(np.sum(traj.v**2 @ r))
    t = np.arange(T)
    k = np.searchsorted(spec.sigma, t, side="right")
    prod_rhs = float(rho[k - 1] @ agg.V[k, t] ** 2)

    # Geometric tail estimate: the closed loop decays linearly, so the
    # omitted terms are bounded by the last observed stage cost times
    # ratio/(1-ratio) for the per-step cost contraction ratio.
    tail_window = traj.step_costs[-max(T // 4, 2):]
    nonzero = tail_window[tail_window > 0]
    if len(nonzero) >= 2 and nonzero[-1] < nonzero[0]:
        ratio = (nonzero[-1] / nonzero[0]) ** (1.0 / max(len(nonzero) - 1, 1))
        bound = float(nonzero[-1] * ratio / (1.0 - ratio)) if ratio < 1 else float("inf")
    else:
        bound = float(nonzero[-1]) if len(nonzero) else 0.0
    return DecompositionReport(
        level_lhs=level_lhs,
        level_rhs=level_rhs,
        production_lhs=prod_lhs,
        production_rhs=prod_rhs,
        truncation_bound=bound,
    )


def of_kind(log: MessageLog, *kinds: str) -> list[Message]:
    """The messages of `log` whose kind is one of `kinds`, in order."""
    return [m for m in log.records if m.kind in kinds]


def per_hop_plan_updates(
    windows: ShiftedWindows, plan: DisturbancePlan, changes
) -> list[tuple[int, int, int, float]]:
    """apply_plan_updates one hop at a time: each hop reads D_{i-1} and
    writes D_i as numpy scalars and sends float(D_i).  The reference for
    its column runs; `changes` must pass apply_plan_updates' checks."""
    spec, now, D = windows.spec, windows.now, windows._D
    width = D.shape[1]
    origin: dict[int, int] = {}  # shifted time -> lowest changed node
    for node, t in sorted(changes):
        origin.setdefault(t + spec.sigma[node - 1], node)
    plan.entries.update(changes)
    messages = []
    for st in sorted(origin):
        c = st - now
        for i in range(origin[st], spec.n + 1):
            if not spec.sigma[i - 1] <= c < width:
                break  # out of range for this and every node further up
            D[i, c] = D[i - 1, c] + plan.get(i, st - spec.sigma[i - 1])
            if i < spec.n:
                messages.append((i, i + 1, st, float(D[i, c])))
    return messages


# --- scalar reference for synthesis -------------------------------------------
# synthesize as it was when its sweeps read and wrote numpy scalars one
# element at a time, one node after another: the sweeps now run their
# chains on Python floats and the tables local to a node as array code
# over many nodes, and must give the same bytes.


def reference_riccati_step(x: float, gamma: float, rho: float) -> float:
    """One step of the scalar cost-to-go recursion, X_i(j) from X_i(j+1)."""
    return rho * (x + gamma) / (x + gamma + rho)


def reference_sweep_gamma_rho(q, r) -> tuple[np.ndarray, np.ndarray]:
    """First sweep: harmonic aggregates of the level and production weights."""
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    gamma = np.empty_like(q)
    rho = np.empty_like(r)
    gamma[0] = q[0]
    rho[0] = r[0]
    for i in range(1, len(q)):
        gamma[i] = gamma[i - 1] * q[i] / (gamma[i - 1] + q[i])
        rho[i] = rho[i - 1] * r[i] / (rho[i - 1] + r[i])
    return gamma, rho


def reference_sweep_X_g_b_P(
    spec: GraphSpec, tau_eff, gamma, rho, x_terminal: float, rows
):
    """Second sweep, node N down to node 1: X, g, b and P tables.

    Fills row 1 of each node's rows[k], its gprod row.
    """
    n = spec.n
    X: list[np.ndarray] = [None] * n
    g: list[np.ndarray] = [None] * n
    P: list[np.ndarray] = [None] * n
    g_cross = np.zeros(max(n - 1, 0))
    b = np.zeros(n)  # node N's stays 0.0
    one_minus_p_tau_1 = np.empty(n)

    for k in range(n - 1, -1, -1):
        te = tau_eff[k]
        if k == n - 1:
            xk = np.empty(te + 1)  # X_N(1..H+2)
            xk[te] = x_terminal
        else:
            xk = np.empty(te)
            xk[te - 1] = reference_riccati_step(X[k + 1][0], gamma[k], rho[k])
        for j in range(len(xk) - 1, 0, -1):
            xk[j - 1] = reference_riccati_step(xk[j], gamma[k], rho[k])
        X[k] = xk

        gk = np.full(te + 1, np.nan)
        for j in range(2, te + 1):
            gk[j] = xk[j - 1] / (xk[j - 1] + gamma[k])
        g[k] = gk
        if k < n - 1:
            g_cross[k] = X[k + 1][0] / (X[k + 1][0] + gamma[k])

        gp = rows[k][1]
        gp[0] = gp[1] = 1.0
        for m in range(2, te + 1):
            gp[m] = gp[m - 1] * gk[m]
        if k < n - 1:
            b[k] = g_cross[k] * gp[te]

        pk = np.empty((te, te))
        w = xk[0] / rho[k]
        pk[0, :] = w
        for l in range(2, te + 1):
            wl = xk[l - 1] / rho[k]
            for m in range(1, te + 1):
                if l <= m:
                    pk[l - 1, m - 1] = (1.0 - wl) * gk[l] * pk[l - 2, m - 1] + wl
                else:
                    pk[l - 1, m - 1] = (1.0 - wl) * pk[l - 2, m - 1] + wl
        P[k] = pk
        one_minus_p_tau_1[k] = 1.0 - pk[te - 1, 0]

    return tuple(X), tuple(g), g_cross, b.tolist(), tuple(P), one_minus_p_tau_1.tolist()


def reference_sweep_h_and_finalize(
    spec: GraphSpec, tau_eff, gamma, rho, X, g_cross, rows, b, P, one_minus_p_tau_1
):
    """Third sweep and the final per-node parameters h, phi, a, c and the
    coefficients of the local output formulas.

    Reads each node's gprod row, rows[k][1], and fills its phi row, rows[k][0].
    """
    n = spec.n
    h = np.zeros(n)  # h[i] = h_i, i = 0..N-1; h_0 = 0
    for i in range(1, n):
        k = i - 1
        te = tau_eff[k]
        h[i] = (
            one_minus_p_tau_1[k] * b[k] * h[i - 1] + P[k][te - 1, te - 1] * g_cross[k]
        )

    for k in range(n):
        te = tau_eff[k]
        h_prev = h[k]  # h_{i-1} for node i = k+1
        pk = P[k]
        phk, gpk = rows[k][0], rows[k][1]
        # The product inside phi_i(Delta) runs over j = 2..Delta, which fits
        # the table sizes and is the form confirmed against the dense oracle.
        for dlt in range(1, te + 1):
            phk[dlt] = 1.0 - pk[te - 1, dlt - 1] - (
                one_minus_p_tau_1[k] * h_prev * gpk[dlt]
            )
        phk[0] = phk[1]

    # The output coefficients of all nodes at once; h[k] is h_{i-1} of node
    # i = k+1.  Elementwise, each entry is rounded as one scalar would be.
    q, r = spec.weights
    x1 = np.fromiter((xk[0] for xk in X), float, n)
    gamma_q = gamma / q
    one_minus_gamma_q = 1.0 - gamma_q
    x1_over_r = x1 / r
    one_minus_h_prev = 1.0 - h
    a = x1_over_r + gamma_q * (1.0 - x1 / rho)
    c = -(x1_over_r - gamma * x1 / (q * rho)) * one_minus_h_prev + gamma_q * h
    return h, a, c, one_minus_gamma_q, x1_over_r, one_minus_h_prev


def reference_delay_layout(tau_eff: tuple[int, ...]):
    """coef and coef_last, all NaN, delay_cols, fold_pad and tail_start of
    ControllerParams for these delays."""
    te = np.array(tau_eff)
    n, width = len(te), int(te[:-1].max(initial=1)) + 1  # max tau + 1, at least 2
    sigma = np.concatenate(([0], np.cumsum(te[:-1])))
    delay_cols = sigma[:, None] + np.minimum(np.arange(width - 1), te[:, None] - 1)
    # Term j >= 1 of row c of node k+1 sits at (j - 1, c, k) of coef[1:].
    fold_pad = np.array([
        ((j - 1) * 2 + c) * n + k
        for j in range(1, width) for c in range(2) for k in range(n)
        if j > tau_eff[k]
    ], dtype=np.intp)
    coef = np.full((width, 2, n), np.nan)
    coef_last = np.full((2, tau_eff[-1] + 1), np.nan)
    return coef, coef_last, delay_cols, fold_pad, min(width, tau_eff[-1] + 1) - 1


def reference_synthesize(spec: GraphSpec) -> ControllerParams:
    """synthesize's ControllerParams from the numpy-scalar sweeps."""
    tau_eff = (*spec.tau, spec.horizon + 1)
    coef, coef_last, delay_cols, fold_pad, tail_start = reference_delay_layout(tau_eff)
    # Node k+1's (phi, gprod) rows, views that the sweeps fill; node N's
    # first terms are copied into coef afterwards.
    rows = [*(coef[:, :, k].T for k in range(spec.n - 1)), coef_last]
    gamma, rho = reference_sweep_gamma_rho(spec.q, spec.r)
    x_term = terminal_riccati(gamma[-1], rho[-1])
    X, g, g_cross, b, P, one_minus_p_tau_1 = reference_sweep_X_g_b_P(
        spec, tau_eff, gamma, rho, x_term, rows
    )
    h, a, c, one_minus_gamma_q, x1_over_r, one_minus_h_prev = (
        reference_sweep_h_and_finalize(
            spec, tau_eff, gamma, rho, X, g_cross, rows, b, P, one_minus_p_tau_1
        )
    )
    coef[: tail_start + 1, :, -1] = coef_last[:, : tail_start + 1].T
    params = ControllerParams(
        spec=spec,
        tau_eff=tau_eff,
        gamma=gamma,
        rho=rho,
        x_chain=np.concatenate((*X, [0.0])),
        g_cross=g_cross,
        b=b,
        h=h,
        coef=coef,
        coef_last=coef_last,
        a=a,
        c=c,
        one_minus_p_tau_1=one_minus_p_tau_1,
        one_minus_gamma_q=one_minus_gamma_q,
        x1_over_r=x1_over_r,
        one_minus_h_prev=one_minus_h_prev,
        delay_cols=delay_cols,
        fold_pad=fold_pad,
        tail_start=tail_start,
    )
    # The reference's own per-node arrays, in place of those that
    # ControllerParams builds from x_chain on first read.
    vars(params).update(X=X, g=g, P=P)
    return params
