"""Test-only diagnostics: the paper's identities evaluated on a run.

The dense stationary gain and its undisturbed closed loop, the shifted
aggregates S_k, V_k, m_k as arrays indexed [k, t], the two shifted-sum
cost decompositions, and a filter over a harness message log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pathlq.harness import Message, MessageLog
from pathlq.model import GraphSpec, Trajectory
from pathlq.oracle import AugmentedSystem, stationary_riccati


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
