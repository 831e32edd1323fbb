"""Online two-sweep controller for the delayed path graph.

Each step, an upstream sweep aggregates the delta values (node 1 to N)
and a downstream sweep aggregates the mu values (node N to 1); the two
sweeps are independent and may run in either order.  Afterwards every
node computes its flow and production from purely local quantities.

The per-node kernels below are also used verbatim by the distributed
harness, so sequential and message-passing execution produce bit-equal
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ledger import ShiftedWindows
from .model import ControlDecision, PlantState
from .synthesis import ControllerParams, NodeParams


@dataclass
class SweepState:
    """Intermediates of one control step (one entry per node)."""

    Phi: np.ndarray
    delta: np.ndarray
    pi: np.ndarray
    mu: np.ndarray


# --- per-node kernels -------------------------------------------------------

def local_phi(p: NodeParams, z_k: float, uvals: np.ndarray, dwin: np.ndarray) -> float:
    """Phi_i = phi_i(1) z_i + sum_D phi_i(D+1) (u_i[t-(tau_i-D)] + D_i[t+sigma_i+D])."""
    acc = p.phi[1] * z_k
    for dlt in range(p.tau_eff):
        acc += p.phi[dlt + 1] * (uvals[dlt] + dwin[dlt])
    return acc


def combine_delta(p: NodeParams, phi_val: float, delta_prev: float) -> float:
    return phi_val + (1.0 - p.p_tau_1) * delta_prev


def local_pi(p: NodeParams, z_k: float, uvals: np.ndarray, dwin: np.ndarray) -> float:
    """pi_i = z_i + sum_D (u_i[t-(tau_i-D)] + D_i[t+sigma_i+D]) prod_{j=2}^{D+1} g_i(j)."""
    acc = z_k
    for dlt in range(p.tau_eff):
        acc += (uvals[dlt] + dwin[dlt]) * p.gprod[dlt + 1]
    return acc


def combine_mu(p: NodeParams, pi_val: float, mu_next: float) -> float:
    return pi_val + p.b * mu_next


def local_flow(
    p: NodeParams,
    z_k: float,
    u_oldest: float,
    d_head: float,
    delta_prev: float,
    mu_k: float,
    d_k: float,
) -> float:
    """u_{i-1}[t], the flow node i releases downstream (nodes i >= 2)."""
    return (
        (1.0 - p.gamma / p.q) * (z_k + u_oldest + d_head)
        - p.a * delta_prev
        + p.c * mu_k
        + d_k
        - d_head
    )


def local_production(p: NodeParams, delta_prev: float, mu_k: float) -> float:
    """v_i[t] = -(X_i(1)/r_i) (delta_{i-1} + (1 - h_{i-1}) mu_i)."""
    return -(p.x1 / p.r) * (delta_prev + (1.0 - p.h_prev) * mu_k)


# --- sequential sweeps ------------------------------------------------------

def _node_inputs(state: PlantState, params: ControllerParams, k: int):
    """(uvals, ) the in-transit flows node k+1 sees, oldest first."""
    if k < params.n - 1:
        return state.pipelines[k]
    return np.zeros(params.tau_eff[k])  # last node: no incoming edge


def _window_slices(windows, params: ControllerParams) -> list[np.ndarray]:
    return [windows.slice(k + 1, params.tau_eff[k]) for k in range(params.n)]


def upstream_sweep(
    state: PlantState, windows: ShiftedWindows, params: ControllerParams
) -> tuple[np.ndarray, np.ndarray]:
    """delta (and Phi) values, node 1 up to node N."""
    n = params.n
    dwin = _window_slices(windows, params)
    Phi = np.empty(n)
    delta = np.empty(n)
    prev = 0.0
    for k in range(n):
        p = params.node_slice(k)
        Phi[k] = local_phi(p, state.z[k], _node_inputs(state, params, k), dwin[k])
        delta[k] = combine_delta(p, Phi[k], prev)
        prev = delta[k]
    return delta, Phi


def downstream_sweep(
    state: PlantState, windows: ShiftedWindows, params: ControllerParams
) -> tuple[np.ndarray, np.ndarray]:
    """mu (and pi) values, node N down to node 1."""
    n = params.n
    dwin = _window_slices(windows, params)
    pi = np.empty(n)
    mu = np.empty(n)
    nxt = 0.0
    for k in range(n - 1, -1, -1):
        p = params.node_slice(k)
        pi[k] = local_pi(p, state.z[k], _node_inputs(state, params, k), dwin[k])
        mu[k] = combine_mu(p, pi[k], nxt)
        nxt = mu[k]
    return mu, pi


def compute_actions(
    state: PlantState,
    windows: ShiftedWindows,
    d_now: np.ndarray,
    delta: np.ndarray,
    mu: np.ndarray,
    params: ControllerParams,
) -> ControlDecision:
    """Local output formulas once both sweeps have completed."""
    n = params.n
    dwin = _window_slices(windows, params)
    u = np.zeros(max(n - 1, 0))
    v = np.empty(n)
    for k in range(n):
        p = params.node_slice(k)
        delta_prev = delta[k - 1] if k > 0 else 0.0
        if k > 0:
            uvals = _node_inputs(state, params, k)
            u[k - 1] = local_flow(
                p, state.z[k], uvals[0], dwin[k][0], delta_prev, mu[k], d_now[k]
            )
        v[k] = local_production(p, delta_prev, mu[k])
    return ControlDecision(u=u, v=v)


def control_step(
    state: PlantState,
    windows: ShiftedWindows,
    d_now: np.ndarray,
    params: ControllerParams,
) -> tuple[ControlDecision, SweepState]:
    """Both sweeps followed by the local output formulas."""
    delta, Phi = upstream_sweep(state, windows, params)
    mu, pi = downstream_sweep(state, windows, params)
    decision = compute_actions(state, windows, d_now, delta, mu, params)
    return decision, SweepState(Phi=Phi, delta=delta, pi=pi, mu=mu)

