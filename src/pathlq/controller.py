"""Online two-sweep controller for the delayed path graph.

Each step, an upstream sweep aggregates the delta values (node 1 to N)
and a downstream sweep aggregates the mu values (node N to 1); the two
sweeps are independent and may run in either order.  Afterwards every
node computes its flow and production from purely local quantities.

The per-node kernels below are what each unit of the distributed harness
runs.  The sequential sweeps apply the same formulas to all nodes at once
over the packed parameter tables, in the same order of operations, so
sequential and message-passing execution produce bit-equal decisions.
The output formulas are written once: given ControllerParams and
per-node arrays in place of NodeParams and floats, local_flow and
local_production compute every node's outputs.
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
    return phi_val + p.one_minus_p_tau_1 * delta_prev


def local_pi(p: NodeParams, z_k: float, uvals: np.ndarray, dwin: np.ndarray) -> float:
    """pi_i = z_i + sum_D (u_i[t-(tau_i-D)] + D_i[t+sigma_i+D]) prod_{j=2}^{D+1} g_i(j)."""
    acc = z_k
    for dlt in range(p.tau_eff):
        acc += (uvals[dlt] + dwin[dlt]) * p.gprod[dlt + 1]
    return acc


def combine_mu(p: NodeParams, pi_val: float, mu_next: float) -> float:
    return pi_val + p.b * mu_next


def local_flow(
    p: NodeParams | ControllerParams,
    z_k: float,
    u_oldest: float,
    d_head: float,
    delta_prev: float,
    mu_k: float,
    d_k: float,
) -> float:
    """u_{i-1}[t], the flow node i releases downstream (nodes i >= 2)."""
    return (
        p.one_minus_gamma_q * (z_k + u_oldest + d_head)
        - p.a * delta_prev
        + p.c * mu_k
        + d_k
        - d_head
    )


def local_production(
    p: NodeParams | ControllerParams, delta_prev: float, mu_k: float
) -> float:
    """v_i[t] = -(X_i(1)/r_i) (delta_{i-1} + (1 - h_{i-1}) mu_i)."""
    return -p.x1_over_r * (delta_prev + p.one_minus_h_prev * mu_k)


# --- sequential sweeps over the packed tables -------------------------------

def _local_folds(
    params: ControllerParams, z: np.ndarray, inflow: np.ndarray, d_last: np.ndarray
) -> np.ndarray:
    """(Phi, pi) of every node, as rows of one (2, N) array.

    inflow[k, D] is node k+1's u_i[t-(tau_i-D)] + D_i[t+sigma_i+D] at
    ControllerParams.delay_cols; d_last is node N's window over the whole
    horizon.  Accumulating along the delay axis adds strictly left to right,
    the scalar kernels' order; entries past a node's end are never read.
    """
    x = np.concatenate((z[:, None], inflow), axis=1)
    folds = np.add.accumulate(params.coef * x, axis=2)
    folds = folds.reshape(2, -1).take(params.fold_end, axis=1)
    # Node N has no incoming edge: its flow terms are the kernels' 0.0, which
    # also turns a -0.0 window entry into 0.0 as they do.
    x_last = np.concatenate(([z[-1]], 0.0 + d_last))
    folds[:, -1] = np.add.accumulate(params.coef_last * x_last, axis=1)[:, -1]
    return folds


def upstream_sweep(Phi: np.ndarray, params: ControllerParams) -> np.ndarray:
    """delta values, node 1 up to node N."""
    prev = 0.0
    return np.array([
        prev := phi_k + w_k * prev
        for phi_k, w_k in zip(Phi.tolist(), params.one_minus_p_tau_1.tolist())
    ])


def downstream_sweep(pi: np.ndarray, params: ControllerParams) -> np.ndarray:
    """mu values, node N down to node 1."""
    nxt = 0.0
    # Node N's b is 0.0, as in its NodeParams.
    mu = [
        nxt := pi_k + b_k * nxt
        for pi_k, b_k in zip(pi.tolist()[::-1], [0.0] + params.b.tolist()[::-1])
    ]
    return np.array(mu[::-1])


def compute_actions(
    z: np.ndarray,
    u_oldest: np.ndarray,
    d_head: np.ndarray,
    d_now: np.ndarray,
    delta: np.ndarray,
    mu: np.ndarray,
    params: ControllerParams,
) -> ControlDecision:
    """Local output formulas once both sweeps have completed.

    u_oldest and d_head are every node's delay slot 0 (column 0 of
    delay_cols): u_i[t-tau_i] and D_i[t+sigma_i].
    """
    delta_prev = np.concatenate(([0.0], delta[:-1]))
    u = local_flow(params, z, u_oldest, d_head, delta_prev, mu, d_now)[1:]
    v = local_production(params, delta_prev, mu)
    return ControlDecision(u=u, v=v)


def control_step(
    state: PlantState,
    windows: ShiftedWindows,
    d_now: np.ndarray,
    params: ControllerParams,
) -> tuple[ControlDecision, SweepState]:
    """One gather of the step's inputs, both sweeps, then the local outputs."""
    cols = params.delay_cols
    # The last node's columns lie past the pipelines: clipped, they read the
    # buffer's closing 0.0.
    flows = state.flows.take(cols, mode="clip")
    dwin = windows.gather(cols)
    d_last = windows.slice(params.n, params.horizon + 1)
    Phi, pi = _local_folds(params, state.z, flows + dwin, d_last)
    delta = upstream_sweep(Phi, params)
    mu = downstream_sweep(pi, params)
    decision = compute_actions(
        state.z, flows[:, 0], dwin[:, 0], d_now, delta, mu, params
    )
    return decision, SweepState(Phi=Phi, delta=delta, pi=pi, mu=mu)
