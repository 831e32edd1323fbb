"""Online two-sweep controller for the delayed path graph.

Each step, an upstream sweep aggregates the delta values (node 1 to N)
and a downstream sweep aggregates the mu values (node N to 1); the two
sweeps are independent and may run in either order.  Afterwards every
node computes its flow and production from purely local quantities.

The per-node kernels below are what each node of the distributed harness
runs: one fold and one combine serve both sweeps, each on its own row and
weight.  The sequential sweeps apply the same formulas to all nodes at once
over the packed parameter tables, in the same order of operations, so
sequential and message-passing execution produce bit-equal decisions.
The local folds are max(tau) in-place adds of whole (2, N) slabs, one per
term, over one product block laid out term by term at synthesis; the
terms past a node's delay are -0.0, the addend that changes no sum.
Both read a step's node inputs through one gather, step_inputs.  The
sweeps' coefficients are fixed at synthesis: each step reads the Python
lists ControllerParams.one_minus_p_tau_1 and b and re-derives none.
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

def local_fold(row, z_k: float, uvals, dwin) -> float:
    """row[0] z_i + sum_D row[D+1] (u_i[t-(tau_i-D)] + D_i[t+sigma_i+D]) over
    the row's own terms, left to right: Phi_i on the phi row, pi_i on gprod's."""
    acc = row[0] * z_k
    for dlt in range(len(row) - 1):
        acc += row[dlt + 1] * (uvals[dlt] + dwin[dlt])
    return acc


def combine(weight: float, fold: float, received: float) -> float:
    """What a node sends on: delta_i = Phi_i + (1 - P_i(tau_i, 1)) delta_{i-1}
    upstream, mu_i = pi_i + b_i mu_{i+1} downstream."""
    return fold + weight * received


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
    """(Phi, pi) of every node, as rows of one (2, N) array, from
    step_inputs' flows + dwin (inflow) and d_last.

    Term j of every node's two folds is one (2, N) slab of the product
    block, and the slabs are added in place from j = 0 up: strictly left to
    right, the scalar kernels' order.  Terms past a node's tau_eff are
    -0.0, which leaves every sum bitwise as it is.
    """
    terms = params.coef[1:] * inflow.T[:, None, :]
    terms.put(params.fold_pad, -0.0)
    folds = params.coef[0] * z
    for term in terms:
        folds += term
    # Node N's terms past the block continue its packed sum, which takes the
    # place of the tail's first term, the block's last.  It has no incoming
    # edge: its flow terms are the kernels' 0.0, which also turns a -0.0
    # window entry into 0.0 as they do.  When its row fits in the block
    # (H + 2 <= W), the tail is that one term and leaves the sum as it is.
    start = params.tail_start
    if start + 1 < params.coef_last.shape[1]:
        tail = params.coef_last[:, start:] * (0.0 + d_last[start - 1 :])
        tail[:, 0] = folds[:, -1]
        folds[:, -1] = np.add.accumulate(tail, axis=1)[:, -1]
    return folds


def upstream_sweep(Phi: np.ndarray, params: ControllerParams) -> np.ndarray:
    """delta values, node 1 up to node N, weighted by 1 - P_i(tau_i, 1)."""
    prev = 0.0
    delta = [
        prev := phi_k + w_k * prev
        for phi_k, w_k in zip(Phi.tolist(), params.one_minus_p_tau_1)
    ]
    return np.fromiter(delta, float, len(delta))


def downstream_sweep(pi: np.ndarray, params: ControllerParams) -> np.ndarray:
    """mu values, node N down to node 1, weighted by b_i (node N's is 0.0)."""
    nxt = 0.0
    mu = [
        nxt := pi_k + b_k * nxt
        for pi_k, b_k in zip(pi.tolist()[::-1], reversed(params.b))
    ]
    return np.fromiter(reversed(mu), float, len(mu))


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
    delta_prev = np.empty_like(delta)
    delta_prev[0] = 0.0
    delta_prev[1:] = delta[:-1]
    u = local_flow(params, z, u_oldest, d_head, delta_prev, mu, d_now)[1:]
    v = local_production(params, delta_prev, mu)
    return ControlDecision(u=u, v=v)


def step_inputs(
    state: PlantState, windows: ShiftedWindows, params: ControllerParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A step's node inputs for both executors, in one gather: flows[k, D]
    and dwin[k, D], node k+1's u_i[t-(tau_i-D)] and D_i[t+sigma_i+D] at
    delay_cols, and d_last, node N's window over the whole horizon."""
    cols, spec = params.delay_cols, params.spec
    # The last node's columns lie past the pipelines: clipped, they read the
    # buffer's closing 0.0.
    flows = state.flows.take(cols, mode="clip")
    return flows, windows.gather(cols), windows.slice(spec.n, spec.horizon + 1)


def control_step(
    state: PlantState,
    windows: ShiftedWindows,
    d_now: np.ndarray,
    params: ControllerParams,
) -> tuple[ControlDecision, SweepState]:
    """One gather of the step's inputs, both sweeps, then the local outputs."""
    flows, dwin, d_last = step_inputs(state, windows, params)
    Phi, pi = _local_folds(params, state.z, flows + dwin, d_last)
    delta = upstream_sweep(Phi, params)
    mu = downstream_sweep(pi, params)
    decision = compute_actions(
        state.z, flows[:, 0], dwin[:, 0], d_now, delta, mu, params
    )
    return decision, SweepState(Phi=Phi, delta=delta, pi=pi, mu=mu)
