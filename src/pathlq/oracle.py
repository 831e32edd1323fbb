"""Independent LQ ground truth for the structured controller.

The delayed plant is lifted to an augmented state space in its own
coordinates, the levels and then PlantState.flows, of dimension
dim = N + sigma_N.  The finite-horizon problem with known additive
disturbances is solved by standard LQ theory, none of the paper's
algebra: the stationary cost-to-go is the terminal weight, so the
feedback gain is constant.  An affine term runs backward from the
plan's last time, and the states forward in closed loop, one
matrix-vector product a step: O(T * dim^2) after one stationary
Riccati solve.  The truncation is exact whenever the disturbances have
died out by the end of the horizon.  That solve is structure-preserving
doubling on the Riccati equation for H = P - Q, whose input weight
R + B'QB is positive definite although the flows are free (each flow
alone moves its departure node's level, q > 0, and r > 0 on the
productions); P = H + Q.  Each O(dim^3) step doubles value iteration's
horizon, 4-8 steps on the verify family, and costs one LU solve with a
(dim, 2 dim) right-hand side and six products, three on the last step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidHorizonError
from .ledger import DisturbancePlan, validate_horizon
from .model import GraphSpec, PlantState

# stationary_riccati stops at an update of H = P - Q of at most
# RICCATI_TOL * max(1, max |H|), and raises after RICCATI_MAX_ITER doubling
# steps; step k covers 2^k steps of value iteration.
RICCATI_TOL = 1e-14
RICCATI_MAX_ITER = 64


@dataclass(frozen=True)
class AugmentedSystem:
    """x[t+1] = A x + B u + E d with diagonal stage weights Q, R.

    State layout: [z_1..z_N, PlantState.flows without its closing 0.0]:
    edge e's pipeline u_e[t-tau_e], .., u_e[t-1], oldest first, from
    index N + sigma_e.  Inputs are [u_1..u_{N-1}, v_1..v_N]; only the
    productions carry cost.
    """

    spec: GraphSpec
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    dim: int
    n_inputs: int


def build_augmented_system(spec: GraphSpec) -> AugmentedSystem:
    n = spec.n
    dim = n + spec.sigma_total
    m = (n - 1) + n
    # Each flow slot takes the next newer one's value; the levels persist.
    A = np.eye(dim, k=1)
    A[:n] = np.eye(n, dim)
    B = np.zeros((dim, m))
    B[:n, n - 1 :] = np.eye(n)  # production v_i
    E = np.eye(dim, n)
    for e in range(n - 1):
        oldest, newest = n + spec.sigma[e], n + spec.sigma[e + 1] - 1
        A[e, oldest] = 1.0  # z_{e+1} gains u_{e+1}[t - tau_{e+1}]
        B[e + 1, e] = -1.0  # z_{e+2} loses u_{e+1}[t],
        A[newest] = 0.0  # which enters the newest slot in place of the shift
        B[newest, e] = 1.0

    Q = np.diag(np.concatenate([np.asarray(spec.q, float), np.zeros(dim - n)]))
    R = np.diag(np.concatenate([np.zeros(n - 1), np.asarray(spec.r, float)]))
    return AugmentedSystem(spec=spec, A=A, B=B, E=E, Q=Q, R=R, dim=dim, n_inputs=m)


def state_vector(system: AugmentedSystem, state: PlantState) -> np.ndarray:
    """Pack a PlantState into the augmented coordinates."""
    return np.concatenate((state.z, state.flows[:-1]))


def stationary_riccati(system: AugmentedSystem) -> np.ndarray:
    """Stabilizing solution P of the discrete algebraic Riccati equation.

    Structure-preserving doubling (Chu, Fan & Lin, 2005) on the equation
    for H = P - Q.  Doubling needs an invertible input weight, and R is
    singular because the flows are free.  The equation for H has the
    weight R + B'QB instead, which is positive definite: a flow with
    u_e != 0 moves the level of its departure node, which no other flow
    moves, so B'QB > 0 on the flows, and R > 0 on the productions.
    With F = (R + B'QB)^-1 B'QA, start from A_0 = A - BF,
    G_0 = B (R + B'QB)^-1 B' and H_0 = A'(QA - QBF), and repeat, with
    W = I + G_k H_k:
        A_k+1 = A_k W^-1 A_k,  G_k+1 = G_k + A_k W^-1 G_k A_k',
        H_k+1 = H_k + A_k' H_k W^-1 A_k.
    H_k is value iteration's 2^k-th iterate from P = Q, less Q, so H_k
    converges quadratically, and W stays invertible because G_k and H_k
    stay positive semidefinite.  P = H + Q.

    F and (R + B'QB)^-1 B' come from one solve.  A step is one LU solve,
    W^-1 [A_k, G_k], with W and the (dim, 2 dim) right-hand side in
    buffers allocated once per call, and six products.  The step whose
    increment A_k' H_k W^-1 A_k is within RICCATI_TOL is the last: A_k
    and G_k are not updated after it, so it makes three products.
    """
    A, B, Q, R = system.A, system.B, system.Q, system.R
    dim = system.dim
    QB = Q @ B
    FM = np.linalg.solve(R + B.T @ QB, np.hstack([QB.T @ A, B.T]))
    F = FM[:, :dim]
    H = A.T @ (Q @ A - QB @ F)
    A_k = A - B @ F
    G = B @ FM[:, dim:]
    AG = np.empty((dim, 2 * dim))
    W = np.empty((dim, dim))
    W_diag = W.reshape(-1)[:: dim + 1]  # a view of W's diagonal
    for _ in range(RICCATI_MAX_ITER):
        np.matmul(G, H, out=W)
        W_diag += 1.0
        AG[:, :dim] = A_k
        AG[:, dim:] = G
        WAG = np.linalg.solve(W, AG)
        WA = WAG[:, :dim]
        increment = A_k.T @ H @ WA
        H += increment
        update = abs(increment).max()
        if update <= RICCATI_TOL * max(1.0, abs(H).max()):
            break
        G += A_k @ WAG[:, dim:] @ A_k.T
        A_k = A_k @ WA
    else:
        raise RuntimeError(
            f"Riccati iteration did not converge; last update {update:.3e}"
        )
    P = H + Q
    P = 0.5 * (P + P.T)
    PB = P @ B
    resid = np.max(np.abs(
        Q + A.T @ P @ A
        - (A.T @ PB) @ np.linalg.solve(R + B.T @ PB, PB.T @ A)
        - P
    ))
    if resid > 1e-8 * max(1.0, np.max(np.abs(P))):
        warnings.warn(f"Riccati residual {resid:.3e} unexpectedly large")
    return P


@dataclass
class FiniteHorizonSolution:
    inputs: np.ndarray  # (T, m) optimal stacked inputs
    cost: float  # stage costs 0..T-1 plus the exact terminal cost-to-go


def solve_finite_horizon(
    system: AugmentedSystem,
    x0: np.ndarray,
    plan: DisturbancePlan,
    T: int,
    P_terminal: np.ndarray | None = None,
) -> FiniteHorizonSolution:
    """Globally optimal inputs for the T-step problem with known disturbances.

    Minimizes sum_{t<T} (x_t' Q x_t + u_t' R u_t) + x_T' P x_T subject to
    the dynamics.  P_terminal must be the stationary solution (the
    default computes it; any other raises ValueError): the Riccati
    recursion then stays at P, so the gain K = M^-1 B'PA, M = R + B'PB,
    is the same at every step.  Only the affine cost-to-go term s_t runs
    backward, and only from the plan's last time L inside 0 <= t < T, as
    g_t = 0 for t > L:
        g_t = P E d_t + s_{t+1},   s_t = A_cl' g_t,   A_cl = A - BK.
    The states run forward from x0 in closed loop, one matrix-vector
    product a step,
        x_{t+1} = A_cl x_t + E d_t - B M^-1 B' g_t,
    and the inputs u_t = -K x_t - M^-1 B' g_t come from them in one
    product.  Plan entries outside 0 <= t < T are left out; one at a node
    outside 1..n or with a non-finite amount raises SpecError.
    """
    spec = system.spec
    min_T = spec.sigma_total + spec.horizon + 1
    if T < min_T:
        raise InvalidHorizonError(
            f"T = {T} too small: need at least sigma_N + H + 1 = {min_T}"
        )
    P = stationary_riccati(system) if P_terminal is None else P_terminal

    A, B, E = system.A, system.B, system.E
    Minv_Bt = np.linalg.solve(system.R + B.T @ P @ B, B.T)
    K = Minv_Bt @ P @ A
    A_cl = A - B @ K
    resid = np.max(np.abs(system.Q + A.T @ P @ A_cl - P))
    if resid > 1e-8 * max(1.0, np.max(np.abs(P))):
        raise ValueError(
            f"P_terminal is not the stationary Riccati solution: residual {resid:.3e}"
        )
    # d_t as row t: one scatter of the entries with 0 <= t < T.  Past the
    # last of them d_t = 0, and so are g_t, the feedforward and w_t.
    nodes, times, values, _ = validate_horizon(plan, spec, now=None)
    inside = (times >= 0) & (times < T)
    reach = int(times[inside].max()) + 1 if inside.any() else 0
    d_mat = np.zeros((reach, spec.n))
    d_mat[times[inside], nodes[inside] - 1] = values[inside]

    g = d_mat @ (P @ E).T  # P E d_t; becomes g_t in place
    for t in range(reach - 2, -1, -1):
        g[t] += g[t + 1] @ A_cl  # s_{t+1} = A_cl' g_{t+1}
    feedforward = g @ Minv_Bt.T

    # x_{t+1} = A_cl x_t + w_t, w_t = E d_t - B M^-1 B' g_t: one product a step.
    w = d_mat @ E.T - feedforward @ B.T
    A_cl_t = A_cl.T
    states = np.empty((T + 1, system.dim))
    states[0] = x0
    for t in range(T):
        np.dot(states[t], A_cl_t, out=states[t + 1])
        if t < reach:
            states[t + 1] += w[t]
    U = -(states[:T] @ K.T)
    U[:reach] -= feedforward
    # Q and R are diagonal: the stage costs are weighted sums of squares.
    q, r = np.diag(system.Q), np.diag(system.R)
    stage = (states[:T] ** 2 @ q).sum() + (U**2 @ r).sum()
    cost = float(stage + states[T] @ P @ states[T])
    return FiniteHorizonSolution(inputs=U, cost=cost)
