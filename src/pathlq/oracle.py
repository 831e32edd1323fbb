"""Independent dense LQ ground truth for the structured controller.

The delayed plant is lifted to an augmented state space (levels plus one
coordinate per in-transit slot).  The finite-horizon problem with known
additive disturbances is solved as one strictly convex quadratic program
in the stacked inputs (states eliminated through the dynamics), with the
stationary cost-to-go as terminal weight so the truncation is exact
whenever the disturbances have died out by the end of the horizon.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidHorizonError
from .ledger import DisturbancePlan
from .model import GraphSpec, PlantState

# stationary_riccati stops at an update of at most
# RICCATI_TOL * max(1, max |P|), and raises after RICCATI_MAX_ITER iterations.
RICCATI_TOL = 1e-14
RICCATI_MAX_ITER = 200_000


@dataclass(frozen=True)
class AugmentedSystem:
    """x[t+1] = A x + B u + E d with diagonal stage weights Q, R.

    State layout: [z_1..z_N, edge-1 slots, edge-2 slots, ...] where the
    slots of edge e hold u_e[t-1], u_e[t-2], .., u_e[t-tau_e].  Inputs
    are [u_1..u_{N-1}, v_1..v_N]; only the productions carry cost.
    """

    spec: GraphSpec
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    dim: int
    n_inputs: int
    slot_offsets: tuple[int, ...]


def build_augmented_system(spec: GraphSpec) -> AugmentedSystem:
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
    return AugmentedSystem(
        spec=spec, A=A, B=B, E=E, Q=Q, R=R, dim=dim, n_inputs=m,
        slot_offsets=tuple(offsets),
    )


def state_vector(system: AugmentedSystem, state: PlantState) -> np.ndarray:
    """Pack a PlantState into the augmented coordinates."""
    x = np.zeros(system.dim)
    x[: system.spec.n] = state.z
    for e, off in enumerate(system.slot_offsets):
        # Pipelines are stored oldest first; slots are newest first.
        x[off : off + system.spec.tau[e]] = state.pipelines[e][::-1]
    return x


def stationary_riccati(system: AugmentedSystem) -> np.ndarray:
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
    the dynamics, by eliminating the states and solving the (strictly
    convex) normal equations in the stacked inputs with partial pivoting.
    """
    spec = system.spec
    min_T = spec.sigma_total + spec.horizon + 1
    if T < min_T:
        raise InvalidHorizonError(
            f"T = {T} too small: need at least sigma_N + H + 1 = {min_T}"
        )
    if P_terminal is None:
        P_terminal = stationary_riccati(system)

    A, B, E = system.A, system.B, system.E
    dim, m = system.dim, system.n_inputs
    d_mat = np.stack([plan.d_now(spec, t) for t in range(T)])

    # Free response x_free[t] = A^t x0 + sum_{s<t} A^{t-1-s} E d_s, t = 1..T.
    x_free = np.zeros((T + 1, dim))
    x_free[0] = x0
    for t in range(T):
        x_free[t + 1] = A @ x_free[t] + E @ d_mat[t]

    # Input-to-state map: x_t = x_free[t] + sum_{s<t} A^{t-1-s} B u_s.
    Apow_B = np.zeros((T, dim, m))  # Apow_B[j] = A^j B
    Apow_B[0] = B
    for j in range(1, T):
        Apow_B[j] = A @ Apow_B[j - 1]

    # Weighted rows: sqrt(q) on level coordinates for t = 1..T-1, plus a
    # Cholesky factor of the terminal weight for t = T.  Everything else
    # in the state cost is zero, so those rows are dropped.  Row block t,
    # column block s holds A^{t-1-s} B (zero for s >= t): one strided copy
    # per column block.
    n = spec.n
    sq = np.sqrt(spec.weights[0])
    L_term = np.linalg.cholesky(P_terminal)  # P is PD for these plants
    W_G = np.zeros(((T - 1) * n + dim, T * m))
    blocks = W_G[: (T - 1) * n].reshape(T - 1, n, T, m)
    level = sq[:, None] * Apow_B[:, :n]
    for s in range(T - 1):
        blocks[s:, :, s] = level[: T - 1 - s]
    W_G[(T - 1) * n :] = np.hstack(L_term.T @ Apow_B[::-1])
    w_free = np.concatenate([(sq * x_free[1:T, :n]).ravel(), L_term.T @ x_free[T]])

    H = W_G.T @ W_G
    H[np.arange(T * m), np.arange(T * m)] += np.tile(np.diag(system.R), T)
    f = W_G.T @ w_free

    lu, piv = scipy.linalg.lu_factor(H)
    anorm = np.linalg.norm(H, 1)
    rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if rcond < 1e-12:
        warnings.warn(f"ill-conditioned input Hessian: rcond = {rcond:.3e}")
    U = scipy.linalg.lu_solve((lu, piv), -f).reshape(T, m)

    states = np.zeros((T + 1, dim))
    states[0] = x0
    for t in range(T):
        states[t + 1] = A @ states[t] + B @ U[t] + E @ d_mat[t]
    cost = float(
        sum(states[t] @ system.Q @ states[t] + U[t] @ system.R @ U[t] for t in range(T))
        + states[T] @ P_terminal @ states[T]
    )
    return FiniteHorizonSolution(inputs=U, cost=cost)
