"""Offline controller synthesis: three sweeps over the path graph.

The first sweep (downstream node 1 up to node N) computes the harmonic
aggregates gamma_i and rho_i.  The second sweep (node N down to node 1)
runs scalar cost-to-go recursions producing the X, g, b and P tables.
The third sweep (node 1 up again) computes the h coefficients, after
which each node finalizes its local phi, a and c parameters.

The sweeps run on Python floats, with the IEEE operations of the scalar
recursions in their order, in O(sum of tau_eff^2) time.  Each table that
a run reads becomes one numpy array at the end of synthesize; the X, g and
P tables stay rows of Python floats until they are first read.

Index conventions: arrays are stored 0-based per node k = i - 1.  The
last node has no incoming edge; it uses an effective delay of H + 1 so
that its tables cover the whole planning horizon.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .model import GraphSpec


@dataclass(frozen=True)
class NodeParams:
    """The slice of the controller parameters one node needs locally."""

    index: int  # 1-based node index
    tau_eff: int
    one_minus_p_tau_1: float  # 1 - P_i(tau_i, 1)
    b: float  # 0.0 for the last node (never used there)
    a: float
    c: float
    one_minus_gamma_q: float  # 1 - gamma_i / q_i
    x1_over_r: float  # X_i(1) / r_i
    one_minus_h_prev: float  # 1 - h_{i-1}
    phi: tuple[float, ...]  # phi[Delta] for Delta = 1..tau_eff; phi[0] = phi[1]
    gprod: tuple[float, ...]  # gprod[m] = prod_{j=2}^{m} g_i(j) for m >= 1; gprod[0] = 1


@dataclass(frozen=True)
class ControllerParams:
    """All synthesized parameters, indexed per node.

    A node's phi and gprod rows are the coefficients of its two local
    folds: Phi_i = sum_j phi_i[j] x_i[j] and pi_i = sum_j gprod_i[j] x_i[j],
    with x_i[0] = z_i and x_i[D+1] the node's inflow in delay slot D, so
    index 0 holds the coefficient of z (phi_i(1) and 1.0).  The rows of
    nodes 1..N-1 are packed into coef, (2, N, W) with W = max(tau) + 1:
    coef[0, k] is node k+1's phi row and coef[1, k] its gprod row, NaN past
    tau_eff.  Node N's rows span the horizon, H + 2 entries, so they are
    kept apart in coef_last and its packed rows are NaN.  Every per-node
    scalar of the local outputs is one length-N array, so the sequential
    controller reads all nodes at once.  The two sweeps' coefficients,
    one_minus_p_tau_1 and b, are lists of Python floats, which the Python
    sweeps read directly.  No run reads the X, g and P tables, so they are
    kept as the sweeps' rows of Python floats, and their per-node arrays,
    consecutive views of one array per table, are built on first read.
    """

    spec: GraphSpec  # the instance these parameters were synthesized for
    tau_eff: tuple[int, ...]
    gamma: np.ndarray
    rho: np.ndarray
    X_rows: list[list[float]]  # X_rows[k][j-1] = X_i(j); last node has H+2
    g_rows: list[list[float]]  # g_rows[k][j] = g_i(j) for j = 2..tau_eff, NaN at 0, 1
    g_cross: np.ndarray  # g_cross[k] = g_{i+1}(1) stored at node i = k+1 < N
    b: list[float]  # b_i for i = 1..N-1, then node N's 0.0
    P_rows: list[list[float]]  # P_rows[k][(l-1) * tau_eff + m-1] = P_i(l, m)
    h: np.ndarray  # h[i] = h_i for i = 0..N-1, h[0] = 0
    coef: np.ndarray  # (2, N, W): phi and gprod rows of nodes 1..N-1
    coef_last: np.ndarray  # (2, H+2): node N's phi and gprod rows
    a: np.ndarray
    c: np.ndarray
    one_minus_p_tau_1: list[float]  # 1 - P_i(tau_i, 1) for i = 1..N
    one_minus_gamma_q: np.ndarray
    x1_over_r: np.ndarray
    one_minus_h_prev: np.ndarray
    # Column of node k+1's delay slot D = 0..W-2 in the layout that the
    # plant's flow buffer and the ledger's window rows share: sigma_{k+1} + D,
    # repeating the node's last slot past its tau_eff.  Node N's row holds
    # only its first W-1 slots; its column 0 is the head that its outputs read.
    delay_cols: np.ndarray  # (N, W-1)
    fold_end: np.ndarray  # k * W + min(tau_eff[k], W-1): where node k's fold ends

    @functools.cached_property
    def X(self) -> tuple[np.ndarray, ...]:
        """X[k][j-1] = X_i(j), one array per node."""
        return _views(self.X_rows)

    @functools.cached_property
    def g(self) -> tuple[np.ndarray, ...]:
        """g[k][j] = g_i(j) for j = 2..tau_eff (indices 0, 1 unused)."""
        return _views(self.g_rows)

    @functools.cached_property
    def P(self) -> tuple[np.ndarray, ...]:
        """P[k][l-1, m-1] = P_i(l, m), shape (tau_eff, tau_eff)."""
        return tuple(
            pk.reshape(te, te) for pk, te in zip(_views(self.P_rows), self.tau_eff)
        )

    def require_spec(self, spec: GraphSpec) -> None:
        """Raise SpecError unless these parameters were synthesized for `spec`."""
        if spec != self.spec:
            name = next(name for name in ("n", "tau", "horizon", "q", "r")
                        if getattr(spec, name) != getattr(self.spec, name))
            raise SpecError(
                f"controller parameters synthesized for {name} = "
                f"{getattr(self.spec, name)} run on {name} = {getattr(spec, name)}"
            )

    def node_slice(self, k: int) -> NodeParams:
        """Local parameters for node k+1, its only state between rounds, as
        Python floats: its kernels then never touch a numpy scalar."""
        last = k == self.spec.n - 1
        phi, gprod = (self.coef_last if last else self.coef[:, k]).tolist()
        return NodeParams(
            index=k + 1,
            tau_eff=self.tau_eff[k],
            one_minus_p_tau_1=self.one_minus_p_tau_1[k],
            b=self.b[k],
            a=float(self.a[k]),
            c=float(self.c[k]),
            one_minus_gamma_q=float(self.one_minus_gamma_q[k]),
            x1_over_r=float(self.x1_over_r[k]),
            one_minus_h_prev=float(self.one_minus_h_prev[k]),
            phi=tuple(phi),
            gprod=tuple(gprod),
        )


def sweep_gamma_rho(q, r) -> tuple[np.ndarray, np.ndarray]:
    """First sweep: harmonic aggregates of the level and production weights."""
    q = np.asarray(q, dtype=float).tolist()
    r = np.asarray(r, dtype=float).tolist()
    gamma, rho = q[:1], r[:1]
    for qi, ri in zip(q[1:], r[1:]):
        g, p = gamma[-1], rho[-1]
        gamma.append(g * qi / (g + qi))
        rho.append(p * ri / (p + ri))
    return np.array(gamma), np.array(rho)


def terminal_riccati(gamma_n: float, rho_n: float) -> float:
    """Stationary cost-to-go seed for the last node's scalar recursion."""
    return -gamma_n / 2.0 + math.sqrt(gamma_n * rho_n + gamma_n**2 / 4.0)


def _riccati_step(x: float, gamma: float, rho: float) -> float:
    return rho * (x + gamma) / (x + gamma + rho)


def sweep_X_g_b_P(spec: GraphSpec, tau_eff, gamma, rho, x_terminal: float):
    """Second sweep, node N down to node 1: X, g, b and P tables.

    Every table is per node, of Python floats: X[k][j-1] = X_i(j), g[k][j]
    = g_i(j) (NaN at j = 0, 1), gprod[k][m] for m = 0..tau_eff and P[k]
    row-major, P[k][(l-1) * tau_eff + m-1] = P_i(l, m).
    """
    n = spec.n
    gamma, rho = gamma.tolist(), rho.tolist()
    X, g, gprod, P = [None] * n, [None] * n, [None] * n, [None] * n
    g_cross = [0.0] * (n - 1)
    b = [0.0] * n  # node N's stays 0.0
    one_minus_p_tau_1 = [0.0] * n

    x = float(x_terminal)  # then X_{i+1}(1) when node i's sweep starts
    for k in range(n - 1, -1, -1):
        te, gam, rh = tau_eff[k], gamma[k], rho[k]
        xk = [x] if k == n - 1 else []  # X_N(1..H+2) ends with the seed
        for _ in range(te):
            x = _riccati_step(x, gam, rh)
            xk.append(x)
        xk.reverse()
        X[k] = xk

        gk, gp = [math.nan, math.nan], [1.0, 1.0]
        for xj in xk[1:te]:
            gj = xj / (xj + gam)
            gk.append(gj)
            gp.append(gp[-1] * gj)
        g[k], gprod[k] = gk, gp
        if k < n - 1:
            x_next = X[k + 1][0]
            g_cross[k] = x_next / (x_next + gam)
            b[k] = g_cross[k] * gp[te]

        # Row l of P from row l-1, which starts at pk[prev]; g_i(l) enters
        # the columns m >= l.
        pk = [xk[0] / rh] * te
        prev = 0
        for l in range(2, te + 1):
            wl = xk[l - 1] / rh
            keep = 1.0 - wl
            keep_g = keep * gk[l]
            for m in range(prev, prev + l - 1):
                pk.append(keep * pk[m] + wl)
            for m in range(prev + l - 1, prev + te):
                pk.append(keep_g * pk[m] + wl)
            prev += te
        P[k] = pk
        one_minus_p_tau_1[k] = 1.0 - pk[prev]

    return X, g, g_cross, b, P, one_minus_p_tau_1, gprod


def sweep_h_and_finalize(
    spec: GraphSpec, tau_eff, gamma, rho, X, g_cross, gprod, b, P, one_minus_p_tau_1
):
    """Third sweep and the final per-node parameters h, phi, a, c and the
    coefficients of the local output formulas.

    Reads the tables of sweep_X_g_b_P; the phi rows, like gprod, are lists
    of Python floats, phi[k][Delta] for Delta = 0..tau_eff.
    """
    n = spec.n
    h = [0.0] * n  # h[i] = h_i, i = 0..N-1; h_0 = 0
    phi = []
    for k in range(n):
        te, pk = tau_eff[k], P[k]
        # h[k] is h_{i-1} of node i = k+1.  The product inside phi_i(Delta)
        # runs over j = 2..Delta, which fits the table sizes and is the form
        # confirmed against the dense oracle.
        scale = one_minus_p_tau_1[k] * h[k]
        row = [math.nan]
        for p, gp in zip(pk[-te:], gprod[k][1:]):
            row.append(1.0 - p - scale * gp)
        row[0] = row[1]
        phi.append(row)
        if k < n - 1:
            h[k + 1] = one_minus_p_tau_1[k] * b[k] * h[k] + pk[-1] * g_cross[k]

    # The output coefficients of all nodes at once.  Elementwise, each entry
    # is rounded as one scalar would be.
    q, r = spec.weights
    x1 = np.array([xk[0] for xk in X])
    h = np.array(h)
    gamma_q = gamma / q
    one_minus_gamma_q = 1.0 - gamma_q
    x1_over_r = x1 / r
    one_minus_h_prev = 1.0 - h
    a = x1_over_r + gamma_q * (1.0 - x1 / rho)
    c = -(x1_over_r - gamma * x1 / (q * rho)) * one_minus_h_prev + gamma_q * h
    return h, phi, a, c, one_minus_gamma_q, x1_over_r, one_minus_h_prev


def _views(rows: list[list[float]]) -> tuple[np.ndarray, ...]:
    """The rows as consecutive views of one array."""
    flat = np.array([x for row in rows for x in row])
    ends = itertools.accumulate(map(len, rows))
    return tuple(flat[end - len(row) : end] for row, end in zip(rows, ends))


def _delay_layout(tau_eff: tuple[int, ...], phi, gprod):
    """coef, coef_last, delay_cols and fold_end of ControllerParams for
    these delays and these phi and gprod rows."""
    te = np.array(tau_eff)
    width = int(te[:-1].max(initial=1)) + 1  # max tau + 1, at least 2
    sigma = np.concatenate(([0], np.cumsum(te[:-1])))
    delay_cols = sigma[:, None] + np.minimum(np.arange(width - 1), te[:, None] - 1)
    fold_end = np.arange(len(te)) * width + np.minimum(te, width - 1)
    # Node k+1's rows, NaN past its tau_eff; node N's packed rows are NaN.
    nan = [math.nan] * width
    flat = []
    for rows in (phi, gprod):
        for row in rows[:-1]:
            flat += row
            flat += nan[len(row) :]
        flat += nan
    coef = np.array(flat).reshape(2, len(te), width)
    return coef, np.array([phi[-1], gprod[-1]]), delay_cols, fold_end


def synthesize(spec: GraphSpec) -> ControllerParams:
    """Run all three sweeps and finalize every controller parameter."""
    tau_eff = (*spec.tau, spec.horizon + 1)
    gamma, rho = sweep_gamma_rho(*spec.weights)
    x_term = terminal_riccati(gamma[-1], rho[-1])
    X, g, g_cross, b, P, one_minus_p_tau_1, gprod = sweep_X_g_b_P(
        spec, tau_eff, gamma, rho, x_term
    )
    h, phi, a, c, one_minus_gamma_q, x1_over_r, one_minus_h_prev = (
        sweep_h_and_finalize(
            spec, tau_eff, gamma, rho, X, g_cross, gprod, b, P, one_minus_p_tau_1
        )
    )
    coef, coef_last, delay_cols, fold_end = _delay_layout(tau_eff, phi, gprod)
    return ControllerParams(
        spec=spec,
        tau_eff=tau_eff,
        gamma=gamma,
        rho=rho,
        X_rows=X,
        g_rows=g,
        g_cross=np.array(g_cross),
        b=b,
        P_rows=P,
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
        fold_end=fold_end,
    )


def params_to_document(params: ControllerParams) -> str:
    """Serialize the parameters to a flat structured-text document."""
    n = params.spec.n
    doc = {
        "n": n,
        "horizon": params.spec.horizon,
        "nodes": [],
    }
    for k in range(n):
        te = params.tau_eff[k]
        phi = params.node_slice(k).phi
        node = {
            "node": k + 1,
            "tau_eff": te,
            "gamma": params.gamma[k],
            "rho": params.rho[k],
            "X": {str(j): params.X[k][j - 1] for j in range(1, len(params.X[k]) + 1)},
            "g": {str(j): params.g[k][j] for j in range(2, te + 1)},
            "P": {
                f"{l},{m}": params.P[k][l - 1, m - 1]
                for l in range(1, te + 1)
                for m in range(1, te + 1)
            },
            "phi": {str(d): phi[d] for d in range(1, te + 1)},
            "a": params.a[k],
            "c": params.c[k],
            "h_prev": params.h[k],
        }
        if k < n - 1:
            node["g_next_1"] = params.g_cross[k]
            node["b"] = params.b[k]
        doc["nodes"].append(node)
    return json.dumps(doc, indent=2)
