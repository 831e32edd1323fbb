"""Offline controller synthesis: three sweeps over the path graph.

The first sweep (downstream node 1 up to node N) computes the harmonic
aggregates gamma_i and rho_i.  The second sweep (node N down to node 1)
runs scalar cost-to-go recursions producing the X, g and b tables and
each P table's last row.  The third sweep (node 1 up again) computes the
h coefficients, after which each node finalizes its local phi, a and c.

The sweeps run on Python floats, with the IEEE operations of the scalar
recursions in their order, in O(sum of tau_eff^2) time and O(tau_eff)
memory per node.  Each table that a run reads becomes one numpy array at
the end of synthesize; the others are built when they are first read.

Index conventions: arrays are stored 0-based per node k = i - 1.  The
last node has no incoming edge; it uses an effective delay of H + 1 so
that its tables cover the whole planning horizon.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .model import GraphSpec


@dataclass(frozen=True)
class NodeParams:
    """The slice of the controller parameters one node needs locally."""

    # Chain 0's row and weight (phi, 1 - P_i(tau_i, 1)), then chain 1's (gprod,
    # b_i, 0.0 at node N); each row is tau_eff + 1 terms, z's coefficient first.
    rows: tuple[tuple[float, ...], tuple[float, ...]]
    weights: tuple[float, float]
    a: float
    c: float
    one_minus_gamma_q: float  # 1 - gamma_i / q_i
    x1_over_r: float  # X_i(1) / r_i
    one_minus_h_prev: float  # 1 - h_{i-1}


@dataclass(frozen=True)
class ControllerParams:
    """All synthesized parameters, indexed per node.

    A node's phi and gprod rows are the coefficients of its two local
    folds: Phi_i = sum_j phi_i[j] x_i[j] and pi_i = sum_j gprod_i[j] x_i[j],
    with x_i[0] = z_i and x_i[D+1] the node's inflow in delay slot D, so
    index 0 holds the coefficient of z (phi_i(1) and 1.0).  The rows are
    packed term by term into coef, (W, 2, N) with W = max(tau) + 1:
    coef[j, 0, k] is node k+1's phi_i[j] and coef[j, 1, k] its gprod_i[j],
    NaN past tau_eff, so that the folds are W - 1 adds of whole (2, N)
    slabs.  fold_pad lists the terms past each node's tau_eff, as flat
    indices into coef[1:]; the fold sets them to -0.0.  Node N's rows span
    the horizon, H + 2 entries: coef holds its first min(W, H + 2), and
    coef_last the whole rows, whose terms past tail_start the fold adds
    after the packed ones.  Every per-node scalar of the local outputs is
    one length-N array, so the sequential controller reads all nodes at
    once.  The two sweeps' coefficients, one_minus_p_tau_1 and b, are lists
    of Python floats, which the Python sweeps read directly.  No run reads
    the X, g and P tables: X and g stay the sweeps' rows of Python floats,
    and the per-node arrays of all three are built on first read, P's by
    p_rows.
    """

    spec: GraphSpec  # the instance these parameters were synthesized for
    tau_eff: tuple[int, ...]
    gamma: np.ndarray
    rho: np.ndarray
    X_rows: list[list[float]]  # X_rows[k][j-1] = X_i(j); last node has H+2
    g_rows: list[list[float]]  # g_rows[k][j] = g_i(j) for j = 2..tau_eff, NaN at 0, 1
    g_cross: np.ndarray  # g_cross[k] = g_{i+1}(1) stored at node i = k+1 < N
    b: list[float]  # b_i for i = 1..N-1, then node N's 0.0
    h: np.ndarray  # h[i] = h_i for i = 0..N-1, h[0] = 0
    coef: np.ndarray  # (W, 2, N): term j of every node's phi and gprod rows
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
    fold_pad: np.ndarray  # flat indices of the terms j > tau_eff in coef[1:]
    tail_start: int  # min(W, H+2) - 1: node N's last term in coef

    @functools.cached_property
    def X(self) -> tuple[np.ndarray, ...]:
        """X[k][j-1] = X_i(j), one array per node."""
        return tuple(map(np.array, self.X_rows))

    @functools.cached_property
    def g(self) -> tuple[np.ndarray, ...]:
        """g[k][j] = g_i(j) for j = 2..tau_eff (indices 0, 1 unused)."""
        return tuple(map(np.array, self.g_rows))

    @functools.cached_property
    def P(self) -> tuple[np.ndarray, ...]:
        """P[k][l-1, m-1] = P_i(l, m), shape (tau_eff, tau_eff), rebuilt by
        p_rows: row l's last value stands for every m >= l."""
        tables = zip(self.X_rows, self.g_rows, self.rho.tolist(), self.tau_eff)
        return tuple(
            np.array([row + row[-1:] * (te - len(row)) for row in p_rows(xk, gk, rh)])
            for xk, gk, rh, te in tables
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
        rows = self.coef_last if last else self.coef[: self.tau_eff[k] + 1, :, k].T
        return NodeParams(
            rows=tuple(map(tuple, rows.tolist())),
            weights=(self.one_minus_p_tau_1[k], self.b[k]),
            a=float(self.a[k]),
            c=float(self.c[k]),
            one_minus_gamma_q=float(self.one_minus_gamma_q[k]),
            x1_over_r=float(self.x1_over_r[k]),
            one_minus_h_prev=float(self.one_minus_h_prev[k]),
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


def p_rows(xk: list[float], gk: list[float], rh: float):
    """Rows l = 1..tau_eff of a node's P table from its X and g rows and
    rho_i, row l as its l distinct values P_i(l, m), m = 1..l: g_i(l)
    enters every column m >= l alike, so those entries are one value."""
    row = [xk[0] / rh]
    yield row
    for l in range(2, len(gk)):
        wl = xk[l - 1] / rh
        keep = 1.0 - wl
        row = [keep * p + wl for p in row] + [keep * gk[l] * row[-1] + wl]
        yield row


def sweep_X_g_b_P(spec: GraphSpec, tau_eff, gamma, rho, x_terminal: float):
    """Second sweep, node N down to node 1: X, g, b and P's last rows.

    Every table is per node, of Python floats: X[k][j-1] = X_i(j), g[k][j]
    = g_i(j) (NaN at j = 0, 1), gprod[k][m] for m = 0..tau_eff and
    P[k][m-1] = P_i(tau_eff, m) for m = 1..tau_eff.
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

        for pk in p_rows(xk, gk, rh):  # only the last row is kept
            pass
        P[k] = pk
        one_minus_p_tau_1[k] = 1.0 - pk[0]

    return X, g, g_cross, b, P, one_minus_p_tau_1, gprod


def sweep_h_and_finalize(
    spec: GraphSpec, gamma, rho, X, g_cross, gprod, b, P, one_minus_p_tau_1
):
    """Third sweep and the final per-node parameters h, phi, a, c and the
    coefficients of the local output formulas.

    Reads the tables of sweep_X_g_b_P; the phi rows, like gprod, are lists
    of Python floats, phi[k][Delta] for Delta = 0..tau_eff.
    """
    n = spec.n
    h = [0.0] * n  # h[i] = h_i, i = 0..N-1; h_0 = 0
    phi = []
    for k, pk in enumerate(P):
        # h[k] is h_{i-1} of node i = k+1.  The product inside phi_i(Delta)
        # runs over j = 2..Delta, which fits the table sizes and is the form
        # confirmed against the dense oracle.
        scale = one_minus_p_tau_1[k] * h[k]
        row = [1.0 - p - scale * gp for p, gp in zip(pk, gprod[k][1:])]
        phi.append([row[0], *row])  # z's coefficient is phi_i(1)
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


def _delay_layout(tau_eff: tuple[int, ...], phi, gprod):
    """The fields coef, coef_last, delay_cols, fold_pad and tail_start of
    ControllerParams for these delays and these phi and gprod rows."""
    te = np.array(tau_eff)
    width = max(tau_eff[:-1], default=1) + 1  # max tau + 1, at least 2
    slots = np.arange(width)
    sigma = np.cumsum(te) - te
    delay_cols = sigma[:, None] + np.minimum(slots[:-1], te[:, None] - 1)
    # Node k+1's rows, NaN past its tau_eff; node N's are cut at the width.
    nan = [math.nan] * width
    flat = []
    for rows in (phi, gprod):
        for row in (*rows[:-1], rows[-1][:width]):
            flat += row
            flat += nan[len(row) :]
    coef = np.array(flat).reshape(2, len(te), width).transpose(2, 0, 1).copy()
    # The padded terms j >= 1 of both rows of every node, as coef[1:] holds them.
    fold_pad = np.flatnonzero((slots[1:, None] > te).repeat(2, axis=0))
    tail_start = min(width, tau_eff[-1] + 1) - 1
    return dict(coef=coef, coef_last=np.array([phi[-1], gprod[-1]]),
                delay_cols=delay_cols, fold_pad=fold_pad, tail_start=tail_start)


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
            spec, gamma, rho, X, g_cross, gprod, b, P, one_minus_p_tau_1
        )
    )
    return ControllerParams(
        spec=spec,
        tau_eff=tau_eff,
        gamma=gamma,
        rho=rho,
        X_rows=X,
        g_rows=g,
        g_cross=np.array(g_cross),
        b=b,
        h=h,
        a=a,
        c=c,
        one_minus_p_tau_1=one_minus_p_tau_1,
        one_minus_gamma_q=one_minus_gamma_q,
        x1_over_r=x1_over_r,
        one_minus_h_prev=one_minus_h_prev,
        **_delay_layout(tau_eff, phi, gprod),
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
        phi = params.node_slice(k).rows[0]
        node = {
            "node": k + 1,
            "tau_eff": te,
            "gamma": params.gamma[k],
            "rho": params.rho[k],
            "X": {str(j): x for j, x in enumerate(params.X[k], 1)},
            "g": {str(j): params.g[k][j] for j in range(2, te + 1)},
            "P": {f"{l + 1},{m + 1}": p for (l, m), p in np.ndenumerate(params.P[k])},
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
