"""Offline controller synthesis: three sweeps over the path graph.

The first sweep (downstream node 1 up to node N) computes the harmonic
aggregates gamma_i and rho_i.  The second sweep (node N down to node 1)
runs scalar cost-to-go recursions producing the X, g and b tables and
each P table's last row.  The third sweep (node 1 up again) computes the
h coefficients, after which each node finalizes its local phi, a and c.

Only three quantities are carried from node to node: gamma and rho, X
and h.  Those chains run as Python loops over floats.  Every other table
(g, gprod, the P rows, b, phi and the packed fold rows) is local to a
node, and is array code over many nodes at once, term by term, in runs
of nodes padded to a common width (_batches).  A node runs at most twice
as wide as its tau_eff, unless its class joins a wider run, which costs
at most _JOIN_LIMIT P updates.  Each entry is the IEEE operations of the
scalar recursion in their order, so every table is bitwise what a
node-by-node loop gives.  The array passes are a fixed number of numpy
calls per run and three per P row of each run, whatever N, with at most
log2(max tau_eff) + 2 runs.  They take at most four times the P updates
of a node-by-node loop, O(sum of tau_eff^2), plus _JOIN_LIMIT per joined
class, and O(sum of tau_eff) working memory.  Only what the nodes read
is kept: the X, g and P tables and the chains end with synthesis.

Index conventions: arrays are stored 0-based per node k = i - 1.  The
last node has no incoming edge; it uses an effective delay of H + 1 so
that its tables cover the whole planning horizon.
"""

from __future__ import annotations

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
    """The synthesized parameters that a run reads, indexed per node.

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
    of Python floats, which the Python sweeps read directly.
    """

    spec: GraphSpec  # the instance these parameters were synthesized for
    tau_eff: tuple[int, ...]
    b: list[float]  # b_i for i = 1..N-1, then node N's 0.0
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

    def aggregate(weights):
        a, *rest = np.asarray(weights, dtype=float).tolist()
        return np.array([a] + [a := a * w / (a + w) for w in rest])

    return aggregate(q), aggregate(r)


def terminal_riccati(gamma_n: float, rho_n: float) -> float:
    """Stationary cost-to-go seed for the last node's scalar recursion."""
    return -gamma_n / 2.0 + math.sqrt(gamma_n * rho_n + gamma_n**2 / 4.0)


# A class of nodes joins the run of the next wider class when it pads to
# at most this many P updates there: below it, a run of its own costs more
# in fixed numpy calls than the padding does.
_JOIN_LIMIT = 2**14


def _batches(tau_eff: tuple[int, ...], te) -> list[tuple[np.ndarray, int]]:
    """The runs of nodes whose local tables are array code together, each
    an ascending array of node indices k with its width in terms, the
    largest tau_eff among them; te is tau_eff as an array.  Nodes fall into
    classes by tau_eff, those in (2^(c-1), 2^c] together, so that padding
    at most quadruples a node's P updates.  From the widest, each class
    runs apart, or joins the run before it when it pads to at most
    _JOIN_LIMIT P updates at that width.  There are at most
    log2(max tau_eff) + 2 runs, whatever N, and they hold O(sum of
    tau_eff) terms.  When N max(tau_eff)^2 <= _JOIN_LIMIT, every class
    joins the first, so there is one run, found at once."""
    n, width = len(tau_eff), max(tau_eff)
    if n * width**2 <= _JOIN_LIMIT:
        return [(np.arange(n), width)]
    widths = {}  # class c: its largest tau_eff
    for t in set(tau_eff):
        c = (t - 1).bit_length()
        widths[c] = max(widths.get(c, 0), t)
    runs = []
    for c, width in sorted(widths.items(), reverse=True):
        in_class = (te > 2**c // 2) & (te <= 2**c)
        if runs and np.count_nonzero(in_class) * runs[-1][1] ** 2 <= _JOIN_LIMIT:
            in_run, _ = runs[-1]
            in_run |= in_class
        else:
            runs.append((in_class, width))
    return [(np.flatnonzero(in_run), width) for in_run, width in runs]


def _delays(tau_eff: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """sigma and tau_eff as arrays: node k+1's first delay slot and its
    count of slots."""
    te = np.fromiter(tau_eff, int, len(tau_eff))
    return te.cumsum() - te, te


def _run_tables(xs: np.ndarray, sigma, te, gamma, width: int):
    """x (width, B) and g (width+1, B) of one run of nodes, term by term,
    x[j-1, k] = X_i(j) and g[j, k] = g_i(j), from xs, every node's X row
    back to back from its sigma and then a closing 0.0.  Past a node's
    tau_eff, x holds that 0.0 and g 1.0; g's rows 0 and 1 hold 1.0."""
    slots = np.arange(width)[:, None]
    within = slots < te
    x = xs.take(np.where(within, sigma + slots, -1))
    g = np.empty((width + 1, len(te)))
    g.fill(1.0)  # np.ones, without its Python-level wrapper
    x_2 = x[1:]
    np.divide(x_2, x_2 + gamma, out=g[2:], where=within[1:])
    return x, g


def p_rows(x: np.ndarray, g: np.ndarray, rho: np.ndarray):
    """Rows l = 1..T of the P tables of a batch of B nodes, from their X
    and g tables term by term, x[j-1, k] = X_i(j) (T, B) and g[j, k] =
    g_i(j) (T+1, B, rows 0 and 1 unused), and their rho_i.

    Row l is an (l, B) view, P_i(l, m) for m = 1..l, which the next row
    overwrites: g_i(l) enters every column m >= l alike, so those entries
    are one value.  Past a node's tau_eff, pad its X with 0.0 and its g
    with 1.0: then w = 0 and keep = keep g = 1, so that, as every P entry
    lies in (0, 1), each later row leaves the node's entries bitwise as
    they are and carries its last one on.
    """
    w = x / rho
    keep = 1.0 - w
    keep_g = keep * g[1:]
    row = w.copy()  # row[l] is written before it is read, from row[l-1]
    yield row[:1]
    for l in range(1, len(w)):
        np.multiply(keep_g[l], row[l - 1], row[l])  # column m = l, from row l-1
        old = row[:l]
        np.multiply(old, keep[l], old)
        new = row[: l + 1]
        np.add(new, w[l], new)
        yield new


def sweep_X_g_b_P(tau_eff, sigma, te, gamma, rho, x_terminal):
    """Second sweep, node N down to node 1: X, then g, gprod, b and P's
    last rows.  sigma and te are _delays(tau_eff).

    X is a chain, a Python loop over floats, kept whole while the sweep
    runs: node by node from sigma_i, X_i(1..tau_eff), then X_N(H+2) and a
    closing 0.0 for the padded terms.  The other tables are array code
    over each run of nodes of _batches, term by term; g is not kept.  A run
    gives (nodes, p, block), where column c stands for node k = nodes[c]:
    p[m-1, c] = P_i(tau_eff, m), P's last row, and block, whose [m, 1, c]
    is gprod_i(m) for m = 0..tau_eff and whose [:, 0] sweep_h_and_finalize
    fills with phi.  Past a node's tau_eff, gprod and p repeat their last
    term.  Also returned: X_i(1) and g_{i+1}(1) as arrays, and b_i,
    1 - P_i(tau_i, 1) and P_i(tau_i, tau_i) for the h chain.
    """
    # Node N's terms first, reversed at the end; X_N(H+2) is the seed.
    xs = [0.0, float(x_terminal)]
    x = xs[-1]  # then X_{i+1}(1) when node i's sweep starts
    for g_k, r_k, t in zip(gamma.tolist()[::-1], rho.tolist()[::-1], tau_eff[::-1]):
        for _ in range(t):
            s = x + g_k
            x = r_k * s / (s + r_k)  # the Riccati step
            xs.append(x)
    xs.reverse()
    xs = np.array(xs)
    x1 = xs.take(sigma)

    tables = []
    # Term tau_eff of every node's gprod and P rows: past it they repeat it.
    gprod_tau, p_tau_1, p_tau_tau = ends = np.empty((3, len(tau_eff)))
    for nodes, width in _batches(tau_eff, te):
        x, g = _run_tables(xs, sigma[nodes], te[nodes], gamma[nodes], width)
        block = np.empty((width + 1, 2, len(nodes)))
        np.multiply.accumulate(g, out=block[:, 1])
        for p in p_rows(x, g, rho[nodes]):  # only the last row is kept
            pass
        for end, row in zip(ends, (block[-1, 1], p[0], p[-1])):
            end.put(nodes, row)
        tables.append((nodes, p, block))
    g_cross = x1[1:] / (x1[1:] + gamma[:-1])
    b = (g_cross * gprod_tau[:-1]).tolist() + [0.0]  # node N's b is 0.0
    return x1, g_cross, b, 1.0 - p_tau_1, p_tau_tau.tolist(), tables


def sweep_h_and_finalize(
    spec: GraphSpec, gamma, rho, x1, g_cross, b, omp, p_tau_tau, tables, coef, fold_pad
):
    """Third sweep, h, and the final per-node parameters phi, a, c and the
    coefficients of the local output formulas, as ControllerParams fields
    by name.

    h is a chain, on Python floats.  phi is array code over each run of
    nodes of sweep_X_g_b_P's tables, phi[Delta, c] for Delta = 0..tau_eff,
    and fills its blocks, which are copied into _delay_layout's coef, node
    by node, and into coef_last.
    """
    one_minus_p_tau_1 = omp.tolist()
    h_k = 0.0  # h[i] = h_i, i = 0..N-1; h_0 = 0
    h = np.array([h_k] + [
        h_k := w * b_k * h_k + p * g_k
        for w, b_k, p, g_k in zip(one_minus_p_tau_1, b, p_tau_tau, g_cross.tolist())
    ])

    # h[k] is h_{i-1} of node i = k+1.  The product inside phi_i(Delta)
    # runs over j = 2..Delta, which fits the table sizes and is the form
    # confirmed against the dense oracle.
    scale = omp * h
    # coef holds node N's first W terms, and NaN past every node's tau_eff:
    # each run writes its nodes' terms up to its width, fold_pad the rest.
    for nodes, p, block in tables:
        phi, gprod = block[1:, 0], block[1:, 1]
        np.subtract(1.0, p, out=phi)
        phi -= scale[nodes] * gprod
        block[0, 0] = phi[0]  # z's coefficient is phi_i(1)
        coef[: len(block), :, nodes] = block[: len(coef)]
        if nodes[-1] == spec.n - 1:  # node N, the last of its run
            coef_last = block[: spec.horizon + 2, :, -1].T.copy()
    coef[1:].put(fold_pad, math.nan)

    # The output coefficients of all nodes at once.  Elementwise, each entry
    # is rounded as one scalar would be.
    q, r = spec.weights
    gamma_q = gamma / q
    x1_over_r = x1 / r
    one_minus_h_prev = 1.0 - h
    a = x1_over_r + gamma_q * (1.0 - x1 / rho)
    c = -(x1_over_r - gamma * x1 / (q * rho)) * one_minus_h_prev + gamma_q * h
    return dict(coef_last=coef_last, a=a, c=c,
                one_minus_p_tau_1=one_minus_p_tau_1, one_minus_gamma_q=1.0 - gamma_q,
                x1_over_r=x1_over_r, one_minus_h_prev=one_minus_h_prev)


def _delay_layout(tau_eff: tuple[int, ...], sigma, te):
    """The fields coef, left for sweep_h_and_finalize to fill, delay_cols,
    fold_pad and tail_start of ControllerParams for these delays; sigma
    and te are _delays(tau_eff)."""
    width = max(tau_eff[:-1], default=1) + 1  # W = max tau + 1, at least 2
    slots = np.arange(width)
    delay_cols = sigma[:, None] + np.minimum(slots[:-1], te[:, None] - 1)
    # The padded terms j >= 1 of both rows of every node, as coef[1:] holds them.
    fold_pad = (slots[1:, None] > te).repeat(2, axis=0).ravel().nonzero()[0]
    tail_start = min(width, tau_eff[-1] + 1) - 1
    return dict(coef=np.empty((width, 2, len(te))), delay_cols=delay_cols,
                fold_pad=fold_pad, tail_start=tail_start)


def synthesize(spec: GraphSpec) -> ControllerParams:
    """Run all three sweeps and finalize every controller parameter."""
    tau_eff = (*spec.tau, spec.horizon + 1)
    sigma, te = _delays(tau_eff)
    layout = _delay_layout(tau_eff, sigma, te)
    gamma, rho = sweep_gamma_rho(*spec.weights)
    x_term = terminal_riccati(gamma[-1], rho[-1])
    x1, g_cross, b, omp, p_tau_tau, tables = sweep_X_g_b_P(
        tau_eff, sigma, te, gamma, rho, x_term)
    outputs = sweep_h_and_finalize(spec, gamma, rho, x1, g_cross, b, omp, p_tau_tau,
                                   tables, layout["coef"], layout["fold_pad"])
    return ControllerParams(spec=spec, tau_eff=tau_eff, b=b, **outputs, **layout)


def params_to_document(params: ControllerParams) -> str:
    """The parameters as JSON: per node, its tau_eff and the fields of its
    node_slice by name, what a deployed node is given."""
    nodes = [{"node": k + 1, "tau_eff": params.tau_eff[k], **vars(params.node_slice(k))}
             for k in range(params.spec.n)]
    return json.dumps({"n": params.spec.n, "horizon": params.spec.horizon,
                       "nodes": nodes}, indent=2)
