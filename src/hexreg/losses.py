"""Contrastive and redundancy-reduction losses as tape-graph builders.

Each ``build_*_graph`` function is the one implementation of its formula,
over the autodiff op set; the trainer differentiates it and reads its terms
back from the evaluated nodes. The independent plain-loop numpy oracles
that check the builders live in ``tests/test_losses.py``.

The hierarchical variant splits the softmax denominator: members of the
anchor's estimated grouping H(i) are collapsed into a single reweighted term

    q_i = ( sum_h e^{s_h/t} (s_h/t) / ((1/N) sum_h e^{s_h/t})
            - N t e^{s_pos/t} ) / (1 - t)

with t = ``qhi_tau``, N the number of samples (the graph's 2N rows are
their two stacked views) and q_i clamped below at ``eps_den``. Every
non-member (the positive included) keeps its ordinary exponential term.
With every H(i) empty there is no q term and the loss is InfoNCE, so
``build_info_nce_graph`` is ``build_hex_graph`` over an all-False mask.
HEX/InfoNCE is one autodiff ``kernel`` node on z whose forward and vjp
replay, bit for bit, the graph of autodiff ops it stands for; its q term is
evaluated at the members of H(i) and the positives only.

Barlow Twins (Zbontar et al., arXiv 2103.03230) and VICReg (Bardes et al.,
arXiv 2105.04906) are each one autodiff ``kernel`` node on the two views: a
numpy forward and an analytic vjp, both given in the builder's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Node, Tape
from .errors import BadAlpha, BadConfig, BadTemperature, EmptyQueue, TauOne
from .hierarchy import HierarchyMask

DEFAULT_QHI_TAU = 0.1
DEFAULT_EPS_DEN = 1e-6

LOSS_KINDS = ("simclr", "simclr_hex", "nnclr", "nnclr_hex",
              "barlow", "barlow_hex", "vicreg", "vicreg_hex")


# ---------------------------------------------------------------------------
# pairing and breakdown record
# ---------------------------------------------------------------------------

def paired_positive_index(n_samples: int) -> np.ndarray:
    """Standard two-view pairing: row i <-> row i + N."""
    idx = np.arange(2 * n_samples)
    return np.where(idx < n_samples, idx + n_samples, idx - n_samples)


@dataclass
class LossBreakdown:
    total: float
    invariance_term: float
    regularization_term: float
    hex_term_mean: Optional[float] = None
    mean_H_size: float = 0.0
    clamp_events: int = 0


# ---------------------------------------------------------------------------
# nearest-neighbor queue
# ---------------------------------------------------------------------------

class NNQueue:
    """FIFO ring of unit-norm embedding rows, oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise BadConfig(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rows: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._rows)

    def push(self, rows: np.ndarray):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        for row in rows:
            self._rows.append(row.copy())
        if len(self._rows) > self.capacity:
            self._rows = self._rows[len(self._rows) - self.capacity:]

    def as_matrix(self) -> np.ndarray:
        if not self._rows:
            raise EmptyQueue("queue holds no entries")
        return np.vstack(self._rows)


def nnclr_positive_rows(q: NNQueue, z: np.ndarray) -> np.ndarray:
    """For each row of z, the queue entry with the highest cosine similarity;
    ties go to the oldest entry."""
    entries = q.as_matrix()
    sims = np.asarray(z, dtype=np.float64) @ entries.T
    return entries[np.argmax(sims, axis=1)].copy()


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

@dataclass
class ContrastiveGraphInfo:
    total: Node                # the kernel node; its kernel holds the terms
    rows_with_h: np.ndarray    # bool, n
    mask_mean_size: float
    eps_den: float

    def breakdown(self) -> LossBreakdown:
        """Read the decomposition out of the kernel's last forward."""
        k = self.total.aux
        hex_mean = None
        clamps = 0
        if k.q_raw is not None:
            rows = self.rows_with_h
            clamps = int(np.count_nonzero(rows & (k.q_raw[:, 0] < self.eps_den)))
            hex_mean = float(k.q_clamped[rows, 0].mean())
        return LossBreakdown(
            total=float(self.total.value[0, 0]),
            invariance_term=float((-k.pos_logits).mean()),
            regularization_term=float(k.log_denominator.mean()),
            hex_term_mean=hex_mean,
            mean_H_size=self.mask_mean_size,
            clamp_events=clamps,
        )


class _Hex:
    """The HEX loss on the n unit rows z. Its value and vjp make, element
    for element, the numpy calls of the op-by-op graph (sims = z z^T,
    logits, exp, the masked sums, the q chain, log, mean) and of that
    graph's backward pass, and add the contributions to a shared gradient in
    the order the tape added them, so loss and gradient are that graph's bit
    for bit. ``tests/test_losses.py`` builds the graph and compares.

    The graph multiplied whole n x n arrays by 0/1 masks. Off H(i) the q
    chain's masked products are zeros, so the kernel evaluates that chain
    only at the member entries (``idx``, the row-major flat index of
    ``member``) and at the positives. It takes the member row sums over
    one zeroed n x n scratch array that holds the member values, so numpy
    adds them in the graph's pairwise order, and it applies the
    denominator's mask by zeroing entries in place. Between forward and vjp
    it keeps two n x n arrays: ``_sims`` (z z^T) and ``_expl``
    (exp(sims / tau) with H(i) and the diagonal at 0); the vjp recomputes
    the q chain's factors on the live rows only. Unlike the graph's, its
    loss is not NaN when only a masked-out entry's exp overflows.

    After a forward it holds the n x 1 columns ``pos_logits`` (s_pos / tau),
    ``log_denominator``, ``q_raw`` and ``q_clamped`` (both None when no row
    has members)."""

    def __init__(self, member, pos, tau, qhi_tau, eps_den):
        self.pos = np.asarray(pos, dtype=np.intp)
        self.tau, self.qhi_tau, self.eps_den = tau, qhi_tau, eps_den
        self.member = member
        self.idx = np.flatnonzero(member)
        self.rows_with = member.any(axis=1)[:, None].astype(np.float64)
        self.q_raw = self.q_clamped = None

    def value(self, node, z):
        rows = np.arange(z.shape[0])
        sims = z @ z.T
        expl = sims * (1.0 / self.tau)
        self.pos_logits = expl[rows, self.pos][:, None]
        # Zeroing in place gives the bits of a product with the 0/1 mask,
        # as exp >= 0.
        np.exp(expl, out=expl)
        expl.ravel()[self.idx] = 0.0
        np.fill_diagonal(expl, 0.0)
        self._sims, self._expl = sims, expl
        self._denom = expl.sum(axis=1, keepdims=True)
        if self.idx.size:
            self._denom = self._denom + self._q_effective(sims, rows)
        self.log_denominator = np.log(self._denom)
        return (self.log_denominator - self.pos_logits).mean().reshape(1, 1)

    def _q_effective(self, sims, rows):
        """q_clamped on the rows with members, 0 elsewhere."""
        n_anchors = len(rows) // 2
        lq = sims.ravel()[self.idx] * (1.0 / self.qhi_tau)
        eq = np.exp(lq)
        work = np.zeros(sims.shape)
        flat = work.ravel()
        flat[self.idx] = eq * lq
        num = work.sum(axis=1, keepdims=True)
        flat[self.idx] = eq
        den = work.sum(axis=1, keepdims=True) * (1.0 / n_anchors)
        self._safe = den + (1.0 - self.rows_with)
        self._ratio = num / self._safe
        eq_pos = np.exp(sims[rows, self.pos] * (1.0 / self.qhi_tau))[:, None]
        core = self._ratio - eq_pos * (n_anchors * self.qhi_tau)
        self.q_raw = core * (1.0 / (1.0 - self.qhi_tau))
        self.q_clamped = np.maximum(self.q_raw, self.eps_den)
        return self.q_clamped * self.rows_with

    def vjp(self, node, g, i):
        z = node.parents[0].value
        rows = np.arange(z.shape[0])
        g_loss = np.full((len(rows), 1), g[0, 0] / len(rows))
        g_denom = g_loss / self._denom
        gs = self._expl * g_denom
        gs[rows, self.pos] -= g_loss[:, 0]
        gs *= 1.0 / self.tau
        if self.idx.size:
            self._add_q_vjp(gs, g_denom)
        return gs @ z + (z.T @ gs).T

    def _add_q_vjp(self, gs, g_denom):
        """Add the q chain's gradient with respect to sims to gs. A row whose
        three column gradients below are all exactly 0 (no members, or q
        clamped) contributes a signed zero to every entry where
        exp(s / qhi_tau) is finite, which is all of them unless qhi_tau <
        1/709.78, as s <= 1; only the other rows are computed."""
        n_anchors = len(gs) // 2
        g_core = (g_denom * self.rows_with * (self.q_raw > self.eps_den)
                  * (1.0 / (1.0 - self.qhi_tau)))
        g_pos = -g_core * (n_anchors * self.qhi_tau)
        g_num = g_core / self._safe
        g_den = -g_core * self._ratio / self._safe * (1.0 / n_anchors)
        live = np.flatnonzero((g_num != 0.0) | (g_den != 0.0) | (g_pos != 0.0))
        h = self.member[live].astype(np.float64)
        lq = self._sims[live] * (1.0 / self.qhi_tau)
        eq = np.exp(lq)
        g_eq = np.zeros(h.shape)
        g_eq[np.arange(len(live)), self.pos[live]] = g_pos[live, 0]
        g_prod = g_num[live] * h
        g_eq = g_eq + g_den[live] * h + g_prod * lq
        gs[live] += (g_prod * eq + g_eq * eq) * (1.0 / self.qhi_tau)


def build_info_nce_graph(tape: Tape, z_node: Node, positive_index,
                         tau: float) -> ContrastiveGraphInfo:
    """InfoNCE: the HEX graph with no anchor holding members."""
    pos = np.asarray(positive_index, dtype=np.intp)
    n = pos.shape[0]
    return build_hex_graph(tape, z_node,
                           HierarchyMask(np.zeros((n, n), dtype=bool), pos), tau)


def build_hex_graph(tape: Tape, z_node: Node, mask: HierarchyMask, tau: float,
                    *, qhi_tau: float = DEFAULT_QHI_TAU,
                    eps_den: float = DEFAULT_EPS_DEN) -> ContrastiveGraphInfo:
    """Hierarchically decomposed InfoNCE as one kernel node on z.

    The membership mask, the positive pairing and the per-row has-members
    indicator enter as constants; gradients flow through every similarity
    inside the reweighted term and the denominator, never into the mask.
    """
    if tau <= 0.0:
        raise BadTemperature(f"temperature must be > 0, got {tau}")
    if abs(qhi_tau - 1.0) <= 1e-12:
        raise TauOne("the 1 - tau normalization vanishes at tau == 1")
    if qhi_tau <= 0.0:
        raise BadTemperature(f"qhi_tau must be > 0, got {qhi_tau}")
    if not eps_den > 0.0:
        raise BadConfig(f"eps_den must be > 0, got {eps_den}")
    member = mask.membership
    k = _Hex(member, mask.positive_index, tau, qhi_tau, eps_den)
    return ContrastiveGraphInfo(
        total=tape.kernel(k, z_node, name="hex_loss"), rows_with_h=member.any(axis=1),
        mask_mean_size=mask.mean_size, eps_den=eps_den)


@dataclass
class DimGraphInfo:
    total: Node   # the kernel node; its kernel holds the two terms

    def breakdown(self) -> LossBreakdown:
        """Read the two terms that the kernel's last forward computed."""
        return LossBreakdown(float(self.total.value[0, 0]), *self.total.aux.terms)


def _standardize(z: np.ndarray, ddof: int, var_eps: float):
    """Centered columns of z and sqrt(var + var_eps), var over n - ddof rows."""
    c = z - z.sum(axis=0) / z.shape[0]    # np.mean's bits, without its overhead
    return c, np.sqrt((c * c).sum(axis=0) / (z.shape[0] - ddof) + var_eps)


class _Barlow:
    def __init__(self, lam, scale, var_eps):
        self.lam, self.scale, self.var_eps = lam, scale, var_eps

    def value(self, node, za, zb):
        (ca, sa), (cb, sb) = (_standardize(z, 0, self.var_eps) for z in (za, zb))
        a, b = ca / sa, cb / sb
        cc = a.T @ b / za.shape[0]
        miss, off = 1.0 - np.diagonal(cc), cc * cc
        np.fill_diagonal(off, 0.0)
        self.terms = (float(miss @ miss) * self.scale,
                      float(off.sum()) * (self.scale * self.lam))
        self._saved = (a, b, sa, sb, cc)
        return np.array([[self.terms[0] + self.terms[1]]])

    def vjp(self, node, g, i):
        a, b, sa, sb, cc = self._saved
        g = 2.0 * self.scale * g[0, 0] / len(a)
        gc = (g * self.lam) * cc
        np.fill_diagonal(gc, -g * (1.0 - np.diagonal(cc)))
        ga, x, s = (b @ gc.T, a, sa) if i == 0 else (a @ gc, b, sb)
        return (ga - ga.sum(axis=0) / len(a) - x * ((ga * x).sum(axis=0) / len(a))) / s


def build_barlow_graph(tape: Tape, za: Node, zb: Node, lam: float, scale: float,
                       var_eps: float = 1e-12) -> DimGraphInfo:
    """Barlow Twins as one kernel node on the n x d views za and zb. With a,
    b the standardized views (variance over n) and C = a^T b / n, the terms
    are scale * sum_k (1 - C_kk)^2 and scale * lam * sum_{k != l} C_kl^2.
    VJP: G = dL/dC is -2 scale (1 - C_kk) on the diagonal, 2 scale lam C_kl
    off it; ga = b G^T / n (a G / n for zb) goes back through the
    standardization as (ga - mean(ga) - a mean(ga a)) / s, column means."""
    return DimGraphInfo(tape.kernel(_Barlow(lam, scale, var_eps), za, zb, name="barlow_loss"))


class _Vicreg:
    def __init__(self, sim_w, var_w, cov_w, var_eps):
        self.sim_w, self.var_w, self.cov_w, self.var_eps = sim_w, var_w, cov_w, var_eps

    def value(self, node, za, zb):
        n, d = za.shape
        hinge, pen, self._views = 0.0, 0.0, []
        for z in (za, zb):
            c, s = _standardize(z, 1, self.var_eps)
            cov = c.T @ c / (n - 1)
            np.fill_diagonal(cov, 0.0)
            hinge += float(np.maximum(1.0 - s, 0.0).sum()) / d
            pen += float((cov * cov).sum()) / d
            self._views.append((c, s, cov))
        self._diff = za - zb
        self.terms = (self.sim_w * (float((self._diff * self._diff).sum()) / (n * d)),
                      self.var_w * (0.5 * hinge) + self.cov_w * pen)
        return np.array([[self.terms[0] + self.terms[1]]])

    def vjp(self, node, g, i):
        g, (c, s, cov) = g[0, 0], self._views[i]
        n, d = c.shape
        return ((2.0 * self.sim_w * (g if i == 0 else -g) / (n * d)) * self._diff
                + c @ cov * (4.0 * self.cov_w * g / (d * (n - 1)))
                - c * ((self.var_w * g / (2.0 * d * (n - 1))) * (s < 1.0) / s))


def build_vicreg_graph(tape: Tape, za: Node, zb: Node,
                       sim_w: float, var_w: float, cov_w: float,
                       var_eps: float = 1e-4) -> DimGraphInfo:
    """VICReg as one kernel node on the n x d views za and zb. Per view: c
    centered, s = sqrt(var + var_eps) over n - 1 rows, K = c^T c / (n - 1)
    with a zero diagonal. The terms are sim_w * mean((za - zb)^2) and, summed
    over both views, var_w * mean(max(0, 1 - s)) / 2 + cov_w * sum(K^2) / d.
    VJP for za (zb negates the first part): 2 sim_w (za - zb) / (n d) +
    4 cov_w c K / (d (n - 1)) - var_w [s < 1] c / (2 d (n - 1) s), so the
    hinge's gradient is 0 at its kink, as relu's is."""
    return DimGraphInfo(tape.kernel(_Vicreg(sim_w, var_w, cov_w, var_eps), za, zb,
                                    name="vicreg_loss"))


def build_combined_graph(tape: Tape, hex_total: Node, dim_total: Node,
                         alpha: float, hex_scale: float) -> Node:
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"alpha must lie in [0, 1], got {alpha}")
    return tape.add(tape.scalar_mul(hex_total, alpha * hex_scale),
                    tape.scalar_mul(dim_total, 1.0 - alpha), name="combined_loss")
