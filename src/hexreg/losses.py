"""Contrastive and redundancy-reduction losses as tape-graph builders.

Each loss is one autodiff ``kernel`` node on y, the 2b x d projector
output in ``hierarchy``'s two-view layout, whose vjp returns the gradient
with respect to y. Each ``build_*_graph`` function is the one
implementation of its formula and returns its kernel k; after a forward,
``k.breakdown()`` reports the loss and its terms. k keeps its node's index
(``k.node_idx``), not the node, which holds k: the cycle would keep each
step's tape alive until the garbage collector ran. The independent
plain-loop numpy oracles that check the builders live in
``tests/test_losses.py``.

The hierarchical variant splits the softmax denominator: the members of
the anchor's estimated grouping H(i) are replaced by one reweighted term,
the hard-negative estimator of Robinson et al. (arXiv 2010.04592, beta = 1)
over H(i), which builds on the debiased estimator of Chuang et al. (arXiv
2007.00224). With e_a = e^{s_ia/t}, t the loss temperature, m = |H(i)| and
w_h = e_h / sum_h e_h,

    q_i = max( (m sum_h e_h w_h - tau_plus m e_pos) / (1 - tau_plus),
               m e^{-1/t} )

where tau_plus is the class prior. The weights w_h are e_h's share of the
members' mass, so e_h w_h cannot overflow where e_h does not. The second
argument of max is the floor: q never drops below what m members at
similarity -1 would give. Every non-member (the positive included) keeps its
ordinary exponential term. With every H(i) empty there is no q term and the
loss is InfoNCE, so ``build_info_nce_graph`` is ``build_hex_graph`` over an
all-False mask. With tau_plus = 0 and one similarity on all of H(i), q_i is
the members' own sum, so the loss is InfoNCE again. The HEX/InfoNCE kernel
normalizes y's rows itself; its q term is evaluated and differentiated at
the members of H(i) and the positives only.

Barlow Twins (Zbontar et al., arXiv 2103.03230) and VICReg (Bardes et al.,
arXiv 2105.04906) split y into its two views; each forward and analytic
vjp is given in the builder's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .autodiff import Node, Tape
from .errors import BadAlpha, BadConfig, BadTemperature, EmptyQueue
from .hierarchy import paired_positive_index
from .linalg import l2_normalize_rows, row_norms

DEFAULT_TAU_PLUS = 0.1

LOSS_KINDS = ("simclr", "simclr_hex", "nnclr", "nnclr_hex",
              "barlow", "barlow_hex", "vicreg", "vicreg_hex")


# ---------------------------------------------------------------------------
# breakdown record
# ---------------------------------------------------------------------------

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
    """FIFO of unit-norm embedding rows in one array, oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise BadConfig(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rows = None

    def __len__(self) -> int:
        return 0 if self._rows is None else len(self._rows)

    def push(self, rows: np.ndarray):
        rows = np.array(rows, dtype=np.float64, ndmin=2)
        if self._rows is not None:
            rows = np.concatenate((self._rows, rows))
        self._rows = rows[-self.capacity:]

    def as_matrix(self) -> np.ndarray:
        if not len(self):
            raise EmptyQueue("queue holds no entries")
        return self._rows


def nnclr_positive_rows(q: NNQueue, z: np.ndarray) -> np.ndarray:
    """For each row of z, the queue entry with the highest cosine similarity;
    ties go to the oldest entry."""
    entries = q.as_matrix()
    sims = np.asarray(z, dtype=np.float64) @ entries.T
    return entries[np.argmax(sims, axis=1)]


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

class _Hex:
    """The HEX loss on y's rows, normalized to z, with e = exp(z z^T / tau).
    Given ``nn_rows``, they replace rows 0:b of z and only y's rows b:2b are
    normalized; y's rows 0:b then get a zero gradient.

    Off H(i) the kernel works on whole n x n arrays; the q term reads the
    member entries only (``idx``, the row-major flat index of the mask),
    gathered from the one exp array and summed per row (``row``). Between
    forward and vjp it keeps one n x n array, e with H(i) and the diagonal
    at 0. A row whose q sits on the floor is not live: q is constant there.

    After a forward it holds z and the n x 1 columns ``pos_logits``
    (s_pos / tau), ``log_denominator``, ``q`` and ``live`` (both None when
    no row has members). ``rows_with_h`` marks the rows with members."""

    def __init__(self, member, tau, tau_plus, nn_rows):
        self.pos = paired_positive_index(len(member))
        self.tau, self.tau_plus = tau, tau_plus
        self.nn_rows = nn_rows
        self.lo = 0 if nn_rows is None else len(nn_rows)   # first row normalized
        self.idx = np.flatnonzero(member)
        self.row = self.idx // len(member)
        self.size = np.bincount(self.row, minlength=len(member))[:, None]
        self.rows_with_h = member.any(axis=1)
        self.q = self.live = None

    def breakdown(self) -> LossBreakdown:
        """Read the decomposition out of the last forward."""
        hex_mean = None
        floored = 0
        if self.q is not None:
            rows = self.rows_with_h
            floored = int(np.count_nonzero(rows & ~self.live[:, 0]))
            hex_mean = float(self.q[rows, 0].mean())
        return LossBreakdown(
            total=float(self.loss),
            invariance_term=float((-self.pos_logits).mean()),
            regularization_term=float(self.log_denominator.mean()),
            hex_term_mean=hex_mean,
            mean_H_size=self.idx.size / len(self.rows_with_h),
            clamp_events=floored,
        )

    def value(self, y):
        self._y = y
        z = l2_normalize_rows(y[self.lo:])
        if self.lo:
            z = np.concatenate((self.nn_rows, z))
        self.z = z
        rows = np.arange(z.shape[0])
        e = z @ z.T
        e *= 1.0 / self.tau
        self.pos_logits = e[rows, self.pos][:, None]
        np.exp(e, out=e)
        e_pos = e[rows, self.pos][:, None]
        self._e_h = e.ravel()[self.idx]
        e.ravel()[self.idx] = 0.0
        np.fill_diagonal(e, 0.0)
        self._expl = e
        self._denom = e.sum(axis=1, keepdims=True)
        if self.idx.size:
            self._denom = self._denom + self._q(e_pos)
        self.log_denominator = np.log(self._denom)
        self.loss = (self.log_denominator - self.pos_logits).mean()
        return self.loss.reshape(1, 1)

    def _q(self, e_pos):
        """q on every row; 0 on a row without members, as |H| = 0 there."""
        n, m, row = len(e_pos), self.size, self.row
        s1 = np.bincount(row, self._e_h, minlength=n)
        self._w = self._e_h / s1[row]
        s2 = np.bincount(row, self._e_h * self._w, minlength=n)
        self._sum_w2 = s2[row] / s1[row]
        self._e_pos = e_pos
        est = (m * s2[:, None] - (self.tau_plus * m) * e_pos) / (1.0 - self.tau_plus)
        floor = m * np.exp(-1.0 / self.tau)
        self.live = est > floor
        self.q = np.maximum(est, floor)
        return self.q

    def vjp(self, g):
        z = self.z
        rows = np.arange(z.shape[0])
        g_loss = np.full((len(rows), 1), g[0, 0] / len(rows))
        g_denom = g_loss / self._denom
        gs = self._expl * g_denom
        gs[rows, self.pos] -= g_loss[:, 0]
        if self.idx.size:
            # d(m S2)/de_h = m (2 w_h - sum_h w_h^2); the member entries of
            # gs are 0 until here.
            g_est = (g_denom * self.live * self.size)[:, 0] / (1.0 - self.tau_plus)
            gs[rows, self.pos] -= g_est * self.tau_plus * self._e_pos[:, 0]
            gs.ravel()[self.idx] = (g_est[self.row] * (2.0 * self._w - self._sum_w2)
                                    * self._e_h)
        gs *= 1.0 / self.tau
        g_z = gs @ z + (z.T @ gs).T
        # Back through each normalized row u = y / |y|: (g - u (g . u)) / |y|.
        u, g_u = z[self.lo:], g_z[self.lo:]
        g_y = np.zeros(self._y.shape)
        g_y[self.lo:] = ((g_u - u * (g_u * u).sum(axis=1, keepdims=True))
                         / row_norms(self._y[self.lo:])[:, None])
        return g_y


def build_info_nce_graph(tape: Tape, y: Node, n: int, tau: float, *,
                         nn_rows=None) -> _Hex:
    """InfoNCE on y's n rows: the HEX graph with no anchor holding members."""
    return build_hex_graph(tape, y, np.zeros((n, n), dtype=bool), tau, nn_rows=nn_rows)


def build_hex_graph(tape: Tape, y: Node, member: np.ndarray, tau: float, *,
                    tau_plus: float = DEFAULT_TAU_PLUS, nn_rows=None) -> _Hex:
    """Hierarchically decomposed InfoNCE as one kernel node on the
    projector output y, whose rows the kernel normalizes.

    The n x n membership mask ``member``, the layout's positives and
    NNCLR's neighbour rows ``nn_rows`` (which replace rows 0:b of the
    normalized rows) enter as constants; gradients flow through every
    similarity inside q and the denominator, never into them.
    """
    if tau <= 0.0:
        raise BadTemperature(f"temperature must be > 0, got {tau}")
    if not 0.0 <= tau_plus < 1.0:
        raise BadConfig(f"tau_plus must lie in [0, 1), got {tau_plus}")
    k = _Hex(member, tau, tau_plus, nn_rows)
    k.node_idx = tape.kernel(k, y, name="hex_loss").idx
    return k


def _standardize(z: np.ndarray, ddof: int, var_eps: float):
    """Centered columns of z and sqrt(var + var_eps), var over n - ddof rows."""
    c = z - z.sum(axis=0) / z.shape[0]    # np.mean's bits, without its overhead
    return c, np.sqrt((c * c).sum(axis=0) / (z.shape[0] - ddof) + var_eps)


class _DimKernel:
    def breakdown(self) -> LossBreakdown:
        """The loss and the two terms, invariance and regularization, that
        the last forward computed."""
        return LossBreakdown(self.terms[0] + self.terms[1], *self.terms)


class _Barlow(_DimKernel):
    def __init__(self, lam, scale, var_eps):
        self.lam, self.scale, self.var_eps = lam, scale, var_eps

    def value(self, y):
        za, zb = y[:len(y) // 2], y[len(y) // 2:]
        (ca, sa), (cb, sb) = (_standardize(z, 0, self.var_eps) for z in (za, zb))
        a, b = ca / sa, cb / sb
        cc = a.T @ b / za.shape[0]
        miss, off = 1.0 - np.diagonal(cc), cc * cc
        np.fill_diagonal(off, 0.0)
        self.terms = (float(miss @ miss) * self.scale,
                      float(off.sum()) * (self.scale * self.lam))
        self._saved = (a, b, sa, sb, cc)
        return np.array([[self.terms[0] + self.terms[1]]])

    def vjp(self, g):
        a, b, sa, sb, cc = self._saved
        n = len(a)
        g = 2.0 * self.scale * g[0, 0] / n
        gc = (g * self.lam) * cc
        np.fill_diagonal(gc, -g * (1.0 - np.diagonal(cc)))
        return np.concatenate([(gx - gx.sum(axis=0) / n - x * ((gx * x).sum(axis=0) / n)) / s
                               for gx, x, s in ((b @ gc.T, a, sa), (a @ gc, b, sb))])


def build_barlow_graph(tape: Tape, y: Node, lam: float, scale: float,
                       var_eps: float = 1e-12) -> _Barlow:
    """Barlow Twins as one kernel node on y, whose rows 0:b and b:2b are the
    n x d views za and zb. With a, b the standardized views (variance over
    n) and C = a^T b / n, the terms are scale * sum_k (1 - C_kk)^2 and
    scale * lam * sum_{k != l} C_kl^2. VJP: G = dL/dC is -2 scale (1 - C_kk)
    on the diagonal, 2 scale lam C_kl off it; ga = b G^T / n (a G / n for
    zb) goes back through the standardization as
    (ga - mean(ga) - a mean(ga a)) / s, column means."""
    k = _Barlow(lam, scale, var_eps)
    k.node_idx = tape.kernel(k, y, name="barlow_loss").idx
    return k


class _Vicreg(_DimKernel):
    def __init__(self, sim_w, var_w, cov_w, var_eps):
        self.sim_w, self.var_w, self.cov_w, self.var_eps = sim_w, var_w, cov_w, var_eps

    def value(self, y):
        za, zb = y[:len(y) // 2], y[len(y) // 2:]
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

    def vjp(self, g):
        g = g[0, 0]
        n, d = self._diff.shape
        return np.concatenate([
            (2.0 * self.sim_w * g_sim / (n * d)) * self._diff
            + c @ cov * (4.0 * self.cov_w * g / (d * (n - 1)))
            - c * ((self.var_w * g / (2.0 * d * (n - 1))) * (s < 1.0) / s)
            for g_sim, (c, s, cov) in zip((g, -g), self._views)])


def build_vicreg_graph(tape: Tape, y: Node, sim_w: float, var_w: float, cov_w: float,
                       var_eps: float = 1e-4) -> _Vicreg:
    """VICReg as one kernel node on y, whose rows 0:b and b:2b are the n x d
    views za and zb. Per view: c centered, s = sqrt(var + var_eps) over
    n - 1 rows, K = c^T c / (n - 1) with a zero diagonal. The terms are
    sim_w * mean((za - zb)^2) and, summed over both views,
    var_w * mean(max(0, 1 - s)) / 2 + cov_w * sum(K^2) / d. VJP for za (zb
    negates the first part): 2 sim_w (za - zb) / (n d) +
    4 cov_w c K / (d (n - 1)) - var_w [s < 1] c / (2 d (n - 1) s), so the
    hinge's gradient is 0 at its kink, as relu's is."""
    k = _Vicreg(sim_w, var_w, cov_w, var_eps)
    k.node_idx = tape.kernel(k, y, name="vicreg_loss").idx
    return k


@dataclass
class CombinedGraphInfo:
    total: Node      # the add node of the two weighted losses
    parts: tuple     # (contrastive kernel, dimension kernel)
    weights: tuple   # (alpha * hex_scale, 1 - alpha)

    def breakdown(self) -> LossBreakdown:
        """The two loss columns mixed as the total mixes the losses; the
        HEX columns are the contrastive part's."""
        (h, d), (c1, c2) = (p.breakdown() for p in self.parts), self.weights
        return replace(h, total=float(self.total.value[0, 0]),
                       invariance_term=c1 * h.invariance_term + c2 * d.invariance_term,
                       regularization_term=(c1 * h.regularization_term
                                            + c2 * d.regularization_term))


def build_combined_graph(tape: Tape, contra: _Hex, dim: _DimKernel,
                         alpha: float, hex_scale: float) -> CombinedGraphInfo:
    """alpha * hex_scale * contrastive loss + (1 - alpha) * dim loss."""
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"alpha must lie in [0, 1], got {alpha}")
    weights = (alpha * hex_scale, 1.0 - alpha)
    total = tape.add(tape.scalar_mul(tape.nodes[contra.node_idx], weights[0]),
                     tape.scalar_mul(tape.nodes[dim.node_idx], weights[1]),
                     name="combined_loss")
    return CombinedGraphInfo(total, (contra, dim), weights)
