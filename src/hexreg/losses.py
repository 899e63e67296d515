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
With every H(i) empty the graph records no q node and is InfoNCE, so
``build_info_nce_graph`` is ``build_hex_graph`` over an all-False mask.

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
    total: Node
    pos_logits: Node           # n x 1, s_pos / tau
    log_denominator: Node      # n x 1
    q_raw: Optional[Node]      # n x 1; None when no row has members
    q_clamped: Optional[Node]
    rows_with_h: np.ndarray    # bool, n
    mask_mean_size: float
    eps_den: float

    def breakdown(self) -> LossBreakdown:
        """Read the decomposition out of an evaluated graph."""
        pos = self.pos_logits.value
        logd = self.log_denominator.value
        hex_mean = None
        clamps = 0
        if self.q_raw is not None:
            rows = self.rows_with_h
            q = self.q_raw.value[:, 0]
            clamps = int(np.count_nonzero(rows & (q < self.eps_den)))
            hex_mean = float(self.q_clamped.value[rows, 0].mean())
        return LossBreakdown(
            total=float(self.total.value[0, 0]),
            invariance_term=float((-pos).mean()),
            regularization_term=float(logd.mean()),
            hex_term_mean=hex_mean,
            mean_H_size=self.mask_mean_size,
            clamp_events=clamps,
        )


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
    """Hierarchically decomposed InfoNCE as a differentiable graph.

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
    pos = mask.positive_index
    n = member.shape[0]
    n_anchors = n // 2
    rows_with = member.any(axis=1)

    sims = tape.matmul(z_node, tape.transpose(z_node), name="sims")
    logits = tape.scalar_mul(sims, 1.0 / tau, name="logits")
    expl = tape.exp(logits, name="exp_logits")
    pos_logits = tape.pick(logits, pos, name="pos_logits")
    non_h = (~member).astype(np.float64)
    np.fill_diagonal(non_h, 0.0)
    base = tape.masked_sum(expl, non_h, name="non_member_sum")

    q_raw = q_clamped = None
    denom = base
    if rows_with.any():
        hf = member.astype(np.float64)
        logits_q = tape.scalar_mul(sims, 1.0 / qhi_tau, name="logits_q")
        expq = tape.exp(logits_q, name="exp_logits_q")
        num = tape.masked_sum(tape.mul_elem(expq, logits_q), hf, name="q_numerator")
        den = tape.scalar_mul(tape.masked_sum(expq, hf), 1.0 / n_anchors,
                              name="q_denominator")
        safe_den = tape.add(den, tape.constant((~rows_with)[:, None].astype(np.float64)))
        ratio = tape.div_elem(num, safe_den, name="q_ratio")
        pos_exp_q = tape.pick(expq, pos, name="pos_exp_q")
        pos_term = tape.scalar_mul(pos_exp_q, n_anchors * qhi_tau, name="q_pos_term")
        core = tape.sub(ratio, pos_term, name="q_core")
        q_raw = tape.scalar_mul(core, 1.0 / (1.0 - qhi_tau), name="q_raw")
        q_clamped = tape.clamp_min(q_raw, eps_den, name="q_clamped")
        q_eff = tape.mul_elem(
            q_clamped, tape.constant(rows_with[:, None].astype(np.float64)),
            name="q_effective")
        denom = tape.add(base, q_eff, name="denominator")

    log_denom = tape.log(denom, name="log_denominator")
    loss_vec = tape.sub(log_denom, pos_logits, name="per_anchor_loss")
    total = tape.mean(loss_vec, name="hex_loss")
    return ContrastiveGraphInfo(
        total=total, pos_logits=pos_logits, log_denominator=log_denom,
        q_raw=q_raw, q_clamped=q_clamped, rows_with_h=rows_with,
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


def build_barlow_graph(tape: Tape, za: Node, zb: Node, n: int, d: int,
                       lam: float, scale: float,
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


def build_vicreg_graph(tape: Tape, za: Node, zb: Node, n: int, d: int,
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
