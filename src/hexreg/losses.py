"""Contrastive and redundancy-reduction losses, as reference functions and
as tape-graph builders for the trainer.

The reference functions are plain numpy and serve as the numerical ground
truth; the ``build_*_graph`` functions express the same formulas over the
autodiff op set. The hierarchical variant splits the softmax denominator:
members of the anchor's estimated grouping H(i) are collapsed into a single
reweighted term

    q_i = ( sum_h e^{s_h/t} (s_h/t) / ((1/N) sum_h e^{s_h/t})
            -+ N t e^{s_pos/t} ) / (1 - t)

where -+ is ``qhi_sign``: "subtract" (the default) or "add". Every
non-member (the positive included) keeps its ordinary exponential term.
With an empty H(i) the denominator degenerates to the plain InfoNCE
denominator, bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Node, Tape
from .errors import (BadAlpha, BadConfig, BadTemperature, DegenerateBatch,
                     EmptyQueue, NonPositiveDenominator, TauOne, ZeroVariance)
from .hierarchy import HierarchyMask
from .linalg import cosine_sim_matrix

QHI_SIGNS = ("subtract", "add")
DEFAULT_QHI_TAU = 0.1
DEFAULT_EPS_DEN = 1e-6

LOSS_KINDS = ("simclr", "simclr_hex", "nnclr", "nnclr_hex",
              "barlow", "barlow_hex", "vicreg", "vicreg_hex")


# ---------------------------------------------------------------------------
# batch container and breakdown record
# ---------------------------------------------------------------------------

@dataclass
class ContrastiveBatch:
    """2N unit-norm embedding rows (N anchors then their N positives) with an
    involutive positive pairing and a softmax temperature."""
    z: np.ndarray
    positive_index: np.ndarray
    tau: float

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.positive_index = np.asarray(self.positive_index, dtype=np.intp)
        if self.tau <= 0.0:
            raise BadTemperature(f"temperature must be > 0, got {self.tau}")
        n = self.z.shape[0]
        if n < 4 or n % 2 != 0:
            raise DegenerateBatch(f"need an even batch of >= 4 rows, got {n}")
        pos = self.positive_index
        if pos.shape != (n,):
            raise BadConfig("positive_index length must match batch rows")
        idx = np.arange(n)
        if (pos == idx).any() or (pos[pos] != idx).any():
            raise BadConfig("positive pairing must be an involution without fixed points")

    @property
    def n_rows(self) -> int:
        return self.z.shape[0]

    @property
    def n_anchors(self) -> int:
        return self.z.shape[0] // 2


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
    mean_H_size: Optional[float] = None
    clamp_events: int = 0


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _nonself_mask(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


def info_nce(b: ContrastiveBatch) -> LossBreakdown:
    """Mean over all rows (every row anchors once) of the softmax loss with
    the paired row as positive; every other row, positive included, sits in
    the denominator."""
    sims = cosine_sim_matrix(b.z)
    n = b.n_rows
    logits = sims / b.tau
    expl = np.exp(logits)
    denom = (expl * _nonself_mask(n)).sum(axis=1)
    pos_logit = logits[np.arange(n), b.positive_index]
    loss_vec = np.log(denom) - pos_logit
    return LossBreakdown(
        total=float(loss_vec.mean()),
        invariance_term=float((-pos_logit).mean()),
        regularization_term=float(np.log(denom).mean()),
    )


def hex_loss(b: ContrastiveBatch, mask: HierarchyMask, *,
             qhi_tau: float = DEFAULT_QHI_TAU, qhi_sign: str = "subtract",
             qhi_n: Optional[int] = None,
             eps_den: float = DEFAULT_EPS_DEN) -> LossBreakdown:
    """InfoNCE with the denominator's hierarchical members collapsed into
    their reweighted term, clamped below at eps_den before entering the sum.

    Anchors with empty H(i) reproduce their InfoNCE loss bitwise.
    """
    if abs(qhi_tau - 1.0) <= 1e-12:
        raise TauOne("the 1 - tau normalization vanishes at tau == 1")
    if qhi_tau <= 0.0:
        raise BadTemperature(f"qhi_tau must be > 0, got {qhi_tau}")
    if qhi_sign not in QHI_SIGNS:
        raise BadConfig(f"qhi_sign must be one of {QHI_SIGNS}, got {qhi_sign!r}")
    n = b.n_rows
    member = mask.membership
    if member.shape != (n, n):
        raise BadConfig(f"mask shape {member.shape} does not match batch ({n} rows)")
    big_n = b.n_anchors if qhi_n is None else int(qhi_n)

    sims = cosine_sim_matrix(b.z)
    logits = sims / b.tau
    expl = np.exp(logits)
    idx = np.arange(n)
    non_h = _nonself_mask(n)
    non_h[member] = 0.0
    base = (expl * non_h).sum(axis=1)
    pos_logit = logits[idx, b.positive_index]

    hex_term_mean = None
    clamp_events = 0
    denom = base
    rows_with = member.any(axis=1)
    if rows_with.any():
        hf = member.astype(np.float64)
        logits_q = sims / qhi_tau
        expq = np.exp(logits_q)
        num = (expq * logits_q * hf).sum(axis=1)
        den = (expq * hf).sum(axis=1) / big_n
        ratio = num / (den + (~rows_with))
        pos_sim = sims[idx, b.positive_index]
        pos_term = big_n * qhi_tau * np.exp(pos_sim / qhi_tau)
        core = ratio - pos_term if qhi_sign == "subtract" else ratio + pos_term
        q_raw = core / (1.0 - qhi_tau)
        q_clamped = np.maximum(q_raw, eps_den)
        clamp_events = int(np.count_nonzero(rows_with & (q_raw < eps_den)))
        denom = base + np.where(rows_with, q_clamped, 0.0)
        hex_term_mean = float(q_clamped[rows_with].mean())
    if (denom <= 0.0).any():
        raise NonPositiveDenominator("softmax denominator not positive")

    loss_vec = np.log(denom) - pos_logit
    return LossBreakdown(
        total=float(loss_vec.mean()),
        invariance_term=float((-pos_logit).mean()),
        regularization_term=float(np.log(denom).mean()),
        hex_term_mean=hex_term_mean,
        mean_H_size=float(member.sum(axis=1).mean()),
        clamp_events=clamp_events,
    )


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
# dimension-contrastive losses
# ---------------------------------------------------------------------------

def barlow_loss(zA, zB, lam: float, scale: float) -> float:
    """Redundancy-reduction penalty on the cross-correlation of the two
    views' per-dimension standardized (population std) embeddings."""
    a = np.asarray(zA, dtype=np.float64)
    bm = np.asarray(zB, dtype=np.float64)
    if a.shape != bm.shape:
        raise BadConfig(f"view shapes differ: {a.shape} vs {bm.shape}")
    n = a.shape[0]
    if n < 2:
        raise DegenerateBatch("batch size must be >= 2")
    stds = []
    for v in (a, bm):
        std = np.sqrt(((v - v.mean(axis=0)) ** 2).mean(axis=0))
        if (std <= 1e-12).any():
            k = int(np.argmax(std <= 1e-12))
            raise ZeroVariance(f"feature column {k} is constant")
        stds.append(std)
    an = (a - a.mean(axis=0)) / stds[0]
    bn = (bm - bm.mean(axis=0)) / stds[1]
    c = an.T @ bn / n
    on_diag = float(((1.0 - np.diag(c)) ** 2).sum())
    off_diag = float((c * c).sum() - (np.diag(c) ** 2).sum())
    return scale * (on_diag + lam * off_diag)


def vicreg_loss(zA, zB, sim_w: float, var_w: float, cov_w: float) -> float:
    """Invariance MSE + variance hinge (std floor 1, averaged over views) +
    off-diagonal covariance penalty (summed over views, scaled by 1/d)."""
    a = np.asarray(zA, dtype=np.float64)
    bm = np.asarray(zB, dtype=np.float64)
    if a.shape != bm.shape:
        raise BadConfig(f"view shapes differ: {a.shape} vs {bm.shape}")
    n, d = a.shape
    if n < 2:
        raise DegenerateBatch("batch size must be >= 2")
    mse = float(((a - bm) ** 2).mean())
    hinges = []
    covs = []
    for v in (a, bm):
        centered = v - v.mean(axis=0)
        var = (centered ** 2).sum(axis=0) / (n - 1)
        std = np.sqrt(var)
        hinges.append(float(np.maximum(0.0, 1.0 - std).mean()))
        cov = centered.T @ centered / (n - 1)
        covs.append(float(((cov * cov).sum() - (np.diag(cov) ** 2).sum()) / d))
    var_term = (hinges[0] + hinges[1]) / 2.0
    cov_term = covs[0] + covs[1]
    return sim_w * mse + var_w * var_term + cov_w * cov_term


def combined_loss(hex_value: float, dim_value: float, alpha: float,
                  hex_scale: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"alpha must lie in [0, 1], got {alpha}")
    if hex_scale <= 0.0:
        raise BadConfig(f"hex_scale must be > 0, got {hex_scale}")
    return alpha * hex_scale * hex_value + (1.0 - alpha) * dim_value


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

@dataclass
class ContrastiveGraphInfo:
    total: Node
    pos_logits: Node           # n x 1, s_pos / tau
    log_denominator: Node      # n x 1
    q_raw: Optional[Node] = None
    q_clamped: Optional[Node] = None
    rows_with_h: Optional[np.ndarray] = None
    mask_mean_size: Optional[float] = None
    eps_den: float = DEFAULT_EPS_DEN

    def breakdown(self) -> LossBreakdown:
        """Read the decomposition out of an evaluated graph."""
        pos = self.pos_logits.value
        logd = self.log_denominator.value
        hex_mean = None
        clamps = 0
        if self.q_raw is not None and self.rows_with_h is not None:
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
    if tau <= 0.0:
        raise BadTemperature(f"temperature must be > 0, got {tau}")
    pos = np.asarray(positive_index, dtype=np.intp)
    n = pos.shape[0]
    sims = tape.matmul(z_node, tape.transpose(z_node), name="sims")
    logits = tape.scalar_mul(sims, 1.0 / tau, name="logits")
    expl = tape.exp(logits, name="exp_logits")
    pos_logits = tape.pick(logits, pos, name="pos_logits")
    denom = tape.masked_sum(expl, _nonself_mask(n), name="denominator")
    log_denom = tape.log(denom, name="log_denominator")
    loss_vec = tape.sub(log_denom, pos_logits, name="per_anchor_loss")
    total = tape.mean(loss_vec, name="info_nce")
    return ContrastiveGraphInfo(total=total, pos_logits=pos_logits,
                                log_denominator=log_denom, mask_mean_size=None)


def build_hex_graph(tape: Tape, z_node: Node, mask: HierarchyMask, tau: float,
                    *, qhi_tau: float = DEFAULT_QHI_TAU,
                    qhi_sign: str = "subtract", qhi_n: Optional[int] = None,
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
    if qhi_sign not in QHI_SIGNS:
        raise BadConfig(f"qhi_sign must be one of {QHI_SIGNS}, got {qhi_sign!r}")
    member = mask.membership
    pos = mask.positive_index
    n = member.shape[0]
    if qhi_n is None:
        qhi_n = n // 2
    rows_with = member.any(axis=1)

    sims = tape.matmul(z_node, tape.transpose(z_node), name="sims")
    logits = tape.scalar_mul(sims, 1.0 / tau, name="logits")
    expl = tape.exp(logits, name="exp_logits")
    pos_logits = tape.pick(logits, pos, name="pos_logits")
    non_h = _nonself_mask(n)
    non_h[member] = 0.0
    base = tape.masked_sum(expl, non_h, name="non_member_sum")

    q_raw = q_clamped = None
    denom = base
    if rows_with.any():
        hf = member.astype(np.float64)
        logits_q = tape.scalar_mul(sims, 1.0 / qhi_tau, name="logits_q")
        expq = tape.exp(logits_q, name="exp_logits_q")
        num = tape.masked_sum(tape.mul_elem(expq, logits_q), hf, name="q_numerator")
        den = tape.scalar_mul(tape.masked_sum(expq, hf), 1.0 / qhi_n, name="q_denominator")
        safe_den = tape.add(den, tape.constant((~rows_with)[:, None].astype(np.float64)))
        ratio = tape.div_elem(num, safe_den, name="q_ratio")
        pos_exp_q = tape.pick(expq, pos, name="pos_exp_q")
        pos_term = tape.scalar_mul(pos_exp_q, qhi_n * qhi_tau, name="q_pos_term")
        if qhi_sign == "subtract":
            core = tape.sub(ratio, pos_term, name="q_core")
        else:
            core = tape.add(ratio, pos_term, name="q_core")
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
        mask_mean_size=float(member.sum(axis=1).mean()), eps_den=eps_den)


@dataclass
class DimGraphInfo:
    total: Node
    invariance: Node       # alignment-flavored part (on-diagonal / MSE)
    regularization: Node   # decorrelation-flavored part

    def terms(self) -> tuple[float, float]:
        return float(self.invariance.value[0, 0]), float(self.regularization.value[0, 0])


def _column_stats(tape: Tape, z: Node, n: int, denom: float, d: int,
                  var_eps: float):
    """Centered matrix and per-column std of z, sharing one tape.

    var_eps is added inside the sqrt; it keeps log defined at zero variance
    and bounds the 0.5/std gradient factor for near-dead columns."""
    mean = tape.matmul(tape.constant(np.full((1, n), 1.0 / n)), z)
    centered = tape.sub(z, mean)
    sq_sum = tape.matmul(tape.constant(np.ones((1, n))), tape.mul_elem(centered, centered))
    var = tape.scalar_mul(sq_sum, 1.0 / denom)
    var_safe = tape.add(var, tape.constant(np.full((1, d), var_eps)))
    # sqrt(x) over the fixed op set: exp(log(x) / 2)
    std = tape.exp(tape.scalar_mul(tape.log(var_safe), 0.5))
    return centered, std


def build_barlow_graph(tape: Tape, za: Node, zb: Node, n: int, d: int,
                       lam: float, scale: float,
                       var_eps: float = 1e-12) -> DimGraphInfo:
    ca, stda = _column_stats(tape, za, n, float(n), d, var_eps)
    cb, stdb = _column_stats(tape, zb, n, float(n), d, var_eps)
    an = tape.div_elem(ca, stda)
    bn = tape.div_elem(cb, stdb)
    cc = tape.scalar_mul(tape.matmul(tape.transpose(an), bn), 1.0 / n, name="cross_corr")
    eye = np.eye(d)
    miss = tape.sub(tape.constant(np.ones((d, d))), cc)
    on_sum = tape.sum(tape.masked_sum(tape.mul_elem(miss, miss), eye))
    off_sum = tape.sum(tape.masked_sum(tape.mul_elem(cc, cc), 1.0 - eye))
    invariance = tape.scalar_mul(on_sum, scale, name="barlow_on_diag")
    regularization = tape.scalar_mul(off_sum, scale * lam, name="barlow_off_diag")
    total = tape.add(invariance, regularization, name="barlow_loss")
    return DimGraphInfo(total=total, invariance=invariance, regularization=regularization)


def build_vicreg_graph(tape: Tape, za: Node, zb: Node, n: int, d: int,
                       sim_w: float, var_w: float, cov_w: float,
                       var_eps: float = 1e-4) -> DimGraphInfo:
    diff = tape.sub(za, zb)
    mse = tape.mean(tape.mul_elem(diff, diff), name="vicreg_mse")
    hinges = []
    covpens = []
    off_mask = 1.0 - np.eye(d)
    ones_row = np.ones((1, d))
    for z in (za, zb):
        centered, std = _column_stats(tape, z, n, float(n - 1), d, var_eps)
        hinge = tape.mean(tape.relu(tape.sub(tape.constant(ones_row), std)))
        hinges.append(hinge)
        cov = tape.scalar_mul(tape.matmul(tape.transpose(centered), centered),
                              1.0 / (n - 1))
        covpens.append(tape.scalar_mul(
            tape.sum(tape.masked_sum(tape.mul_elem(cov, cov), off_mask)), 1.0 / d))
    var_term = tape.scalar_mul(tape.add(hinges[0], hinges[1]), 0.5)
    cov_term = tape.add(covpens[0], covpens[1])
    invariance = tape.scalar_mul(mse, sim_w, name="vicreg_invariance")
    regularization = tape.add(tape.scalar_mul(var_term, var_w),
                              tape.scalar_mul(cov_term, cov_w),
                              name="vicreg_regularization")
    total = tape.add(invariance, regularization, name="vicreg_loss")
    return DimGraphInfo(total=total, invariance=invariance, regularization=regularization)


def build_combined_graph(tape: Tape, hex_total: Node, dim_total: Node,
                         alpha: float, hex_scale: float) -> Node:
    if not 0.0 <= alpha <= 1.0:
        raise BadAlpha(f"alpha must lie in [0, 1], got {alpha}")
    if hex_scale <= 0.0:
        raise BadConfig(f"hex_scale must be > 0, got {hex_scale}")
    return tape.add(tape.scalar_mul(hex_total, alpha * hex_scale),
                    tape.scalar_mul(dim_total, 1.0 - alpha), name="combined_loss")
