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
    total: Node
    invariance: Node       # alignment-flavored part (on-diagonal / MSE)
    regularization: Node   # decorrelation-flavored part

    def breakdown(self) -> LossBreakdown:
        """Read the two terms out of an evaluated graph."""
        return LossBreakdown(
            total=float(self.total.value[0, 0]),
            invariance_term=float(self.invariance.value[0, 0]),
            regularization_term=float(self.regularization.value[0, 0]),
        )


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
