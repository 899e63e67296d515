"""Collapse and hierarchy diagnostics: entropy-based effective rank on
sample subsets, cosine-similarity distribution statistics split by
superclass, skewness tracking, and a cosine KNN probe.

No N x N similarity matrix is built. The distribution statistics and the
KNN probe work on row blocks of at most _BLOCK rows, so their memory is
O(N * _BLOCK) for N rows. For the statistics the rows are first sorted by
superclass and no block crosses a superclass boundary. A block's
similarities are laid out as an N x block array, so its same-superclass
pool is one contiguous slice of rows and the other pool the two slices
around it: no mask is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BadConfig, EmptyTrainSet, InsufficientSamples,
                     MissingLabels, ZeroMatrix)
from .linalg import _safe_unit_rows, as_matrix, singular_values, unit_rows
from .rng import Rng

RANKME_EPS = 1e-7

# Rows per similarity block. A block's similarities take _BLOCK * N * 8
# bytes; the statistics hold two such arrays at a time.
_BLOCK = 128


@dataclass
class RankCurvePoint:
    mean_rankme_superclass: float
    mean_rankme_random: float


@dataclass
class DistributionStats:
    mean_super: Optional[float]
    mean_regular: Optional[float]
    skew_super: Optional[float]
    skew_regular: Optional[float]
    ratio: Optional[float]


def rankme(r, eps: float = RANKME_EPS) -> float:
    """Effective rank: exp of the entropy of the normalized singular-value
    distribution, each share perturbed by eps."""
    a = as_matrix(r)
    if eps <= 0.0:
        raise BadConfig(f"eps must be > 0, got {eps}")
    if not np.any(a):
        raise ZeroMatrix("effective rank of the zero matrix is undefined")
    sv = singular_values(a)
    total = sv.sum()
    if total <= 0.0:
        raise ZeroMatrix("singular values sum to zero")
    p = sv / total + eps
    return float(np.exp(-(p * np.log(p)).sum()))


def _draw(stream: Rng, pool: np.ndarray, size: int) -> np.ndarray:
    items = list(pool)
    stream.shuffle(items)
    return np.asarray(items[:size], dtype=np.intp)


def subset_rank_curve(representations, superclass_labels, n_subsets: int,
                      subset_size: int, seed: int) -> RankCurvePoint:
    """Mean effective rank over subsets drawn (a) from one uniformly chosen
    superclass each and (b) uniformly from all samples."""
    a = as_matrix(representations)
    labels = np.asarray(superclass_labels)
    if labels.shape[0] != a.shape[0]:
        raise MissingLabels("one superclass label per row is required")
    if n_subsets < 1 or subset_size < 1:
        raise BadConfig("n_subsets and subset_size must be >= 1")
    if a.shape[0] < subset_size:
        raise InsufficientSamples(
            f"{a.shape[0]} samples cannot fill subsets of {subset_size}")
    supers = np.unique(labels)
    groups = [np.nonzero(labels == s)[0] for s in supers]
    smallest = min(g.size for g in groups)
    if smallest < subset_size:
        raise InsufficientSamples(
            f"smallest superclass has {smallest} < {subset_size} samples")
    root = Rng.from_seed(seed)
    all_idx = np.arange(a.shape[0])
    super_vals = []
    random_vals = []
    for j in range(n_subsets):
        st = root.child(0).child(j)
        group = groups[st.randbelow(len(groups))]
        idx = _draw(st, group, subset_size)
        super_vals.append(rankme(a[idx]))
        rt = root.child(1).child(j)
        idx = _draw(rt, all_idx, subset_size)
        random_vals.append(rankme(a[idx]))
    return RankCurvePoint(float(np.mean(super_vals)), float(np.mean(random_vals)))


def _pool_summary(count: int, total: float, s2: float, s3: float) -> tuple:
    """(mean, skew) of a pool of count values with sum total and central
    sums s2 = sum(d^2), s3 = sum(d^3) about the mean. The skew is Fisher-
    Pearson g1 = m3 / m2^(3/2) with population central moments: (None,
    None) when empty, skew None when fewer than 3 values or variance at or
    below 1e-15."""
    if not count:
        return None, None
    mean = float(total / count)
    m2 = s2 / count
    if count < 3 or m2 <= 1e-15:
        return mean, None
    return mean, float((s3 / count) / m2 ** 1.5)


def _superclass_blocks(labels: np.ndarray) -> list:
    """(r0, r1, lo, hi) per row block of superclass-sorted labels: rows
    r0:r1, at most _BLOCK of them, all of the superclass whose rows are
    lo:hi."""
    edges = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(),
             labels.shape[0]]
    return [(r0, min(r0 + _BLOCK, hi), lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
            for r0 in range(lo, hi, _BLOCK)]


def _block_sims(z: np.ndarray, r0: int, r1: int, lo: int, hi: int,
                buf: np.ndarray, means=None) -> np.ndarray:
    """Similarities of every row of unit rows z (axis 0) with rows r0:r1
    (axis 1), written into the front of the flat buffer buf and clipped
    into [-1, 1] as cosine_sim_matrix clips them. With means, means[0] is
    subtracted from the same-superclass rows lo:hi and means[1] from the
    others. Self-pairs are then set to exactly 0."""
    s = buf[:z.shape[0] * (r1 - r0)].reshape(z.shape[0], r1 - r0)
    np.matmul(z, z[r0:r1].T, out=s)
    np.clip(s, -1.0, 1.0, out=s)
    if means is not None:
        s[lo:hi] -= means[0]
        s[:lo] -= means[1]
        s[hi:] -= means[1]
    s[np.arange(r0, r1), np.arange(r1 - r0)] = 0.0
    return s


def _pool_sums(s: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """[sum of the same-superclass rows lo:hi, sum of the others]."""
    return np.array([s[lo:hi].sum(), s[:lo].sum() + s[hi:].sum()])


def distribution_stats(z, superclass_labels) -> DistributionStats:
    """Pool the cosine similarities of each unit row of z with every other
    row, split by shared superclass, and summarize each pool.

    Two passes over superclass-sorted row blocks: the first sums each pool,
    the second sums d^2 and d^3 about each pool's mean. Self-pairs are set
    to exactly 0 (to d = 0 in the second pass), so they add nothing.

    Empty pools yield None statistics; constant pools yield means but None
    skews. Raises NotNormalized if a row norm deviates from 1 by more than
    1e-9.
    """
    a = unit_rows(z)
    if superclass_labels is None:
        raise MissingLabels("superclass labels are required")
    labels = np.asarray(superclass_labels)
    n = a.shape[0]
    if labels.shape[0] != n:
        raise MissingLabels("one superclass label per row is required")
    order = np.argsort(labels, kind="stable")
    a = a[order]
    blocks = _superclass_blocks(labels[order])
    # Every block reuses these two buffers: fresh block-sized arrays would
    # each be faulted in from the OS again, which costs more than the work.
    sims_buf, sq_buf = np.empty((2, n * min(n, _BLOCK)))

    counts = np.zeros(2, dtype=np.int64)
    totals = np.zeros(2)
    for r0, r1, lo, hi in blocks:
        counts += (r1 - r0) * np.array([hi - lo - 1, n - (hi - lo)])
        totals += _pool_sums(_block_sims(a, r0, r1, lo, hi, sims_buf), lo, hi)
    means = [t / c if c else 0.0 for t, c in zip(totals, counts)]
    s2 = np.zeros(2)
    s3 = np.zeros(2)
    for r0, r1, lo, hi in blocks:
        d = _block_sims(a, r0, r1, lo, hi, sims_buf, means)
        # The cube is formed by multiplying: d ** 3 calls pow per element.
        dd = np.multiply(d, d, out=sq_buf[:d.size].reshape(d.shape))
        s2 += _pool_sums(dd, lo, hi)
        dd *= d
        s3 += _pool_sums(dd, lo, hi)

    mean_super, skew_super = _pool_summary(counts[0], totals[0], s2[0], s3[0])
    mean_regular, skew_regular = _pool_summary(counts[1], totals[1], s2[1], s3[1])
    ratio = None
    if mean_super is not None and mean_regular is not None and mean_regular != 0.0:
        ratio = mean_super / mean_regular
    return DistributionStats(
        mean_super=mean_super, mean_regular=mean_regular,
        skew_super=skew_super, skew_regular=skew_regular,
        ratio=ratio)


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest entries per row, largest first, ties
    to the lowest index: the first k columns of a stable argsort of -sims.

    Only the entries at or above each row's k-th largest value are sorted."""
    kth = np.partition(sims, sims.shape[1] - k, axis=1)[:, -k]
    rows, cols = np.nonzero(sims >= kth[:, None])
    # lexsort is stable and np.nonzero yields ascending columns per row,
    # so equal similarities stay in index order.
    cols = cols[np.lexsort((-sims[rows, cols], rows))]
    starts = np.searchsorted(rows, np.arange(sims.shape[0]))
    return cols[starts[:, None] + np.arange(k)]


def holdout_split(n: int, fraction: float, seed: int) -> tuple:
    """(query, train) row indices of a KNN probe: the first
    max(1, round(fraction * n)) rows of a shuffle drawn from stream 5 of the
    seed are the queries, the rest the training rows."""
    perm = list(range(n))
    Rng.from_seed(seed).child(5).shuffle(perm)
    n_query = max(1, int(round(fraction * n)))
    return np.asarray(perm[:n_query]), np.asarray(perm[n_query:])


def knn_accuracy(train_repr, train_labels, query_repr, query_labels,
                 k: int) -> float:
    """Fraction of queries whose majority label among the k most cosine-
    similar training rows matches. Vote ties break by summed similarity,
    then by smallest label id; neighbor ties break by lowest train index.
    Queries are scored _BLOCK at a time."""
    if np.asarray(train_repr).shape[0] == 0:
        raise EmptyTrainSet("no training rows")
    train = as_matrix(train_repr)
    query = as_matrix(query_repr)
    tl = np.asarray(train_labels)
    ql = np.asarray(query_labels)
    if tl.shape[0] != train.shape[0] or ql.shape[0] != query.shape[0]:
        raise MissingLabels("labels must match the row counts")
    if k < 1 or k > train.shape[0]:
        raise BadConfig(f"k must lie in [1, {train.shape[0]}], got {k}")
    train = _safe_unit_rows(train)
    query = _safe_unit_rows(query)
    correct = 0
    for q0 in range(0, query.shape[0], _BLOCK):
        sims = query[q0:q0 + _BLOCK] @ train.T
        for qi, neigh in enumerate(_top_k(sims, k)):
            votes: dict = {}
            for t in neigh:
                lbl = tl[t]
                cnt, tot = votes.get(lbl, (0, 0.0))
                votes[lbl] = (cnt + 1, tot + sims[qi, t])
            winner = min(votes.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))[0]
            if winner == ql[q0 + qi]:
                correct += 1
    return correct / query.shape[0]
