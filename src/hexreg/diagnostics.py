"""Collapse and hierarchy diagnostics: entropy-based effective rank on
sample subsets, cosine-similarity distribution statistics split by
superclass, skewness tracking, and a cosine KNN probe."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BadConfig, EmptyTrainSet, InsufficientSamples,
                     MissingLabels, ZeroMatrix)
from .linalg import _safe_unit_rows, as_matrix, singular_values
from .rng import Rng

RANKME_EPS = 1e-7


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


def _moments(v: np.ndarray) -> tuple:
    """Mean and the population central moments m2, m3 of v, from one
    centring pass. The cube is formed by multiplying, since ``d ** 3``
    calls pow once per element."""
    mean = v.mean()
    d = v - mean
    dd = d * d
    m2 = float(dd.mean())
    dd *= d
    return float(mean), m2, float(dd.mean())


def _pool_summary(pool: np.ndarray) -> tuple:
    """(mean, skew) of a pool, the skew being Fisher-Pearson g1 =
    m3 / m2^(3/2) with population central moments: (None, None) when empty,
    skew None when fewer than 3 values or variance at or below 1e-15."""
    if not pool.size:
        return None, None
    mean, m2, m3 = _moments(pool)
    if pool.size < 3 or m2 <= 1e-15:
        return mean, None
    return mean, m3 / m2 ** 1.5


def distribution_stats(sims, superclass_labels,
                       positive_index=None) -> DistributionStats:
    """Pool anchor-other similarities split by shared superclass (self and,
    when given, the paired positive excluded) and summarize each pool.

    Empty pools yield None statistics; constant pools yield means but None
    skews.
    """
    s = np.asarray(sims, dtype=np.float64)
    if superclass_labels is None:
        raise MissingLabels("superclass labels are required")
    labels = np.asarray(superclass_labels)
    n = s.shape[0]
    if labels.shape[0] != n:
        raise MissingLabels("one superclass label per row is required")
    eligible = ~np.eye(n, dtype=bool)
    if positive_index is not None:
        pos = np.asarray(positive_index, dtype=np.intp)
        eligible[np.arange(n), pos] = False
    same = labels[:, None] == labels[None, :]
    mean_super, skew_super = _pool_summary(s[eligible & same])
    mean_regular, skew_regular = _pool_summary(s[eligible & ~same])
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
    then by smallest label id; neighbor ties break by lowest train index."""
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
    sims = _safe_unit_rows(query) @ _safe_unit_rows(train).T
    order = _top_k(sims, k)
    correct = 0
    for qi in range(query.shape[0]):
        neigh = order[qi]
        votes: dict = {}
        for t in neigh:
            lbl = tl[t]
            cnt, tot = votes.get(lbl, (0, 0.0))
            votes[lbl] = (cnt + 1, tot + sims[qi, t])
        winner = min(votes.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))[0]
        if winner == ql[qi]:
            correct += 1
    return correct / query.shape[0]
