"""Decomposition of batch negatives into hierarchical and regular subsets.

Rows come in the two-view layout: a batch of b samples is n = 2b rows, view
a in rows 0:b and view b in rows b:n, so row i's positive is row i + b or
i - b. ``paired_positive_index`` is the one definition of that layout, and
every layout the trainer builds has 2b rows.

A mask is an n x n bool array that marks, for every anchor row of a
similarity matrix, which other rows count as members of the anchor's
hierarchical grouping H(i). The anchor itself and its positive are never
members, whatever the source of the mask. Membership by threshold uses a
strict inequality so a degenerate threshold equal to every similarity
yields an empty mask. ``mask_quality`` scores a mask against the
superclass labels as three metrics columns.
"""

from __future__ import annotations

import numpy as np


def paired_positive_index(n: int) -> np.ndarray:
    """Row i's positive among n = 2b rows in the two-view layout."""
    return (np.arange(n) + n // 2) % n


def _clear_self_and_positive(member: np.ndarray) -> np.ndarray:
    n = member.shape[0]
    idx = np.arange(n)
    member[idx, idx] = False
    member[idx, paired_positive_index(n)] = False
    return member


def threshold_mask(sims: np.ndarray, epsilon: float) -> np.ndarray:
    """Members are rows whose similarity with the anchor strictly exceeds
    epsilon, excluding the anchor and its positive. Empty masks are legal."""
    return _clear_self_and_positive(np.asarray(sims, dtype=np.float64) > epsilon)


def supervised_mask(superclass_labels) -> np.ndarray:
    """Members share the anchor's superclass label (oracle decomposition)."""
    labels = np.asarray(superclass_labels)
    return _clear_self_and_positive(labels[:, None] == labels[None, :])


def whole_batch_mask(n: int) -> np.ndarray:
    """Every eligible negative is a member (whole-batch reweighting mode)."""
    return _clear_self_and_positive(np.ones((n, n), dtype=bool))


def mask_quality(member: np.ndarray, superclass_labels) -> dict:
    """The metrics columns ``mask_precision`` and ``mask_recall`` of an
    estimated mask against superclass truth, and ``mask_size``, its mean
    row size.

    Counted over all (anchor, candidate) pairs. With no predicted pairs the
    precision is vacuously 1.0; with no true pairs the recall is 1.0.
    """
    truth = supervised_mask(superclass_labels)
    tp = int(np.count_nonzero(member & truth))
    predicted = int(np.count_nonzero(member))
    fn = int(np.count_nonzero(truth)) - tp
    precision = tp / predicted if predicted else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return {"mask_precision": precision, "mask_recall": recall,
            "mask_size": predicted / member.shape[0]}
