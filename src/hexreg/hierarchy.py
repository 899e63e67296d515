"""Decomposition of batch negatives into hierarchical and regular subsets.

A HierarchyMask marks, for every anchor row of a similarity matrix, which
other rows count as members of the anchor's hierarchical grouping. The
anchor itself and its paired positive are never members, whatever the
source of the mask. Membership by threshold uses a strict inequality so a
degenerate threshold equal to every similarity yields an empty mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, MissingLabels


@dataclass
class HierarchyMask:
    membership: np.ndarray            # bool, n x n over batch rows
    positive_index: np.ndarray        # int, per anchor

    @property
    def mean_size(self) -> float:
        return int(np.count_nonzero(self.membership)) / self.membership.shape[0]


@dataclass
class MaskQuality:
    precision: float
    recall: float
    mean_mask_size: float


def _check_positive_index(n: int, positive_index) -> np.ndarray:
    pos = np.asarray(positive_index, dtype=np.intp)
    if pos.shape != (n,) or (pos < 0).any() or (pos >= n).any():
        raise BadConfig(f"positive_index must hold {n} valid row indices")
    return pos


def _clear_self_and_positive(member: np.ndarray, pos: np.ndarray) -> np.ndarray:
    n = member.shape[0]
    idx = np.arange(n)
    member[idx, idx] = False
    member[idx, pos] = False
    return member


def threshold_mask(sims: np.ndarray, epsilon: float,
                   positive_index) -> HierarchyMask:
    """Members are rows whose similarity with the anchor strictly exceeds
    epsilon, excluding the anchor and its positive. Empty masks are legal."""
    sims = np.asarray(sims, dtype=np.float64)
    n = sims.shape[0]
    pos = _check_positive_index(n, positive_index)
    member = sims > epsilon
    _clear_self_and_positive(member, pos)
    return HierarchyMask(member, pos)


def supervised_mask(superclass_labels, positive_index) -> HierarchyMask:
    """Members share the anchor's superclass label (oracle decomposition)."""
    if superclass_labels is None:
        raise MissingLabels("superclass labels are required")
    labels = np.asarray(superclass_labels)
    n = labels.shape[0]
    pos = _check_positive_index(n, positive_index)
    member = labels[:, None] == labels[None, :]
    _clear_self_and_positive(member, pos)
    return HierarchyMask(member, pos)


def whole_batch_mask(n: int, positive_index) -> HierarchyMask:
    """Every eligible negative is a member (whole-batch reweighting mode)."""
    pos = _check_positive_index(n, positive_index)
    member = np.ones((n, n), dtype=bool)
    _clear_self_and_positive(member, pos)
    return HierarchyMask(member, pos)


def mask_quality(mask: HierarchyMask, superclass_labels) -> MaskQuality:
    """Precision/recall of an estimated mask against superclass truth.

    Counted over all (anchor, candidate) pairs. With no predicted pairs the
    precision is vacuously 1.0; with no true pairs the recall is 1.0.
    """
    truth = supervised_mask(superclass_labels, mask.positive_index).membership
    est = mask.membership
    tp = int(np.count_nonzero(est & truth))
    fp = int(np.count_nonzero(est)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return MaskQuality(precision, recall, mask.mean_size)
