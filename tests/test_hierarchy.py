import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexreg.autodiff import Tape, forward
from hexreg.errors import MissingLabels
from hexreg.hierarchy import (HierarchyMask, mask_quality, supervised_mask,
                              threshold_mask, whole_batch_mask)
from hexreg.linalg import cosine_sim_matrix, l2_normalize_rows
from hexreg.losses import build_hex_graph


def _pairing(n):
    half = n // 2
    idx = np.arange(n)
    return np.where(idx < half, idx + half, idx - half)


def _random_sims(rng, n):
    z = l2_normalize_rows(rng.normal(size=(n, 6)))
    return cosine_sim_matrix(z)


class TestThresholdMask:
    def test_threshold_above_range_is_empty(self):
        sims = _random_sims(np.random.default_rng(0), 8)
        m = threshold_mask(sims, 1.0, _pairing(8))
        assert not m.membership.any()

    def test_threshold_below_range_is_full(self):
        sims = _random_sims(np.random.default_rng(1), 8)
        m = threshold_mask(sims, -1.0, _pairing(8))
        assert m.membership.sum() == 8 * 6  # all but self and positive

    def test_positive_excluded_even_above_threshold(self):
        sims = np.array([
            [1.0, 0.92, 0.40, 0.95],
            [0.92, 1.0, 0.1, 0.2],
            [0.40, 0.1, 1.0, 0.3],
            [0.95, 0.2, 0.3, 1.0],
        ])
        pos = np.array([3, 2, 1, 0])
        m = threshold_mask(sims, 0.9, pos)
        assert list(np.nonzero(m.membership[0])[0]) == [1]

    def test_strict_inequality(self):
        sims = np.full((4, 4), 0.5)
        np.fill_diagonal(sims, 1.0)
        m = threshold_mask(sims, 0.5, _pairing(4))
        assert not m.membership.any()

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(4)
        sims = _random_sims(rng, 12)
        pos = _pairing(12)
        for _ in range(20):
            e1, e2 = sorted(rng.uniform(-1, 1, size=2))
            m1 = threshold_mask(sims, e1, pos).membership
            m2 = threshold_mask(sims, e2, pos).membership
            assert not (m2 & ~m1).any()


class TestSupervisedMask:
    def test_single_superclass_full(self):
        m = supervised_mask([0, 0, 0, 0], _pairing(4))
        assert m.membership.sum() == 4 * 2

    def test_all_distinct_empty(self):
        m = supervised_mask([0, 1, 2, 3], _pairing(4))
        assert not m.membership.any()

    def test_paired_views_share_source_label(self):
        # two samples of superclass A, two of B; rows = both views
        labels = np.array([0, 0, 1, 1])
        pos = _pairing(4)
        m = supervised_mask(labels, pos)
        assert list(np.nonzero(m.membership[0])[0]) == [1]
        assert list(np.nonzero(m.membership[2])[0]) == [3]

    def test_symmetry_across_same_superclass(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=16)
        m = supervised_mask(labels, _pairing(16)).membership
        for i in range(16):
            for a in range(16):
                if m[i, a]:
                    # reverse membership unless blocked by the pairing
                    assert m[a, i] or _pairing(16)[a] == i

    def test_missing_labels(self):
        with pytest.raises(MissingLabels):
            supervised_mask(None, _pairing(4))


class TestWholeBatchMask:
    @pytest.mark.parametrize("n,expected", [(4, 2), (2, 0), (6, 4)])
    def test_sizes(self, n, expected):
        m = whole_batch_mask(n, _pairing(n))
        assert (m.membership.sum(axis=1) == expected).all()


class TestNoSelfNoPositive:
    def test_every_source(self):
        rng = np.random.default_rng(2)
        n = 10
        pos = _pairing(n)
        sims = _random_sims(rng, n)
        labels = rng.integers(0, 2, size=n)
        masks = [threshold_mask(sims, -0.5, pos),
                 supervised_mask(labels, pos),
                 whole_batch_mask(n, pos)]
        for m in masks:
            assert not m.membership[np.arange(n), np.arange(n)].any()
            assert not m.membership[np.arange(n), pos].any()


class TestMaskQuality:
    def test_perfect_estimate(self):
        labels = np.array([0, 0, 1, 0, 0, 1])
        pos = _pairing(6)
        est = supervised_mask(labels, pos)
        q = mask_quality(est, labels)
        assert q.precision == 1.0 and q.recall == 1.0

    def test_vacuous_precision(self):
        labels = np.array([0, 0, 0, 0])
        pos = _pairing(4)
        sims = np.zeros((4, 4))
        est = threshold_mask(sims, 1.0, pos)
        q = mask_quality(est, labels)
        assert q.precision == 1.0
        assert q.recall == 0.0
        assert q.mean_mask_size == 0.0

    def test_counting(self):
        # rows 0..2 share a superclass, truth pairs: (0,2),(1,2),(2,0),(2,1)
        labels = np.array([0, 0, 0, 1])
        pos = np.array([1, 0, 3, 2])
        est = np.zeros((4, 4), dtype=bool)
        est[0, 2] = True                  # TP
        est[2, 0] = True                  # TP
        est[0, 3] = True                  # FP (different superclass)
        mask = HierarchyMask(est, pos)
        q = mask_quality(mask, labels)
        assert q.precision == pytest.approx(2 / 3)
        assert q.recall == pytest.approx(2 / 4)
        assert q.mean_mask_size == pytest.approx(3 / 4)


@st.composite
def masks_and_labels(draw):
    """Any membership (self and positive included) of 2b rows, and labels."""
    n = 2 * draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return HierarchyMask(np.array(bits).reshape(n, n), _pairing(n)), np.array(labels)


class TestCountsMatchTheElementwiseFormulas:
    """The bookkeeping counts give the bits of the elementwise forms they
    replace: a row-sum mean, complement ANDs, and 1 - eye with a scatter."""

    @settings(max_examples=80, deadline=None)
    @given(masks_and_labels())
    def test_mean_size_and_quality(self, case):
        mask, labels = case
        est = mask.membership
        truth = supervised_mask(labels, mask.positive_index).membership
        tp = int(np.count_nonzero(est & truth))
        fp = int(np.count_nonzero(est & ~truth))
        fn = int(np.count_nonzero(~est & truth))
        want = (tp / (tp + fp) if tp + fp else 1.0, tp / (tp + fn) if tp + fn else 1.0,
                float(est.sum(axis=1).mean()))
        q = mask_quality(mask, labels)
        got = (q.precision, q.recall, q.mean_mask_size)
        assert got == want and all(type(v) is float for v in got)
        assert mask.mean_size == want[2]

    @settings(max_examples=40, deadline=None)
    @given(masks_and_labels())
    def test_hex_graph_non_member_mask(self, case):
        mask, _ = case
        n = mask.membership.shape[0]
        t = Tape()
        z = t.input(l2_normalize_rows(np.random.default_rng(n).normal(size=(n, 3))))
        build_hex_graph(t, z, mask, 0.5)
        forward(t)
        want = 1.0 - np.eye(n)
        want[mask.membership] = 0.0
        (node,) = [node for node in t.nodes if node.name == "hex_loss"]
        unit = node.aux.z    # the kernel's normalized rows of z
        masked_exp = np.exp((unit @ unit.T) * (1.0 / 0.5)) * want
        assert node.aux._expl.tobytes() == masked_exp.tobytes()
