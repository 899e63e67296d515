import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexreg.autodiff import Tape, forward
from hexreg.errors import BadConfig, MissingLabels
from hexreg.hierarchy import (mask_quality, paired_positive_index, supervised_mask,
                              threshold_mask, whole_batch_mask)
from hexreg.linalg import cosine_sim_matrix, l2_normalize_rows
from hexreg.losses import build_hex_graph


def _random_sims(rng, n):
    z = l2_normalize_rows(rng.normal(size=(n, 6)))
    return cosine_sim_matrix(z)


class TestThresholdMask:
    def test_threshold_above_range_is_empty(self):
        sims = _random_sims(np.random.default_rng(0), 8)
        assert not threshold_mask(sims, 1.0).any()

    def test_threshold_below_range_is_full(self):
        sims = _random_sims(np.random.default_rng(1), 8)
        assert threshold_mask(sims, -1.0).sum() == 8 * 6  # all but self and positive

    def test_positive_excluded_even_above_threshold(self):
        # Row 0's positive in the layout is row 2, at 0.95; only row 1,
        # at 0.92, is a member.
        sims = np.array([
            [1.0, 0.92, 0.95, 0.40],
            [0.92, 1.0, 0.2, 0.1],
            [0.95, 0.2, 1.0, 0.3],
            [0.40, 0.1, 0.3, 1.0],
        ])
        m = threshold_mask(sims, 0.9)
        assert list(np.nonzero(m[0])[0]) == [1]

    def test_strict_inequality(self):
        sims = np.full((4, 4), 0.5)
        np.fill_diagonal(sims, 1.0)
        assert not threshold_mask(sims, 0.5).any()

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(4)
        sims = _random_sims(rng, 12)
        for _ in range(20):
            e1, e2 = sorted(rng.uniform(-1, 1, size=2))
            m1 = threshold_mask(sims, e1)
            m2 = threshold_mask(sims, e2)
            assert not (m2 & ~m1).any()


class TestSupervisedMask:
    def test_single_superclass_full(self):
        assert supervised_mask([0, 0, 0, 0]).sum() == 4 * 2

    def test_all_distinct_empty(self):
        assert not supervised_mask([0, 1, 2, 3]).any()

    def test_paired_views_share_source_label(self):
        # two samples of superclass A, two of B; rows = both views
        m = supervised_mask(np.array([0, 0, 1, 1]))
        assert list(np.nonzero(m[0])[0]) == [1]
        assert list(np.nonzero(m[2])[0]) == [3]

    def test_symmetry_across_same_superclass(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=16)
        m = supervised_mask(labels)
        for i in range(16):
            for a in range(16):
                if m[i, a]:
                    # reverse membership unless blocked by the pairing
                    assert m[a, i] or paired_positive_index(16)[a] == i

    def test_missing_labels(self):
        with pytest.raises(MissingLabels):
            supervised_mask(None)


class TestWholeBatchMask:
    @pytest.mark.parametrize("n,expected", [(4, 2), (2, 0), (6, 4)])
    def test_sizes(self, n, expected):
        assert (whole_batch_mask(n).sum(axis=1) == expected).all()


class TestNoSelfNoPositive:
    def test_every_source(self):
        rng = np.random.default_rng(2)
        n = 10
        pos = np.r_[5:10, 0:5]
        sims = _random_sims(rng, n)
        labels = rng.integers(0, 2, size=n)
        masks = [threshold_mask(sims, -0.5), supervised_mask(labels), whole_batch_mask(n)]
        assert (paired_positive_index(n) == pos).all()
        for m in masks:
            assert not m[np.arange(n), np.arange(n)].any()
            assert not m[np.arange(n), pos].any()


class TestOddRowCount:
    @pytest.mark.parametrize("build", [
        paired_positive_index, whole_batch_mask,
        lambda n: threshold_mask(np.zeros((n, n)), 0.5),
        lambda n: supervised_mask(np.zeros(n)),
        lambda n: build_hex_graph(Tape(), None, np.zeros((n, n), dtype=bool), 0.1)])
    def test_raises_bad_config(self, build):
        with pytest.raises(BadConfig, match=r"even row count, got 5$"):
            build(5)


class TestMaskQuality:
    def test_perfect_estimate(self):
        labels = np.array([0, 0, 1, 0, 0, 1])
        q = mask_quality(supervised_mask(labels), labels)
        assert q.precision == 1.0 and q.recall == 1.0

    def test_vacuous_precision(self):
        labels = np.array([0, 0, 0, 0])
        q = mask_quality(threshold_mask(np.zeros((4, 4)), 1.0), labels)
        assert q.precision == 1.0
        assert q.recall == 0.0
        assert q.mean_mask_size == 0.0

    def test_counting(self):
        # rows 0..2 share a superclass and the layout pairs 0-2 and 1-3, so
        # the truth pairs are (0,1),(1,0),(1,2),(2,1)
        labels = np.array([0, 0, 0, 1])
        est = np.zeros((4, 4), dtype=bool)
        est[0, 1] = True                  # TP
        est[1, 0] = True                  # TP
        est[0, 3] = True                  # FP (different superclass)
        q = mask_quality(est, labels)
        assert q.precision == pytest.approx(2 / 3)
        assert q.recall == pytest.approx(2 / 4)
        assert q.mean_mask_size == pytest.approx(3 / 4)


@st.composite
def masks_and_labels(draw):
    """Any membership (self and positive included) of 2b rows, and labels."""
    n = 2 * draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return np.array(bits).reshape(n, n), np.array(labels)


class TestCountsMatchTheElementwiseFormulas:
    """The bookkeeping counts give the bits of the elementwise forms they
    replace: a row-sum mean, complement ANDs, and 1 - eye with a scatter."""

    @settings(max_examples=80, deadline=None)
    @given(masks_and_labels())
    def test_mean_size_and_quality(self, case):
        est, labels = case
        truth = supervised_mask(labels)
        tp = int(np.count_nonzero(est & truth))
        fp = int(np.count_nonzero(est & ~truth))
        fn = int(np.count_nonzero(~est & truth))
        want = (tp / (tp + fp) if tp + fp else 1.0, tp / (tp + fn) if tp + fn else 1.0,
                float(est.sum(axis=1).mean()))
        q = mask_quality(est, labels)
        got = (q.precision, q.recall, q.mean_mask_size)
        assert got == want and all(type(v) is float for v in got)

    @settings(max_examples=40, deadline=None)
    @given(masks_and_labels())
    def test_hex_graph_non_member_mask(self, case):
        member, _ = case
        n = member.shape[0]
        t = Tape()
        z = t.input(l2_normalize_rows(np.random.default_rng(n).normal(size=(n, 3))))
        k = build_hex_graph(t, z, member, 0.5)
        forward(t)
        want = 1.0 - np.eye(n)
        want[member] = 0.0
        masked_exp = np.exp((k.z @ k.z.T) * (1.0 / 0.5)) * want   # k.z: z's unit rows
        assert k._expl.tobytes() == masked_exp.tobytes()
