import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hexreg import trainer
from hexreg.diagnostics import (_BLOCK, _draw, _pool_summary, _top_k,
                                distribution_stats, holdout_split,
                                knn_accuracy, rankme, subset_rank_curve)
from hexreg.errors import (BadConfig, EmptyTrainSet, InsufficientSamples,
                           ZeroMatrix)
from hexreg.linalg import _safe_unit_rows, l2_normalize_rows
from hexreg.rng import Rng


def skew_oracle(values):
    d = np.asarray(values, dtype=np.float64) - np.mean(values)
    return float((d ** 3).mean() / ((d ** 2).mean()) ** 1.5)


def cosine_oracle(query, train):
    def unit(m):
        m = np.asarray(m, dtype=np.float64)
        norms = np.sqrt((m * m).sum(axis=1))
        return m / np.where(norms > 1e-12, norms, 1.0)[:, None]
    return unit(query) @ unit(train).T


def knn_oracle(train, train_labels, query, query_labels, k):
    """Full stable sort of every query's similarities, then the documented
    vote: most neighbours, then largest summed similarity, then lowest label."""
    sims = cosine_oracle(query, train)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    hits = 0
    for qi, neigh in enumerate(order):
        votes = {}
        for t in neigh:
            cnt, tot = votes.get(train_labels[t], (0, 0.0))
            votes[train_labels[t]] = (cnt + 1, tot + sims[qi, t])
        winner = min(votes.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))[0]
        hits += winner == query_labels[qi]
    return hits / len(query_labels)


def pools_oracle(z, labels):
    """(mean, skew) of the same-superclass and the other off-diagonal
    entries of z @ z.T, from boolean-indexed pools."""
    sims = np.clip(z @ z.T, -1.0, 1.0)
    eligible = ~np.eye(len(labels), dtype=bool)
    same = labels[:, None] == labels[None, :]
    out = []
    for pool in (sims[eligible & same], sims[eligible & ~same]):
        if not pool.size:
            out.append((None, None))
        elif pool.size < 3 or pool.var() <= 1e-15:
            out.append((pool.mean(), None))
        else:
            out.append((pool.mean(), skew_oracle(pool)))
    return out


def rows_with_gram(gram):
    """Rows whose pairwise dot products are gram's entries."""
    return np.linalg.cholesky(np.asarray(gram, dtype=np.float64))


def rankme_oracle(m, eps=1e-7):
    """Independent route: LAPACK spectrum + the entropy formula."""
    sv = np.sqrt(np.maximum(np.linalg.eigvalsh(m.T @ m), 0.0))[::-1]
    p = sv / sv.sum() + eps
    return float(np.exp(-(p * np.log(p)).sum()))


class TestRankme:
    def test_uniform_spectrum(self):
        m = np.zeros((8, 4))
        m[:4, :4] = np.eye(4) * 2.5
        val = rankme(m)
        assert 3.95 <= val <= 4.05

    def test_rank_one(self):
        m = np.outer(np.arange(1.0, 6.0), np.ones(4))
        assert 0.99 <= rankme(m) <= 1.05

    def test_seeded_vs_independent_implementation(self):
        rng = np.random.default_rng(50)
        m = rng.normal(size=(50, 8))
        assert rankme(m) == pytest.approx(rankme_oracle(m), abs=1e-6)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            rankme(np.zeros((4, 4)))

    def test_invariances(self):
        rng = np.random.default_rng(51)
        m = rng.normal(size=(20, 6))
        base = rankme(m)
        perm = rng.permutation(20)
        assert rankme(m[perm]) == pytest.approx(base, abs=1e-6)
        assert rankme(3.7 * m) == pytest.approx(base, abs=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(52)
        for shape in [(10, 3), (5, 9), (12, 12)]:
            val = rankme(rng.normal(size=shape))
            assert 1.0 <= val <= min(shape) + 0.05


class TestSubsetRankCurve:
    def _block_data(self):
        # each superclass occupies its own orthogonal coordinate block
        rng = np.random.default_rng(53)
        n_per, dim = 60, 12
        x = np.zeros((3 * n_per, dim))
        labels = np.repeat([0, 1, 2], n_per)
        for s in range(3):
            x[labels == s, 4 * s:4 * (s + 1)] = rng.normal(size=(n_per, 4))
        return x, labels

    def test_block_structure_lowers_superclass_rank(self):
        x, labels = self._block_data()
        pt = subset_rank_curve(x, labels, n_subsets=6, subset_size=30, seed=1)
        assert pt["rankme_super"] < pt["rankme_random"]

    def test_identical_rows(self):
        x = np.tile(np.arange(1.0, 5.0), (40, 1))
        labels = np.repeat([0, 1], 20)
        pt = subset_rank_curve(x, labels, n_subsets=4, subset_size=10, seed=2)
        assert pt["rankme_super"] == pytest.approx(1.0, abs=0.01)
        assert pt["rankme_random"] == pytest.approx(1.0, abs=0.01)

    def test_deterministic_under_seed(self):
        x, labels = self._block_data()
        a = subset_rank_curve(x, labels, 5, 25, seed=7)
        b = subset_rank_curve(x, labels, 5, 25, seed=7)
        assert a == b

    def test_insufficient_samples(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        labels = np.repeat([0, 1], 10)
        with pytest.raises(InsufficientSamples,
                           match="smallest superclass has 10 < 15 samples$"):
            subset_rank_curve(x, labels, 3, 15, seed=0)


def summary(values):
    """_pool_summary of a pool of values, given its count, sum and central
    sums of d^2 and d^3."""
    v = np.asarray(values, dtype=np.float64)
    total = v.sum()
    d = v - total / v.size
    return _pool_summary(v.size, total, (d * d).sum(), (d * d * d).sum())


def skewness(values):
    return summary(values)[1]


class TestDraw:
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_matches_a_shuffle_of_the_numpy_items(self, seed):
        rng = np.random.default_rng(seed)
        pools = [np.arange(1), np.arange(40), rng.permutation(1600)[:400],
                 np.nonzero(rng.integers(0, 4, size=1600) == 2)[0]]
        for j, pool in enumerate(pools):
            items = list(pool)
            Rng.from_seed(seed).child(j).shuffle(items)
            size = min(100, pool.size)
            got = _draw(Rng.from_seed(seed).child(j), pool, size)
            assert got.dtype == np.intp
            assert got.tolist() == [int(i) for i in items[len(items) - size:]]

    @pytest.mark.parametrize("n,size", [(2, 1), (40, 5), (400, 100), (1600, 100)])
    def test_advances_its_stream_by_size_uniforms(self, n, size):
        stream = Rng(Rng.from_seed(n).key, 3)
        _draw(stream, np.arange(n), size)
        assert stream.counter == 3 + size


class TestSkewness:
    def test_symmetric_sample(self):
        assert skewness([-1.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_moments(self):
        assert skewness([0.0, 0.0, 3.0]) == pytest.approx(2.0 / 2.0 ** 1.5, abs=1e-12)

    def test_constant(self):
        assert summary(np.ones(3)) == (1.0, None)

    def test_too_few(self):
        assert summary([1.0, 2.0]) == (1.5, None)

    def test_empty(self):
        assert _pool_summary(0, 0.0, 0.0, 0.0) == (None, None)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(54)
        v = rng.exponential(size=300)
        base = skewness(v)
        assert skewness(v + 17.3) == pytest.approx(base, abs=1e-10)
        assert skewness(v * 41.0) == pytest.approx(base, abs=1e-10)

    def test_matches_pow_oracle(self):
        rng = np.random.default_rng(58)
        for v in (rng.exponential(size=5000), rng.normal(size=7),
                  np.tanh(rng.normal(size=20000)) - 0.3, rng.gamma(0.5, size=999)):
            assert skewness(v) == pytest.approx(skew_oracle(v), rel=1e-12)


class TestDistributionStats:
    def test_all_same_superclass(self):
        gram = np.full((4, 4), 0.5)
        np.fill_diagonal(gram, 1.0)
        st = distribution_stats(rows_with_gram(gram), [0, 0, 0, 0])
        assert st["mean_regular"] is None
        assert st["mean_super"] == pytest.approx(0.5)

    def test_block_structured_ratio(self):
        labels = np.repeat([0, 1], 3)
        same = labels[:, None] == labels[None, :]
        gram = np.where(same, 0.9, 0.1)
        np.fill_diagonal(gram, 1.0)
        st = distribution_stats(rows_with_gram(gram), labels)
        assert st["mean_super"] == pytest.approx(0.9)
        assert st["mean_regular"] == pytest.approx(0.1)
        assert st["skew_super"] is None       # constant pools have no skew
        assert st["skew_regular"] is None

    def test_symmetric_pools_zero_skew(self):
        labels = np.repeat([0, 1], 4)
        gram = np.eye(8)
        upper = np.triu_indices(4, k=1)
        for lo in (0, 4):
            block = gram[lo:lo + 4, lo:lo + 4]
            block[upper] = [-0.2, -0.15, -0.1, 0.1, 0.15, 0.2]
            block.T[upper] = block[upper]
        st = distribution_stats(rows_with_gram(gram), labels)
        assert st["skew_super"] == pytest.approx(0.0, abs=1e-12)

    def test_skews_match_pow_oracle(self):
        rng = np.random.default_rng(59)
        labels = np.repeat([0, 1, 2], 40)
        centers = rng.normal(size=(3, 6))
        z = l2_normalize_rows(2.0 * centers[labels] + rng.normal(size=(120, 6)))
        sims = z @ z.T
        st = distribution_stats(z, labels)
        eligible = ~np.eye(120, dtype=bool)
        same = labels[:, None] == labels[None, :]
        assert st["mean_super"] == pytest.approx(sims[eligible & same].mean(),
                                              rel=1e-12)
        assert st["skew_super"] == pytest.approx(skew_oracle(sims[eligible & same]),
                                              rel=1e-12)
        assert st["skew_regular"] == pytest.approx(skew_oracle(sims[eligible & ~same]),
                                                rel=1e-12)

    @pytest.mark.parametrize("sizes", [
        (2 * _BLOCK + 37, 3 * _BLOCK - 5),   # N not a multiple of the block
        (9, 13, 20),                         # N below one block
        (5, 2 * _BLOCK, 88),                 # a superclass below one block
        (2 * _BLOCK + 1,),                   # one superclass: no regular pool
    ])
    def test_blockwise_pools_match_plain_pools(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)) * 7 + 3, sizes))
        centers = rng.normal(size=(labels.max() + 1, 8))
        z = l2_normalize_rows(1.5 * centers[labels] + rng.normal(size=(labels.size, 8)))
        st = distribution_stats(z, labels)
        assert st == distribution_stats(z, labels)
        got = [(st["mean_super"], st["skew_super"]), (st["mean_regular"], st["skew_regular"])]
        for (mean, skew), (mean_o, skew_o) in zip(got, pools_oracle(z, labels)):
            for v, o in ((mean, mean_o), (skew, skew_o)):
                if o is None:
                    assert v is None
                else:
                    assert v == pytest.approx(o, rel=1e-12)

    @pytest.mark.parametrize("dim", [8, 16])
    @pytest.mark.parametrize("std", [1e-1, 1e-2, 1e-3])
    def test_local_collapse_matches_plain_pools(self, dim, std):
        # Each superclass sits within about std of its own center, so its
        # similarities lie within about std^2 of each other: power sums of
        # the raw similarities cancel catastrophically here.
        rng = np.random.default_rng(dim + int(1 / std))
        labels = np.repeat(np.arange(4), 400)
        centers = l2_normalize_rows(rng.normal(size=(4, dim)))
        z = l2_normalize_rows(centers[labels] + std * rng.normal(size=(1600, dim)))
        st = distribution_stats(z, labels)
        got = [(st["mean_super"], st["skew_super"]), (st["mean_regular"], st["skew_regular"])]
        for pair, want in zip(got, pools_oracle(z, labels)):
            assert None not in want
            assert pair == pytest.approx(want, rel=1e-8)

    def test_memory_stays_far_below_one_similarity_matrix(self):
        rng = np.random.default_rng(61)
        n = 4000
        z = l2_normalize_rows(rng.normal(size=(n, 8)))
        labels = rng.integers(0, 4, size=n)
        one_matrix = n * n * 8
        for run in (lambda: distribution_stats(z, labels),
                    lambda: knn_accuracy(z, labels, z[:800], labels[:800], 5)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < one_matrix / 8


def tie_heavy_blocks(rng):
    """Similarity blocks full of exact ties: one-decimal values, duplicated
    columns and a constant row."""
    for q, n in ((1, 1), (3, 7), (20, 60), (130, 300)):
        sims = np.round(rng.uniform(-1.0, 1.0, size=(q, n)), 1)
        sims[:, n // 2:] = sims[:, :n - n // 2]
        sims[q // 2] = 0.3
        yield sims


class TestTopK:
    def test_matches_a_stable_argsort_on_ties(self):
        rng = np.random.default_rng(63)
        for sims in tie_heavy_blocks(rng):
            for k in sorted({1, min(5, sims.shape[1]), sims.shape[1]}):
                want = np.argsort(-sims, axis=1, kind="stable")[:, :k]
                cols, vals = _top_k(sims.copy(), k)
                assert np.array_equal(cols, want)
                assert np.array_equal(vals, np.take_along_axis(sims, want, axis=1))

    def test_overwrites_exactly_the_entries_it_took(self):
        sims = np.round(np.random.default_rng(64).normal(size=(9, 30)), 1)
        work = sims.copy()
        cols, _ = _top_k(work, 5)
        taken = np.zeros(sims.shape, dtype=bool)
        np.put_along_axis(taken, cols, True, axis=1)
        assert np.all(work[taken] == -np.inf)
        assert np.array_equal(work[~taken], sims[~taken])


class TestKnnAccuracy:
    def test_inputs_are_left_byte_equal(self):
        rng = np.random.default_rng(65)
        train = l2_normalize_rows(rng.normal(size=(300, 6)))
        query = np.round(rng.normal(size=(2 * _BLOCK + 5, 6)), 1)
        tl = rng.integers(0, 3, size=300)
        ql = rng.integers(0, 3, size=query.shape[0])
        before = [a.copy() for a in (train, query, tl, ql)]
        knn_accuracy(train, tl, query, ql, k=5)
        for a, b in zip((train, query, tl, ql), before):
            assert a.tobytes() == b.tobytes()

    def test_exact_duplicates(self):
        train = np.eye(4)
        labels = np.array([0, 1, 2, 3])
        acc = knn_accuracy(train, labels, train.copy(), labels, k=1)
        assert acc == 1.0

    def test_k_exceeds_train(self):
        with pytest.raises(BadConfig):
            knn_accuracy(np.eye(3), [0, 1, 2], np.eye(3), [0, 1, 2], k=4)

    def test_empty_train(self):
        # No training row leaves no k to choose: the k refusal meets it.
        with pytest.raises(BadConfig, match=r"^k must lie in \[1, 0\], got 1$"):
            knn_accuracy(np.zeros((0, 3)), [], np.eye(3), [0, 1, 2], k=1)

    def test_chance_level_with_random_labels(self):
        # all-orthogonal representations: every vote ties, deterministic
        # tie-breaks select a label uncorrelated with the query's
        rng = np.random.default_rng(56)
        n_classes = 4
        hits = []
        train = np.eye(8)
        query = np.eye(8)
        for _ in range(1500):
            tl = rng.integers(0, n_classes, size=8)
            ql = rng.integers(0, n_classes, size=8)
            hits.append(knn_accuracy(train, tl, query, ql, k=1))
        assert np.mean(hits) == pytest.approx(1.0 / n_classes, abs=0.05)

    def test_majority_vote_and_similarity_tiebreak(self):
        train = np.array([[1.0, 0.0], [0.99, np.sqrt(1 - 0.99 ** 2)],
                          [0.8, 0.6], [0.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        # k=3 -> two votes for 0, one for 1
        acc = knn_accuracy(train, labels, np.array([[1.0, 0.0]]), [0], k=3)
        assert acc == 1.0

    def test_matches_full_sort_with_boundary_ties(self):
        # one-decimal vectors and duplicated train rows make exact ties at
        # the k-th neighbour common; count them so the case cannot vanish
        rng = np.random.default_rng(60)
        boundary_ties = vote_ties = 0
        for _ in range(60):
            n, q, d = rng.integers(6, 80), rng.integers(1, 30), rng.integers(2, 5)
            train = np.round(rng.normal(size=(n, d)), 1)
            train[n // 2:] = train[:n - n // 2]
            query = np.round(rng.normal(size=(q, d)), 1)
            tl = rng.integers(0, 3, size=n)
            ql = rng.integers(0, 3, size=q)
            for k in (1, 2, 5, n):
                assert knn_accuracy(train, tl, query, ql, k) == \
                    knn_oracle(train, tl, query, ql, k)
            sims = cosine_oracle(query, train)
            top = -np.sort(-sims, axis=1)
            boundary_ties += int((top[:, 4] == top[:, 5]).sum())
            # Queries whose two leading labels tie on votes, so the vote
            # falls to the summed similarity or the label id.
            order = np.argsort(-sims, axis=1, kind="stable")
            for k in (2, 5, n):
                for neigh in order[:, :k]:
                    votes = np.sort(np.bincount(tl[neigh]))
                    vote_ties += int(votes.size > 1 and votes[-1] == votes[-2])
        assert boundary_ties > 0
        assert vote_ties > 0

    @pytest.mark.parametrize("b_label, c_label, expect", [(1, 2, 1.0), (2, 1, 0.0)])
    def test_kept_tied_neighbour_decides_similarity_tiebreak(self, b_label,
                                                              c_label, expect):
        # k=4: three rows above the tie, then rows 3 and 4 tie exactly at
        # cosine 0.4. Keeping row 3 with label 1 ties labels 0 and 1 at two
        # votes each, and the summed similarity (1.35 > 1.1) picks label 1;
        # with label 2 on row 3, label 0 wins on votes.
        def at(c):
            return [c, np.sqrt(1.0 - c * c)]
        train = np.array([at(0.6), at(0.5), at(0.95), at(0.4), at(0.4), at(0.1)])
        labels = np.array([0, 0, 1, b_label, c_label, 2])
        query, ql = np.array([[1.0, 0.0]]), np.array([1])
        assert knn_accuracy(train, labels, query, ql, k=4) == expect
        assert knn_oracle(train, labels, query, ql, k=4) == expect

    def test_queries_spanning_several_blocks_match_full_sort(self):
        rng = np.random.default_rng(62)
        train = np.round(rng.normal(size=(300, 3)), 1)
        query = np.round(rng.normal(size=(2 * _BLOCK + 17, 3)), 1)
        tl = rng.integers(0, 3, size=300)
        ql = rng.integers(0, 3, size=query.shape[0])
        for k in (1, 5):
            assert knn_accuracy(train, tl, query, ql, k) == \
                knn_oracle(train, tl, query, ql, k)

    def test_deterministic(self):
        rng = np.random.default_rng(57)
        train = l2_normalize_rows(rng.normal(size=(30, 5)))
        labels = rng.integers(0, 3, size=30)
        query = l2_normalize_rows(rng.normal(size=(10, 5)))
        ql = rng.integers(0, 3, size=10)
        a = knn_accuracy(train, labels, query, ql, k=5)
        b = knn_accuracy(train, labels, query, ql, k=5)
        assert a == b
        assert 0.0 <= a <= 1.0


class TestHoldoutSplit:
    @pytest.mark.parametrize("n,frac,n_query", [(10, 0.25, 2), (10, 0.35, 4),
                                                (7, 0.01, 1), (40, 0.2, 8)])
    def test_sizes_and_partition(self, n, frac, n_query):
        query, train = holdout_split(n, frac, seed=3)
        assert query.size == n_query and train.size == n - n_query
        assert query.dtype == train.dtype == np.intp
        assert sorted(np.concatenate([query, train]).tolist()) == list(range(n))

    @pytest.mark.parametrize("frac", [-3.0, 0.0, 1.0, 5.0, float("nan")])
    def test_fraction_outside_the_open_unit_interval(self, frac):
        with pytest.raises(BadConfig, match="holdout fraction must lie in"):
            holdout_split(40, frac, seed=3)

    @pytest.mark.parametrize("n,frac", [(40, 0.99), (1, 0.5)])
    def test_split_without_a_training_row(self, n, frac):
        with pytest.raises(EmptyTrainSet, match=f"none of the {n} rows"):
            holdout_split(n, frac, seed=3)

    def test_first_rows_of_the_stream_5_shuffle(self):
        perm = list(range(30))
        Rng.from_seed(9).child(5).shuffle(perm)
        query, train = holdout_split(30, 0.2, seed=9)
        assert query.tolist() == perm[:6] and train.tolist() == perm[6:]


class TestRunDiagnostics:
    @pytest.mark.parametrize("seed", [1, 6])
    def test_desk_row_matches_plain_pools(self, seed):
        # The desk config: 1600 rows x 32 dims, batch 64, MLP 32-64-16-32-8.
        cfg = trainer.TrainConfig.from_dict({
            "data": {"n_super": 4, "classes_per_super": 4,
                     "samples_per_class": 100, "input_dim": 32, "seed": seed},
            "model": {"encoder_hidden": [64], "repr_dim": 16,
                      "proj_hidden": 32, "proj_dim": 8},
            "loss": {"kind": "simclr_hex"},
            "train": {"batch_size": 64, "seed": seed},
            "schedule": {"kind": "adaptive"},
        })
        ds = cfg.load_dataset()
        state = trainer.init_state(cfg, ds.dim)
        for _ in range(3):
            trainer.train_epoch(state, ds)
        row = trainer.run_diagnostics(state, ds, state.epoch)
        r, y = trainer.mlp_forward(state.params, ds.x)
        labels = ds.superclass_labels
        (mean_s, skew_s), (mean_r, skew_r) = pools_oracle(_safe_unit_rows(y), labels)
        assert row["mean_super"] == pytest.approx(mean_s, rel=1e-12)
        assert row["mean_regular"] == pytest.approx(mean_r, rel=1e-12)
        assert row["skew_super"] == pytest.approx(skew_s, rel=1e-12)
        assert row["skew_regular"] == pytest.approx(skew_r, rel=1e-12)
        query, train = holdout_split(ds.n_samples, cfg.train.holdout_fraction,
                                     cfg.train.seed)
        for probe, probe_labels in (("knn_class", ds.class_labels),
                                    ("knn_super", labels)):
            assert row[probe] == knn_oracle(r[train], probe_labels[train], r[query],
                                            probe_labels[query], cfg.train.knn_k)
        # Subset j: the pass's diagnostics stream, its child 0 (superclass)
        # or 1 (all rows), that stream's child j; the superclass is its first
        # randbelow, the subset the last size items of its full shuffle.
        diag = Rng.from_seed(Rng.from_seed(cfg.train.seed).child(4).child(state.epoch).key)
        groups = [np.flatnonzero(labels == s).tolist() for s in np.unique(labels)]
        size = cfg.train.rank_subset_size
        ranks = ([], [])
        for j in range(cfg.train.rank_subsets):
            st = diag.child(0).child(j)
            pools = (list(groups[st.randbelow(len(groups))]), list(range(ds.n_samples)))
            for stream, pool, out in zip((st, diag.child(1).child(j)), pools, ranks):
                stream.shuffle(pool)
                out.append(rankme(r[pool[len(pool) - size:]]))
        assert row["rankme_super"] == float(np.mean(ranks[0]))
        assert row["rankme_random"] == float(np.mean(ranks[1]))
        columns = trainer.METRICS_COLUMNS
        assert list(row) == columns[columns.index("rankme_super"):]


# One desk simclr_hex epoch and a diagnostics pass; prints every cell of
# both rows, floats in hex, and the bytes of every parameter and momentum.
_THREADS_RUN = """
from hexreg import trainer
cfg = trainer.TrainConfig.from_dict({"loss": {"kind": "simclr_hex"}})
ds = cfg.load_dataset()
state = trainer.init_state(cfg, ds.dim)
row = trainer.train_epoch(state, ds)
row.update(trainer.run_diagnostics(state, ds, state.epoch))
print(sorted((k, v.hex() if isinstance(v, float) else v) for k, v in row.items()))
print([a.tobytes().hex() for a in state.params.weights + state.params.biases
       + state.mom_w + state.mom_b])
"""


def test_a_desk_row_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across threads, so a sum taken
    # with one can read other last bits at one thread than at two.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _THREADS_RUN], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
