import tracemalloc
import warnings

import numpy as np
import pytest

from hexreg.data import (GenParams, HierarchicalDataset, augment_batch, generate,
                         load_csv, save_csv)
from hexreg.errors import BadConfig, SchemaError
from hexreg.linalg import cosine_sim_matrix, l2_normalize_rows
from hexreg.rng import Rng, box_muller, child_keys, seed_keys, uniform_rows

M64 = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The SplitMix64 finalizer of the recipe in hexreg.rng, on Python ints."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & M64
    return z ^ (z >> 31)


def oracle_child(key: int, label: int) -> int:
    return mix64(((key ^ 0xD6E8FEB86659FD93) + (label + 1) * PHI) & M64)


def oracle_uniforms(key: int, m: int, counter: int = 0) -> list:
    return [(mix64((key + (i + 1) * PHI) & M64) >> 11) * 2.0 ** -53
            for i in range(counter, counter + m)]


def generate_oracle(p: GenParams) -> HierarchicalDataset:
    """generate as one stream per sample, drawn one sample at a time."""
    root = Rng.from_seed(p.seed)
    sup_dom, cls_dom, smp_dom = root.child(0), root.child(1), root.child(2)

    def gauss(stream):
        return box_muller(stream.uniform_array(2 * p.input_dim))

    rows, labels = [], []
    for s in range(p.n_super):
        mu_super = p.sigma_super * gauss(sup_dom.child(s))
        for c_local in range(p.classes_per_super):
            c = s * p.classes_per_super + c_local
            mu_class = mu_super + p.sigma_class * gauss(cls_dom.child(c))
            cls_samples = smp_dom.child(c)
            for k in range(p.samples_per_class):
                rows.append(mu_class + p.sigma_sample * gauss(cls_samples.child(k)))
                labels.append(c)
    cls = np.array(labels, dtype=np.int64)
    return HierarchicalDataset(np.array(rows), cls, cls // p.classes_per_super)


class TestGenParams:
    def test_sigma_ordering_violation_names_inequality(self):
        with pytest.raises(BadConfig, match=r"^data\.sigma_class must be <= data\.sigma_super "
                                            r"\(0\.5\), got 1\.0$"):
            GenParams(sigma_super=0.5, sigma_class=1.0, sigma_sample=0.1)
        with pytest.raises(BadConfig, match=r"^data\.sigma_sample must be <= data\.sigma_class "
                                            r"\(0\.5\), got 1\.0$"):
            GenParams(sigma_super=2.0, sigma_class=0.5, sigma_sample=1.0)
        with pytest.raises(BadConfig, match=r"^data\.sigma_sample must be > 0, got 0\.0$"):
            GenParams(sigma_sample=0.0)

    @pytest.mark.parametrize("field", ["sigma_super", "sigma_class", "sigma_sample"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                       True, "3", None])
    def test_non_finite_sigma_names_the_field(self, field, value):
        with pytest.raises(BadConfig, match=rf"^data\.{field} must be a finite number"):
            GenParams(**{field: value})

    def test_counts_positive(self):
        with pytest.raises(BadConfig, match=r"^data\.n_super must be >= 1, got 0$"):
            GenParams(n_super=0)

    @pytest.mark.parametrize("field", ["n_super", "classes_per_super",
                                       "samples_per_class", "input_dim", "seed"])
    @pytest.mark.parametrize("value", [10.0, 10.5, True, "4", None])
    def test_non_integer_values_name_the_field(self, field, value):
        with pytest.raises(BadConfig, match=rf"^data\.{field} must be an integer"):
            GenParams(**{field: value})


class TestGenerate:
    def test_deterministic(self):
        p = GenParams(n_super=2, classes_per_super=2, samples_per_class=5,
                      input_dim=8, seed=3)
        a = generate(p)
        b = generate(p)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.class_labels, b.class_labels)

    def test_label_structure(self):
        p = GenParams(n_super=3, classes_per_super=4, samples_per_class=7,
                      input_dim=5, seed=1)
        ds = generate(p)
        assert ds.n_samples == 3 * 4 * 7
        np.testing.assert_array_equal(ds.superclass_labels,
                                      ds.class_labels // 4)
        counts = np.bincount(ds.class_labels)
        assert (counts == 7).all()

    def test_tiny_sample_sigma_collapses_to_class_mean(self):
        p = GenParams(n_super=2, classes_per_super=2, samples_per_class=6,
                      input_dim=4, sigma_super=2.0, sigma_class=1.0,
                      sigma_sample=1e-15, seed=2)
        ds = generate(p)
        for c in range(4):
            rows = ds.x[ds.class_labels == c]
            assert np.abs(rows - rows[0]).max() < 1e-12

    def test_hierarchical_separation(self):
        p = GenParams(n_super=4, classes_per_super=4, samples_per_class=50,
                      input_dim=32, sigma_super=3.0, sigma_class=1.0,
                      sigma_sample=0.3, seed=11)
        ds = generate(p)
        z = l2_normalize_rows(ds.x)
        sims = cosine_sim_matrix(z)
        same = ds.superclass_labels[:, None] == ds.superclass_labels[None, :]
        off = ~np.eye(ds.n_samples, dtype=bool)
        assert sims[same & off].mean() > sims[~same].mean()

    @pytest.mark.parametrize("shape", [
        dict(n_super=2, classes_per_super=2, samples_per_class=5, input_dim=8, seed=3),
        dict(n_super=3, classes_per_super=5, samples_per_class=7, input_dim=1, seed=0),
        dict(n_super=1, classes_per_super=3, samples_per_class=1, input_dim=9, seed=M64),
        dict(n_super=5, classes_per_super=1, samples_per_class=11, input_dim=3, seed=-5),
    ])
    def test_bitwise_equal_to_per_sample_oracle(self, shape):
        p = GenParams(**shape)
        got, want = generate(p), generate_oracle(p)
        assert got.x.tobytes() == want.x.tobytes()
        assert np.array_equal(got.class_labels, want.class_labels)
        assert np.array_equal(got.superclass_labels, want.superclass_labels)
        assert got.class_labels.dtype == got.superclass_labels.dtype == np.int64

    def test_memory_stays_bounded_by_a_class(self):
        p = GenParams(n_super=16, classes_per_super=4, samples_per_class=250,
                      input_dim=32, seed=5)
        tracemalloc.start()
        try:
            ds = generate(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n_samples == 16000
        assert peak < 2 * ds.x.nbytes

    def test_adding_samples_preserves_earlier_draws(self):
        small = generate(GenParams(n_super=2, classes_per_super=2,
                                   samples_per_class=3, input_dim=6, seed=9))
        large = generate(GenParams(n_super=2, classes_per_super=2,
                                   samples_per_class=5, input_dim=6, seed=9))
        for c in range(4):
            a = small.x[small.class_labels == c]
            b = large.x[large.class_labels == c][:3]
            assert np.array_equal(a, b)


def augment(x_row, noise_sigma, mask_prob, seed):
    """One row through augment_batch, the one augmentation path."""
    return augment_batch(np.atleast_2d(x_row), noise_sigma, mask_prob, [seed])[0]


class TestAugment:
    def test_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(augment(x, 0.0, 0.0, seed=1), x)

    def test_deterministic(self):
        x = np.arange(8.0)
        a = augment(x, 0.5, 0.2, seed=42)
        b = augment(x, 0.5, 0.2, seed=42)
        assert np.array_equal(a, b)

    def test_heavy_masking_zero_fraction(self):
        d = 400
        x = np.ones(d)
        kept = []
        for seed in range(30):
            out = augment(x, 0.0, 0.99, seed=seed)
            kept.append(np.count_nonzero(out) / d)
        # binomial(400, 0.01): mean 0.01, std ~0.005 per trial
        assert np.mean(kept) == pytest.approx(0.01, abs=0.005)

    def test_batch_path_matches_row_path(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 9))
        seeds = [100 + i for i in range(7)]
        batch = augment_batch(x, 0.3, 0.25, seeds)
        rows = np.vstack([augment(x[i], 0.3, 0.25, seeds[i]) for i in range(7)])
        assert np.array_equal(batch, rows)

    def test_noise_then_mask_order(self):
        # masked coordinates are exactly zero even with noise applied
        x = np.full(200, 5.0)
        out = augment(x, 1.0, 0.5, seed=3)
        zeros = out == 0.0
        assert zeros.sum() > 50
        assert np.abs(out[~zeros] - 5.0).max() < 6.0

    def test_bad_params(self):
        # noise_sigma and mask_prob are the config's to check
        # (test_trainer.py's error table); the seeds are the caller's.
        with pytest.raises(BadConfig, match="one seed per row"):
            augment_batch(np.ones((3, 2)), 0.1, 0.0, [1, 2])


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        ds = generate(GenParams(n_super=2, classes_per_super=2,
                                samples_per_class=4, input_dim=5, seed=5))
        path = str(tmp_path / "ds.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(ds.x, back.x)
        assert np.array_equal(ds.class_labels, back.class_labels)
        assert np.array_equal(ds.superclass_labels, back.superclass_labels)

    def test_missing_superclass_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,class\n0.1,0.2,0\n")
        with pytest.raises(SchemaError):
            load_csv(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,class,superclass\n0.1,0.2,0,0\n0.1,0,0\n")
        with pytest.raises(SchemaError):
            load_csv(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,class,superclass\npotato,0,0\n")
        with pytest.raises(SchemaError):
            load_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_cell_names_the_row(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,class,superclass\n0.1,0.2,0,0\n0.3,{cell},1,0\n")
        with pytest.raises(SchemaError, match=f"line 3: feature f1 must be finite, "
                                              f"got '{cell}'"):
            load_csv(str(path))

    def test_feature_columns_must_be_ordered(self, tmp_path):
        path = tmp_path / "wrong.csv"
        path.write_text("f1,f0,class,superclass\n0.1,0.2,0,0\n")
        with pytest.raises(SchemaError):
            load_csv(str(path))

    def test_hand_written_external_fixture(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("f0,f1,f2,class,superclass\n"
                        "1.0,0.0,0.0,0,0\n"
                        "0.0,1.0,0.0,1,0\n"
                        "0.0,0.0,1.0,2,1\n")
        ds = load_csv(str(path))
        assert ds.n_samples == 3 and ds.dim == 3
        np.testing.assert_array_equal(ds.superclass_labels, [0, 0, 1])

    @pytest.mark.parametrize("samples_per_class", [100, 400])
    def test_load_peaks_below_three_times_the_file_size(self, tmp_path,
                                                        samples_per_class):
        # 1600 and 6400 rows of 32 features: the text lines and one split
        # row are held at a time, never every row's cells.
        ds = generate(GenParams(samples_per_class=samples_per_class, seed=3))
        path = tmp_path / "ds.csv"
        save_csv(ds, str(path))
        tracemalloc.start()
        try:
            back = load_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.x.tobytes() == ds.x.tobytes()
        assert peak <= 3 * path.stat().st_size

    def test_line_endings_and_no_quoting(self, tmp_path):
        ds = generate(GenParams(n_super=1, classes_per_super=1,
                                samples_per_class=2, input_dim=2, seed=6))
        path = tmp_path / "lf.csv"
        save_csv(ds, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw and b'"' not in raw


class TestRngContract:
    def test_child_streams_independent_of_parent_draws(self):
        a = Rng.from_seed(5)
        c1 = a.child(3)
        a.uniform()
        a.uniform()
        c2 = a.child(3)
        assert c1.key == c2.key

    def test_gauss_counter_layout(self):
        r = Rng.from_seed(8)
        pair = r.uniform_array(2)
        expect = np.sqrt(-2.0 * np.log(1.0 - pair[0])) * np.cos(2.0 * np.pi * pair[1])
        r2 = Rng.from_seed(8)
        assert box_muller(r2.uniform_array(2))[0] == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("key", [0, 1, 0x0123456789ABCDEF, M64])
    def test_row_functions_follow_the_recipe(self, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Rng.from_seed(key).key == int(seed_keys([key])[0]) == mix64((key + PHI) & M64)
            keys = child_keys(key, 6)
            assert keys.dtype == np.uint64
            assert [int(k) for k in child_keys(key, 3, first=3)] == keys[3:].tolist()
            all_keys = keys.tolist() + [0, M64]
            rows = uniform_rows(np.array(all_keys, dtype=np.uint64), 7)
            for i, k in enumerate(all_keys):
                if i < keys.size:
                    assert k == Rng(key).child(i).key == oracle_child(key, i)
                assert rows[i].tolist() == Rng(k).uniform_array(7).tolist()
                assert rows[i].tolist() == oracle_uniforms(k, 7)
            stream = Rng(key, 1 << 40)
            assert stream.uniform_array(5).tolist() == oracle_uniforms(key, 5, 1 << 40)
            assert stream.counter == (1 << 40) + 5

    @pytest.mark.parametrize("seed,epoch,n", [(1, 0, 25), (2, 7, 25), (3, 19, 200)])
    def test_one_child_keys_call_gives_each_child_key(self, seed, epoch, n):
        # train_epoch draws every step's augmentation key in one call.
        dom = Rng.from_seed(seed).child(1).child(epoch).child(1)
        keys = child_keys(dom.key, n)
        assert [int(k) for k in keys] == [dom.child(s).key for s in range(n)]

    @pytest.mark.parametrize("n,k", [
        *(pytest.param(n, None, id=str(n)) for n in (0, 1, 2, 3, 17, 1600)),
        *(pytest.param(n, k, id=f"{n}-k{k}")
          for n in (2, 3, 17, 1600) for k in sorted({1, 5, n - 1, n}))])
    def test_shuffle_matches_scalar_fisher_yates(self, n, k):
        # shuffle(items, k) is the loop stopped after k of its n - 1 swaps.
        swaps = max(n - 1, 0) if k is None else min(k, n - 1)
        for seed in (0, 1, 7, 2024):
            for start in (0, 3, 1 << 40):
                stream = Rng(Rng.from_seed(seed).key, start)
                expect = list(range(n))
                for i in range(n - 1, n - 1 - swaps, -1):
                    j = stream.randbelow(i + 1)
                    expect[i], expect[j] = expect[j], expect[i]
                rng = Rng(Rng.from_seed(seed).key, start)
                got = list(range(n))
                rng.shuffle(got, k)
                assert got == expect
                assert rng.counter == stream.counter == start + swaps
