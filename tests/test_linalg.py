import numpy as np
import pytest

from hexreg.errors import NonFinite
from hexreg.linalg import cosine_sim_matrix, l2_normalize_rows, singular_values


def symmetric_3x3_eigenvalues(a):
    """Closed-form eigenvalues of a symmetric 3x3 matrix via the
    characteristic polynomial (trigonometric form). Independent of the
    SVD route under test."""
    a = np.asarray(a, dtype=np.float64)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(a))[::-1]
    q = np.trace(a) / 3.0
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.sort(np.array([e1, e2, e3]))[::-1]


class TestNormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows([[3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_already_unit(self):
        out = l2_normalize_rows([[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])

    def test_zero_row(self):
        with pytest.raises(NonFinite, match="row 1 has norm"):
            l2_normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(20, 7))
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert np.abs(once - twice).max() <= 1e-12

    def test_direction_preserved(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(10, 4))
        out = l2_normalize_rows(m)
        ratios = m / out
        for i in range(10):
            row = ratios[i][np.isfinite(ratios[i])]
            np.testing.assert_allclose(row, row[0], rtol=1e-12)


class TestCosineSimMatrix:
    def test_orthonormal(self):
        np.testing.assert_array_equal(cosine_sim_matrix(np.eye(3)), np.eye(3))

    def test_duplicates(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(cosine_sim_matrix(z), np.ones((2, 2)))

    def test_45_degrees(self):
        s = np.sqrt(2.0) / 2.0
        z = np.array([[1.0, 0.0], [s, s]])
        sims = cosine_sim_matrix(z)
        np.testing.assert_allclose(sims[0, 1], s, atol=1e-15)
        np.testing.assert_allclose(sims[1, 0], s, atol=1e-15)

    def test_bitwise_symmetric_and_clamped(self):
        rng = np.random.default_rng(5)
        z = l2_normalize_rows(rng.normal(size=(40, 6)))
        sims = cosine_sim_matrix(z)
        assert np.array_equal(sims, sims.T)
        assert np.array_equal(np.diag(sims), np.ones(40))
        assert sims.min() >= -1.0 and sims.max() <= 1.0

    def test_mirror_across_partial_band(self):
        # 600 rows, with a duplicated row, come back as the upper triangle of
        # the product mirrored onto the lower one, bit for bit
        rng = np.random.default_rng(6)
        z = l2_normalize_rows(rng.normal(size=(600, 8)))
        z[7] = z[300]
        sims = cosine_sim_matrix(z)
        full = z @ z.T
        upper = np.triu(full, 1)
        expect = upper + upper.T
        np.fill_diagonal(expect, 1.0)
        np.clip(expect, -1.0, 1.0, out=expect)
        assert sims.tobytes() == expect.tobytes()
        assert sims.tobytes() == sims.T.copy().tobytes()
        assert (np.diag(sims) == 1.0).all()
        assert sims.min() >= -1.0 and sims.max() <= 1.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 130, 600, 1600])
    def test_bitwise_symmetric_for_every_layout(self, n):
        # numpy's a @ a.T is bitwise symmetric for a C-contiguous a, not for
        # every strided view (column-strided rows near n = 128 come back
        # asymmetric), so each layout of the same rows is checked.
        for d in (1, 8, 32, 64):
            z = l2_normalize_rows(np.random.default_rng(n * 100 + d).normal(size=(n, d)))
            tall, wide = np.zeros((2 * n, d)), np.zeros((n, 2 * d))
            tall[::2] = z
            wide[:, ::2] = z
            layouts = {"C": z, "F": np.asfortranarray(z),
                       "row-strided": tall[::2], "column-strided": wide[:, ::2]}
            for name, view in layouts.items():
                sims = cosine_sim_matrix(view)
                assert sims.tobytes() == sims.T.copy().tobytes(), (name, d)
                assert (np.diag(sims) == 1.0).all()
                assert sims.min() >= -1.0 and sims.max() <= 1.0


class TestSingularValues:
    def test_diagonal(self):
        np.testing.assert_allclose(singular_values(np.diag([3.0, 2.0])), [3.0, 2.0],
                                   atol=1e-12)

    def test_rank_one_outer(self):
        u = np.array([2.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 3.0, 0.0])
        sv = singular_values(np.outer(u, v))
        np.testing.assert_allclose(sv[0], 6.0, atol=1e-10)
        np.testing.assert_allclose(sv[1:], 0.0, atol=1e-10)

    def test_against_characteristic_polynomial(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(5, 3))
        expected = np.sqrt(np.maximum(symmetric_3x3_eigenvalues(m.T @ m), 0.0))
        sv = singular_values(m)
        np.testing.assert_allclose(sv, expected, rtol=1e-8)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 5))
        perm = rng.permutation(8)
        a = singular_values(m)
        b = singular_values(m[perm])
        assert np.abs(a - b).max() <= 1e-10

    def test_frobenius_identity(self):
        rng = np.random.default_rng(17)
        for shape in [(4, 9), (9, 4), (6, 6)]:
            m = rng.normal(size=shape)
            sv = singular_values(m)
            fro2 = (m * m).sum()
            assert abs((sv * sv).sum() - fro2) <= 1e-8 * fro2

    def test_length_and_order(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(3, 7))
        sv = singular_values(m)
        assert sv.shape == (3,)
        assert (np.diff(sv) <= 0).all()
        assert (sv >= 0).all()

    def test_gram_eigenvalue_contract(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(6, 4))
        sv = singular_values(m)
        evals = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        np.testing.assert_allclose(sv ** 2, evals, rtol=1e-8, atol=1e-10)

    def test_wide_tall_agree(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 11))
        np.testing.assert_allclose(singular_values(m), singular_values(m.T),
                                   rtol=1e-9, atol=1e-10)
