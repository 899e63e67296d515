"""Dense matrix kernels: row normalization, cosine similarity, singular values.

Matrices are 2-D float64 numpy arrays throughout. Only ``as_matrix``
checks one, in ``l2_normalize_rows`` and on the model's representations.
A similarity matrix is numpy's own ``a @ a.T`` on a C-contiguous ``a``:
numpy computes that product with one triangle of a symmetric rank-k update
and copies it onto the other, so the result is bitwise symmetric with no
mirror of our own.
Singular values come straight from ``np.linalg.svd`` on the matrix itself
rather than from the eigenvalues of its Gram matrix, which would square the
condition number and lose the small values that subset RankMe depends on.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite


def as_matrix(m) -> np.ndarray:
    """m as a float64 array, refusing NaN and Inf entries."""
    a = np.asarray(m, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    return a


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean row norms. Raises NonFinite naming the first row whose
    norm is not finite, as when a finite row's squares overflow."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((m * m).sum(axis=1))
    finite = np.isfinite(norms)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFinite(f"row {i} has a non-finite norm ({norms[i]})")
    return norms


def l2_normalize_rows(m) -> np.ndarray:
    """Scale every row to unit Euclidean norm.

    Raises NonFinite naming the first row whose norm is not finite, or
    else the first whose norm is at or below 1e-12.
    """
    a = as_matrix(m)
    norms = row_norms(a)
    bad = np.nonzero(norms <= 1e-12)[0]
    if bad.size:
        raise NonFinite(f"row {int(bad[0])} has norm {norms[bad[0]]:.3e} <= 1e-12")
    return a / norms[:, None]


def _safe_unit_rows(m: np.ndarray) -> np.ndarray:
    """Like l2_normalize_rows, but rows with norm at or below 1e-12 are
    left as they are instead of raising."""
    norms = row_norms(m)
    norms = np.where(norms > 1e-12, norms, 1.0)
    return m / norms[:, None]


def cosine_sim_matrix(z) -> np.ndarray:
    """Pairwise cosine similarities of the unit rows z, as given.

    The rows are copied to C order first: numpy's product of a contiguous
    matrix with its own transpose fills one triangle and copies it onto
    the other, so the result is bitwise symmetric, which a column-strided
    view does not guarantee. The diagonal is set to exactly 1 and all
    values are clamped into [-1, 1] to absorb rounding before threshold
    logic.
    """
    a = np.ascontiguousarray(z)
    sims = a @ a.T
    np.fill_diagonal(sims, 1.0)
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def singular_values(m) -> np.ndarray:
    """Singular values of m, sorted descending, length min(rows, cols)."""
    return np.linalg.svd(m, compute_uv=False)
