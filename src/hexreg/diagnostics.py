"""Collapse and hierarchy diagnostics: entropy-based effective rank on
sample subsets, cosine-similarity distribution statistics split by
superclass, skewness tracking, and a cosine KNN probe.

No N x N similarity matrix is built. The mean of each similarity pool
comes from superclass row sums: within a superclass the pairs sum to
|sum_i z_i|^2 - sum_i |z_i|^2, in O(N * d) for N rows of d dims. The
skews then take one shifted sweep over row blocks of at most _BLOCK rows,
which sums powers of each similarity's deviation from its pool mean: one
O(N^2 * d) sweep in O(N * _BLOCK) memory. Raw power sums of the
similarities would need no sweep around a mean, but they cancel
catastrophically where a superclass collapses locally, which is the regime
these statistics exist to measure. On 4 superclasses of 400 rows of 16
dims with in-superclass noise of std 1e-3, they gave skew_super -2.2
where the exact value is -0.71, and -2.1e6 for -0.78 at std 1e-4.

For the statistics the rows are first sorted by superclass and no block
crosses a superclass boundary. A block holds the similarities of its
rows with themselves and with every later row, one array row per later
row, so its same-superclass pool is one contiguous slice of rows and the
other pool the slice after it: no mask is built. The KNN probe scores
_BLOCK queries at a time in one buffer, in k argmax rounds (_top_k).

``subset_rank_curve`` and ``distribution_stats`` return dicts keyed by
metrics column. ``holdout_size``, ``check_knn_k`` and ``superclass_groups``
are the probes' preconditions, which a run checks before it trains and the
CLI before it probes; each refusal names the setting or flag it was given.
The kernels take their arrays as given; ``trainer`` says who checks them.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyTrainSet, InsufficientSamples, ZeroMatrix, refusal
from .linalg import _safe_unit_rows, l2_normalize_rows, singular_values
from .rng import Rng, child_keys

RANKME_EPS = 1e-7

# Rows per similarity block. A block's similarities take _BLOCK * N * 8
# bytes; the statistics hold two such arrays at a time.
_BLOCK = 128


def rankme(r) -> float:
    """Effective rank: exp of the entropy of the normalized singular-value
    distribution, each share perturbed by RANKME_EPS. Raises ZeroMatrix
    when every singular value is 0."""
    sv = singular_values(r)
    total = sv.sum()
    if total <= 0.0:
        raise ZeroMatrix("effective rank of the zero matrix is undefined")
    p = sv / total + RANKME_EPS
    return float(np.exp(-(p * np.log(p)).sum()))


def _draw(stream: Rng, pool: np.ndarray, size: int) -> np.ndarray:
    """size rows of pool drawn without replacement: the last size items
    of stream's shuffle of pool, stopped after size swaps."""
    items = pool.tolist()
    stream.shuffle(items, size)
    return np.asarray(items[len(items) - size:], dtype=np.intp)


def superclass_groups(superclass_labels, subset_size: int, name="subset_size") -> list:
    """The row indices of each superclass, in label order. Raises BadConfig
    when subset_size < 1, and InsufficientSamples when the smallest
    superclass cannot fill a subset of subset_size rows, each naming ``name``."""
    if subset_size < 1:
        raise refusal(name, "be >= 1", subset_size)
    labels = np.asarray(superclass_labels)
    groups = [np.nonzero(labels == s)[0] for s in np.unique(labels)]
    smallest = min(g.size for g in groups)
    if smallest < subset_size:
        raise InsufficientSamples(
            f"{name}: smallest superclass has {smallest} < {subset_size} samples")
    return groups


def subset_rank_curve(r, superclass_labels, n_subsets: int,
                      subset_size: int, seed: int) -> dict:
    """``rankme_super`` and ``rankme_random``: the mean effective rank over
    subsets drawn (a) from one uniformly chosen superclass each and (b)
    uniformly from all samples.

    Subset j of (a) comes from the stream ``Rng.from_seed(seed).child(0)
    .child(j)``: its first uniform picks the superclass (``randbelow``),
    and the subset is the last subset_size rows of that superclass's row
    indices after the stream's ``shuffle``. Subset j of (b) is the last
    subset_size of all row indices after ``shuffle`` on the stream
    ``.child(1).child(j)``. Each shuffle stops after subset_size swaps,
    which leaves those rows as the full shuffle would."""
    groups = superclass_groups(superclass_labels, subset_size)
    root = Rng.from_seed(seed)
    all_idx = np.arange(r.shape[0])
    super_vals = []
    random_vals = []
    for sk, rk in zip(child_keys(root.child(0).key, n_subsets).tolist(),
                      child_keys(root.child(1).key, n_subsets).tolist()):
        st = Rng(sk)
        group = groups[st.randbelow(len(groups))]
        super_vals.append(rankme(r[_draw(st, group, subset_size)]))
        random_vals.append(rankme(r[_draw(Rng(rk), all_idx, subset_size)]))
    return {"rankme_super": float(np.mean(super_vals)),
            "rankme_random": float(np.mean(random_vals))}


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


def _by_superclass(z, superclass_labels) -> tuple:
    """The unit rows z stably sorted by superclass label, one label per
    row, and the (lo, hi) row range of each superclass in that order."""
    labels = np.asarray(superclass_labels)
    order = np.argsort(labels, kind="stable")
    labels = labels[order]
    edges = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(),
             labels.shape[0]]
    return z[order], list(zip(edges[:-1], edges[1:]))


def _pair_sums(a: np.ndarray, groups: list) -> tuple:
    """(counts, sums): the number of pairs and their summed similarity in
    the same-superclass pool and in the other pool of the rows a, whose
    superclasses are the row ranges groups. Self-pairs are excluded.

    Within a group the pairs sum to |sum_i z_i|^2 - sum_i |z_i|^2; over
    every row the same formula gives all pairs, and the other pool is all
    pairs minus the same-superclass ones. O(N * d)."""
    n = a.shape[0]
    sq = np.einsum("ij,ij->i", a, a)
    same, n_same = 0.0, 0
    for lo, hi in groups:
        s = a[lo:hi].sum(axis=0)
        same += s @ s - sq[lo:hi].sum()
        n_same += (hi - lo) * (hi - lo - 1)
    t = a.sum(axis=0)
    return (np.array([n_same, n * (n - 1) - n_same]),
            np.array([same, t @ t - sq.sum() - same]))


def _block_deviations(z: np.ndarray, r0: int, r1: int, hi: int,
                      buf: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Similarities of rows r0: of unit rows z (axis 0) with rows r0:r1
    (axis 1), written into the front of the flat buffer buf, clipped into
    [-1, 1] as cosine_sim_matrix clips them, less means[0] on rows r0:hi
    (the superclass of r0:r1) and means[1] on the rows after. Self-pairs
    are then set to exactly 0."""
    s = buf[:(z.shape[0] - r0) * (r1 - r0)].reshape(z.shape[0] - r0, r1 - r0)
    np.matmul(z[r0:], z[r0:r1].T, out=s)
    np.clip(s, -1.0, 1.0, out=s)
    s[:hi - r0] -= means[0]
    s[hi - r0:] -= means[1]
    s[np.arange(r1 - r0), np.arange(r1 - r0)] = 0.0
    return s


def distribution_stats(z, superclass_labels) -> dict:
    """Pool the cosine similarities of each unit row of z with every other
    row, split by shared superclass, and summarize each pool as
    ``mean_super`` and ``skew_super`` (same superclass) and
    ``mean_regular`` and ``skew_regular`` (the other pool).

    The pool means mu come from row sums (_pair_sums), in O(N * d). One
    sweep over superclass-sorted row blocks then sums d, d^2 and d^3 of
    d = s - mu per pool, with self-pairs at d = 0; each block pairs its
    rows with its own and the later rows only, and counts a pair outside
    the block twice, for its mirror. The shifted-data correction of Chan,
    Golub & LeVeque (1983), with delta = sum(d) / count, then gives the
    central sums about the exact mean m = mu + delta:
    sum (s - m)^2 = sum d^2 - count delta^2 and
    sum (s - m)^3 = sum d^3 - 3 delta sum d^2 + 2 count delta^3.
    delta is rounding-sized, so this is as stable as two passes. The sweep
    costs O(N^2 * d) time, half the pairs of a full sweep, and
    O(N * _BLOCK) memory.

    Raw power sums of s are not used: on a locally collapsed superclass
    (similarities within about 1e-6 of each other) they cancel
    catastrophically and give skews wrong by orders of magnitude.

    The two means are reported apart, never as their ratio: the other
    pool's mean sits near 0, where a ratio swings by orders of magnitude.
    Empty pools yield None statistics; constant pools yield means but None
    skews. The rows of z are taken as given, at unit norm.
    """
    a, groups = _by_superclass(z, superclass_labels)
    counts, sums = _pair_sums(a, groups)
    means = sums / np.maximum(counts, 1)
    n = a.shape[0]
    # Every block reuses these two arrays: fresh block-sized arrays would
    # each be faulted in from the OS again, which costs more than the work.
    sims_buf, sq_buf = np.empty((2, n * min(n, _BLOCK)))
    # Rows: sum of d, d^2, d^3; columns: the same-superclass pool, the other.
    power = np.zeros((3, 2))
    for lo, hi in groups:
        for r0 in range(lo, hi, _BLOCK):
            r1 = min(r0 + _BLOCK, hi)
            d = _block_deviations(a, r0, r1, hi, sims_buf, means)
            # The square r0:r1 holds both orders of its pairs; each pair
            # below it stands for itself and its mirror above the block.
            for pool, weight, rows in ((0, 1.0, d[:r1 - r0]),
                                       (0, 2.0, d[r1 - r0:hi - r0]),
                                       (1, 2.0, d[hi - r0:])):
                # numpy's sum, not a BLAS dot: OpenBLAS splits a long dot
                # across threads, so its bits depend on the thread count.
                f = rows.ravel()
                fk = np.multiply(f, f, out=sq_buf[:f.size])
                sum_sq = fk.sum()
                fk *= f
                power[:, pool] += weight * np.array([f.sum(), sum_sq, fk.sum()])
    s1, s2, s3 = power
    delta = s1 / np.maximum(counts, 1)
    s3 = s3 - 3.0 * delta * s2 + 2.0 * counts * delta ** 3
    s2 = s2 - counts * delta ** 2
    totals = counts * means + s1

    mean_super, skew_super = _pool_summary(counts[0], totals[0], s2[0], s3[0])
    mean_regular, skew_regular = _pool_summary(counts[1], totals[1], s2[1], s3[1])
    return {"mean_super": mean_super, "mean_regular": mean_regular,
            "skew_super": skew_super, "skew_regular": skew_regular}


def rank_and_similarity_columns(r, z, superclass_labels, n_subsets: int,
                                subset_size: int, seed: int) -> dict:
    """The six rank and similarity columns of a diagnostics row: the mean
    effective ranks of subset_rank_curve on r, and distribution_stats of z's
    rows scaled to unit norm. A row of z with zero norm has no direction,
    so it raises NonFinite naming the row."""
    return {**subset_rank_curve(r, superclass_labels, n_subsets, subset_size, seed=seed),
            **distribution_stats(l2_normalize_rows(z), superclass_labels)}


def _top_k(sims: np.ndarray, k: int) -> tuple:
    """(columns, values) of the k largest entries per row, largest first, ties to
    the lowest index as in a stable argsort of -sims: k argmax rounds, each writing
    -inf over its pick in the finite sims. O(k * q * n); beats a sort to k ~ 50."""
    rows = np.arange(sims.shape[0])
    cols = np.empty((sims.shape[0], k), dtype=np.intp)
    vals = np.empty((sims.shape[0], k))
    for m in range(k):
        c = cols[:, m] = np.argmax(sims, axis=1)
        vals[:, m] = sims[rows, c]
        sims[rows, c] = -np.inf
    return cols, vals


def holdout_size(n: int, fraction: float, name: str = "holdout fraction") -> int:
    """The query row count max(1, round(fraction * n)) of a KNN probe on n
    rows. The fraction must lie in (0, 1), BadConfig names ``name``
    otherwise, and leave at least one training row."""
    if not 0.0 < fraction < 1.0:
        raise refusal(name, "lie in (0, 1)", fraction)
    n_query = max(1, int(round(fraction * n)))
    if n_query >= n:
        raise EmptyTrainSet(f"a holdout fraction of {fraction} leaves none of "
                            f"the {n} rows for training")
    return n_query


def holdout_split(n: int, fraction: float, seed: int) -> tuple:
    """(query, train) row indices of a KNN probe: the first
    holdout_size(n, fraction) rows of a shuffle drawn from stream 5 of the
    seed are the queries, the rest the training rows."""
    n_query = holdout_size(n, fraction)
    perm = list(range(n))
    Rng.from_seed(seed).child(5).shuffle(perm)
    return (np.asarray(perm[:n_query], dtype=np.intp),
            np.asarray(perm[n_query:], dtype=np.intp))


def check_knn_k(k: int, n_train: int, name: str = "k"):
    """A KNN probe over n_train training rows needs k in [1, n_train];
    BadConfig names ``name`` otherwise."""
    if k < 1 or k > n_train:
        raise refusal(name, f"lie in [1, {n_train}]", k)


def knn_accuracy(train_repr, train_labels, query_repr, query_labels,
                 k: int) -> float:
    """Fraction of queries whose majority label among the k most cosine-
    similar training rows matches. Vote ties break by summed similarity,
    then by smallest label id; neighbor ties break by lowest train index.
    Queries are scored _BLOCK at a time in one buffer that _top_k overwrites,
    each block's vote in O(_BLOCK * k^2) time and O(_BLOCK * k) memory.

    ``trainer.evaluate`` passes a caller's k through, so it is checked here:
    _top_k would run k argmax rounds however few training rows there are."""
    tl = np.asarray(train_labels)
    ql = np.asarray(query_labels)
    check_knn_k(k, train_repr.shape[0])
    train = _safe_unit_rows(train_repr)
    query = _safe_unit_rows(query_repr)
    buf = np.empty((min(_BLOCK, query.shape[0]), train.shape[0]))
    correct = 0
    for q0 in range(0, query.shape[0], _BLOCK):
        sims = np.matmul(query[q0:q0 + _BLOCK], train.T, out=buf[:query.shape[0] - q0])
        neigh, near = _top_k(sims, k)
        lab = tl[neigh]
        # Column j gets the vote count and the similarity sum of its neighbour's
        # label, summed in neighbour order as a dict would (adding 0.0 is exact).
        votes = np.zeros(lab.shape, dtype=np.intp)
        summed = np.zeros(near.shape)
        for m in range(k):
            same = lab == lab[:, m:m + 1]
            votes += same
            summed += np.where(same, near[:, m:m + 1], 0.0)
        first = np.lexsort((lab, -summed, -votes), axis=-1)[:, 0]
        winner = lab[np.arange(lab.shape[0]), first]
        correct += int(np.count_nonzero(winner == ql[q0:q0 + _BLOCK]))
    return correct / query.shape[0]
