import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexreg.autodiff import Tape, backward, forward
from hexreg.errors import BadConfig
from hexreg.hierarchy import (paired_positive_index, supervised_mask, threshold_mask,
                              whole_batch_mask)
from hexreg.linalg import cosine_sim_matrix, l2_normalize_rows
from hexreg.losses import (build_barlow_graph, build_combined_graph,
                           build_hex_graph, build_info_nce_graph, build_vicreg_graph,
                           nnclr_positive_rows)
from hexreg.trainer import LossConfig


def random_rows(rng, n_samples, dim=6):
    """2n random unit rows and their positives in the two-view layout."""
    return (l2_normalize_rows(rng.normal(size=(2 * n_samples, dim))),
            paired_positive_index(2 * n_samples))


def loss_of(k, y) -> float:
    """The value of loss kernel k on y, as the tape's forward returns it."""
    return float(k.value(np.array(y, dtype=np.float64))[0, 0])


def grad_of(k) -> np.ndarray:
    """The gradient with respect to y of k's last forward."""
    return k.vjp(np.ones((1, 1)))


# ---------------------------------------------------------------------------
# independent scalar oracles (deliberately written with plain loops)
# ---------------------------------------------------------------------------

def oracle_q(sims_h, pos_sim, tau, tau_plus):
    """One-line transliteration of the estimator over H(i)."""
    m = len(sims_h)
    e = [math.exp(s / tau) for s in sims_h]
    reweighted = sum(x * (x / sum(e)) for x in e)
    est = (m * reweighted - tau_plus * m * math.exp(pos_sim / tau)) / (1.0 - tau_plus)
    return max(est, m * math.exp(-1.0 / tau))


def q_scale(sims_h, pos_sim, tau, tau_plus):
    """Size of the two terms the estimator subtracts: the yardstick for
    rounding, since they can cancel against each other."""
    m = len(sims_h)
    return m * (max(math.exp(s / tau) for s in sims_h)
                + tau_plus * math.exp(pos_sim / tau)) / (1.0 - tau_plus)


def oracle_hex_loss(z, pos, tau, member, tau_plus=0.1):
    n = len(z)
    total = 0.0
    for i in range(n):
        s_pos = float(np.dot(z[i], z[pos[i]]))
        denom = 0.0
        for a in range(n):
            if a != i and not member[i][a]:
                denom += math.exp(float(np.dot(z[i], z[a])) / tau)
        hs = [float(np.dot(z[i], z[a])) for a in range(n) if member[i][a]]
        if hs:
            denom += oracle_q(hs, s_pos, tau, tau_plus)
        total += math.log(denom) - s_pos / tau
    return total / n


def loss_scale(z, pos, tau, total):
    """|mean positive logit| + |mean log-denominator| of a contrastive loss
    with mean total: the yardstick for its rounding, since the total is
    their difference and can cancel to ~1e-7."""
    pos_logit = sum(float(np.dot(z[i], z[pos[i]])) for i in range(len(z))) / len(z) / tau
    return abs(pos_logit) + abs(total + pos_logit)


def oracle_barlow(za, zb, lam, scale):
    return sum(oracle_barlow_terms(za, zb, lam, scale))


def oracle_barlow_terms(za, zb, lam, scale):
    """(invariance, regularization): the on- and off-diagonal parts."""
    n, d = za.shape
    an = (za - za.mean(0)) / za.std(0)
    bn = (zb - zb.mean(0)) / zb.std(0)
    c = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            c[k, l] = float(np.dot(an[:, k], bn[:, l])) / n
    on = sum((1.0 - c[k, k]) ** 2 for k in range(d))
    off = sum(c[k, l] ** 2 for k in range(d) for l in range(d) if k != l)
    return scale * on, scale * lam * off


def oracle_vicreg(za, zb, sim_w, var_w, cov_w):
    return sum(oracle_vicreg_terms(za, zb, sim_w, var_w, cov_w))


def oracle_vicreg_terms(za, zb, sim_w, var_w, cov_w):
    """(invariance, regularization): the MSE part and the variance plus
    covariance part."""
    n, d = za.shape
    mse = float(((za - zb) ** 2).mean())
    var_terms, cov_terms = [], []
    for v in (za, zb):
        c = v - v.mean(0)
        var = (c ** 2).sum(0) / (n - 1)
        var_terms.append(float(np.maximum(0.0, 1.0 - np.sqrt(var)).mean()))
        cov = c.T @ c / (n - 1)
        cov_terms.append(sum(cov[k, l] ** 2 for k in range(d)
                             for l in range(d) if k != l) / d)
    return (sim_w * mse, var_w * (var_terms[0] + var_terms[1]) / 2.0
            + cov_w * (cov_terms[0] + cov_terms[1]))


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------

def info_nce_graph(z, tau):
    """Evaluated build_info_nce_graph over rows z."""
    k = build_info_nce_graph(len(z), tau)
    loss_of(k, z)
    return k


class TestInfoNce:
    def test_orthogonal_rows_give_log3(self):
        bd = info_nce_graph(np.eye(4), 0.1).breakdown()
        assert bd["loss_total"] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_perfect_positive_closed_form(self):
        z = np.zeros((4, 4))
        z[0, 0] = z[2, 0] = 1.0    # anchor 0 == its positive
        z[1, 1] = z[3, 1] = 1.0    # anchor 1 == its positive
        bd = info_nce_graph(z, 0.1).breakdown()
        expected = math.log1p(2.0 * math.exp(-10.0))
        assert bd["loss_total"] == pytest.approx(expected, rel=1e-12)

    def test_zero_temperature_rejected(self):
        # The kernel takes tau as given; the loss section refuses 0 first.
        with pytest.raises(BadConfig, match=r"loss\.tau must be > 0, got 0\.0$"):
            LossConfig(kind="simclr", tau=0.0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 8):
            z, _ = random_rows(rng, n)
            bd = info_nce_graph(z, 0.1).breakdown()
            assert abs(bd["loss_total"]
                       - (bd["loss_invariance"] + bd["loss_regularization"])) <= 1e-10

    def test_permutation_invariance(self):
        # Views a and b permuted the same way keep the layout's pairing.
        rng = np.random.default_rng(1)
        z, pos = random_rows(rng, 6)
        perm = rng.permutation(6)
        perm = np.concatenate((perm, perm + 6))
        inv = np.empty(12, dtype=int)
        inv[perm] = np.arange(12)
        assert (inv[pos[perm]] == pos).all()
        permuted = info_nce_graph(z[perm], 0.1).breakdown()["loss_total"]
        assert permuted == pytest.approx(info_nce_graph(z, 0.1).breakdown()["loss_total"],
                                         abs=1e-12)


# ---------------------------------------------------------------------------
# hierarchical reweighting
# ---------------------------------------------------------------------------

def hex_graph(z, member, *, tau_plus=0.1, tau=0.1):
    """Evaluated build_hex_graph over rows z with an explicit membership
    matrix."""
    k = build_hex_graph(np.asarray(member, dtype=bool), tau, tau_plus=tau_plus)
    loss_of(k, z)
    return k


def worked_example_batch():
    """Anchor 0 = e1 with positive row 2 = e1 and one member, row 1, at
    similarity 0.5; rows 1-3 have no members."""
    z = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)], [1.0, 0.0], [0.0, 1.0]])
    member = np.zeros((4, 4), dtype=bool)
    member[0, 1] = True
    return z, member


class TestHexReweight:
    """Per-row reweighted term q of the HEX graph against oracle_q."""

    def test_single_member_worked_example(self):
        z, member = worked_example_batch()
        # One member: (e^{s/t} - tau_plus e^{s_pos/t}) / (1 - tau_plus)
        got = hex_graph(z, member, tau_plus=0.1, tau=0.5).q[0, 0]
        expected = (math.exp(1.0) - 0.1 * math.exp(2.0)) / 0.9
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(2.1993, abs=5e-4)

    def test_tau_one(self):
        # The kernel takes tau_plus as given; the loss section refuses 1 first.
        with pytest.raises(BadConfig, match=r"loss\.tau_plus must lie in \[0, 1\)"):
            LossConfig(kind="simclr_hex", tau_plus=1.0)

    def test_empty_members(self):
        z, member = worked_example_batch()
        k = hex_graph(z, member, tau_plus=0.5)
        ref = info_nce_graph(z, 0.1)
        assert k.rows_with_h.tolist() == [True, False, False, False]
        np.testing.assert_array_equal(k.log_denominator[1:],
                                      ref.log_denominator[1:])
        assert k.log_denominator[0, 0] != ref.log_denominator[0, 0]

    def test_two_members_vs_oracle(self):
        rng = np.random.default_rng(2)
        z = l2_normalize_rows(rng.normal(size=(16, 6)))
        member = np.zeros((16, 16), dtype=bool)
        member[0, [3, 11]] = True
        got = hex_graph(z, member, tau_plus=0.1).q[0, 0]
        hs = [float(np.dot(z[0], z[3])), float(np.dot(z[0], z[11]))]
        pos_sim = float(np.dot(z[0], z[8]))
        want = oracle_q(hs, pos_sim, 0.1, 0.1)
        assert abs(got - want) <= 1e-12 * q_scale(hs, pos_sim, 0.1, 0.1)

    def test_single_member_algebraic_collapse(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            z = l2_normalize_rows(rng.normal(size=(2 * n, 4)))
            member = np.zeros((2 * n, 2 * n), dtype=bool)
            i = int(rng.integers(0, 2 * n))
            j = int(rng.choice([a for a in range(2 * n) if a not in (i, (i + n) % (2 * n))]))
            member[i, j] = True
            tau = float(rng.choice([0.1, 0.2, 0.5, 0.7]))
            tau_plus = float(rng.choice([0.0, 0.1, 0.5]))
            got = hex_graph(z, member, tau_plus=tau_plus, tau=tau).q[i, 0]
            s = float(np.dot(z[i], z[j]))
            p = float(np.dot(z[i], z[(i + n) % (2 * n)]))
            want = max((math.exp(s / tau) - tau_plus * math.exp(p / tau)) / (1.0 - tau_plus),
                       math.exp(-1.0 / tau))
            assert abs(got - want) <= 1e-12 * q_scale([s], p, tau, tau_plus)

    def test_random_tuples_vs_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(80):
            n = int(rng.choice([2, 4, 8]))
            z, pos = random_rows(rng, n)
            mask = threshold_mask(cosine_sim_matrix(z), float(rng.uniform(-0.5, 0.6)))
            if not mask.any():
                continue
            tau = float(rng.choice([0.1, 0.2, 0.5, 0.9]))
            tau_plus = float(rng.choice([0.0, 0.1, 0.5]))
            q = hex_graph(z, mask, tau_plus=tau_plus, tau=tau).q[:, 0]
            for i in np.nonzero(mask.any(axis=1))[0]:
                hs = [float(np.dot(z[i], z[a]))
                      for a in np.nonzero(mask[i])[0]]
                p = float(np.dot(z[i], z[pos[i]]))
                want = oracle_q(hs, p, tau, tau_plus)
                assert abs(q[i] - want) <= 1e-12 * q_scale(hs, p, tau, tau_plus)
                checked += 1
        assert checked > 100


class TestHexLoss:
    def test_empty_mask_equals_info_nce_bitwise(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 8, 16):
            for tau in (0.1, 0.2, 0.5):
                z, _ = random_rows(rng, n)
                mask = threshold_mask(cosine_sim_matrix(z), 1.0)
                got = hex_graph(z, mask, tau=tau).breakdown()["loss_total"]
                assert got == info_nce_graph(z, tau).breakdown()["loss_total"]

    def test_equal_member_similarities_and_no_prior_give_info_nce(self):
        # Rows of one group are copies, so every member of a row, all drawn
        # from one group, has the same similarity; then w_h = 1/m and q is
        # the members' own sum.
        rng = np.random.default_rng(24)
        for b, tau in ((6, 0.1), (9, 0.2), (12, 0.5)):
            groups = np.arange(2 * b) % 3
            z = l2_normalize_rows(rng.normal(size=(3, 5)))[groups]
            pos = paired_positive_index(2 * b)
            member = groups[None, :] == (groups[:, None] + 1) % 3
            member[np.arange(2 * b), pos] = False
            k = hex_graph(z, member, tau_plus=0.0, tau=tau)
            assert k.live[:, 0].all()
            want = info_nce_graph(z, tau).breakdown()["loss_total"]
            got = k.breakdown()["loss_total"]
            assert abs(got - want) <= 1e-12 * loss_scale(z, pos, tau, want)

    def test_whole_batch_vs_oracle(self):
        z, pos = np.eye(4), paired_positive_index(4)
        mask = whole_batch_mask(4)
        got = hex_graph(z, mask).breakdown()["loss_total"]
        want = oracle_hex_loss(z, pos, 0.1, mask)
        assert abs(got - want) <= 1e-12 * loss_scale(z, pos, 0.1, want)

    def test_random_masks_vs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.choice([2, 4, 8]))
            tau = float(rng.choice([0.1, 0.2, 0.5]))
            z, pos = random_rows(rng, n)
            mask = threshold_mask(cosine_sim_matrix(z), float(rng.uniform(-0.2, 0.6)))
            got = hex_graph(z, mask, tau=tau).breakdown()["loss_total"]
            want = oracle_hex_loss(z, pos, tau, mask)
            assert abs(got - want) <= 1e-12 * loss_scale(z, pos, tau, want)

    def test_supervised_mask_and_breakdown_fields(self):
        rng = np.random.default_rng(6)
        z, _ = random_rows(rng, 8)
        labels = np.tile(rng.integers(0, 2, size=8), 2)
        mask = supervised_mask(labels)
        bd = hex_graph(z, mask).breakdown()
        assert bd["mean_H_size"] == pytest.approx(mask.sum(1).mean())
        assert bd["hex_term_mean"] is not None
        assert np.isfinite(bd["loss_total"])


@st.composite
def hex_cases(draw):
    """Unit rows of 2b views, a membership mask without self or positive,
    the loss temperature and the class prior."""
    b = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    z = l2_normalize_rows(rng.normal(size=(2 * b, draw(st.integers(2, 6)))))
    pos = paired_positive_index(2 * b)
    bits = draw(st.lists(st.booleans(), min_size=4 * b * b, max_size=4 * b * b))
    member = np.array(bits).reshape(2 * b, 2 * b)
    member[np.arange(2 * b), np.arange(2 * b)] = False
    member[np.arange(2 * b), pos] = False
    return dict(z=z, pos=pos, member=member,
                tau=draw(st.sampled_from([0.1, 0.2, 0.5])),
                tau_plus=draw(st.sampled_from([0.0, 0.1, 0.5])))


def _graph_value(c, member):
    return loss_of(build_hex_graph(member, c["tau"], tau_plus=c["tau_plus"]), c["z"])


class TestHexProperties:
    @settings(max_examples=60, deadline=None)
    @given(hex_cases())
    def test_graph_matches_oracle(self, c):
        want = oracle_hex_loss(c["z"], c["pos"], c["tau"], c["member"], c["tau_plus"])
        scale = loss_scale(c["z"], c["pos"], c["tau"], want)
        assert abs(_graph_value(c, c["member"]) - want) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(hex_cases())
    def test_empty_mask_equals_info_nce_bitwise(self, c):
        want = loss_of(build_info_nce_graph(len(c["z"]), c["tau"]), c["z"])
        assert _graph_value(c, np.zeros_like(c["member"])) == want


# ---------------------------------------------------------------------------
# NN queue
# ---------------------------------------------------------------------------

class TestNNQueue:
    """``nnclr_positive_rows`` on the queue array, unit rows oldest first;
    the trainer's push and eviction are tested in ``test_trainer.py``."""

    def test_exact_copy_wins(self):
        z = l2_normalize_rows(np.random.default_rng(8).normal(size=(3, 4)))
        np.testing.assert_array_equal(nnclr_positive_rows(z, z), z)

    def test_chooses_most_similar(self):
        out = nnclr_positive_rows(np.eye(2), np.array([[0.6, 0.8], [0.8, 0.6]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_tie_breaks_to_oldest(self):
        entries = np.array([[0.0, 1.0], [0.0, -1.0]])   # both orthogonal to the query
        out = nnclr_positive_rows(entries, np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# dimension-contrastive losses
# ---------------------------------------------------------------------------

def dim_graph(build, za, zb, *weights, **kw):
    """(loss, kernel) of build_barlow_graph or build_vicreg_graph evaluated
    on y, the views za and zb stacked."""
    k = build(*weights, **kw)
    return loss_of(k, np.vstack((za, zb))), k


def barlow(za, zb, lam, scale, **kw):
    return dim_graph(build_barlow_graph, za, zb, lam, scale, **kw)[0]


def vicreg(za, zb, sim_w, var_w, cov_w, **kw):
    return dim_graph(build_vicreg_graph, za, zb, sim_w, var_w, cov_w, **kw)[0]


class TestBarlow:
    def test_identical_decorrelated_views(self):
        za = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        assert barlow(za, za.copy(), 0.005, 0.1, var_eps=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_column(self):
        # The formulas divide by a zero std here; the default var_eps keeps
        # both graphs and their gradients finite.
        za = np.ones((4, 3))
        za[:, 0] = [1.0, 2.0, 3.0, 4.0]
        for build, weights, want in ((build_barlow_graph, (0.005, 0.1), 0.2),
                                     (build_vicreg_graph, (25.0, 25.0, 1.0), 16.5)):
            loss, k = dim_graph(build, za, za.copy(), *weights)
            assert loss == pytest.approx(want, rel=1e-9)
            assert np.isfinite(grad_of(k)).all()

    def test_seeded_vs_oracle(self):
        rng = np.random.default_rng(9)
        za = rng.normal(size=(8, 4))
        zb = rng.normal(size=(8, 4))
        got = barlow(za, zb, 0.3, 0.1, var_eps=0.0)
        assert got == pytest.approx(oracle_barlow(za, zb, 0.3, 0.1), rel=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(10)
        za = rng.normal(size=(10, 5))
        zb = rng.normal(size=(10, 5))
        perm = rng.permutation(5)
        a = barlow(za, zb, 0.2, 0.5)
        b = barlow(za[:, perm], zb[:, perm], 0.2, 0.5)
        assert b == pytest.approx(a, abs=1e-12)


class TestVicreg:
    def test_spread_identical_views_zero(self):
        za = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]]) * 1.5
        got = vicreg(za, za.copy(), 25.0, 25.0, 1.0, var_eps=0.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_constant_matrix_hinge_saturates(self):
        # Every std is sqrt(var_eps), so each hinge reads 1 - sqrt(1e-4).
        za = np.full((6, 4), 0.7)
        got = vicreg(za, za.copy(), 25.0, 25.0, 1.0)
        assert got == pytest.approx(25.0 * (1.0 - math.sqrt(1e-4)), abs=1e-12)

    def test_seeded_vs_oracle(self):
        for seed in (11, 16):
            rng = np.random.default_rng(seed)
            za = rng.normal(size=(8, 4))
            zb = rng.normal(size=(8, 4))
            got = vicreg(za, zb, 25.0, 25.0, 1.0, var_eps=0.0)
            assert got == pytest.approx(oracle_vicreg(za, zb, 25.0, 25.0, 1.0), rel=1e-12)


def central_diff(f, x, h):
    """Central-difference gradient of the scalar function f at x."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (f(up) - f(down)) / (2.0 * h)
    return g


DIM_LOSSES = [(build_barlow_graph, (0.3, 0.1)), (build_vicreg_graph, (25.0, 25.0, 1.0))]


class TestDimKernels:
    """Each builder returns one kernel whose analytic VJP matches central
    differences of its value."""

    @staticmethod
    def assert_fd_gradients(build, weights, za, zb, h):
        g = grad_of(dim_graph(build, za, zb, *weights)[1])
        for grad, fd in (
                (g[:len(za)],
                 central_diff(lambda v: dim_graph(build, v, zb, *weights)[0], za, h)),
                (g[len(za):],
                 central_diff(lambda v: dim_graph(build, za, v, *weights)[0], zb, h))):
            assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()

    @pytest.mark.parametrize("build,weights", DIM_LOSSES)
    @pytest.mark.parametrize("shape", [(8, 4), (13, 5)])
    def test_gradients_on_random_views(self, build, weights, shape):
        rng = np.random.default_rng(shape[0])
        self.assert_fd_gradients(build, weights, rng.normal(size=shape),
                                 rng.normal(size=shape), 1e-5)

    @pytest.mark.parametrize("build,weights,h", [(*DIM_LOSSES[0], 1e-9),
                                                 (*DIM_LOSSES[1], 1e-6)])
    def test_gradients_with_a_constant_column(self, build, weights, h):
        # At the default var_eps a constant column's std is sqrt(var_eps):
        # 1e-6 for Barlow Twins, so its step must stay far below that.
        rng = np.random.default_rng(17)
        za, zb = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        za[:, 1] = 0.7
        self.assert_fd_gradients(build, weights, za, zb, h)

    def test_vicreg_gradients_with_the_hinge_on_some_columns(self):
        rng = np.random.default_rng(18)
        za = rng.normal(size=(8, 4)) * [0.3, 2.0, 0.5, 3.0]
        zb = rng.normal(size=(8, 4)) * [2.0, 0.4, 1.5, 0.2]
        for z in (za, zb):
            active = z.std(axis=0, ddof=1) < 1.0
            assert active.any() and not active.all()
        self.assert_fd_gradients(*DIM_LOSSES[1], za, zb, 1e-5)

    @pytest.mark.parametrize("build,weights,oracle", [
        (*DIM_LOSSES[0], oracle_barlow_terms), (*DIM_LOSSES[1], oracle_vicreg_terms)])
    def test_breakdown_matches_the_oracle_terms(self, build, weights, oracle):
        rng = np.random.default_rng(19)
        za, zb = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        bd = dim_graph(build, za, zb, *weights, var_eps=0.0)[1].breakdown()
        want = oracle(za, zb, *weights)
        assert bd["loss_invariance"] == pytest.approx(want[0], rel=1e-12)
        assert bd["loss_regularization"] == pytest.approx(want[1], rel=1e-12)
        assert bd["loss_total"] == bd["loss_invariance"] + bd["loss_regularization"]

    @pytest.mark.parametrize("build,weights", DIM_LOSSES)
    def test_builder_returns_a_named_kernel(self, build, weights):
        # The trainer names a non-finite loss by k.name.
        k = build(*weights)
        assert (build.__name__, k.name) in {("build_barlow_graph", "barlow_loss"),
                                            ("build_vicreg_graph", "vicreg_loss")}


def desk_batch(rng, b=64, d=8):
    """Two views of b random rows, stacked and normalized, with their
    positives."""
    ya, yb = rng.normal(size=(2, b, d))
    return l2_normalize_rows(np.vstack((ya, yb))), paired_positive_index(2 * b)


def desk_threshold_mask(z):
    """The desk schedule's mask: eligible mean + 2 std."""
    sims = cosine_sim_matrix(z)
    eligible = sims[whole_batch_mask(len(z))]
    return threshold_mask(sims, eligible.mean() + 2.0 * eligible.std())


class TestHexKernel:
    """build_hex_graph returns one kernel whose vjp matches central
    differences of its value, on each kind of mask a training step uses."""

    @staticmethod
    def assert_fd_gradient(z, mask, fixed_rows=0, h=1e-6, tau_plus=0.1):
        """Checks the gradient with respect to y, z's rows scaled by random
        norms, through the kernel's normalization. With fixed_rows, z's
        rows before them enter as NNCLR's neighbour rows do, and y's rows
        there get a zero gradient."""
        nn_rows = z[:fixed_rows] if fixed_rows else None
        y0 = z * np.random.default_rng(len(z)).uniform(0.5, 2.0, size=(len(z), 1))

        def kernel():
            return build_hex_graph(mask, 0.5, tau_plus=tau_plus, nn_rows=nn_rows)

        k = kernel()
        assert k.name == "hex_loss"
        loss_of(k, y0)
        g = grad_of(k)
        fd = central_diff(lambda v: loss_of(kernel(), v), y0, h)
        assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()
        assert not g[:fixed_rows].any()
        return k

    def test_empty_mask(self):
        z, _ = random_rows(np.random.default_rng(20), 8, dim=4)
        k = self.assert_fd_gradient(z, np.zeros((16, 16), dtype=bool))
        assert k.q is None

    def test_live_rows(self):
        z, _ = random_rows(np.random.default_rng(21), 8, dim=4)
        k = self.assert_fd_gradient(z, threshold_mask(cosine_sim_matrix(z), 0.3),
                                    tau_plus=0.0)
        assert k.live[k.rows_with_h].all()

    def test_threshold_mask_with_clamped_and_unclamped_rows(self):
        # Row 0's positive is a near-duplicate and the prior is large, so
        # its estimate falls below the floor.
        rng = np.random.default_rng(21)
        z, _ = random_rows(rng, 8, dim=4)
        z[8] = l2_normalize_rows(z[:1] + 1e-3 * rng.normal(size=(1, 4)))[0]
        k = self.assert_fd_gradient(z, threshold_mask(cosine_sim_matrix(z), 0.3),
                                    tau_plus=0.9)
        live = k.live[k.rows_with_h, 0]
        assert live.any() and not live.all()
        assert not k.live[0, 0] and k.rows_with_h[0]
        assert k.breakdown()["clamp_events"] == np.count_nonzero(~live)

    def test_whole_batch_mask(self):
        z, _ = random_rows(np.random.default_rng(22), 8, dim=4)
        self.assert_fd_gradient(z, whole_batch_mask(16))

    def test_constant_first_half(self):
        z, _ = random_rows(np.random.default_rng(23), 8, dim=4)
        self.assert_fd_gradient(z, threshold_mask(cosine_sim_matrix(z), 0.3),
                                fixed_rows=8)

    @pytest.mark.parametrize("tau", [0.1, 0.2])   # simclr_hex, nnclr_hex defaults
    @pytest.mark.parametrize("source", ["all", "supervised", "threshold"])
    def test_desk_size_masks_match_the_oracle(self, source, tau):
        # At b = 64 the whole-batch mask holds every eligible pair, and the
        # threshold mask is the desk schedule's mean + 2 std one.
        rng = np.random.default_rng(17)
        z, pos = desk_batch(rng)
        if source == "all":
            mask = whole_batch_mask(len(z))
        elif source == "supervised":
            mask = supervised_mask(np.tile(rng.integers(0, 4, size=len(pos) // 2), 2))
        else:
            mask = desk_threshold_mask(z)
        k = hex_graph(z, mask, tau=tau)
        assert k.live[k.rows_with_h].any()
        got = k.breakdown()["loss_total"]
        want = oracle_hex_loss(z, pos, tau, mask)
        assert abs(got - want) <= 1e-12 * loss_scale(z, pos, tau, want)

    def test_desk_size_tape_peak_memory(self):
        # b = 64, d = 8 and the desk threshold mask. The kernel keeps one
        # n x n array between forward and vjp, and the q term reads member
        # entries only.
        z, _ = desk_batch(np.random.default_rng(3))
        mask = desk_threshold_mask(z)
        tracemalloc.start()
        try:
            k = build_hex_graph(mask, 0.1)
            t = Tape()
            t.kernel(k, t.input(z))
            forward(t)
            backward(t)
            k.breakdown()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(k.rows_with_h) > 0
        assert peak <= 3 * len(z) ** 2 * 8


class _Fixed:
    """A loss kernel whose value is c on any y; its tests run forward only."""

    def __init__(self, c, name):
        self.c, self.name = c, name

    def value(self, y):
        return np.array([[self.c]])


def combined(hex_value, dim_value, alpha, hex_scale):
    mix = build_combined_graph(_Fixed(hex_value, "hex_loss"),
                               _Fixed(dim_value, "barlow_loss"), alpha, hex_scale)
    return loss_of(mix, np.zeros((2, 2)))


class TestCombined:
    def test_alpha_zero(self):
        assert combined(3.0, 4.0, 0.0, 1.0) == 4.0

    def test_alpha_one(self):
        assert combined(3.0, 4.0, 1.0, 1.0) == 3.0

    def test_bad_alpha(self):
        # The mix takes alpha as given; the loss section refuses 1.5 first.
        with pytest.raises(BadConfig, match=r"loss\.alpha must lie in \[0, 1\], got 1\.5$"):
            LossConfig(kind="barlow_hex", alpha=1.5)

    def test_scaled_mix(self):
        assert combined(2.0, 4.0, 0.5, 5.0) == pytest.approx(7.0, abs=1e-12)

    def test_breakdown_weighs_each_column_as_the_total(self):
        rng = np.random.default_rng(25)
        z, _ = random_rows(rng, 8, dim=4)
        contra = build_hex_graph(threshold_mask(cosine_sim_matrix(z), 0.3), 0.1)
        dim = build_barlow_graph(0.005, 0.1)
        mix = build_combined_graph(contra, dim, 0.5, 5.0)
        loss_of(mix, z)
        bd, h, d = mix.breakdown(), contra.breakdown(), dim.breakdown()
        assert bd["loss_total"] == 2.5 * h["loss_total"] + 0.5 * d["loss_total"]
        assert bd["loss_invariance"] == 2.5 * h["loss_invariance"] + 0.5 * d["loss_invariance"]
        assert bd["loss_regularization"] == (2.5 * h["loss_regularization"]
                                             + 0.5 * d["loss_regularization"])
        assert (bd["hex_term_mean"], bd["mean_H_size"], bd["clamp_events"]) == (
            h["hex_term_mean"], h["mean_H_size"], h["clamp_events"])
        inv, reg = bd["loss_invariance"], bd["loss_regularization"]
        assert abs(inv + reg - bd["loss_total"]) <= 1e-12 * (abs(inv) + abs(reg))

    @pytest.mark.parametrize("build,weights", DIM_LOSSES)
    def test_mix_of_two_kernels_matches_its_parts_bitwise(self, build, weights):
        # The mix's value is c1 h + c2 d and its vjp h.vjp(c1 g) + d.vjp(c2 g),
        # bit for bit; c1 = alpha * hex_scale and c2 = 1 - alpha.
        rng = np.random.default_rng(26)
        z, _ = random_rows(rng, 8, dim=4)
        y = z * rng.uniform(0.5, 2.0, size=(16, 1))
        mask = threshold_mask(cosine_sim_matrix(z), 0.3)
        h, d = build_hex_graph(mask, 0.1), build(*weights)
        mix = build_combined_graph(build_hex_graph(mask, 0.1), build(*weights), 0.25, 5.0)
        assert mix.name == "combined_loss"
        got = loss_of(mix, y)
        assert got == (1.25 * h.value(y) + 0.75 * d.value(y))[0, 0]
        g = np.array([[0.5]])
        want = h.vjp(1.25 * g) + d.vjp(0.75 * g)
        assert mix.vjp(g).tobytes() == want.tobytes()
        fd = central_diff(lambda v: loss_of(mix, v), y, 1e-6)
        assert np.abs(grad_of(mix) - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("bad", ["hex_loss", "vicreg_loss"])
    def test_a_non_finite_part_is_named(self, bad):
        # The mix checks nothing: a NaN part gives a NaN total, and the
        # part values, HEX part first, let the trainer name the part.
        values = {"hex_loss": 1.0, "vicreg_loss": 2.0, bad: math.nan}
        mix = build_combined_graph(*(_Fixed(values[n], n) for n in values), 0.5, 5.0)
        t = Tape()
        t.kernel(mix, t.input(np.ones((4, 2))))
        assert math.isnan(forward(t))
        assert [n for n, _ in mix.part_values] == ["hex_loss", "vicreg_loss"]
        assert [math.isnan(v) for _, v in mix.part_values] == [
            n == bad for n in ("hex_loss", "vicreg_loss")]


# ---------------------------------------------------------------------------
# graph builders against the oracles
# ---------------------------------------------------------------------------

class TestGraphParity:
    def test_info_nce_graph(self):
        rng = np.random.default_rng(12)
        z, pos = random_rows(rng, 4)
        bd = info_nce_graph(z, 0.1).breakdown()
        want = oracle_hex_loss(z, pos, 0.1, np.zeros((8, 8), dtype=bool))
        scale = loss_scale(z, pos, 0.1, want)
        assert abs(bd["loss_total"] - want) <= 1e-12 * scale
        inv = -sum(float(np.dot(z[i], z[pos[i]])) for i in range(8)) / 8 / 0.1
        assert abs(bd["loss_invariance"] - inv) <= 1e-12 * scale
        assert abs(bd["loss_regularization"] - (want - inv)) <= 1e-12 * scale

    def test_hex_graph_gradients_finite(self):
        rng = np.random.default_rng(14)
        z, _ = random_rows(rng, 4)
        k = build_hex_graph(whole_batch_mask(8), 0.1)
        loss_of(k, z)
        assert np.isfinite(grad_of(k)).all()

    def test_barlow_graph(self):
        # The trainer's default var_eps moves the value by under 1e-9.
        rng = np.random.default_rng(15)
        za = rng.normal(size=(8, 4))
        zb = rng.normal(size=(8, 4))
        assert barlow(za, zb, 0.3, 0.1) == pytest.approx(oracle_barlow(za, zb, 0.3, 0.1),
                                                        rel=1e-9)
