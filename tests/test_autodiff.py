import zlib

import numpy as np
import pytest

from hexreg import autodiff, trainer
from hexreg.autodiff import _OPS, Tape, backward, forward
from hexreg.errors import NonFinite

H = 1e-5


def finite_diff(tape, inputs, build_value=None):
    """Central-difference gradients for every input node by mutating its
    value and re-running forward."""
    grads = []
    for node in inputs:
        base = node.value.copy()
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            node.value = base.copy()
            node.value[idx] = base[idx] + H
            up = forward(tape)
            node.value = base.copy()
            node.value[idx] = base[idx] - H
            down = forward(tape)
            g[idx] = (up - down) / (2.0 * H)
        node.value = base
        grads.append(g)
    forward(tape)
    return grads


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / denom.max(initial=1e-8)) \
        if analytic.size == 0 else float((np.abs(analytic - numeric) / denom).max())


class TestForward:
    def test_sum_of_normalized_row(self):
        t = Tape()
        x = t.input([[3.0, 4.0]])
        t.sum(t.row_l2_normalize(x))
        assert forward(t) == pytest.approx(1.4, abs=1e-12)

    def test_non_finite_identifies_node(self):
        t = Tape()
        x = t.input([[0.0]])
        t.scalar_mul(x, np.inf, name="bad_scale")
        with pytest.raises(NonFinite, match="bad_scale"):
            forward(t)

    def test_terminal_must_be_scalar(self):
        t = Tape()
        x = t.input([[1.0, 2.0]])
        t.tanh(x)
        with pytest.raises(ValueError):
            forward(t)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(4, 3))

        def run():
            t = Tape()
            x = t.input(vals)
            y = t.input(vals.T.copy())
            h = t.tanh(t.matmul(x, y))
            t.sum(t.kernel(_ProductKernel(), h, t.relu(h), t.rows(h, 0, 1)))
            loss = forward(t)
            backward(t)
            return loss, np.vstack((x.grad, y.grad.T))

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class _MaskedProduct:
    """sum over the entries a mask selects of a * b, as one kernel node; it
    records which parents its vjp was asked for."""

    def __init__(self, mask):
        self.mask, self.asked = mask, []

    def value(self, node, a, b):
        return (a * b * self.mask).sum().reshape(1, 1)

    def vjp(self, node, g, i):
        self.asked.append(i)
        return g[0, 0] * node.parents[1 - i].value * self.mask


def weighted_sum(t, a, w):
    """sum(a * w) for a constant weight array w."""
    return t.kernel(_MaskedProduct(w), a, t.constant(np.ones(w.shape)))


class TestBackwardBasics:
    def test_constants_and_masks_get_no_grad(self):
        t = Tape()
        x = t.input(np.full((2, 3), 1.5))
        c = t.constant(np.full((2, 3), 2.0))
        k = _MaskedProduct(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        from_c = t.scalar_mul(c, 3.0)
        t.sum(t.add(t.kernel(k, x, c), t.sum(from_c)))
        forward(t)
        backward(t)
        assert c.grad is None and from_c.grad is None and k.asked == [0]
        np.testing.assert_array_equal(x.grad, [[2.0, 0.0, 2.0], [0.0, 2.0, 0.0]])

    def test_relu_subgradient_zero_at_zero(self):
        t = Tape()
        x = t.input([[0.0, -1.0, 2.0]])
        t.sum(t.relu(x))
        forward(t)
        backward(t)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_broadcast_bias_grad(self):
        rng = np.random.default_rng(7)
        t = Tape()
        x = t.constant(rng.normal(size=(5, 3)))
        bias = t.input(rng.normal(size=(1, 3)))
        t.sum(t.tanh(t.add(x, bias)))
        forward(t)
        backward(t)
        assert bias.grad.shape == (1, 3)


def _graph_for_op(op, rng):
    """One small scalar-terminal graph per differentiable op."""
    t = Tape()
    if op == "add":
        a = t.input(rng.normal(size=(3, 4)))
        b = t.input(rng.normal(size=(3, 4)))
        t.sum(t.add(a, b))
        return t, [a, b]
    if op == "matmul":
        a = t.input(rng.normal(size=(3, 4)))
        b = t.input(rng.normal(size=(4, 2)))
        t.sum(t.matmul(a, b))
        return t, [a, b]
    if op == "scalar_mul":
        a = t.input(rng.normal(size=(3, 3)))
        t.sum(t.scalar_mul(a, -1.7))
        return t, [a]
    if op == "sum":
        a = t.input(rng.normal(size=(3, 3)))
        t.sum(a)
        return t, [a]
    if op == "row_l2_normalize":
        a = t.input(rng.normal(size=(3, 4)) + 2.0)
        t.sum(t.matmul(t.row_l2_normalize(a), t.constant(rng.normal(size=(4, 2)))))
        return t, [a]
    if op == "tanh":
        a = t.input(rng.normal(size=(3, 3)))
        t.sum(t.tanh(a))
        return t, [a]
    if op == "relu":
        a = t.input(rng.normal(size=(3, 3)) + 0.3)
        t.sum(t.relu(a))
        return t, [a]
    if op == "vstack":
        a = t.input(rng.normal(size=(2, 3)))
        b = t.input(rng.normal(size=(3, 3)))
        t.sum(t.matmul(t.vstack(a, b), t.constant(rng.normal(size=(3, 2)))))
        return t, [a, b]
    if op == "rows":
        a = t.input(rng.normal(size=(5, 3)))
        t.sum(t.matmul(t.rows(a, 1, 3), t.constant(rng.normal(size=(3, 2)))))
        return t, [a]
    if op == "kernel":
        a = t.input(rng.normal(size=(3, 4)))
        b = t.input(rng.normal(size=(3, 4)))
        c = t.input(rng.normal(size=(1, 4)))
        t.sum(t.kernel(_ProductKernel(), a, b, c))
        return t, [a, b, c]
    raise AssertionError(op)


class _ProductKernel:
    """a * exp(b) + c as one kernel node: three parents, a broadcast one
    among them, and a matrix value."""

    def value(self, node, a, b, c):
        self.exp_b = np.exp(b)
        return a * self.exp_b + c

    def vjp(self, node, g, i):
        a = node.parents[0].value
        return (g * self.exp_b, g * a * self.exp_b, g.sum(axis=0, keepdims=True))[i]


ALL_OPS = ["matmul", "add", "scalar_mul", "sum", "row_l2_normalize", "tanh",
           "relu", "vstack", "rows", "kernel"]


@pytest.mark.parametrize("op", ALL_OPS)
def test_gradient_check_every_op(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    t, inputs = _graph_for_op(op, rng)
    # keep relu inputs away from its kink so the FD stencil is valid
    if op == "relu":
        for node in inputs:
            v = node.value
            v[np.abs(v) < 10 * H] += 20 * H
    forward(t)
    backward(t)
    analytic = [n.grad.copy() for n in inputs]
    numeric = finite_diff(t, inputs)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert (np.abs(a - n) / denom).max() < 1e-5, op


def test_every_table_op_has_a_gradient_check():
    assert set(ALL_OPS) == set(_OPS)


def test_module_docstring_lists_the_leaves_and_the_table_ops():
    # The op list is the docstring's first indented block.
    block = autodiff.__doc__.split("\n\n    ", 1)[1].split("\n\n", 1)[0]
    listed = [name.strip() for name in block.split(",")]
    assert sorted(listed) == sorted(["input", "constant", *_OPS])


def test_shared_parameter_accumulates():
    t = Tape()
    x = t.input([[1.0, 2.0]])
    t.sum(t.add(x, x))
    forward(t)
    backward(t)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])


class TestPickAndVstack:
    """vstack and rows give the bits of the forms they replace: a stack
    built from two selector matmuls and an add, and a selector matmul."""

    def test_vstack_matches_selector_matmul_stack_bitwise(self):
        rng = np.random.default_rng(22)
        for n_top, n_bottom, d in ((1, 1, 1), (5, 5, 4), (3, 7, 2), (64, 64, 8)):
            top_val = rng.normal(size=(n_top, d))
            bottom_val = rng.normal(size=(n_bottom, d))
            w = rng.normal(size=(n_top + n_bottom, d))
            sel_a = np.zeros((n_top + n_bottom, n_top))
            sel_a[:n_top] = np.eye(n_top)
            sel_b = np.zeros((n_top + n_bottom, n_bottom))
            sel_b[n_top:] = np.eye(n_bottom)
            results = []
            for use_vstack in (True, False):
                t = Tape()
                top, bottom = t.input(top_val), t.input(bottom_val)
                if use_vstack:
                    out = t.vstack(top, bottom)
                else:
                    out = t.add(t.matmul(t.constant(sel_a), top),
                                t.matmul(t.constant(sel_b), bottom))
                weighted_sum(t, out, w)
                forward(t)
                backward(t)
                results.append((out.value, top.grad, bottom.grad))
            for new, old in zip(*results):
                np.testing.assert_array_equal(new, old)

    def test_rows_matches_selector_matmul_bitwise(self):
        rng = np.random.default_rng(23)
        for n, lo, hi, d in ((1, 0, 1, 1), (10, 0, 5, 4), (10, 7, 10, 2),
                             (10, 2, 6, 3), (128, 64, 128, 8), (128, 0, 64, 8)):
            a_val = rng.normal(size=(n, d))
            w = rng.normal(size=(hi - lo, d))
            sel = np.zeros((hi - lo, n))
            sel[:, lo:hi] = np.eye(hi - lo)
            results = []
            for use_rows in (True, False):
                t = Tape()
                a = t.input(a_val)
                out = t.rows(a, lo, hi) if use_rows else t.matmul(t.constant(sel), a)
                weighted_sum(t, out, w)
                forward(t)
                backward(t)
                results.append((out.value, a.grad))
            for new, old in zip(*results):
                assert new.shape == old.shape
                np.testing.assert_array_equal(new, old)


def test_gradient_shared_by_two_parents_is_not_mutated():
    # add(x, y) hands one gradient array to both x and y; u = 3x and v = 5y
    # are recorded earlier, so backward adds their contributions afterwards.
    # A gradient written in place would leak y's second contribution into x.
    t = Tape()
    x = t.input([[1.0, -2.0], [0.5, 3.0]])
    y = t.input([[4.0, 0.0], [-1.0, 2.0]])
    u = t.scalar_mul(x, 3.0)
    v = t.scalar_mul(y, 5.0)
    s = t.add(x, y)
    t.sum(t.add(s, t.add(u, v)))
    forward(t)
    backward(t)
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 4.0))
    np.testing.assert_array_equal(y.grad, np.full((2, 2), 6.0))
    np.testing.assert_array_equal(s.grad, np.ones((2, 2)))


class TestNonFinite:
    """A pass raises exactly when what its caller reads is non-finite (the
    loss, or an input's gradient), naming the first bad node."""

    def test_nan_reaching_the_loss_names_the_first_bad_node(self):
        t = Tape()
        x = t.input([[0.0, 2.0]])
        bad = t.scalar_mul(x, np.inf, name="bad_scale")
        t.sum(t.add(bad, t.constant([[1.0, 1.0]])))
        with pytest.raises(NonFinite, match=r"^non-finite value at node 1 \(bad_scale\)$"):
            forward(t)

    def test_gradient_that_becomes_inf_is_named(self):
        # the value 1e100 is finite; the gradient 1e200 * 1e200 overflows
        t = Tape()
        x = t.input([[1e-300]], name="w")
        scaled = t.scalar_mul(x, 1.0, name="scaled")
        t.sum(t.scalar_mul(t.scalar_mul(scaled, 1e200), 1e200))
        assert np.isfinite(forward(t))
        with pytest.raises(NonFinite, match=r"^non-finite gradient at node 1 \(scaled\)$"):
            backward(t)

    def test_non_finite_value_that_misses_the_loss_does_not_raise(self):
        t = Tape()
        x = t.input([[1.0]], name="w")
        t.sum(t.relu(t.scalar_mul(x, -np.inf)))
        assert forward(t) == 0.0
        # the loss is finite; w's gradient, 0 * -inf, is not
        with pytest.raises(NonFinite, match=r"^non-finite gradient at node 0 \(w\)$"):
            backward(t)

    def test_non_finite_gradient_that_misses_every_input_does_not_raise(self):
        t = Tape()
        w = t.input([[2.0]], name="w")
        c = t.constant([[1.0]])
        t.sum(t.add(w, t.relu(t.scalar_mul(c, -np.inf))))
        assert forward(t) == 2.0
        backward(t)
        np.testing.assert_array_equal(w.grad, [[1.0]])

    def test_earlier_non_finite_node_beats_a_zero_row(self):
        t = Tape()
        bad = t.scalar_mul(t.input([[0.0]]), np.inf, name="bad_scale")
        zero = t.row_l2_normalize(t.constant([[0.0, 0.0]]), name="zero_row")
        t.sum(t.add(zero, bad))
        with pytest.raises(NonFinite, match=r"^non-finite value at node 1 \(bad_scale\)$"):
            forward(t)

    def test_zero_row_alone_keeps_its_message(self):
        t = Tape()
        t.sum(t.row_l2_normalize(t.input([[1.0, 0.0], [0.0, 0.0]]), name="z"))
        with pytest.raises(NonFinite, match=r"^node 1 \(z\): zero row in normalize$"):
            forward(t)


def test_a_passing_train_step_checks_the_loss_and_each_parameter_gradient(monkeypatch):
    # Desk config: 4 x 4 x 100 rows x 32 dims, batch 64, MLP 32-64-16-32-8.
    cfg = trainer.TrainConfig.from_dict({"loss": {"kind": "simclr_hex"},
                                         "schedule": {"kind": "adaptive"},
                                         "data": {"seed": 1}})
    dataset = cfg.load_dataset()
    state = trainer.init_state(cfg, dataset.dim)
    checks = []
    real_check = autodiff._all_finite
    monkeypatch.setattr(autodiff, "_all_finite",
                        lambda a: checks.append(a.shape) or real_check(a))
    passes = []

    def counted(fn):
        def run(tape):
            before = len(checks)
            out = fn(tape)
            passes.append((fn.__name__, tape, len(checks) - before))
            return out
        return run

    monkeypatch.setattr(trainer, "forward", counted(autodiff.forward))
    monkeypatch.setattr(trainer, "backward", counted(autodiff.backward))
    trainer.train_epoch(state, dataset)
    assert len(passes) == 2 * 25
    for name, tape, n_checks in passes:
        n_inputs = sum(node.op == "input" for node in tape.nodes)
        assert n_inputs == 8
        if name == "forward":
            assert n_checks == 1
        else:
            assert 1 <= n_checks <= n_inputs
