import zlib

import numpy as np
import pytest

from hexreg import autodiff, trainer
from hexreg.autodiff import _OPS, Tape, backward, forward
from hexreg.errors import NonFinite
from hexreg.linalg import l2_normalize_rows
from hexreg.losses import LOSS_KINDS

H = 1e-5


class _WeightedSum:
    """sum(x * w) for a constant weight w, as one kernel node: the tests'
    scalar reducer. It counts the vjps it was asked for."""

    def __init__(self, w=1.0):
        self.w, self.asked = w, 0

    def value(self, x):
        self.shape = x.shape
        return (x * self.w).sum().reshape(1, 1)

    def vjp(self, g):
        self.asked += 1
        return np.full(self.shape, g[0, 0]) * self.w


def total(t, a, w=1.0):
    return t.kernel(_WeightedSum(w), a)


class _Scale:
    """x * c for a constant c, as one kernel node with a matrix value."""

    def __init__(self, c):
        self.c = c

    def value(self, x):
        return x * self.c

    def vjp(self, g):
        return g * self.c


class _UnitRowSum:
    """The sum of x's rows scaled to unit norm; like the HEX kernel, it
    raises NonFinite on a zero row. Its tests run forward only."""

    def value(self, x):
        return l2_normalize_rows(x).sum().reshape(1, 1)


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
        t.kernel(_UnitRowSum(), t.input([[3.0, 4.0]]))
        assert forward(t) == pytest.approx(1.4, abs=1e-12)

    def test_non_finite_value_passes_through(self):
        # 0 * inf is NaN; the tape neither raises nor warns.
        t = Tape()
        total(t, t.kernel(_Scale(np.inf), t.input([[0.0, 2.0]])))
        assert np.isnan(forward(t))

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
            total(t, t.kernel(_ProductKernel(vals[:1, :1]), t.add(h, t.relu(h))))
            loss = forward(t)
            backward(t)
            return loss, np.vstack((x.grad, y.grad.T))

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


class TestBackwardBasics:
    def test_constants_and_masks_get_no_grad(self):
        # A mask is an array a kernel holds; a kernel on a constant's
        # subgraph is never asked for its vjp.
        t = Tape()
        x = t.input(np.full((2, 3), 1.5))
        c = t.constant(np.full((2, 3), 2.0))
        masked = _WeightedSum(np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
        on_c = _WeightedSum()
        from_c = t.kernel(_Scale(3.0), c)
        total(t, t.add(t.kernel(masked, x), t.kernel(on_c, from_c)))
        forward(t)
        backward(t)
        assert c.grad is None and from_c.grad is None
        assert (masked.asked, on_c.asked) == (1, 0)
        np.testing.assert_array_equal(x.grad, [[2.0, 0.0, 2.0], [0.0, 2.0, 0.0]])

    def test_relu_subgradient_zero_at_zero(self):
        t = Tape()
        x = t.input([[0.0, -1.0, 2.0]])
        total(t, t.relu(x))
        forward(t)
        backward(t)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_broadcast_bias_grad(self):
        rng = np.random.default_rng(7)
        t = Tape()
        x = t.constant(rng.normal(size=(5, 3)))
        bias = t.input(rng.normal(size=(1, 3)))
        total(t, t.tanh(t.add(x, bias)))
        forward(t)
        backward(t)
        assert bias.grad.shape == (1, 3)


def _graph_for_op(op, rng):
    """One small scalar-terminal graph per differentiable op."""
    t = Tape()
    if op == "add":
        a = t.input(rng.normal(size=(3, 4)))
        b = t.input(rng.normal(size=(3, 4)))
        total(t, t.add(a, b))
        return t, [a, b]
    if op == "matmul":
        a = t.input(rng.normal(size=(3, 4)))
        b = t.input(rng.normal(size=(4, 2)))
        total(t, t.matmul(a, b))
        return t, [a, b]
    if op == "tanh":
        a = t.input(rng.normal(size=(3, 3)))
        total(t, t.tanh(a))
        return t, [a]
    if op == "relu":
        a = t.input(rng.normal(size=(3, 3)) + 0.3)
        total(t, t.relu(a))
        return t, [a]
    if op == "kernel":
        a = t.input(rng.normal(size=(3, 4)))
        total(t, t.kernel(_ProductKernel(rng.normal(size=(1, 4))), a),
              rng.normal(size=(3, 4)))
        return t, [a]
    raise AssertionError(op)


class _ProductKernel:
    """x * exp(x) + c for a constant c that broadcasts over x, as one kernel
    node with a matrix value."""

    name = "product"

    def __init__(self, c):
        self.c = c

    def value(self, x):
        self.x, self.exp_x = x, np.exp(x)
        return x * self.exp_x + self.c

    def vjp(self, g):
        return g * (1.0 + self.x) * self.exp_x


ALL_OPS = ["matmul", "add", "tanh", "relu", "kernel"]


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
    total(t, t.add(x, x))
    forward(t)
    backward(t)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])


def test_gradient_shared_by_two_parents_is_not_mutated():
    # add(x, y) hands one gradient array to both x and y; u = 3x and v = 5y
    # are recorded earlier, so backward adds their contributions afterwards.
    # A gradient written in place would leak y's second contribution into x.
    t = Tape()
    x = t.input([[1.0, -2.0], [0.5, 3.0]])
    y = t.input([[4.0, 0.0], [-1.0, 2.0]])
    u = t.kernel(_Scale(3.0), x)
    v = t.kernel(_Scale(5.0), y)
    s = t.add(x, y)
    total(t, t.add(s, t.add(u, v)))
    forward(t)
    backward(t)
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 4.0))
    np.testing.assert_array_equal(y.grad, np.full((2, 2), 6.0))
    np.testing.assert_array_equal(s.grad, np.ones((2, 2)))


class TestNonFinite:
    """The tape only computes: a NaN or Inf passes through forward and
    backward as numpy makes it, and the only error a pass raises is one a
    kernel raises itself. What is at fault is the caller's to say."""

    def test_non_finite_value_that_misses_the_loss_does_not_raise(self):
        t = Tape()
        x = t.input([[1.0]])
        total(t, t.relu(t.kernel(_Scale(-np.inf), x)))
        assert forward(t) == 0.0
        # the loss is finite; w's gradient, 0 * -inf, is not
        backward(t)
        assert np.isnan(x.grad).all()

    def test_non_finite_gradient_that_misses_every_input_does_not_raise(self):
        t = Tape()
        w = t.input([[2.0]])
        c = t.constant([[1.0]])
        total(t, t.add(w, t.relu(t.kernel(_Scale(-np.inf), c))))
        assert forward(t) == 2.0
        backward(t)
        np.testing.assert_array_equal(w.grad, [[1.0]])

    def test_zero_row_alone_keeps_its_message(self):
        # A kernel's own NonFinite passes through as the kernel raised it.
        t = Tape()
        t.kernel(_UnitRowSum(), t.input([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(NonFinite, match=r"^row 1 has norm 0\.000e\+00 <= 1e-12$"):
            forward(t)


def test_a_passing_train_step_checks_the_loss_and_each_parameter_gradient(monkeypatch):
    # The tape checks nothing, so the trainer does. Desk config: 4 x 4 x 100
    # rows x 32 dims, batch 64, MLP 32-64-16-32-8. One non-finite entry in
    # any of the eight parameter gradients of a passing backward fails the
    # step, named with its layer, and with all eight bad the last layer's
    # weight is named; a NaN loss is named by its term.
    cfg = trainer.TrainConfig.from_dict({"loss": {"kind": "simclr_hex"},
                                         "schedule": {"kind": "adaptive"},
                                         "data": {"seed": 1}})
    dataset = cfg.load_dataset()
    names = [f"{kind}{i}" for kind in "wb" for i in range(4)]
    cases = [([name], name) for name in names] + [(names, "w3")]
    for bad, named in cases:
        state = trainer.init_state(cfg, dataset.dim)
        params = dict(zip(names, state.params.weights + state.params.biases))
        before = {name: a.copy() for name, a in params.items()}

        def poisoned(tape):
            backward(tape)
            for node in tape.nodes:
                if any(node.value is params[name] for name in bad):
                    node.grad = node.grad.copy()
                    node.grad[-1, -1] = np.inf

        monkeypatch.setattr(trainer, "backward", poisoned)
        with pytest.raises(NonFinite, match=rf"^epoch 1, batch 0: the gradient of "
                                            rf"{named} \(layer {named[1]}\) is not finite$"):
            trainer.train_epoch(state, dataset)
        for name, a in params.items():
            assert a.tobytes() == before[name].tobytes(), (bad, name)
    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "forward", lambda tape: forward(tape) * np.nan)
    with pytest.raises(NonFinite, match=r"^epoch 1, batch 0: the hex_loss term is nan$"):
        trainer.train_epoch(trainer.init_state(cfg, dataset.dim), dataset)


def test_training_steps_record_every_table_op_and_no_other(monkeypatch):
    # One tiny step of each loss kind; together they use the whole table,
    # so no op can live in the package for the tests alone.
    recorded = set()

    def spy(tape):
        recorded.update(node.op for node in tape.nodes)
        return autodiff.forward(tape)

    monkeypatch.setattr(trainer, "forward", spy)
    for kind in LOSS_KINDS:
        cfg = trainer.TrainConfig.from_dict({
            "data": {"n_super": 2, "classes_per_super": 2, "samples_per_class": 2,
                     "input_dim": 6, "seed": 5},
            "model": {"encoder_hidden": [8], "repr_dim": 5, "proj_hidden": 6,
                      "proj_dim": 4},
            "loss": {"kind": kind}, "optimizer": {"lr": 0.0},
            "train": {"epochs": 1, "batch_size": 8}})
        dataset = cfg.load_dataset()
        trainer.train_epoch(trainer.init_state(cfg, dataset.dim), dataset)
    assert recorded == set(_OPS) | {"input", "constant"}
