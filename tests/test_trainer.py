import copy
import dataclasses
import gc
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from hexreg import autodiff, trainer
from hexreg.autodiff import Tape, forward
from hexreg.data import GenParams, augment_batch, generate
from hexreg.errors import (BadConfig, IoError, NonFinite, SchemaError,
                           VersionMismatch, ZeroMatrix)
from hexreg.hierarchy import whole_batch_mask
from hexreg.linalg import l2_normalize_rows
from hexreg.losses import LOSS_KINDS, build_info_nce_graph
from hexreg.rng import Rng, child_keys
from hexreg.trainer import (ModelConfig, TrainConfig, build_model_graph,
                            evaluate, init_params, init_state,
                            load_checkpoint, mlp_forward, run_training,
                            save_checkpoint, train_epoch)


def tiny_config(**over):
    raw = {
        "data": {"n_super": 2, "classes_per_super": 2, "samples_per_class": 8,
                 "input_dim": 6, "sigma_super": 2.0, "sigma_class": 1.0,
                 "sigma_sample": 0.4, "seed": 5},
        "model": {"encoder_hidden": [8], "repr_dim": 5, "proj_hidden": 16,
                  "proj_dim": 4},
        "loss": {"kind": "simclr"},
        "optimizer": {"lr": 0.05},
        "augment": {"noise_sigma": 0.2, "mask_prob": 0.1},
        "schedule": {"kind": "adaptive"},
        "train": {"epochs": 3, "batch_size": 8, "seed": 1, "eval_every": 3,
                  "rank_subsets": 3, "rank_subset_size": 8, "knn_k": 3},
    }
    for key, sub in over.items():
        raw.setdefault(key, {}).update(sub)
    return TrainConfig.from_dict(raw)


def eligible(b):
    """The eligible-pair index a training step on b samples is given."""
    return np.flatnonzero(whole_batch_mask(2 * b))


def metrics_text(rows):
    from hexreg.data import csv_text
    from hexreg.trainer import METRICS_COLUMNS
    return csv_text(METRICS_COLUMNS, ([row.get(c) for c in METRICS_COLUMNS]
                                      for row in rows))


class TestInitParams:
    def test_deterministic(self):
        m = ModelConfig(encoder_hidden=[8], repr_dim=5, proj_hidden=6, proj_dim=4)
        a = init_params(m, 6, seed=3)
        b = init_params(m, 6, seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        m = ModelConfig()
        p = init_params(m, 10, seed=0)
        for b in p.biases:
            assert not b.any()

    def test_weight_bound_32_to_16(self):
        m = ModelConfig(encoder_hidden=[16], repr_dim=4, proj_hidden=4, proj_dim=2)
        p = init_params(m, 32, seed=7)
        w = p.weights[0]           # 32 -> 16 layer
        bound = np.sqrt(6.0 / (32 + 16))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.8 * bound      # actually fills the range


class TestForwardParity:
    def test_plain_forward_matches_graph_bitwise(self):
        cfg = tiny_config()
        ds = generate(cfg.data)
        params = init_params(cfg.model, ds.dim, seed=2)
        xa, xb = ds.x[:5], ds.x[5:10]
        ra, ya = mlp_forward(params, xa)
        rb, yb = mlp_forward(params, xb)
        z_plain = l2_normalize_rows(np.vstack([ya, yb]))

        t = Tape()
        w, b, gr, gy = build_model_graph(t, params, np.vstack([xa, xb]))
        k = build_info_nce_graph(10, 0.1)
        t.kernel(k, gy)
        forward(t)
        assert np.array_equal(gr.value, np.vstack([ra, rb]))
        assert np.array_equal(gy.value, np.vstack([ya, yb]))
        assert np.array_equal(k.z, z_plain)


class TestTrainEpoch:
    @pytest.mark.parametrize("kind", ["barlow", "vicreg", "simclr_hex", "barlow_hex",
                                      "vicreg_hex"])
    def test_desk_dim_step_records_at_most_22_nodes(self, kind, monkeypatch):
        # Desk model and batch: 19 model nodes, then the loss as one kernel
        # node on the projector output; a combined kind mixes its two
        # losses inside that kernel.
        cfg = trainer.TrainConfig.from_dict({"loss": {"kind": kind},
                                             "data": {"samples_per_class": 8}})
        ds = cfg.load_dataset()
        tapes = []
        monkeypatch.setattr(trainer, "forward",
                            lambda tape: tapes.append(tape) or forward(tape))
        train_epoch(init_state(cfg, ds.dim), ds)
        assert [len(t.nodes) for t in tapes] == [20] * 2
        for t in tapes:
            assert [n.op for n in t.nodes].count("kernel") == 1
            assert t.nodes[-1].op == "kernel"

    @pytest.mark.parametrize("kind", ["simclr_hex", "nnclr_hex", "barlow_hex"])
    def test_a_desk_epoch_leaves_no_reference_cycles(self, kind):
        # A step's tape, nodes and kernels must be freed by reference
        # counting alone: a cycle through them would keep every step's
        # arrays alive until the collector ran, and peak memory with them.
        cfg = trainer.TrainConfig.from_dict({"loss": {"kind": kind}})
        ds = cfg.load_dataset()
        state = init_state(cfg, ds.dim)
        gc.collect()
        gc.disable()
        try:
            train_epoch(state, ds)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_lr_leaves_params_unchanged(self):
        cfg = tiny_config(optimizer={"lr": 0.0})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        before = [w.copy() for w in state.params.weights]
        train_epoch(state, ds)
        for w0, w1 in zip(before, state.params.weights):
            assert np.array_equal(w0, w1)

    def test_zero_projector_row_names_epoch_batch_and_row(self):
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        state.params.weights[-1][:] = 0.0
        state.params.biases[-1][:] = 0.0
        with pytest.raises(NonFinite, match=r"^epoch 1, batch 0: row 0 has norm "
                                            r"0\.000e\+00 <= 1e-12; the rows are the "
                                            r"output of layer 3 \(w3, b3\)$"):
            train_epoch(state, ds)

    def test_every_numerical_error_names_epoch_and_batch(self):
        # The plain forward's embeddings are finite, but their norms
        # overflow; the normalization rejects them before the tape runs,
        # and no layer outputs a NaN or Inf, so the last layer is named.
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        state.params.weights[-1][:] = 1e200
        with pytest.raises(NonFinite, match=r"^epoch 1, batch 0: row 0 has a "
                                            r"non-finite norm \(inf\); the rows are the "
                                            r"output of layer 3 \(w3, b3\)$"):
            train_epoch(state, ds)

    @staticmethod
    def _failing_run(monkeypatch, breaks, kind="simclr", builder="build_info_nce_graph"):
        """Train a tiny run of ``kind``, 4 steps per epoch, whose global
        step 5 (epoch 2, batch 1) has the kernel that ``trainer.<builder>``
        returns edited by ``breaks``. Returns the message of the NonFinite
        raised there, and the bytes of every parameter and momentum before
        and after that step."""
        cfg = tiny_config(loss={"kind": kind})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)

        def arrays():
            return [a.tobytes() for a in state.params.weights + state.params.biases
                    + state.mom_w + state.mom_b]

        real, built, before = getattr(trainer, builder), [], []

        def build(*args, **kwargs):
            k = real(*args, **kwargs)
            built.append(k)
            if len(built) == 6:
                before.extend(arrays())
                breaks(k)
            return k

        monkeypatch.setattr(trainer, builder, build)
        with pytest.raises(NonFinite) as err:
            for _ in range(2):
                train_epoch(state, ds)
        return str(err.value), before, arrays()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_a_non_finite_loss_names_its_term(self, monkeypatch, value):
        def returns_value(k):
            k.value = lambda y: np.full((1, 1), value)

        message, before, after = self._failing_run(monkeypatch, returns_value)
        assert message == f"epoch 2, batch 1: the hex_loss term is {value}"
        assert after == before

    @pytest.mark.parametrize("values,term", [
        ((None, np.nan), "barlow_loss term is nan"),
        ((np.inf, None), "hex_loss term is inf"),
        ((np.inf, np.nan), "hex_loss term is inf")])
    def test_a_combined_kind_names_its_first_non_finite_part(self, monkeypatch, values,
                                                             term):
        # barlow_hex mixes hex_loss and barlow_loss; a None keeps the part's
        # own value, and the HEX part is named first.
        def returns_values(mix):
            for k, v in zip(mix.parts, values):
                if v is not None:
                    k.value = lambda y, v=v: np.full((1, 1), v)

        message, before, after = self._failing_run(monkeypatch, returns_values,
                                                   "barlow_hex", "build_combined_graph")
        assert message == f"epoch 2, batch 1: the {term}"
        assert after == before

    def test_a_non_finite_gradient_names_its_parameter_and_layer(self, monkeypatch):
        # The loss is finite, but one entry of its gradient at y is inf; the
        # last layer's gradients are the first to hold it.
        def inf_gradient(k):
            vjp = k.vjp

            def bad_vjp(g):
                g_y = vjp(g)
                g_y[0, 0] = np.inf
                return g_y
            k.vjp = bad_vjp

        message, before, after = self._failing_run(monkeypatch, inf_gradient)
        assert message == "epoch 2, batch 1: the gradient of w3 (layer 3) is not finite"
        assert after == before

    @pytest.mark.parametrize("layer", [0, 2, 3])
    def test_a_non_finite_plain_forward_names_its_first_layer(self, layer):
        # A NaN bias makes every later layer's output NaN too; numpy
        # warns of none of it.
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        state.params.biases[layer][0, 0] = np.nan
        with pytest.raises(NonFinite, match=(
                rf"^epoch 1, batch 0: matrix contains NaN or Inf entries; the first "
                rf"layer to output one is layer {layer} \(w{layer}, b{layer}\)$")):
            train_epoch(state, ds)

    def test_an_overflowing_plain_forward_names_its_first_layer(self):
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        # Each of the 16 projector hidden units reads about 10, so the last
        # layer's sums overflow.
        state.params.biases[2][:] = 10.0
        state.params.weights[3][:] = 1e308
        with pytest.raises(NonFinite, match=r"; the first layer to output one is "
                                            r"layer 3 \(w3, b3\)$"):
            train_epoch(state, ds)

    def test_diagnostics_error_names_the_epoch(self):
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        for a in state.params.weights + state.params.biases:
            a[:] = 0.0
        with pytest.raises(ZeroMatrix, match=r"^epoch 4, diagnostics: effective "
                                             r"rank of the zero matrix"):
            trainer.run_diagnostics(state, ds, 4)

    @staticmethod
    def _state_whose_representations_overflow():
        """A tiny state whose encoder outputs Inf: every hidden unit reads
        tanh(1), and the linear representation head sums 8 of them at 1e308."""
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        state.params.weights[0][:] = 0.0
        state.params.biases[0][:] = 1.0
        state.params.weights[1][:] = 1e308
        assert np.isinf(mlp_forward(state.params, ds.x)[0]).all()
        return state, ds

    def test_diagnostics_refuse_infinite_representations(self, monkeypatch):
        # The kernels take r as given; the pass checks it once, on entry,
        # so no SVD sees an Inf (LAPACK would return NaN for it).
        def no_svd(m):
            raise AssertionError("an SVD was given the unchecked representations")

        monkeypatch.setattr(trainer.diag, "singular_values", no_svd)
        state, ds = self._state_whose_representations_overflow()
        with pytest.raises(NonFinite, match=r"^epoch 4, diagnostics: matrix contains "
                                            r"NaN or Inf entries$"):
            trainer.run_diagnostics(state, ds, 4)

    def test_evaluate_refuses_infinite_representations(self):
        state, ds = self._state_whose_representations_overflow()
        with pytest.raises(NonFinite, match=r"^matrix contains NaN or Inf entries$"):
            evaluate(state, ds, "knn_class")

    def test_zero_representation_row_is_diagnosed(self):
        # A zero input row with zero encoder biases has a zero representation
        # row; the projector's hidden bias keeps its projection row nonzero.
        # Only the projection's similarities need unit rows, so the pass runs.
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        ds.x[0] = 0.0
        state.params.biases[-2][:] = 1.0    # the projector's hidden layer
        r, y = mlp_forward(state.params, ds.x)
        assert not r[0].any() and np.all(np.linalg.norm(y, axis=1) > 0)
        row = trainer.run_diagnostics(state, ds, 4)
        assert all(np.isfinite(row[k]) for k in ("rankme_super", "rankme_random",
                                                 "knn_class", "knn_super"))

    def test_nnclr_step_reads_the_second_view(self):
        cfg = tiny_config(loss={"kind": "nnclr"}, optimizer={"lr": 0.0})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        train_epoch(state, ds)
        assert len(state.queue) > 0
        xa, xb, other_xb = (augment_batch(ds.x[:8], 0.2, 0.1, np.arange(8) + 8 * k)
                            for k in range(3))
        supers = ds.superclass_labels[:8]
        losses = [trainer._train_step(copy.deepcopy(state), np.vstack((xa, b)), supers,
                                      0.0, 1, eligible(8))["loss_total"]
                  for b in (xb, other_xb)]
        assert losses[0] != losses[1]

    @staticmethod
    def _queue_run(monkeypatch):
        """One tiny nnclr epoch, 4 steps of 8 rows, with queue_capacity 12.
        Returns, per step, the normalized rows z of the step's plain
        forward and the state's queue array just after the step."""
        cfg = tiny_config(loss={"kind": "nnclr"}, train={"queue_capacity": 12})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        zs, queues = [], []
        real_norm, real_step = trainer.l2_normalize_rows, trainer._train_step

        def norm(y):
            zs.append(real_norm(y))
            return zs[-1]

        def step(state, *rest):
            row = real_step(state, *rest)
            queues.append(state.queue)
            return row

        monkeypatch.setattr(trainer, "l2_normalize_rows", norm)
        monkeypatch.setattr(trainer, "_train_step", step)
        assert state.queue.shape == (0, 4)
        train_epoch(state, ds)
        return zs, queues

    def test_the_nn_queue_evicts_its_oldest_rows_first(self, monkeypatch):
        # Each step pushes its view-b rows, z[8:]; the queue keeps the last
        # 12 rows pushed, oldest first.
        zs, queues = self._queue_run(monkeypatch)
        assert [len(q) for q in queues] == [8, 12, 12, 12]
        for k, q in enumerate(queues):
            pushed = np.concatenate([z[8:] for z in zs[:k + 1]])
            assert q.dtype == np.float64
            assert q.tobytes() == pushed[-12:].tobytes()

    def test_the_nn_queue_push_copies_the_rows(self, monkeypatch):
        # A push makes a new array: no step writes into an earlier step's
        # queue, and the queue shares no memory with the rows it was given.
        zs, queues = self._queue_run(monkeypatch)
        want = [q.copy() for q in queues]
        for z in zs:
            z[:] = 0.0
        for q, w in zip(queues, want):
            assert q.tobytes() == w.tobytes()
        assert not any(np.shares_memory(a, b) for a, b in zip(queues, queues[1:]))

    def test_an_nn_step_on_an_empty_queue_is_info_nce(self):
        # With no queue rows there are no neighbours: the step is simclr's
        # at the same tau, bit for bit, and then fills the queue.
        cfgs = [tiny_config(loss={"kind": kind, "tau": 0.1}) for kind in ("nnclr", "simclr")]
        ds = generate(cfgs[0].data)
        states = [init_state(cfg, ds.dim) for cfg in cfgs]
        views = augment_batch(np.vstack((ds.x[:8], ds.x[:8])), 0.2, 0.1, np.arange(16))
        rows = [trainer._train_step(st, views, ds.superclass_labels[:8], 0.05, 0,
                                    eligible(8)) for st in states]
        assert rows[0] == rows[1]
        nn_arrays = state_bytes(states[0])
        assert nn_arrays.pop("queue") == states[0].queue.tobytes()
        assert nn_arrays == state_bytes(states[1])
        assert states[0].queue.shape == (8, 4) and states[1].queue is None

    def test_views_take_even_and_odd_step_keys(self, monkeypatch):
        # View a of batch row i is augmented with step key 2i, view b with
        # key 2i + 1, whatever way the epoch batches its augmentation calls.
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        seen = []
        real_step = trainer._train_step

        def spy(state, views, *rest):
            seen.append(views.copy())
            return real_step(state, views, *rest)

        monkeypatch.setattr(trainer, "_train_step", spy)
        train_epoch(state, ds)
        ep = Rng.from_seed(cfg.train.seed).child(1).child(0)
        order = list(range(ds.n_samples))
        ep.child(0).shuffle(order)
        bsz = cfg.train.batch_size
        assert len(seen) == ds.n_samples // bsz
        for step, views in enumerate(seen):
            xa, xb = views[:bsz], views[bsz:]
            assert views.shape[0] == 2 * bsz
            x = ds.x[order[step * bsz:(step + 1) * bsz]]
            keys = child_keys(ep.child(1).child(step).key, 2 * bsz)
            for view, k in ((xa, keys[0::2]), (xb, keys[1::2])):
                want = augment_batch(x, cfg.augment.noise_sigma,
                                     cfg.augment.mask_prob, k)
                assert np.array_equal(view, want)

    @pytest.mark.parametrize("kind", ["simclr", "simclr_hex", "nnclr", "nnclr_hex",
                                      "barlow", "barlow_hex", "vicreg", "vicreg_hex"])
    def test_stacked_step_matches_the_two_view_graph(self, kind, monkeypatch):
        # The old model graph: one subgraph per view. Its outputs are
        # stacked with selector matmuls so the step's loss code can read
        # them; a selector matmul copies values exactly.
        def two_view_graph(tape, params, x):
            b = x.shape[0] // 2
            w_nodes = [tape.input(w) for w in params.weights]
            b_nodes = [tape.input(c) for c in params.biases]
            n_enc = len(params.weights) - 2
            outs = []
            for v in (x[:b], x[b:]):
                h = tape.constant(v)
                for i in range(n_enc):
                    h = tape.add(tape.matmul(h, w_nodes[i]), b_nodes[i])
                    if i < n_enc - 1:
                        h = tape.tanh(h)
                p = tape.relu(tape.add(tape.matmul(h, w_nodes[n_enc]), b_nodes[n_enc]))
                outs.append((h, tape.add(tape.matmul(p, w_nodes[n_enc + 1]),
                                         b_nodes[n_enc + 1])))
            top, bottom = np.eye(2 * b)[:, :b], np.eye(2 * b)[:, b:]

            def stack(u, v):
                return tape.add(tape.matmul(tape.constant(top), u),
                                tape.matmul(tape.constant(bottom), v))

            (ra, ya), (rb, yb) = outs
            return w_nodes, b_nodes, stack(ra, rb), stack(ya, yb)

        cfg = tiny_config(loss={"kind": kind}, optimizer={"lr": 0.01})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        train_epoch(state, ds)     # a trained state, with a filled NN queue
        views = augment_batch(np.vstack((ds.x[:8], ds.x[:8])), 0.2, 0.1, np.arange(16))
        tapes = []
        monkeypatch.setattr(trainer, "backward",
                            lambda tape: autodiff.backward(tape) or tapes.append(tape))
        losses = []
        for build in (build_model_graph, two_view_graph):
            monkeypatch.setattr(trainer, "build_model_graph", build)
            losses.append(trainer._train_step(copy.deepcopy(state), views,
                                              ds.superclass_labels[:8], 0.0, 1,
                                              eligible(8))["loss_total"])
        assert losses[0] == losses[1]
        stacked, two_view = ([n.grad for n in t.nodes if n.op == "input"] for t in tapes)
        assert len(stacked) == len(two_view) == 8
        scale = max(np.linalg.norm(g) for g in two_view)
        for new, old in zip(stacked, two_view):
            assert np.abs(new - old).max() <= 1e-12 * scale

    def test_bitwise_deterministic_runs(self):
        cfg = tiny_config()
        rows1, _, _ = run_training(cfg)
        rows2, _, _ = run_training(cfg)
        assert metrics_text(rows1) == metrics_text(rows2)

    def test_single_step_matches_finite_differences(self):
        cfg = tiny_config(train={"epochs": 1, "batch_size": 16, "seed": 4},
                          optimizer={"lr": 0.01, "momentum": 0.0})
        ds = generate(cfg.data)   # 32 samples -> two batches of 16

        # reproduce the first batch exactly as train_epoch builds it
        state = init_state(cfg, ds.dim)
        p0 = copy.deepcopy(state.params)
        ep = Rng.from_seed(cfg.train.seed).child(1).child(0)
        order = list(range(ds.n_samples))
        ep.child(0).shuffle(order)
        idx = order[:16]
        keys = child_keys(ep.child(1).child(0).key, 32)
        views = augment_batch(np.vstack((ds.x[idx], ds.x[idx])), cfg.augment.noise_sigma,
                              cfg.augment.mask_prob,
                              np.concatenate((keys[0::2], keys[1::2])))

        def loss_at(params):
            t = Tape()
            _, _, _, y = build_model_graph(t, params, views)
            t.kernel(build_info_nce_graph(32, cfg.loss.tau), y)
            return forward(t)

        # with momentum 0, one real step moves the weights by -lr * gradient
        h = 1e-5
        state3 = init_state(cfg, ds.dim)
        trainer._train_step(state3, views, ds.superclass_labels[idx], cfg.optimizer.lr, 0,
                            eligible(16))
        delta = [(w1 - w0) / -cfg.optimizer.lr
                 for w0, w1 in zip(p0.weights, state3.params.weights)]
        for li in (0, len(p0.weights) - 1):
            w = p0.weights[li]
            fd = np.zeros_like(w)
            flat = [(i, j) for i in range(w.shape[0]) for j in range(w.shape[1])]
            rng = np.random.default_rng(0)
            picks = [flat[k] for k in rng.choice(len(flat), size=12, replace=False)]
            for (i, j) in picks:
                pp = copy.deepcopy(p0)
                pp.weights[li][i, j] += h
                up = loss_at(pp)
                pp.weights[li][i, j] -= 2 * h
                down = loss_at(pp)
                fd[i, j] = (up - down) / (2 * h)
                a, n = delta[li][i, j], fd[i, j]
                denom = max(abs(a), abs(n), 1e-8)
                assert abs(a - n) / denom < 1e-5


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGrowth:
    """Peaks of a desk simclr_hex epoch and of a diagnostics pass at 1600,
    3200 and 6400 rows (the desk data with 100, 200 and 400 samples per
    class). An epoch holds one batch at a time, so its peak barely grows
    with the data; a pass holds a few N x 128 blocks, so its peak may grow
    linearly but not as N x N (which would quadruple it as N doubles)."""

    @pytest.fixture(scope="class")
    def peaks(self):
        out = {}
        for n in (1600, 3200, 6400):
            cfg = TrainConfig.from_dict({"loss": {"kind": "simclr_hex"},
                                         "data": {"samples_per_class": n // 16}})
            ds = cfg.load_dataset()
            state = init_state(cfg, ds.dim)
            out[n] = (traced_peak(lambda: train_epoch(state, ds)),
                      traced_peak(lambda: trainer.run_diagnostics(state, ds, 1)))
        return out

    def test_an_epoch_peak_does_not_grow_with_the_data(self, peaks):
        # Measured: 1.06, 1.09 and 1.13 MB.
        assert peaks[3200][0] <= 1.1 * peaks[1600][0]
        assert peaks[6400][0] <= 1.1 * peaks[1600][0]

    def test_a_diagnostics_peak_grows_at_most_linearly(self, peaks):
        # Measured: 4.8, 7.6 and 15.2 MB.
        assert peaks[3200][1] <= 2.2 * peaks[1600][1]
        assert peaks[6400][1] <= 2.2 * peaks[3200][1]


class TestEvaluate:
    def test_chance_level_untrained(self):
        # features carry no label information -> accuracy near 1/L
        from hexreg.data import HierarchicalDataset
        accs = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(120, 6))
            cls = np.tile(np.arange(4), 30)
            cfg = tiny_config(train={"seed": seed})
            ds = HierarchicalDataset(x, cls, cls // 2)
            state = init_state(cfg, ds.dim)
            accs.append(evaluate(state, ds, "knn_class", k=1))
        assert np.mean(accs) == pytest.approx(0.25, abs=0.1)

    def test_probe_selects_labels(self):
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        a = evaluate(state, ds, "knn_class", k=3)
        b = evaluate(state, ds, "knn_super", k=3)
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0

    def test_k_too_large(self):
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        with pytest.raises(Exception):
            evaluate(state, ds, "knn_class", k=10 ** 6)


def state_bytes(state):
    """name -> bytes of every array a checkpoint holds, the NN queue included."""
    return {name: a.tobytes() for name, a in trainer._state_arrays(state)}


class TestCheckpointing:
    # The kinds that train at tiny_config's defaults.
    @pytest.mark.parametrize("kind", ["simclr", "simclr_hex", "nnclr", "nnclr_hex",
                                      "barlow", "barlow_hex"])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, kind):
        cfg = tiny_config(loss={"kind": kind}, train={"epochs": 4})
        full_rows, _, full_state = run_training(cfg)

        out = str(tmp_path / "run")
        run_training(cfg, out_dir=out, checkpoint_every=2)
        ckpt = os.path.join(out, "ckpt_000002.bin")
        assert os.path.exists(ckpt)
        rows_b, _, state_b = run_training(cfg, out_dir=out, resume_from=ckpt)
        assert metrics_text(rows_b) == metrics_text(full_rows)
        full = state_bytes(full_state)
        assert state_bytes(state_b) == full
        assert ("queue" in full) == cfg.loss.uses_queue

    def test_rows_of_finished_epochs_survive_a_failing_epoch(self, tmp_path,
                                                             monkeypatch):
        cfg = tiny_config(train={"epochs": 4, "eval_every": 1})
        full_rows, _, _ = run_training(cfg)
        out = str(tmp_path / "run")
        path = os.path.join(out, "metrics.csv")
        real_epoch = trainer.train_epoch

        def third_epoch_fails(state, dataset):
            if state.epoch == 2:
                raise NonFinite("epoch 3, batch 0: injected")
            return real_epoch(state, dataset)

        monkeypatch.setattr(trainer, "train_epoch", third_epoch_fails)
        with pytest.raises(NonFinite, match="injected"):
            run_training(cfg, out_dir=out, checkpoint_every=1)
        on_disk = trainer.read_metrics_csv(path)
        assert metrics_text(on_disk) == metrics_text(full_rows[:2])

        # The resumed run starts after epoch 2, so its first two rows can
        # only come from the file.
        monkeypatch.setattr(trainer, "train_epoch", real_epoch)
        rows, _, _ = run_training(cfg, out_dir=out,
                                  resume_from=os.path.join(out, "ckpt_000002.bin"))
        assert rows[:2] == on_disk
        assert metrics_text(rows) == metrics_text(full_rows)
        assert metrics_text(trainer.read_metrics_csv(path)) == metrics_text(full_rows)

    def test_resume_refuses_a_changed_loss_tau(self, tmp_path):
        cfg = tiny_config(train={"epochs": 4})
        out = str(tmp_path / "run")
        run_training(cfg, out_dir=out, checkpoint_every=2)
        ckpt = os.path.join(out, "ckpt_000002.bin")
        changed = tiny_config(train={"epochs": 4}, loss={"tau": 0.2})
        with pytest.raises(BadConfig, match=r"differs on loss\.tau 0\.1 != 0\.2; only"):
            run_training(changed, out_dir=out, resume_from=ckpt)

    def test_resume_accepts_a_changed_epoch_count(self, tmp_path):
        out = str(tmp_path / "run")
        run_training(tiny_config(train={"epochs": 2}), out_dir=out,
                     checkpoint_every=1)
        longer = tiny_config(train={"epochs": 4})
        rows, _, state = run_training(longer, out_dir=out,
                                      resume_from=os.path.join(out, "ckpt_000001.bin"))
        assert [r["epoch"] for r in rows] == [1, 2, 3, 4]
        assert state.config.train.epochs == 4

    @pytest.mark.parametrize("override", [
        {"optimizer": {"cosine_lr": True}},
        {"schedule": {"kind": "cos", "start": 0.9, "floor": 0.5}}])
    def test_resume_refuses_a_changed_epoch_count_that_is_read_mid_run(self, tmp_path,
                                                                       override):
        # The cosine lr and a cos schedule read train.epochs every epoch,
        # so the resumed rows would match no run.
        out = str(tmp_path / "run")
        run_training(tiny_config(train={"epochs": 2}, **override), out_dir=out,
                     checkpoint_every=1)
        with pytest.raises(BadConfig, match=r"train\.epochs 2 != 4"):
            run_training(tiny_config(train={"epochs": 4}, **override), out_dir=out,
                         resume_from=os.path.join(out, "ckpt_000001.bin"))

    def test_state_round_trip(self, tmp_path):
        cfg = tiny_config(loss={"kind": "nnclr"})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        train_epoch(state, ds)
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.epoch == state.epoch
        for wa, wb in zip(state.params.weights, back.params.weights):
            assert np.array_equal(wa, wb)
        for va, vb in zip(state.mom_w, back.mom_w):
            assert np.array_equal(va, vb)
        assert state.queue.shape == (32, 4)
        assert back.queue.tobytes() == state.queue.tobytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(VersionMismatch):
            load_checkpoint(str(path))

    def test_truncated_payload(self, tmp_path):
        cfg = tiny_config()
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        path = str(tmp_path / "t.bin")
        save_checkpoint(state, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-16])
        with pytest.raises(IoError):
            load_checkpoint(path)

    def test_header_without_an_array_names_it(self, tmp_path):
        cfg = tiny_config()
        state = init_state(cfg, generate(cfg.data).dim)
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        blob = open(path, "rb").read()
        (blob_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + blob_len])
        last = header["arrays"].pop()
        assert last["name"] == "mb3"
        new_blob = json.dumps(header).encode()
        payload = blob[12 + blob_len:-8 * last["rows"] * last["cols"]]
        with open(path, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<I", len(new_blob)) + new_blob + payload)
        with pytest.raises(IoError, match=r"s\.bin: the header lists no array mb3$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "arrays", "epoch_completed"])
    def test_header_without_a_key_names_it(self, tmp_path, key):
        cfg = tiny_config()
        state = init_state(cfg, generate(cfg.data).dim)
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        self._rewrite_header(path, lambda header: header.pop(key))
        with pytest.raises(IoError, match=rf"s\.bin: the header has no '{key}'$"):
            load_checkpoint(path)

    @staticmethod
    def _saved_with_header(tmp_path, edit, **over):
        """A checkpoint of a tiny state trained one epoch, its header
        changed in place by ``edit``; returns its path."""
        cfg = tiny_config(**over)
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        train_epoch(state, ds)
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        TestCheckpointing._rewrite_header(path, edit)
        return path

    @staticmethod
    def _rewrite_header(path, edit):
        """Change the header of the checkpoint at path in place by ``edit``."""
        blob = open(path, "rb").read()
        (blob_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + blob_len])
        edit(header)
        new_blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<I", len(new_blob)) + new_blob
                     + blob[12 + blob_len:])

    def test_header_with_swapped_weight_dims_names_the_array(self, tmp_path):
        def swap(header):
            spec = header["arrays"][0]
            assert spec["name"] == "w0"
            spec["rows"], spec["cols"] = spec["cols"], spec["rows"]

        path = self._saved_with_header(tmp_path, swap)
        with pytest.raises(IoError, match=r"s\.bin: array w0 has shape \(8, 6\), "
                                          r"not \(8, 8\)$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("rows", "x"), ("cols", None), ("rows", -1),
                                           ("rows", True), ("name", 3)])
    def test_header_with_a_bad_array_field_is_refused(self, tmp_path, key, value):
        path = self._saved_with_header(
            tmp_path, lambda header: header["arrays"][2].update({key: value}))
        with pytest.raises(IoError, match=r"s\.bin: corrupt header: each array needs a "
                                          r"name, rows and cols$"):
            load_checkpoint(path)

    def test_header_with_a_bad_epoch_is_refused(self, tmp_path):
        path = self._saved_with_header(
            tmp_path, lambda header: header.update({"epoch_completed": "1"}))
        with pytest.raises(IoError, match=r"s\.bin: epoch_completed must be a count, "
                                          r"got '1'$"):
            load_checkpoint(path)

    def test_queue_longer_than_the_capacity_is_refused(self, tmp_path):
        def shrink(header):
            header["config"]["train"]["queue_capacity"] = 4

        path = self._saved_with_header(tmp_path, shrink, loss={"kind": "nnclr"})
        with pytest.raises(IoError, match=r"s\.bin: array queue has shape \(32, 4\), "
                                          r"not \(4, 4\)$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("saved,given,message", [
        ("nnclr", "simclr", "the config expects no array queue"),
        ("simclr", "nnclr", "the header lists no array queue")])
    def test_queue_array_must_match_the_config(self, tmp_path, saved, given, message):
        path = self._saved_with_header(
            tmp_path, lambda header: header["config"]["loss"].update({"kind": given}),
            loss={"kind": saved})
        with pytest.raises(IoError, match=rf"s\.bin: {message}$"):
            load_checkpoint(path)

    def test_queue_saved_before_the_first_step_round_trips_empty(self, tmp_path):
        cfg = tiny_config(loss={"kind": "nnclr"})
        state = init_state(cfg, generate(cfg.data).dim)
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.queue.shape == (0, 4)
        assert state_bytes(back) == state_bytes(state)

    def test_format_version_1_is_refused(self, tmp_path):
        path = self._saved_with_header(
            tmp_path, lambda header: header.update({"format_version": 1}))
        with pytest.raises(VersionMismatch, match=r"s\.bin: unsupported format version 1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("scale,shown", [(2.0, "2.000000000000"), (np.nan, "nan")],
                             ids=["scaled", "nan"])
    def test_queue_row_off_the_unit_sphere_is_refused(self, tmp_path, scale, shown):
        # cosine_sim_matrix reads queue rows as they are, so a loaded queue
        # row must be finite and of unit norm.
        cfg = tiny_config(loss={"kind": "nnclr"})
        ds = generate(cfg.data)
        state = init_state(cfg, ds.dim)
        train_epoch(state, ds)
        state.queue[3] *= scale
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        with pytest.raises(IoError, match=rf"^{re.escape(path)}: queue row 3 has norm "
                                          rf"{shown}, expected 1 \+- 1e-9$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("every", [0, -1])
    def test_checkpoint_every_below_one_is_refused_before_any_output(self, tmp_path,
                                                                    every):
        out = tmp_path / "run"
        with pytest.raises(BadConfig, match=rf"^checkpoint_every must be >= 1, "
                                            rf"got {every}$"):
            run_training(tiny_config(), out_dir=str(out), checkpoint_every=every)
        assert not out.exists()

    def test_header_that_is_not_an_object(self, tmp_path):
        blob = json.dumps([1, 2]).encode()
        path = tmp_path / "s.bin"
        path.write_bytes(trainer.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(IoError, match=r"s\.bin: corrupt header: not a JSON object$"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key,value", [("qhi_sign", "subtract"),
                                           ("qhi_n", "anchors")])
    def test_header_with_a_removed_loss_key_names_it(self, tmp_path, key, value):
        cfg = tiny_config(loss={"kind": "simclr_hex"})
        state = init_state(cfg, generate(cfg.data).dim)
        path = str(tmp_path / "s.bin")
        save_checkpoint(state, path)
        self._rewrite_header(path, lambda h: h["config"]["loss"].update({key: value}))
        with pytest.raises(BadConfig, match=rf"bad 'loss' section: .*'{key}'"):
            load_checkpoint(path)

    def test_resume_rejects_a_non_numeric_metrics_cell(self, tmp_path):
        cfg = tiny_config(train={"epochs": 4})
        out = str(tmp_path / "run")
        run_training(cfg, out_dir=out, checkpoint_every=2)
        metrics = os.path.join(out, "metrics.csv")
        lines = open(metrics).read().splitlines()
        cells = lines[2].split(",")
        cells[1] = "oops"                  # loss_total of epoch 2
        lines[2] = ",".join(cells)
        with open(metrics, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"metrics\.csv: line 3, column loss_total"):
            run_training(cfg, out_dir=out,
                         resume_from=os.path.join(out, "ckpt_000002.bin"))

    @pytest.mark.parametrize("line,edit,message", [
        (0, lambda cells: ["step", *cells[1:]], r"line 1: the header has no epoch column$"),
        (2, lambda cells: [*cells, "1.0"], r"line 3: 21 cells, but the header has 20$"),
        (1, lambda cells: cells[:-1], r"line 2: 19 cells, but the header has 20$"),
        (2, lambda cells: ["", *cells[1:]], r"line 3, column epoch: the cell is empty$"),
        *[(1, lambda cells, v=v: [cells[0], v, *cells[2:]],
           rf"line 2, column loss_total: must be finite, got '{v}'$")
          for v in ("nan", "inf", "-Infinity")]],
        ids=["no_epoch_column", "extra_cell", "missing_cell", "empty_epoch",
             "nan_cell", "inf_cell", "minus_infinity_cell"])
    def test_resume_rejects_a_malformed_metrics_file(self, tmp_path, line, edit, message):
        cfg = tiny_config(train={"epochs": 4})
        out = str(tmp_path / "run")
        run_training(cfg, out_dir=out, checkpoint_every=2)
        metrics = os.path.join(out, "metrics.csv")
        lines = open(metrics).read().splitlines()
        lines[line] = ",".join(edit(lines[line].split(",")))
        with open(metrics, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(metrics) + ": " + message):
            run_training(cfg, out_dir=out,
                         resume_from=os.path.join(out, "ckpt_000002.bin"))

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        state = init_state(cfg, generate(cfg.data).dim)
        path = tmp_path / "s.bin"
        save_checkpoint(state, str(path))
        before = path.read_bytes()
        state.epoch += 1

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoError, match="disk full"):
            save_checkpoint(state, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["s.bin"]


class TestLossKinds:
    @pytest.mark.parametrize("kind", ["simclr", "simclr_hex", "nnclr",
                                      "nnclr_hex", "barlow", "barlow_hex",
                                      "vicreg", "vicreg_hex"])
    def test_every_kind_trains_finite(self, kind):
        # vicreg's 25x term weights need a gentler step under plain SGD
        lr = 0.01 if kind.startswith("vicreg") else 0.05
        cfg = tiny_config(loss={"kind": kind}, train={"epochs": 2},
                          optimizer={"lr": lr})
        rows, summary, state = run_training(cfg)
        assert np.isfinite(rows[-1]["loss_total"])
        if cfg.loss.uses_queue:
            assert len(state.queue) > 0

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", ["simclr", "simclr_hex", "nnclr",
                                      "nnclr_hex", "barlow", "barlow_hex"])
    def test_desk_kinds_train_at_their_defaults(self, kind, seed):
        # Desk config: 4 x 4 x 100 rows x 32 dims, batch 64, MLP 32-64-16-32-8,
        # and every other setting at its default. The VICReg kinds diverge
        # in their first epoch there, so they are not in this list.
        cfg = TrainConfig.from_dict({"loss": {"kind": kind},
                                     "data": {"seed": seed}, "train": {"seed": seed}})
        dataset = cfg.load_dataset()
        state = init_state(cfg, dataset.dim)
        for _ in range(3):
            assert np.isfinite(train_epoch(state, dataset)["loss_total"])

    @pytest.mark.parametrize("kind", ["simclr", "simclr_hex", "nnclr",
                                      "nnclr_hex", "barlow", "barlow_hex",
                                      "vicreg", "vicreg_hex"])
    def test_loss_columns_add_up_to_the_total(self, kind):
        # The combined kinds weigh each column as the total weighs its loss.
        lr = 0.01 if kind.startswith("vicreg") else 0.05
        rows, _, _ = run_training(tiny_config(loss={"kind": kind}, train={"epochs": 2},
                                              optimizer={"lr": lr}))
        for row in rows:
            inv, reg = row["loss_invariance"], row["loss_regularization"]
            assert abs(inv + reg - row["loss_total"]) <= 1e-12 * (abs(inv) + abs(reg))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_desk_simclr_hex_floors_at_most_one_percent_of_rows(self, seed):
        # Desk config: 4 x 4 x 100 rows x 32 dims, batch 64, MLP 32-64-16-32-8,
        # adaptive schedule. The HEX term reweights H(i) instead of flooring it.
        cfg = TrainConfig.from_dict({"loss": {"kind": "simclr_hex"},
                                     "data": {"seed": seed}, "train": {"seed": seed}})
        dataset = cfg.load_dataset()
        state = init_state(cfg, dataset.dim)
        for _ in range(5):
            row = train_epoch(state, dataset)
            assert row["clamp_events"] <= 0.01 * 2 * dataset.n_samples, row["epoch"]

    def test_hex_with_fixed_threshold_one_matches_simclr(self):
        base = tiny_config(schedule={"kind": "fixed", "start": 1.0, "floor": 0.0})
        hexc = tiny_config(loss={"kind": "simclr_hex"},
                           schedule={"kind": "fixed", "start": 1.0, "floor": 0.0})
        rows_a, _, _ = run_training(base)
        rows_b, _, _ = run_training(hexc)
        assert metrics_text(rows_a) == metrics_text(rows_b)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_each_row_holds_exactly_its_listed_columns(self, kind):
        # write_metrics_csv writes the listed columns only, so a key that a
        # producer returns and METRICS_COLUMNS lacks would be dropped unseen.
        # One epoch: vicreg diverges in the second on this config.
        cfg = tiny_config(loss={"kind": kind}, train={"epochs": 1})
        dataset = cfg.load_dataset()
        state = init_state(cfg, dataset.dim)
        diag_columns = set(trainer.DIAGNOSTICS_COLUMNS)
        assert set(train_epoch(state, dataset)) == set(trainer.METRICS_COLUMNS) - diag_columns
        assert set(trainer.run_diagnostics(state, dataset, 1)) == diag_columns

    def test_supervised_mask_source(self):
        cfg = tiny_config(loss={"kind": "simclr_hex"})
        cfg2 = TrainConfig.from_dict({**cfg.to_dict(), "mask_source": "supervised"})
        rows, _, _ = run_training(cfg2)
        assert rows[-1]["mean_H_size"] > 0

    def test_whole_batch_mask_source(self):
        cfg = tiny_config(loss={"kind": "simclr_hex"})
        cfg2 = TrainConfig.from_dict({**cfg.to_dict(), "mask_source": "all"})
        rows, _, _ = run_training(cfg2)
        bsz = cfg2.train.batch_size
        assert rows[-1]["mean_H_size"] == pytest.approx(2 * bsz - 2)


class TestConfig:
    def test_unknown_section_rejected(self):
        from hexreg.errors import BadConfig
        with pytest.raises(BadConfig):
            TrainConfig.from_dict({"nope": {}})

    @pytest.mark.parametrize("section", ["model", "loss", "optimizer", "augment",
                                         "train", "schedule", "data"])
    def test_section_that_is_not_an_object_is_rejected(self, section):
        with pytest.raises(BadConfig, match=rf"^bad '{section}' section: "):
            TrainConfig.from_dict({section: 5})

    @pytest.mark.parametrize("key,value", [("qhi_sign", "subtract"),
                                           ("qhi_n", "anchors")])
    def test_removed_loss_key_rejected_by_name(self, key, value):
        with pytest.raises(BadConfig, match=rf"bad 'loss' section: .*'{key}'"):
            tiny_config(loss={"kind": "simclr_hex", key: value})

    def test_removed_schedule_total_epochs_rejected_by_name(self):
        # train.epochs is the run's only length; the cos schedule reads it.
        with pytest.raises(BadConfig, match=r"bad 'schedule' section: .*'total_epochs'"):
            tiny_config(schedule={"kind": "cos", "total_epochs": 3})

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "seed", "eval_every",
                                       "queue_capacity", "knn_k", "rank_subsets",
                                       "rank_subset_size"])
    @pytest.mark.parametrize("value", [64.0, 1.5, True, "4", None])
    def test_non_integer_run_counts_name_the_field(self, field, value):
        with pytest.raises(BadConfig, match=rf"train\.{field} must be an integer"):
            tiny_config(train={field: value})

    @pytest.mark.parametrize("section,values,message", [
        ("model", {"encoder_hidden": [64.9]}, r"model\.encoder_hidden\[0\] must be an integer"),
        ("model", {"encoder_hidden": [8, True]}, r"model\.encoder_hidden\[1\] must be an integer"),
        ("model", {"encoder_hidden": 64}, r"model\.encoder_hidden must be a list"),
        ("model", {"repr_dim": 16.7}, r"model\.repr_dim must be an integer"),
        ("model", {"proj_dim": "8"}, r"model\.proj_dim must be an integer"),
        ("optimizer", {"lr": True}, r"optimizer\.lr must be a finite number"),
        ("optimizer", {"lr": float("nan")}, r"optimizer\.lr must be a finite number"),
        ("optimizer", {"lr": -0.1}, r"optimizer\.lr must be >= 0"),
        ("optimizer", {"momentum": "0.9"}, r"optimizer\.momentum must be a finite number"),
        ("optimizer", {"momentum": 1.0}, r"optimizer\.momentum must lie in \[0, 1\)"),
        ("optimizer", {"cosine_lr": "false"}, r"optimizer\.cosine_lr must be true or false"),
        ("augment", {"noise_sigma": float("inf")},
         r"augment\.noise_sigma must be a finite number"),
        ("augment", {"noise_sigma": -0.3}, r"augment\.noise_sigma must be >= 0"),
        ("augment", {"mask_prob": 1.5}, r"augment\.mask_prob must lie in \[0, 1\)"),
        ("augment", {"mask_prob": None}, r"augment\.mask_prob must be a finite number"),
        ("loss", {"tau": True}, r"loss\.tau must be a finite number"),
        ("loss", {"tau_plus": float("inf")}, r"loss\.tau_plus must be a finite number"),
        ("loss", {"barlow_lambda": float("nan")},
         r"loss\.barlow_lambda must be a finite number"),
        ("loss", {"tau_plus": "0.1"}, r"loss\.tau_plus must be a finite number"),
        ("loss", {"tau_plus": None}, r"loss\.tau_plus must be a finite number"),
        ("loss", {"alpha": float("nan")}, r"loss\.alpha must be a finite number"),
        ("loss", {"alpha": 1.5}, r"loss\.alpha must lie in \[0, 1\]"),
        ("loss", {"hex_scale": "5"}, r"loss\.hex_scale must be a finite number"),
        ("loss", {"vicreg_cov": float("-inf")}, r"loss\.vicreg_cov must be a finite number"),
        ("schedule", {"sigma_multiplier": float("inf")},
         r"schedule\.sigma_multiplier must be a finite number"),
        ("schedule", {"period_epochs": 2.5}, r"schedule\.period_epochs must be an integer"),
        ("schedule", {"start": float("nan")}, r"schedule\.start must be a finite number"),
        ("schedule", {"step_down": True}, r"schedule\.step_down must be a finite number"),
        ("loss", {"tau": 0.0}, r"loss\.tau must be > 0"),
        ("loss", {"tau": -0.1}, r"loss\.tau must be > 0"),
        ("loss", {"kind": "simclr_hex", "tau_plus": -1e-9},
         r"loss\.tau_plus must lie in \[0, 1\)"),
        ("loss", {"tau_plus": -0.5}, r"loss\.tau_plus must lie in \[0, 1\)"),
        ("loss", {"tau_plus": 1.0}, r"loss\.tau_plus must lie in \[0, 1\)"),
        ("loss", {"kind": "barlow_hex", "hex_scale": 0.0}, r"loss\.hex_scale must be > 0"),
        ("loss", {"hex_scale": -2.0}, r"loss\.hex_scale must be > 0"),
        ("loss", {"kind": "barlow", "barlow_lambda": -0.005},
         r"loss\.barlow_lambda must be >= 0"),
        ("loss", {"barlow_scale": -0.1}, r"loss\.barlow_scale must be >= 0"),
        ("loss", {"vicreg_sim": -25.0}, r"loss\.vicreg_sim must be >= 0"),
        ("loss", {"kind": "vicreg", "vicreg_var": -1.0}, r"loss\.vicreg_var must be >= 0"),
        ("loss", {"vicreg_cov": -1e-9}, r"loss\.vicreg_cov must be >= 0"),
        ("train", {"knn_k": 0}, r"train\.knn_k must be >= 1, got 0"),
        ("train", {"rank_subsets": 0}, r"train\.rank_subsets must be >= 1, got 0"),
        ("train", {"rank_subset_size": -3},
         r"train\.rank_subset_size must be >= 1, got -3"),
        ("train", {"queue_capacity": 0}, r"train\.queue_capacity must be >= 1, got 0"),
        ("train", {"holdout_fraction": "0.2"},
         r"train\.holdout_fraction must be a finite number"),
        ("train", {"holdout_fraction": None},
         r"train\.holdout_fraction must be a finite number"),
        ("train", {"holdout_fraction": 1.0},
         r"train\.holdout_fraction must lie in \(0, 1\), got 1\.0"),
        # Values the loss kernels and augment_batch once refused themselves.
        ("loss", {"kind": "simclr_hex", "tau_plus": 1.0 + 5e-13},
         r"loss\.tau_plus must lie in \[0, 1\), got 1\.0000000000005$"),
        ("loss", {"tau_plus": 1.5}, r"loss\.tau_plus must lie in \[0, 1\), got 1\.5$"),
        ("loss", {"tau_plus": float("nan")}, r"loss\.tau_plus must be a finite number"),
        ("loss", {"tau_plus": -0.1}, r"loss\.tau_plus must lie in \[0, 1\), got -0\.1$"),
        ("loss", {"tau_plus": -1e-300},
         r"loss\.tau_plus must lie in \[0, 1\), got -1e-300$"),
        ("augment", {"noise_sigma": -0.1}, r"augment\.noise_sigma must be >= 0, got -0\.1$"),
        ("augment", {"mask_prob": 1.0}, r"augment\.mask_prob must lie in \[0, 1\), got 1\.0$"),
    ])
    def test_bad_section_values_name_the_field(self, section, values, message):
        with pytest.raises(BadConfig, match=message):
            tiny_config(**{section: values})

    @pytest.mark.parametrize("section,field", [
        (section, f.name)
        for section, typ in {"data": GenParams, **trainer._SECTION_TYPES}.items()
        for f in dataclasses.fields(typ)])
    def test_every_field_refuses_a_value_of_the_wrong_type(self, section, field):
        # A field added without a rule fails here.
        with pytest.raises(BadConfig, match=rf"^{section}\.{field} must "):
            TrainConfig.from_dict({section: {field: "x"}})

    @pytest.mark.parametrize("section,field,value", [("data", "sigma_super", 3),
                                                     ("loss", "tau", 1),
                                                     ("schedule", "start", 1)])
    def test_a_real_written_as_an_integer_is_stored_as_a_float(self, section, field,
                                                              value):
        as_int = TrainConfig.from_dict({section: {field: value}})
        as_float = TrainConfig.from_dict({section: {field: float(value)}})
        assert type(getattr(getattr(as_int, section), field)) is float
        assert as_int.config_hash() == as_float.config_hash()

    @pytest.mark.parametrize("section,field", [("data", "sigma_super"), ("loss", "tau")])
    def test_an_integer_beyond_the_float_range_is_refused(self, section, field):
        with pytest.raises(BadConfig, match=rf"^{section}\.{field} must be a finite number"):
            TrainConfig.from_dict({section: {field: 10 ** 400}})

    def test_mask_source_names_its_choices(self):
        with pytest.raises(BadConfig, match=r"^mask_source must be one of "
                                            r"\(None, 'supervised', 'all'\), got 'some'$"):
            TrainConfig.from_dict({"mask_source": "some"})

    def test_zero_loss_weights_are_allowed(self):
        # A zero weight switches a term off, for ablations.
        weights = {"barlow_lambda": 0, "barlow_scale": 0.0, "vicreg_sim": 0.0,
                   "vicreg_var": 0, "vicreg_cov": 0.0}
        loss = tiny_config(loss={"kind": "vicreg", **weights}).loss
        assert all(getattr(loss, name) == 0.0 for name in weights)

    def test_fractional_widths_are_not_truncated(self):
        with pytest.raises(BadConfig, match=r"model\.encoder_hidden\[0\]"):
            ModelConfig(encoder_hidden=[64.9], repr_dim=16.7)

    def test_hash_stable_under_key_reordering(self):
        cfg = tiny_config()
        d = cfg.to_dict()
        scrambled = json.loads(json.dumps(d))
        assert TrainConfig.from_dict(scrambled).config_hash() == cfg.config_hash()

    def test_method_defaults(self):
        assert tiny_config(loss={"kind": "nnclr"}).loss.tau == 0.2
        assert tiny_config(loss={"kind": "simclr"}).loss.tau == 0.1
        assert tiny_config(loss={"kind": "vicreg_hex"}).loss.hex_scale == 5.0
        assert tiny_config(loss={"kind": "barlow_hex"}).loss.alpha == 0.5
