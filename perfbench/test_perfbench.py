"""Tests of the benchmark harness itself: tracer, self time, smoke runs."""

import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from hexreg import diagnostics, rng, trainer  # noqa: E402

from perfbench import bench, layers  # noqa: E402
from perfbench.tracer import Span, Tracer, self_times  # noqa: E402

# 2x2x10 = 40 rows x 8 dims; diagnostics subsets fit the 20-row superclasses.
TINY = {
    "data": {"n_super": 2, "classes_per_super": 2, "samples_per_class": 10,
             "input_dim": 8},
    "model": {"encoder_hidden": [16], "repr_dim": 4, "proj_hidden": 8,
              "proj_dim": 4},
    "train": {"batch_size": 8, "rank_subsets": 2, "rank_subset_size": 5,
              "knn_k": 3},
}


def _originals():
    return [vars(owner)[attr] for owner, attr, _ in layers.WRAPPED]


def test_traced_restores_every_attribute():
    before = _originals()
    with layers.traced(Tracer()):
        assert all(vars(o)[a] is not f for (o, a, _), f in zip(layers.WRAPPED, before))
    assert _originals() == before


def test_traced_restores_when_a_wrapped_call_raises():
    before = _originals()
    with pytest.raises(TypeError):
        with layers.traced(Tracer()) as tr:
            rng.Rng(1).shuffle(None)  # len(None) raises inside the wrapper
    assert _originals() == before
    assert [s.name for s in tr.spans] == ["rng.shuffle"]
    assert tr.spans[0].end >= tr.spans[0].start


def test_wrap_records_parent_and_op():
    class Owner:
        @staticmethod
        def helper():
            pass

    def outer():
        Owner.inner()

    def inner():
        pass

    Owner.outer, Owner.inner = outer, inner
    tr = Tracer()
    tr.op = 3
    tr.wrap(Owner, "outer", "a.outer")
    tr.wrap(Owner, "inner", "a.inner")
    Owner.outer()
    tr.restore()
    assert Owner.outer is outer and Owner.inner is inner
    assert [(s.name, s.parent, s.op) for s in tr.spans] == [
        ("a.outer", None, 3), ("a.inner", 0, 3)]
    with pytest.raises(TypeError):
        tr.wrap(Owner, "helper", "a.helper")


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),      # overlaps a by 0.5
        Span("c", 9.0, 12.0, 0, 0),     # runs past the parent's end
        Span("other", 20.0, 21.0, None, 1),
    ]
    got = self_times(spans)
    want = [10.0 - (3.0 + 2.0 + 1.0), 2.0, 1.0, 2.5, 3.0, 1.0]
    assert got == pytest.approx(want)


def test_tail_leaves_ten_samples_above():
    times = [float(i) for i in range(1, 201)]
    assert bench.tail(times) == (95, 190.0)
    p, v = bench.tail(times[:37])
    assert sum(t > v for t in times[:37]) >= 10 and p == 72
    assert bench.tail([3.0, 1.0, 2.0]) == (100, 3.0)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_has_no_failures(workload, tmp_path):
    res = bench.run(workload, seed=3, seconds=0.0, trace=False,
                    out_dir=str(tmp_path), overrides=TINY)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= bench.MIN_OPS
    assert set(res["metrics"]) == {"op_ref_p50", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert os.listdir(tmp_path) == []   # checkpoints are cleaned up


COUNTS = ("autodiff.nodes_per_step", "autodiff.matmul_nodes_per_step",
          "autodiff.matmul_flops_per_step", "trainer.mlp_forward.calls_per_step",
          "trainer.mlp_forward.calls_per_pass", "hierarchy.threshold_mask.calls_per_step",
          "rng.shuffle.calls", "linalg.singular_values.calls_per_pass",
          "losses.hex_clamp_frac")


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    # A second, longer run must give the same counts as a minimal one.
    runs = [bench.run(workload, seed=5, seconds=seconds, trace=True,
                      out_dir=str(tmp_path), overrides=TINY)
            for seconds in (0.0, 0.5)]
    for res in runs:
        assert res["correct"]
        assert set(res["metrics"]) == set(layers.METRICS)
    first, second = ({k: r["metrics"][k]["value"] for k in COUNTS} for r in runs)
    assert first == second
    if workload == "diagnose":
        assert first["trainer.mlp_forward.calls_per_pass"] == 3
        assert first["rng.shuffle.calls"] == 18 - 16 + 2 * 2   # 2 subsets each
        assert first["linalg.singular_values.calls_per_pass"] == 4
    else:
        assert first["trainer.mlp_forward.calls_per_step"] == 2
        assert first["rng.shuffle.calls"] == 1
        assert first["hierarchy.threshold_mask.calls_per_step"] == (
            2 if workload == "train_hex" else 1)
        assert first["autodiff.matmul_flops_per_step"] > 0
    assert not any(math.isnan(m["value"]) for m in runs[0]["metrics"].values())


def test_checkpoint_check_catches_a_changed_param(tmp_path):
    dataset, state = bench.set_up(bench.desk_config("simclr_hex", 1, TINY))
    trainer.train_epoch(state, dataset)
    path = str(tmp_path / "s.ckpt")
    trainer.save_checkpoint(state, path)
    assert bench.check_checkpoint(state, path) == []
    state.mom_b[0][0, 0] = np.nextafter(state.mom_b[0][0, 0], 1.0)
    assert bench.check_checkpoint(state, path) != []


def test_diag_row_checks():
    row = {"rankme_super": 3.0, "rankme_random": 5.0, "knn_class": 1.0,
           "knn_super": 0.5, "skew_super": 0.1}
    assert bench.check_diag_row(row, dict(row), 100, 16) == []
    assert bench.check_diag_row({**row, "rankme_random": 17.0}, None, 100, 16)
    assert bench.check_diag_row({**row, "skew_super": math.nan}, None, 100, 16)
    assert bench.check_diag_row({**row, "skew_super": None}, None, 100, 16)
    assert bench.check_diag_row(row, {**row, "knn_super": 0.75}, 100, 16)


def test_wrapped_names_exist_where_callers_look_them_up():
    for owner, attr, name in layers.WRAPPED:
        assert attr in vars(owner), name
    assert {name.split(".")[0] for _, _, name in layers.WRAPPED} == {
        "rng", "data", "autodiff", "losses", "hierarchy", "schedule",
        "linalg", "diagnostics", "trainer"}
    assert trainer.forward.__module__ == "hexreg.autodiff"
    assert diagnostics.singular_values.__module__ == "hexreg.linalg"
