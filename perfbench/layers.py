"""The hexreg layers the traced run measures, and its per-layer metrics.

A layer is a ``hexreg`` module: rng, data, autodiff, losses, hierarchy,
schedule, linalg, diagnostics and trainer. ``cli`` is left out because it
only parses arguments and dispatches to the trainer. Every public function
below is wrapped where its caller looks it up, so spans come from the
benchmark's own files and no line of the program changes.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from hexreg import diagnostics, rng, trainer

from .tracer import Tracer, self_times

COUNT_OPS = 5   # traced operations that count metrics cover

# (owner, attribute, span name). Span names are "<layer>.<function>".
WRAPPED = [
    (trainer, "train_epoch", "trainer.train_epoch"),
    (trainer, "run_diagnostics", "trainer.run_diagnostics"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "mlp_forward", "trainer.mlp_forward"),
    (trainer, "build_model_graph", "trainer.build_model_graph"),
    (trainer, "forward", "autodiff.forward"),
    (trainer, "backward", "autodiff.backward"),
    (trainer, "build_info_nce_graph", "losses.build_info_nce_graph"),
    (trainer, "build_hex_graph", "losses.build_hex_graph"),
    (trainer, "build_barlow_graph", "losses.build_barlow_graph"),
    (trainer, "build_vicreg_graph", "losses.build_vicreg_graph"),
    (trainer, "build_combined_graph", "losses.build_combined_graph"),
    (trainer, "threshold_mask", "hierarchy.threshold_mask"),
    (trainer, "mask_quality", "hierarchy.mask_quality"),
    (trainer, "adaptive_threshold", "schedule.adaptive_threshold"),
    (trainer, "augment_batch", "data.augment_batch"),
    (trainer, "generate", "data.generate"),
    (trainer, "cosine_sim_matrix", "linalg.cosine_sim_matrix"),
    (diagnostics, "singular_values", "linalg.singular_values"),
    (diagnostics, "subset_rank_curve", "diagnostics.subset_rank_curve"),
    (diagnostics, "distribution_stats", "diagnostics.distribution_stats"),
    (diagnostics, "knn_accuracy", "diagnostics.knn_accuracy"),
    (rng.Rng, "shuffle", "rng.shuffle"),
]


def _count_tape(tracer: Tracer, args, result):
    """After ``forward(tape)``: node count, matmul count and forward flops."""
    nodes = args[0].nodes
    tracer.count("autodiff.nodes", len(nodes))
    for node in nodes:
        if node.op == "matmul":
            a, b = node.parents[0].value.shape, node.parents[1].value.shape
            tracer.count("autodiff.matmul_nodes", 1)
            tracer.count("autodiff.matmul_flops", 2 * a[0] * a[1] * b[1])


def _count_anchor_rows(tracer: Tracer, args, result):
    tracer.count("losses.anchor_rows", int(result.rows_with_h.shape[0]))


def _count_clamps(tracer: Tracer, args, result):
    tracer.count("losses.clamp_events", int(result["clamp_events"]))


AFTER = {
    "autodiff.forward": _count_tape,
    "losses.build_hex_graph": _count_anchor_rows,
    "trainer.train_epoch": _count_clamps,
}


@contextmanager
def traced(tracer: Tracer, op=None):
    """Wrap every layer for the duration of the block, tagging spans with
    ``op``; the originals are back in place when the block exits."""
    tracer.op = op
    try:
        for owner, attr, name in WRAPPED:
            tracer.wrap(owner, attr, name, after=AFTER.get(name),
                        memory=name == "diagnostics.distribution_stats")
        yield tracer
    finally:
        tracer.restore()
        tracer.op = None


# name -> unit, in the order they are printed.
METRICS = {
    "trainer.train_epoch.s": "s",
    "trainer.train_epoch.self_s": "s",
    "trainer.mlp_forward.calls_per_step": "count",
    "trainer.mlp_forward.s_per_step": "s",
    "trainer.mlp_forward.calls_per_pass": "count",
    "trainer.build_model_graph.s_per_step": "s",
    "trainer.save_checkpoint.s": "s",
    "autodiff.forward.s_per_step": "s",
    "autodiff.backward.s_per_step": "s",
    "autodiff.nodes_per_step": "count",
    "autodiff.matmul_nodes_per_step": "count",
    "autodiff.matmul_flops_per_step": "flop",
    "losses.build_graph.s_per_step": "s",
    "losses.hex_clamp_frac": "ratio",
    "hierarchy.threshold_mask.calls_per_step": "count",
    "hierarchy.threshold_mask.s_per_step": "s",
    "hierarchy.mask_quality.s_per_step": "s",
    "schedule.adaptive_threshold.s_per_step": "s",
    "data.augment_batch.s_per_step": "s",
    "data.generate.s": "s",
    "rng.shuffle.calls": "count",
    "rng.shuffle.s": "s",
    "linalg.cosine_sim_matrix.s_per_step": "s",
    "linalg.cosine_sim_matrix.s_per_pass": "s",
    "linalg.singular_values.calls_per_pass": "count",
    "linalg.singular_values.s_per_pass": "s",
    "diagnostics.subset_rank_curve.s_per_pass": "s",
    "diagnostics.distribution_stats.s_per_pass": "s",
    "diagnostics.knn_accuracy.s_per_pass": "s",
    "diagnostics.distribution_stats.peak_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den) -> float:
    """num / den, or 0 where the workload never reaches the layer."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Per-layer values from the spans of timed operations.

    A workload's timed operations either all train or all diagnose, so
    per-step values divide by training steps (one ``forward`` per step),
    per-pass values by diagnostics passes, and ``rng.shuffle.*`` by timed
    operations. Times cover every traced operation. Counts cover only the
    first COUNT_OPS traced ones: some vary with the batch (a step whose
    mask is empty builds no HEX subgraph), and a fixed set of operations
    makes them repeat exactly whatever the run's length. A layer the
    workload never reaches reads 0. ``data.generate.s`` is the mean over
    the set-up spans.
    """
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()     # over every traced operation
    n: Counter = Counter()         # over the first COUNT_OPS of them
    ops = sorted({s.op for s in tracer.spans if s.op is not None})
    counted = set(ops[:COUNT_OPS])
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        if s.op is None:
            continue
        total[s.name] += s.duration
        own[s.name] += t
        calls[s.name] += 1
        if s.op in counted:
            n[s.name] += 1
    c: Counter = Counter()
    for op in counted:
        c.update(tracer.counts.get(op, Counter()))
    steps, passes = calls["autodiff.forward"], calls["trainer.run_diagnostics"]
    epochs, saves = calls["trainer.train_epoch"], calls["trainer.save_checkpoint"]
    c_steps, c_passes = n["autodiff.forward"], n["trainer.run_diagnostics"]
    build = sum(v for k, v in total.items() if k.startswith("losses.build_"))
    generate = [s.duration for s in tracer.spans if s.name == "data.generate"]
    return {
        "trainer.train_epoch.s": _ratio(total["trainer.train_epoch"], epochs),
        "trainer.train_epoch.self_s": _ratio(own["trainer.train_epoch"], epochs),
        "trainer.mlp_forward.calls_per_step": _ratio(n["trainer.mlp_forward"], c_steps),
        "trainer.mlp_forward.s_per_step": _ratio(total["trainer.mlp_forward"], steps),
        "trainer.mlp_forward.calls_per_pass": _ratio(n["trainer.mlp_forward"], c_passes),
        "trainer.build_model_graph.s_per_step": _ratio(total["trainer.build_model_graph"], steps),
        "trainer.save_checkpoint.s": _ratio(total["trainer.save_checkpoint"], saves),
        "autodiff.forward.s_per_step": _ratio(total["autodiff.forward"], steps),
        "autodiff.backward.s_per_step": _ratio(total["autodiff.backward"], steps),
        "autodiff.nodes_per_step": _ratio(c["autodiff.nodes"], c_steps),
        "autodiff.matmul_nodes_per_step": _ratio(c["autodiff.matmul_nodes"], c_steps),
        "autodiff.matmul_flops_per_step": _ratio(c["autodiff.matmul_flops"], c_steps),
        "losses.build_graph.s_per_step": _ratio(build, steps),
        "losses.hex_clamp_frac": _ratio(c["losses.clamp_events"], c["losses.anchor_rows"]),
        "hierarchy.threshold_mask.calls_per_step": _ratio(n["hierarchy.threshold_mask"], c_steps),
        "hierarchy.threshold_mask.s_per_step": _ratio(total["hierarchy.threshold_mask"], steps),
        "hierarchy.mask_quality.s_per_step": _ratio(total["hierarchy.mask_quality"], steps),
        "schedule.adaptive_threshold.s_per_step": _ratio(total["schedule.adaptive_threshold"], steps),
        "data.augment_batch.s_per_step": _ratio(total["data.augment_batch"], steps),
        "data.generate.s": _ratio(sum(generate), len(generate)),
        "rng.shuffle.calls": _ratio(n["rng.shuffle"], len(counted)),
        "rng.shuffle.s": _ratio(total["rng.shuffle"], len(ops)),
        "linalg.cosine_sim_matrix.s_per_step": _ratio(total["linalg.cosine_sim_matrix"], steps),
        "linalg.cosine_sim_matrix.s_per_pass": _ratio(total["linalg.cosine_sim_matrix"], passes),
        "linalg.singular_values.calls_per_pass": _ratio(n["linalg.singular_values"], c_passes),
        "linalg.singular_values.s_per_pass": _ratio(total["linalg.singular_values"], passes),
        "diagnostics.subset_rank_curve.s_per_pass": _ratio(total["diagnostics.subset_rank_curve"], passes),
        "diagnostics.distribution_stats.s_per_pass": _ratio(total["diagnostics.distribution_stats"], passes),
        "diagnostics.knn_accuracy.s_per_pass": _ratio(total["diagnostics.knn_accuracy"], passes),
        "diagnostics.distribution_stats.peak_mb": tracer.peak_bytes["diagnostics.distribution_stats"] / 2**20,
        "trace.overhead_frac": overhead_frac,
    }
