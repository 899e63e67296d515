"""Desk-config workloads, their correctness checks and their metrics.

Every workload runs in one process, in a closed loop: the next timed
operation starts when the previous one has finished. The workload seed sets
both ``data.seed`` and ``train.seed``; every other value is the desk config
below or the program's default.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from hexreg import trainer

from . import layers
from .tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 7       # set-ups timed per run; setup_s is their median
MIN_OPS = 4             # timed operations per run, whatever --seconds says
TAIL_BEYOND = 10        # samples a tail percentile must leave above it
REF_EPOCH = 10          # training workloads record outputs after this epoch
DIAG_WARMUP_EPOCHS = 20  # untimed simclr_hex epochs before diagnose passes

# Keys of the row ``trainer.train_epoch`` returns.
EPOCH_KEYS = frozenset({
    "epoch", "loss_total", "loss_invariance", "loss_regularization",
    "hex_term_mean", "threshold", "adaptive_threshold", "mean_H_size",
    "clamp_events", "mask_precision", "mask_recall", "mask_size",
})


@dataclass(frozen=True)
class Workload:
    kind: str                 # loss kind trained
    checkpoint: bool = False  # save_checkpoint after every timed epoch
    diagnose: bool = False    # timed operations are run_diagnostics passes


# Why each workload exists is written in README.md and BENCHMARK.json.
WORKLOADS = {
    "train_hex": Workload("simclr_hex", checkpoint=True),
    "train_barlow": Workload("barlow"),
    "diagnose": Workload("simclr_hex", diagnose=True),
}


def desk_config(kind: str, seed: int, overrides: dict | None = None) -> dict:
    """The desk config: 4x4x100 = 1600 rows x 32 dims, batch 64, MLP
    32-64-16-32-8, adaptive schedule. ``overrides`` replaces keys per
    section (tests use it to shrink the config)."""
    raw = {
        "data": {"n_super": 4, "classes_per_super": 4,
                 "samples_per_class": 100, "input_dim": 32, "seed": seed},
        "model": {"encoder_hidden": [64], "repr_dim": 16, "proj_hidden": 32,
                  "proj_dim": 8},
        "loss": {"kind": kind},
        "train": {"batch_size": 64, "seed": seed},
        "schedule": {"kind": "adaptive"},
    }
    for section, values in (overrides or {}).items():
        raw.setdefault(section, {}).update(values)
    return raw


def set_up(raw: dict):
    """What a user pays before the first epoch: config, data, state."""
    cfg = trainer.TrainConfig.from_dict(raw)
    dataset = cfg.load_dataset()
    return dataset, trainer.init_state(cfg, dataset.dim)


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------

def check_epoch_row(row: dict, epoch: int) -> list:
    problems = []
    missing = EPOCH_KEYS - set(row)
    if missing:
        problems.append(f"epoch row lacks {sorted(missing)}")
    if row.get("epoch") != epoch:
        problems.append(f"epoch row says epoch {row.get('epoch')}, expected {epoch}")
    loss = row.get("loss_total")
    if not isinstance(loss, float) or not math.isfinite(loss):
        problems.append(f"loss_total is {loss!r}")
    return problems


def check_checkpoint(state, path: str) -> list:
    """The saved file loads back bitwise equal to the live state."""
    back = trainer.load_checkpoint(path)
    problems = []
    if back.epoch != state.epoch:
        problems.append(f"checkpoint epoch {back.epoch} != {state.epoch}")
    for label, live, loaded in (
            ("weights", state.params.weights, back.params.weights),
            ("biases", state.params.biases, back.params.biases),
            ("mom_w", state.mom_w, back.mom_w),
            ("mom_b", state.mom_b, back.mom_b)):
        same = len(live) == len(loaded) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(live, loaded))
        if not same:
            problems.append(f"checkpoint {label} differ from the live state")
    return problems


def check_diag_row(row: dict, first: dict | None, n_rank: int, dim: int) -> list:
    bad = [k for k, v in row.items()
           if not isinstance(v, float) or not math.isfinite(v)]
    if bad:
        return [f"diagnostics {bad} are not finite numbers"]
    problems = []
    top = min(n_rank, dim)
    for k in ("rankme_super", "rankme_random"):
        if not 1.0 <= row[k] <= top:
            problems.append(f"{k} = {row[k]} outside [1, {top}]")
    for k in ("knn_class", "knn_super"):
        if not 0.0 <= row[k] <= 1.0:
            problems.append(f"{k} = {row[k]} outside [0, 1]")
    if first is not None and row != first:
        problems.append("two passes on the same params differ")
    return problems


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.extend(problems)

    def guarded(self, check, *args) -> object:
        """Run check(*args); an exception counts as a failed operation."""
        try:
            return check(*args)
        except Exception:  # any failure of the program under test is a result
            traceback.print_exc(file=sys.stderr)
            self.record(["raised " + traceback.format_exc(limit=0).strip()])
            return None


def reference_time() -> float:
    """Median of three timings of a fixed pure-Python loop (an integer LCG
    driving Fisher-Yates swaps on a 1600-item list).

    On a shared host the speed of a core drifts by tens of percent over
    tens of seconds, and an epoch is mostly interpreter work. Dividing each
    operation's time by this loop's time, taken right after it, cancels most
    of that drift. The loop belongs to the benchmark and never changes, so
    a faster program still shows as a smaller ratio.
    """
    laps = []
    for _ in range(3):
        t0 = time.perf_counter()
        items = list(range(1600))
        x = 12345
        for _ in range(4):
            for i in range(1599, 0, -1):
                x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
                j = x % (i + 1)
                items[i], items[j] = items[j], items[i]
        laps.append(time.perf_counter() - t0)
    return statistics.median(laps)


def tail(times: list) -> tuple:
    """(percentile, value): the highest whole percentile that leaves at
    least TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-p * n // 100))
    return p, xs[rank - 1]


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        overrides: dict | None = None) -> dict:
    """Run one workload; returns the result with its metrics and report."""
    wl = WORKLOADS[name]
    raw = desk_config(wl.kind, seed, overrides)
    tracer = Tracer() if trace else None

    setup_times = []

    def timed_set_up():
        with layers.traced(tracer) if trace else nullcontext():
            t0 = time.perf_counter()
            made = set_up(raw)
            setup_times.append(time.perf_counter() - t0)
        return made

    dataset, state = timed_set_up()

    recorded: dict = {}
    if wl.diagnose:
        for _ in range(DIAG_WARMUP_EPOCHS):
            row = trainer.train_epoch(state, dataset)
        recorded.update(loss_final=row["loss_total"], clamp_events=row["clamp_events"])

    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="ckpt-", dir=out_dir)
    ckpt = os.path.join(work_dir, "state.ckpt")
    tally = Tally()
    times, rel, traced_rel = [], [], []
    first_diag = None
    rank_n = state.config.train.rank_subset_size
    repr_dim = state.config.model.repr_dim

    def op():
        if wl.diagnose:
            return trainer.run_diagnostics(state, dataset, state.epoch)
        row = trainer.train_epoch(state, dataset)
        if wl.checkpoint:
            trainer.save_checkpoint(state, ckpt)
        return row

    try:
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        min_ops = 2 * layers.COUNT_OPS if trace else MIN_OPS
        while i < min_ops or time.perf_counter() < deadline:
            # The other set-ups are spread over the run, so that setup_s is
            # a median over the same stretch of time as the operations.
            due = start + seconds * len(setup_times) / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
                timed_set_up()
            traced_op = trace and i % 2 == 1
            epoch_before = state.epoch
            t0 = time.perf_counter()
            with layers.traced(tracer, i) if traced_op else nullcontext():
                out = tally.guarded(op)
            dt = time.perf_counter() - t0
            i += 1
            if out is None:
                continue
            if traced_op:
                traced_rel.append(dt / reference_time())
            else:
                times.append(dt)
                rel.append(dt / reference_time())
            if wl.diagnose:
                tally.record(check_diag_row(out, first_diag, rank_n, repr_dim))
                if first_diag is None:
                    first_diag = out
                    recorded.update(out)
                continue
            tally.record(check_epoch_row(out, epoch_before + 1))
            if state.epoch == REF_EPOCH:
                recorded.update(loss_final=out["loss_total"],
                                clamp_events=out["clamp_events"])
            if wl.checkpoint:
                problems = tally.guarded(check_checkpoint, state, ckpt)
                if problems is not None:
                    tally.record(problems)
        while len(setup_times) < SETUP_REPEATS:
            timed_set_up()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not times or (trace and not traced_rel):
        raise SystemExit(f"perfbench: no {name} operation succeeded; "
                         f"{tally.problems[:1]}")
    n_rows = dataset.n_samples
    p_tail, rel_tail = tail(rel)
    end_to_end = {
        "op_ref_p50": (statistics.median(rel), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    unit = "pass" if wl.diagnose else "epoch"
    report = [
        f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)} "
        f"loss_kind {wl.kind} rows {n_rows}",
        "env " + " ".join(f"{k}={v}" for k, v in environment().items()),
        f"setup_s: median of {SETUP_REPEATS} set-ups (from_dict, load_dataset, "
        f"init_state): one before the run, the rest spread over it",
        f"op = one {unit}" + (" plus save_checkpoint" if wl.checkpoint else "")
        + f"; {len(times)} untraced ops timed; ref = the reference loop's "
        f"time right after each op",
        f"{unit}_s_p50 {statistics.median(times):.6g} s (n={len(times)})",
        f"{unit}_s_tail {tail(times)[1]:.6g} s (p{p_tail}, n={len(times)})",
        f"{unit}_ref_p50 {statistics.median(rel):.6g} ref (n={len(rel)})",
        f"{unit}_ref_tail {rel_tail:.6g} ref (p{p_tail}, n={len(rel)})",
        f"samples_per_s {n_rows * len(times) / sum(times):.6g} samples/s",
        f"failed_frac {tally.failed / max(1, tally.attempted):.6g} ratio "
        f"({tally.failed} of {tally.attempted} operations)",
    ]
    report += [f"problem: {p}" for p in tally.problems]
    report += recorded_report(name, seed, recorded, overrides is None)

    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed}
    if trace:
        overhead = statistics.median(traced_rel) / statistics.median(rel) - 1.0
        values = layers.per_layer_metrics(tracer, overhead)
        metrics = {k: (values[k], u) for k, u in layers.METRICS.items()}
        path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
        write_trace(path, tracer, name, seed)
        report.append(f"trace: {len(tracer.spans)} spans, {len(traced_rel)} "
                      f"traced ops, written to {os.path.relpath(path)}")
    else:
        metrics = end_to_end
    report += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["report"] = report
    return result


def recorded_report(name: str, seed: int, recorded: dict, desk: bool) -> list:
    """Recorded outputs and their largest relative drift from the values
    the reference table holds for this workload and seed."""
    lines = ["recorded " + json.dumps(recorded, sort_keys=True)]
    ref = load_reference().get(name, {}).get(str(seed)) if desk else None
    if ref is None or set(ref) != set(recorded):
        lines.append("drift_vs_reference n/a (no reference for this workload, "
                     "seed and config)")
        return lines
    drift = max(abs(recorded[k] - ref[k]) / (abs(ref[k]) or 1.0) for k in ref)
    lines.append(f"drift_vs_reference {drift:.3g} (largest relative, over "
                 f"{len(ref)} values)")
    return lines


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def write_trace(path: str, tracer: Tracer, name: str, seed: int):
    doc = {
        "workload": name, "seed": seed, "environment": environment(),
        "columns": ["name", "start", "end", "parent", "op"],
        "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
        "counts": {str(op): dict(c) for op, c in tracer.counts.items()},
        "peak_bytes": dict(tracer.peak_bytes),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def environment() -> dict:
    """nproc, Python and numpy versions, and the BLAS with its threads."""
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']}-{blas['version']}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(root: str) -> int:
    """Command-line entry; ``root`` is the checkout the run writes under."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 os.path.join(root, ".perfbench_out"))
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result, allow_nan=False))
    return 0
