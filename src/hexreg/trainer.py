"""Desk-scale self-supervised training: MLP encoder + projector on two
augmented views per sample, loss selection over the supported objectives,
SGD-with-momentum via the autodiff tape, per-epoch diagnostics, and
bitwise-reproducible checkpointing.

The model works row by row, so each step records it on the tape once, on
the two views stacked into 2b rows (view a in rows 0:b, view b in rows
b:2b). Every loss is one kernel node on that stacked projector output;
a loss that reads the views apart splits it at b.

Determinism: everything derives from the run seed through fixed stream
labels (0 = weight init, 1 = per-epoch streams, 4 = diagnostics draws,
5 = evaluation split). Within an epoch stream, label 0 shuffles the sample
order and label 1 is the augmentation domain, keyed per step and view.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import diagnostics as diag
from . import losses as losses_mod
from .autodiff import Tape, backward, forward
from .data import (GenParams, HierarchicalDataset, _format_cell, _write_atomic,
                   augment_batch, generate, load_csv)
from .errors import (BadConfig, BadDims, InsufficientSamples, IoError, NonFinite,
                     NumericalError, SchemaError, VersionMismatch, _check_finite,
                     _check_int)
from .hierarchy import (mask_quality, supervised_mask, threshold_mask,
                        whole_batch_mask)
from .linalg import cosine_sim_matrix, l2_normalize_rows
from .losses import (NNQueue, build_barlow_graph, build_combined_graph,
                     build_hex_graph, build_info_nce_graph,
                     build_vicreg_graph, nnclr_positive_rows)
from .rng import Rng, child_keys
from .schedule import ThresholdSchedule, adaptive_threshold, threshold_for_epoch

CHECKPOINT_MAGIC = b"HEXCKPT1"
METRICS_COLUMNS = [
    "epoch", "loss_total", "loss_invariance", "loss_regularization",
    "hex_term_mean", "threshold", "adaptive_threshold", "mean_H_size",
    "clamp_events", "mask_precision", "mask_recall", "mask_size",
    "rankme_super", "rankme_random", "mean_super", "mean_regular",
    "skew_super", "skew_regular", "knn_class", "knn_super",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ModelConfig:
    encoder_hidden: list = field(default_factory=lambda: [64])
    repr_dim: int = 16
    proj_hidden: int = 32
    proj_dim: int = 8

    def __post_init__(self):
        if not isinstance(self.encoder_hidden, list):
            raise BadConfig(f"model.encoder_hidden must be a list of widths, "
                            f"got {self.encoder_hidden!r}")
        for i, width in enumerate(self.encoder_hidden):
            _check_int(f"model.encoder_hidden[{i}]", width)
        for name in ("repr_dim", "proj_hidden", "proj_dim"):
            _check_int(f"model.{name}", getattr(self, name))
        dims = self.encoder_hidden + [self.repr_dim, self.proj_hidden, self.proj_dim]
        if any(d < 1 for d in dims):
            raise BadDims(f"all layer widths must be >= 1, got {dims}")


@dataclass
class LossConfig:
    kind: str = "simclr"
    tau: Optional[float] = None          # default depends on kind
    tau_plus: float = losses_mod.DEFAULT_TAU_PLUS    # class prior of the HEX term
    alpha: Optional[float] = None        # default depends on kind
    hex_scale: Optional[float] = None    # default depends on kind
    barlow_lambda: float = 0.005
    barlow_scale: float = 0.1
    vicreg_sim: float = 25.0
    vicreg_var: float = 25.0
    vicreg_cov: float = 1.0

    def __post_init__(self):
        if self.kind not in losses_mod.LOSS_KINDS:
            raise BadConfig(f"loss kind must be one of {losses_mod.LOSS_KINDS}, "
                            f"got {self.kind!r}")
        if self.tau is None:
            self.tau = 0.2 if self.kind.startswith("nnclr") else 0.1
        if self.alpha is None:
            self.alpha = 0.5 if self.kind in ("barlow_hex", "vicreg_hex") else 1.0
        if self.hex_scale is None:
            self.hex_scale = 5.0 if self.kind == "vicreg_hex" else 1.0
        for f in fields(self)[1:]:    # every field after kind is a number
            _check_finite(f"loss.{f.name}", getattr(self, f.name))
        weights = ("barlow_lambda", "barlow_scale", "vicreg_sim", "vicreg_var", "vicreg_cov")
        for name, rule, ok in [
                ("alpha", "lie in [0, 1]", 0.0 <= self.alpha <= 1.0),
                ("tau", "be > 0", self.tau > 0.0), ("hex_scale", "be > 0", self.hex_scale > 0.0),
                ("tau_plus", "lie in [0, 1)", 0.0 <= self.tau_plus < 1.0),
                *[(w, "be >= 0", getattr(self, w) >= 0.0) for w in weights]]:
            if not ok:
                raise BadConfig(f"loss.{name} must {rule}, got {getattr(self, name)}")

    @property
    def is_hex(self) -> bool:
        return self.kind.endswith("_hex")

    @property
    def is_dim(self) -> bool:
        return self.kind.startswith(("barlow", "vicreg"))

    @property
    def uses_queue(self) -> bool:
        return self.kind.startswith("nnclr")


@dataclass
class OptimConfig:
    lr: float = 0.1
    momentum: float = 0.9
    cosine_lr: bool = False

    def __post_init__(self):
        _check_finite("optimizer.lr", self.lr)
        _check_finite("optimizer.momentum", self.momentum)
        if not isinstance(self.cosine_lr, bool):
            raise BadConfig(f"optimizer.cosine_lr must be true or false, "
                            f"got {self.cosine_lr!r}")
        # lr == 0 is allowed (freezes parameters, useful for harness checks)
        if self.lr < 0:
            raise BadConfig(f"optimizer.lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise BadConfig(f"optimizer.momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class AugmentConfig:
    noise_sigma: float = 0.3
    mask_prob: float = 0.1

    def __post_init__(self):
        _check_finite("augment.noise_sigma", self.noise_sigma)
        _check_finite("augment.mask_prob", self.mask_prob)
        if self.noise_sigma < 0:
            raise BadConfig(f"augment.noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise BadConfig(f"augment.mask_prob must lie in [0, 1), got {self.mask_prob}")


@dataclass
class RunConfig:
    epochs: int = 200
    batch_size: int = 64
    seed: int = 1
    eval_every: int = 20
    queue_capacity: int = 256
    holdout_fraction: float = 0.2
    knn_k: int = 5
    rank_subsets: int = 8
    rank_subset_size: int = 100

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "eval_every", "queue_capacity",
                     "knn_k", "rank_subsets", "rank_subset_size"):
            value = getattr(self, name)
            _check_int(f"train.{name}", value)
            least = 2 if name == "batch_size" else 1
            if name != "seed" and value < least:
                raise BadConfig(f"train.{name} must be >= {least}, got {value}")
        _check_finite("train.holdout_fraction", self.holdout_fraction)
        if not 0.0 < self.holdout_fraction < 1.0:
            raise BadConfig(f"train.holdout_fraction must lie in (0, 1), "
                            f"got {self.holdout_fraction}")


_SECTION_TYPES = {
    "model": ModelConfig, "loss": LossConfig, "optimizer": OptimConfig,
    "augment": AugmentConfig, "train": RunConfig,
}


@dataclass
class TrainConfig:
    data: GenParams | str
    model: ModelConfig
    loss: LossConfig
    optimizer: OptimConfig
    augment: AugmentConfig
    train: RunConfig
    schedule: ThresholdSchedule
    mask_source: Optional[str] = None    # None -> schedule kind; or supervised/all

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        if not isinstance(raw, dict):
            raise BadConfig("config must be a JSON object")
        known = {"data", "schedule", "mask_source"} | set(_SECTION_TYPES)
        unknown = set(raw) - known
        if unknown:
            raise BadConfig(f"unknown config sections: {sorted(unknown)}")
        sections = {}
        for name, typ in _SECTION_TYPES.items():
            sub = dict(raw.get(name, {}))
            try:
                sections[name] = typ(**sub)
            except TypeError as e:
                raise BadConfig(f"bad '{name}' section: {e}") from e
        data_raw = raw.get("data", {})
        if isinstance(data_raw, str):
            data = data_raw
        elif isinstance(data_raw, dict) and "path" in data_raw:
            data = str(data_raw["path"])
        else:
            try:
                data = GenParams(**dict(data_raw))
            except TypeError as e:
                raise BadConfig(f"bad 'data' section: {e}") from e
        sched_raw = dict(raw.get("schedule", {}))
        sched_raw.setdefault("kind", "adaptive")
        sched_raw.setdefault("total_epochs", sections["train"].epochs)
        try:
            schedule = ThresholdSchedule(**sched_raw)
        except TypeError as e:
            raise BadConfig(f"bad 'schedule' section: {e}") from e
        mask_source = raw.get("mask_source")
        if mask_source not in (None, "supervised", "all"):
            raise BadConfig("mask_source must be null, 'supervised' or 'all'")
        return cls(data=data, schedule=schedule, mask_source=mask_source, **sections)

    def to_dict(self) -> dict:
        out = {name: asdict(getattr(self, name)) for name in _SECTION_TYPES}
        out["data"] = self.data if isinstance(self.data, str) else asdict(self.data)
        out["schedule"] = asdict(self.schedule)
        out["mask_source"] = self.mask_source
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def load_dataset(self) -> HierarchicalDataset:
        if isinstance(self.data, str):
            return load_csv(self.data)
        return generate(self.data)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    weights: list
    biases: list
    n_encoder_layers: int


def layer_dims(model: ModelConfig, input_dim: int) -> list:
    return ([int(input_dim)] + model.encoder_hidden
            + [model.repr_dim, model.proj_hidden, model.proj_dim])


def init_params(model: ModelConfig, input_dim: int, seed: int) -> ModelParams:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)), zero
    biases; layer i draws fan_in * fan_out uniforms (row-major) from the
    init stream's child i."""
    dims = layer_dims(model, input_dim)
    root = Rng.from_seed(seed).child(0)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        a = np.sqrt(6.0 / (fan_in + fan_out))
        u = root.child(i).uniform_array(fan_in * fan_out)
        weights.append((a * (2.0 * u - 1.0)).reshape(fan_in, fan_out))
        biases.append(np.zeros((1, fan_out)))
    return ModelParams(weights, biases, len(model.encoder_hidden) + 1)


def _layer_outputs(params: ModelParams, x) -> list:
    """Every layer's output on the rows of x, in order: tanh after every
    encoder layer except the last (linear representation head), relu after
    the projector's hidden layer, and a linear final projector layer. Like
    the tape, it lets NaN and Inf through without numpy's warnings."""
    h = np.asarray(x, dtype=np.float64)
    n_enc = params.n_encoder_layers
    outs = []
    with np.errstate(all="ignore"):
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = h @ w + b
            if i < n_enc - 1:
                h = np.tanh(h)
            elif i == n_enc:
                h = np.maximum(h, 0.0)
            outs.append(h)
    return outs


def mlp_forward(params: ModelParams, x: np.ndarray):
    """Plain forward pass mirroring the tape graph op for op; returns the
    representation and the raw projector output, unchecked."""
    outs = _layer_outputs(params, x)
    return outs[params.n_encoder_layers - 1], outs[-1]


def build_model_graph(tape: Tape, params: ModelParams, x):
    """The model's forward subgraph on the rows of x, one input node per
    parameter; a training step passes both views stacked.

    Returns (weight_nodes, bias_nodes, repr_node, proj_node)."""
    w_nodes = [tape.input(w, name=f"w{i}") for i, w in enumerate(params.weights)]
    b_nodes = [tape.input(b, name=f"b{i}") for i, b in enumerate(params.biases)]
    n_enc = params.n_encoder_layers
    h = tape.constant(np.asarray(x, dtype=np.float64), name="x")
    for i in range(n_enc):
        h = tape.add(tape.matmul(h, w_nodes[i]), b_nodes[i])
        if i < n_enc - 1:
            h = tape.tanh(h)
    r = h
    p = tape.relu(tape.add(tape.matmul(r, w_nodes[n_enc]), b_nodes[n_enc]))
    y = tape.add(tape.matmul(p, w_nodes[n_enc + 1]), b_nodes[n_enc + 1])
    return w_nodes, b_nodes, r, y


# ---------------------------------------------------------------------------
# training state
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    config: TrainConfig
    params: ModelParams
    mom_w: list
    mom_b: list
    queue: Optional[NNQueue]
    epoch: int = 0     # epochs completed so far


def init_state(config: TrainConfig, input_dim: int) -> TrainState:
    params = init_params(config.model, input_dim, config.train.seed)
    mom_w = [np.zeros_like(w) for w in params.weights]
    mom_b = [np.zeros_like(b) for b in params.biases]
    queue = NNQueue(config.train.queue_capacity) if config.loss.uses_queue else None
    return TrainState(config, params, mom_w, mom_b, queue, 0)


def _epoch_lr(opt: OptimConfig, epoch: int, total: int) -> float:
    if not opt.cosine_lr:
        return opt.lr
    return opt.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / max(1, total)))


def train_epoch(state: TrainState, dataset: HierarchicalDataset) -> dict:
    """Run one epoch of shuffled two-view batches; returns the metrics row
    (loss terms, thresholds, mask statistics) and advances state.epoch.

    Each value is the mean over the batches that report it, except
    clamp_events, which is their total."""
    cfg = state.config
    e = state.epoch
    n = dataset.n_samples
    if n < 2:
        raise InsufficientSamples(f"training needs at least 2 rows, the dataset "
                                  f"has {n}")
    bsz = cfg.train.batch_size
    lr = _epoch_lr(cfg.optimizer, e, cfg.train.epochs)
    ep_stream = Rng.from_seed(cfg.train.seed).child(1).child(e)
    order = list(range(n))
    ep_stream.child(0).shuffle(order)
    # Computed once per epoch, not per step: the order as an index array,
    # every step's augmentation key (child s of the augmentation domain is
    # step s's), and per batch size the row-major flat index of the
    # eligible pairs (neither the anchor itself nor its positive).
    order = np.asarray(order, dtype=np.intp)
    step_keys = child_keys(ep_stream.child(1).key, -(-n // bsz))
    eligible: dict = {}

    totals: dict = {}
    counts: dict = {}
    for step, lo in enumerate(range(0, n, bsz)):
        idx = order[lo:lo + bsz]
        b = len(idx)
        if b < 2:
            break
        if b not in eligible:
            eligible[b] = np.flatnonzero(whole_batch_mask(2 * b))
        # Even keys augment view a, odd keys view b. Augmentation is row by
        # row, so both views come from one call on the stacked rows.
        keys = child_keys(int(step_keys[step]), 2 * b)
        x = dataset.x[idx]
        views = augment_batch(np.vstack((x, x)), cfg.augment.noise_sigma,
                              cfg.augment.mask_prob,
                              np.concatenate((keys[0::2], keys[1::2])))

        try:
            step_row = _train_step(state, views, dataset.superclass_labels[idx],
                                   lr, e, eligible[b])
        except NumericalError as err:
            raise type(err)(f"epoch {e + 1}, batch {step}: {err}") from err

        for k, v in step_row.items():
            if v is not None:
                totals[k] = totals.get(k, 0) + v
                counts[k] = counts.get(k, 0) + 1

    state.epoch = e + 1
    row = {"epoch": e + 1}
    for k in step_row:
        if k == "clamp_events":
            row[k] = totals[k]
        else:
            row[k] = totals[k] / counts[k] if k in counts else None
    return row


def _train_step(state: TrainState, views, batch_supers, lr, epoch, elig) -> dict:
    """One SGD step on a batch of b rows; ``views`` stacks view a (rows
    0:b) on view b (rows b:2b), and the tape runs the model once on both.
    ``elig`` is ``np.flatnonzero(whole_batch_mask(2 * b))``."""
    cfg = state.config
    loss_cfg = cfg.loss
    b = views.shape[0] // 2
    row_supers = np.concatenate([batch_supers, batch_supers])

    # Plain forward to derive the frozen constants (threshold, mask, NN rows).
    _, ya = mlp_forward(state.params, views[:b])
    _, yb = mlp_forward(state.params, views[b:])
    try:
        z_full = l2_normalize_rows(np.vstack([ya, yb]))
    except NonFinite as err:    # name the first non-finite layer, if any
        i = min((i for x in (views[:b], views[b:])
                 for i, h in enumerate(_layer_outputs(state.params, x))
                 if not np.isfinite(h).all()), default=None)
        if i is None:
            raise
        raise NonFinite(f"{err}; the first layer to output one is layer {i} "
                        f"(w{i}, b{i})") from None

    # NNCLR contrasts the queue's nearest neighbours of view a with view b
    # (Dwibedi et al., arXiv 2104.14548, eq. 2).
    nn_rows = None
    z_used = z_full
    if state.queue is not None and len(state.queue) > 0:
        nn_rows = nnclr_positive_rows(state.queue, z_full[:b])
        z_used = np.vstack([nn_rows, z_full[b:]])

    sims = cosine_sim_matrix(z_used)
    ada_eps = adaptive_threshold(sims.ravel()[elig], cfg.schedule.sigma_multiplier)
    sched_eps = threshold_for_epoch(cfg.schedule, epoch)
    thr_used = ada_eps if sched_eps is None else sched_eps

    dq = mask_quality(threshold_mask(sims, ada_eps), row_supers)
    mask = None
    if loss_cfg.is_hex:
        if cfg.mask_source == "supervised":
            mask = supervised_mask(row_supers)
        elif cfg.mask_source == "all":
            mask = whole_batch_mask(2 * b)
        else:
            mask = threshold_mask(sims, thr_used)
    # Nothing below reads the batch similarities; freeing them here keeps
    # them out of the tape pass's memory peak.
    del sims

    # Differentiable graph with the mask and NN rows frozen as constants.
    # Each loss is one kernel node on y, the HEX one first: backward adds
    # their contributions to y in reverse recording order.
    tape = Tape()
    w_nodes, b_nodes, _, y = build_model_graph(tape, state.params, views)
    contra = dim = None
    if loss_cfg.is_hex:
        contra = build_hex_graph(tape, y, mask, loss_cfg.tau,
                                 tau_plus=loss_cfg.tau_plus, nn_rows=nn_rows)
    elif not loss_cfg.is_dim:
        contra = build_info_nce_graph(tape, y, 2 * b, loss_cfg.tau, nn_rows=nn_rows)
    if loss_cfg.kind.startswith("barlow"):
        dim = build_barlow_graph(tape, y, loss_cfg.barlow_lambda, loss_cfg.barlow_scale)
    elif loss_cfg.kind.startswith("vicreg"):
        dim = build_vicreg_graph(tape, y, loss_cfg.vicreg_sim,
                                 loss_cfg.vicreg_var, loss_cfg.vicreg_cov)
    info = contra or dim
    if contra is not None and dim is not None:
        info = build_combined_graph(tape, contra, dim, loss_cfg.alpha, loss_cfg.hex_scale)

    loss_value = forward(tape)
    backward(tape)

    # SGD with momentum on every parameter node's accumulated gradient.
    mom = cfg.optimizer.momentum
    for p_arr, v, node in zip(state.params.weights + state.params.biases,
                              state.mom_w + state.mom_b, w_nodes + b_nodes):
        v *= mom
        v += node.grad
        p_arr -= lr * v

    # NNCLR queue learns the fresh positive-view embeddings after the step.
    if state.queue is not None:
        state.queue.push(z_full[b:])

    bd = info.breakdown()
    return {"loss_total": loss_value, "loss_invariance": bd.invariance_term,
            "loss_regularization": bd.regularization_term,
            "hex_term_mean": bd.hex_term_mean, "threshold": thr_used,
            "adaptive_threshold": ada_eps, "mean_H_size": bd.mean_H_size,
            "clamp_events": bd.clamp_events, "mask_precision": dq.precision,
            "mask_recall": dq.recall, "mask_size": dq.mean_mask_size}


# ---------------------------------------------------------------------------
# evaluation and per-epoch diagnostics
# ---------------------------------------------------------------------------

def evaluate(state: TrainState, dataset: HierarchicalDataset,
             probe: str = "knn_class", k: Optional[int] = None,
             holdout_fraction: Optional[float] = None,
             seed: Optional[int] = None) -> float:
    """Cosine KNN accuracy of encoder representations on a held-out split.
    k, holdout_fraction and seed default to the run's train settings.

    The split permutation derives from the run seed only, so it is stable
    across epochs and across runs that share a seed."""
    if probe not in ("knn_class", "knn_super"):
        raise BadConfig(f"probe must be knn_class or knn_super, got {probe!r}")
    cfg = state.config
    frac = cfg.train.holdout_fraction if holdout_fraction is None else holdout_fraction
    seed = cfg.train.seed if seed is None else seed
    k = cfg.train.knn_k if k is None else k
    r, _ = mlp_forward(state.params, dataset.x)
    labels = (dataset.class_labels if probe == "knn_class"
              else dataset.superclass_labels)
    query_idx, train_idx = diag.holdout_split(dataset.n_samples, frac, seed)
    return diag.knn_accuracy(r[train_idx], labels[train_idx],
                             r[query_idx], labels[query_idx], k)


def run_diagnostics(state: TrainState, dataset: HierarchicalDataset,
                    epoch: int) -> dict:
    """The diagnostic columns of epoch's metrics row. A NumericalError keeps
    its class; its message is prefixed by the epoch."""
    cfg = state.config
    try:
        r, y = mlp_forward(state.params, dataset.x)
        diag_seed = Rng.from_seed(cfg.train.seed).child(4).child(epoch).key
        return {
            **diag.rank_and_similarity_columns(r, y, dataset.superclass_labels,
                                               cfg.train.rank_subsets,
                                               cfg.train.rank_subset_size, diag_seed),
            "knn_class": evaluate(state, dataset, "knn_class"),
            "knn_super": evaluate(state, dataset, "knn_super"),
        }
    except NumericalError as err:
        raise type(err)(f"epoch {epoch}, diagnostics: {err}") from err


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_metrics_csv(rows: list, path: str):
    lines = [",".join(METRICS_COLUMNS)]
    lines += [",".join(_format_cell(row.get(c)) for c in METRICS_COLUMNS)
              for row in rows]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_metrics_csv(path: str) -> list:
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    if not lines or not lines[0]:
        raise SchemaError(f"{path}: empty metrics file, expected a header row")
    header = lines[0].split(",")
    rows = []
    for line_no, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        row = {}
        try:
            for name, cell in zip(header, ln.split(",")):
                if cell == "":
                    row[name] = None
                elif name in ("epoch", "clamp_events"):
                    row[name] = int(cell)
                else:
                    row[name] = float(cell)
        except ValueError as e:
            raise SchemaError(f"{path}: line {line_no}, column {name}: {e}") from e
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _state_arrays(state: TrainState) -> list:
    arrays = []
    for i, w in enumerate(state.params.weights):
        arrays.append((f"w{i}", w))
    for i, b in enumerate(state.params.biases):
        arrays.append((f"b{i}", b))
    for i, v in enumerate(state.mom_w):
        arrays.append((f"mw{i}", v))
    for i, v in enumerate(state.mom_b):
        arrays.append((f"mb{i}", v))
    if state.queue is not None and len(state.queue) > 0:
        arrays.append(("queue", state.queue.as_matrix()))
    return arrays


def save_checkpoint(state: TrainState, path: str):
    """Single self-describing file: magic + version, a JSON table of array
    names and shapes, then the flat little-endian float64 payload."""
    arrays = _state_arrays(state)
    header = {
        "format_version": 1,
        "epoch_completed": state.epoch,
        "config": state.config.to_dict(),
        "arrays": [{"name": n, "rows": a.shape[0], "cols": a.shape[1]}
                   for n, a in arrays],
        "queue_len": len(state.queue) if state.queue is not None else None,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob]
    parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays]
    _write_atomic(path, b"".join(parts))


def load_checkpoint(path: str) -> TrainState:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    if len(raw) < 12 or raw[:8] != CHECKPOINT_MAGIC:
        raise VersionMismatch(f"{path}: not a checkpoint file (bad magic)")
    (blob_len,) = struct.unpack("<I", raw[8:12])
    try:
        header = json.loads(raw[12:12 + blob_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IoError(f"{path}: corrupt header: {e}") from e
    if not isinstance(header, dict):
        raise IoError(f"{path}: corrupt header: not a JSON object")
    if header.get("format_version") != 1:
        raise VersionMismatch(f"{path}: unsupported format version "
                              f"{header.get('format_version')!r}")
    for key in ("config", "arrays", "epoch_completed"):
        if key not in header:
            raise IoError(f"{path}: the header has no {key!r}")
    config = TrainConfig.from_dict(header["config"])
    epoch, specs = header["epoch_completed"], header["arrays"]
    if type(epoch) is not int or epoch < 0:
        raise IoError(f"{path}: epoch_completed must be a count, got {epoch!r}")
    if not (isinstance(specs, list) and all(
            isinstance(s, dict) and isinstance(s.get("name"), str)
            and type(s.get("rows")) is int and type(s.get("cols")) is int
            and min(s["rows"], s["cols"]) >= 0 for s in specs)):
        raise IoError(f"{path}: corrupt header: each array needs a name, rows and cols")
    offset = 12 + blob_len
    arrays = {}
    for spec in specs:
        count = spec["rows"] * spec["cols"]
        end = offset + 8 * count
        if end > len(raw):
            raise IoError(f"{path}: truncated payload at array {spec['name']}")
        arrays[spec["name"]] = np.frombuffer(
            raw[offset:end], dtype="<f8").astype(np.float64).reshape(
                spec["rows"], spec["cols"])
        offset = end
    if offset != len(raw):
        raise IoError(f"{path}: {len(raw) - offset} trailing bytes")

    n_enc = len(config.model.encoder_hidden) + 1
    layers = range(n_enc + 2)
    # The input dim is w0's row count; every other width is the config's.
    dims = layer_dims(config.model, len(arrays.get("w0", ())))
    shapes = {f"{kind}{i}": (1 if kind.endswith("b") else dims[i], dims[i + 1])
              for kind in ("w", "b", "mw", "mb") for i in layers}
    # A queue_len that miscounts the saved queue would resume with another.
    queue_len, queue_rows = header.get("queue_len"), len(arrays.get("queue", ()))
    if not (type(queue_len) is int and queue_len == queue_rows
            or queue_len is None and not queue_rows):
        raise IoError(f"{path}: queue_len {queue_len!r} does not count the "
                      f"{queue_rows} saved queue rows")
    if config.loss.uses_queue and queue_rows:    # 1 to queue_capacity rows
        shapes["queue"] = (min(queue_rows, config.train.queue_capacity),
                           config.model.proj_dim)
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise IoError(f"{path}: the header lists no array {', '.join(missing)}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise IoError(f"{path}: array {name} has shape {arrays[name].shape}, not {shape}")
    params = ModelParams([arrays[f"w{i}"] for i in layers],
                         [arrays[f"b{i}"] for i in layers], n_enc)
    mom_w = [arrays[f"mw{i}"] for i in layers]
    mom_b = [arrays[f"mb{i}"] for i in layers]
    queue = None
    if config.loss.uses_queue:
        queue = NNQueue(config.train.queue_capacity)
        if queue_rows:
            queue.push(arrays["queue"])
    return TrainState(config, params, mom_w, mom_b, queue, epoch)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def _resume_conflicts(saved: TrainConfig, given: TrainConfig) -> list:
    """'key saved != given' for each config field on which a resumed run
    would differ from the run that wrote the checkpoint.

    train.epochs may change, which lengthens or shortens the run, unless the
    total is read mid-run: by optimizer.cosine_lr, or by a cos schedule
    whose total_epochs follows it. schedule.total_epochs may change with
    it where it equals train.epochs on both sides, as it does when left to
    its default, and no cos schedule reads it."""
    def flat(config):
        out = {}
        for name, section in config.to_dict().items():
            if isinstance(section, dict):
                out.update({f"{name}.{k}": v for k, v in section.items()})
            else:
                out[name] = section
        return out

    a, b = flat(saved), flat(given)
    follows = all(f["schedule.total_epochs"] == f["train.epochs"] for f in (a, b))
    cos_follows = follows and "cos" in (a["schedule.kind"], b["schedule.kind"])
    ignored = set()
    if not (a["optimizer.cosine_lr"] or b["optimizer.cosine_lr"] or cos_follows):
        ignored.add("train.epochs")
    if follows and not cos_follows:
        ignored.add("schedule.total_epochs")
    return [f"{k} {a.get(k)!r} != {b.get(k)!r}" for k in sorted(a.keys() | b.keys())
            if k not in ignored and a.get(k) != b.get(k)]


def run_training(config: TrainConfig, out_dir: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 resume_from: Optional[str] = None):
    """Train to config.train.epochs; returns (metrics rows, summary, state).

    With out_dir set, writes metrics.csv (after every epoch), summary.json
    and (optionally) periodic checkpoints there. Resuming reproduces the
    uninterrupted run's remaining rows bitwise; rows already covered by the
    checkpoint are reread from the existing metrics.csv when present.
    """
    if checkpoint_every is not None:
        _check_int("checkpoint_every", checkpoint_every)
        if checkpoint_every < 1:
            raise BadConfig(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    t0 = time.time()
    dataset = config.load_dataset()
    prior_rows: list = []
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        conflicts = _resume_conflicts(state.config, config)
        if conflicts:
            raise BadConfig(f"{resume_from}: the checkpoint's config differs on "
                            f"{'; '.join(conflicts)}; only train.epochs may change "
                            f"on resume, and only while no cosine lr or cos "
                            f"schedule reads it")
        state.config = config
        if out_dir is not None:
            existing = os.path.join(out_dir, "metrics.csv")
            if os.path.exists(existing):
                prior_rows = [r for r in read_metrics_csv(existing)
                              if r["epoch"] <= state.epoch]
    else:
        state = init_state(config, dataset.dim)
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.csv")

    rows = list(prior_rows)
    # metrics.csv is rewritten after every epoch, before that epoch's
    # checkpoint, so a crash loses no finished row.
    if metrics_path is not None:
        write_metrics_csv(rows, metrics_path)
    total = config.train.epochs
    while state.epoch < total:
        row = {c: None for c in METRICS_COLUMNS}
        row.update(train_epoch(state, dataset))
        e_done = state.epoch
        if e_done % config.train.eval_every == 0 or e_done == total:
            row.update(run_diagnostics(state, dataset, e_done))
        rows.append(row)
        if metrics_path is not None:
            write_metrics_csv(rows, metrics_path)
        if (out_dir is not None and checkpoint_every
                and e_done % checkpoint_every == 0 and e_done < total):
            save_checkpoint(state, os.path.join(out_dir, f"ckpt_{e_done:06d}.bin"))

    if out_dir is not None and checkpoint_every:
        save_checkpoint(state, os.path.join(out_dir, "ckpt_final.bin"))
    final = rows[-1] if rows else {}
    summary = {
        "schema_version": 1,
        "config_hash": config.config_hash(),
        "seed": config.train.seed,
        "loss_kind": config.loss.kind,
        "epochs": total,
        "final_knn_class": final.get("knn_class"),
        "final_knn_super": final.get("knn_super"),
        "final_rankme_super": final.get("rankme_super"),
        "final_rankme_random": final.get("rankme_random"),
        "wall_time_s": time.time() - t0,
        "metrics_csv": metrics_path,
    }
    if out_dir is not None:
        _write_atomic(os.path.join(out_dir, "summary.json"),
                      (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    return rows, summary, state
