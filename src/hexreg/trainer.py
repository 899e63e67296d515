"""Desk-scale self-supervised training: MLP encoder + projector on two
augmented views per sample, loss selection over the supported objectives,
SGD-with-momentum via the autodiff tape, per-epoch diagnostics, and
bitwise-reproducible checkpointing.

This module is the tape's one client. The model works row by row, so each
step records it once, on the two views stacked into 2b rows (view a in
rows 0:b, view b in rows b:2b), with the layer loop that also runs it on
arrays. The loss, a tape-free kernel from ``losses``, is one ``kernel``
node on that stacked output; a loss that reads the views splits it at b.

Faults: the tape and the numeric kernels (``linalg``, ``hierarchy``,
``schedule``, ``losses``, ``diagnostics``) only compute. Each value is
checked once, where it enters the program:
- a config section, each field, to ``errors.check_fields``; ``run_training``
  that the dataset meets ``train.knn_k`` and ``train.rank_subset_size``;
- ``load_csv``, a file's header, labels and finite features;
- ``load_checkpoint``, the header, each array's shape, ``queue_len`` and
  that each queue row is a finite unit row, as ``cosine_sim_matrix`` reads;
- the CLI, each flag, which its refusal names, before any work;
- the model's output: a step, before it changes any state, the plain
  forward's projector rows, the loss and each parameter gradient from the
  last layer down; ``run_diagnostics`` and ``evaluate``, the representations.
A step's NonFinite names the first layer to output a NaN or Inf (else the
last layer, whose rows' norm overflows or is zero), the loss term by its
kernel's name (a combined kind's first non-finite part, HEX first), or the
parameter and its layer; ``train_epoch`` adds the epoch and batch,
``run_diagnostics`` the epoch. A finite loss implies finite reported terms,
since each reaches the loss only through sums, products, log and mean,
which keep a NaN or Inf.

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
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import diagnostics as diag
from . import losses as losses_mod
from .autodiff import Tape, backward, forward
from .data import (GenParams, HierarchicalDataset, _write_atomic, augment_batch,
                   csv_text, generate, load_csv, read_csv)
from .errors import (BadConfig, InsufficientSamples, IoError, NonFinite, NumericalError,
                     SchemaError, VersionMismatch, check, check_fields)
from .hierarchy import (mask_quality, supervised_mask, threshold_mask,
                        whole_batch_mask)
from .linalg import as_matrix, cosine_sim_matrix, l2_normalize_rows
from .losses import (build_barlow_graph, build_combined_graph, build_hex_graph,
                     build_info_nce_graph, build_vicreg_graph, nnclr_positive_rows)
from .rng import Rng, child_keys
from .schedule import ThresholdSchedule, adaptive_threshold, threshold_for_epoch

CHECKPOINT_MAGIC = b"HEXCKPT1"
# The columns of a run_diagnostics row; the rest of METRICS_COLUMNS are a
# train_epoch row's. Each name is the key its producer returns.
DIAGNOSTICS_COLUMNS = [
    "rankme_super", "rankme_random", "mean_super", "mean_regular",
    "skew_super", "skew_regular", "knn_class", "knn_super",
]
METRICS_COLUMNS = [
    "epoch", "loss_total", "loss_invariance", "loss_regularization",
    "hex_term_mean", "threshold", "adaptive_threshold", "mean_H_size",
    "clamp_events", "mask_precision", "mask_recall", "mask_size",
    *DIAGNOSTICS_COLUMNS,
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
        check_fields("model", self, encoder_hidden="ints >= 1", repr_dim="int >= 1",
                     proj_hidden="int >= 1", proj_dim="int >= 1")


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
        check_fields("loss", self, kind=losses_mod.LOSS_KINDS)
        if self.tau is None:
            self.tau = 0.2 if self.kind.startswith("nnclr") else 0.1
        if self.alpha is None:
            self.alpha = 0.5 if self.kind in ("barlow_hex", "vicreg_hex") else 1.0
        if self.hex_scale is None:
            self.hex_scale = 5.0 if self.kind == "vicreg_hex" else 1.0
        weights = ("barlow_lambda", "barlow_scale", "vicreg_sim", "vicreg_var", "vicreg_cov")
        check_fields("loss", self, tau="real > 0", tau_plus="real [0, 1)",
                     alpha="real [0, 1]", hex_scale="real > 0",
                     **dict.fromkeys(weights, "real >= 0"))

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
    lr: float = 0.1    # 0 freezes the parameters, useful for harness checks
    momentum: float = 0.9
    cosine_lr: bool = False

    def __post_init__(self):
        check_fields("optimizer", self, lr="real >= 0", momentum="real [0, 1)",
                     cosine_lr="bool")


@dataclass
class AugmentConfig:
    noise_sigma: float = 0.3
    mask_prob: float = 0.1

    def __post_init__(self):
        check_fields("augment", self, noise_sigma="real >= 0", mask_prob="real [0, 1)")


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
        check_fields("train", self, epochs="int >= 1", batch_size="int >= 2", seed="int",
                     eval_every="int >= 1", queue_capacity="int >= 1",
                     holdout_fraction="real (0, 1)", knn_k="int >= 1",
                     rank_subsets="int >= 1", rank_subset_size="int >= 1")


_SECTION_TYPES = {
    "model": ModelConfig, "loss": LossConfig, "optimizer": OptimConfig,
    "augment": AugmentConfig, "train": RunConfig,
}


def _section(name: str, typ, values, **defaults):
    """typ(**defaults, **values); a bad key, or values that are not a
    mapping, raise BadConfig naming the section."""
    try:
        return typ(**{**defaults, **dict(values)})
    except TypeError as e:
        raise BadConfig(f"bad '{name}' section: {e}") from e


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
        sections = {name: _section(name, typ, raw.get(name, {}))
                    for name, typ in _SECTION_TYPES.items()}
        data = raw.get("data", {})
        if not isinstance(data, str):    # a dataset CSV path, or generator params
            data = _section("data", GenParams, data)
        schedule = _section("schedule", ThresholdSchedule, raw.get("schedule", {}),
                            kind="adaptive", total_epochs=sections["train"].epochs)
        mask_source = check("mask_source", raw.get("mask_source"), (None, "supervised", "all"))
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
    weights: list    # the encoder's layers, then the projector's two
    biases: list


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
    return ModelParams(weights, biases)


# The four ops of the model on numpy arrays; a Tape has the same four.
_NUMPY_OPS = SimpleNamespace(matmul=np.matmul, add=np.add, tanh=np.tanh,
                             relu=lambda a: np.maximum(a, 0.0))


def _layer_outputs(params: ModelParams, h, ops=_NUMPY_OPS) -> list:
    """Every layer's output on the rows of h, in order: tanh after every
    encoder layer except the last (linear representation head), relu after
    the projector's hidden layer, and a linear final projector layer. With
    a Tape as ops and nodes as h and params, it records those layers."""
    last_enc = len(params.weights) - 3
    outs = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ops.add(ops.matmul(h, w), b)
        if i < last_enc:
            h = ops.tanh(h)
        elif i == last_enc + 1:
            h = ops.relu(h)
        outs.append(h)
    return outs


def mlp_forward(params: ModelParams, x: np.ndarray):
    """Plain forward pass, the tape graph's layers on arrays; returns the
    representation and the raw projector output, unchecked. NaN and Inf
    pass through without warnings, as they do on the tape."""
    with np.errstate(all="ignore"):
        outs = _layer_outputs(params, np.asarray(x, dtype=np.float64))
    return outs[-3], outs[-1]


def build_model_graph(tape: Tape, params: ModelParams, x):
    """The model's forward subgraph on the rows of x, one input node per
    parameter; a training step passes both views stacked.

    Returns (weight_nodes, bias_nodes, repr_node, proj_node)."""
    w_nodes = [tape.input(w) for w in params.weights]
    b_nodes = [tape.input(b) for b in params.biases]
    x = tape.constant(np.asarray(x, dtype=np.float64))
    outs = _layer_outputs(ModelParams(w_nodes, b_nodes), x, tape)
    return w_nodes, b_nodes, outs[-3], outs[-1]


# ---------------------------------------------------------------------------
# training state
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    config: TrainConfig
    params: ModelParams
    mom_w: list
    mom_b: list
    queue: Optional[np.ndarray]    # NN kinds: unit rows, oldest first
    epoch: int = 0     # epochs completed so far


def init_state(config: TrainConfig, input_dim: int) -> TrainState:
    params = init_params(config.model, input_dim, config.train.seed)
    mom_w = [np.zeros_like(w) for w in params.weights]
    mom_b = [np.zeros_like(b) for b in params.biases]
    queue = np.empty((0, config.model.proj_dim)) if config.loss.uses_queue else None
    return TrainState(config, params, mom_w, mom_b, queue, 0)


def _epoch_lr(opt: OptimConfig, epoch: int, total: int) -> float:
    if not opt.cosine_lr:
        return opt.lr
    return opt.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / max(1, total)))


def _check_trainable(n: int):
    if n < 2:
        raise InsufficientSamples(f"training needs at least 2 rows, the dataset "
                                  f"has {n}")


def train_epoch(state: TrainState, dataset: HierarchicalDataset) -> dict:
    """Run one epoch of shuffled two-view batches; returns the metrics row
    (loss terms, thresholds, mask statistics) and advances state.epoch.

    Each value is the mean over the batches that report it, except
    clamp_events, which is their total."""
    cfg = state.config
    e = state.epoch
    n = dataset.n_samples
    _check_trainable(n)
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
    except NonFinite as err:
        with np.errstate(all="ignore"):
            i = min((i for x in (views[:b], views[b:])
                     for i, h in enumerate(_layer_outputs(state.params, x))
                     if not np.isfinite(h).all()), default=None)
        where = "the first layer to output one is"
        if i is None:    # finite rows whose norm overflows or is zero
            i, where = len(state.params.weights) - 1, "the rows are the output of"
        raise NonFinite(f"{err}; {where} layer {i} (w{i}, b{i})") from None

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

    # For NN kinds rows 0:b of sims are queue neighbours; mask quality scores
    # them with their anchor's superclass, a proxy, as the queue keeps no labels.
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

    # The loss kernel, with the mask and NN rows frozen as constants.
    contra = dim = None
    if loss_cfg.is_hex:
        contra = build_hex_graph(mask, loss_cfg.tau, tau_plus=loss_cfg.tau_plus,
                                 nn_rows=nn_rows)
    elif not loss_cfg.is_dim:
        contra = build_info_nce_graph(2 * b, loss_cfg.tau, nn_rows=nn_rows)
    if loss_cfg.kind.startswith("barlow"):
        dim = build_barlow_graph(loss_cfg.barlow_lambda, loss_cfg.barlow_scale)
    elif loss_cfg.kind.startswith("vicreg"):
        dim = build_vicreg_graph(loss_cfg.vicreg_sim, loss_cfg.vicreg_var, loss_cfg.vicreg_cov)
    loss = contra or dim
    if contra is not None and dim is not None:
        loss = build_combined_graph(contra, dim, loss_cfg.alpha, loss_cfg.hex_scale)

    # The model graph, and the loss as one kernel node on its output y.
    tape = Tape()
    w_nodes, b_nodes, _, y = build_model_graph(tape, state.params, views)
    tape.kernel(loss, y)
    value = forward(tape)
    if not np.isfinite(value):
        terms = [*getattr(loss, "part_values", ()), (loss.name, value)]
        name, value = next((n, v) for n, v in terms if not np.isfinite(v))
        raise NonFinite(f"the {name} term is {value}")
    backward(tape)
    for i in reversed(range(len(w_nodes))):
        for name, node in ((f"w{i}", w_nodes[i]), (f"b{i}", b_nodes[i])):
            if not np.isfinite(node.grad).all():
                raise NonFinite(f"the gradient of {name} (layer {i}) is not finite")

    # SGD with momentum on every parameter node's accumulated gradient.
    mom = cfg.optimizer.momentum
    for p_arr, v, node in zip(state.params.weights + state.params.biases,
                              state.mom_w + state.mom_b, w_nodes + b_nodes):
        v *= mom
        v += node.grad
        p_arr -= lr * v

    # The NNCLR queue learns view b's fresh embeddings, evicting its oldest rows.
    if state.queue is not None:
        state.queue = np.concatenate((state.queue, z_full[b:]))[-cfg.train.queue_capacity:]

    # A loss without a HEX term keeps the no-HEX values of its columns.
    return {"hex_term_mean": None, "mean_H_size": 0.0, "clamp_events": 0,
            **loss.breakdown(), "threshold": thr_used,
            "adaptive_threshold": ada_eps, **dq}


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
    check("probe", probe, ("knn_class", "knn_super"))
    cfg = state.config
    frac = cfg.train.holdout_fraction if holdout_fraction is None else holdout_fraction
    seed = cfg.train.seed if seed is None else seed
    k = cfg.train.knn_k if k is None else k
    labels = (dataset.class_labels if probe == "knn_class"
              else dataset.superclass_labels)
    query_idx, train_idx = diag.holdout_split(dataset.n_samples, frac, seed)
    r = as_matrix(mlp_forward(state.params, dataset.x)[0])
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
            **diag.rank_and_similarity_columns(as_matrix(r), y, dataset.superclass_labels,
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
    cells = ([row.get(c) for c in METRICS_COLUMNS] for row in rows)
    _write_atomic(path, csv_text(METRICS_COLUMNS, cells).encode())


def read_metrics_csv(path: str) -> list:
    """The rows of a metrics file; SchemaError names the path and line of
    a missing epoch column or cell, a bad cell count, a non-number or a
    NaN or Inf, which a run never writes."""
    header, _, lines = read_csv(path)
    if "epoch" not in header:
        raise SchemaError(f"{path}: line 1: the header has no epoch column")
    rows = []
    for line_no, cells in lines:
        row = {}
        try:
            for name, cell in zip(header, cells):
                if cell == "":
                    row[name] = None
                elif name in ("epoch", "clamp_events"):
                    row[name] = int(cell)
                else:
                    row[name] = float(cell)
                    if not np.isfinite(row[name]):
                        raise ValueError(f"must be finite, got {cell!r}")
        except ValueError as e:
            raise SchemaError(f"{path}: line {line_no}, column {name}: {e}") from e
        if row["epoch"] is None:
            raise SchemaError(f"{path}: line {line_no}, column epoch: the cell is empty")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _state_arrays(state: TrainState) -> list:
    p = state.params
    arrays = [(f"{kind}{i}", a) for kind, group in (("w", p.weights), ("b", p.biases),
                                                    ("mw", state.mom_w), ("mb", state.mom_b))
              for i, a in enumerate(group)]
    if state.queue is not None and len(state.queue) > 0:
        arrays.append(("queue", state.queue))
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

    layers = range(len(config.model.encoder_hidden) + 3)
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
                         [arrays[f"b{i}"] for i in layers])
    mom_w = [arrays[f"mw{i}"] for i in layers]
    mom_b = [arrays[f"mb{i}"] for i in layers]
    queue = None
    if config.loss.uses_queue:
        queue = arrays["queue"] if queue_rows else np.empty((0, config.model.proj_dim))
        with np.errstate(over="ignore"):
            norms = np.sqrt((queue * queue).sum(axis=1))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))    # NaN fails too
        if bad.size:
            i = int(bad[0])
            raise IoError(f"{path}: queue row {i} has norm {norms[i]:.12f}, "
                          f"expected 1 +- 1e-9")
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
        check("checkpoint_every", checkpoint_every, "int >= 1")
    t0 = time.time()
    dataset = config.load_dataset()
    # Refuse a dataset that training or diagnostics cannot use, before any output.
    n = dataset.n_samples
    _check_trainable(n)
    diag.check_knn_k(config.train.knn_k,
                     n - diag.holdout_size(n, config.train.holdout_fraction), "train.knn_k")
    diag.superclass_groups(dataset.superclass_labels, config.train.rank_subset_size,
                           "train.rank_subset_size")
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
