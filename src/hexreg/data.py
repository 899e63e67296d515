"""Synthetic hierarchical dataset generation, deterministic augmentation,
and CSV ingestion for externally produced embeddings.

Generation layers three isotropic Gaussians: a mean per superclass, a mean
offset per class, and per-sample noise, with sigma_super >= sigma_class >=
sigma_sample so same-superclass samples are systematically closer. Every
random draw comes from the splittable counter-based generator in
:mod:`hexreg.rng`, with one stream per superclass, per class and per sample,
so enlarging the dataset never perturbs earlier draws.

CSV schema (also the public ingestion format):
``f0,f1,...,f{d-1},class,superclass`` with comma separators, LF line
endings, no quoting, and floats written as shortest round-trip decimals.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, IoError, SchemaError
from .rng import Rng, _PHI, _mix64_array


@dataclass
class GenParams:
    n_super: int = 4
    classes_per_super: int = 4
    samples_per_class: int = 100
    input_dim: int = 32
    sigma_super: float = 3.0
    sigma_class: float = 1.0
    sigma_sample: float = 0.3
    seed: int = 7

    def __post_init__(self):
        for name in ("n_super", "classes_per_super", "samples_per_class", "input_dim"):
            if getattr(self, name) < 1:
                raise BadParams(f"{name} must be >= 1")
        if not self.sigma_sample > 0:
            raise BadParams("sigma ordering violated: sigma_sample must be > 0")
        if not self.sigma_sample <= self.sigma_class:
            raise BadParams("sigma ordering violated: sigma_sample <= sigma_class")
        if not self.sigma_class <= self.sigma_super:
            raise BadParams("sigma ordering violated: sigma_class <= sigma_super")


@dataclass
class HierarchicalDataset:
    x: np.ndarray
    class_labels: np.ndarray
    superclass_labels: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def generate(p: GenParams) -> HierarchicalDataset:
    """Draw the layered Gaussian mixture described in the module docstring.

    Streams: root.child(0).child(s) for superclass means,
    root.child(1).child(c) for class offsets (c the global class id),
    root.child(2).child(c).child(k) for sample k of class c.
    """
    root = Rng.from_seed(p.seed)
    sup_dom, cls_dom, smp_dom = root.child(0), root.child(1), root.child(2)
    d = p.input_dim
    n_classes = p.n_super * p.classes_per_super
    n = n_classes * p.samples_per_class
    x = np.empty((n, d))
    class_labels = np.empty(n, dtype=np.int64)
    row = 0
    for s in range(p.n_super):
        mu_super = p.sigma_super * sup_dom.child(s).gauss_array(d)
        for c_local in range(p.classes_per_super):
            c = s * p.classes_per_super + c_local
            mu_class = mu_super + p.sigma_class * cls_dom.child(c).gauss_array(d)
            cls_samples = smp_dom.child(c)
            for k in range(p.samples_per_class):
                x[row] = mu_class + p.sigma_sample * cls_samples.child(k).gauss_array(d)
                class_labels[row] = c
                row += 1
    supers = class_labels // p.classes_per_super
    return HierarchicalDataset(x, class_labels, supers)


def augment_batch(x: np.ndarray, noise_sigma: float, mask_prob: float,
                  seeds) -> np.ndarray:
    """Row-wise augmentation: add isotropic Gaussian noise, then zero each
    coordinate independently with probability mask_prob. One seed per row;
    row i consumes its stream's first 2d uniforms as d Box-Muller Gaussians
    and the next d uniforms for the masking decisions."""
    if noise_sigma < 0:
        raise BadParams("noise_sigma must be >= 0")
    if not 0.0 <= mask_prob < 1.0:
        raise BadParams("mask_prob must lie in [0, 1)")
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = a.shape
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(n, 1)
    keys = _mix64_array(seeds + np.uint64(_PHI))
    counters = np.arange(1, 3 * d + 1, dtype=np.uint64).reshape(1, 3 * d)
    raw = _mix64_array(keys + counters * np.uint64(_PHI))
    u = (raw >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    gauss = np.sqrt(-2.0 * np.log(1.0 - u[:, 0:2 * d:2])) * np.cos(
        2.0 * np.pi * u[:, 1:2 * d:2])
    out = a + noise_sigma * gauss
    zero = u[:, 2 * d:] < mask_prob
    out[zero] = 0.0
    return out


def _write_atomic(path: str, data: bytes):
    """Write data to a temp file beside path, then os.replace it into place.

    A process crash mid-write leaves the previous file intact; without an
    fsync this does not guard against power loss."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoError(f"cannot write {path}: {e}") from e


def save_csv(d: HierarchicalDataset, path: str):
    lines = [",".join([f"f{j}" for j in range(d.dim)] + ["class", "superclass"])]
    for i in range(d.n_samples):
        cells = [repr(float(v)) for v in d.x[i]]
        cells.append(str(int(d.class_labels[i])))
        cells.append(str(int(d.superclass_labels[i])))
        lines.append(",".join(cells))
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def load_csv(path: str) -> HierarchicalDataset:
    """Read the schema above; feature columns must be f0..f{d-1} in order."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[-2:] != ["class", "superclass"]:
        raise SchemaError(f"{path}: header must end with 'class,superclass'")
    d = len(header) - 2
    if header[:d] != [f"f{j}" for j in range(d)]:
        raise SchemaError(f"{path}: feature columns must be f0..f{d - 1} in order")
    rows = [ln for ln in lines[1:] if ln]
    n = len(rows)
    if n == 0:
        raise SchemaError(f"{path}: no data rows")
    x = np.empty((n, d))
    cls = np.empty(n, dtype=np.int64)
    sup = np.empty(n, dtype=np.int64)
    for i, ln in enumerate(rows):
        cells = ln.split(",")
        if len(cells) != d + 2:
            raise SchemaError(f"{path}: row {i + 1} has {len(cells)} cells, expected {d + 2}")
        try:
            x[i] = [float(c) for c in cells[:d]]
            cls[i] = int(cells[d])
            sup[i] = int(cells[d + 1])
        except ValueError as e:
            raise SchemaError(f"{path}: row {i + 1}: {e}") from e
    return HierarchicalDataset(x, cls, sup)
