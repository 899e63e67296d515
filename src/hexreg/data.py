"""Synthetic hierarchical dataset generation, deterministic augmentation,
and CSV ingestion for externally produced embeddings.

Generation layers three isotropic Gaussians: a mean per superclass, a mean
offset per class, and per-sample noise, with sigma_super >= sigma_class >=
sigma_sample so same-superclass samples are systematically closer. Every
random draw comes from the splittable counter-based generator in
:mod:`hexreg.rng`, with one stream per superclass, per class and per sample,
so enlarging the dataset never perturbs earlier draws. Generation and
augmentation draw many streams at once through that module's row-wise
functions (``child_keys``, ``uniform_rows``, ``box_muller``), the single
implementation of the recipe; each row is the stream a per-sample
``Rng`` would give, so the stream layout, and every output bit, is the
same as drawing one sample at a time.

CSV format, for every file this package writes or reads: comma separators,
LF line endings, no quoting, a header row, and ``_format_cell`` cells.
``csv_text`` formats a file and ``read_csv`` splits one; no other code
assembles or parses a CSV row. The dataset schema, also the public
ingestion format, is ``f0,f1,...,f{d-1},class,superclass``.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, IoError, SchemaError, check_fields, refusal
from .rng import Rng, box_muller, child_keys, seed_keys, uniform_rows


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
        check_fields("data", self, n_super="int >= 1", classes_per_super="int >= 1",
                     samples_per_class="int >= 1", input_dim="int >= 1",
                     sigma_super="real", sigma_class="real", sigma_sample="real > 0",
                     seed="int")
        if self.sigma_sample > self.sigma_class:
            raise refusal("data.sigma_sample", f"be <= data.sigma_class ({self.sigma_class!r})",
                          self.sigma_sample)
        if self.sigma_class > self.sigma_super:
            raise refusal("data.sigma_class", f"be <= data.sigma_super ({self.sigma_super!r})",
                          self.sigma_class)


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
    root.child(2).child(c).child(k) for sample k of class c. Each mean or
    sample is d Box-Muller Gaussians from the first 2d uniforms of its
    stream. All streams of one level, and all samples of one class, are
    drawn in one row-wise call, so temporaries stay bounded by one class's
    rows.
    """
    root = Rng.from_seed(p.seed)
    sup_dom, cls_dom, smp_dom = root.child(0), root.child(1), root.child(2)
    d = p.input_dim
    cps, spc = p.classes_per_super, p.samples_per_class
    n_classes = p.n_super * cps
    mu_super = p.sigma_super * box_muller(
        uniform_rows(child_keys(sup_dom.key, p.n_super), 2 * d))
    mu_class = np.repeat(mu_super, cps, axis=0) + p.sigma_class * box_muller(
        uniform_rows(child_keys(cls_dom.key, n_classes), 2 * d))
    x = np.empty((n_classes * spc, d))
    for c, key in enumerate(child_keys(smp_dom.key, n_classes).tolist()):
        noise = box_muller(uniform_rows(child_keys(key, spc), 2 * d))
        x[c * spc:(c + 1) * spc] = mu_class[c] + p.sigma_sample * noise
    class_labels = np.repeat(np.arange(n_classes, dtype=np.int64), spc)
    return HierarchicalDataset(x, class_labels, class_labels // cps)


def augment_batch(x: np.ndarray, noise_sigma: float, mask_prob: float,
                  seeds) -> np.ndarray:
    """Row-wise augmentation: add isotropic Gaussian noise, then zero each
    coordinate independently with probability mask_prob. One seed per row;
    row i consumes its stream's first 2d uniforms as d Box-Muller Gaussians
    and the next d uniforms for the masking decisions. The config's
    ``augment`` section checks noise_sigma and mask_prob."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, d = a.shape
    keys = seed_keys(seeds)
    if keys.size != n:
        raise BadConfig(f"augment_batch needs one seed per row, got {keys.size} "
                        f"seeds for {n} rows")
    u = uniform_rows(keys, 3 * d)
    out = a + noise_sigma * box_muller(u[:, :2 * d])
    out[u[:, 2 * d:] < mask_prob] = 0.0
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


def _format_cell(v) -> str:
    """One CSV cell of every file this package writes: empty for None, an
    integer as itself, anything else as a shortest round-trip float."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def csv_text(header, rows) -> str:
    """The text of a CSV file: the header's names, then one line of
    ``_format_cell`` cells per row."""
    lines = [",".join(header)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_csv(path: str) -> tuple:
    """(header, n, rows) of the CSV file at path: the header on line 1, the
    number n of non-blank rows after it, and an iterator of (line_no,
    cells) that splits one row at a time, so only the text lines and the
    current row's cells are held. SchemaError names the line of a row
    whose cell count is not the header's, when the row is reached."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    if not lines or not lines[0]:
        raise SchemaError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")

    def rows():
        for line_no, ln in enumerate(lines[1:], start=2):
            if ln:
                cells = ln.split(",")
                if len(cells) != len(header):
                    raise SchemaError(f"{path}: line {line_no}: {len(cells)} cells, "
                                      f"but the header has {len(header)}")
                yield line_no, cells

    return header, len(lines) - 1 - lines.count(""), rows()


def save_csv(d: HierarchicalDataset, path: str):
    header = [f"f{j}" for j in range(d.dim)] + ["class", "superclass"]
    rows = ([*x, c, s] for x, c, s in zip(d.x, d.class_labels, d.superclass_labels))
    _write_atomic(path, csv_text(header, rows).encode())


def load_csv(path: str) -> HierarchicalDataset:
    """Read the schema above; feature columns must be f0..f{d-1} in order
    and every feature cell finite."""
    header, n, rows = read_csv(path)
    if len(header) < 3 or header[-2:] != ["class", "superclass"]:
        raise SchemaError(f"{path}: header must end with 'class,superclass'")
    d = len(header) - 2
    if header[:d] != [f"f{j}" for j in range(d)]:
        raise SchemaError(f"{path}: feature columns must be f0..f{d - 1} in order")
    if n == 0:
        raise SchemaError(f"{path}: no data rows")
    x = np.empty((n, d))
    cls = np.empty(n, dtype=np.int64)
    sup = np.empty(n, dtype=np.int64)
    for i, (line_no, cells) in enumerate(rows):
        try:
            x[i] = [float(c) for c in cells[:d]]
            cls[i] = int(cells[d])
            sup[i] = int(cells[d + 1])
        except ValueError as e:
            raise SchemaError(f"{path}: line {line_no}: {e}") from e
        finite = np.isfinite(x[i])
        if not finite.all():
            j = int(np.argmin(finite))
            raise SchemaError(f"{path}: line {line_no}: feature f{j} must be finite, "
                              f"got {cells[j]!r}")
    return HierarchicalDataset(x, cls, sup)
