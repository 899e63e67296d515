"""Command-line entry point.

Subcommands: gen-data, train, eval, diagnose, schedule. One JSON config
file drives everything; flags override individual fields. All outputs are
CSV or JSON so downstream plotting never depends on this tool.

Exit codes: 0 success, 1 usage/config error, 2 data/schema error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import diagnostics as diag
from .data import GenParams, _format_cell, _write_atomic, generate, load_csv, save_csv
from .errors import BadConfig, HexRegError, IoError, SchemaError
from .schedule import threshold_for_epoch
from .trainer import TrainConfig, run_training

DIAGNOSE_COLUMNS = ["n_samples", "dim", "rankme_super", "rankme_random",
                    "mean_super", "mean_regular", "skew_super", "skew_regular",
                    "knn_class", "knn_super"]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise IoError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise BadConfig(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise BadConfig(f"config {path} must hold a JSON object, got "
                        f"{type(raw).__name__}")
    return raw


def _int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadConfig(f"{what} must be an integer, got {text!r}") from None


def cmd_gen_data(args) -> int:
    raw = _load_config(args.config).get("data", {})
    if not isinstance(raw, dict) or "path" in raw:
        raise BadConfig("gen-data needs generator parameters in the 'data' section")
    if args.seed is not None:
        raw = {**raw, "seed": args.seed}
    try:
        params = GenParams(**raw)
    except TypeError as e:
        raise BadConfig(f"bad 'data' section: {e}") from e
    ds = generate(params)
    save_csv(ds, args.out)
    print(f"wrote {ds.n_samples} rows ({params.n_super} superclasses x "
          f"{params.classes_per_super} classes x {params.samples_per_class} "
          f"samples, dim {params.input_dim}) to {args.out}")
    return 0


def _apply_overrides(raw: dict, seed=None, epochs=None, loss_kind=None) -> dict:
    out = json.loads(json.dumps(raw))
    if seed is not None:
        out.setdefault("train", {})["seed"] = seed
    if epochs is not None:
        out.setdefault("train", {})["epochs"] = epochs
    if loss_kind is not None:
        out.setdefault("loss", {})["kind"] = loss_kind
    return out


def _run_cell(raw_cfg: dict, out_dir: str, checkpoint_every, resume):
    config = TrainConfig.from_dict(raw_cfg)
    _, summary, _ = run_training(config, out_dir=out_dir,
                                 checkpoint_every=checkpoint_every,
                                 resume_from=resume)
    return summary


def cmd_train(args) -> int:
    raw = _load_config(args.config)
    seeds = ([_int("each --seeds entry", s) for s in args.seeds.split(",")]
             if args.seeds else None)
    kinds = args.loss_kinds.split(",") if args.loss_kinds else None
    if seeds is None and kinds is None:
        cfg = _apply_overrides(raw, args.seed, args.epochs, args.loss_kind)
        summary = _run_cell(cfg, args.out, args.checkpoint_every, args.resume)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    # run-matrix: seeds x loss kinds, one directory per cell
    if args.resume:
        raise BadConfig("--resume cannot be combined with a run matrix")
    seeds = seeds or [args.seed if args.seed is not None
                      else raw.get("train", {}).get("seed", 1)]
    kinds = kinds or [args.loss_kind if args.loss_kind
                      else raw.get("loss", {}).get("kind", "simclr")]
    cells = []
    for kind in kinds:
        for seed in seeds:
            cfg = _apply_overrides(raw, seed, args.epochs, kind)
            cells.append((cfg, os.path.join(args.out, f"{kind}_seed{seed}")))
    workers = _int("HEXREG_THREADS", os.environ.get("HEXREG_THREADS", "1"))
    summaries = []
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, cfg, out, args.checkpoint_every, None)
                       for cfg, out in cells]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_run_cell(cfg, out, args.checkpoint_every, None)
                     for cfg, out in cells]
    print(json.dumps(summaries, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    from .trainer import evaluate, load_checkpoint
    state = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data) if args.data else state.config.load_dataset()
    model_dim = state.params.weights[0].shape[0]
    if dataset.dim != model_dim:
        raise SchemaError(f"{args.data or 'the run dataset'} has {dataset.dim} feature "
                          f"columns; the checkpoint's model takes {model_dim}")
    out = {}
    probes = ["knn_class", "knn_super"] if args.probe == "both" else [args.probe]
    for probe in probes:
        out[probe] = evaluate(state, dataset, probe, args.k,
                              holdout_fraction=args.holdout, seed=args.seed)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_diagnose(args) -> int:
    ds = load_csv(args.embeddings)
    x = ds.x
    supers = ds.superclass_labels
    subset_size = args.subset_size
    if subset_size is None:
        smallest = min(np.count_nonzero(supers == s) for s in np.unique(supers))
        subset_size = min(100, smallest)
    columns = diag.rank_and_similarity_columns(x, x, supers, args.rankme_subsets,
                                               subset_size, args.seed)

    n = ds.n_samples
    q_idx, t_idx = diag.holdout_split(n, args.holdout, args.seed)
    knn_class = diag.knn_accuracy(x[t_idx], ds.class_labels[t_idx],
                                  x[q_idx], ds.class_labels[q_idx], args.knn_k)
    knn_super = diag.knn_accuracy(x[t_idx], supers[t_idx],
                                  x[q_idx], supers[q_idx], args.knn_k)
    row = {"n_samples": n, "dim": ds.dim, **columns,
           "knn_class": knn_class, "knn_super": knn_super}
    lines = [",".join(DIAGNOSE_COLUMNS),
             ",".join(_format_cell(row[c]) for c in DIAGNOSE_COLUMNS)]
    return _emit("\n".join(lines) + "\n", args.out)


def _emit(text: str, out) -> int:
    """Write text atomically to ``out`` when given, then print it."""
    if out:
        _write_atomic(out, text.encode())
    print(text, end="")
    return 0


def cmd_schedule(args) -> int:
    raw = _load_config(args.config)
    config = TrainConfig.from_dict(raw)
    sched = config.schedule
    if sched.kind == "adaptive":
        print(f"adaptive schedule: threshold = batch mean + "
              f"{sched.sigma_multiplier} * std, computed per batch; "
              "no epoch table exists")
        return 0
    epochs = args.epochs if args.epochs is not None else config.train.epochs
    if epochs < 1:
        raise BadConfig(f"--epochs must be >= 1, got {epochs}")
    lines = ["epoch,epsilon"]
    for e in range(epochs):
        lines.append(f"{e},{repr(float(threshold_for_epoch(sched, e)))}")
    return _emit("\n".join(lines) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hexreg",
                                 description="hierarchy-aware contrastive "
                                             "training and diagnostics")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train per config; optional seed x loss matrix")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--loss-kind")
    t.add_argument("--seeds", help="comma list -> run matrix")
    t.add_argument("--loss-kinds", help="comma list -> run matrix")
    t.add_argument("--checkpoint-every", type=int)
    t.add_argument("--resume", help="checkpoint file to resume from")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="KNN probe of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", help="embeddings CSV; defaults to the run's dataset")
    e.add_argument("--probe", choices=["knn_class", "knn_super", "both"],
                   default="both")
    e.add_argument("--k", type=int, default=None)
    e.add_argument("--holdout", type=float, default=None)
    e.add_argument("--seed", type=int, default=None)
    e.set_defaults(fn=cmd_eval)

    d = sub.add_parser("diagnose", help="collapse/hierarchy diagnostics on a CSV")
    d.add_argument("--embeddings", required=True)
    d.add_argument("--out")
    d.add_argument("--rankme-subsets", type=int, default=10)
    d.add_argument("--subset-size", type=int, default=None)
    d.add_argument("--knn-k", type=int, default=5)
    d.add_argument("--holdout", type=float, default=0.2)
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_diagnose)

    s = sub.add_parser("schedule", help="print the epsilon(epoch) table as CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.add_argument("--epochs", type=int)
    s.set_defaults(fn=cmd_schedule)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except HexRegError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
