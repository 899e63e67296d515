"""Regenerate reference.json: the recorded outputs of every workload for
seeds 0..N-1, from the checkout's current sources.

    python3 perfbench/make_reference.py [N]

A run prints the largest relative drift of its own recorded outputs from
this table, so a change to the program's arithmetic shows. Regenerate only
when such a change is intended, and say so where the change is described.
"""

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from hexreg import trainer  # noqa: E402

from perfbench import bench  # noqa: E402


def outputs(seed: int) -> dict:
    """What bench.run records, for each workload, without timing anything."""
    out = {}
    dataset, state = bench.set_up(bench.desk_config("simclr_hex", seed))
    for _ in range(bench.DIAG_WARMUP_EPOCHS):
        row = trainer.train_epoch(state, dataset)
        if state.epoch == bench.REF_EPOCH:
            out["train_hex"] = {"loss_final": row["loss_total"],
                                "clamp_events": row["clamp_events"]}
    out["diagnose"] = {"loss_final": row["loss_total"],
                       "clamp_events": row["clamp_events"],
                       **trainer.run_diagnostics(state, dataset, state.epoch)}
    dataset, state = bench.set_up(bench.desk_config("barlow", seed))
    for _ in range(bench.REF_EPOCH):
        row = trainer.train_epoch(state, dataset)
    out["train_barlow"] = {"loss_final": row["loss_total"],
                           "clamp_events": row["clamp_events"]}
    return out


def main(n: int):
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        per_seed = list(pool.map(outputs, range(n)))
    table = {name: {str(seed): per_seed[seed][name] for seed in range(n)}
             for name in bench.WORKLOADS}
    with open(bench.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
