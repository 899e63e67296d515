import json
import os
import struct
from concurrent.futures import Future

import numpy as np
import pytest

from hexreg import cli
from hexreg.cli import main
from hexreg.data import load_csv
from hexreg.linalg import l2_normalize_rows
from hexreg.trainer import load_checkpoint, read_metrics_csv, save_checkpoint


BASE_CONFIG = {
    "data": {"n_super": 2, "classes_per_super": 2, "samples_per_class": 6,
             "input_dim": 6, "sigma_super": 2.0, "sigma_class": 1.0,
             "sigma_sample": 0.4, "seed": 5},
    "model": {"encoder_hidden": [8], "repr_dim": 5, "proj_hidden": 16,
              "proj_dim": 4},
    "loss": {"kind": "simclr"},
    "optimizer": {"lr": 0.05},
    "augment": {"noise_sigma": 0.2, "mask_prob": 0.1},
    "schedule": {"kind": "adaptive"},
    "train": {"epochs": 2, "batch_size": 8, "seed": 1, "eval_every": 2,
              "rank_subsets": 3, "rank_subset_size": 6, "knn_k": 3},
}


def write_config(tmp_path, name="config.json", **edits):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, sub in edits.items():
        if isinstance(sub, dict):
            raw.setdefault(key, {}).update(sub)
        else:
            raw[key] = sub
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def fail_replace(src, dst):
    raise OSError("disk full")


class TestGenData:
    def test_writes_expected_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "ds.csv")
        assert main(["gen-data", "--config", cfg, "--out", out]) == 0
        ds = load_csv(out)
        assert ds.n_samples == 2 * 2 * 6
        assert "24 rows" in capsys.readouterr().out

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["gen-data", "--config", cfg, "--out", a])
        main(["gen-data", "--config", cfg, "--out", b])
        assert open(a).read() == open(b).read()

    def test_failed_replace_keeps_previous_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "ds.csv"
        main(["gen-data", "--config", cfg, "--out", str(out)])
        before = out.read_bytes()
        monkeypatch.setattr(os, "replace", fail_replace)
        assert main(["gen-data", "--config", cfg, "--out", str(out),
                     "--seed", "9"]) == 2
        assert out.read_bytes() == before
        assert not os.path.exists(str(out) + ".tmp")

    def test_unknown_data_key_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data={"n_supers": 3})
        code = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "bad 'data' section" in capsys.readouterr().err

    def test_bad_sigma_ordering_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data={"sigma_super": 0.1})
        code = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "sigma" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"config {cfg} must hold a JSON object, got list" in capsys.readouterr().err


class TestTrain:
    def test_writes_metrics_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
        assert rows[0].startswith("epoch,loss_total")
        assert len(rows) == 1 + 2
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["seed"] == 1
        assert summary["loss_kind"] == "simclr"

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run2")
        main(["train", "--config", cfg, "--out", out, "--seed", "9"])
        assert json.load(open(os.path.join(out, "summary.json")))["seed"] == 9

    def test_training_from_the_gen_data_file_matches_the_generated_run(self, tmp_path):
        # A string "data" names a dataset CSV; the file gen-data writes holds
        # every generated bit, so the two runs write the same metrics.csv.
        gen = write_config(tmp_path, "gen.json", loss={"kind": "simclr_hex"})
        csv = str(tmp_path / "ds.csv")
        assert main(["gen-data", "--config", gen, "--out", csv]) == 0
        from_csv = write_config(tmp_path, "csv.json", data=csv, loss={"kind": "simclr_hex"})
        for cfg, out in ((gen, "gen"), (from_csv, "csv")):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "gen" / "metrics.csv").read_bytes()
                == (tmp_path / "csv" / "metrics.csv").read_bytes())

    @pytest.mark.parametrize("data", [{"path": "x.csv", "seed": 3, "n_super": "junk"},
                                      {"path": 5}])
    def test_a_data_object_with_a_path_is_refused(self, tmp_path, capsys, data):
        # A dataset file has one spelling, a string "data"; in an object,
        # "path" is an unknown generator parameter.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "data": data}))
        out = str(tmp_path / "run")
        for argv in (["train", "--config", str(cfg), "--out", out],
                     ["gen-data", "--config", str(cfg), "--out", out]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "bad 'data' section" in err and "'path'" in err
        assert not os.path.exists(out)

    def test_hex_with_threshold_one_matches_plain(self, tmp_path):
        cfg_a = write_config(tmp_path, "a.json",
                             schedule={"kind": "fixed", "start": 1.0, "floor": 0.0})
        cfg_b = write_config(tmp_path, "b.json",
                             loss={"kind": "simclr_hex"},
                             schedule={"kind": "fixed", "start": 1.0, "floor": 0.0})
        out_a, out_b = str(tmp_path / "ra"), str(tmp_path / "rb")
        main(["train", "--config", cfg_a, "--out", out_a])
        main(["train", "--config", cfg_b, "--out", out_b])
        csv_a = open(os.path.join(out_a, "metrics.csv")).read()
        csv_b = open(os.path.join(out_b, "metrics.csv")).read()
        assert csv_a == csv_b

    def test_run_matrix_creates_cells(self, tmp_path):
        cfg = write_config(tmp_path, train={"epochs": 1, "eval_every": 1})
        out = str(tmp_path / "matrix")
        assert main(["train", "--config", cfg, "--out", out,
                     "--seeds", "1,2", "--loss-kinds", "simclr,simclr_hex"]) == 0
        for kind in ("simclr", "simclr_hex"):
            for seed in (1, 2):
                cell = os.path.join(out, f"{kind}_seed{seed}")
                assert os.path.exists(os.path.join(cell, "metrics.csv"))

    def test_run_matrix_in_two_workers_matches_serial(self, tmp_path, capsys,
                                                       monkeypatch):
        cfg = write_config(tmp_path, train={"epochs": 1, "eval_every": 1})
        out = str(tmp_path / "matrix")
        argv = ["train", "--config", cfg, "--out", out,
                "--seeds", "1,2", "--loss-kinds", "simclr,simclr_hex"]
        cells = [os.path.join(out, f"{kind}_seed{seed}", "metrics.csv")
                 for kind in ("simclr", "simclr_hex") for seed in (1, 2)]

        def run():
            capsys.readouterr()
            assert main(argv) == 0
            summaries = json.loads(capsys.readouterr().out)
            for s in summaries:
                del s["wall_time_s"]
            return summaries, [open(p, "rb").read() for p in cells]

        serial = run()
        monkeypatch.setenv("HEXREG_THREADS", "2")
        assert run() == serial

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--seeds", "1,2"]])
    def test_config_that_is_not_an_object_exit_code(self, tmp_path, capsys, flags):
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert f"config {cfg} must hold a JSON object, got list" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_entry_that_is_not_an_integer_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "matrix"
        assert main(["train", "--config", cfg, "--out", str(out), "--seeds", "1,x"]) == 1
        assert "each --seeds entry must be an integer, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_that_is_not_an_integer_exit_code(self, tmp_path, capsys,
                                                      monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "matrix"
        monkeypatch.setenv("HEXREG_THREADS", "two")
        assert main(["train", "--config", cfg, "--out", str(out), "--seeds", "1,2"]) == 1
        assert "HEXREG_THREADS must be an integer, got 'two'" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_below_one_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "matrix"
        monkeypatch.setenv("HEXREG_THREADS", "0")
        assert main(["train", "--config", cfg, "--out", str(out), "--seeds", "1,2"]) == 1
        assert "HEXREG_THREADS must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads,seeds,workers", [("5000", "1,2", 2),
                                                       ("3", "1,2,3,4", 3)])
    def test_pool_gets_no_more_workers_than_cells(self, tmp_path, capsys, monkeypatch,
                                                  threads, seeds, workers):
        # A stand-in pool records its size and runs each cell inline, so no
        # process is started, however large HEXREG_THREADS is.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("HEXREG_THREADS", threads)
        cfg = write_config(tmp_path, train={"epochs": 1, "eval_every": 1})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m"),
                     "--seeds", seeds]) == 0
        assert sizes == [workers]
        assert len(json.loads(capsys.readouterr().out)) == len(seeds.split(","))

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = write_config(tmp_path, train={"epochs": 4})
        full = str(tmp_path / "full")
        main(["train", "--config", cfg, "--out", full])
        part = str(tmp_path / "part")
        main(["train", "--config", cfg, "--out", part, "--checkpoint-every", "2"])
        ckpt = os.path.join(part, "ckpt_000002.bin")
        main(["train", "--config", cfg, "--out", part, "--resume", ckpt])
        assert (open(os.path.join(full, "metrics.csv")).read()
                == open(os.path.join(part, "metrics.csv")).read())

    def test_checkpoint_every_zero_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--checkpoint-every", "0"]) == 1
        assert "--checkpoint-every must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [2.0, np.nan], ids=["scaled", "nan"])
    def test_resume_from_a_queue_row_off_the_unit_sphere_exit_code(self, tmp_path, capsys,
                                                                   scale):
        cfg = write_config(tmp_path, loss={"kind": "nnclr"})
        part = str(tmp_path / "part")
        main(["train", "--config", cfg, "--out", part, "--checkpoint-every", "1"])
        state = load_checkpoint(os.path.join(part, "ckpt_000001.bin"))
        state.queue[3] *= scale
        ckpt = str(tmp_path / "bad.bin")
        save_checkpoint(state, ckpt)
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", ckpt]) == 2
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: queue row 3 has norm ")
        assert not out.exists()

    def test_epochs_zero_in_a_run_matrix_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["train", "--config", write_config(tmp_path), "--out", str(out),
                     "--seeds", "1,2", "--epochs", "0"]) == 1
        assert capsys.readouterr().err == "error: --epochs must be >= 1, got 0\n"
        assert not out.exists()

    def test_resume_into_empty_metrics_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, train={"epochs": 4})
        part = str(tmp_path / "part")
        main(["train", "--config", cfg, "--out", part, "--checkpoint-every", "2"])
        open(os.path.join(part, "metrics.csv"), "w").close()
        ckpt = os.path.join(part, "ckpt_000002.bin")
        assert main(["train", "--config", cfg, "--out", part, "--resume", ckpt]) == 2
        assert "metrics.csv" in capsys.readouterr().err

    def test_resume_into_metrics_without_an_epoch_column_exit_code(self, tmp_path,
                                                                   capsys):
        cfg = write_config(tmp_path, train={"epochs": 4})
        part = str(tmp_path / "part")
        main(["train", "--config", cfg, "--out", part, "--checkpoint-every", "2"])
        metrics = os.path.join(part, "metrics.csv")
        text = open(metrics).read()
        open(metrics, "w").write(text.replace("epoch,", "step,", 1))
        ckpt = os.path.join(part, "ckpt_000002.bin")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", part, "--resume", ckpt]) == 2
        assert (f"error: {metrics}: line 1: the header has no epoch column"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags,cell", [
        (["--seeds", "1,2,1"], "simclr_seed1"),
        (["--seeds", "01,1"], "simclr_seed1"),
        (["--seeds", "3", "--loss-kinds", "simclr,barlow,simclr"], "simclr_seed3")],
        ids=["seed", "padded_seed", "loss_kind"])
    def test_run_matrix_with_a_repeated_cell_exit_code(self, tmp_path, capsys, flags,
                                                       cell):
        cfg = write_config(tmp_path)
        out = tmp_path / "matrix"
        assert main(["train", "--config", cfg, "--out", str(out), *flags]) == 1
        assert (f"the run matrix holds the cell {cell} twice"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_run_matrix_with_a_bad_cell_runs_no_cell_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "matrix"
        assert main(["train", "--config", cfg, "--out", str(out), "--seeds", "1",
                     "--loss-kinds", "simclr,bogus"]) == 1
        assert "got 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_subset_larger_than_a_superclass_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, train={"rank_subset_size": 30})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert ("train.rank_subset_size: smallest superclass has 12 < 30 samples"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "run")

    def test_resume_with_a_changed_tau_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, train={"epochs": 4})
        part = str(tmp_path / "part")
        main(["train", "--config", cfg, "--out", part, "--checkpoint-every", "2"])
        before = open(os.path.join(part, "metrics.csv")).read()
        changed = write_config(tmp_path, "changed.json", train={"epochs": 4},
                               loss={"tau": 0.2})
        ckpt = os.path.join(part, "ckpt_000002.bin")
        capsys.readouterr()
        assert main(["train", "--config", changed, "--out", part, "--resume", ckpt]) == 1
        assert "loss.tau 0.1 != 0.2" in capsys.readouterr().err
        assert open(os.path.join(part, "metrics.csv")).read() == before

    @pytest.mark.parametrize("train", [{"seed": 1.5}, {"batch_size": 64.0},
                                       {"epochs": True}])
    def test_non_integer_run_count_exit_code(self, tmp_path, capsys, train):
        cfg = write_config(tmp_path, train=train)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert f"train.{next(iter(train))} must be an integer" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")

    @pytest.mark.parametrize("key,value", [("qhi_sign", "subtract"),
                                           ("qhi_n", "anchors"),
                                           ("qhi_tau", 0.1), ("eps_den", 1e-6)])
    def test_resume_from_a_checkpoint_with_a_removed_loss_key_exit_code(
            self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, train={"epochs": 4}, loss={"kind": "simclr_hex"})
        part = str(tmp_path / "part")
        main(["train", "--config", cfg, "--out", part, "--checkpoint-every", "2"])
        ckpt = os.path.join(part, "ckpt_000002.bin")
        blob = open(ckpt, "rb").read()
        (blob_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + blob_len])
        header["config"]["loss"][key] = value
        new_blob = json.dumps(header).encode()
        with open(ckpt, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<I", len(new_blob)) + new_blob
                     + blob[12 + blob_len:])
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", part, "--resume", ckpt]) == 1
        err = capsys.readouterr().err
        assert "bad 'loss' section" in err and f"'{key}'" in err

    @pytest.mark.parametrize("section,values,message", [
        ("model", {"repr_dim": 16.7}, "model.repr_dim must be an integer"),
        ("optimizer", {"lr": True}, "optimizer.lr must be a finite number"),
        ("augment", {"mask_prob": 1.5}, "augment.mask_prob must lie in [0, 1)"),
        ("loss", {"tau": True}, "loss.tau must be a finite number"),
        ("loss", {"tau_plus": float("inf")}, "loss.tau_plus must be a finite number"),
        ("schedule", {"sigma_multiplier": float("inf")},
         "schedule.sigma_multiplier must be a finite number"),
        ("schedule", {"period_epochs": 2.5}, "schedule.period_epochs must be an integer"),
        ("loss", {"tau": 0.0}, "loss.tau must be > 0"),
        ("loss", {"kind": "simclr_hex", "tau_plus": 1.0}, "loss.tau_plus must lie in [0, 1)"),
        ("loss", {"kind": "simclr_hex", "hex_scale": 0}, "loss.hex_scale must be > 0"),
        ("loss", {"kind": "vicreg", "vicreg_var": -1.0}, "loss.vicreg_var must be >= 0"),
        ("loss", {"kind": "barlow", "barlow_lambda": -0.5}, "loss.barlow_lambda must be >= 0"),
        ("train", {"knn_k": 0}, "train.knn_k must be >= 1, got 0"),
        ("train", {"rank_subsets": 0}, "train.rank_subsets must be >= 1, got 0"),
        ("train", {"rank_subset_size": 0}, "train.rank_subset_size must be >= 1, got 0"),
        ("train", {"queue_capacity": 0}, "train.queue_capacity must be >= 1, got 0"),
        ("train", {"holdout_fraction": None}, "train.holdout_fraction must be a finite number"),
        ("train", {"holdout_fraction": 0.0}, "train.holdout_fraction must lie in (0, 1)"),
        # 24 rows: 5 held out leave 19 training rows for the KNN probe.
        ("train", {"knn_k": 40}, "train.knn_k must lie in [1, 19], got 40"),
        ("loss", {"kind": "barlow_hex", "alpha": 1.5}, "loss.alpha must lie in [0, 1], got 1.5"),
        ("loss", {"kind": "nnclr_hex", "tau_plus": -0.1},
         "loss.tau_plus must lie in [0, 1), got -0.1"),
        ("augment", {"noise_sigma": -0.1}, "augment.noise_sigma must be >= 0, got -0.1"),
        ("augment", {"mask_prob": 1.0}, "augment.mask_prob must lie in [0, 1), got 1.0"),
    ])
    def test_bad_section_value_exit_code(self, tmp_path, capsys, section, values,
                                         message):
        cfg = write_config(tmp_path, **{section: values})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "run")

    def test_one_row_dataset_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data={"n_super": 1, "classes_per_super": 1,
                                           "samples_per_class": 1})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "at least 2 rows" in capsys.readouterr().err



# --holdout values, with the exit code and message they give on the 24-row
# BASE_CONFIG dataset and the 48-row diagnose fixture.
HOLDOUT_ERRORS = [("-3", 1, "--holdout must lie in (0, 1), got -3.0"),
                  ("0", 1, "--holdout must lie in (0, 1), got 0.0"),
                  ("5", 1, "--holdout must lie in (0, 1), got 5.0"),
                  ("0.99", 2, "leaves none of the")]


class TestEval:
    def test_eval_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out, "--checkpoint-every", "2"])
        capsys.readouterr()
        ckpt = os.path.join(out, "ckpt_final.bin")
        assert main(["eval", "--checkpoint", ckpt, "--probe", "both", "--k", "3"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert set(got) == {"knn_class", "knn_super"}
        assert 0.0 <= got["knn_super"] <= 1.0

    def test_default_eval_reproduces_the_final_metrics_row(self, tmp_path, capsys):
        # knn_k 1 is not the --k a default would hard-code, so the default
        # must come from the run's config.
        cfg = write_config(tmp_path, train={"knn_k": 1})
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out, "--checkpoint-every", "2"])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", os.path.join(out, "ckpt_final.bin")]) == 0
        got = json.loads(capsys.readouterr().out)
        final = read_metrics_csv(os.path.join(out, "metrics.csv"))[-1]
        assert got == {"knn_class": final["knn_class"], "knn_super": final["knn_super"]}

    def test_data_of_another_dim_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out, "--checkpoint-every", "2"])
        data_cfg = write_config(tmp_path, name="dim4.json", data={"input_dim": 4})
        csv = str(tmp_path / "dim4.csv")
        main(["gen-data", "--config", data_cfg, "--out", csv])
        capsys.readouterr()
        ckpt = os.path.join(out, "ckpt_final.bin")
        assert main(["eval", "--checkpoint", ckpt, "--data", csv]) == 2
        assert (f"{csv} has 4 feature columns; the checkpoint's model takes 6"
                in capsys.readouterr().err)

    def test_run_k_beyond_the_rows_of_other_data_names_the_setting(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["train", "--config", write_config(tmp_path, train={"knn_k": 5}), "--out", out,
              "--checkpoint-every", "2"])
        # 4 rows: 1 held out leaves 3 training rows.
        small = write_config(tmp_path, name="small.json", data={"samples_per_class": 1})
        csv = str(tmp_path / "small.csv")
        main(["gen-data", "--config", small, "--out", csv])
        capsys.readouterr()
        ckpt = os.path.join(out, "ckpt_final.bin")
        assert main(["eval", "--checkpoint", ckpt, "--data", csv]) == 1
        assert capsys.readouterr().err == "error: train.knn_k must lie in [1, 3], got 5\n"

    @pytest.mark.parametrize("holdout,code,message", HOLDOUT_ERRORS)
    def test_bad_holdout_exit_code(self, tmp_path, capsys, holdout, code, message):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out, "--checkpoint-every", "2"])
        capsys.readouterr()
        ckpt = os.path.join(out, "ckpt_final.bin")
        assert main(["eval", "--checkpoint", ckpt, "--holdout", holdout]) == code
        assert message in capsys.readouterr().err


class TestDiagnose:
    @staticmethod
    def _block_csv(tmp_path):
        rng = np.random.default_rng(0)
        n_per, dim = 24, 8
        rows = []
        header = ",".join([f"f{j}" for j in range(dim)] + ["class", "superclass"])
        rows.append(header)
        for s in range(2):
            block = rng.normal(size=(n_per, 4))
            for i in range(n_per):
                feats = np.zeros(dim)
                feats[4 * s:4 * (s + 1)] = block[i]
                cells = [repr(float(v)) for v in feats] + [str(s * 2), str(s)]
                rows.append(",".join(cells))
        path = tmp_path / "block.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_block_fixture_rank_ordering(self, tmp_path, capsys):
        path = self._block_csv(tmp_path)
        out = str(tmp_path / "diag.csv")
        assert main(["diagnose", "--embeddings", path, "--out", out,
                     "--rankme-subsets", "4", "--subset-size", "12",
                     "--knn-k", "1"]) == 0
        header, row = open(out).read().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["rankme_super"]) < float(vals["rankme_random"])

    def test_ratio_fixture(self, tmp_path):
        # rows engineered for within-super cosine 0.9, cross 0.1
        n_per = 4
        labels = np.repeat([0, 1], n_per)
        same = labels[:, None] == labels[None, :]
        gram = np.where(same, 0.9, 0.1)
        np.fill_diagonal(gram, 1.0)
        evals, evecs = np.linalg.eigh(gram)
        x = evecs @ np.diag(np.sqrt(np.maximum(evals, 0.0)))
        x = l2_normalize_rows(x)
        header = ",".join([f"f{j}" for j in range(x.shape[1])]
                          + ["class", "superclass"])
        lines = [header]
        for i in range(2 * n_per):
            lines.append(",".join([repr(float(v)) for v in x[i]]
                                  + [str(labels[i]), str(labels[i])]))
        path = tmp_path / "ratio.csv"
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "d.csv")
        assert main(["diagnose", "--embeddings", str(path), "--out", out,
                     "--rankme-subsets", "2", "--subset-size", "3",
                     "--knn-k", "1"]) == 0
        header, row = open(out).read().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert "ratio" not in vals
        assert float(vals["mean_super"]) == pytest.approx(0.9, abs=1e-9)
        assert float(vals["mean_regular"]) == pytest.approx(0.1, abs=1e-9)

    def test_failed_replace_keeps_previous_out(self, tmp_path, monkeypatch):
        path = self._block_csv(tmp_path)
        out = tmp_path / "diag.csv"
        out.write_bytes(b"previous\n")
        monkeypatch.setattr(os, "replace", fail_replace)
        assert main(["diagnose", "--embeddings", path, "--out", str(out),
                     "--rankme-subsets", "4", "--subset-size", "12",
                     "--knn-k", "1"]) == 2
        assert out.read_bytes() == b"previous\n"
        assert not os.path.exists(str(out) + ".tmp")

    @pytest.mark.parametrize("holdout,code,message", HOLDOUT_ERRORS)
    def test_bad_holdout_exit_code(self, tmp_path, capsys, holdout, code, message):
        path = self._block_csv(tmp_path)
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--embeddings", path, "--out", str(out),
                     "--rankme-subsets", "4", "--subset-size", "12",
                     "--holdout", holdout]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_column_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,class\n1.0,0.0,0\n")
        assert main(["diagnose", "--embeddings", str(path)]) == 2

    def test_all_zero_row_exit_code(self, tmp_path, capsys):
        # A zero row has no direction to compare; the message says so
        # rather than blaming a normalization.
        path = self._block_csv(tmp_path)
        lines = open(path).read().splitlines()
        cells = lines[4].split(",")
        lines[4] = ",".join(["0.0"] * 8 + cells[8:])     # data row 3
        open(path, "w").write("\n".join(lines) + "\n")
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--embeddings", path, "--out", str(out),
                     "--rankme-subsets", "4", "--subset-size", "12"]) == 3
        assert ("error: row 3 has norm 0.000e+00 <= 1e-12"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_feature_cell_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("f0,f1,class,superclass\n1.0,0.0,0,0\n0.0,nan,1,0\n")
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--embeddings", str(path), "--out", str(out)]) == 2
        assert f"{path}: line 3: feature f1 must be finite" in capsys.readouterr().err
        assert not out.exists()


# Flag values, with the exit code and message they give; train and eval
# read the 24-row BASE_CONFIG run (19 training rows at holdout 0.2),
# diagnose the 48-row block fixture (38 training rows, 24 rows per
# superclass).
FLAG_ERRORS = [
    ("train", "--checkpoint-every", "0", 1, "--checkpoint-every must be >= 1, got 0"),
    ("train", "--epochs", "0", 1, "--epochs must be >= 1, got 0"),
    ("diagnose", "--rankme-subsets", "0", 1, "--rankme-subsets must be >= 1, got 0"),
    ("diagnose", "--subset-size", "0", 1, "--subset-size must be >= 1, got 0"),
    ("diagnose", "--subset-size", "30", 2,
     "--subset-size: smallest superclass has 24 < 30 samples"),
    ("diagnose", "--knn-k", "0", 1, "--knn-k must lie in [1, 38], got 0"),
    ("diagnose", "--holdout", "1.5", 1, "--holdout must lie in (0, 1), got 1.5"),
    ("eval", "--k", "0", 1, "--k must lie in [1, 19], got 0"),
    ("eval", "--k", "20", 1, "--k must lie in [1, 19], got 20"),
    ("eval", "--holdout", "1.5", 1, "--holdout must lie in (0, 1), got 1.5"),
]


class TestFlags:
    @pytest.mark.parametrize("command,flag,value,code,message", FLAG_ERRORS,
                             ids=[" ".join(row[:3]) for row in FLAG_ERRORS])
    def test_a_bad_flag_value_names_the_flag(self, tmp_path, capsys, command, flag, value,
                                             code, message):
        refused = tmp_path / "refused"    # eval writes no file
        if command == "train":
            args = ["train", "--config", write_config(tmp_path), "--out", str(refused)]
        elif command == "eval":
            out = str(tmp_path / "run")
            main(["train", "--config", write_config(tmp_path), "--out", out,
                  "--checkpoint-every", "2"])
            args = ["eval", "--checkpoint", os.path.join(out, "ckpt_final.bin")]
        else:
            args = ["diagnose", "--embeddings", TestDiagnose._block_csv(tmp_path),
                    "--out", str(refused)]
        capsys.readouterr()
        assert main(args + [flag, value]) == code
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not refused.exists()


class TestSchedule:
    def test_step_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schedule={"kind": "step", "start": 0.9,
                                               "floor": 0.1, "step_down": 0.1,
                                               "period_epochs": 100},
                           train={"epochs": 400})
        assert main(["schedule", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = dict(ln.split(",") for ln in lines[1:])
        assert float(table["0"]) == 0.9
        assert float(table["100"]) == pytest.approx(0.8)
        assert float(table["200"]) == pytest.approx(0.7)
        assert float(table["300"]) == pytest.approx(0.6)
        assert len(lines) == 401

    def test_cos_endpoints(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schedule={"kind": "cos", "start": 0.95,
                                               "floor": 0.65,
                                               "total_epochs": 450},
                           train={"epochs": 450})
        assert main(["schedule", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = dict(ln.split(",") for ln in lines[1:])
        assert float(table["0"]) == pytest.approx(0.95)
        assert float(table["449"]) == pytest.approx(0.65, abs=1e-4)

    def test_adaptive_notice(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["schedule", "--config", cfg]) == 0
        assert "adaptive" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["schedule", "--config", str(path)]) == 1

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_epochs_below_one_exit_code(self, tmp_path, capsys, epochs):
        cfg = write_config(tmp_path, schedule={"kind": "step", "start": 0.9})
        assert main(["schedule", "--config", cfg, "--epochs", epochs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --epochs must be >= 1, got {epochs}\n"
