import hashlib
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsom
from pulsom import corpus as corpus_mod
from pulsom.cli import main
from pulsom.config import REGISTRY, RunConfig
from pulsom.coding import SsomConfig
from pulsom.corpus import (
    build_corpus_dataset,
    iter_utterances,
    read_dataset_csv,
    read_sphere,
    synth_generate,
    write_dataset_csv,
    write_sphere,
)
from pulsom.lin import train_lin
from pulsom.mfcc import mfcc_pipeline, write_frames_csv
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel, save_model
from pulsom.rssom import train_rssom
from pulsom.som import Lattice, Schedule, TrainingLog, sample_vectors, train_som
from pulsom.ssom import LateralKernel, feature_ranges, normalized_init, train_ssom
from pulsom.stdp import StdpRule, StdpWindow
from conftest import pinned
from test_corpus import PHN, make_fixture_corpus


# The config sections whose float keys the spiking trainer's builders check.
FLOAT_SECTIONS = ("schedule", "stdp", "ssom", "lateral")


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def synth_cfg(tmp_path, outdir="out", extra=""):
    return write_cfg(tmp_path / "synth.cfg", f"""
run.seed = 5
run.outdir = {tmp_path / outdir}
synth.classes = 3
synth.samples_per_class = 4
synth.dim = 5
synth.frames = 4
synth.separation = 5.0
{extra}
""")


def train_cfg(tmp_path, dataset, model="som", outdir="train-out", extra=""):
    return write_cfg(tmp_path / f"train-{model}.cfg", f"""
run.model = {model}
run.seed = 5
run.outdir = {tmp_path / outdir}
lattice.rows = 4
lattice.cols = 4
schedule.epochs = 5
data.train_csv = {dataset}
{extra}
""")


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        assert main(["synth", "--config", synth_cfg(tmp_path)]) == 0
        out = tmp_path / "out"
        samples = read_dataset_csv(out / "synth.csv")
        assert len(samples) == 12
        assert (out / "effective-config.txt").exists()
        assert (out / "run-manifest.txt").exists()

    def test_three_classes_of_fifty_give_150_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", f"""
run.seed = 1
run.outdir = {tmp_path / 'big'}
synth.classes = 3
synth.samples_per_class = 50
""")
        assert main(["synth", "--config", cfg]) == 0
        rows = (tmp_path / "big" / "synth.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 150

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = synth_cfg(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        first = (tmp_path / "out" / "synth.csv").read_bytes()
        assert main(["synth", "--config", cfg]) == 0
        assert (tmp_path / "out" / "synth.csv").read_bytes() == first

    def test_bad_separation_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg",
                        f"run.outdir = {tmp_path / 'o'}\nsynth.separation = -1.0\n")
        assert main(["synth", "--config", cfg]) == 2
        assert f"{cfg}:2 (synth.separation): separation must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["classes", "samples_per_class", "dim", "frames"])
    def test_bad_count_names_only_its_key(self, tmp_path, capsys, key):
        counts = {"classes": 3, "samples_per_class": 4, "dim": 12, "frames": 9, key: 0}
        cfg = write_cfg(tmp_path / "bad.cfg", "".join(f"synth.{k} = {v}\n"
                                                      for k, v in counts.items())
                        + f"run.outdir = {tmp_path / 'o'}\n")
        assert main(["synth", "--config", cfg]) == 2
        line = list(counts).index(key) + 1
        assert (f"config error: {cfg}:{line} (synth.{key}): {key} must be a positive count, "
                "got 0\n") == capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_separation_exits_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path / "bad.cfg",
                        f"run.outdir = {tmp_path / 'o'}\nsynth.separation = {value}\n")
        assert main(["synth", "--config", cfg]) == 2
        assert f"{cfg}:2 (synth.separation): separation must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e308", "5e307"])
    def test_overflowing_separation_exits_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path / "bad.cfg",
                        f"run.outdir = {tmp_path / 'o'}\nsynth.separation = {value}\n")
        assert main(["synth", "--config", cfg]) == 2
        assert f"{cfg}:2 (synth.separation): separation " in capsys.readouterr().err

    def test_non_utf8_config_exits_2_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(f"run.outdir = {tmp_path / 'o'}\n".encode() + b"\xadsynth.dim = 3\n")
        assert main(["synth", "--config", str(cfg)]) == 2
        assert f"config error: {cfg}:2: not UTF-8 text: byte 0xad" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", "run.mode = som\n")
        assert main(["synth", "--config", cfg]) == 2
        assert "run.mode" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["ssom.tau_psp_ms = 5.0", "ssom.sim_step_ms = 1.0",
                                      "mfcc.hop = 128", "ssom.s_radius = 1.0",
                                      "stdp.flip_branches = true"])
    def test_retired_key_exits_2_with_file_and_line(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path / "old.cfg", f"run.outdir = {tmp_path / 'o'}\n{line}\n")
        assert main(["synth", "--config", cfg]) == 2
        key = line.split(" = ")[0]
        assert f"{cfg}:2: unknown config key '{key}'" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.cfg")]) == 3

    def test_negative_seed_exits_2_naming_run_seed_only(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", f"run.outdir = {tmp_path / 'o'}\n"
                                              "synth.classes = 2\nrun.seed = -1\n")
        assert main(["synth", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert (f"config error: {cfg}:3: bad value '-1' for run.seed (expected non-negative "
                "integer)") in err
        assert "synth.classes" not in err


class TestTrainCommand:
    @pytest.fixture()
    def dataset(self, tmp_path):
        assert main(["synth", "--config", synth_cfg(tmp_path)]) == 0
        return tmp_path / "out" / "synth.csv"

    def test_som_training_writes_model_and_log(self, tmp_path, dataset):
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 0
        out = tmp_path / "train-out"
        assert (out / "model.txt").read_text().splitlines()[0].startswith("PULSOM1")
        log = (out / "training-log.csv").read_text().splitlines()
        assert log[0] == "epoch,lr,radius,qe"
        assert len(log) == 6

    def test_every_model_kind_trains(self, tmp_path, dataset):
        for model in ("som", "ssom", "rssom", "lin"):
            cfg = train_cfg(tmp_path, dataset, model=model, outdir=f"out-{model}")
            assert main(["train", "--config", cfg]) == 0
            text = (tmp_path / f"out-{model}" / "model.txt").read_text()
            assert f"model {model.upper()}" in text

    def test_deterministic_model_bytes(self, tmp_path, dataset):
        cfg = train_cfg(tmp_path, dataset, model="ssom")
        assert main(["train", "--config", cfg]) == 0
        first = (tmp_path / "train-out" / "model.txt").read_bytes()
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "train-out" / "model.txt").read_bytes() == first

    def test_zero_epochs_exits_2(self, tmp_path, dataset, capsys):
        cfg = write_cfg(tmp_path / "z.cfg",
                        f"run.model = som\nrun.outdir = {tmp_path / 'z'}\n"
                        f"schedule.epochs = 0\ndata.train_csv = {dataset}\n")
        assert main(["train", "--config", cfg]) == 2
        assert f"{cfg}:3 (schedule.epochs): epochs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["som", "ssom", "rssom", "lin"])
    def test_lr_start_above_one_exits_2(self, tmp_path, dataset, capsys, model):
        cfg = train_cfg(tmp_path, dataset, model=model, extra="schedule.lr_start = 1.5")
        assert main(["train", "--config", cfg]) == 2
        assert (f"{cfg}:9 (schedule.lr_start): need 1 >= lr_start >= lr_end, got 1.5, 0.05"
                in capsys.readouterr().err)
        assert not (tmp_path / "train-out").exists()

    @pytest.mark.parametrize("value", ["1e-17", "1e-16"])
    @pytest.mark.parametrize("model", ["som", "ssom", "rssom", "lin"])
    def test_radius_decaying_to_zero_exits_2(self, tmp_path, dataset, capsys, model, value):
        # 2.0 + (1e-17 - 2.0) is 0.0: the last epoch's radius would be zero.
        cfg = train_cfg(tmp_path, dataset, model=model, extra=f"schedule.radius_end = {value}")
        assert main(["train", "--config", cfg]) == 2
        assert (f"{cfg}:9 (schedule.radius_end): radius_end {value} decays to a last radius "
                "of 0.0, whose square must be positive") in capsys.readouterr().err
        assert not (tmp_path / "train-out").exists()

    def test_excite_radius_whose_square_underflows_exits_2(self, tmp_path, dataset, capsys):
        cfg = train_cfg(tmp_path, dataset, model="ssom", extra="lateral.excite_radius = 1e-200")
        assert main(["train", "--config", cfg]) == 2
        assert (f"{cfg}:9 (lateral.excite_radius): excite_radius 1e-200 must have a positive "
                "square") in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [k.name for k in REGISTRY if k.kind.startswith("float")
                                     and k.name.split(".")[0] in FLOAT_SECTIONS])
    def test_non_finite_value_exits_2(self, tmp_path, dataset, capsys, key, value):
        cfg = train_cfg(tmp_path, dataset, model="ssom", extra=f"{key} = {value}")
        assert main(["train", "--config", cfg]) == 2
        assert f"{cfg}:9 ({key}): " in capsys.readouterr().err
        assert not (tmp_path / "train-out").exists()

    @pytest.mark.parametrize("model", ["som", "ssom"])
    def test_negative_seed_exits_2_naming_run_seed_only(self, tmp_path, dataset, capsys, model):
        cfg = write_cfg(tmp_path / "t.cfg", f"run.model = {model}\nrun.outdir = {tmp_path / 'o'}\n"
                                            f"run.seed = -1\nlattice.rows = 3\nlattice.cols = 3\n"
                                            f"data.train_csv = {dataset}\n")
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}:3: bad value '-1' for run.seed" in err
        assert "lattice." not in err
        assert not (tmp_path / "o").exists()

    def test_missing_dataset_exits_3(self, tmp_path):
        cfg = train_cfg(tmp_path, tmp_path / "missing.csv")
        assert main(["train", "--config", cfg]) == 3

    def test_non_finite_feature_exits_4(self, tmp_path, dataset, capsys):
        lines = dataset.read_text().splitlines()
        row = lines[2].split(",")
        row[5] = "nan"
        lines[2] = ",".join(row)
        dataset.write_text("\n".join(lines) + "\n")
        cfg = train_cfg(tmp_path, dataset, model="ssom")
        assert main(["train", "--config", cfg]) == 4
        assert f"{dataset}:3:" in capsys.readouterr().err

    def test_non_numeric_feature_exits_4(self, tmp_path, dataset, capsys):
        lines = dataset.read_text().splitlines()
        row = lines[2].split(",")
        row[5] = "abc"
        lines[2] = ",".join(row)
        dataset.write_text("\n".join(lines) + "\n")
        cfg = train_cfg(tmp_path, dataset, model="ssom")
        assert main(["train", "--config", cfg]) == 4
        assert f"{dataset}:3:" in capsys.readouterr().err

    def test_non_utf8_dataset_exits_4(self, tmp_path, dataset, capsys):
        dataset.write_bytes(np.random.default_rng(0).bytes(300))
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 4
        assert re.search(rf"{re.escape(str(dataset))}:\d+: not UTF-8 text",
                         capsys.readouterr().err)

    def test_header_without_features_exits_4(self, tmp_path, dataset, capsys):
        dataset.write_text("utt_id,label,macro_class\nu0,a,\n")
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 4
        assert f"{dataset}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, -2)])
    @pytest.mark.parametrize("model", ["som", "ssom", "rssom", "lin"])
    def test_non_positive_lattice_shape_exits_2(self, tmp_path, dataset, capsys, model,
                                                rows, cols):
        cfg = write_cfg(tmp_path / "shape.cfg",
                        f"run.model = {model}\nrun.outdir = {tmp_path / 'o'}\n"
                        f"lattice.rows = {rows}\nlattice.cols = {cols}\n"
                        f"data.train_csv = {dataset}\n")
        assert main(["train", "--config", cfg]) == 2
        assert (f"{cfg}:3 (lattice.rows), {cfg}:4 (lattice.cols): "
                f"lattice shape must be positive, got {rows}x{cols}") in capsys.readouterr().err

    @pytest.mark.parametrize("model, line, message", [
        ("rssom", "rssom.alpha = 2.0", "alpha must be in (0, 1], got 2.0"),
        ("lin", "lin.lambda = 1.5", "lambda must be in [0, 1], got 1.5"),
        ("lin", "lin.lambda = -0.1", "lambda must be in [0, 1], got -0.1"),
    ])
    def test_out_of_range_map_value_exits_2(self, tmp_path, dataset, capsys, model, line,
                                            message):
        cfg = train_cfg(tmp_path, dataset, model=model, extra=line)
        assert main(["train", "--config", cfg]) == 2
        key = line.split(" = ")[0]
        assert f"{cfg}:9 ({key}): {message}" in capsys.readouterr().err
        assert not (tmp_path / "train-out").exists()

    @pytest.mark.parametrize("model", ["som", "ssom", "rssom", "lin"])
    def test_header_without_rows_exits_4(self, tmp_path, dataset, capsys, model):
        dataset.write_text(dataset.read_text().splitlines()[0] + "\n")
        cfg = train_cfg(tmp_path, dataset, model=model)
        assert main(["train", "--config", cfg]) == 4
        assert f"{dataset}:2: no sample rows" in capsys.readouterr().err

    def test_divergence_exits_5(self, tmp_path, dataset, monkeypatch, capsys):
        import pulsom.cli
        from pulsom.errors import DivergenceError

        def exploding_train(*args, **kwargs):
            raise DivergenceError(epoch=3)

        monkeypatch.setattr(pulsom.cli, "train_som", exploding_train)
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 5
        assert "epoch 3" in capsys.readouterr().err


class TestOutOfMemory:
    """A size that cannot be allocated, such as lattice.rows = 10^12 in
    train or synth.samples_per_class = 10^15 in synth, ends in exit 3 and
    one line, not a traceback.  The command is patched to raise the
    MemoryError, so the test allocates nothing."""

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 175. TiB for an array with shape "
                      "(1000000000000, 12) and data type float64"),
         "out of memory: Unable to allocate 175. TiB for an array with shape "
         "(1000000000000, 12) and data type float64\n"),
        (MemoryError(), "out of memory: an allocation failed\n"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command", ["features", "synth", "train", "eval"])
    def test_memory_error_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys, command,
                                                error, line):
        import pulsom.cli

        def out_of_memory(*args):
            raise error

        monkeypatch.setattr(pulsom.cli, f"cmd_{command}", out_of_memory)
        cfg = write_cfg(tmp_path / "run.cfg", f"run.outdir = {tmp_path / 'run'}\n")
        model = ["--model", str(tmp_path / "model.txt")] if command == "eval" else []
        assert main([command, "--config", cfg, *model]) == 3
        out = capsys.readouterr()
        assert out.err == line and out.out == ""


class TestModelBytes:
    """Trained model files and logs are pinned to recorded SHA-256 digests,
    so a speed-up that changes a single bit of any trainer's result fails.
    The digests were recorded with numpy 2.4 on x86-64; the spiking maps'
    bits follow numpy's exp, so they have a second set (DIGESTS_LIBM) for
    an exp without AVX-512 (see ``conftest.pinned``)."""

    DIGESTS = {
        "som": ("0b118d3664e803701e8e99f59e7f023cac167d86bfa3e53829254a2d0c1ec8db",
                "7ed0075c87eaee2278ccd85fc5ae9dab2e7af2328f6282048a90ced234c2b740"),
        "ssom": ("7722629213c383e9c822d709d2a7d7bca254b496f8b20cda522a3df04a833970",
                 "e123cf69413c94b625208173d0cf8a2786c57efd6fff7f1e4edcb70e042252cd"),
        "rssom": ("e3b573c8843a1fc7500436b169d26b938f45bbb9952a9b1377ec1c05a91169e4",
                  "e1412a215b77cdf9e9c16c872290a888bb46f547171659d85452a0913ce6e367"),
        "lin": ("6a41430590c889deea0376f672e2cd85295b7f4c3b959c9f4a6bb89c39429081",
                "d51467825d3820c63bcdecc48c0e110f2961718aa978d47f60b352e432c7265c"),
    }
    DIGESTS_LIBM = {
        "som": DIGESTS["som"],
        "ssom": ("23569afa59dbc32e3e77eb67e66c0857cbb283b21466726f5b0666bcca0901e2",
                 "e123cf69413c94b625208173d0cf8a2786c57efd6fff7f1e4edcb70e042252cd"),
        "rssom": ("e3b573c8843a1fc7500436b169d26b938f45bbb9952a9b1377ec1c05a91169e4",
                  "e1412a215b77cdf9e9c16c872290a888bb46f547171659d85452a0913ce6e367"),
        "lin": ("663f59b1ed9b0a126bd5673505344ea1e583d3fcbe03e36daf362fcb44dcb533",
                "666139ea7e100aa6b984e8bfba640d9d93c1146df07bfd795e5203ebfd1f31c9"),
    }

    @pytest.mark.parametrize("model", ["som", "ssom", "rssom", "lin"])
    def test_trained_bytes_match_recorded_digests(self, tmp_path, model):
        data = tmp_path / "train.csv"
        write_dataset_csv(synth_generate(2, 10, 6, 5, 2.0, True, 11), data)
        cfg = write_cfg(tmp_path / f"{model}.cfg", f"""
run.model = {model}
run.seed = 3
run.outdir = {tmp_path / model}
lattice.rows = 5
lattice.cols = 5
schedule.epochs = 2
data.train_csv = {data}
""")
        assert main(["train", "--config", cfg]) == 0
        got = tuple(hashlib.sha256((tmp_path / model / name).read_bytes()).hexdigest()
                    for name in ("model.txt", "training-log.csv"))
        assert got == pinned(self.DIGESTS, self.DIGESTS_LIBM)[model]


class TestLibraryMatchesCli:
    """A model built from the values of a `pulsom train` config, trained by
    the library and saved, has the CLI's model.txt bytes: the model owns the
    values its trainer reads, so what is saved is what was trained."""

    CONFIG = """
run.seed = 4
lattice.rows = 4
lattice.cols = 5
schedule.epochs = 3
stdp.variant = panchev
stdp.eta = 0.2
stdp.tau_minus_ms = 14.0
ssom.t_ref_ms = 12.0
lateral.excite_radius = 1.5
lateral.inhibit_gain = 0.2
rssom.alpha = 0.3
lin.lambda = 0.7
"""

    @pytest.mark.parametrize("kind", ["som", "som-concat", "ssom", "rssom", "lin"])
    def test_library_model_bytes_equal_cli(self, tmp_path, kind):
        data_path = tmp_path / "train.csv"
        write_dataset_csv(synth_generate(2, 6, 4, 5, 2.0, True, 8), data_path)
        concat = kind == "som-concat"
        cfg = write_cfg(tmp_path / "train.cfg", self.CONFIG
                        + f"run.model = {kind.split('-')[0]}\nsom.concat = {str(concat).lower()}\n"
                        f"run.outdir = {tmp_path / 'cli'}\ndata.train_csv = {data_path}\n")
        assert main(["train", "--config", cfg]) == 0

        data = read_dataset_csv(data_path)
        parts = (normalized_init(4, 5, data, seed=4), *feature_ranges(data),
                 SsomConfig(t_ref=12.0), LateralKernel(excite_radius=1.5, inhibit_gain=0.2),
                 StdpRule("panchev", eta=0.2, window=StdpWindow(tau_minus=14.0)))
        if kind.startswith("som"):
            lattice = Lattice.random_init(4, 5, sample_vectors(data, concat), seed=4)
            model, train = SomModel(lattice, concat), train_som
        elif kind == "ssom":
            model, train = SsomModel(*parts), train_ssom
        elif kind == "rssom":
            model, train = RssomModel(*parts, alpha=0.3), train_rssom
        else:
            model, train = LinModel(*parts, lam=0.7), train_lin
        train(data, model, Schedule.for_lattice(4, 5, epochs=3), seed=4)
        save_model(model, tmp_path / "library.txt")
        assert ((tmp_path / "library.txt").read_bytes()
                == (tmp_path / "cli" / "model.txt").read_bytes())


class TestDefaultObjectsMatchCli:
    """A library run from default objects (``Schedule.for_lattice`` and the
    model with no cfg, kernel or rule) saves the model.txt bytes of `pulsom
    train` on a config that sets only the model, lattice, data, seed and
    outdir: the library's defaults are the CLI's, the causal STDP branch
    included."""

    @pytest.mark.parametrize("kind", ["som", "ssom", "rssom", "lin"])
    def test_default_library_run_equals_cli(self, tmp_path, kind):
        data_path = tmp_path / "train.csv"
        write_dataset_csv(synth_generate(2, 6, 4, 5, 2.0, True, 8), data_path)
        cfg = write_cfg(tmp_path / "train.cfg", f"""
run.model = {kind}
run.seed = 4
run.outdir = {tmp_path / 'cli'}
lattice.rows = 4
lattice.cols = 5
data.train_csv = {data_path}
""")
        assert main(["train", "--config", cfg]) == 0

        data = read_dataset_csv(data_path)
        if kind == "som":
            model = SomModel(Lattice.random_init(4, 5, sample_vectors(data, False), seed=4))
        else:
            model_cls = {"ssom": SsomModel, "rssom": RssomModel, "lin": LinModel}[kind]
            model = model_cls(normalized_init(4, 5, data, seed=4), *feature_ranges(data))
        train = {"som": train_som, "ssom": train_ssom, "rssom": train_rssom, "lin": train_lin}
        train[kind](data, model, Schedule.for_lattice(4, 5), seed=4)
        save_model(model, tmp_path / "library.txt")
        assert ((tmp_path / "library.txt").read_bytes()
                == (tmp_path / "cli" / "model.txt").read_bytes())


class TestEvalBytes:
    """Eval reports are pinned to SHA-256 digests recorded before inference
    was batched, for every model kind, with the terminal winner and with
    per-frame votes.  Calibration on 9 sequences leaves most of the 25
    units unlabeled, so the nearest-labeled-unit fallback is exercised.
    (Same numpy caveat as TestModelBytes.)"""

    DIGESTS = {
        "som": ("4a354ea959e6bf74a1e51a026545e25418e6a89d393eb861a0131421227e3cba",
                "3832fa9eac5ecbdb5e0d4b0461686e2cdcdfdb18f0ab0e3af1d5b87ca6ea3fc0",
                "2481dcbdc7a528f17387a64d03925562c9acaed5a574d4d166868d0499cef38f",
                "c5f7a2557b282db41a827694349362f1c3190f2a5473787ec75303bb2019130d"),
        "ssom": ("9beb26c0a432247423181bf47dcdc84de63a36c8462add73f1eca1840eee7fe1",
                 "a3fded63b26e0c5a7f309f2904aa166da71bedfb94b6fe3602a3c85b9e417b92",
                 "e22af9d56667a7a0d4a0539e3da110f448de175b8aebdf3fb26e5a72d592de9b",
                 "1d51f9a83ab8d0b0610c872b74ddfb978cc3fec17d843d8c3719da53cd4869d4"),
        "rssom": ("b190b391fe71183c06401b121d28023ad7870bedea1ce6e663a7030be64f8669",
                  "568918d4160961aed1266993e8de23ec09aea382eb1280a37cece868864ebff0",
                  "3808a6848719b09851f2cf6e8fc3713a9e436f384cafcb5b2db6c7d6ed26b23a",
                  "1bec368c8d1e3e3c0df60b94c64f975d3db38235acaa04afec56f19658f64c50"),
        "lin": ("49aff04a076d5c2190a0498986c026e51c5d5e876c7dce2385b6a18465af9b90",
                "9ff7be83bc52a26b035d6c8fbe6e71ad644028ee7cd9253d17e86411d8e5e51f",
                "2481dcbdc7a528f17387a64d03925562c9acaed5a574d4d166868d0499cef38f",
                "c5f7a2557b282db41a827694349362f1c3190f2a5473787ec75303bb2019130d"),
    }

    @pytest.mark.parametrize("model", ["som", "ssom", "rssom", "lin"])
    def test_report_bytes_match_recorded_digests(self, tmp_path, model):
        samples = synth_generate(3, 14, 6, 5, 0.4, False, 21)
        write_dataset_csv(samples[::5], tmp_path / "train.csv")
        write_dataset_csv([s for i, s in enumerate(samples) if i % 5], tmp_path / "test.csv")
        base = f"""
run.model = {model}
run.seed = 3
lattice.rows = 5
lattice.cols = 5
schedule.epochs = 2
data.train_csv = {tmp_path / 'train.csv'}
data.test_csv = {tmp_path / 'test.csv'}
"""
        cfg = write_cfg(tmp_path / "train.cfg", base + f"run.outdir = {tmp_path / 'model'}\n")
        assert main(["train", "--config", cfg]) == 0
        got = []
        for vote in ("false", "true"):
            cfg = write_cfg(tmp_path / "eval.cfg", base + f"run.outdir = {tmp_path / vote}\n"
                                                          f"eval.frame_vote = {vote}\n")
            assert main(["eval", "--config", cfg,
                         "--model", str(tmp_path / "model" / "model.txt")]) == 0
            got += [hashlib.sha256((tmp_path / vote / name).read_bytes()).hexdigest()
                    for name in ("report.csv", "confusion.csv")]
        assert tuple(got) == self.DIGESTS[model]


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        assert main(["synth", "--config", synth_cfg(tmp_path)]) == 0
        dataset = tmp_path / "out" / "synth.csv"
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 0
        return dataset, tmp_path / "train-out" / "model.txt"

    def eval_cfg(self, tmp_path, dataset, model="som"):
        return write_cfg(tmp_path / "eval.cfg", f"""
run.model = {model}
run.outdir = {tmp_path / 'eval-out'}
data.train_csv = {dataset}
data.test_csv = {dataset}
""")

    def test_eval_writes_reports(self, tmp_path, trained, capsys):
        dataset, model_path = trained
        cfg = self.eval_cfg(tmp_path, dataset)
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 0
        out = tmp_path / "eval-out"
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "class,correct,total,rate"
        assert len(report) == 4  # three classes
        assert "Average" in (out / "report.txt").read_text()
        assert (out / "confusion.csv").exists()
        # counts consistent: totals add up to the dataset size
        totals = sum(int(line.split(",")[2]) for line in report[1:])
        assert totals == 12

    def test_one_file_named_twice_is_read_and_checked_once(self, tmp_path, monkeypatch):
        phones = {"class0": "aa", "class1": "s", "class2": "m"}
        dataset = tmp_path / "data.csv"
        write_dataset_csv([replace(s, label=phones[s.label])
                           for s in synth_generate(3, 4, 5, 4, 5.0, False, 5)], dataset)
        (tmp_path / "link.csv").symlink_to(dataset)
        shutil.copy(dataset, tmp_path / "copy.csv")
        assert main(["train", "--config", train_cfg(tmp_path, dataset)]) == 0
        reads, checks = [], []
        read, check = corpus_mod.read_dataset_csv, pulsom.cli._check_classes
        monkeypatch.setattr(corpus_mod, "read_dataset_csv",
                            lambda path: reads.append(path) or read(path))
        monkeypatch.setattr(pulsom.cli, "_check_classes",
                            lambda path, *rest: checks.append(path) or check(path, *rest))
        reports = []
        for test, files in [("link.csv", [dataset]), ("copy.csv", [dataset, tmp_path / "copy.csv"])]:
            reads.clear(), checks.clear()
            cfg = write_cfg(tmp_path / "eval.cfg", f"""
run.model = som
run.outdir = {tmp_path / 'out' / test}
data.train_csv = {dataset}
data.test_csv = {tmp_path / test}
eval.class_map = timit_macro
""")
            assert main(["eval", "--config", cfg,
                         "--model", str(tmp_path / "train-out" / "model.txt")]) == 0
            assert reads == checks == files
            reports.append([(tmp_path / "out" / test / name).read_bytes()
                            for name in ("report.csv", "confusion.csv")])
        assert reports[0] == reports[1]

    def test_model_kind_mismatch_exits_2(self, tmp_path, trained):
        dataset, model_path = trained
        cfg = self.eval_cfg(tmp_path, dataset, model="lin")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2

    @pytest.mark.parametrize("damage", ["truncate", "drop_lo", "nan_lo", "alpha_line",
                                        "lo_above_hi"])
    def test_malformed_model_file_exits_2(self, tmp_path, trained, capsys, damage):
        dataset, model_path = trained
        cfg = write_cfg(tmp_path / "ssom.cfg", f"""
run.model = ssom
run.seed = 5
run.outdir = {tmp_path / 'ssom-out'}
lattice.rows = 4
lattice.cols = 4
schedule.epochs = 1
data.train_csv = {dataset}
data.test_csv = {dataset}
""")
        assert main(["train", "--config", cfg]) == 0
        model_path = tmp_path / "ssom-out" / "model.txt"
        lines = model_path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("lo "))
        if damage == "truncate":
            lines, named = lines[:6], "line 7"
        elif damage == "drop_lo":
            lines, named = lines[:at] + lines[at + 1:], "'lo'"
        elif damage == "nan_lo":
            lines[at] = "lo " + " ".join(["nan"] * 5)
            named = f"line {at + 1}: 'lo' values must be finite"
        elif damage == "lo_above_hi":  # the lo and hi values swapped
            lines[at], lines[at + 1] = "lo" + lines[at + 1][2:], "hi" + lines[at][2:]
            named = f"line {at + 2}: 'hi' values must not be below 'lo' values"
        else:
            lines, named = lines + ["alpha 0.3"], (f"line {len(lines) + 1}: 'alpha' is not "
                                                   f"a line of SSOM model files")
        model_path.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert str(model_path) in err
        assert named in err

    def test_out_of_range_alpha_in_model_file_exits_2(self, tmp_path, trained, capsys):
        dataset, _ = trained
        cfg = train_cfg(tmp_path, dataset, model="rssom", outdir="rssom-out")
        assert main(["train", "--config", cfg]) == 0
        model_path = tmp_path / "rssom-out" / "model.txt"
        text = model_path.read_text()
        assert "\nalpha 0.5\n" in text
        model_path.write_text(text.replace("\nalpha 0.5\n", "\nalpha 2.0\n"))
        cfg = self.eval_cfg(tmp_path, dataset, model="rssom")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert f"{model_path}: alpha must be in (0, 1], got 2.0" in err

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_retired_lin_line_in_model_file(self, tmp_path, trained, capsys, value):
        dataset, _ = trained
        cfg = train_cfg(tmp_path, dataset, model="lin", outdir="lin-out")
        assert main(["train", "--config", cfg]) == 0
        model_path = tmp_path / "lin-out" / "model.txt"
        lines = model_path.read_text().splitlines()
        assert not any(line.startswith("scale_input_by_lambda") for line in lines)
        model_path.write_text("\n".join(lines + [f"scale_input_by_lambda {value}"]) + "\n")
        cfg = self.eval_cfg(tmp_path, dataset, model="lin")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2
        assert (f"{model_path}: line {len(lines) + 1}: 'scale_input_by_lambda' is not a line "
                "of LIN model files") in capsys.readouterr().err

    @pytest.mark.parametrize("model, line, value", [("som", "concat", "True")])
    def test_bool_line_other_than_true_or_false_exits_2(self, tmp_path, trained, capsys,
                                                         model, line, value):
        dataset, _ = trained
        cfg = train_cfg(tmp_path, dataset, model=model, outdir=f"{model}-out")
        assert main(["train", "--config", cfg]) == 0
        model_path = tmp_path / f"{model}-out" / "model.txt"
        lines = model_path.read_text().splitlines()
        at = next(i for i, text in enumerate(lines) if text.startswith(line + " "))
        lines[at] = f"{line} {value}"
        model_path.write_text("\n".join(lines) + "\n")
        cfg = self.eval_cfg(tmp_path, dataset, model=model)
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert f"{model_path}: line {at + 1}: bad value {value!r}" in err
        assert "(expected true or false)" in err

    def test_calibration_csv_without_rows_exits_4(self, tmp_path, trained, capsys):
        dataset, model_path = trained
        empty = tmp_path / "empty.csv"
        empty.write_text(dataset.read_text().splitlines()[0] + "\n")
        cfg = write_cfg(tmp_path / "eval.cfg", f"""
run.model = som
run.outdir = {tmp_path / 'eval-out'}
data.train_csv = {empty}
data.test_csv = {dataset}
""")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 4
        assert f"{empty}:2: no sample rows" in capsys.readouterr().err

    def test_non_utf8_dataset_exits_4(self, tmp_path, trained, capsys):
        dataset, model_path = trained
        lines = dataset.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xad" + lines[2]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        cfg = write_cfg(tmp_path / "eval.cfg", f"""
run.model = som
run.outdir = {tmp_path / 'eval-out'}
data.train_csv = {dataset}
data.test_csv = {bad}
""")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 4
        assert f"{bad}:3: not UTF-8 text: byte 0xad" in capsys.readouterr().err

    def test_non_utf8_model_file_exits_2_with_its_line(self, tmp_path, trained, capsys):
        dataset, model_path = trained
        lines = model_path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xad" + lines[2]
        model_path.write_bytes(b"".join(lines))
        cfg = self.eval_cfg(tmp_path, dataset)
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2
        assert (f"config error: {model_path}:3: not UTF-8 text: byte 0xad"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("csv", ["data.train_csv", "data.test_csv"])
    @pytest.mark.parametrize("kind", ["som", "som-concat", "ssom", "rssom", "lin"])
    def test_dataset_of_another_width_exits_4(self, tmp_path, capsys, kind, csv):
        model, concat = kind.split("-")[0], kind == "som-concat"
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        write_dataset_csv(synth_generate(2, 3, 6, 4, 2.0, False, 1), wide)
        write_dataset_csv(synth_generate(2, 3, 4, 4, 2.0, False, 1), narrow)
        cfg = train_cfg(tmp_path, wide, model, extra=f"som.concat = {str(concat).lower()}")
        assert main(["train", "--config", cfg]) == 0
        paths = {"data.train_csv": wide, "data.test_csv": wide, csv: narrow}
        cfg = write_cfg(tmp_path / "eval.cfg", f"run.model = {model}\n"
                        f"run.outdir = {tmp_path / 'eval-out'}\n"
                        + "".join(f"{key} = {path}\n" for key, path in paths.items()))
        assert main(["eval", "--config", cfg,
                     "--model", str(tmp_path / "train-out" / "model.txt")]) == 4
        per = "16 features per sample, but the model has dim 24" if concat else \
            "4 features per frame, but the model has dim 6"
        assert f"corpus error: {narrow}:1: {per}" in capsys.readouterr().err

    @pytest.mark.parametrize("csv", ["data.train_csv", "data.test_csv"])
    def test_label_without_a_macro_class_exits_4(self, tmp_path, capsys, csv):
        # predictions carry training labels, so both files must map to classes
        samples = [replace(s, label=["aa", "stops"][i % 2])
                   for i, s in enumerate(synth_generate(2, 4, 3, 2, 2.0, False, 2))]
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_dataset_csv(samples, good)
        write_dataset_csv(samples[:3] + [replace(samples[3], label="class0")] + samples[4:], bad)
        rows = bad.read_text().splitlines(keepends=True)
        bad.write_text("".join(rows[:2] + ["\n"] + rows[2:]))    # a blank line is no row
        assert main(["train", "--config", train_cfg(tmp_path, good)]) == 0
        paths = {"data.train_csv": good, "data.test_csv": good, csv: bad}
        cfg = write_cfg(tmp_path / "eval.cfg", f"run.model = som\neval.class_map = timit_macro\n"
                        f"run.outdir = {tmp_path / 'eval-out'}\n"
                        + "".join(f"{key} = {path}\n" for key, path in paths.items()))
        assert main(["eval", "--config", cfg,
                     "--model", str(tmp_path / "train-out" / "model.txt")]) == 4
        assert (f"corpus error: {bad}:6: label 'class0' is neither a TIMIT phone nor a macro "
                "class") in capsys.readouterr().err
        assert not (tmp_path / "eval-out").exists()

    def test_missing_model_exits_3(self, tmp_path, trained):
        dataset, _ = trained
        cfg = self.eval_cfg(tmp_path, dataset)
        assert main(["eval", "--config", cfg, "--model",
                     str(tmp_path / "none.txt")]) == 3


class TestFeaturesCommand:
    def test_fixture_corpus_to_dataset(self, tmp_path, capsys):
        root = make_fixture_corpus(tmp_path / "corpus")
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 0
        samples = read_dataset_csv(tmp_path / "feat" / "dataset.csv")
        assert len(samples) == 8
        out = capsys.readouterr().out
        assert "utterances: 2" in out

    def test_per_frame_csv_written(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 0
        lines = (tmp_path / "feat" / "frames.csv").read_text().splitlines()
        assert lines[0] == "utt_id,frame_idx," + ",".join(
            f"c{i}" for i in range(1, 13))
        # 6400 samples -> 49 frames per utterance, two utterances
        assert len(lines) == 1 + 2 * 49
        first = lines[1].split(",")
        assert first[0] == "spk1/utt0"
        assert first[1] == "0"
        assert len(first) == 14

    def test_word_unit_dataset(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        for i in range(2):
            (root / "dr1" / "spk1" / f"utt{i}.wrd").write_text("1600 4800 she\n")
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n"
                        "corpus.unit = wrd\n")
        assert main(["features", "--config", cfg]) == 0
        samples = read_dataset_csv(tmp_path / "feat" / "dataset.csv")
        assert len(samples) == 2
        assert all(s.label == "she" for s in samples)
        assert all(s.macro_class is None for s in samples)

    def test_short_utterance_is_skipped(self, tmp_path, capsys):
        root = make_fixture_corpus(tmp_path / "corpus")
        outs = []
        for name in ("full", "short"):
            if name == "short":
                speaker = root / "dr1" / "spk1"
                write_sphere(speaker / "utt05.wav", np.zeros(100, dtype=np.int16))
                (speaker / "utt05.phn").write_text("0 100 h#\n")
            cfg = write_cfg(tmp_path / f"{name}.cfg",
                            f"run.outdir = {tmp_path / name}\ncorpus.root = {root}\n")
            assert main(["features", "--config", cfg]) == 0
            outs.append(capsys.readouterr().out)
        assert "utterances: 2 (0 skipped)" in outs[0]
        assert "utterances: 3 (1 skipped)" in outs[1]
        for csv in ("dataset.csv", "frames.csv"):
            want = (tmp_path / "full" / csv).read_bytes()
            assert (tmp_path / "short" / csv).read_bytes() == want

    def test_bad_sphere_header_integer_exits_4(self, tmp_path, capsys):
        root = make_fixture_corpus(tmp_path / "corpus")
        wav = root / "dr1" / "spk1" / "utt0.wav"
        wav.write_bytes(wav.read_bytes().replace(b"sample_rate -i 16000",
                                                 b"sample_rate -i 16k00"))
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert str(wav) in err and "sample_rate" in err

    def test_negative_sample_count_exits_4(self, tmp_path, capsys):
        root = make_fixture_corpus(tmp_path / "corpus")
        wav = root / "dr1" / "spk1" / "utt1.wav"
        wav.write_bytes(wav.read_bytes().replace(b"sample_count -i 6400",
                                                 b"sample_count -i -4"))
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert str(wav) in err and "sample_count" in err

    def test_missing_root_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\n"
                        f"corpus.root = {tmp_path / 'none'}\n")
        assert main(["features", "--config", cfg]) == 3

    @pytest.mark.parametrize("line, message", [
        ("mfcc.n_filters = 120", "120 filters collide on a 256-point FFT"),
        ("mfcc.frame_len = 0", "frame_len must be at least 2, got 0"),
        ("mfcc.frame_len = 1", "frame_len must be at least 2, got 1"),
        ("mfcc.frame_len = -4", "frame_len must be at least 2, got -4"),
        ("corpus.frames = 0", "frames per segment must be at least 1, got 0"),
    ])
    def test_bad_setting_exits_2_naming_its_line(self, tmp_path, capsys, line, message):
        root = make_fixture_corpus(tmp_path / "corpus")
        cfg = write_cfg(tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'feat'}\n"
                                            f"corpus.root = {root}\n{line}\n")
        assert main(["features", "--config", cfg]) == 2
        key = line.split(" = ")[0]
        assert f"config error: {cfg}:3 ({key}): {message}" in capsys.readouterr().err
        assert no_csvs_in(tmp_path / "feat")

    def test_as_many_coefficients_as_filters_exits_2_naming_both_lines(self, tmp_path,
                                                                        capsys):
        # the DCT drops the mean term, so 26 filters give at most 25 coefficients
        root = make_fixture_corpus(tmp_path / "corpus")
        cfg = write_cfg(tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'feat'}\n"
                                            f"corpus.root = {root}\nmfcc.n_filters = 26\n"
                                            "mfcc.n_coeffs = 26\n")
        assert main(["features", "--config", cfg]) == 2
        assert (f"config error: {cfg}:3 (mfcc.n_filters), {cfg}:4 (mfcc.n_coeffs): "
                "n_coeffs must be below n_filters, got 26") in capsys.readouterr().err
        assert no_csvs_in(tmp_path / "feat")

    def test_malformed_corpus_exits_4(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        (root / "dr1" / "spk1" / "utt0.phn").write_text("10 5 h#\n")
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 4


def short_utterance(root):
    write_sphere(root / "dr1/spk1/utt05.wav", np.zeros(100, dtype=np.int16))
    (root / "dr1/spk1/utt05.phn").write_text("0 100 h#\n")


def more_speaker_dirs(root):
    shutil.copytree(root / "dr1/spk1", root / "dr1/SPK3")
    shutil.copytree(root / "dr1", root / "dr2")


def alignment(name, text):
    """The corpus edit that writes one alignment file of dr1/spk1."""
    return lambda root: (root / "dr1/spk1" / name).write_text(text)


# Fixture corpora for the byte comparison of `pulsom features` with the
# library path: each case edits the two-utterance fixture corpus (or not),
# and gives the config lines it runs with and a line the command prints.
FEATURE_CASES = {
    "short-utterance": (short_utterance, "", "utterances: 3 (1 skipped)"),
    "zero-overlap-segment": (
        alignment("utt0.phn", "0 1600 h#\n1600 6400 sh\n6400 6500 h#\n"), "",
        "segments: 7 (1 skipped)"),
    "segments-shorter-than-9-frames": (
        alignment("utt1.phn", "0 200 h#\n200 700 sh\n700 900 iy\n900 6400 h#\n"), "",
        "segments: 8 (0 skipped)"),
    "word-unit": (alignment("utt1.wrd", "1600 4800 she\n5000 6000 had\n"),
                  "corpus.unit = wrd\n", "segments: 2 (0 skipped)"),
    "dialect-and-speaker-filters": (
        more_speaker_dirs, "corpus.dialects = dr1\ncorpus.speakers = spk3\n",
        "utterances: 2 (0 skipped)"),
    "one-frame": (None, "corpus.frames = 1\n", "segments: 8 (0 skipped)"),
    "five-frames-13-coeffs": (None, "corpus.frames = 5\nmfcc.n_coeffs = 13\n",
                              "segments: 8 (0 skipped)"),
}


def library_csvs(cfg: RunConfig, outdir):
    """dataset.csv and frames.csv as the library writes them for the corpus
    and settings of a features config."""
    root, unit, mfcc_cfg = cfg["corpus.root"], cfg["corpus.unit"], cfg.mfcc_config()
    dialects = [d for d in cfg["corpus.dialects"].split(",") if d] or None
    speakers = [s for s in cfg["corpus.speakers"].split(",") if s] or None
    samples, _ = build_corpus_dataset(root, mfcc_cfg, unit, cfg["corpus.frames"],
                                      dialects, speakers)
    write_dataset_csv(samples, outdir / "dataset.csv")
    utterances = []
    for stem, _ in iter_utterances(root, dialects, speakers):
        buf = read_sphere(stem.with_suffix(".wav"))
        if stem.with_suffix(f".{unit}").exists() and buf.samples.size >= mfcc_cfg.frame_len:
            utterances.append((f"{stem.parent.name}/{stem.name}", mfcc_pipeline(buf, mfcc_cfg)))
    write_frames_csv(utterances, outdir / "frames.csv")


def no_csvs_in(outdir):
    return not outdir.exists() or not [p.name for p in outdir.iterdir()
                                       if p.name.startswith(("dataset.csv", "frames.csv"))]


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """The fixture corpus, a features config for it, and its outdir."""
    tmp = tmp_path_factory.mktemp("fuzzed-corpus")
    root = make_fixture_corpus(tmp / "corpus")
    cfg = write_cfg(tmp / "f.cfg", f"run.outdir = {tmp / 'feat'}\ncorpus.root = {root}\n")
    return root, cfg, tmp / "feat"


class TestFeaturesBytes:
    """`pulsom features` streams both CSVs; the library path is the oracle."""

    # SHA-256 of the fixture corpus's dataset.csv and frames.csv, recorded
    # with numpy 2.4 on x86-64.  The log10 of the filterbank energies
    # follows numpy's kernel as the spiking bytes follow its exp, so there
    # are two sets picked by ``conftest.pinned``: numpy's AVX-512 kernel,
    # and glibc's libm where numpy dispatches no AVX-512 (with or without
    # AVX2: the power spectrum is exact IEEE products and sums, and the
    # filterbank and DCT are einsums, so no OpenBLAS kernel moves them).
    DIGESTS = ("b9872bcbd0584e3108117b0fdc7682225c787f3dfe39b9611467f97906c7f8c1",
               "4d022910d1a3f5a63f753346c559752b3597b2b0f89bfeabfa63074bcf28ed19")
    DIGESTS_LIBM = ("422c0d4526d4d442f19d8496adab6cc5434bad7fede8c1cb0884fc46063b9632",
                    "b6067a482f24126c6dffbe3262c04ef7ae831d4248435e41aa27c51397e4d083")

    def test_fixture_corpus_bytes_match_recorded_digests(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 0
        got = tuple(hashlib.sha256((tmp_path / "feat" / name).read_bytes()).hexdigest()
                    for name in ("dataset.csv", "frames.csv"))
        assert got == pinned(self.DIGESTS, self.DIGESTS_LIBM)

    @pytest.mark.parametrize("case", list(FEATURE_CASES))
    def test_cli_bytes_equal_library(self, tmp_path, capsys, case):
        edit, settings, printed = FEATURE_CASES[case]
        root = make_fixture_corpus(tmp_path / "corpus")
        if edit:
            edit(root)
        cfg = write_cfg(tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'feat'}\n"
                                            f"corpus.root = {root}\n{settings}")
        assert main(["features", "--config", cfg]) == 0
        assert printed in capsys.readouterr().out
        (tmp_path / "lib").mkdir()
        library_csvs(RunConfig.load(cfg), tmp_path / "lib")
        for name in ("dataset.csv", "frames.csv"):
            assert (tmp_path / "feat" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    @pytest.mark.parametrize("phn, message", [
        (b"0 1600 h#\n1600 3200 \xad\xff\n", "utt1.phn:2: not UTF-8 text: byte 0xad"),
        (b"0 1600 h#\n1600 3200 qq\n", "utt1.phn:2: unknown phone symbol 'qq'"),
        (b"0 1600 h#\n1600 1500 sh\n", "utt1.phn:2: invalid span"),
        (b"0 1600 h#\n1600 3200 s,h\n", "utt1.phn:2: label 's,h' holds a comma"),
    ], ids=["not-utf8", "unknown-phone", "inverted-span", "comma-in-label"])
    def test_bad_second_alignment_exits_4_and_leaves_no_csvs(self, tmp_path, capsys, phn,
                                                             message):
        root = make_fixture_corpus(tmp_path / "corpus")
        (root / "dr1" / "spk1" / "utt1.phn").write_bytes(phn)
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 4
        assert message in capsys.readouterr().err
        assert no_csvs_in(tmp_path / "feat")

    @pytest.mark.parametrize("edit, settings, message", [
        (alignment("utt1.wrd", "0 1600 w,x\n"), "corpus.unit = wrd\n",
         "dr1/spk1/utt1.wrd:1: label 'w,x' holds a comma"),
        (lambda root: (root / "dr1/spk1").rename(root / "dr1/sp,k1"), "",
         "dr1/sp,k1: name holds a comma or a line break"),
        (lambda root: [p.rename(p.with_name("ut\nt1" + p.suffix))
                       for p in (root / "dr1/spk1").glob("utt1.*")], "",
         "dr1/spk1/ut\nt1.wav: name holds a comma or a line break"),
    ], ids=["comma-in-word", "comma-in-speaker", "line-break-in-utterance"])
    def test_text_a_dataset_csv_cannot_hold_exits_4_and_leaves_no_csvs(
            self, tmp_path, capsys, edit, settings, message):
        root = make_fixture_corpus(tmp_path / "corpus")
        edit(root)
        cfg = write_cfg(tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'feat'}\n"
                                            f"corpus.root = {root}\n{settings}")
        assert main(["features", "--config", cfg]) == 4
        assert f"{root}/{message}" in capsys.readouterr().err
        assert no_csvs_in(tmp_path / "feat")

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(content=st.binary(min_size=1), at=st.integers(0, 10**6))
    def test_fuzzed_alignment_exits_0_or_4_and_4_leaves_no_csvs(self, fuzz_corpus, content,
                                                                at):
        root, cfg, outdir = fuzz_corpus
        good = PHN.encode("utf-8")
        at %= len(good)
        (root / "dr1" / "spk1" / "utt1.phn").write_bytes(good[:at] + content + good[at:])
        shutil.rmtree(outdir, ignore_errors=True)
        code = main(["features", "--config", cfg])
        assert code in (0, 4)
        if code == 4:
            assert no_csvs_in(outdir)

    def test_no_labeled_segments_leaves_no_csvs(self, tmp_path, capsys):
        root = make_fixture_corpus(tmp_path / "corpus")
        cfg = write_cfg(tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'feat'}\n"
                                            f"corpus.root = {root}\ncorpus.dialects = dr9\n")
        assert main(["features", "--config", cfg]) == 3
        assert "no labeled segments found" in capsys.readouterr().err
        assert no_csvs_in(tmp_path / "feat")

    def test_io_error_after_the_first_utterance_leaves_no_csvs(self, tmp_path, capsys,
                                                               monkeypatch):
        root = make_fixture_corpus(tmp_path / "corpus")
        calls = []

        def read_once(path):
            calls.append(path)
            if len(calls) > 1:
                raise OSError(f"cannot read {path}")
            return read_sphere(path)

        monkeypatch.setattr(corpus_mod, "read_sphere", read_once)
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 3
        assert "cannot read" in capsys.readouterr().err
        assert len(calls) == 2
        assert no_csvs_in(tmp_path / "feat")


# The outputs of each command; a clean run adds effective-config.txt and
# run-manifest.txt to them in run.outdir, and nothing else.
OUTPUTS = {"features": ["dataset.csv", "frames.csv"], "synth": ["synth.csv"],
           "train": ["model.txt", "training-log.csv"],
           "eval": ["confusion.csv", "report.csv", "report.txt"]}


def command_argv(tmp_path, command):
    """The argv of a run of ``command`` into tmp_path / "run", once the runs
    it reads from (synth, then train) are done."""
    dataset = tmp_path / "out" / "synth.csv"
    if command == "features":
        root = make_fixture_corpus(tmp_path / "corpus")
        return ["features", "--config", write_cfg(
            tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'run'}\ncorpus.root = {root}\n")]
    if command == "synth":
        return ["synth", "--config", synth_cfg(tmp_path, outdir="run")]
    assert main(["synth", "--config", synth_cfg(tmp_path)]) == 0
    if command == "train":
        return ["train", "--config", train_cfg(tmp_path, dataset, outdir="run")]
    assert main(["train", "--config", train_cfg(tmp_path, dataset)]) == 0
    cfg = write_cfg(tmp_path / "eval.cfg", f"run.outdir = {tmp_path / 'run'}\n"
                                           f"data.train_csv = {dataset}\n"
                                           f"data.test_csv = {dataset}\n")
    return ["eval", "--config", cfg, "--model", str(tmp_path / "train-out" / "model.txt")]


def fail_after_writing(obj, path):
    Path(path).write_text("half a file")
    raise OSError(f"disk full writing {path}")


class TestOutputs:
    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_clean_run_leaves_exactly_its_outputs(self, tmp_path, command):
        assert main(command_argv(tmp_path, command)) == 0
        hashed = sorted(OUTPUTS[command] + ["effective-config.txt"])
        manifest = (tmp_path / "run" / "run-manifest.txt").read_text().splitlines()
        assert [line.split("  ")[1] for line in manifest] == hashed
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
            hashed + ["run-manifest.txt"])

    # The last writer of each command fails after its other outputs are written.
    @pytest.mark.parametrize("command, owner, writer", [
        ("synth", corpus_mod, "write_dataset_csv"),
        ("train", TrainingLog, "to_csv"),
        ("eval", pulsom.cli, "write_confusion_csv"),
    ], ids=["synth", "train", "eval"])
    def test_write_error_leaves_no_outputs(self, tmp_path, capsys, monkeypatch, command,
                                           owner, writer):
        argv = command_argv(tmp_path, command)
        monkeypatch.setattr(owner, writer, fail_after_writing)
        assert main(argv) == 3
        assert "i/o error: disk full writing" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_python(script, cwd, **env):
    """Run a Python script in a subprocess that imports this pulsom, with
    extra environment variables env."""
    env = dict(os.environ, PYTHONPATH=str(Path(pulsom.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True)


class TestAsciiLocale:
    """Every output is UTF-8 whatever the locale: a run whose labels and
    config hold non-ASCII text writes the same bytes under an ASCII locale
    as under the default one, and prints what the locale cannot encode
    escaped."""

    SCRIPT = ("from pulsom.cli import main\n"
              "from pulsom.corpus import read_dataset_csv, write_dataset_csv\n"
              "codes = [main(['synth', '--config', 'synth.cfg'])]\n"
              "samples = read_dataset_csv('synth-out/synth.csv')\n"
              "for s in samples:\n"
              "    s.label = 'cl\\u00e9' + s.label[-1]\n"
              "write_dataset_csv(samples, 'data.csv')\n"
              "codes.append(main(['train', '--config', 'train.cfg']))\n"
              "codes.append(main(['eval', '--config', 'eval.cfg', '--model', "
              "'train-out/model.txt']))\n"
              "print(codes)\n")

    def run_in(self, workdir, **env):
        workdir.mkdir()
        common = "run.seed = 5\ncorpus.speakers = spé\n"
        (workdir / "synth.cfg").write_text(
            common + "run.outdir = synth-out\nsynth.classes = 2\nsynth.samples_per_class = 4\n"
            "synth.dim = 3\nsynth.frames = 4\n", encoding="utf-8")
        train = (common + "run.model = ssom\nlattice.rows = 3\nlattice.cols = 3\n"
                 "schedule.epochs = 2\ndata.train_csv = data.csv\ndata.test_csv = data.csv\n")
        for name in ("train", "eval"):
            (workdir / f"{name}.cfg").write_text(
                train + f"run.outdir = {name}-out\n", encoding="utf-8")
        proc = run_python(self.SCRIPT, workdir, **env)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        return proc.stdout.decode("ascii", errors="replace"), {
            str(p.relative_to(workdir)): p.read_bytes()
            for out in ("synth-out", "train-out", "eval-out")
            for p in sorted((workdir / out).iterdir())}

    def test_outputs_match_the_default_locale_run(self, tmp_path):
        out, files = self.run_in(tmp_path / "default")
        ascii_out, ascii_files = self.run_in(tmp_path / "ascii", **ASCII_LOCALE)
        assert ascii_out.splitlines()[-1] == out.splitlines()[-1] == "[0, 0, 0]"
        assert "cl\\xe90" in ascii_out
        assert "clé" in files["eval-out/report.txt"].decode("utf-8")
        assert "spé" in files["synth-out/effective-config.txt"].decode("utf-8")
        assert ascii_files == files
        assert len(files) == 12

    def features(self, tmp_path, speaker: bytes, name: str, **env):
        """Run `pulsom features` in a subprocess on the fixture corpus with its
        speaker directory renamed to the raw bytes speaker."""
        root = make_fixture_corpus(tmp_path / name / "corpus")
        os.rename(os.fsencode(root / "dr1" / "spk1"), os.fsencode(root / "dr1") + b"/" + speaker)
        cfg = write_cfg(tmp_path / name / "f.cfg",
                        f"run.outdir = {tmp_path / name / 'feat'}\ncorpus.root = {root}\n")
        return run_python("import sys\nfrom pulsom.cli import main\n"
                          f"sys.exit(main(['features', '--config', {cfg!r}]))\n", tmp_path, **env)

    def test_non_ascii_corpus_names_give_the_default_locale_bytes(self, tmp_path):
        csvs = {}
        for name, env in (("default", {}), ("ascii", ASCII_LOCALE)):
            proc = self.features(tmp_path, "spék1".encode(), name, **env)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            csvs[name] = [(tmp_path / name / "feat" / f).read_bytes()
                          for f in ("dataset.csv", "frames.csv")]
        assert csvs["ascii"] == csvs["default"]
        assert "\nspék1/utt0,".encode() in csvs["default"][0]

    def test_non_utf8_corpus_name_exits_4(self, tmp_path):
        for name, env in (("default", {}), ("ascii", ASCII_LOCALE)):
            proc = self.features(tmp_path, b"sp\xe9k1", name, **env)
            assert proc.returncode == 4
            assert b"dr1/sp\\udce9k1: name is not UTF-8" in proc.stderr
            assert no_csvs_in(tmp_path / name / "feat")


class TestNoCommandLoadsScipy:
    def test_import_and_every_command_leave_scipy_unloaded(self, tmp_path):
        dataset = tmp_path / "out" / "synth.csv"
        root = make_fixture_corpus(tmp_path / "corpus")
        features_cfg = write_cfg(tmp_path / "f.cfg", f"run.outdir = {tmp_path / 'feat'}\n"
                                                     f"corpus.root = {root}\n")
        eval_cfg = write_cfg(tmp_path / "eval.cfg",
                             f"run.outdir = {tmp_path / 'eval-out'}\n"
                             f"data.train_csv = {dataset}\ndata.test_csv = {dataset}\n")
        argvs = [["features", "--config", features_cfg],
                 ["synth", "--config", synth_cfg(tmp_path)],
                 ["train", "--config", train_cfg(tmp_path, dataset)],
                 ["eval", "--config", eval_cfg, "--model",
                  str(tmp_path / "train-out" / "model.txt")]]
        script = ("import sys\n"
                  "import pulsom\n"
                  "seen = {'import pulsom': 'scipy' in sys.modules}\n"
                  "from pulsom.cli import main\n"
                  "seen['import pulsom.cli'] = 'scipy' in sys.modules\n"
                  f"for argv in {argvs!r}:\n"
                  "    assert main(argv) == 0, argv\n"
                  "    seen[argv[0]] = 'scipy' in sys.modules\n"
                  "print(seen)\n")
        proc = run_python(script, tmp_path)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert proc.stdout.decode().splitlines()[-1] == str(
            {"import pulsom": False, "import pulsom.cli": False, "features": False,
             "synth": False, "train": False, "eval": False})


class TestHelp:
    def test_help_exits_zero_and_documents_keys(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pulsom.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "run.model" in proc.stdout
        assert "mfcc.n_coeffs" in proc.stdout
        assert "stdp.variant" in proc.stdout

    def test_subcommand_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pulsom.cli", "train", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "--config" in proc.stdout
