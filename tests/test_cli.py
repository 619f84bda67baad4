import hashlib
import subprocess
import sys

import numpy as np
import pytest

from pulsom.cli import main
from pulsom.corpus import read_dataset_csv, synth_generate, write_dataset_csv, write_sphere
from test_corpus import make_fixture_corpus


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

    def test_bad_separation_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg",
                        f"run.outdir = {tmp_path / 'o'}\nsynth.separation = -1.0\n")
        assert main(["synth", "--config", cfg]) == 2

    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", "run.mode = som\n")
        assert main(["synth", "--config", cfg]) == 2
        assert "run.mode" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.cfg")]) == 3


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

    def test_zero_epochs_exits_2(self, tmp_path, dataset):
        cfg = write_cfg(tmp_path / "z.cfg",
                        f"run.model = som\nrun.outdir = {tmp_path / 'z'}\n"
                        f"schedule.epochs = 0\ndata.train_csv = {dataset}\n")
        assert main(["train", "--config", cfg]) == 2

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

    def test_header_without_features_exits_4(self, tmp_path, dataset, capsys):
        dataset.write_text("utt_id,label,macro_class\nu0,a,\n")
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 4
        assert f"{dataset}:1:" in capsys.readouterr().err

    def test_divergence_exits_5(self, tmp_path, dataset, monkeypatch, capsys):
        import pulsom.cli
        from pulsom.errors import DivergenceError

        def exploding_train(*args, **kwargs):
            raise DivergenceError(epoch=3)

        monkeypatch.setattr(pulsom.cli, "train_som", exploding_train)
        cfg = train_cfg(tmp_path, dataset)
        assert main(["train", "--config", cfg]) == 5
        assert "epoch 3" in capsys.readouterr().err


class TestModelBytes:
    """Trained model files and logs are pinned to recorded SHA-256 digests,
    so a speed-up that changes a single bit of any trainer's result fails.
    The digests were recorded with numpy 2.4 on x86-64; a numpy build whose
    exp differs in the last bit changes them too."""

    DIGESTS = {
        "som": ("0b118d3664e803701e8e99f59e7f023cac167d86bfa3e53829254a2d0c1ec8db",
                "7ed0075c87eaee2278ccd85fc5ae9dab2e7af2328f6282048a90ced234c2b740"),
        "ssom": ("17d5a10fa0332016883cfc4b0f77aa22f4d20c328dd41c6d906f4be6364bb4e1",
                 "e123cf69413c94b625208173d0cf8a2786c57efd6fff7f1e4edcb70e042252cd"),
        "rssom": ("ae22a5eb37aa2fe5c6f6d7a6972f365392ca6938645736cb6f18c505865a67e9",
                  "e1412a215b77cdf9e9c16c872290a888bb46f547171659d85452a0913ce6e367"),
        "lin": ("ac3619978e96f400231be5344af7f3c95fc2ef31b1a456a8cd1ee8f2b1c800a7",
                "d51467825d3820c63bcdecc48c0e110f2961718aa978d47f60b352e432c7265c"),
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
        assert got == self.DIGESTS[model]


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

    def test_model_kind_mismatch_exits_2(self, tmp_path, trained):
        dataset, model_path = trained
        cfg = self.eval_cfg(tmp_path, dataset, model="lin")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2

    @pytest.mark.parametrize("damage", ["truncate", "drop_lo"])
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
        if damage == "truncate":
            lines = lines[:6]
        else:
            lines = [line for line in lines if not line.startswith("lo ")]
        model_path.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", cfg, "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert str(model_path) in err
        assert ("line 7" if damage == "truncate" else "'lo'") in err

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

    def test_missing_root_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\n"
                        f"corpus.root = {tmp_path / 'none'}\n")
        assert main(["features", "--config", cfg]) == 3

    def test_malformed_corpus_exits_4(self, tmp_path):
        root = make_fixture_corpus(tmp_path / "corpus")
        (root / "dr1" / "spk1" / "utt0.phn").write_text("10 5 h#\n")
        cfg = write_cfg(tmp_path / "f.cfg",
                        f"run.outdir = {tmp_path / 'feat'}\ncorpus.root = {root}\n")
        assert main(["features", "--config", cfg]) == 4


class TestReportCommand:
    def test_renders_csv(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        csv.write_text("class,correct,total,rate\nvowels,66,100,66.0\n")
        assert main(["report", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "vowels" in out
        assert "Average" in out

    def test_missing_csv_exits_3(self, tmp_path):
        assert main(["report", "--csv", str(tmp_path / "none.csv")]) == 3


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
