"""A digest matrix over every trainer behaviour the config can select.

The spiking trainers are pinned for each STDP variant x fixed/auto lateral
excitation radius on a non-square 3x5 lattice, at the default gates and at
tight ones (``GATES``), off the default STDP window and weight ceiling
(``RULES``), the concatenating SOM for its one path, and eval reports for
the identity and TIMIT macro class maps, each with terminal and per-frame
votes, and over test sets that span several inference and CSV-reading
blocks.  A refactor of the learning step that changes one bit of any of
them fails here.

Each digest is the first 16 hex digits of the SHA-256 of the trained
weights plus the epoch rows of the training log (lr, radius, qe and
skipped presentations), or of report.csv plus confusion.csv.  Weights, not
model.txt, so that configurations which train the same map share a digest
(model.txt also records the variant).  Each table has two sets,
recorded with numpy 2.4 on x86-64: one where numpy's exp runs its AVX-512
kernel, and one (``*_LIBM``) where it calls glibc's libm, as it does on a
host without AVX-512; ``conftest.pinned`` picks this host's.  The
concatenating SOM and the reports come out the same under both, so they
have one set.  Child processes rerun the pins with numpy's AVX-512, and
then also its AVX2, kernels disabled.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pulsom
from pulsom.cli import main
from pulsom.coding import SsomConfig
from pulsom.corpus import synth_generate, write_dataset_csv
from pulsom.errors import DivergenceError
from pulsom.lin import train_lin
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel, load_model
from pulsom.rssom import train_rssom
from pulsom.som import Lattice, Schedule, sample_vectors, train_som
from pulsom.ssom import LateralKernel, feature_ranges, normalized_init, train_ssom
from pulsom.stdp import VARIANTS, StdpRule, StdpWindow
from conftest import pinned

ROWS, COLS, EPOCHS, SEED = 3, 5, 2, 3
RADII = {"fixed": 1.5, "auto": None}
# (SsomConfig, LateralKernel) keywords.  At the defaults no presentation is
# skipped and inhibition silences no unit; the tight reference time and
# inhibition gain make the SSOM and LIN skip presentations and make
# inhibition silence units on every map.
GATES = {"default": ({}, {}), "tight": ({"t_ref": 2.0}, {"inhibit_gain": 2.0})}
# StdpRule keywords off the defaults every other entry uses (the (1, 1, 10,
# 10) window and w_max = 1): an asymmetric window, and a weight ceiling
# below and above the spiking map's match clamp of 1.
RULES = {"asymmetric": {"window": StdpWindow(a_plus=0.8, a_minus=1.3, tau_plus=7.0,
                                             tau_minus=13.0)},
         "w_max_0.8": {"w_max": 0.8},
         "w_max_1.5": {"w_max": 1.5}}
TRAINERS = {"ssom": (SsomModel, train_ssom, {}),
            "rssom": (RssomModel, train_rssom, {"alpha": 0.5}),
            "lin": (LinModel, train_lin, {"lam": 0.5})}

SPIKING = {
    "ssom": {
        ("additive", "fixed"): "95c963fbe6377fe9",
        ("additive", "auto"): "4e411cf95c907265",
        ("panchev", "fixed"): "bed9d9bf4edf97d8",
        ("panchev", "auto"): "30a15054ff76ddd0",
        ("soula", "fixed"): "956905468cf5f84e",
        ("soula", "auto"): "128e54799e1bcaf8",
        ("input", "fixed"): "e850c91c8d0e2299",
        ("input", "auto"): "df2bd7347a9c4cef",
    },
    "lin": {
        ("additive", "fixed"): "753d91bdc8d4b2ca",
        ("additive", "auto"): "8ffb45371f934b5a",
        ("panchev", "fixed"): "b14411c75eead9dd",
        ("panchev", "auto"): "cb9767332c42fb43",
        ("soula", "fixed"): "db79bcd23ddbd712",
        ("soula", "auto"): "1720abbecf751d41",
        ("input", "fixed"): "a561a77ee3141ff5",
        ("input", "auto"): "213cca45c36e29a1",
    },
    "rssom": {"fixed": "495a5e5dc3218805", "auto": "10d94569b229c3b4"},
}

SPIKING_LIBM = {
    "ssom": {
        ("additive", "fixed"): "c39871a6133e1b4f",
        ("additive", "auto"): "1ebe3af937fab9f3",
        ("panchev", "fixed"): "14abfb9f85670051",
        ("panchev", "auto"): "310f3e360c8796f5",
        ("soula", "fixed"): "22cd14ac6b87da28",
        ("soula", "auto"): "94a6764eff3c80aa",
        ("input", "fixed"): "4fde52b7e7bf1e66",
        ("input", "auto"): "4501afa2e99c28e0",
    },
    "lin": {
        ("additive", "fixed"): "d9d8843b142430b0",
        ("additive", "auto"): "24552c5f1fa20ed4",
        ("panchev", "fixed"): "c2b18cdcc1b626e6",
        ("panchev", "auto"): "d31845e96acec198",
        ("soula", "fixed"): "3e6410bc9fb4c724",
        ("soula", "auto"): "70bb668a9bf12f98",
        ("input", "fixed"): "ddc423aeeb3e6490",
        ("input", "auto"): "ba2d673bebd31a57",
    },
    "rssom": {"fixed": "495a5e5dc3218805", "auto": "10d94569b229c3b4"},
}

SPIKING_TIGHT = {
    "ssom": {
        ("additive", "fixed"): "a81c268ccc1ecf37",
        ("additive", "auto"): "4a63b0790bd36516",
        ("panchev", "fixed"): "9d3b83e53bb02100",
        ("panchev", "auto"): "7b796f8ba077f67f",
        ("soula", "fixed"): "f73eaf1164c4323a",
        ("soula", "auto"): "7cec92290c003386",
        ("input", "fixed"): "419c318a30bc7f46",
        ("input", "auto"): "2d4e61082124cbd9",
    },
    "lin": {
        ("additive", "fixed"): "3c6186b04e031853",
        ("additive", "auto"): "64b3dcefcd3ea5a8",
        ("panchev", "fixed"): "ead089f6d30f8d31",
        ("panchev", "auto"): "669ece40a17d56d4",
        ("soula", "fixed"): "1f57f70364f3a585",
        ("soula", "auto"): "dd274df6d4a1847c",
        ("input", "fixed"): "0ff738021b9a4cca",
        ("input", "auto"): "f6ded755607c109e",
    },
    "rssom": {"fixed": "43fa9ea31f0afabc", "auto": "4440770dd9876a8d"},
}

SPIKING_TIGHT_LIBM = {
    "ssom": {
        ("additive", "fixed"): "a537698364744dd1",
        ("additive", "auto"): "b0e3ca2713580b19",
        ("panchev", "fixed"): "9d3b83e53bb02100",
        ("panchev", "auto"): "5ac8a9c251de6158",
        ("soula", "fixed"): "2f990d197da3c8a5",
        ("soula", "auto"): "f55f68a4363afef9",
        ("input", "fixed"): "812610e1809ba9db",
        ("input", "auto"): "ad1cd9043c9ea544",
    },
    "lin": {
        ("additive", "fixed"): "e725db0665e3b3b9",
        ("additive", "auto"): "d783cd8ab4737ef4",
        ("panchev", "fixed"): "b3ffcd604bacc7dd",
        ("panchev", "auto"): "5a89dc2e5f8dff0b",
        ("soula", "fixed"): "cacc4a0802ec92f0",
        ("soula", "auto"): "cc20a8220121b473",
        ("input", "fixed"): "907fe3654be7fffb",
        ("input", "auto"): "7c80650ad8f3261d",
    },
    "rssom": {"fixed": "d37322acfdfa8108", "auto": "4440770dd9876a8d"},
}

# RULES entry -> digests of SSOM and LIN (kind, variant) at the fixed
# radius and RSSOM (kind, radius).  With w_max = 0.8 the soula rule's
# fixed point lies below the initial weights and the SSOM diverges; with
# w_max = 1.5 it drives SSOM and LIN weights above 1, where the map's match
# clamp and the stored weights differ.
SPIKING_RULES = {
    "asymmetric": {
        ("ssom", "additive"): "401a344507cd1bc0",
        ("ssom", "panchev"): "d92ed08f55c97277",
        ("ssom", "soula"): "8b4578d4a42870d3",
        ("ssom", "input"): "61d2f7e8071478eb",
        ("lin", "additive"): "a14e583c3d8bf356",
        ("lin", "panchev"): "fbea375973a35594",
        ("lin", "soula"): "ecdcc87d5a9e27ee",
        ("lin", "input"): "c2e92ecba45a4e37",
        ("rssom", "fixed"): "5e52ec3a6f184a9f",
        ("rssom", "auto"): "0c4b29715035b2ce",
    },
    "w_max_0.8": {
        ("ssom", "additive"): "c64821e0a7ddae2b",
        ("ssom", "panchev"): "bed9d9bf4edf97d8",
        ("ssom", "soula"): "diverged at epoch 0",
        ("ssom", "input"): "8f7c793b9813e591",
        ("lin", "additive"): "7ce8e83a96e2359e",
        ("lin", "panchev"): "b14411c75eead9dd",
        ("lin", "soula"): "17f98214ffc0d59b",
        ("lin", "input"): "3170d03a7186afd1",
        ("rssom", "fixed"): "0cbf23dbb10086c7",
        ("rssom", "auto"): "a62f26e236f78144",
    },
    "w_max_1.5": {
        ("ssom", "additive"): "0902d46bebae9119",
        ("ssom", "panchev"): "bed9d9bf4edf97d8",
        ("ssom", "soula"): "ba752fc2a9914436",
        ("ssom", "input"): "e850c91c8d0e2299",
        ("lin", "additive"): "a45f38b429703388",
        ("lin", "panchev"): "b14411c75eead9dd",
        ("lin", "soula"): "b4ffb370323490bc",
        ("lin", "input"): "a561a77ee3141ff5",
        ("rssom", "fixed"): "495a5e5dc3218805",
        ("rssom", "auto"): "10d94569b229c3b4",
    },
}

SPIKING_RULES_LIBM = {
    "asymmetric": {
        ("ssom", "additive"): "74f4007b00e61929",
        ("ssom", "panchev"): "ce936b702ee709b0",
        ("ssom", "soula"): "b248cb3d3bedd91a",
        ("ssom", "input"): "04ee7717fde6e78a",
        ("lin", "additive"): "501678a5b9b9a91f",
        ("lin", "panchev"): "0b7a7d374a96e607",
        ("lin", "soula"): "fbc9c7a8b128663d",
        ("lin", "input"): "e71c9fbe89b6706c",
        ("rssom", "fixed"): "5e52ec3a6f184a9f",
        ("rssom", "auto"): "0c4b29715035b2ce",
    },
    "w_max_0.8": {
        ("ssom", "additive"): "0e0e5ea76a1dbf59",
        ("ssom", "panchev"): "14abfb9f85670051",
        ("ssom", "soula"): "diverged at epoch 0",
        ("ssom", "input"): "8d204a9237c51910",
        ("lin", "additive"): "7217b026ad1b7f3e",
        ("lin", "panchev"): "c2b18cdcc1b626e6",
        ("lin", "soula"): "b0e90125929abe8c",
        ("lin", "input"): "4957f092e830b61c",
        ("rssom", "fixed"): "72155f92343c88a8",
        ("rssom", "auto"): "a62f26e236f78144",
    },
    "w_max_1.5": {
        ("ssom", "additive"): "079d8a1d71ea5a3e",
        ("ssom", "panchev"): "14abfb9f85670051",
        ("ssom", "soula"): "33c9d7b36818cec4",
        ("ssom", "input"): "4fde52b7e7bf1e66",
        ("lin", "additive"): "248a3a0b5c2f11f7",
        ("lin", "panchev"): "c2b18cdcc1b626e6",
        ("lin", "soula"): "bd6be1598dd944c1",
        ("lin", "input"): "ddc423aeeb3e6490",
        ("rssom", "fixed"): "495a5e5dc3218805",
        ("rssom", "auto"): "10d94569b229c3b4",
    },
}

CONCAT_SOM = "a95da1f79eada20e"

# (class map, frame vote) -> report digest, per model kind.
EVAL = {
    "som": {
        ("identity", "false"): "f5a14c506fc74296",
        ("identity", "true"): "c3019557a1d0abf3",
        ("timit_macro", "false"): "b1c8409ed0b94d0b",
        ("timit_macro", "true"): "3089f685e504fc78",
    },
    "ssom": {
        ("identity", "false"): "593874def050a680",
        ("identity", "true"): "3b24574d1211105f",
        ("timit_macro", "false"): "1e20f5d99177b50a",
        ("timit_macro", "true"): "5f101fd865e1bc71",
    },
    "rssom": {
        ("identity", "false"): "6fa5722fcb0d953b",
        ("identity", "true"): "c3019557a1d0abf3",
        ("timit_macro", "false"): "d4745a43d441af7d",
        ("timit_macro", "true"): "3089f685e504fc78",
    },
    "lin": {
        ("identity", "false"): "3a6bd00bf5ca4cbc",
        ("identity", "true"): "593874def050a680",
        ("timit_macro", "false"): "e19197f3b1b9ac68",
        ("timit_macro", "true"): "1e20f5d99177b50a",
    },
}


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def trained_digest(model, log) -> str:
    rows = [(r.lr, r.radius, r.qe, r.skipped) for r in log.rows]
    return digest(model.lattice.weights.tobytes(), repr(rows).encode())


@pytest.fixture(scope="module")
def data():
    return synth_generate(2, 10, 6, 5, 2.0, True, 11)


def train_spiking_kind(kind, data, variant, radius, gate="default", rule=None):
    model_cls, train, extra = TRAINERS[kind]
    cfg, lateral = GATES[gate]
    model = model_cls(normalized_init(ROWS, COLS, data, SEED), *feature_ranges(data),
                      SsomConfig(**cfg), LateralKernel(excite_radius=RADII[radius], **lateral),
                      StdpRule(variant, **RULES.get(rule, {})), **extra)
    return model, train(data, model, Schedule.for_lattice(ROWS, COLS, epochs=EPOCHS), SEED)


def spiking_digests(kind, data, gate) -> dict:
    got, skipped = {}, 0
    for variant in VARIANTS:
        for radius in RADII:
            model, log = train_spiking_kind(kind, data, variant, radius, gate)
            got[variant, radius] = trained_digest(model, log)
            skipped += log.total_skipped
    if gate == "tight" and kind != "rssom":
        assert skipped > 0
    return got


@pytest.mark.parametrize("kind", ["ssom", "lin"])
def test_spiking_trainer_matrix(data, kind):
    assert spiking_digests(kind, data, "default") == pinned(SPIKING, SPIKING_LIBM)[kind]


@pytest.mark.parametrize("kind", ["ssom", "lin"])
def test_tight_gate_trainer_matrix(data, kind):
    assert spiking_digests(kind, data, "tight") == pinned(SPIKING_TIGHT, SPIKING_TIGHT_LIBM)[kind]


def rssom_matches(data, gate, want) -> None:
    for (variant, radius), d in spiking_digests("rssom", data, gate).items():
        assert d == want[radius], (variant, radius)


def test_rssom_ignores_variant(data):
    """RSSOM steps along y_i scaled by |window|, so the STDP variant does
    not reach its weights."""
    rssom_matches(data, "default", pinned(SPIKING, SPIKING_LIBM)["rssom"])


def test_rssom_tight_gates(data):
    rssom_matches(data, "tight", pinned(SPIKING_TIGHT, SPIKING_TIGHT_LIBM)["rssom"])


def test_concatenating_som(data):
    lattice = Lattice.random_init(ROWS, COLS, sample_vectors(data, True), SEED)
    model = SomModel(lattice, concat=True)
    log = train_som(data, model, Schedule.for_lattice(ROWS, COLS, epochs=EPOCHS), SEED)
    assert trained_digest(model, log) == CONCAT_SOM


PHONES = {"class0": "aa", "class1": "s", "class2": "m"}


@pytest.mark.parametrize("kind", ["som", "ssom", "rssom", "lin"])
def test_eval_reports_with_macro_classes(tmp_path, kind):
    samples = [replace(s, label=PHONES[s.label])
               for s in synth_generate(3, 8, 6, 5, 0.6, False, 21)]
    write_dataset_csv(samples[::4], tmp_path / "train.csv")
    write_dataset_csv([s for i, s in enumerate(samples) if i % 4], tmp_path / "test.csv")
    base = (f"run.model = {kind}\nrun.seed = {SEED}\nlattice.rows = {ROWS}\n"
            f"lattice.cols = {COLS}\nschedule.epochs = {EPOCHS}\n"
            f"data.train_csv = {tmp_path / 'train.csv'}\n"
            f"data.test_csv = {tmp_path / 'test.csv'}\n")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(base + f"run.outdir = {tmp_path / 'model'}\n")
    assert main(["train", "--config", str(cfg)]) == 0
    got = {}
    for class_map in ("identity", "timit_macro"):
        for vote in ("false", "true"):
            out = tmp_path / f"{class_map}-{vote}"
            cfg.write_text(base + f"run.outdir = {out}\neval.class_map = {class_map}\n"
                                  f"eval.frame_vote = {vote}\n")
            assert main(["eval", "--config", str(cfg),
                         "--model", str(tmp_path / "model" / "model.txt")]) == 0
            got[class_map, vote] = digest((out / "report.csv").read_bytes(),
                                          (out / "confusion.csv").read_bytes())
    assert got == EVAL[kind]


# kind -> (terminal, frame-vote) report digests of an eval whose test set
# spans more than two of the kind's own winner-table blocks in each mode and
# more than one block of the dataset-CSV reader (128 rows).  The SOM's blocks
# hold more samples than the spiking kinds' on the same map, so it gets a
# larger data set (SAMPLES_PER_CLASS).  Recorded under both exp sets, which
# agree.
EVAL_BLOCKS = {
    "som": ("ebccc1ecb02868cc", "7e4f563a45e7754f"),
    "ssom": ("66ba9642c8897596", "7670707d08eefa40"),
    "rssom": ("e849aa11f4b12b91", "fbdf8494594e5675"),
    "lin": ("55777ba223b32599", "db53d7816ae4ecfa"),
}
SAMPLES_PER_CLASS = {"som": 720, "ssom": 200, "rssom": 200, "lin": 200}


def eval_block_digests(tmp_path, kind) -> tuple:
    samples = synth_generate(3, SAMPLES_PER_CLASS[kind], 12, 5, 0.15, False, 31)
    train, test = samples[::7], [s for i, s in enumerate(samples) if i % 7]
    rows, cols = 6, 6
    write_dataset_csv(train, tmp_path / "train.csv")
    write_dataset_csv(test, tmp_path / "test.csv")
    base = (f"run.model = {kind}\nrun.seed = {SEED}\nlattice.rows = {rows}\n"
            f"lattice.cols = {cols}\nschedule.epochs = {EPOCHS}\n"
            f"data.train_csv = {tmp_path / 'train.csv'}\n"
            f"data.test_csv = {tmp_path / 'test.csv'}\n")
    cfg = tmp_path / "train.cfg"
    cfg.write_text(base + f"run.outdir = {tmp_path / 'model'}\n")
    assert main(["train", "--config", str(cfg)]) == 0
    model = load_model(tmp_path / "model" / "model.txt")
    got = []
    for vote in ("false", "true"):
        assert len(test) > 2 * model._block_rows(5, vote == "false") and len(test) > 128
        out = tmp_path / vote
        cfg.write_text(base + f"run.outdir = {out}\neval.frame_vote = {vote}\n")
        assert main(["eval", "--config", str(cfg),
                     "--model", str(tmp_path / "model" / "model.txt")]) == 0
        got.append(digest((out / "report.csv").read_bytes(),
                          (out / "confusion.csv").read_bytes()))
    return tuple(got)


@pytest.mark.parametrize("kind", ["som", "ssom", "rssom", "lin"])
def test_eval_reports_over_several_blocks(tmp_path, kind):
    assert eval_block_digests(tmp_path, kind) == EVAL_BLOCKS[kind]


def rule_digest(kind, data, variant, radius, rule) -> str:
    """The trained digest, or the epoch whose finiteness check stopped the
    run: only that epoch, not the non-finite weights' bits, is pinned."""
    try:
        return trained_digest(*train_spiking_kind(kind, data, variant, radius, rule=rule))
    except DivergenceError as e:
        return f"diverged at epoch {e.epoch}"


def rule_digests(data, rule) -> dict:
    """SSOM and LIN for every variant at the fixed radius, RSSOM at
    the fixed and auto radii, trained with the StdpRule keywords RULES[rule]."""
    got = {}
    for kind in ("ssom", "lin"):
        for variant in VARIANTS:
            got[kind, variant] = rule_digest(kind, data, variant, "fixed", rule)
    for radius in RADII:
        got["rssom", radius] = rule_digest("rssom", data, "input", radius, rule)
    return got


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("rule", list(RULES))
def test_rule_trainer_matrix(data, rule):
    assert rule_digests(data, rule) == pinned(SPIKING_RULES, SPIKING_RULES_LIBM)[rule]


def run_child(disabled, *tests):
    """Run the given pytest node ids in a child process whose numpy
    dispatches none of the CPU features ``disabled`` names and whose
    OpenBLAS runs its generic kernel (the one a host without AVX2 gets), so
    a BLAS call that moves pinned bytes fails on any host.  The settings
    reach the child only."""
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(pulsom.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *tests],
                           cwd=repo, env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
    return child.stdout


FEATURE_PIN = "tests/test_cli.py::TestFeaturesBytes::test_fixture_corpus_bytes_match_recorded_digests"


def test_digests_hold_without_avx512():
    """The digest tests and the feature-byte pins, rerun in a child process
    whose numpy dispatches no AVX-512 kernel, pass against the libm set:
    both sets stay checked on an AVX-512 host.  The MFCC tests ride along,
    so the DCT's batched bits are checked against its per-row bits there
    too, and so do the inference tests, so the recurrent maps' pruned
    search is checked against their step objects' bits on those kernels."""
    out = run_child("AVX512_SPR AVX512_ICL X86_V4",
                    "tests/test_trainer_digests.py", "tests/test_cli.py::TestModelBytes",
                    FEATURE_PIN, "tests/test_mfcc.py", "tests/test_inference.py",
                    "--deselect", "tests/test_trainer_digests.py::test_digests_hold_without_avx512",
                    "--deselect", "tests/test_trainer_digests.py::test_feature_pin_holds_without_avx2")
    assert "pinned digests: the libm exp set" in out


def test_feature_pin_holds_without_avx2():
    """The feature-byte pin and the MFCC tests, rerun in a child process
    whose numpy dispatches neither AVX-512 nor AVX2, pass against the libm
    set: no AVX2 kernel moves the feature bytes."""
    out = run_child("AVX512_SPR AVX512_ICL X86_V4 X86_V3", FEATURE_PIN, "tests/test_mfcc.py")
    assert "pinned digests: the libm exp set" in out
