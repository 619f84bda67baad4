"""A digest matrix over every trainer behaviour the config can select.

The spiking trainers are pinned for each STDP variant x ``flip_branches`` x
fixed/auto lateral excitation radius on a non-square 3x5 lattice, at the
default gates and at tight ones (``GATES``), the
concatenating SOM for its one path, and eval reports for the identity and
TIMIT macro class maps, each with terminal and per-frame votes.  A
refactor of the learning step that changes one bit of any of them fails
here.

Each digest is the first 16 hex digits of the SHA-256 of the trained
weights plus the epoch rows of the training log (lr, radius, qe and
skipped presentations), or of report.csv plus confusion.csv.  Weights, not
model.txt, so that configurations which train the same map share a digest
(model.txt also records the variant and flip).  They were recorded with
numpy 2.4 on x86-64 (same caveat as ``TestModelBytes``).
"""

import hashlib
from dataclasses import replace

import pytest

from pulsom.cli import main
from pulsom.coding import SsomConfig
from pulsom.corpus import synth_generate, write_dataset_csv
from pulsom.lin import train_lin
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel
from pulsom.rssom import train_rssom
from pulsom.som import Lattice, Schedule, sample_vectors, train_som
from pulsom.ssom import LateralKernel, feature_ranges, normalized_init, train_ssom
from pulsom.stdp import VARIANTS, StdpRule

ROWS, COLS, EPOCHS, SEED = 3, 5, 2, 3
RADII = {"fixed": 1.5, "auto": None}
# (SsomConfig, LateralKernel) keywords.  At the defaults no presentation is
# skipped and inhibition silences no unit; the tight reference time and
# inhibition gain make the SSOM and LIN skip presentations and make
# inhibition silence units on every map.
GATES = {"default": ({}, {}), "tight": ({"t_ref": 2.0}, {"inhibit_gain": 2.0})}
TRAINERS = {"ssom": (SsomModel, train_ssom, {}),
            "rssom": (RssomModel, train_rssom, {"alpha": 0.5}),
            "lin": (LinModel, train_lin, {"lam": 0.5})}

SPIKING = {
    "ssom": {
        ("additive", False, "fixed"): "5d64220b946cf2ed",
        ("additive", False, "auto"): "34e5f009c9ec181e",
        ("additive", True, "fixed"): "5d64220b946cf2ed",
        ("additive", True, "auto"): "34e5f009c9ec181e",
        ("panchev", False, "fixed"): "aeecf9276e3a6398",
        ("panchev", False, "auto"): "8ba641b1452fbe21",
        ("panchev", True, "fixed"): "61a42682d7a4824d",
        ("panchev", True, "auto"): "a133d686b01a971d",
        ("soula", False, "fixed"): "672f09461a43cb53",
        ("soula", False, "auto"): "20a0e4b475b86c79",
        ("soula", True, "fixed"): "672f09461a43cb53",
        ("soula", True, "auto"): "20a0e4b475b86c79",
        ("input", False, "fixed"): "22d67dad5d721a8a",
        ("input", False, "auto"): "983d1defb76c729b",
        ("input", True, "fixed"): "841ff01858f5368a",
        ("input", True, "auto"): "7a441629d76d2dec",
    },
    "lin": {
        ("additive", False, "fixed"): "753d91bdc8d4b2ca",
        ("additive", False, "auto"): "8ffb45371f934b5a",
        ("additive", True, "fixed"): "753d91bdc8d4b2ca",
        ("additive", True, "auto"): "8ffb45371f934b5a",
        ("panchev", False, "fixed"): "c6ac1b0224c0f695",
        ("panchev", False, "auto"): "3247e4b9620bf619",
        ("panchev", True, "fixed"): "b14411c75eead9dd",
        ("panchev", True, "auto"): "cb9767332c42fb43",
        ("soula", False, "fixed"): "db79bcd23ddbd712",
        ("soula", False, "auto"): "1720abbecf751d41",
        ("soula", True, "fixed"): "db79bcd23ddbd712",
        ("soula", True, "auto"): "1720abbecf751d41",
        ("input", False, "fixed"): "1bade2699ead08d7",
        ("input", False, "auto"): "a75fe12baabe4c79",
        ("input", True, "fixed"): "a561a77ee3141ff5",
        ("input", True, "auto"): "213cca45c36e29a1",
    },
    "rssom": {"fixed": "ea03ad0258cfde20", "auto": "c68fb1bb4c3d0e0c"},
}

SPIKING_TIGHT = {
    "ssom": {
        ("additive", False, "fixed"): "a81c268ccc1ecf37",
        ("additive", False, "auto"): "f96f5b49d871cfd4",
        ("additive", True, "fixed"): "a81c268ccc1ecf37",
        ("additive", True, "auto"): "f96f5b49d871cfd4",
        ("panchev", False, "fixed"): "f7f3834c6cdaff9b",
        ("panchev", False, "auto"): "68166ffcfcc5ae25",
        ("panchev", True, "fixed"): "f2eb6929443ea3a9",
        ("panchev", True, "auto"): "7b796f8ba077f67f",
        ("soula", False, "fixed"): "8538d7853c71c96c",
        ("soula", False, "auto"): "2e005fa65310cc5d",
        ("soula", True, "fixed"): "8538d7853c71c96c",
        ("soula", True, "auto"): "2e005fa65310cc5d",
        ("input", False, "fixed"): "7c8b873874d9bfae",
        ("input", False, "auto"): "5097369c5371ca1b",
        ("input", True, "fixed"): "42141205cb243da0",
        ("input", True, "auto"): "e483b189b3c736b6",
    },
    "lin": {
        ("additive", False, "fixed"): "3c6186b04e031853",
        ("additive", False, "auto"): "64b3dcefcd3ea5a8",
        ("additive", True, "fixed"): "3c6186b04e031853",
        ("additive", True, "auto"): "64b3dcefcd3ea5a8",
        ("panchev", False, "fixed"): "dd2da95eb775c8d9",
        ("panchev", False, "auto"): "08bccc7d113e162c",
        ("panchev", True, "fixed"): "ead089f6d30f8d31",
        ("panchev", True, "auto"): "669ece40a17d56d4",
        ("soula", False, "fixed"): "1f57f70364f3a585",
        ("soula", False, "auto"): "dd274df6d4a1847c",
        ("soula", True, "fixed"): "1f57f70364f3a585",
        ("soula", True, "auto"): "dd274df6d4a1847c",
        ("input", False, "fixed"): "3e4014ff953657c8",
        ("input", False, "auto"): "27aa15e92221c6ec",
        ("input", True, "fixed"): "0ff738021b9a4cca",
        ("input", True, "auto"): "f6ded755607c109e",
    },
    "rssom": {"fixed": "855df4f8c7750529", "auto": "beacca0a5b829722"},
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


def train_spiking_kind(kind, data, variant, flip, radius, gate="default"):
    model_cls, train, extra = TRAINERS[kind]
    cfg, lateral = GATES[gate]
    model = model_cls(normalized_init(ROWS, COLS, data, SEED), *feature_ranges(data),
                      SsomConfig(**cfg), LateralKernel(excite_radius=RADII[radius], **lateral),
                      StdpRule(variant, flip_branches=flip), **extra)
    return model, train(data, model, Schedule.for_lattice(ROWS, COLS, epochs=EPOCHS), SEED)


def spiking_digests(kind, data, gate) -> dict:
    got, skipped = {}, 0
    for variant in VARIANTS:
        for flip in (False, True):
            for radius in RADII:
                model, log = train_spiking_kind(kind, data, variant, flip, radius, gate)
                got[variant, flip, radius] = trained_digest(model, log)
                skipped += log.total_skipped
    if gate == "tight" and kind != "rssom":
        assert skipped > 0
    return got


@pytest.mark.parametrize("kind", ["ssom", "lin"])
def test_spiking_trainer_matrix(data, kind):
    assert spiking_digests(kind, data, "default") == SPIKING[kind]


@pytest.mark.parametrize("kind", ["ssom", "lin"])
def test_tight_gate_trainer_matrix(data, kind):
    assert spiking_digests(kind, data, "tight") == SPIKING_TIGHT[kind]


def rssom_matches(data, gate, want) -> None:
    for (variant, flip, radius), d in spiking_digests("rssom", data, gate).items():
        assert d == want[radius], (variant, flip, radius)


def test_rssom_ignores_variant_and_flip(data):
    """RSSOM steps along y_i scaled by |window|, so neither the STDP
    variant nor the branch flip reaches its weights."""
    rssom_matches(data, "default", SPIKING["rssom"])


def test_rssom_tight_gates(data):
    rssom_matches(data, "tight", SPIKING_TIGHT["rssom"])


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
