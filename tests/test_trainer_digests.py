"""A digest matrix over every trainer behaviour the config can select.

The spiking trainers are pinned for each STDP variant x ``flip_branches`` x
fixed/auto lateral excitation radius on a non-square 3x5 lattice, at the
default gates and at tight ones (``GATES``), off the default STDP window
and weight ceiling (``RULES``), the concatenating SOM for its one path, and eval reports for the identity and
TIMIT macro class maps, each with terminal and per-frame votes.  A
refactor of the learning step that changes one bit of any of them fails
here.

Each digest is the first 16 hex digits of the SHA-256 of the trained
weights plus the epoch rows of the training log (lr, radius, qe and
skipped presentations), or of report.csv plus confusion.csv.  Weights, not
model.txt, so that configurations which train the same map share a digest
(model.txt also records the variant and flip).  Each table has two sets,
recorded with numpy 2.4 on x86-64: one where numpy's exp runs its AVX-512
kernel, and one (``*_LIBM``) where it calls glibc's libm, as it does on a
host without AVX-512; ``conftest.pinned`` picks this host's.  The
concatenating SOM and the reports come out the same under both, so they
have one set.
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
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel
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

SPIKING_LIBM = {
    "ssom": {
        ("additive", False, "fixed"): "50fee26f62707992",
        ("additive", False, "auto"): "d29bc233317f1de0",
        ("additive", True, "fixed"): "50fee26f62707992",
        ("additive", True, "auto"): "d29bc233317f1de0",
        ("panchev", False, "fixed"): "6c91544e9168be48",
        ("panchev", False, "auto"): "0da64228e355683d",
        ("panchev", True, "fixed"): "81ebd13a2d171c47",
        ("panchev", True, "auto"): "cda5227055b3f4d0",
        ("soula", False, "fixed"): "3c0c08ea48a0e179",
        ("soula", False, "auto"): "386f9507a0d45625",
        ("soula", True, "fixed"): "3c0c08ea48a0e179",
        ("soula", True, "auto"): "386f9507a0d45625",
        ("input", False, "fixed"): "3e836a38e222e929",
        ("input", False, "auto"): "983d1defb76c729b",
        ("input", True, "fixed"): "e55767a87bca1e43",
        ("input", True, "auto"): "ce723dd9916dc448",
    },
    "lin": {
        ("additive", False, "fixed"): "d9d8843b142430b0",
        ("additive", False, "auto"): "24552c5f1fa20ed4",
        ("additive", True, "fixed"): "d9d8843b142430b0",
        ("additive", True, "auto"): "24552c5f1fa20ed4",
        ("panchev", False, "fixed"): "756afab7ba637091",
        ("panchev", False, "auto"): "f54d917a07d555c0",
        ("panchev", True, "fixed"): "c2b18cdcc1b626e6",
        ("panchev", True, "auto"): "d31845e96acec198",
        ("soula", False, "fixed"): "3e6410bc9fb4c724",
        ("soula", False, "auto"): "70bb668a9bf12f98",
        ("soula", True, "fixed"): "3e6410bc9fb4c724",
        ("soula", True, "auto"): "70bb668a9bf12f98",
        ("input", False, "fixed"): "1bade2699ead08d7",
        ("input", False, "auto"): "0f553c1939f92578",
        ("input", True, "fixed"): "ddc423aeeb3e6490",
        ("input", True, "auto"): "ba2d673bebd31a57",
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

SPIKING_TIGHT_LIBM = {
    "ssom": {
        ("additive", False, "fixed"): "a537698364744dd1",
        ("additive", False, "auto"): "e0ca04e536e8771a",
        ("additive", True, "fixed"): "a537698364744dd1",
        ("additive", True, "auto"): "e0ca04e536e8771a",
        ("panchev", False, "fixed"): "5d33db30b4a4f4f9",
        ("panchev", False, "auto"): "126569e21b22d95e",
        ("panchev", True, "fixed"): "f2eb6929443ea3a9",
        ("panchev", True, "auto"): "5ac8a9c251de6158",
        ("soula", False, "fixed"): "fa10814ed6da7458",
        ("soula", False, "auto"): "c0ce9a25b4da2d42",
        ("soula", True, "fixed"): "fa10814ed6da7458",
        ("soula", True, "auto"): "c0ce9a25b4da2d42",
        ("input", False, "fixed"): "7c8b873874d9bfae",
        ("input", False, "auto"): "90a9f5fb8cdbee06",
        ("input", True, "fixed"): "66af33d2b91fc253",
        ("input", True, "auto"): "e483b189b3c736b6",
    },
    "lin": {
        ("additive", False, "fixed"): "e725db0665e3b3b9",
        ("additive", False, "auto"): "d783cd8ab4737ef4",
        ("additive", True, "fixed"): "e725db0665e3b3b9",
        ("additive", True, "auto"): "d783cd8ab4737ef4",
        ("panchev", False, "fixed"): "1fdb969c4e13051f",
        ("panchev", False, "auto"): "fa47989b41713495",
        ("panchev", True, "fixed"): "b3ffcd604bacc7dd",
        ("panchev", True, "auto"): "5a89dc2e5f8dff0b",
        ("soula", False, "fixed"): "cacc4a0802ec92f0",
        ("soula", False, "auto"): "cc20a8220121b473",
        ("soula", True, "fixed"): "cacc4a0802ec92f0",
        ("soula", True, "auto"): "cc20a8220121b473",
        ("input", False, "fixed"): "3e4014ff953657c8",
        ("input", False, "auto"): "e62a62fea3a0c3cd",
        ("input", True, "fixed"): "907fe3654be7fffb",
        ("input", True, "auto"): "7c80650ad8f3261d",
    },
    "rssom": {"fixed": "ba07bf1c8ba3fd20", "auto": "beacca0a5b829722"},
}

# RULES entry -> digests of SSOM and LIN (kind, variant, flip) at the fixed
# radius and RSSOM (kind, radius).  With w_max = 0.8 the soula rule's
# fixed point lies below the initial weights and the SSOM diverges; with
# w_max = 1.5 it drives SSOM and LIN weights above 1, where the map's match
# clamp and the stored weights differ.
SPIKING_RULES = {
    "asymmetric": {
        ("ssom", "additive", False): "7cf4db72ab7b0208",
        ("ssom", "additive", True): "7cf4db72ab7b0208",
        ("ssom", "panchev", False): "ede1331c4f578a71",
        ("ssom", "panchev", True): "6b59c8498b625d47",
        ("ssom", "soula", False): "03253b196f362547",
        ("ssom", "soula", True): "03253b196f362547",
        ("ssom", "input", False): "42792975821a2190",
        ("ssom", "input", True): "42fbac65e2f8d58a",
        ("lin", "additive", False): "a14e583c3d8bf356",
        ("lin", "additive", True): "a14e583c3d8bf356",
        ("lin", "panchev", False): "95a77b2ab56384fd",
        ("lin", "panchev", True): "fbea375973a35594",
        ("lin", "soula", False): "ecdcc87d5a9e27ee",
        ("lin", "soula", True): "ecdcc87d5a9e27ee",
        ("lin", "input", False): "aa503dc678672be5",
        ("lin", "input", True): "c2e92ecba45a4e37",
        ("rssom", "fixed"): "94d337b8512b0b6e",
        ("rssom", "auto"): "a2d6d359abb9220a",
    },
    "w_max_0.8": {
        ("ssom", "additive", False): "f42ddb62ff7f722c",
        ("ssom", "additive", True): "f42ddb62ff7f722c",
        ("ssom", "panchev", False): "aeecf9276e3a6398",
        ("ssom", "panchev", True): "61a42682d7a4824d",
        ("ssom", "soula", False): "diverged at epoch 0",
        ("ssom", "soula", True): "diverged at epoch 0",
        ("ssom", "input", False): "ef91c558498ea866",
        ("ssom", "input", True): "eb324e5d126fba03",
        ("lin", "additive", False): "7ce8e83a96e2359e",
        ("lin", "additive", True): "7ce8e83a96e2359e",
        ("lin", "panchev", False): "c6ac1b0224c0f695",
        ("lin", "panchev", True): "b14411c75eead9dd",
        ("lin", "soula", False): "17f98214ffc0d59b",
        ("lin", "soula", True): "17f98214ffc0d59b",
        ("lin", "input", False): "481b1288ea0d977a",
        ("lin", "input", True): "3170d03a7186afd1",
        ("rssom", "fixed"): "5a6b30cb2a079615",
        ("rssom", "auto"): "42740f2480814d7a",
    },
    "w_max_1.5": {
        ("ssom", "additive", False): "55e72475561d7a51",
        ("ssom", "additive", True): "55e72475561d7a51",
        ("ssom", "panchev", False): "aeecf9276e3a6398",
        ("ssom", "panchev", True): "61a42682d7a4824d",
        ("ssom", "soula", False): "9f6e64b57d9fbfc8",
        ("ssom", "soula", True): "9f6e64b57d9fbfc8",
        ("ssom", "input", False): "049801af8274ce02",
        ("ssom", "input", True): "841ff01858f5368a",
        ("lin", "additive", False): "a45f38b429703388",
        ("lin", "additive", True): "a45f38b429703388",
        ("lin", "panchev", False): "c6ac1b0224c0f695",
        ("lin", "panchev", True): "b14411c75eead9dd",
        ("lin", "soula", False): "b4ffb370323490bc",
        ("lin", "soula", True): "b4ffb370323490bc",
        ("lin", "input", False): "833cedb37c30b6e5",
        ("lin", "input", True): "a561a77ee3141ff5",
        ("rssom", "fixed"): "ea03ad0258cfde20",
        ("rssom", "auto"): "c68fb1bb4c3d0e0c",
    },
}

SPIKING_RULES_LIBM = {
    "asymmetric": {
        ("ssom", "additive", False): "b06170306446ad34",
        ("ssom", "additive", True): "b06170306446ad34",
        ("ssom", "panchev", False): "0bd87089c6538aa6",
        ("ssom", "panchev", True): "3971b02504444540",
        ("ssom", "soula", False): "116f5cd4261dacd0",
        ("ssom", "soula", True): "116f5cd4261dacd0",
        ("ssom", "input", False): "42792975821a2190",
        ("ssom", "input", True): "38229a8a7ac59370",
        ("lin", "additive", False): "501678a5b9b9a91f",
        ("lin", "additive", True): "501678a5b9b9a91f",
        ("lin", "panchev", False): "c0b2e4ed39b0ce6d",
        ("lin", "panchev", True): "0b7a7d374a96e607",
        ("lin", "soula", False): "fbc9c7a8b128663d",
        ("lin", "soula", True): "fbc9c7a8b128663d",
        ("lin", "input", False): "aa503dc678672be5",
        ("lin", "input", True): "e71c9fbe89b6706c",
        ("rssom", "fixed"): "94d337b8512b0b6e",
        ("rssom", "auto"): "00fb5cb081857fb4",
    },
    "w_max_0.8": {
        ("ssom", "additive", False): "b07d2fee086725f2",
        ("ssom", "additive", True): "b07d2fee086725f2",
        ("ssom", "panchev", False): "6c91544e9168be48",
        ("ssom", "panchev", True): "81ebd13a2d171c47",
        ("ssom", "soula", False): "diverged at epoch 0",
        ("ssom", "soula", True): "diverged at epoch 0",
        ("ssom", "input", False): "c5bb371b61eff268",
        ("ssom", "input", True): "a9b81d67f05d0147",
        ("lin", "additive", False): "7217b026ad1b7f3e",
        ("lin", "additive", True): "7217b026ad1b7f3e",
        ("lin", "panchev", False): "756afab7ba637091",
        ("lin", "panchev", True): "c2b18cdcc1b626e6",
        ("lin", "soula", False): "b0e90125929abe8c",
        ("lin", "soula", True): "b0e90125929abe8c",
        ("lin", "input", False): "481b1288ea0d977a",
        ("lin", "input", True): "4957f092e830b61c",
        ("rssom", "fixed"): "bd7670f1854af45b",
        ("rssom", "auto"): "ca73283181157cf5",
    },
    "w_max_1.5": {
        ("ssom", "additive", False): "2fdf0c8533635eaa",
        ("ssom", "additive", True): "2fdf0c8533635eaa",
        ("ssom", "panchev", False): "6c91544e9168be48",
        ("ssom", "panchev", True): "81ebd13a2d171c47",
        ("ssom", "soula", False): "a75605f81695f642",
        ("ssom", "soula", True): "a75605f81695f642",
        ("ssom", "input", False): "67a5e754ecf4727f",
        ("ssom", "input", True): "e55767a87bca1e43",
        ("lin", "additive", False): "248a3a0b5c2f11f7",
        ("lin", "additive", True): "248a3a0b5c2f11f7",
        ("lin", "panchev", False): "756afab7ba637091",
        ("lin", "panchev", True): "c2b18cdcc1b626e6",
        ("lin", "soula", False): "bd6be1598dd944c1",
        ("lin", "soula", True): "bd6be1598dd944c1",
        ("lin", "input", False): "90e684d4e74454a5",
        ("lin", "input", True): "ddc423aeeb3e6490",
        ("rssom", "fixed"): "ea03ad0258cfde20",
        ("rssom", "auto"): "c68fb1bb4c3d0e0c",
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


def train_spiking_kind(kind, data, variant, flip, radius, gate="default", rule=None):
    model_cls, train, extra = TRAINERS[kind]
    cfg, lateral = GATES[gate]
    model = model_cls(normalized_init(ROWS, COLS, data, SEED), *feature_ranges(data),
                      SsomConfig(**cfg), LateralKernel(excite_radius=RADII[radius], **lateral),
                      StdpRule(variant, flip_branches=flip, **RULES.get(rule, {})), **extra)
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
    assert spiking_digests(kind, data, "default") == pinned(SPIKING, SPIKING_LIBM)[kind]


@pytest.mark.parametrize("kind", ["ssom", "lin"])
def test_tight_gate_trainer_matrix(data, kind):
    assert spiking_digests(kind, data, "tight") == pinned(SPIKING_TIGHT, SPIKING_TIGHT_LIBM)[kind]


def rssom_matches(data, gate, want) -> None:
    for (variant, flip, radius), d in spiking_digests("rssom", data, gate).items():
        assert d == want[radius], (variant, flip, radius)


def test_rssom_ignores_variant_and_flip(data):
    """RSSOM steps along y_i scaled by |window|, so neither the STDP
    variant nor the branch flip reaches its weights."""
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


def rule_digest(kind, data, variant, flip, radius, rule) -> str:
    """The trained digest, or the epoch whose finiteness check stopped the
    run: only that epoch, not the non-finite weights' bits, is pinned."""
    try:
        return trained_digest(*train_spiking_kind(kind, data, variant, flip, radius, rule=rule))
    except DivergenceError as e:
        return f"diverged at epoch {e.epoch}"


def rule_digests(data, rule) -> dict:
    """SSOM and LIN for every variant x flip at the fixed radius, RSSOM at
    the fixed and auto radii, trained with the StdpRule keywords RULES[rule]."""
    got = {}
    for kind in ("ssom", "lin"):
        for variant in VARIANTS:
            for flip in (False, True):
                got[kind, variant, flip] = rule_digest(kind, data, variant, flip, "fixed", rule)
    for radius in RADII:
        got["rssom", radius] = rule_digest("rssom", data, "input", True, radius, rule)
    return got


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("rule", list(RULES))
def test_rule_trainer_matrix(data, rule):
    assert rule_digests(data, rule) == pinned(SPIKING_RULES, SPIKING_RULES_LIBM)[rule]


def test_digests_hold_without_avx512():
    """The digest tests, rerun in a child process whose numpy dispatches no
    AVX-512 kernel, pass against the libm set: both sets stay checked on
    an AVX-512 host.  The setting reaches the child only."""
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(pulsom.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "tests/test_trainer_digests.py", "tests/test_cli.py::TestModelBytes",
         "--deselect", "tests/test_trainer_digests.py::test_digests_hold_without_avx512"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
    assert "pinned digests: the libm exp set" in child.stdout
