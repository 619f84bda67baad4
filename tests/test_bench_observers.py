"""The benchmark's observers read real pulsom results.

A traced benchmark run (``perfbench/run.py``) hands each observer in
``perfbench/layers.py`` the arguments and result of the call it watches,
and an observer that raises turns its metrics into "missing".  Here each
observer reads one real result, so an API change that would break the
benchmark's counters fails these tests instead.

    PYTHONPATH=src python -m pytest tests/test_bench_observers.py
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pulsom.coding import SsomConfig
from pulsom.corpus import read_dataset_csv, synth_generate, write_dataset_csv
from pulsom.evaluate import REJECTED, calibrate, classify, report
from pulsom.lin import train_lin
from pulsom.mfcc import AudioBuffer, mfcc_pipeline
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel
from pulsom.rssom import train_rssom
from pulsom.som import Schedule, train_som
from pulsom.ssom import LateralKernel, feature_ranges, normalized_init, train_ssom
from pulsom.stdp import StdpRule

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import layers  # noqa: E402

EPOCHS = 2
TRAINERS = {
    "som.train_som": (train_som, lambda lat, lo, hi: SomModel(lat)),
    "ssom.train_ssom": (train_ssom, lambda lat, lo, hi: SsomModel(lat, lo, hi)),
    "rssom.train_rssom": (train_rssom, lambda lat, lo, hi: RssomModel(lat, lo, hi)),
    "lin.train_lin": (train_lin, lambda lat, lo, hi: LinModel(lat, lo, hi)),
}


@pytest.fixture(scope="module")
def data():
    return synth_generate(3, 4, dim=4, frames=5, seed=7)


def observe(name, args, result):
    counters = Counter()
    layers.OBSERVERS[name](counters, args, {}, result)
    return counters


def test_every_observer_watches_a_traced_layer_and_is_fed_here():
    assert set(layers.OBSERVERS) <= set(layers.LAYERS)
    assert set(layers.OBSERVERS) == {"corpus.read_dataset_csv", "mfcc.mfcc_pipeline",
                                     "evaluate.calibrate", "evaluate.report", *TRAINERS}


def test_dataset_rows(tmp_path, data):
    path = tmp_path / "d.csv"
    write_dataset_csv(data, path)
    got = observe("corpus.read_dataset_csv", (path,), read_dataset_csv(path))
    assert got == {"dataset_rows": len(data)}


def test_audio_seconds():
    buf = AudioBuffer(np.random.default_rng(0).uniform(-0.5, 0.5, 4000), 8000)
    got = observe("mfcc.mfcc_pipeline", (buf,), mfcc_pipeline(buf))
    assert got == {"audio_s": 0.5}


def test_unlabeled_units_and_rejected_samples(data):
    # a tight reference time silences some frames, and a map larger than
    # the calibration set leaves units unlabeled
    lo, hi = feature_ranges(data)
    lat = normalized_init(5, 5, data, seed=1)
    model = SsomModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=0.8),
                      LateralKernel(), StdpRule())
    labels = calibrate(model, data[:3])
    got = observe("evaluate.calibrate", (model, data[:3]), labels)
    unlabeled = sum(lbl is None for lbl in labels.labels)
    assert got == {"units": 25, "unlabeled_units": unlabeled}
    assert 0 < unlabeled < 25

    got = observe("evaluate.report", (model, labels, data), report(model, labels, data))
    rejected = sum(classify(model, labels, s) == REJECTED for s in data)
    assert got == {"eval_samples": len(data), "rejected": rejected}
    assert 0 < rejected < len(data)


@pytest.mark.parametrize("name", list(TRAINERS))
def test_presentations_and_skips(data, name):
    train, build = TRAINERS[name]
    lo, hi = feature_ranges(data)
    model = build(normalized_init(3, 3, data, seed=2), lo, hi)
    args = (data, model, Schedule(epochs=EPOCHS), 0)
    log = train(*args)
    got = observe(name, args, log)
    frames = sum(len(s.frames) for s in data)
    assert got["presentations"] == frames * EPOCHS
    assert got["skipped"] == log.total_skipped
