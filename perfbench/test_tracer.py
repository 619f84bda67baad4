"""Tests of the benchmark's tracer and metric plumbing.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from tracer import Tracer


def ticking_clock():
    """A clock that advances by 1.0 on every read."""
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


@pytest.fixture
def fakepkg(monkeypatch):
    """A package whose module `b` imported `f` from module `a` by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class Model:
        @staticmethod
        def load(x):
            return f"loaded {x}"

        def step(self, x):
            return b.f(x)

    a.f, a.Model = f, Model
    b.f = f
    b.g = lambda x: b.f(x) * 2
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return types.SimpleNamespace(a=a, b=b, f=f, Model=Model)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=ticking_clock())
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda with_leaf: leaf() if with_leaf else None)
    outer = tracer.wrap("outer", lambda: (inner(True), inner(False)))
    outer()
    # Clock reads: outer 0, inner 1, leaf 2..3, inner ..4, inner 5..6, outer ..7.
    s = tracer.summary()
    assert s["outer"] == {"calls": 1, "failed": 0, "total_s": 7.0, "self_s": 3.0}
    assert s["inner"] == {"calls": 2, "failed": 0, "total_s": 4.0, "self_s": 3.0}
    assert s["leaf"] == {"calls": 1, "failed": 0, "total_s": 1.0, "self_s": 1.0}
    assert tracer.coverage("outer") == [pytest.approx(4.0 / 7.0)]
    assert sum(v["self_s"] for v in s.values()) == s["outer"]["total_s"]


def test_failed_call_is_counted_and_still_closes_its_span():
    tracer = Tracer(clock=ticking_clock())

    def boom():
        raise ValueError("no frames")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.summary()["boom"] == {"calls": 1, "failed": 1, "total_s": 1.0, "self_s": 1.0}
    assert tracer._stack == []


def test_install_rebinds_every_import_and_uninstall_restores(fakepkg):
    tracer = Tracer()
    tracer.install("fakepkg", ["a.f", "a.Model.load", "a.Model.step"])
    assert tracer.missing == []
    assert fakepkg.b.g(1) == 4
    assert fakepkg.a.Model.load("m") == "loaded m"
    assert fakepkg.a.Model().step(2) == 3
    calls = {name: v["calls"] for name, v in tracer.summary().items()}
    assert calls == {"a.f": 2, "a.Model.load": 1, "a.Model.step": 1}
    tracer.uninstall()
    assert fakepkg.a.f is fakepkg.f and fakepkg.b.f is fakepkg.f
    assert isinstance(vars(fakepkg.Model)["load"], staticmethod)


def test_layers_that_no_longer_exist_are_missing(fakepkg):
    tracer = Tracer()
    tracer.install("fakepkg", ["a.f", "a.gone", "a.Model.gone", "a.Gone.step", "nomodule.f"])
    assert tracer.missing == ["a.gone", "a.Model.gone", "a.Gone.step", "nomodule.f"]


def test_missing_layer_metrics_are_reported_missing_never_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import pulsom.cli  # noqa: F401  (loads every module the layers live in)
    import pulsom.corpus
    monkeypatch.delattr(pulsom.corpus, "middle_frames")
    tracer = Tracer()
    tracer.install("pulsom", layers.LAYERS, layers.OBSERVERS)
    tracer.uninstall()
    assert tracer.missing == ["corpus.middle_frames"]
    values = layers.layer_values(tracer)
    for suffix in ("calls", "self_s", "us_per_call"):
        assert values[f"corpus.middle_frames.{suffix}"] is None
    assert values["corpus.skipped_segments_ratio"] is None
    # A layer that exists but was never called reads 0 calls.
    assert values["mfcc.mfcc_pipeline.calls"] == 0

    metrics = layers.layer_metrics([values, values], overhead=0.1)
    assert metrics["corpus.middle_frames.calls"] == {
        "value": None, "unit": "count", "status": "missing"}
    assert metrics["trace.overhead_ratio"] == {"value": 0.1, "unit": "ratio"}


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.per_layer_spec()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END


def test_times_scale_to_the_reference_host_speed():
    ref = run.KERNEL_REF_S
    rep = {"setup_s": 0.6, "kernel_s": [ref, ref, 9 * ref, 2 * ref, 2 * ref],
           "steps": [{"seconds": 1.0} for _ in range(4)]}
    run.scale_to_reference(rep)
    # Factors: median of the kernel times around each step and the
    # repetition's median (2 * ref); the 9 * ref outlier is outvoted.
    assert rep["scaled_steps_s"] == pytest.approx([1.0, 0.5, 0.5, 0.5])
    assert rep["scaled_setup_s"] == pytest.approx(0.6)
    assert rep["scaled_wall_s"] == pytest.approx(2.5)
    assert rep["wall_s"] == 4.0
    assert rep["speed"] == pytest.approx(0.5)

    values = {name: 2.0 for name, _, _ in layers.per_layer_spec()}
    values["mfcc.mfcc_pipeline.calls"] = None
    out = layers.scaled(values, 0.5)
    assert out["som.find_bmu.self_s"] == 1.0
    assert out["som.find_bmu.us_per_call"] == 1.0
    assert out["corpus.read_dataset_csv.rows_per_s"] == 4.0
    assert out["som.find_bmu.calls"] == 2.0
    assert out["eval.rejected_ratio"] == 2.0
    assert out["mfcc.mfcc_pipeline.calls"] is None
