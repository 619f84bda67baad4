"""The pulsom layers the traced run times, and the per-layer metrics made
from their spans.

Each entry of LAYERS is `module.function` or `module.Class.method` inside
the pulsom package.  For each one the traced run reports `.calls`,
`.self_s` (seconds inside the function minus its traced children) and
`.us_per_call` (self time per call, in microseconds; 0 when never called).
"""

from __future__ import annotations

import statistics

import numpy as np

LAYERS = [
    # setup and command roots
    "config.RunConfig.load",
    "cli.cmd_features",
    "cli.cmd_train",
    "cli.cmd_eval",
    # input coding
    "coding.encode_latency",
    "coding.normalize",
    # the shared winner step (training and inference)
    "ssom.compute_firing_times",
    "rssom.update_difference",
    "rssom.difference_record",
    "lin.update_potential",
    "lin.potential_record",
    # learning (training only)
    "ssom.apply_lateral",
    "ssom.ssom_learn",
    "rssom.rssom_learn",
    "stdp.apply_rule_array",
    # plain SOM and the training loops
    "som.find_bmu",
    "som.som_update",
    "som.quantization_error",
    "som.train_som",
    "ssom.train_ssom",
    "rssom.train_rssom",
    "lin.train_lin",
    # inference and evaluation
    "models.SomModel.frame_winners",
    "models.SsomModel.frame_winners",
    "models.RssomModel.frame_winners",
    "models.LinModel.frame_winners",
    "evaluate.calibrate",
    "evaluate.classify",
    "evaluate.report",
    # files
    "corpus.read_dataset_csv",
    "corpus.write_dataset_csv",
    "models.save_model",
    "models.load_model",
    # speech front-end and corpus ingestion
    "mfcc.mfcc_pipeline",
    "mfcc.write_frames_csv",
    "corpus.read_sphere",
    "corpus.read_alignment",
    "corpus.middle_frames",
]

TRAINERS = ["som.train_som", "ssom.train_ssom", "rssom.train_rssom", "lin.train_lin"]


def _rows(c, args, kwargs, result):
    c["dataset_rows"] += len(result)


def _audio(c, args, kwargs, result):
    buf = args[0]
    c["audio_s"] += buf.samples.shape[0] / buf.sample_rate


def _labels(c, args, kwargs, result):
    c["units"] += len(result.labels)
    c["unlabeled_units"] += sum(label is None for label in result.labels)


def _rejected(c, args, kwargs, result):
    confusion = result[1]
    c["eval_samples"] += sum(confusion.values())
    c["rejected"] += sum(n for (_, pred), n in confusion.items() if pred == "rejected")


def _presentations(c, args, kwargs, result):
    data = args[0]
    frames = data.shape[0] if isinstance(data, np.ndarray) else sum(len(s.frames) for s in data)
    c["presentations"] += frames * len(result.rows)
    c["skipped"] += result.total_skipped


OBSERVERS = {
    "corpus.read_dataset_csv": _rows,
    "mfcc.mfcc_pipeline": _audio,
    "evaluate.calibrate": _labels,
    "evaluate.report": _rejected,
    **{name: _presentations for name in TRAINERS},
}

# name -> (unit, better)
DERIVED = {
    "corpus.read_dataset_csv.rows_per_s": ("1/s", "higher"),
    "mfcc.mfcc_pipeline.ms_per_audio_s": ("ms/s", "lower"),
    "corpus.skipped_segments_ratio": ("ratio", "lower"),
    "eval.rejected_ratio": ("ratio", "lower"),
    "eval.unlabeled_units_ratio": ("ratio", "lower"),
    "train.learn_ratio": ("ratio", "higher"),
    "train.child_coverage_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.us_per_call", "us", "lower")]
    return spec + [(name, unit, better) for name, (unit, better) in DERIVED.items()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer) -> dict:
    """Per-layer metric values of one traced run; None marks a metric whose
    layer is missing.  trace.overhead_ratio is left to the caller."""
    summary = tracer.summary()
    gone = (set(LAYERS) - set(summary)) | tracer.broken_observers
    values = {}
    for layer in LAYERS:
        s = summary.get(layer)
        if s is None:
            values.update({f"{layer}.{k}": None for k in ("calls", "self_s", "us_per_call")})
            continue
        values[f"{layer}.calls"] = s["calls"]
        values[f"{layer}.self_s"] = s["self_s"]
        values[f"{layer}.us_per_call"] = 1e6 * _ratio(s["self_s"], s["calls"])

    def derived(needs, compute):
        return None if any(n in gone for n in needs) else compute()

    c = tracer.counters
    values["corpus.read_dataset_csv.rows_per_s"] = derived(
        ["corpus.read_dataset_csv"],
        lambda: _ratio(c["dataset_rows"], summary["corpus.read_dataset_csv"]["total_s"]))
    values["mfcc.mfcc_pipeline.ms_per_audio_s"] = derived(
        ["mfcc.mfcc_pipeline"],
        lambda: 1e3 * _ratio(summary["mfcc.mfcc_pipeline"]["total_s"], c["audio_s"]))
    values["corpus.skipped_segments_ratio"] = derived(
        ["corpus.middle_frames"],
        lambda: _ratio(summary["corpus.middle_frames"]["failed"],
                       summary["corpus.middle_frames"]["calls"]))
    values["eval.rejected_ratio"] = derived(
        ["evaluate.report"], lambda: _ratio(c["rejected"], c["eval_samples"]))
    values["eval.unlabeled_units_ratio"] = derived(
        ["evaluate.calibrate"], lambda: _ratio(c["unlabeled_units"], c["units"]))
    values["train.learn_ratio"] = derived(
        TRAINERS, lambda: _ratio(c["presentations"] - c["skipped"], c["presentations"]))
    values["train.child_coverage_ratio"] = derived(
        TRAINERS, lambda: min(sum((tracer.coverage(t) for t in TRAINERS), []), default=0.0))
    return values


def scaled(values: dict, speed: float) -> dict:
    """Per-layer values with every time scaled by the host-speed factor."""
    out = dict(values)
    for name, unit, _ in per_layer_spec():
        if out.get(name) is None:
            continue
        if unit in ("s", "us", "ms/s"):
            out[name] *= speed
        elif unit == "1/s":
            out[name] /= speed
    return out


def layer_metrics(traced_values: list[dict], overhead: float | None) -> dict:
    """The per-layer metrics of a run: each the median over its traced
    repetitions, or marked missing when any repetition lacks it."""
    metrics = {}
    for name, unit, _ in per_layer_spec():
        if name == "trace.overhead_ratio":
            values = [overhead]
        else:
            values = [v[name] for v in traced_values]
        if not values or any(v is None for v in values):
            metrics[name] = {"value": None, "unit": unit, "status": "missing"}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics
