"""Map calibration (majority-vote unit labeling), sequence classification,
and recognition-rate reports with per-class rates and their unweighted mean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .som import QE_CHUNK_ELEMENTS

REJECTED = "rejected"


@dataclass
class UnitLabelMap:
    """Per-unit label assignments, the hit histograms behind them, the vote
    mode they were calibrated with and the label each unit's win predicts
    (``resolve_labels`` of ``labels``)."""

    labels: list
    histograms: list
    predictions: list
    frame_vote: bool = False


@dataclass
class EvalReport:
    """Per-class recognition rates and their unweighted average."""

    rows: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)

    @property
    def average(self) -> float:
        return mean_rate([r for _, r in self.rows])


def resolve_labels(labels, lattice) -> list:
    """The label each unit's win predicts: its own label, else that of the
    nearest labeled unit in lattice distance (first in flat order on ties),
    else None when no unit is labeled."""
    labeled = [u for u, lbl in enumerate(labels) if lbl is not None]
    table = list(labels)
    if labeled:
        for u in range(len(table)):
            if table[u] is None:
                d2 = np.sum((lattice.coords[labeled] - lattice.coords[u]) ** 2, axis=1)
                table[u] = labels[labeled[int(np.argmin(d2))]]
    return table


def mean_rate(rates) -> float:
    """The reports' averaging convention: unweighted arithmetic mean."""
    rates = list(rates)
    if not rates:
        raise ValueError("cannot average zero rates")
    return sum(rates) / len(rates)


def _mode_label(histogram: Counter):
    best = max(histogram.values())
    return min(lbl for lbl, count in histogram.items() if count == best)


def calibrate(model, train_data, frame_vote: bool = False, table=None) -> UnitLabelMap:
    """Label each unit by the majority vote of the training winners it gets.

    By default a sample contributes its terminal winner; with frame_vote
    every frame's winner contributes, and ``classify`` and ``report``, which
    read the mode from the map, vote over every frame too.  Ties go to the
    lexicographically smallest label; unhit units stay unlabeled.  table is
    the data's winner table in that mode, if the caller already has it.
    """
    train_data = list(train_data)
    if not train_data:
        raise ValueError("calibration data must be non-empty")
    if table is None:
        table = model.winner_table(train_data, terminal=not frame_vote)
    hists = [Counter() for _ in range(model.lattice.n_units)]
    for sample, winners in zip(train_data, table.tolist()):
        for w in winners:
            if w >= 0:
                hists[w][sample.label] += 1
    labels = [_mode_label(h) if h else None for h in hists]
    return UnitLabelMap(labels, hists, resolve_labels(labels, model.lattice), frame_vote)


def _predictions(model, labels: UnitLabelMap, data, table=None) -> list[str]:
    """Predicted label of every sample: the most frequent unit prediction
    over its row of the winner table (of terminal winners only, without
    the map's frame_vote), the lexicographically smallest on ties, as
    ``_mode_label`` picks."""
    if table is None:
        table = model.winner_table(data, terminal=not labels.frame_vote)
    # Each unit's prediction coded as 1 + its rank among the sorted labels,
    # so that the first largest count is the smallest label, and 0 for
    # none; the entry appended last is what winner -1 reads.
    names = sorted({lbl for lbl in labels.predictions if lbl is not None})
    code = {lbl: i for i, lbl in enumerate(names, start=1)}
    unit_code = np.array([code.get(lbl, 0) for lbl in labels.predictions] + [0])
    choices = [REJECTED, *names]
    slots = len(choices)
    rows = max(1, QE_CHUNK_ELEMENTS // slots)   # the counts of a block of rows
    preds = []
    for lo in range(0, len(table), rows):
        votes = unit_code[table[lo:lo + rows]]
        votes += slots * np.arange(len(votes))[:, None]
        counts = np.bincount(votes.ravel(), minlength=len(votes) * slots).reshape(-1, slots)
        counts[:, 0] = 0    # slot 0 wins only where no label has a vote
        preds += [choices[c] for c in counts.argmax(axis=1).tolist()]
    return preds


def classify(model, labels: UnitLabelMap, sample) -> str:
    """Predicted label for one sequence, or "rejected" if no label reaches it.

    An unlabeled winner falls back to the nearest labeled unit in lattice
    distance.  With the map's frame_vote the per-frame labels are
    majority-voted (ties to the lexicographically smallest label).
    """
    return _predictions(model, labels, [sample])[0]


def report(model, labels: UnitLabelMap, data, class_of=None,
           expected_classes=None, table=None) -> tuple[EvalReport, Counter]:
    """Evaluate a dataset and build the per-class rate table.

    Every sample is classified as by ``classify``.  class_of maps a label to
    its reporting class (identity by default).  Returns the report plus a
    (true, predicted) confusion counter.  Classes from expected_classes that
    received no samples are listed separately and excluded from the average.
    table is the data's winner table in the map's mode, if the caller
    already has it.
    """
    data = list(data)
    if not data:
        raise ValueError("evaluation data must be non-empty")
    if class_of is None:
        class_of = lambda lbl: lbl
    correct = Counter()
    total = Counter()
    confusion = Counter()
    for sample, pred in zip(data, _predictions(model, labels, data, table)):
        true_class = class_of(sample.label)
        pred_class = class_of(pred) if pred != REJECTED else REJECTED
        total[true_class] += 1
        if pred_class == true_class:
            correct[true_class] += 1
        confusion[(true_class, pred_class)] += 1
    classes = sorted(total)
    if expected_classes is not None:
        ordered = [c for c in expected_classes if c in total]
        ordered += [c for c in classes if c not in set(expected_classes)]
        classes = ordered
    rows = [(c, 100.0 * correct[c] / total[c]) for c in classes]
    rep = EvalReport(
        rows=rows,
        counts={c: (correct[c], total[c]) for c in classes},
        missing=[c for c in (expected_classes or []) if c not in total],
    )
    return rep, confusion


def render_text(rep: EvalReport, title: str = "Recognition rates") -> str:
    """Aligned two-column table with an Average row."""
    width = max([len("Class")] + [len(c) for c, _ in rep.rows] + [len("Average")])
    lines = [title, ""]
    lines.append(f"{'Class'.ljust(width)}  {'Rate':>7}")
    lines.append("-" * (width + 9))
    for c, rate in rep.rows:
        lines.append(f"{c.ljust(width)}  {rate:7.2f}")
    lines.append("-" * (width + 9))
    lines.append(f"{'Average'.ljust(width)}  {rep.average:7.2f}")
    if rep.missing:
        lines.append("")
        lines.append("No samples: " + ", ".join(rep.missing))
    return "\n".join(lines) + "\n"


def write_report_csv(rep: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("class,correct,total,rate\n")
        for c, rate in rep.rows:
            cor, tot = rep.counts[c]
            f.write(f"{c},{cor},{tot},{rate!r}\n")


def write_confusion_csv(confusion: Counter, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("true,predicted,count\n")
        for (true, pred), count in sorted(confusion.items()):
            f.write(f"{true},{pred},{count}\n")

