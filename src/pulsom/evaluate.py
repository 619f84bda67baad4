"""Map calibration (majority-vote unit labeling), sequence classification,
and recognition-rate reports with per-class rates and their unweighted mean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

REJECTED = "rejected"


@dataclass
class UnitLabelMap:
    """Per-unit label assignments plus the hit histograms behind them."""

    labels: list
    histograms: list
    _resolved: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def any_labeled(self) -> bool:
        return any(lbl is not None for lbl in self.labels)

    def resolved(self, lattice) -> list:
        """The label each unit's win predicts: its own label, else that of
        the nearest labeled unit in lattice distance (first in flat order
        on ties), else None when no unit is labeled.  Resolved on first use
        and kept with the map."""
        if self._resolved is None:
            labeled = [u for u, lbl in enumerate(self.labels) if lbl is not None]
            table = list(self.labels)
            if labeled:
                for u in range(len(table)):
                    if table[u] is None:
                        d2 = np.sum((lattice.coords[labeled] - lattice.coords[u]) ** 2, axis=1)
                        table[u] = self.labels[labeled[int(np.argmin(d2))]]
            self._resolved = table
        return self._resolved


@dataclass
class EvalReport:
    """Per-class recognition rates and their unweighted average."""

    rows: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    average: float = 0.0
    missing: list = field(default_factory=list)

    @staticmethod
    def from_rates(rows) -> "EvalReport":
        rows = list(rows)
        return EvalReport(rows=rows, average=mean_rate([r for _, r in rows]))


def mean_rate(rates) -> float:
    """The reports' averaging convention: unweighted arithmetic mean."""
    rates = list(rates)
    if not rates:
        raise ValueError("cannot average zero rates")
    return sum(rates) / len(rates)


def _mode_label(histogram: Counter):
    best = max(histogram.values())
    return min(lbl for lbl, count in histogram.items() if count == best)


def calibrate(model, train_data, frame_vote: bool = False) -> UnitLabelMap:
    """Label each unit by the majority vote of the training winners it gets.

    By default a sample contributes its terminal winner; with frame_vote
    every frame's winner contributes.  Ties go to the lexicographically
    smallest label; unhit units stay unlabeled.
    """
    train_data = list(train_data)
    if not train_data:
        raise ValueError("calibration data must be non-empty")
    table = model.winner_table(train_data)
    if not frame_vote:
        table = table[:, -1:]
    hists = [Counter() for _ in range(model.lattice.n_units)]
    for sample, winners in zip(train_data, table.tolist()):
        for w in winners:
            if w >= 0:
                hists[w][sample.label] += 1
    labels = [_mode_label(h) if h else None for h in hists]
    return UnitLabelMap(labels, hists)


def _predictions(model, labels: UnitLabelMap, data, frame_vote: bool) -> list[str]:
    """Predicted label of every sample, from one winner table and the map's
    resolved unit labels."""
    table = model.winner_table(data)
    unit_label = labels.resolved(model.lattice)
    if not frame_vote:
        return [unit_label[w] if w >= 0 and unit_label[w] is not None else REJECTED
                for w in table[:, -1].tolist()]
    preds = []
    for winners in table.tolist():
        votes = Counter(unit_label[w] for w in winners
                        if w >= 0 and unit_label[w] is not None)
        preds.append(_mode_label(votes) if votes else REJECTED)
    return preds


def classify(model, labels: UnitLabelMap, sample, frame_vote: bool = False) -> str:
    """Predicted label for one sequence, or "rejected" if no label reaches it.

    An unlabeled winner falls back to the nearest labeled unit in lattice
    distance.  With frame_vote the per-frame labels are majority-voted
    (ties to the lexicographically smallest label).
    """
    return _predictions(model, labels, [sample], frame_vote)[0]


def report(model, labels: UnitLabelMap, data, class_of=None,
           frame_vote: bool = False, expected_classes=None) -> tuple[EvalReport, Counter]:
    """Evaluate a dataset and build the per-class rate table.

    Every sample is classified as by ``classify``.  class_of maps a label to
    its reporting class (identity by default).  Returns the report plus a
    (true, predicted) confusion counter.  Classes from expected_classes that
    received no samples are listed separately and excluded from the average.
    """
    data = list(data)
    if not data:
        raise ValueError("evaluation data must be non-empty")
    if class_of is None:
        class_of = lambda lbl: lbl
    correct = Counter()
    total = Counter()
    confusion = Counter()
    for sample, pred in zip(data, _predictions(model, labels, data, frame_vote)):
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
        average=mean_rate([r for _, r in rows]),
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
    with open(path, "w") as f:
        f.write("class,correct,total,rate\n")
        for c, rate in rep.rows:
            cor, tot = rep.counts.get(c, (0, 0))
            f.write(f"{c},{cor},{tot},{rate!r}\n")


def write_confusion_csv(confusion: Counter, path) -> None:
    with open(path, "w") as f:
        f.write("true,predicted,count\n")
        for (true, pred), count in sorted(confusion.items()):
            f.write(f"{true},{pred},{count}\n")


def read_report_csv(path) -> EvalReport:
    rows = []
    counts = {}
    with open(path) as f:
        header = f.readline().strip()
        if header != "class,correct,total,rate":
            raise ValueError(f"not a report CSV: unexpected header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            c, cor, tot, rate = line.split(",")
            rows.append((c, float(rate)))
            counts[c] = (int(cor), int(tot))
    rep = EvalReport.from_rates(rows)
    rep.counts = counts
    return rep
