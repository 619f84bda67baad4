import numpy as np
import pytest

from pulsom.corpus import SequenceSample
from pulsom.evaluate import (
    REJECTED,
    EvalReport,
    calibrate,
    classify,
    mean_rate,
    render_text,
    report,
    write_confusion_csv,
    write_report_csv,
)
from pulsom.models import SomModel
from pulsom.som import Lattice


def grid_model():
    # four units pinned at the corners of the unit square
    w = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return SomModel(Lattice(2, 2, w))


def sample_at(point, label):
    return SequenceSample(np.array([point]), label)


class TestCalibrate:
    def test_majority_vote(self):
        model = grid_model()
        data = [sample_at([0.0, 0.0], "A"), sample_at([0.05, 0.0], "A"),
                sample_at([0.0, 0.05], "B")]
        labels = calibrate(model, data)
        assert labels.labels[0] == "A"

    def test_unhit_units_stay_unlabeled(self):
        model = grid_model()
        labels = calibrate(model, [sample_at([0.0, 0.0], "A")])
        assert labels.labels[0] == "A"
        assert labels.labels[1] is None
        assert labels.labels[2] is None
        assert labels.labels[3] is None

    def test_tie_breaks_lexicographically(self):
        model = grid_model()
        data = [sample_at([0.0, 0.0], "B"), sample_at([0.0, 0.0], "A")]
        labels = calibrate(model, data)
        assert labels.labels[0] == "A"

    def test_label_maximizes_histogram(self):
        model = grid_model()
        rng = np.random.default_rng(0)
        data = [sample_at(rng.uniform(size=2), rng.choice(["A", "B", "C"]))
                for _ in range(200)]
        labels = calibrate(model, data)
        for lbl, hist in zip(labels.labels, labels.histograms):
            if lbl is None:
                assert not hist
            else:
                assert hist[lbl] == max(hist.values())

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            calibrate(grid_model(), [])

    def test_frame_vote_counts_every_frame(self):
        model = grid_model()
        s = SequenceSample(np.array([[0.0, 0.0], [1.0, 1.0]]), "A")
        terminal = calibrate(model, [s])
        per_frame = calibrate(model, [s], frame_vote=True)
        assert terminal.labels[0] is None       # only the last frame counts
        assert per_frame.labels[0] == "A"       # every frame counts
        assert per_frame.labels[3] == "A"


class TestClassify:
    def test_labeled_winner(self):
        model = grid_model()
        labels = calibrate(model, [sample_at([0.0, 0.0], "X")])
        assert classify(model, labels, sample_at([0.1, 0.1], "?")) == "X"

    def test_unlabeled_winner_falls_back_to_nearest_labeled(self):
        model = grid_model()
        labels = calibrate(model, [sample_at([0.0, 0.0], "X")])
        # winner is unit 3 (far corner); nearest labeled unit is 0
        assert classify(model, labels, sample_at([1.0, 1.0], "?")) == "X"

    def test_fully_unlabeled_map_rejects(self):
        from pulsom.evaluate import UnitLabelMap
        model = grid_model()
        labels = UnitLabelMap([None] * 4, [{}] * 4, [None] * 4)
        assert classify(model, labels, sample_at([0.5, 0.5], "?")) == REJECTED

    def test_deterministic(self):
        model = grid_model()
        rng = np.random.default_rng(1)
        data = [sample_at(rng.uniform(size=2), rng.choice(["A", "B"]))
                for _ in range(50)]
        labels = calibrate(model, data)
        first = [classify(model, labels, s) for s in data]
        second = [classify(model, labels, s) for s in data]
        assert first == second

    def test_all_silent_sequence_is_rejected(self):
        # spiking model whose reference time silences every unit for a
        # far-away input
        from pulsom.coding import SsomConfig
        from pulsom.evaluate import UnitLabelMap
        from pulsom.models import SsomModel
        lat = Lattice(1, 2, np.zeros((2, 2)))
        model = SsomModel(lat, np.zeros(2), np.ones(2),
                          SsomConfig(t_max=20.0, t_ref=5.0))
        labels = UnitLabelMap(["A", "B"], [{"A": 1}, {"B": 1}], ["A", "B"])
        far = sample_at([1.0, 1.0], "?")
        assert model.frame_winners(far)[-1] is None
        assert classify(model, labels, far) == REJECTED


class TestReport:
    def test_all_correct(self):
        model = grid_model()
        data = [sample_at([0.0, 0.0], "A"), sample_at([1.0, 1.0], "B")]
        labels = calibrate(model, data)
        rep, confusion = report(model, labels, data)
        assert all(rate == 100.0 for _, rate in rep.rows)
        assert rep.average == 100.0
        assert confusion[("A", "A")] == 1

    def test_macro_average_convention_on_published_rates(self):
        # the seven macro-class rates of the reference table reproduce the
        # published average to 0.01
        som_rates = [79.59, 67.67, 87.99, 71.83, 47.05, 84.61, 51.81]
        assert mean_rate(som_rates) == pytest.approx(70.07, abs=0.01)
        lin_rates = [95.91, 77.33, 93.09, 84.71, 56.38, 93.06, 66.30]
        assert mean_rate(lin_rates) == pytest.approx(80.96, abs=0.01)

    def test_average_of_rates_alone_uses_same_convention(self):
        rows = [("a", 100.0), ("b", 0.0)]
        rep = EvalReport(rows)
        assert rep.average == 50.0

    def test_average_is_mean_of_rows(self):
        model = grid_model()
        rng = np.random.default_rng(2)
        data = [sample_at(rng.uniform(size=2), rng.choice(["A", "B", "C"]))
                for _ in range(100)]
        labels = calibrate(model, data)
        rep, _ = report(model, labels, data)
        assert rep.average == pytest.approx(
            sum(r for _, r in rep.rows) / len(rep.rows), abs=1e-9)

    def test_zero_sample_classes_listed_separately(self):
        model = grid_model()
        data = [sample_at([0.0, 0.0], "A")]
        labels = calibrate(model, data)
        rep, _ = report(model, labels, data, expected_classes=["A", "B"])
        assert rep.missing == ["B"]
        assert [c for c, _ in rep.rows] == ["A"]

    def test_class_mapping(self):
        model = grid_model()
        data = [sample_at([0.0, 0.0], "a1"), sample_at([0.05, 0.0], "a2"),
                sample_at([1.0, 1.0], "b1")]
        labels = calibrate(model, data)
        rep, _ = report(model, labels, data, class_of=lambda s: s[0])
        assert dict(rep.rows) == {"a": 100.0, "b": 100.0}

    def test_empty_data_rejected(self):
        model = grid_model()
        labels = calibrate(model, [sample_at([0.0, 0.0], "A")])
        with pytest.raises(ValueError):
            report(model, labels, [])


class TestRendering:
    def make_report(self):
        return EvalReport([("affricates", 95.91), ("vowels", 66.30)])

    def test_text_table_has_average_row(self):
        text = render_text(self.make_report())
        assert "affricates" in text
        assert "Average" in text
        assert "81.10" in text  # (95.91 + 66.30) / 2 = 81.105 -> 81.10 as shown

    def test_csv_round_trip(self, tmp_path):
        rep = self.make_report()
        rep.counts = {"affricates": (94, 98), "vowels": (663, 1000)}
        path = tmp_path / "r.csv"
        write_report_csv(rep, path)
        assert path.read_text().splitlines() == [
            "class,correct,total,rate", "affricates,94,98,95.91", "vowels,663,1000,66.3"]

    def test_confusion_csv(self, tmp_path):
        from collections import Counter
        path = tmp_path / "c.csv"
        write_confusion_csv(Counter({("A", "B"): 3, ("A", "A"): 7}), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "true,predicted,count"
        assert "A,A,7" in lines
        assert "A,B,3" in lines
