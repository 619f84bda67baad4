import numpy as np
import pytest

from pulsom.coding import SsomConfig
from pulsom.errors import DimensionMismatchError
from pulsom.rssom import DifferenceState, difference_record, train_rssom, update_difference
from pulsom.som import Lattice, Schedule, find_bmu
from pulsom.ssom import normalized_init
from pulsom.stdp import StdpRule, StdpWindow


def make_lattice(weights):
    w = np.asarray(weights, dtype=np.float64)
    return Lattice(1, w.shape[0], w)


def make_rule():
    return StdpRule("input", 0.1, 1.0, StdpWindow(), flip_branches=True)


# t_ref = t_max: no unit is ever silent, so the winner is the smallest-norm unit.
NEVER_SILENT = SsomConfig(t_max=20.0, t_ref=20.0)


def rsom_winner(state, lat):
    return difference_record(state, lat, NEVER_SILENT).winner.flat


class TestUpdateDifference:
    def test_full_leak_is_memoryless(self):
        lat = make_lattice([[1.0, 2.0]])
        state = DifferenceState.zeros(lat, alpha=1.0)
        update_difference([4.0, 2.0], lat, state)
        assert np.allclose(state.y[0], [3.0, 0.0], atol=0)

    def test_single_step_from_zero(self):
        lat = make_lattice([[0.0, 0.0]])
        state = DifferenceState.zeros(lat, alpha=0.5)
        update_difference([1.0, 0.0], lat, state)
        assert np.allclose(state.y[0], [0.5, 0.0], atol=1e-15)

    def test_two_steps_accumulate(self):
        lat = make_lattice([[0.0, 0.0]])
        state = DifferenceState.zeros(lat, alpha=0.5)
        update_difference([1.0, 0.0], lat, state)
        update_difference([1.0, 0.0], lat, state)
        assert np.allclose(state.y[0], [0.75, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        lat = make_lattice([[0.0, 0.0]])
        state = DifferenceState.zeros(lat, alpha=0.5)
        with pytest.raises(DimensionMismatchError):
            update_difference([1.0], lat, state)

    def test_affine_in_input(self):
        # from a common starting state, the update response to (x1 + x2)
        # equals update(x1) + update(x2) - update(0)
        rng = np.random.default_rng(0)
        lat = Lattice(2, 3, rng.normal(size=(6, 4)))
        for _ in range(100):
            y0 = rng.normal(size=(6, 4))
            alpha = float(rng.uniform(0.05, 1.0))
            x1 = rng.normal(size=4)
            x2 = rng.normal(size=4)
            outs = []
            for x in (x1, x2, x1 + x2, np.zeros(4)):
                state = DifferenceState(y0.copy(), alpha)
                update_difference(x, lat, state)
                outs.append(state.y.copy())
            assert np.allclose(outs[0] + outs[1] - outs[3], outs[2], atol=1e-12)

    def test_geometric_convergence_to_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            lat = Lattice(1, 1, rng.normal(size=(1, dim)))
            alpha = float(rng.uniform(0.05, 1.0))
            x = rng.normal(size=dim)
            steps = int(rng.integers(1, 51))
            state = DifferenceState.zeros(lat, alpha)
            for _ in range(steps):
                update_difference(x, lat, state)
            expected = (1.0 - (1.0 - alpha) ** steps) * (x - lat.weights[0])
            assert np.allclose(state.y[0], expected, atol=1e-12)


class TestRsomBmu:
    def test_zero_difference_wins(self):
        lat = make_lattice([[0.0], [1.0], [2.0]])
        state = DifferenceState(np.array([[0.4], [0.0], [0.3]]), alpha=0.5)
        assert rsom_winner(state, lat) == 1

    def test_full_leak_matches_find_bmu(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            lat = Lattice(rows, cols, rng.normal(size=(rows * cols, dim)))
            x = rng.normal(size=dim)
            state = DifferenceState.zeros(lat, alpha=1.0)
            update_difference(x, lat, state)
            assert rsom_winner(state, lat) == find_bmu(x, lat).flat

    def test_argmin_of_norms(self):
        lat = make_lattice([[0.0], [0.0], [0.0]])
        state = DifferenceState(np.array([[0.3], [0.1], [0.2]]), alpha=0.5)
        assert rsom_winner(state, lat) == 1


class TestResetState:
    def test_zeroes_everything(self):
        state = DifferenceState(np.ones((4, 3)), alpha=0.5)
        state.reset()
        assert np.array_equal(state.y, np.zeros((4, 3)))

    def test_idempotent(self):
        state = DifferenceState(np.ones((4, 3)), alpha=0.5)
        state.reset()
        snapshot = state.y.copy()
        state.reset()
        assert np.array_equal(state.y, snapshot)

    def test_first_frame_after_reset_matches_find_bmu(self):
        # alpha scales every difference equally, so the first-frame argmin
        # is the plain BMU for any alpha
        rng = np.random.default_rng(3)
        lat = Lattice(2, 2, rng.uniform(size=(4, 3)))
        x = rng.uniform(size=3)
        state = DifferenceState(rng.normal(size=(4, 3)), alpha=0.25)
        state.reset()
        update_difference(x, lat, state)
        assert rsom_winner(state, lat) == find_bmu(x, lat).flat

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            DifferenceState(np.zeros((1, 1)), alpha=0.0)
        with pytest.raises(ValueError):
            DifferenceState(np.zeros((1, 1)), alpha=1.5)


class TestDifferenceRecord:
    def test_silence_beyond_reference_time(self):
        lat = make_lattice([[0.0, 0.0]])
        state = DifferenceState(np.array([[1.0, 1.0]]), alpha=1.0)
        cfg = SsomConfig(t_max=20.0, t_ref=15.0)
        rec = difference_record(state, lat, cfg)
        assert rec.winner is None
        assert rec.silent[0]

    def test_winner_present_within_reference(self):
        lat = make_lattice([[0.0, 0.0], [0.0, 0.0]])
        state = DifferenceState(np.array([[0.2, 0.0], [0.5, 0.5]]), alpha=0.5)
        cfg = SsomConfig(t_max=20.0, t_ref=15.0)
        rec = difference_record(state, lat, cfg)
        assert rec.winner.flat == 0


class TestTrainRssom:
    def sequences(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(5, 3)) for _ in range(n)]

    def test_deterministic(self):
        data = self.sequences()
        outs = []
        for _ in range(2):
            lat = normalized_init(3, 3, data, seed=4)
            train_rssom(data, lat, Schedule.for_lattice(3, 3, epochs=5),
                        SsomConfig(), make_rule(), 0.5, seed=4)
            outs.append(lat.weights.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_weights_stay_finite_and_bounded(self):
        data = self.sequences(seed=5)
        lat = normalized_init(3, 3, data, seed=5)
        train_rssom(data, lat, Schedule.for_lattice(3, 3, epochs=10),
                    SsomConfig(), make_rule(), 0.5, seed=5)
        assert np.all(np.isfinite(lat.weights))
        assert np.all(lat.weights >= 0.0)
        assert np.all(lat.weights <= 1.0)

    def test_order_reversed_classes_get_distinct_winners(self):
        from pulsom.corpus import synth_generate
        from pulsom.models import RssomModel
        from pulsom.ssom import feature_ranges

        data = synth_generate(2, 20, dim=6, frames=5, separation=5.0,
                              order_task=True, seed=10)
        lo, hi = feature_ranges(data)
        lat = normalized_init(6, 6, data, seed=10)
        train_rssom(data, lat, Schedule.for_lattice(6, 6, epochs=30),
                    SsomConfig(), make_rule(), 0.5, seed=10, lo=lo, hi=hi)
        model = RssomModel(lat, lo, hi, SsomConfig(), alpha=0.5)
        winners = {"class0": set(), "class1": set()}
        for s in data:
            w = model.sequence_winner(s)
            assert w is not None
            winners[s.label].add(w.flat)
        assert winners["class0"].isdisjoint(winners["class1"])
