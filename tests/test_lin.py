import numpy as np
import pytest

from pulsom.coding import SsomConfig
from pulsom.errors import DimensionMismatchError
from pulsom.lin import PotentialState, potential_record, train_lin, update_potential
from pulsom.som import Lattice, Schedule, find_bmu
from pulsom.ssom import normalized_init
from pulsom.stdp import StdpRule, StdpWindow


def make_lattice(weights):
    w = np.asarray(weights, dtype=np.float64)
    return Lattice(1, w.shape[0], w)


def make_rule():
    return StdpRule("input", 0.1, 1.0, StdpWindow(), flip_branches=True)


# t_ref = t_max: no unit is ever silent, so the winner is the most-excited unit.
NEVER_SILENT = SsomConfig(t_max=20.0, t_ref=20.0)


def lin_winner(state, lat):
    return potential_record(state, lat, NEVER_SILENT).winner.flat


def leaky_oracle(penalties, lam):
    """Two-line reference: p(t) = lam * p(t-1) + i(t)."""
    p = 0.0
    for i in penalties:
        p = lam * p + i
    return p


class TestUpdatePotential:
    def test_memoryless_at_zero_lambda(self):
        lat = make_lattice([[0.0, 0.0]])
        state = PotentialState.zeros(lat, lam=0.0)
        update_potential([3.0, 4.0], lat, state)
        assert state.a[0] == pytest.approx(-12.5, abs=1e-12)

    def test_perfect_match_only_decays(self):
        lat = make_lattice([[1.0, 2.0]])
        state = PotentialState(np.array([-2.0]), lam=0.5)
        update_potential([1.0, 2.0], lat, state)
        assert state.a[0] == pytest.approx(-1.0, abs=1e-15)

    def test_direct_evaluation(self):
        lat = make_lattice([[0.0]])
        state = PotentialState(np.array([-1.0]), lam=0.5)
        x = [np.sqrt(2.0)]
        update_potential(x, lat, state)
        assert state.a[0] == pytest.approx(-1.5, abs=1e-12)

    def test_dimension_mismatch(self):
        lat = make_lattice([[0.0, 0.0]])
        state = PotentialState.zeros(lat, lam=0.5)
        with pytest.raises(DimensionMismatchError):
            update_potential([1.0, 2.0, 3.0], lat, state)

    def test_matches_generic_leaky_integration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            lat = Lattice(1, 1, rng.normal(size=(1, dim)))
            lam = float(rng.uniform(0.0, 1.0))
            frames = rng.normal(size=(int(rng.integers(1, 20)), dim))
            state = PotentialState.zeros(lat, lam)
            for x in frames:
                update_potential(x, lat, state)
            penalties = [-0.5 * float(np.sum((x - lat.weights[0]) ** 2))
                         for x in frames]
            assert state.a[0] == pytest.approx(leaky_oracle(penalties, lam),
                                               abs=1e-12)

    def test_scale_input_by_lambda_variant(self):
        lat = make_lattice([[0.0]])
        state = PotentialState(np.array([-1.0]), lam=0.5, scale_input_by_lambda=True)
        update_potential([np.sqrt(2.0)], lat, state)
        # matching term scaled by lambda: -0.5 - 0.5*1 = -1.0
        assert state.a[0] == pytest.approx(-1.0, abs=1e-12)

    def test_potentials_never_positive_and_bounded(self):
        rng = np.random.default_rng(1)
        lat = Lattice(2, 2, rng.uniform(size=(4, 3)))
        lam = 0.7
        state = PotentialState.zeros(lat, lam)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(size=3)
            update_potential(x, lat, state)
            worst = max(worst, float(np.max(0.5 * np.sum(
                (lat.weights - x) ** 2, axis=1))))
            assert np.all(state.a <= 0.0)
            assert np.all(np.isfinite(state.a))
            assert np.all(-state.a <= worst / (1.0 - lam) + 1e-9)


class TestLinBmu:
    def test_zero_lambda_reduces_to_find_bmu(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            lat = Lattice(rows, cols, rng.normal(size=(rows * cols, dim)))
            x = rng.normal(size=dim)
            state = PotentialState.zeros(lat, lam=0.0)
            update_potential(x, lat, state)
            assert lin_winner(state, lat) == find_bmu(x, lat).flat

    def test_argmax_of_potentials(self):
        lat = make_lattice([[0.0], [0.0], [0.0]])
        state = PotentialState(np.array([-3.0, -1.0, -2.0]), lam=0.5)
        assert lin_winner(state, lat) == 1

    def test_tie_breaks_to_lowest_flat(self):
        lat = make_lattice([[0.0], [0.0], [0.0]])
        state = PotentialState(np.array([-1.0, -1.0, -1.0]), lam=0.5)
        assert lin_winner(state, lat) == 0


class TestResetPotentials:
    def test_zeroes(self):
        state = PotentialState(np.array([-1.0, -2.0]), lam=0.5)
        state.reset()
        assert np.array_equal(state.a, np.zeros(2))

    def test_idempotent(self):
        state = PotentialState(np.array([-1.0, -2.0]), lam=0.5)
        state.reset()
        state.reset()
        assert np.array_equal(state.a, np.zeros(2))

    def test_first_frame_after_reset_matches_find_bmu_for_any_lambda(self):
        rng = np.random.default_rng(3)
        lat = Lattice(2, 2, rng.uniform(size=(4, 3)))
        x = rng.uniform(size=3)
        for lam in (0.0, 0.3, 0.99, 1.0):
            state = PotentialState(rng.normal(size=4) - 5.0, lam=lam)
            state.reset()
            update_potential(x, lat, state)
            assert lin_winner(state, lat) == find_bmu(x, lat).flat

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            PotentialState(np.zeros(1), lam=-0.1)
        with pytest.raises(ValueError):
            PotentialState(np.zeros(1), lam=1.1)


class TestMonotonicity:
    def test_closer_frame_gives_larger_potential(self):
        # two units with identical history; the one nearer the current frame
        # ends the step less negative
        lat = make_lattice([[0.0, 0.0], [0.5, 0.5]])
        state = PotentialState(np.array([-2.0, -2.0]), lam=0.6)
        update_potential([0.4, 0.4], lat, state)
        assert state.a[1] > state.a[0]


class TestPotentialRecord:
    def test_winner_gated_by_reference_time(self):
        lat = make_lattice([[0.0, 0.0]])
        cfg = SsomConfig(t_max=20.0, t_ref=15.0)
        state = PotentialState(np.array([-30.0]), lam=0.0)
        rec = potential_record(state, lat, cfg)
        assert rec.winner is None

    def test_zero_lambda_latency_matches_mismatch_scale(self):
        lat = make_lattice([[0.0, 0.0]])
        cfg = SsomConfig(t_max=20.0, t_ref=20.0)
        state = PotentialState.zeros(lat, lam=0.0)
        update_potential([1.0, 0.0], lat, state)
        rec = potential_record(state, lat, cfg)
        # mean squared mismatch 0.5 over 2 dims -> fires at half the horizon
        assert rec.times[0] == pytest.approx(10.0, abs=1e-12)


class TestTrainLin:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = [rng.normal(size=(5, 3)) for _ in range(8)]
        outs = []
        for _ in range(2):
            lat = normalized_init(3, 3, data, seed=6)
            train_lin(data, lat, Schedule.for_lattice(3, 3, epochs=5),
                      SsomConfig(), make_rule(), 0.5, seed=6)
            outs.append(lat.weights.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_zero_lambda_frame_winners_match_ssom_rule(self):
        from pulsom.models import LinModel, SsomModel
        from pulsom.ssom import feature_ranges

        rng = np.random.default_rng(5)
        data = [rng.normal(size=(4, 3)) for _ in range(5)]
        lo, hi = feature_ranges(data)
        lat = normalized_init(3, 3, data, seed=7)
        cfg = SsomConfig(t_max=20.0, t_ref=20.0)
        lin = LinModel(lat, lo, hi, cfg, lam=0.0)
        ssm = SsomModel(lat, lo, hi, cfg)
        for s in data:
            got = [w.flat for w in lin.frame_winners(s)]
            want = [w.flat for w in ssm.frame_winners(s)]
            assert got == want

    def test_order_reversed_classes_get_distinct_winners(self):
        from pulsom.corpus import synth_generate
        from pulsom.models import LinModel
        from pulsom.ssom import feature_ranges

        data = synth_generate(2, 20, dim=6, frames=5, separation=5.0,
                              order_task=True, seed=11)
        lo, hi = feature_ranges(data)
        lat = normalized_init(6, 6, data, seed=11)
        train_lin(data, lat, Schedule.for_lattice(6, 6, epochs=30),
                  SsomConfig(), make_rule(), 0.4, seed=11, lo=lo, hi=hi)
        model = LinModel(lat, lo, hi, SsomConfig(), lam=0.4)
        by_class = {"class0": set(), "class1": set()}
        for s in data:
            w = model.sequence_winner(s)
            assert w is not None
            by_class[s.label].add(w.flat)
        assert by_class["class0"].isdisjoint(by_class["class1"])
