import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsom.coding import SsomConfig, encode_latency, normalize
from pulsom.models import SsomModel
from pulsom.som import Lattice, Schedule, find_bmu, neighborhood_array
from pulsom.ssom import (
    FiringRecord,
    LateralKernel,
    apply_lateral,
    area_rows,
    area_step,
    compute_firing_times,
    feature_ranges,
    lateral_step,
    lateral_tables,
    learning_gate,
    normalized_init,
    ssom_learn,
    train_ssom,
)
from pulsom.stdp import StdpRule, StdpWindow

UNIT_RANGE = (np.zeros(2), np.ones(2))


def spike_times(x, t_max=20.0):
    """Spike times of x in [0, 1], its own normalized value."""
    return encode_latency(x, np.zeros(len(x)), np.ones(len(x)), t_max)


def make_rule(eta=0.1, variant="input", a_plus=1.0, a_minus=1.0):
    return StdpRule(variant, eta, 1.0, StdpWindow(a_plus, a_minus, 10.0, 10.0))


class TestComputeFiringTimes:
    def test_perfect_match_fires_at_zero_and_wins(self):
        lat = Lattice(1, 2, np.array([[0.2, 0.8], [0.9, 0.1]]))
        rec = compute_firing_times(np.array([0.9, 0.1]), lat, SsomConfig())
        assert rec.times[1] == pytest.approx(0.0, abs=1e-12)
        assert rec.winner.flat == 1

    def test_all_units_silent_gives_no_winner(self):
        lat = Lattice(1, 2, np.array([[0.0, 0.0], [0.0, 0.0]]))
        cfg = SsomConfig(t_max=20.0, t_ref=15.0)
        rec = compute_firing_times(np.array([1.0, 1.0]), lat, cfg)
        # both units at the maximal mean squared mismatch of 1 -> fire at t_max
        assert np.all(rec.times == 20.0)
        assert np.all(rec.silent)
        assert rec.winner is None

    def test_latency_proportional_to_mismatch(self):
        # per-dim mean squared mismatches 0.25 and 0.5 at t_max 20
        lat = Lattice(1, 2, np.array([[0.5, 0.5], [0.0, 1.0]]))
        cfg = SsomConfig(t_max=20.0, t_ref=20.0)
        rec = compute_firing_times(np.array([0.0, 0.0]), lat, cfg)
        assert rec.times[0] == pytest.approx(5.0, abs=1e-9)
        assert rec.times[1] == pytest.approx(10.0, abs=1e-9)
        assert rec.winner.flat == 0

    def test_winner_equals_bmu_on_normalized_data(self):
        rng = np.random.default_rng(0)
        cfg = SsomConfig(t_max=20.0, t_ref=20.0)
        for _ in range(1000):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            lat = Lattice(rows, cols, rng.uniform(size=(rows * cols, dim)))
            x = rng.uniform(size=dim)
            assert compute_firing_times(x, lat, cfg).winner.flat == find_bmu(x, lat).flat


class TestApplyLateral:
    def setup_method(self):
        self.lat = Lattice(1, 5, np.tile(np.array([[0.5, 0.5]]), (5, 1)))
        self.cfg = SsomConfig(t_max=20.0, t_ref=15.0)

    def record(self, times, t_ref=15.0):
        times = np.asarray(times, dtype=np.float64)
        silent = times > t_ref
        winner = self.lat.unit(int(np.argmin(np.where(silent, np.inf, times))))
        return FiringRecord(times, silent, winner)

    def test_winner_unchanged(self):
        rec = self.record([2.0, 5.0, 7.0, 9.0, 11.0])
        out = apply_lateral(rec, LateralKernel(excite_radius=2.0), self.lat, self.cfg)
        assert out.times[0] == 2.0
        assert out.winner.flat == 0

    def test_full_pull_reaches_winner_time(self):
        rec = self.record([2.0, 5.0, 7.0, 9.0, 11.0])
        # gain large enough that the clamped factor is exactly 1 at d=1
        kernel = LateralKernel(excite_radius=2.0, excite_gain=5.0)
        out = apply_lateral(rec, kernel, self.lat, self.cfg)
        assert out.times[1] == pytest.approx(2.0, abs=1e-12)

    def test_inhibition_delay(self):
        rec = self.record([2.0, 5.0, 7.0, 9.0, 11.0])
        kernel = LateralKernel(excite_radius=1.0, excite_gain=0.5, inhibit_gain=1.0)
        out = apply_lateral(rec, kernel, self.lat, self.cfg)
        # unit at distance excite_radius + 3 is delayed by 3 ms
        assert out.times[4] == pytest.approx(11.0 + 3.0, abs=1e-12)

    def test_delay_can_silence(self):
        rec = self.record([2.0, 5.0, 7.0, 9.0, 14.0])
        kernel = LateralKernel(excite_radius=1.0, inhibit_gain=1.0)
        out = apply_lateral(rec, kernel, self.lat, self.cfg)
        assert out.silent[4]

    def test_delay_capped_at_horizon(self):
        rec = self.record([2.0, 5.0, 7.0, 9.0, 14.0])
        kernel = LateralKernel(excite_radius=1.0, inhibit_gain=100.0)
        out = apply_lateral(rec, kernel, self.lat, self.cfg)
        assert out.times[4] == self.cfg.t_max

    def test_no_winner_is_an_error(self):
        times = np.full(5, 19.0)
        rec = FiringRecord(times, times > 15.0, None)
        with pytest.raises(ValueError):
            apply_lateral(rec, LateralKernel(excite_radius=1.0), self.lat, self.cfg)

    def test_times_bounded_by_winner_and_horizon(self):
        rng = np.random.default_rng(4)
        lat = Lattice(4, 4, rng.uniform(size=(16, 3)))
        cfg = SsomConfig(t_max=20.0, t_ref=18.0)
        for _ in range(200):
            rec = compute_firing_times(rng.uniform(size=3), lat, cfg)
            if rec.winner is None:
                continue
            kernel = LateralKernel(excite_radius=float(rng.uniform(0.5, 3)),
                                   excite_gain=float(rng.uniform(0.1, 2)),
                                   inhibit_gain=float(rng.uniform(0.1, 2)))
            out = apply_lateral(rec, kernel, lat, cfg)
            t_win = rec.times[rec.winner.flat]
            assert np.all(out.times >= t_win - 1e-12)
            assert np.all(out.times <= cfg.t_max + 1e-12)


class TestLateralKernel:
    def test_rejects_an_excite_radius_whose_square_underflows(self):
        # A zero 2 r² would make the pull factor NaN even at the winner.
        with pytest.raises(ValueError, match="excite_radius 1e-200 must have a positive square"):
            LateralKernel(excite_radius=1e-200)
        assert LateralKernel(excite_radius=1e-150).excite_radius == 1e-150


class TestAreaStep:
    """``area_step`` on the winner's ``area_rows`` entry gives the bytes of
    ``lateral_step``, ``learning_gate`` and the neighborhood row times the
    epoch's rate on the whole lattice, which the trainer ran per
    presentation before, with the silent mask times > t_ref; a NaN time
    stays silent through the kernel.  At t_ref = t_max, a unit that inhibition pushes to
    the t_max cap still learns."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
           radius=st.floats(0.05, 8.0), t_ref=st.one_of(st.just(20.0), st.floats(0.5, 20.0)),
           excite=st.sampled_from(["below", "equal", "above", "auto"]),
           excite_gain=st.floats(0.01, 5.0), inhibit_gain=st.floats(0.01, 5.0),
           rate=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    def test_matches_the_whole_lattice(self, data, rows, cols, radius, t_ref, excite,
                                       excite_gain, inhibit_gain, rate):
        n = rows * cols
        lattice = Lattice(rows, cols, np.zeros((n, 1)))
        cfg = SsomConfig(t_max=20.0, t_ref=t_ref)
        times = np.array(data.draw(st.lists(st.one_of(st.floats(0.0, 20.0), st.just(math.nan)),
                                            min_size=n, max_size=n)))
        w = data.draw(st.integers(0, n - 1))
        scale = data.draw({"below": st.floats(0.01, 0.99), "equal": st.just(1.0),
                           "above": st.floats(1.01, 4.0), "auto": st.none()}[excite])
        kernel = LateralKernel(None if scale is None else radius * scale, excite_gain,
                               inhibit_gain)
        if kernel.excite_radius is None:     # as train_spiking resolves the auto radius
            kernel = replace(kernel, excite_radius=radius)
        dist = lattice.distance_table()

        idx, t_post, gain = area_step(times, w, area_rows(dist, radius, kernel, rate)[w], cfg)

        silent = times > cfg.t_ref
        t_all, s_all = lateral_step(times, silent, w, *lateral_tables(dist[w], kernel), cfg)
        want = learning_gate(t_all, s_all, dist[w] <= radius, cfg)
        assert idx.tobytes() == want.tobytes()
        assert t_post.tobytes() == t_all[want].tobytes()
        assert gain.shape == (len(want), 1)
        assert gain.tobytes() == (rate * neighborhood_array(dist[w], radius))[want].tobytes()


class TestSsomLearn:
    def gated_setup(self, s_radius=1.5):
        lat = Lattice(1, 5, np.tile(np.array([[0.3, 0.6]]), (5, 1)))
        cfg = SsomConfig(t_max=20.0, t_ref=15.0, s_radius=s_radius)
        x = np.array([0.8, 0.4])
        return lat, cfg, x, compute_firing_times(x, lat, cfg)

    def test_units_outside_spatial_area_untouched(self):
        lat, cfg, x, rec = self.gated_setup(s_radius=1.5)
        before = lat.weights.copy()
        ssom_learn(x, spike_times(x), lat, rec, cfg, make_rule(), lr_scale=0.9)
        # winner is unit 0 (all equal, tie-break); units at distance > 1.5 frozen
        assert rec.winner.flat == 0
        assert np.array_equal(lat.weights[2:], before[2:])
        assert not np.array_equal(lat.weights[0], before[0])

    def test_silent_unit_inside_area_untouched(self):
        lat = Lattice(1, 2, np.array([[0.8, 0.4], [0.0, 0.0]]))
        cfg = SsomConfig(t_max=20.0, t_ref=5.0, s_radius=3.0)
        x = np.array([0.8, 0.4])
        rec = compute_firing_times(x, lat, cfg)
        assert rec.silent[1]
        before = lat.weights.copy()
        ssom_learn(x, spike_times(x), lat, rec, cfg, make_rule(), lr_scale=0.9)
        assert np.array_equal(lat.weights[1], before[1])

    def test_zero_lr_scale_is_identity(self):
        lat, cfg, x, rec = self.gated_setup()
        before = lat.weights.copy()
        ssom_learn(x, spike_times(x), lat, rec, cfg, make_rule(), lr_scale=0.0)
        assert np.array_equal(lat.weights, before)

    def test_all_causal_synapses_move_toward_input(self):
        # large input components spike at 1 ms, far weights fire late, so
        # every synapse sits on the potentiating (toward-input) side
        lat = Lattice(1, 1, np.array([[0.2, 0.2]]))
        cfg = SsomConfig(t_max=20.0, t_ref=20.0, s_radius=1.0)
        x = np.array([0.95, 0.95])
        rec = compute_firing_times(x, lat, cfg)
        assert np.all(spike_times(x) < rec.times[0])
        before = lat.weights.copy()
        ssom_learn(x, spike_times(x), lat, rec, cfg, make_rule(), lr_scale=0.9)
        moved = lat.weights[0] - before[0]
        assert np.all(moved > 0)
        assert np.all(lat.weights[0] <= x)

    def test_snapshot_diff_only_gated_units(self):
        rng = np.random.default_rng(7)
        lat = Lattice(5, 5, rng.uniform(size=(25, 4)))
        cfg = SsomConfig(t_max=20.0, t_ref=12.0, s_radius=1.2)
        x = rng.uniform(size=4)
        rec = compute_firing_times(x, lat, cfg)
        before = lat.weights.copy()
        ssom_learn(x, spike_times(x), lat, rec, cfg, make_rule(), lr_scale=0.9)
        d = lat.grid_distances(rec.winner)
        gate = (~rec.silent) & (rec.times <= cfg.t_ref) & (d <= cfg.s_radius)
        changed = np.any(lat.weights != before, axis=1)
        assert not np.any(changed & ~gate)


class TestTrainSsom:
    def test_constant_frame_converges_to_input(self):
        frame = np.array([[0.3, -0.7, 1.2]])
        data = [frame] * 5
        lat = normalized_init(2, 2, data, seed=3)
        lo, hi = feature_ranges(data)
        model = SsomModel(lat, lo, hi, SsomConfig(), rule=make_rule())
        train_ssom(data, model, Schedule.for_lattice(2, 2, epochs=60), seed=3)
        decoded = lo + np.clip(lat.weights, 0, 1) * (hi - lo)
        rec = compute_firing_times(normalize(frame[0], lo, hi), Lattice(2, 2, lat.weights),
                                   SsomConfig())
        assert np.allclose(decoded[rec.winner.flat], frame[0], atol=1e-3)

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(8)
        data = [rng.normal(size=(4, 3)) for _ in range(6)]
        outs = []
        for _ in range(2):
            lat = normalized_init(3, 3, data, seed=11)
            model = SsomModel(lat, *feature_ranges(data), SsomConfig(), rule=make_rule())
            train_ssom(data, model, Schedule.for_lattice(3, 3, epochs=5), seed=11)
            outs.append(lat.weights.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_skipped_presentations_are_counted(self):
        # weights pinned far from the data with a tight reference time:
        # every presentation is silent in the first epochs
        data = [np.array([[1.0, 1.0]])]
        lat = Lattice(1, 1, np.array([[0.0, 0.0]]))
        cfg = SsomConfig(t_max=20.0, t_ref=1.0)
        model = SsomModel(lat, *feature_ranges(data), cfg, rule=make_rule())
        log = train_ssom(data, model, Schedule(2, 0.9, 0.05, 1.0, 1.0), seed=0)
        assert log.total_skipped == 2

    def test_quantization_error_logged_per_epoch(self):
        rng = np.random.default_rng(9)
        data = [rng.uniform(size=(3, 2)) for _ in range(10)]
        lat = normalized_init(3, 3, data, seed=1)
        model = SsomModel(lat, *feature_ranges(data), SsomConfig(), rule=make_rule())
        log = train_ssom(data, model, Schedule.for_lattice(3, 3, epochs=4), seed=1)
        assert len(log.rows) == 4
        assert all(np.isfinite(r.qe) for r in log.rows)
