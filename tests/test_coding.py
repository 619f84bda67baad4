import numpy as np
import pytest

from pulsom.coding import (
    SsomConfig,
    decode_latency,
    encode_frames,
    encode_latency,
    normalize,
)
from pulsom.errors import DimensionMismatchError


class TestEncodeLatency:
    def test_range_max_fires_first(self):
        e = encode_latency([1.0], [0.0], [1.0], t_max=20.0)
        assert e.spike_times[0] == 0.0

    def test_range_min_fires_last(self):
        e = encode_latency([0.0], [0.0], [1.0], t_max=20.0)
        assert e.spike_times[0] == 20.0

    def test_midpoint(self):
        e = encode_latency([0.5], [0.0], [1.0], t_max=20.0)
        assert e.spike_times[0] == pytest.approx(10.0, abs=1e-12)

    def test_degenerate_range_encodes_mid_horizon(self):
        e = encode_latency([3.0, 1.0], [3.0, 0.0], [3.0, 2.0], t_max=20.0)
        assert e.spike_times[0] == pytest.approx(10.0)
        assert e.spike_times[1] == pytest.approx(10.0)

    def test_out_of_range_clamped(self):
        e = encode_latency([-5.0, 9.0], [0.0, 0.0], [1.0, 1.0], t_max=20.0)
        assert e.spike_times[0] == 20.0
        assert e.spike_times[1] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            encode_latency([float("nan")], [0.0], [1.0], 20.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            encode_latency([0.5], [1.0], [0.0], 20.0)

    def test_order_reversing(self):
        rng = np.random.default_rng(0)
        lo = np.zeros(8)
        hi = np.ones(8)
        for _ in range(10_000):
            x = rng.uniform(0, 1, size=8)
            e = encode_latency(x, lo, hi, t_max=20.0)
            order_x = np.argsort(-x, kind="stable")
            times_sorted = e.spike_times[order_x]
            assert np.all(np.diff(times_sorted) >= -1e-12)


class TestDecodeLatency:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        lo = -2.0 * np.ones(12)
        hi = 3.0 * np.ones(12)
        for _ in range(200):
            x = rng.uniform(-2, 3, size=12)
            e = encode_latency(x, lo, hi, t_max=20.0)
            v = decode_latency(e)
            assert np.allclose(v, (x - lo) / (hi - lo), atol=1e-12)

    def test_all_spikes_at_horizon_give_zero(self):
        e = encode_latency(np.zeros(4), np.zeros(4), np.ones(4), t_max=20.0)
        assert np.array_equal(decode_latency(e), np.zeros(4))

    def test_inverse_map(self):
        e = encode_latency([1.0, 0.5, 0.0], [0.0] * 3, [1.0] * 3, t_max=20.0)
        assert np.allclose(e.spike_times, [0.0, 10.0, 20.0])
        assert np.allclose(decode_latency(e), [1.0, 0.5, 0.0], atol=1e-12)


class TestEncodeFrames:
    def test_rows_equal_per_frame_coding(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(9, 4)) * 2.0
        lo, hi = frames.min(axis=0) + 0.3, frames.max(axis=0) - 0.3
        codes = encode_frames(frames, lo, hi, 20.0, 4)
        for i, x in enumerate(frames):
            e = encode_latency(x, lo, hi, 20.0)
            assert np.array_equal(codes.spike_times[i], e.spike_times)
            assert np.array_equal(codes.decoded[i], decode_latency(e))
            assert np.array_equal(codes.normalized[i], normalize(x, lo, hi))

    def test_non_finite_frame_rejected(self):
        frames = np.zeros((3, 2))
        frames[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            encode_frames(frames, np.zeros(2), np.ones(2), 20.0, 2)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="lo must be <= hi"):
            encode_frames(np.zeros((3, 2)), np.ones(2), np.zeros(2), 20.0, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            encode_frames(np.zeros((3, 2)), np.zeros(2), np.ones(2), 20.0, 3)


class TestNormalize:
    def test_identity_on_unit_range(self):
        x = np.array([0.25, 0.75])
        assert np.allclose(normalize(x, np.zeros(2), np.ones(2)), x)

    def test_degenerate_components(self):
        out = normalize([5.0], [5.0], [5.0])
        assert out[0] == 0.5


class TestSsomConfig:
    def test_valid_defaults(self):
        cfg = SsomConfig()
        assert cfg.sim_step <= cfg.t_ref <= cfg.t_max

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SsomConfig(t_max=10.0, t_ref=15.0)
        with pytest.raises(ValueError):
            SsomConfig(sim_step=0.0)
        with pytest.raises(ValueError):
            SsomConfig(s_radius=0.0)
