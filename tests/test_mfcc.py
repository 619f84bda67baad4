import math

import numpy as np
import pytest

from pulsom.mfcc import (
    LOG_FLOOR,
    AudioBuffer,
    MfccConfig,
    dct_coeffs,
    dct_matrix,
    frame_signal,
    hamming_vector,
    hamming_window,
    mel_filter_matrix,
    mel_filterbank,
    mel_inverse,
    mel_scale,
    mfcc_pipeline,
    power_spectrum,
    preemphasis,
    row_texts,
)


def naive_dft_power(frame, fft_size):
    """O(N^2) DFT oracle: squared magnitudes of bins 0..N/2."""
    padded = np.zeros(fft_size)
    padded[:len(frame)] = frame
    n = np.arange(fft_size)
    out = []
    for k in range(fft_size // 2 + 1):
        re = np.sum(padded * np.cos(-2 * math.pi * k * n / fft_size))
        im = np.sum(padded * np.sin(-2 * math.pi * k * n / fft_size))
        out.append(re * re + im * im)
    return np.array(out)


def naive_dct2_ortho(x):
    """O(N^2) orthonormal type-II DCT oracle."""
    n = len(x)
    out = np.empty(n)
    for k in range(n):
        s = sum(x[i] * math.cos(math.pi * k * (2 * i + 1) / (2 * n)) for i in range(n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def long_double_dct(x, n_coeffs):
    """Coefficients 1..n_coeffs of the orthonormal type-II DCT of each row,
    summed in long double from long-double cosines: the accuracy oracle."""
    x = np.asarray(x, dtype=np.longdouble)
    n = x.shape[-1]
    pi = np.longdouble("3.14159265358979323846264338327950288")
    k = np.arange(1, n_coeffs + 1, dtype=np.longdouble)[:, None]
    basis = np.sqrt(np.longdouble(2) / n) * np.cos(
        pi * k * (2 * np.arange(n, dtype=np.longdouble) + 1) / (2 * n))
    return (x[..., None, :] * basis).sum(axis=-1)


def per_frame_mfcc(buf, cfg):
    """The per-frame front-end loop that the batched pipeline replaced: one
    FFT, one filterbank product and one DCT call for each frame.  It is the
    reference that mfcc_pipeline must match bit for bit."""
    s = preemphasis(buf, cfg.preemph_a).samples
    count = (s.shape[0] - cfg.frame_len) // cfg.hop + 1
    frames = np.stack([s[i * cfg.hop:i * cfg.hop + cfg.frame_len] for i in range(count)])
    window = hamming_vector(cfg.frame_len)
    filters = mel_filter_matrix(buf.sample_rate, cfg.fft_size, cfg.n_filters)
    out = np.empty((count, cfg.n_coeffs))
    for i, frame in enumerate(frames):
        z = np.fft.rfft(frame * window, n=cfg.fft_size)
        spec = z.real * z.real + z.imag * z.imag
        if not cfg.use_power:
            spec = np.sqrt(spec)
        energies = np.log10(np.maximum(np.einsum("j,kj->k", spec, filters), LOG_FLOOR))
        out[i] = dct_coeffs(energies, cfg.n_coeffs)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def naive_mel_filterbank(sample_rate, fft_size, n_filters):
    """Independent filterbank construction: integer-bin triangles."""
    def hz_to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10 ** (m / 2595.0) - 1.0)

    edges = [mel_to_hz(hz_to_mel(sample_rate / 2.0) * i / (n_filters + 1))
             for i in range(n_filters + 2)]
    bins = [min(int(math.floor((fft_size + 1) * f / sample_rate)), fft_size // 2)
            for f in edges]
    fb = np.zeros((n_filters, fft_size // 2 + 1))
    for j in range(n_filters):
        for i in range(bins[j], bins[j + 1]):
            fb[j, i] = (i - bins[j]) / (bins[j + 1] - bins[j])
        for i in range(bins[j + 1], bins[j + 2]):
            fb[j, i] = (bins[j + 2] - i) / (bins[j + 2] - bins[j + 1])
    return fb


class TestPreemphasis:
    def test_impulse_response(self):
        buf = AudioBuffer(np.array([1.0, 0.0, 0.0]))
        out = preemphasis(buf, 0.95)
        assert np.allclose(out.samples, [1.0, -0.95, 0.0], atol=0)

    def test_constant_signal(self):
        buf = AudioBuffer(np.full(10, 0.4))
        out = preemphasis(buf, 0.95)
        assert out.samples[0] == 0.4
        assert np.allclose(out.samples[1:], 0.05 * 0.4, atol=1e-15)

    def test_ramp_with_full_coefficient(self):
        buf = AudioBuffer(np.arange(8, dtype=float) / 8.0)
        out = preemphasis(buf, 1.0)
        assert np.allclose(out.samples[1:], 1.0 / 8.0, atol=1e-15)

    def test_empty_buffer(self):
        with pytest.raises(ValueError):
            preemphasis(AudioBuffer(np.array([])), 0.95)

    def test_coefficient_range(self):
        with pytest.raises(ValueError):
            preemphasis(AudioBuffer(np.zeros(4)), 0.5)


class TestFrameSignal:
    def test_count_formula(self):
        buf = AudioBuffer(np.zeros(1024))
        assert frame_signal(buf, 256, 128).shape == (7, 256)

    def test_single_frame(self):
        buf = AudioBuffer(np.zeros(256))
        assert frame_signal(buf, 256, 128).shape == (1, 256)

    def test_too_short(self):
        with pytest.raises(ValueError):
            frame_signal(AudioBuffer(np.zeros(255)), 256, 128)

    def test_frames_start_at_hop_multiples(self):
        for n, frame_len, hop in [(640, 256, 128), (1000, 200, 100), (1001, 255, 127)]:
            samples = np.arange(n, dtype=float)
            frames = frame_signal(AudioBuffer(samples), frame_len, hop)
            assert frames.shape == ((n - frame_len) // hop + 1, frame_len)
            for i, frame in enumerate(frames):
                assert frame[0] == i * hop
                assert np.array_equal(frame, samples[i * hop:i * hop + frame_len])


class TestHamming:
    def test_endpoint(self):
        assert hamming_window(0, 256) == pytest.approx(0.08, abs=1e-12)

    def test_peak_at_center_odd(self):
        assert hamming_window(128, 257) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        for n in range(256):
            assert hamming_window(n, 256) == pytest.approx(
                hamming_window(255 - n, 256), abs=1e-12)

    def test_vector_matches_scalar(self):
        vec = hamming_vector(64)
        assert np.allclose(vec, [hamming_window(n, 64) for n in range(64)], atol=0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hamming_window(256, 256)
        with pytest.raises(ValueError):
            hamming_window(0, 1)


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.array_equal(power_spectrum(np.zeros(256), 256), np.zeros(129))

    def test_pure_cosine_concentrates_in_one_bin(self):
        n = np.arange(256)
        frame = np.cos(2 * math.pi * 8 * n / 256)
        spec = power_spectrum(frame, 256)
        peak = spec[8]
        others = np.delete(spec, 8)
        assert np.all(others <= 1e-9 * peak)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            size = int(rng.choice([32, 64]))
            frame = rng.normal(size=size)
            got = power_spectrum(frame, size)
            want = naive_dft_power(frame, size)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_zero_padding(self):
        rng = np.random.default_rng(1)
        frame = rng.normal(size=20)
        got = power_spectrum(frame, 32)
        want = naive_dft_power(frame, 32)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            frame = rng.normal(size=64)
            spec = power_spectrum(frame, 64)
            # reconstruct the full-spectrum energy from the half spectrum
            full = spec[0] + spec[-1] + 2 * np.sum(spec[1:-1])
            time_energy = np.sum(frame ** 2)
            assert full / 64 == pytest.approx(time_energy, rel=1e-6)


class TestMelScale:
    def test_zero(self):
        assert mel_scale(0.0) == 0.0

    def test_reference_point(self):
        assert mel_scale(700.0) == pytest.approx(781.1728387480312, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for f in rng.uniform(0, 8000, size=100):
            assert mel_inverse(mel_scale(f)) == pytest.approx(f, abs=1e-9)

    def test_monotone(self):
        fs = np.linspace(0, 8000, 200)
        mels = [mel_scale(f) for f in fs]
        assert all(a < b for a, b in zip(mels, mels[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mel_scale(-1.0)


class TestMelFilterbank:
    def test_zero_spectrum_hits_log_floor(self):
        cfg = MfccConfig()
        out = mel_filterbank(np.zeros(129), cfg, sample_rate=16000)
        assert np.allclose(out, -10.0, atol=0)

    def test_triangles_peak_at_one_and_are_nonempty(self):
        fb = mel_filter_matrix(16000, 256, 26)
        assert fb.shape == (26, 129)
        for j in range(26):
            assert fb[j].max() == pytest.approx(1.0, abs=0)
            assert fb[j].sum() > 0

    def test_matches_independent_construction(self):
        got = mel_filter_matrix(16000, 256, 26)
        want = naive_mel_filterbank(16000, 256, 26)
        assert np.allclose(got, want, atol=1e-12)

    def test_flat_spectrum_energy_grows_with_bandwidth(self):
        fb = mel_filter_matrix(16000, 256, 26)
        sums = fb.sum(axis=1)
        # mel triangles widen with frequency: non-decreasing bin-weight sums
        # (adjacent ties come from integer bin snapping) with clear growth
        # across any larger span
        assert np.all(np.diff(sums) >= 0)
        assert np.all(sums[8:] > sums[:-8])
        assert sums[-1] > 4 * sums[0]

    def test_built_once_per_arguments_and_read_only(self):
        fb = mel_filter_matrix(16000, 256, 26)
        assert mel_filter_matrix(16000, 256, 26) is fb
        assert mel_filter_matrix(8000, 256, 26) is not fb
        assert not fb.flags.writeable

    def test_too_many_filters_collide(self):
        with pytest.raises(ValueError):
            mel_filter_matrix(16000, 64, 40)


class TestDct:
    def test_constant_input_gives_zero_coefficients(self):
        out = dct_coeffs(np.full(26, 3.7), 12)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=26)
            got = dct_coeffs(x, 12)
            want = naive_dct2_ortho(x)[1:13]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=26)
        b = rng.normal(size=26)
        lhs = dct_coeffs(a + b, 12)
        rhs = dct_coeffs(a, 12) + dct_coeffs(b, 12)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            dct_coeffs(np.zeros(8), 12)
        # the mean term is never returned
        assert dct_coeffs(np.zeros(26), 25).shape == (25,)
        with pytest.raises(ValueError, match="n_coeffs must be below the number of filter"):
            dct_coeffs(np.zeros(26), 26)

    @pytest.mark.parametrize("n, n_coeffs", [(26, 12), (26, 25), (40, 13), (7, 3), (2, 1)])
    def test_within_1e_13_of_a_long_double_reference(self, n, n_coeffs):
        # log10 energies lie in [-10, 2]: the floor, up to a loud full-scale frame
        x = np.random.default_rng(n).uniform(-10.0, 2.0, size=(2000, n))
        err = np.abs(dct_coeffs(x, n_coeffs) - long_double_dct(x, n_coeffs))
        assert err.max() < 1e-13

    def test_basis_built_once_per_arguments_and_read_only(self):
        basis = dct_matrix(26, 12)
        assert basis.shape == (12, 26)
        assert dct_matrix(26, 12) is basis
        assert dct_matrix(26, 13) is not basis
        assert not basis.flags.writeable


class TestPipeline:
    def test_silence_gives_zero_coefficients(self):
        buf = AudioBuffer(np.zeros(1024))
        out = mfcc_pipeline(buf)
        assert out.shape == (7, 12)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_pure_tone_is_stationary_on_interior_frames(self):
        # 1 kHz at 16 kHz: the 128-sample hop is exactly 8 cycles, so every
        # interior frame sees identical content
        n = np.arange(16000)
        tone = 0.5 * np.sin(2 * math.pi * 1000.0 * n / 16000.0)
        out = mfcc_pipeline(AudioBuffer(tone))
        interior = out[1:]
        assert np.allclose(interior, interior[0], atol=1e-6)

    def test_output_length_matches_frame_count(self):
        buf = AudioBuffer(np.random.default_rng(6).uniform(-0.5, 0.5, 2000))
        out = mfcc_pipeline(buf)
        assert out.shape[0] == (2000 - 256) // 128 + 1

    def test_magnitude_option_changes_output(self):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, 512))
        power = mfcc_pipeline(buf, MfccConfig(use_power=True))
        mag = mfcc_pipeline(buf, MfccConfig(use_power=False))
        assert not np.allclose(power, mag)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, 512))
        assert np.array_equal(mfcc_pipeline(buf), mfcc_pipeline(buf))


class TestBatchedStages:
    """Each stage applied to an (n, k) block equals its row-by-row result."""

    def test_power_spectrum_block(self):
        block = np.random.default_rng(10).normal(size=(9, 200))
        rows = np.stack([power_spectrum(row, 256) for row in block])
        assert same_bits(power_spectrum(block, 256), rows)

    def test_mel_filterbank_block(self):
        cfg = MfccConfig()
        block = power_spectrum(np.random.default_rng(11).normal(size=(9, 256)), 256)
        block[0] = 0.0  # a silent row hits the log floor
        rows = np.stack([mel_filterbank(row, cfg) for row in block])
        assert same_bits(mel_filterbank(block, cfg), rows)

    def test_dct_block(self):
        block = np.random.default_rng(12).normal(size=(9, 26))
        rows = np.stack([dct_coeffs(row, 12) for row in block])
        assert same_bits(dct_coeffs(block, 12), rows)

    def test_block_checks_row_length(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros((3, 300)), 256)
        with pytest.raises(ValueError):
            dct_coeffs(np.zeros((3, 8)), 12)


class TestPipelineMatchesPerFrameLoop:
    @pytest.mark.parametrize("length", [256, 257, 383, 384, 1000, 48000, 48100])
    @pytest.mark.parametrize("signal", ["noise", "silence", "tone"])
    @pytest.mark.parametrize("settings", [{}, {"use_power": False},
                                          {"frame_len": 200, "fft_size": 512}])
    def test_bit_identical(self, length, signal, settings):
        n = np.arange(length)
        samples = {"noise": np.random.default_rng(length).uniform(-0.5, 0.5, length),
                   "silence": np.zeros(length),
                   "tone": 0.5 * np.sin(2 * math.pi * 1000.0 * n / 16000.0)}[signal]
        buf, cfg = AudioBuffer(samples), MfccConfig(**settings)
        assert same_bits(mfcc_pipeline(buf, cfg), per_frame_mfcc(buf, cfg))

    def test_result_is_a_contiguous_matrix_of_its_own(self):
        cfg = MfccConfig()
        out = mfcc_pipeline(AudioBuffer(np.random.default_rng(13).uniform(-0.5, 0.5, 3000)),
                            cfg)
        assert out.shape == ((3000 - cfg.frame_len) // cfg.hop + 1, cfg.n_coeffs)
        assert out.flags.c_contiguous
        assert out.base is None


class TestFramesCsv:
    def test_layout(self, tmp_path):
        from pulsom.mfcc import write_frames_csv
        rng = np.random.default_rng(9)
        rows = [("spk/a", rng.normal(size=(3, 12))), ("spk/b", rng.normal(size=(2, 12)))]
        path = tmp_path / "frames.csv"
        write_frames_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("utt_id,frame_idx,c1,")
        assert len(lines) == 6
        assert lines[1].split(",")[:2] == ["spk/a", "0"]
        assert lines[4].split(",")[:2] == ["spk/b", "0"]
        back = float(lines[1].split(",")[2])
        assert back == rows[0][1][0, 0]


    def test_row_texts_match_the_repr_of_each_number(self):
        rng = np.random.default_rng(4)
        block = np.concatenate([rng.normal(size=(5, 12)) * 10.0 ** rng.integers(-300, 300, (5, 1)),
                                [[0.0, -0.0, 5e-324, -2.2e-308, 1e16, 0.1, 1 / 3, -7.0,
                                  1e-5, 123456789.0, 2.0 ** 60, math.pi]]])
        want = [",".join(repr(float(x)) for x in row) for row in block]
        assert row_texts(block) == want
        assert ",".join(row_texts(block)) == ",".join(repr(float(x)) for x in block.ravel())


class TestConfigValidation:
    def test_hop_is_half_frame(self):
        for n in (256, 400, 511):
            assert MfccConfig(frame_len=n, fft_size=512).hop == n // 2

    def test_preemph_range(self):
        with pytest.raises(ValueError):
            MfccConfig(preemph_a=0.5)

    def test_coeffs_bounded_by_filters(self):
        with pytest.raises(ValueError):
            MfccConfig(n_filters=10, n_coeffs=12)
        # the DCT drops the mean term, so n_filters energies give n_filters - 1
        assert MfccConfig(n_filters=26, n_coeffs=25).n_coeffs == 25
        with pytest.raises(ValueError, match="n_coeffs must be below n_filters, got 26"):
            MfccConfig(n_filters=26, n_coeffs=26)

    def test_at_least_one_coefficient(self):
        with pytest.raises(ValueError, match="n_coeffs must be at least 1"):
            MfccConfig(n_coeffs=0)
