"""MFCC speech front-end: pre-emphasis, Hamming-windowed overlapping frames,
power spectrum, triangular mel filterbank, log compression and a DCT.

Defaults follow the common 16 kHz recipe: 256-sample frames (16 ms) with 50%
overlap, 26 mel filters, 12 cepstral coefficients with the mean term dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LOG_FLOOR = 1e-10


@dataclass
class AudioBuffer:
    """Mono audio samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio samples must be finite")


@dataclass
class MfccConfig:
    """Front-end settings: the pre-emphasis coefficient, the frame length and
    FFT size in samples, the mel filter count, the cepstral coefficients
    kept per frame, and power (else magnitude) spectra into the filterbank.

    Frames always overlap by 50%, so ``hop`` is half the frame length and
    not a setting of its own.
    """

    preemph_a: float = 0.95
    frame_len: int = 256
    n_filters: int = 26
    n_coeffs: int = 12
    fft_size: int = 256
    use_power: bool = True

    def __post_init__(self):
        if not (0.9 <= self.preemph_a <= 1.0):
            raise ValueError(f"preemph_a must be in [0.9, 1.0], got {self.preemph_a}")
        if self.frame_len < 2:      # half of it is the hop, and a window needs two samples
            raise ValueError(f"frame_len must be at least 2, got {self.frame_len}")
        if self.n_coeffs < 1:
            raise ValueError(f"n_coeffs must be at least 1, got {self.n_coeffs}")
        if self.n_coeffs >= self.n_filters:  # the DCT drops the mean term
            raise ValueError(f"n_coeffs must be below n_filters, got {self.n_coeffs}")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must be >= frame_len")

    @property
    def hop(self) -> int:
        """Samples between frame starts: half the frame length."""
        return self.frame_len // 2


def preemphasis(buf: AudioBuffer, a: float) -> AudioBuffer:
    """First-order high-pass filter y[n] = s[n] - a*s[n-1]; y[0] = s[0]."""
    if not (0.9 <= a <= 1.0):
        raise ValueError(f"pre-emphasis coefficient must be in [0.9, 1.0], got {a}")
    s = buf.samples
    if s.shape[0] == 0:
        raise ValueError("cannot pre-emphasize an empty buffer")
    y = np.empty_like(s)
    y[0] = s[0]
    y[1:] = s[1:] - a * s[:-1]
    return AudioBuffer(y, buf.sample_rate)


def frame_signal(buf: AudioBuffer, frame_len: int, hop: int) -> np.ndarray:
    """Split into overlapping frames starting at multiples of hop; trailing
    samples that do not fill a frame are dropped.  Returns a read-only
    (count, frame_len) view on the samples."""
    s = buf.samples
    if s.shape[0] < frame_len:
        raise ValueError(
            f"buffer of {s.shape[0]} samples is shorter than one frame ({frame_len})"
        )
    return sliding_window_view(s, frame_len)[::hop]


def hamming_window(n: int, big_n: int) -> float:
    """Hamming coefficient 0.54 - 0.46*cos(2*pi*n/(N-1))."""
    if big_n <= 1:
        raise ValueError(f"window length must exceed 1, got {big_n}")
    if not (0 <= n < big_n):
        raise ValueError(f"sample index {n} outside window of length {big_n}")
    return 0.54 - 0.46 * math.cos(2.0 * math.pi * n / (big_n - 1))


def hamming_vector(big_n: int) -> np.ndarray:
    n = np.arange(big_n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (big_n - 1))


def power_spectrum(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """Squared magnitude of the DFT, bins 0..fft_size/2, of a frame or of
    each row of a block of frames (zero-padded to fft_size).  Each bin is
    re*re + im*im, exact IEEE operations whose bits no CPU dispatch moves
    (numpy's complex abs takes a different hypot kernel per CPU)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-1] > fft_size:
        raise ValueError(f"frame of {frames.shape[-1]} samples exceeds fft_size {fft_size}")
    parts = np.fft.rfft(frames, n=fft_size, axis=-1).view(np.float64)
    parts *= parts
    return parts[..., 0::2] + parts[..., 1::2]


def mel_scale(f: float) -> float:
    """Hz to mel."""
    if f < 0:
        raise ValueError(f"frequency must be non-negative, got {f}")
    return 2595.0 * math.log10(1.0 + f / 700.0)


def mel_inverse(m: float) -> float:
    """Mel to Hz."""
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


@cache
def mel_filter_matrix(sample_rate: int, fft_size: int, n_filters: int) -> np.ndarray:
    """Triangular filters with centers equally spaced on the mel axis.

    Edges are snapped to FFT bins so every triangle peaks at exactly 1;
    adjacent centers landing on the same bin mean the filterbank is too
    dense for this FFT size.  Built once per argument triple and shared, so
    the matrix is read-only.
    """
    n_bins = fft_size // 2 + 1
    mel_points = np.linspace(0.0, mel_scale(sample_rate / 2.0), n_filters + 2)
    hz_points = np.array([mel_inverse(m) for m in mel_points])
    bins = np.floor((fft_size + 1) * hz_points / sample_rate).astype(int)
    bins = np.minimum(bins, n_bins - 1)
    if np.any(bins[2:] == bins[1:-1]):
        raise ValueError(
            f"{n_filters} filters collide on a {fft_size}-point FFT; reduce n_filters "
            "or raise fft_size"
        )
    fb = np.zeros((n_filters, n_bins))
    for j in range(n_filters):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            fb[j, i] = (i - left) / (center - left)
        for i in range(center, right):
            fb[j, i] = (right - i) / (right - center)
    fb.setflags(write=False)
    return fb


def mel_filterbank(spectrum: np.ndarray, cfg: MfccConfig,
                   sample_rate: int = 16000) -> np.ndarray:
    """Log10 energies of the mel filterbank applied to a spectrum, or to each
    row of a block of spectra.

    A small floor keeps silence finite at log10(1e-10) = -10.
    """
    filters = mel_filter_matrix(sample_rate, cfg.fft_size, cfg.n_filters)
    spectrum = np.asarray(spectrum, dtype=np.float64)
    # One einsum, as in dct_coeffs: no BLAS call, whose kernel OpenBLAS
    # picks by CPU, and each row has the bits it has alone.
    energies = np.einsum("...j,kj->...k", spectrum, filters)
    return np.log10(np.maximum(energies, LOG_FLOOR))


@cache
def dct_matrix(n: int, n_coeffs: int) -> np.ndarray:
    """Rows 1..n_coeffs of the orthonormal type-II DCT basis of length n,
    sqrt(2/n) cos(pi k (2i+1) / 2n), with k(2i+1) reduced mod 4n in integers
    first.  Built once per argument pair and shared, so read-only."""
    m = np.arange(1, n_coeffs + 1)[:, None] * (2 * np.arange(n) + 1) % (4 * n)
    basis = math.sqrt(2.0 / n) * np.cos(np.pi * m / (2 * n))
    basis.setflags(write=False)
    return basis


def dct_coeffs(log_energies: np.ndarray, n_coeffs: int) -> np.ndarray:
    """Orthonormal type-II DCT along the last axis; the mean coefficient is
    dropped and the next n_coeffs returned.  One einsum (no BLAS), so each
    row of a block has the bits it has alone."""
    log_energies = np.asarray(log_energies, dtype=np.float64)
    if n_coeffs >= log_energies.shape[-1]:
        raise ValueError("n_coeffs must be below the number of filter energies")
    return np.einsum("...j,kj->...k", log_energies, dct_matrix(log_energies.shape[-1], n_coeffs))


def row_texts(matrix: np.ndarray) -> list[str]:
    """Each row of a float matrix as comma-separated `repr` values: the one
    text form of feature numbers in every CSV written, exact on reading."""
    return [",".join(map(repr, row)) for row in matrix.tolist()]


def frames_csv_header(n_coeffs: int) -> str:
    cols = ",".join(f"c{i + 1}" for i in range(n_coeffs))
    return f"utt_id,frame_idx,{cols}\n"


def frames_csv_lines(utt_id: str, texts: list[str]) -> str:
    """The per-frame CSV lines of one utterance, from its row_texts."""
    return "".join(f"{utt_id},{i},{text}\n" for i, text in enumerate(texts))


def write_frames_csv(utterance_frames, path) -> None:
    """Per-frame feature rows `utt_id,frame_idx,c1..c<n>` for a list of
    (utt_id, coefficient-matrix) pairs."""
    utterance_frames = list(utterance_frames)
    if not utterance_frames:
        raise ValueError("no utterances to write")
    with open(path, "w", encoding="utf-8") as f:
        f.write(frames_csv_header(utterance_frames[0][1].shape[1]))
        for utt_id, frames in utterance_frames:
            f.write(frames_csv_lines(utt_id, row_texts(np.asarray(frames, dtype=np.float64))))


def mfcc_pipeline(buf: AudioBuffer, cfg: MfccConfig | None = None) -> np.ndarray:
    """Full front-end: one row of cepstral coefficients per frame."""
    if cfg is None:
        cfg = MfccConfig()
    emphasized = preemphasis(buf, cfg.preemph_a)
    frames = frame_signal(emphasized, cfg.frame_len, cfg.hop)
    spec = power_spectrum(frames * hamming_vector(cfg.frame_len), cfg.fft_size)
    if not cfg.use_power:
        spec = np.sqrt(spec)
    return dct_coeffs(mel_filterbank(spec, cfg, buf.sample_rate), cfg.n_coeffs)
