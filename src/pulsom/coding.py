"""Temporal (latency) coding of feature vectors into input spike times.

Each feature component is normalized against corpus-wide per-dimension
ranges and mapped to a time-to-first-spike: the larger the value, the
earlier the spike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, check_positive


@dataclass
class SsomConfig:
    """Timing parameters of the spiking winner mechanism.

    t_max is the encoding horizon; t_ref the reference time bounding the
    temporal learning window (units whose firing time exceeds it stay
    silent); s_radius the spatial learning radius in lattice units.  All
    times are in ms.
    """

    t_max: float = 20.0
    t_ref: float = 15.0
    s_radius: float = 1.0

    def __post_init__(self):
        check_positive(self, "t_max", "t_ref", "s_radius")
        if self.t_ref > self.t_max:
            raise ValueError(f"need t_ref <= t_max, got {self.t_ref}, {self.t_max}")


@dataclass
class EncodedFrames:
    """A sequence's frames coded once for every presentation: the normalized
    values, which the maps match and learn toward, and their spike times."""

    normalized: np.ndarray
    spike_times: np.ndarray


def normalize(x, lo, hi) -> np.ndarray:
    """Map finite x into [0, 1] per component using the ranges [lo, hi],
    lo <= hi.

    Out-of-range values are clamped; degenerate components (lo == hi) map to
    0.5 so they encode at the middle of the horizon.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot encode non-finite input")
    if np.any(lo > hi):
        raise ValueError("lo must be <= hi per component")
    span = hi - lo
    degenerate = span == 0
    safe = np.where(degenerate, 1.0, span)
    v = np.clip((x - lo) / safe, 0.0, 1.0)
    return np.where(degenerate, 0.5, v)


def encode_latency(x, lo, hi, t_max: float) -> np.ndarray:
    """Time-to-first-spike code: component at the range max fires at 0,
    at the range min fires at t_max.  x is one vector or a stack of them."""
    return t_max * (1.0 - normalize(x, lo, hi))


def encode_frames(frames, lo, hi, t_max: float, dim: int) -> EncodedFrames:
    """Code a (n_frames, dim) sequence, or a stack of equal-shape sequences
    (..., n_frames, dim), in whole-array calls.

    Makes the checks that per-vector encoding and winner selection make
    (finite input, lo <= hi, feature dimension) once over the whole array.
    """
    v = normalize(frames, lo, hi)
    if v.ndim < 2 or v.shape[-1] != dim:
        raise DimensionMismatchError(dim, v.shape[-1])
    return EncodedFrames(v, t_max * (1.0 - v))
