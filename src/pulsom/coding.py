"""Temporal (latency) coding of feature vectors into input spike times.

Each feature component is normalized against corpus-wide per-dimension
ranges and mapped to a time-to-first-spike: the larger the value, the
earlier the spike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass
class SsomConfig:
    """Timing parameters of the spiking winner mechanism.

    t_max is the encoding horizon; t_ref the reference time bounding the
    temporal learning window; s_radius the spatial learning radius in
    lattice units; sim_step the simulation step.  tau_psp, a postsynaptic
    trace decay, is carried in config and model files and affects no
    result.
    """

    t_max: float = 20.0
    t_ref: float = 15.0
    s_radius: float = 1.0
    sim_step: float = 1.0
    tau_psp: float = 5.0

    def __post_init__(self):
        if not (0 < self.sim_step <= self.t_ref <= self.t_max):
            raise ValueError(
                f"need 0 < sim_step <= t_ref <= t_max, got "
                f"{self.sim_step}, {self.t_ref}, {self.t_max}"
            )
        if self.s_radius <= 0:
            raise ValueError(f"s_radius must be positive, got {self.s_radius}")
        if self.tau_psp <= 0:
            raise ValueError(f"tau_psp must be positive, got {self.tau_psp}")


@dataclass
class EncodedInput:
    """Spike times of one presented vector (or of a stack of them, one per row)."""

    spike_times: np.ndarray
    t_max: float


@dataclass
class EncodedFrames:
    """A sequence's frames coded once for every presentation: the normalized
    values, their spike times, and the values decoded back from those times.

    The decoded values can differ from the normalized ones in the last bits;
    the spiking map matches against the decoded ones, the recurrent maps
    update their state from the normalized ones.
    """

    normalized: np.ndarray
    spike_times: np.ndarray
    decoded: np.ndarray


def normalize(x, lo, hi) -> np.ndarray:
    """Map x into [0, 1] per component using the ranges [lo, hi].

    Out-of-range values are clamped; degenerate components (lo == hi) map to
    0.5 so they encode at the middle of the horizon.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = hi - lo
    degenerate = span == 0
    safe = np.where(degenerate, 1.0, span)
    v = np.clip((x - lo) / safe, 0.0, 1.0)
    return np.where(degenerate, 0.5, v)


def encode_latency(x, lo, hi, t_max: float) -> EncodedInput:
    """Time-to-first-spike code: component at the range max fires at 0,
    at the range min fires at t_max.  x is one vector or a stack of them."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot encode non-finite input")
    if np.any(np.asarray(lo) > np.asarray(hi)):
        raise ValueError("lo must be <= hi per component")
    v = normalize(x, lo, hi)
    return EncodedInput(spike_times=t_max * (1.0 - v), t_max=t_max)


def decode_latency(e: EncodedInput) -> np.ndarray:
    """Recover the normalized vector from spike times: v = 1 - t/t_max."""
    return 1.0 - e.spike_times / e.t_max


def encode_frames(frames, lo, hi, t_max: float, dim: int) -> EncodedFrames:
    """Code a (n_frames, dim) sequence, or a stack of equal-shape sequences
    (..., n_frames, dim), in whole-array calls.

    Makes the checks that per-vector encoding and winner selection make
    (finite input, lo <= hi, feature dimension) once over the whole array.
    """
    e = encode_latency(frames, lo, hi, t_max)
    if e.spike_times.ndim < 2 or e.spike_times.shape[-1] != dim:
        raise DimensionMismatchError(dim, e.spike_times.shape[-1])
    return EncodedFrames(normalize(frames, lo, hi), e.spike_times, decode_latency(e))

