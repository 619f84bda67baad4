"""Recurrent spiking map: leaky difference vectors give memory across the
frames of a sequence.

Each unit keeps y_i, an exponentially smoothed history of (input - weight);
winner selection and learning operate on y_i instead of the instantaneous
mismatch, so the map becomes sensitive to the order of recent frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import SsomConfig
from .errors import DimensionMismatchError
from .som import Lattice, Schedule, TrainingLog, UnitIndex, neighborhood_array
from .ssom import FiringRecord, LateralKernel, gate_tables, learning_gate, train_spiking
from .stdp import StdpRule, window_value_array


@dataclass
class DifferenceState:
    """Per-unit leaked difference vectors y_i and the leaking coefficient."""

    y: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    @staticmethod
    def zeros(lattice: Lattice, alpha: float) -> "DifferenceState":
        return DifferenceState(np.zeros_like(lattice.weights), alpha)


def update_difference(x, lattice: Lattice, state: DifferenceState) -> None:
    """y_i <- (1 - alpha) * y_i + alpha * (x - m_i) for every unit."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lattice.dim,):
        raise DimensionMismatchError(lattice.dim, x.shape[0] if x.ndim == 1 else x.shape)
    a = state.alpha
    state.y *= 1.0 - a
    state.y += a * (x - lattice.weights)


def rsom_bmu(state: DifferenceState, lattice: Lattice) -> UnitIndex:
    """Unit with the smallest difference-vector norm; ties to lowest flat index."""
    n2 = np.einsum("ij,ij->i", state.y, state.y)
    return lattice.unit(int(np.argmin(n2)))


def rsom_update(lattice: Lattice, state: DifferenceState, bmu: UnitIndex,
                lr: float, radius: float) -> None:
    """Move each weight along its own difference vector, gated by the
    neighborhood of the BMU."""
    if not (0.0 <= lr <= 1.0):
        raise ValueError(f"lr must be in [0, 1], got {lr}")
    if state.y.shape != lattice.weights.shape:
        raise DimensionMismatchError(lattice.weights.shape, state.y.shape)
    if lr == 0.0:
        return
    h = neighborhood_array(lattice.grid_distances(bmu), radius)
    lattice.weights += (lr * h)[:, None] * state.y


def reset_state(state: DifferenceState) -> None:
    """Clear all difference vectors (sequence boundary)."""
    state.y[:] = 0.0


def difference_latencies(state: DifferenceState, dim: int, t_max: float) -> np.ndarray:
    """Firing latencies from difference magnitudes, scaled like the spiking
    map's mismatch latencies (normalized data keeps them within t_max)."""
    n2 = np.einsum("ij,ij->i", state.y, state.y)
    return t_max * np.minimum(n2 / dim, 1.0)


def difference_record(state: DifferenceState, lattice: Lattice,
                      cfg: SsomConfig) -> FiringRecord:
    """Latency record over y_i; winner is the smallest-norm unit if it fires
    within t_ref, otherwise the whole map counts as silent."""
    times = difference_latencies(state, lattice.dim, cfg.t_max)
    silent = times > cfg.t_ref
    if np.all(silent):
        return FiringRecord(times, silent, None)
    winner = rsom_bmu(state, lattice)
    return FiringRecord(times, silent, winner)


def window_step(t_spike: np.ndarray, lattice: Lattice, state: DifferenceState,
                record: FiringRecord, spatial: np.ndarray, h: np.ndarray,
                cfg: SsomConfig, rule: StdpRule, lr_scale: float) -> None:
    """``rssom_learn`` given the winner's rows of ``gate_tables``."""
    idx = learning_gate(record, spatial, cfg)
    if idx.size == 0:
        return
    gain = (rule.eta * lr_scale * h[idx])[:, None]
    dt = t_spike[None, :] - record.times[idx][:, None]
    scale = np.abs(window_value_array(dt, rule.window))
    stepped = lattice.weights[idx] + gain * scale * state.y[idx]
    lattice.weights[idx] = np.clip(stepped, 0.0, rule.w_max)


def rssom_learn(e_spike_times: np.ndarray, lattice: Lattice, state: DifferenceState,
                record: FiringRecord, cfg: SsomConfig, rule: StdpRule,
                lr_scale: float) -> None:
    """Recurrent-map weight step along y_i, scaled per synapse by the STDP
    window magnitude.

    The window acts as a temporal-proximity weight here: spikes close to the
    unit's firing time drive the largest step along the difference vector.
    The branch forms of the weight-space rules have no y-space analog, so
    only |window| is used.
    """
    if record.winner is None or lr_scale == 0.0:
        return
    spatial, h = gate_tables(lattice.grid_distances(record.winner), cfg.s_radius)
    window_step(e_spike_times, lattice, state, record, spatial, h, cfg, rule, lr_scale)


def train_rssom(data, lattice: Lattice, schedule: Schedule, cfg: SsomConfig,
                rule: StdpRule, alpha: float, seed: int,
                kernel: LateralKernel | None = None,
                lo: np.ndarray | None = None,
                hi: np.ndarray | None = None) -> TrainingLog:
    """Train the recurrent spiking map on labeled sequences.

    State resets at every sequence boundary; each frame updates the
    difference vectors, selects the winner from their magnitudes, applies
    the lateral kernel and takes a window-scaled step along y_i.  All-silent
    frames skip learning and are counted (see ``train_spiking``).
    """
    state = DifferenceState.zeros(lattice, alpha)

    def fire(seq, i):
        update_difference(seq.normalized[i], lattice, state)
        return difference_record(state, lattice, cfg)

    def learn(seq, i, record, spatial, h, lr):
        window_step(seq.spike_times[i], lattice, state, record, spatial, h, cfg, rule, lr)

    return train_spiking("RSSOM", data, lattice, schedule, cfg, kernel, lo, hi, seed,
                         lambda: reset_state(state), fire, learn)
