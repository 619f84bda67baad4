"""Recurrent spiking map: leaky difference vectors give memory across the
frames of a sequence.

Each unit keeps y_i, an exponentially smoothed history of (input - weight);
winner selection and learning operate on y_i instead of the instantaneous
mismatch, so the map becomes sensitive to the order of recent frames.

What the map computes: from a reset, y_i = z - c w_i, where z = alpha
sum_k (1 - alpha)^k x_{t-k} and c = alpha sum_k (1 - alpha)^k, summed over
the frames so far.  So y_i = c (m - w_i) points from w_i to the
alpha-weighted mean m = z / c of the frames, the winner (smallest
||y_i||) is the unit nearest that mean, and learning steps each unit
along y_i, toward the mean it is ranked by (the temporal Kohonen map /
recurrent SOM analysis: Chappell & Taylor 1993; Varsta et al. 2001).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import EncodedFrames, SsomConfig
from .errors import DimensionMismatchError
from .som import Lattice, Schedule, TrainingLog, neighborhood_array, winner_or_none
from .ssom import FiringRecord, learning_gate, train_spiking
from .stdp import StdpRule, window_magnitude


@dataclass
class DifferenceState:
    """The recurrent map's step object (see ``ssom.FiringStep``): per-unit
    leaked difference vectors y_i, shape (n_units, dim), and the leaking
    coefficient."""

    y: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    @staticmethod
    def zeros(lattice: Lattice, alpha: float) -> "DifferenceState":
        return DifferenceState(np.zeros(lattice.weights.shape), alpha)

    def reset(self) -> None:
        """Clear all difference vectors (sequence boundary)."""
        self.y[...] = 0.0

    def present(self, codes: EncodedFrames, i: int, lattice: Lattice, cfg: SsomConfig):
        """``update_difference`` with frame i, then ``difference_winners``."""
        update_difference(codes.normalized[i], lattice, self)
        return difference_winners(self, lattice, cfg)

    def learn(self, codes: EncodedFrames, i: int, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, gain: np.ndarray, rule: StdpRule) -> None:
        """``window_step`` with the spike times of frame i of one sequence."""
        window_step(codes.spike_times[i], lattice, self, idx, t_post, gain, rule)


def update_difference(x, lattice: Lattice, state: DifferenceState) -> None:
    """y_i <- (1 - alpha) * y_i + alpha * (x - m_i) for every unit, x one
    vector of shape (dim,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lattice.dim,):
        raise DimensionMismatchError(lattice.dim, x.shape[0] if x.ndim == 1 else x.shape)
    difference_step(state.y, x, lattice.weights, state.alpha)


def difference_step(y: np.ndarray, x: np.ndarray, w: np.ndarray, alpha: float) -> None:
    """y <- (1 - alpha) * y + alpha * (x - w) in place, elementwise over
    broadcast x and w: the arithmetic of ``update_difference``, which
    inference also runs on gathered (sample, unit) rows."""
    step = x - w
    step *= alpha
    y *= 1.0 - alpha
    y += step


def difference_latencies(n2: np.ndarray, dim: int, t_max: float) -> np.ndarray:
    """Firing latencies from squared difference norms n2: t_max * n2 / dim,
    capped at t_max."""
    return t_max * np.minimum(n2 / dim, 1.0)


def difference_winners(state: DifferenceState, lattice: Lattice,
                       cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray]:
    """Latencies and winners over y_i, of shape (..., n_units, dim): the
    winner is the smallest-norm unit (lowest flat index on ties) if it
    fires within t_ref, otherwise -1 and the whole map counts as silent.
    Latencies scale the squared difference norms (one einsum over the flat
    block, as in ``squared_distances``) like the spiking map's mismatch
    latencies (normalized data keeps them within t_max), so the
    smallest-norm unit fires first."""
    flat = state.y.reshape(-1, state.y.shape[-1])
    n2 = np.einsum("ij,ij->i", flat, flat).reshape(state.y.shape[:-1])
    times = difference_latencies(n2, lattice.dim, cfg.t_max)
    return times, winner_or_none(n2.argmin(axis=-1), times, cfg.t_ref)


def difference_record(state: DifferenceState, lattice: Lattice,
                      cfg: SsomConfig) -> FiringRecord:
    """``difference_winners`` of a step object, as a record whose
    winner is None when the whole map is silent."""
    return FiringRecord.of(lattice, *difference_winners(state, lattice, cfg), cfg.t_ref)


def window_step(t_spike: np.ndarray, lattice: Lattice, state: DifferenceState,
                idx: np.ndarray, t_post: np.ndarray, gain: np.ndarray,
                rule: StdpRule) -> None:
    """``rssom_learn`` of the gated units idx, which fired at t_post and have
    learning gains gain (one column, see ``ssom.area_rows``): each steps
    by gain * eta * |window| along its y_i, eta applied to the gain column."""
    dt = t_spike - t_post[:, None]
    scale = window_magnitude(dt, rule.window)
    scale[dt == 0] = 0.0    # |window|, which is 0 at coincidence
    stepped = (lattice.weights.take(idx, axis=0)
               + gain * rule.eta * scale * state.y.take(idx, axis=0))
    lattice.weights[idx] = stepped.clip(0.0, rule.w_max)


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
    d = lattice.grid_distances(record.winner)
    idx = learning_gate(record.times, record.silent, d <= cfg.s_radius, cfg)
    window_step(e_spike_times, lattice, state, idx, record.times[idx],
                (lr_scale * neighborhood_array(d[idx], cfg.s_radius))[:, None], rule)


def train_rssom(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a ``models.RssomModel`` on labeled sequences.

    State resets at every sequence boundary; each frame updates the
    difference vectors, selects the winner from their magnitudes, applies
    the lateral kernel and takes a window-scaled step along y_i.  All-silent
    frames skip learning and are counted (see ``train_spiking``).
    """
    return train_spiking(data, model, schedule, seed)
