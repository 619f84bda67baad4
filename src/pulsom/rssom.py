"""Recurrent spiking map: leaky difference vectors give memory across the
frames of a sequence.

Each unit keeps y_i, an exponentially smoothed history of (input - weight);
winner selection and learning operate on y_i instead of the instantaneous
mismatch, so the map becomes sensitive to the order of recent frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import EncodedFrames, SsomConfig
from .errors import DimensionMismatchError
from .som import Lattice, Schedule, TrainingLog, mark_no_winner, neighborhood_array
from .ssom import FiringRecord, learning_gate, train_spiking
from .stdp import StdpRule, window_value_array


@dataclass
class DifferenceState:
    """The recurrent map's step object (see ``ssom.FiringStep``): per-unit
    leaked difference vectors y_i, shape batch + (n_units, dim), and the
    leaking coefficient."""

    y: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    @staticmethod
    def zeros(lattice: Lattice, alpha: float, batch: tuple = ()) -> "DifferenceState":
        return DifferenceState(np.zeros(tuple(batch) + lattice.weights.shape), alpha)

    def reset(self) -> None:
        """Clear all difference vectors (sequence boundary)."""
        self.y[...] = 0.0

    def present(self, codes: EncodedFrames, i: int, lattice: Lattice, cfg: SsomConfig):
        """Step y_i with the normalized values of frame i (``[..., i, :]``)
        and return ``difference_winners``."""
        update_difference(codes.normalized[..., i, :], lattice, self)
        return difference_winners(self, lattice, cfg)

    def learn(self, codes: EncodedFrames, i: int, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, h: np.ndarray, rule: StdpRule, lr_scale: float) -> None:
        """``window_step`` with the spike times of frame i of one sequence."""
        window_step(codes.spike_times[i], lattice, self, idx, t_post, h, rule, lr_scale)


def update_difference(x, lattice: Lattice, state: DifferenceState) -> None:
    """y_i <- (1 - alpha) * y_i + alpha * (x - m_i) for every unit.

    x is one vector, or a stack of them, shape (batch, dim), that steps a
    state of shape (batch, n_units, dim).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (lattice.dim,):
        raise DimensionMismatchError(lattice.dim, x.shape[0] if x.ndim == 1 else x.shape)
    a = state.alpha
    state.y *= 1.0 - a
    state.y += a * (x[..., None, :] - lattice.weights)


def difference_winners(state: DifferenceState, lattice: Lattice,
                       cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latencies, silent masks and winners over y_i for every leading batch
    row: the winner is the smallest-norm unit (lowest flat index on ties)
    if it fires within t_ref, otherwise -1 and the whole map counts as
    silent.  Latencies scale the squared difference norms (one einsum over
    the flat block, as in ``squared_distances``) like the spiking map's
    mismatch latencies (normalized data keeps them within t_max)."""
    flat = state.y.reshape(-1, state.y.shape[-1])
    n2 = np.einsum("ij,ij->i", flat, flat).reshape(state.y.shape[:-1])
    times = cfg.t_max * np.minimum(n2 / lattice.dim, 1.0)
    silent = times > cfg.t_ref
    return times, silent, mark_no_winner(n2.argmin(axis=-1), silent.all(axis=-1))


def difference_record(state: DifferenceState, lattice: Lattice,
                      cfg: SsomConfig) -> FiringRecord:
    """``difference_winners`` of an unbatched state, as a record whose
    winner is None when the whole map is silent."""
    return FiringRecord.of(lattice, *difference_winners(state, lattice, cfg))


def window_step(t_spike: np.ndarray, lattice: Lattice, state: DifferenceState,
                idx: np.ndarray, t_post: np.ndarray, h: np.ndarray, rule: StdpRule,
                lr_scale: float) -> None:
    """``rssom_learn`` of the gated units idx, which fired at t_post and have
    neighborhood values h (see ``ssom.stdp_step``)."""
    gain = (rule.eta * lr_scale * h)[:, None]
    dt = t_spike[None, :] - t_post[:, None]
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
    d = lattice.grid_distances(record.winner)
    idx = learning_gate(record.times, record.silent, d <= cfg.s_radius, cfg)
    window_step(e_spike_times, lattice, state, idx, record.times[idx],
                neighborhood_array(d[idx], cfg.s_radius), rule, lr_scale)


def train_rssom(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a ``models.RssomModel`` on labeled sequences.

    State resets at every sequence boundary; each frame updates the
    difference vectors, selects the winner from their magnitudes, applies
    the lateral kernel and takes a window-scaled step along y_i.  All-silent
    frames skip learning and are counted (see ``train_spiking``).
    """
    return train_spiking(data, model, schedule, seed)
