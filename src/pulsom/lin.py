"""Leaky-integrator map: per-unit membrane potentials accumulate negative
squared mismatch over the frames of a sequence.

The potential a_i decays geometrically (memory depth lambda) while each
frame subtracts half its squared distance to the unit's weights, so the
most-excited unit is the one with the best recent cumulative match.

What the map computes: from a reset, -2 a_i = q - 2 z·w_i + c ||w_i||²,
where z = sum_k lambda^k x_{t-k}, q = sum_k lambda^k ||x_{t-k}||² and c =
sum_k lambda^k.  That is c ||m - w_i||² plus a term the same for every
unit, m = z / c being the lambda-weighted mean of the frames so far, so
the most-excited unit is the unit nearest that mean.  Learning, though,
moves units toward the current frame (the temporal Kohonen map analysis:
Chappell & Taylor 1993; Varsta et al. 2001).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import EncodedFrames, SsomConfig
from .errors import DimensionMismatchError
from .som import Lattice, Schedule, TrainingLog, squared_distances, winner_or_none
from .ssom import FiringRecord, stdp_step, train_spiking
from .stdp import StdpRule


@dataclass
class PotentialState:
    """The leaky-integrator map's step object (see ``ssom.FiringStep``):
    per-unit potentials (always <= 0), shape batch + (n_units,), and the
    memory depth constant.

    lam is the discrete counterpart of a continuous exponential leak: a
    membrane decaying at rate r < 0 sampled every dt corresponds to
    lam = exp(r * dt).  Only lam is exposed.
    """

    a: np.ndarray
    lam: float

    def __post_init__(self):
        if not (0 <= self.lam <= 1):
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")

    @staticmethod
    def zeros(lattice: Lattice, lam: float, batch: tuple = ()) -> "PotentialState":
        return PotentialState(np.zeros(tuple(batch) + (lattice.n_units,)), lam)

    def reset(self) -> None:
        """Zero all potentials (sequence boundary); idempotent."""
        self.a[...] = 0.0

    def present(self, codes: EncodedFrames, i: int, lattice: Lattice, cfg: SsomConfig):
        """Step the potentials with the normalized values of frame i
        (``[..., i, :]``) and return ``potential_winners``."""
        update_potential(codes.normalized[..., i, :], lattice, self)
        return potential_winners(self, lattice, cfg)

    def learn(self, codes: EncodedFrames, i: int, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, gain: np.ndarray, rule: StdpRule) -> None:
        """The spiking map's ``stdp_step`` toward frame i of one sequence's codes."""
        stdp_step(codes.normalized[i], codes.spike_times[i], lattice, idx, t_post, gain, rule)


def update_potential(x, lattice: Lattice, state: PotentialState) -> None:
    """a_i <- lambda * a_i - (1/2) * ||x - w_i||^2 for every unit.

    x is one vector, or a stack of them, shape (batch, dim), that steps
    potentials of shape (batch, n_units).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (lattice.dim,):
        raise DimensionMismatchError(lattice.dim, x.shape[0] if x.ndim == 1 else x.shape)
    potential_step(state.a, squared_distances(x, lattice.weights), state.lam)


def potential_step(a: np.ndarray, d2: np.ndarray, lam: float) -> None:
    """a <- lam * a - d2 / 2 in place, for squared distances d2: the
    arithmetic of ``update_potential``, which inference also runs on
    gathered (sample, unit) pairs."""
    a *= lam
    a -= 0.5 * d2


def potential_latencies(a: np.ndarray, lam: float, dim: int, t_max: float) -> np.ndarray:
    """Firing latencies from potentials a under memory depth lam.

    The accumulated potential is rescaled by (1 - lambda) to estimate the
    effective per-frame penalty, then normalized by the worst single-frame
    penalty (dim/2 on normalized data) so a perfect steady match fires at 0.
    """
    eff = (1.0 - lam) * (-a)
    return t_max * (eff / (dim / 2.0)).clip(0.0, 1.0)


def potential_winners(state: PotentialState, lattice: Lattice,
                      cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray]:
    """Latencies and winners over potentials for every leading batch row:
    the winner is the most-excited unit (lowest flat index on ties)
    provided it fires within t_ref, otherwise -1.

    Latency falls monotonically as potential rises, so the most-excited
    unit fires first: it is silent exactly when every unit is.
    """
    times = potential_latencies(state.a, state.lam, lattice.dim, cfg.t_max)
    return times, winner_or_none(state.a.argmax(axis=-1), times, cfg.t_ref)


def potential_record(state: PotentialState, lattice: Lattice,
                     cfg: SsomConfig) -> FiringRecord:
    """``potential_winners`` of unbatched potentials, as a record whose
    winner is None when the most-excited unit is silent."""
    return FiringRecord.of(lattice, *potential_winners(state, lattice, cfg), cfg.t_ref)


def train_lin(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a ``models.LinModel`` on labeled sequences.

    Potentials reset at sequence boundaries; each frame updates them, the
    most-excited unit wins (gated by t_ref through its latency), and the
    gated units take an STDP step toward the current frame (see
    ``train_spiking``).
    """
    return train_spiking(data, model, schedule, seed)
