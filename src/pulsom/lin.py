"""Leaky-integrator map: per-unit membrane potentials accumulate negative
squared mismatch over the frames of a sequence.

The potential a_i decays geometrically (memory depth lambda) while each
frame subtracts half its squared distance to the unit's weights, so the
most-excited unit is the one with the best recent cumulative match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import SsomConfig
from .errors import DimensionMismatchError
from .som import Lattice, Schedule, TrainingLog, UnitIndex
from .ssom import FiringRecord, LateralKernel, stdp_step, train_spiking
from .stdp import StdpRule


@dataclass
class PotentialState:
    """Per-unit potentials (always <= 0) and the memory depth constant.

    lam is the discrete counterpart of a continuous exponential leak: a
    membrane decaying at rate r < 0 sampled every dt corresponds to
    lam = exp(r * dt).  Only lam is exposed.
    """

    a: np.ndarray
    lam: float
    scale_input_by_lambda: bool = False

    def __post_init__(self):
        if not (0 <= self.lam <= 1):
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")

    @staticmethod
    def zeros(lattice: Lattice, lam: float, scale_input_by_lambda: bool = False) -> "PotentialState":
        return PotentialState(np.zeros(lattice.n_units), lam, scale_input_by_lambda)


def update_potential(x, lattice: Lattice, state: PotentialState) -> None:
    """a_i <- lambda * a_i - (1/2) * ||x - w_i||^2 for every unit.

    With scale_input_by_lambda the matching term is multiplied by lambda as
    well (an alternative reading of the recurrence; off by default).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (lattice.dim,):
        raise DimensionMismatchError(lattice.dim, x.shape[0] if x.ndim == 1 else x.shape)
    delta = lattice.weights - x
    penalty = 0.5 * np.einsum("ij,ij->i", delta, delta)
    if state.scale_input_by_lambda:
        penalty = state.lam * penalty
    state.a *= state.lam
    state.a -= penalty


def lin_bmu(state: PotentialState, lattice: Lattice) -> UnitIndex:
    """Most-excited unit (largest potential); ties to lowest flat index."""
    return lattice.unit(int(np.argmax(state.a)))


def reset_potentials(state: PotentialState) -> None:
    """Zero all potentials (sequence boundary); idempotent."""
    state.a[:] = 0.0


def potential_latencies(state: PotentialState, dim: int, t_max: float) -> np.ndarray:
    """Firing latencies from potentials.

    The accumulated potential is rescaled by (1 - lambda) to estimate the
    effective per-frame penalty, then normalized by the worst single-frame
    penalty (dim/2 on normalized data) so a perfect steady match fires at 0.
    """
    eff = (1.0 - state.lam) * (-state.a)
    return t_max * np.clip(eff / (dim / 2.0), 0.0, 1.0)


def potential_record(state: PotentialState, lattice: Lattice,
                     cfg: SsomConfig) -> FiringRecord:
    """Latency record over potentials; the winner is the most-excited unit
    provided it fires within t_ref."""
    times = potential_latencies(state, lattice.dim, cfg.t_max)
    winner = lin_bmu(state, lattice)
    silent = times > cfg.t_ref
    if silent[winner.flat]:
        return FiringRecord(times, silent, None)
    return FiringRecord(times, silent, winner)


def train_lin(data, lattice: Lattice, schedule: Schedule, cfg: SsomConfig,
              rule: StdpRule, lam: float, seed: int,
              kernel: LateralKernel | None = None,
              lo: np.ndarray | None = None,
              hi: np.ndarray | None = None,
              scale_input_by_lambda: bool = False) -> TrainingLog:
    """Train the leaky-integrator map on labeled sequences.

    Potentials reset at sequence boundaries; each frame updates them, the
    most-excited unit wins (gated by t_ref through its latency), and the
    gated units take an STDP step toward the current frame (see
    ``train_spiking``).
    """
    state = PotentialState.zeros(lattice, lam, scale_input_by_lambda)

    def fire(seq, i):
        update_potential(seq.normalized[i], lattice, state)
        return potential_record(state, lattice, cfg)

    def learn(seq, i, record, spatial, h, lr):
        stdp_step(seq.decoded[i], seq.spike_times[i], lattice, record, spatial, h, cfg, rule, lr)

    return train_spiking("LIN", data, lattice, schedule, cfg, kernel, lo, hi, seed,
                         lambda: reset_potentials(state), fire, learn)
