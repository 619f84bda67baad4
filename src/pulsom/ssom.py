"""Spiking self-organizing map: earliest-firing winner selection, lateral
firing-time interactions, and STDP weight adaptation gated by a spatial
area and a temporal reference window.

Weights live in normalized feature space [0, 1]; inputs arrive as latency
codes.  A unit's candidate firing time grows with its mean squared mismatch
against the input, so the best-matching unit fires first and the spiking
winner coincides with the classic BMU.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coding import (EncodedFrames, EncodedInput, SsomConfig, decode_latency, encode_frames,
                     normalize)
from .errors import DimensionMismatchError
from .som import (
    EpochStats,
    Lattice,
    Schedule,
    TrainingLog,
    UnitIndex,
    check_finite,
    linear_decay,
    mark_no_winner,
    neighborhood_array,
    quantization_error,
    squared_distances,
)
from .stdp import StdpRule, apply_rule_array


@dataclass
class LateralKernel:
    """Mexican-hat lateral interaction on firing times.

    Units within excite_radius of the winner are pulled toward its firing
    time; units beyond it are delayed.  excite_radius=None tracks the
    decayed schedule radius during training.
    """

    excite_radius: float | None = None
    excite_gain: float = 0.5
    inhibit_gain: float = 0.1

    def __post_init__(self):
        if self.excite_radius is not None and self.excite_radius <= 0:
            raise ValueError(f"excite_radius must be positive, got {self.excite_radius}")
        if self.excite_gain <= 0 or self.inhibit_gain <= 0:
            raise ValueError("lateral gains must be positive")


@dataclass
class FiringRecord:
    """Per-unit firing times for one presentation; silent units carry no spike."""

    times: np.ndarray
    silent: np.ndarray
    winner: UnitIndex | None

    @staticmethod
    def of(lattice: Lattice, times: np.ndarray, silent: np.ndarray,
           winner) -> "FiringRecord":
        """The record of one presentation from a winner rule's output
        (flat winner index, -1 for none)."""
        return FiringRecord(times, silent, lattice.winner(winner))


def frames_of(sample) -> np.ndarray:
    """Frames of a sequence sample (or a bare (n_frames, dim) array)."""
    return np.asarray(getattr(sample, "frames", sample), dtype=np.float64)


def feature_ranges(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension min/max over every frame of every sequence."""
    stacked = np.concatenate([frames_of(s) for s in sequences], axis=0)
    return stacked.min(axis=0), stacked.max(axis=0)


def normalized_init(rows: int, cols: int, sequences, seed: int) -> Lattice:
    """Random lattice in the normalized [0, 1] feature space of the data."""
    lo, hi = feature_ranges(sequences)
    stacked = np.concatenate([frames_of(s) for s in sequences], axis=0)
    norm = normalize(stacked, lo, hi)
    return Lattice.random_init(rows, cols, norm, seed)


def mismatch_latencies(v: np.ndarray, lattice: Lattice, t_max: float) -> np.ndarray:
    """Candidate firing times: t_max times the per-dimension mean squared
    mismatch between the normalized input and the (clamped) weights.

    v is one vector or a stack of them, shape (..., dim); the times have
    shape v.shape[:-1] + (n_units,).
    """
    w = np.clip(lattice.weights, 0.0, 1.0)
    msd = squared_distances(np.asarray(v, dtype=np.float64), w) / lattice.dim
    return t_max * msd


def firing_winners(v: np.ndarray, lattice: Lattice,
                   cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Firing times, silent masks and earliest-firing winners of normalized
    inputs v, shape (..., dim).

    Units whose candidate firing time exceeds t_ref stay silent; the winner
    is the earliest firing unit (lowest flat index on ties), or -1 where the
    entire map is silent.  The earliest unit fires unless every unit is
    silent, so it is the earliest of all candidate times.
    """
    times = mismatch_latencies(v, lattice, cfg.t_max)
    silent = times > cfg.t_ref
    return times, silent, mark_no_winner(times.argmin(axis=-1), silent.all(axis=-1))


def compute_firing_times(e: EncodedInput, lattice: Lattice, cfg: SsomConfig) -> FiringRecord:
    """Latency-based winner selection over the whole lattice: the
    ``FiringRecord`` of the vector decoded from the spike times."""
    if e.spike_times.shape[0] != lattice.dim:
        raise DimensionMismatchError(lattice.dim, e.spike_times.shape[0])
    return FiringRecord.of(lattice, *firing_winners(decode_latency(e), lattice, cfg))


def lateral_tables(d: np.ndarray, kernel: LateralKernel,
                   sim_step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lateral kernel by lattice distance d to the winner: the mask of
    units within the excitation radius, their pull factor toward the
    winner's firing time, and the delay of the units beyond it.

    d is one winner's distance row, or the whole distance table (row w
    then serves winner w).
    """
    r = kernel.excite_radius
    near = d <= r
    factor = np.clip(kernel.excite_gain * np.exp(-(d * d) / (2.0 * r * r)), 0.0, 1.0)
    delay = kernel.inhibit_gain * (d - r) * sim_step
    return near, factor, delay


def gate_tables(d: np.ndarray, s_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The spatial learning gate by lattice distance d to the winner (row or
    whole table, as in ``lateral_tables``) and the neighborhood kernel that
    scales the learning rate inside it."""
    return d <= s_radius, neighborhood_array(d, s_radius)


def lateral_step(record: FiringRecord, near: np.ndarray, factor: np.ndarray,
                 delay: np.ndarray, cfg: SsomConfig) -> FiringRecord:
    """``apply_lateral`` given the winner's rows of ``lateral_tables``."""
    w = record.winner.flat
    times, silent = record.times, record.silent
    active = ~silent
    active[w] = False
    pull = active & near
    push = active & ~near
    times = np.where(pull, times + factor * (times[w] - times), times)
    times = np.where(push, np.minimum(times + delay, cfg.t_max), times)
    return FiringRecord(times, silent | (push & (times > cfg.t_ref)), record.winner)


def apply_lateral(record: FiringRecord, kernel: LateralKernel, lattice: Lattice,
                  cfg: SsomConfig) -> FiringRecord:
    """Pull nearby firing times toward the winner's; delay remote ones.

    The winner itself is untouched.  Delayed units are capped at t_max and
    re-checked against t_ref, so inhibition can silence them.
    """
    if record.winner is None:
        raise ValueError("apply_lateral requires a record with a winner")
    if kernel.excite_radius is None:
        raise ValueError("excite_radius must be resolved before applying the kernel")
    d = lattice.grid_distances(record.winner)
    return lateral_step(record, *lateral_tables(d, kernel, cfg.sim_step), cfg)


def learning_gate(record: FiringRecord, spatial: np.ndarray, cfg: SsomConfig) -> np.ndarray:
    """Flat indices of the units that learn: firing within t_ref and inside
    the winner's spatial area (``spatial``, its row of ``gate_tables``)."""
    return np.flatnonzero((~record.silent) & (record.times <= cfg.t_ref) & spatial)


def stdp_step(v: np.ndarray, t_spike: np.ndarray, lattice: Lattice, record: FiringRecord,
              spatial: np.ndarray, h: np.ndarray, cfg: SsomConfig, rule: StdpRule,
              lr_scale: float) -> None:
    """``ssom_learn`` given the normalized input v, its spike times and the
    winner's rows of ``gate_tables``."""
    idx = learning_gate(record, spatial, cfg)
    if idx.size == 0:
        return
    gain = (lr_scale * h[idx])[:, None]
    dt = t_spike[None, :] - record.times[idx][:, None]
    w = lattice.weights[idx]
    lattice.weights[idx] = apply_rule_array(w, v[None, :], dt, rule, gain)


def ssom_learn(e: EncodedInput, lattice: Lattice, record: FiringRecord,
               cfg: SsomConfig, rule: StdpRule, lr_scale: float) -> None:
    """STDP adaptation of the units inside the spatial and temporal gates.

    For each gated unit and each input component, the spike-time difference
    (input spike minus unit firing) drives the configured plasticity rule;
    the effective learning rate is scaled by the neighborhood kernel around
    the winner.
    """
    if record.winner is None or lr_scale == 0.0:
        return
    spatial, h = gate_tables(lattice.grid_distances(record.winner), cfg.s_radius)
    stdp_step(decode_latency(e), e.spike_times, lattice, record, spatial, h, cfg, rule, lr_scale)


class FiringStep:
    """The spiking map's step object, which keeps no state between frames.

    A step object is what ``train_spiking`` and the models' winner tables
    drive: reset() at each sequence start, present(codes, i, lattice, cfg)
    to step frame i of one sequence's ``EncodedFrames`` (or of a stacked
    block, through ``[..., i, :]``) to (times, silent, winners), and
    learn(...) for the learning step.  ``rssom.DifferenceState`` and
    ``lin.PotentialState`` are the recurrent maps' step objects.
    """

    def reset(self) -> None:
        """Sequence boundary: nothing to clear."""

    def present(self, codes: EncodedFrames, i: int, lattice: Lattice, cfg: SsomConfig):
        """``firing_winners`` of the decoded values of frame i."""
        return firing_winners(codes.decoded[..., i, :], lattice, cfg)

    def learn(self, codes: EncodedFrames, i: int, lattice: Lattice, record: FiringRecord,
              spatial: np.ndarray, h: np.ndarray, cfg: SsomConfig, rule: StdpRule,
              lr_scale: float) -> None:
        """``stdp_step`` toward frame i of one sequence's codes."""
        stdp_step(codes.decoded[i], codes.spike_times[i], lattice, record, spatial, h, cfg,
                  rule, lr_scale)


def train_spiking(model: str, data, lattice: Lattice, schedule: Schedule, cfg: SsomConfig,
                  kernel: LateralKernel | None, lo: np.ndarray | None, hi: np.ndarray | None,
                  seed: int, state, rule: StdpRule) -> TrainingLog:
    """The epoch loop of the spiking trainers, driving one step object
    (see ``FiringStep``).

    Every frame is coded once per run and the lateral and gate tables are
    built once per epoch.  Sequence order is reshuffled each epoch from the
    seed, and the state is reset at each sequence start.  Presentations
    where every unit stays silent are skipped and counted; otherwise the
    lateral kernel is applied and the state learns with the winner's gate
    rows.
    Quantization error is logged per epoch on the decoded (de-normalized)
    weights against the raw frames.
    """
    if kernel is None:
        kernel = LateralKernel()
    sequences = [frames_of(s) for s in data]
    if not sequences:
        raise ValueError("training data must be non-empty")
    if lo is None or hi is None:
        lo, hi = feature_ranges(sequences)
    codes = [encode_frames(s, lo, hi, cfg.t_max, lattice.dim) for s in sequences]
    all_frames = np.concatenate(sequences, axis=0)
    span = hi - lo
    dist = lattice.distance_table()
    rng = np.random.default_rng(seed)
    log = TrainingLog(model=model)
    for t in range(schedule.epochs):
        lr, radius = linear_decay(t, schedule)
        kernel_t = kernel if kernel.excite_radius is not None else replace(kernel, excite_radius=radius)
        near, factor, delay = lateral_tables(dist, kernel_t, cfg.sim_step)
        spatial, h = gate_tables(dist, radius)
        skipped = 0
        for si in rng.permutation(len(sequences)):
            state.reset()
            seq = codes[si]
            for i in range(seq.spike_times.shape[0]):
                rec = FiringRecord.of(lattice, *state.present(seq, i, lattice, cfg))
                if rec.winner is None:
                    skipped += 1
                    continue
                w = rec.winner.flat
                rec = lateral_step(rec, near[w], factor[w], delay[w], cfg)
                state.learn(seq, i, lattice, rec, spatial[w], h[w], cfg, rule, lr)
        check_finite(lattice, t)
        decoded = Lattice(lattice.rows, lattice.cols,
                          lo + np.clip(lattice.weights, 0.0, 1.0) * span, lattice.rng_seed)
        log.rows.append(EpochStats(t, lr, radius, quantization_error(all_frames, decoded),
                                   skipped))
    return log


def train_ssom(data, lattice: Lattice, schedule: Schedule, cfg: SsomConfig,
               rule: StdpRule, seed: int,
               kernel: LateralKernel | None = None,
               lo: np.ndarray | None = None,
               hi: np.ndarray | None = None) -> TrainingLog:
    """Train the spiking map on sequence samples, frame by frame.

    Frames are presented one at a time in sequence order with no state kept
    between them (see ``train_spiking`` for the epoch loop).
    """
    return train_spiking("SSOM", data, lattice, schedule, cfg, kernel, lo, hi, seed,
                         FiringStep(), rule)
