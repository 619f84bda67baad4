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
from .errors import DimensionMismatchError, check_positive
from .som import (
    EpochStats,
    Lattice,
    Schedule,
    TrainingLog,
    UnitIndex,
    check_finite,
    frames_of,
    linear_decay,
    mark_no_winner,
    neighborhood_array,
    quantization_error,
    sample_vectors,
    squared_distances,
)
from .stdp import StdpRule, apply_rule_array


@dataclass
class LateralKernel:
    """Mexican-hat lateral interaction on firing times.

    Units within excite_radius of the winner are pulled toward its firing
    time; units beyond it are delayed by inhibit_gain ms per lattice unit
    beyond the radius.  excite_radius=None tracks the decayed schedule
    radius during training.
    """

    excite_radius: float | None = None
    excite_gain: float = 0.5
    inhibit_gain: float = 0.1

    def __post_init__(self):
        if self.excite_radius is not None:
            check_positive(self, "excite_radius")
            if not self.excite_radius * self.excite_radius > 0:     # the kernel divides by it
                raise ValueError(f"excite_radius {self.excite_radius} must have a positive "
                                 "square")
        check_positive(self, "excite_gain", "inhibit_gain")


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


def feature_ranges(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension min/max over every frame of every sequence."""
    stacked = sample_vectors(sequences, concat=False)
    return stacked.min(axis=0), stacked.max(axis=0)


def normalized_init(rows: int, cols: int, sequences, seed: int) -> Lattice:
    """Random lattice in the normalized [0, 1] feature space of the data."""
    stacked = sample_vectors(sequences, concat=False)
    norm = normalize(stacked, stacked.min(axis=0), stacked.max(axis=0))
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


def lateral_tables(d: np.ndarray,
                   kernel: LateralKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lateral kernel by lattice distance d to the winner: the mask of
    units within the excitation radius, their pull factor toward the
    winner's firing time, and the delay of the units beyond it.

    d holds lattice distances to the winner, of any shape.
    """
    r = kernel.excite_radius
    near = d <= r
    factor = np.clip(kernel.excite_gain * np.exp(-(d * d) / (2.0 * r * r)), 0.0, 1.0)
    delay = kernel.inhibit_gain * (d - r)
    return near, factor, delay


def lateral_step(times: np.ndarray, silent: np.ndarray, w: int, near: np.ndarray,
                 factor: np.ndarray, delay: np.ndarray,
                 cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray]:
    """``apply_lateral`` on the firing times and silent mask of a
    presentation won by flat unit w, given w's rows of ``lateral_tables``."""
    active = ~silent
    active[w] = False
    pull = active & near
    push = active & ~near
    times = np.where(pull, times + factor * (times[w] - times), times)
    times = np.where(push, np.minimum(times + delay, cfg.t_max), times)
    return times, silent | (push & (times > cfg.t_ref))


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
    tables = lateral_tables(lattice.grid_distances(record.winner), kernel)
    times, silent = lateral_step(record.times, record.silent, record.winner.flat, *tables, cfg)
    return FiringRecord(times, silent, record.winner)


def learning_gate(times: np.ndarray, silent: np.ndarray, spatial: np.ndarray,
                  cfg: SsomConfig) -> np.ndarray:
    """Flat indices of the units that learn: firing within t_ref and inside
    the winner's spatial area (the mask ``spatial``)."""
    return np.flatnonzero((~silent) & (times <= cfg.t_ref) & spatial)


def area_rows(dist: np.ndarray, radius: float, kernel: LateralKernel) -> list[tuple]:
    """Entry u: the units within ``radius`` of unit u (ascending flat order),
    with their ``lateral_tables`` and neighborhood values from dist's rows."""
    area = dist <= radius
    d = dist[area]
    tables = (np.nonzero(area)[1], *lateral_tables(d, kernel), neighborhood_array(d, radius))
    return list(zip(*(np.split(a, np.cumsum(area.sum(axis=1))[:-1]) for a in tables)))


def area_step(times: np.ndarray, silent: np.ndarray, w: int, rows: tuple,
              cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lateral_step`` and ``learning_gate`` of a win by flat unit w on its
    ``area_rows`` entry: the learning units, their times and h values."""
    # The same bits as on the whole lattice: present recomputes every time,
    # so the kernel's result outside the area is never read; the winner lies
    # in its own spatial and excitation areas, so its pull t + f * 0 leaves
    # it unchanged (f is finite, as both radii have positive squares); and
    # t <= t_ref already drops a unit inhibition silences.
    area, near, factor, delay, h = rows
    t = times[area]
    t = np.where(near, t + factor * (times[w] - t), np.minimum(t + delay, cfg.t_max))
    g = (t <= cfg.t_ref) & ~silent[area]
    return area[g], t[g], h[g]


def stdp_step(v: np.ndarray, t_spike: np.ndarray, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, h: np.ndarray, rule: StdpRule, lr_scale: float) -> None:
    """STDP toward the normalized input v, with spike times t_spike, of the
    gated units idx that fired at t_post, with neighborhood values h."""
    gain = (lr_scale * h)[:, None]
    dt = t_spike - t_post[:, None]
    lattice.weights[idx] = apply_rule_array(lattice.weights[idx], v[None, :], dt, rule, gain)


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
    d = lattice.grid_distances(record.winner)
    idx = learning_gate(record.times, record.silent, d <= cfg.s_radius, cfg)
    stdp_step(decode_latency(e), e.spike_times, lattice, idx, record.times[idx],
              neighborhood_array(d[idx], cfg.s_radius), rule, lr_scale)


class FiringStep:
    """The spiking map's step object, which keeps no state between frames.

    A step object is what ``train_spiking`` and the models' winner tables
    drive: reset() at each sequence start, present(codes, i, lattice, cfg)
    to step frame i of one sequence's ``EncodedFrames`` (or of a stacked
    block, through ``[..., i, :]``) to (times, silent, winners), and
    learn(codes, i, lattice, idx, t_post, h, rule, lr_scale) for the
    learning step of the gated units idx.  ``rssom.DifferenceState`` and
    ``lin.PotentialState`` are the recurrent maps' step objects.
    """

    def reset(self) -> None:
        """Sequence boundary: nothing to clear."""

    def present(self, codes: EncodedFrames, i: int, lattice: Lattice, cfg: SsomConfig):
        """``firing_winners`` of the decoded values of frame i."""
        return firing_winners(codes.decoded[..., i, :], lattice, cfg)

    def learn(self, codes: EncodedFrames, i: int, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, h: np.ndarray, rule: StdpRule, lr_scale: float) -> None:
        """``stdp_step`` toward frame i of one sequence's codes."""
        stdp_step(codes.decoded[i], codes.spike_times[i], lattice, idx, t_post, h, rule,
                  lr_scale)


def train_spiking(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a spiking model in place: the epoch loop of the spiking
    trainers, driving the model's step object ``model.state(())`` (see
    ``FiringStep``) with the model's lattice, encoding ranges, cfg, lateral
    kernel and STDP rule.

    Every frame is coded once per run and the ``area_rows`` tables are
    gathered once per epoch.  Sequence order is reshuffled each epoch from
    the seed, and the state is reset at each sequence start.  Presentations
    where every unit stays silent (winner -1) are skipped and counted;
    otherwise ``area_step`` applies the lateral kernel on the flat winner's
    spatial area, and the units inside its learning gate learn.
    Quantization error is logged per epoch on the decoded (de-normalized)
    weights against the raw frames.
    """
    lattice, lo, hi = model.lattice, model.lo, model.hi
    cfg, kernel, rule = model.cfg, model.kernel, model.rule
    state = model.state(())
    sequences = [frames_of(s) for s in data]
    all_frames = sample_vectors(sequences, concat=False)
    codes = [encode_frames(s, lo, hi, cfg.t_max, lattice.dim) for s in sequences]
    span = hi - lo
    rng = np.random.default_rng(seed)
    log = TrainingLog(model=model.kind)
    for t in range(schedule.epochs):
        lr, radius = linear_decay(t, schedule)
        kernel_t = kernel if kernel.excite_radius is not None else replace(kernel, excite_radius=radius)
        rows = area_rows(lattice.distance_table(), radius, kernel_t)
        skipped = 0
        for si in rng.permutation(len(sequences)):
            state.reset()
            seq = codes[si]
            for i in range(seq.spike_times.shape[0]):
                times, silent, w = state.present(seq, i, lattice, cfg)
                if w < 0:
                    skipped += 1
                    continue
                idx, t_post, h = area_step(times, silent, w, rows[w], cfg)
                state.learn(seq, i, lattice, idx, t_post, h, rule, lr)
        del rows    # freed before the next epoch gathers its own: a lower peak
        check_finite(lattice, t)
        decoded = Lattice(lattice.rows, lattice.cols,
                          lo + np.clip(lattice.weights, 0.0, 1.0) * span, lattice.rng_seed)
        log.rows.append(EpochStats(t, lr, radius, quantization_error(all_frames, decoded),
                                   skipped))
    return log


def train_ssom(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a ``models.SsomModel`` on sequence samples, frame by frame.

    Frames are presented one at a time in sequence order with no state kept
    between them (see ``train_spiking`` for the epoch loop).
    """
    return train_spiking(data, model, schedule, seed)
