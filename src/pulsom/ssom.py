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

from .coding import EncodedFrames, SsomConfig, encode_frames, normalize
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
    neighborhood_array,
    quantization_error,
    sample_vectors,
    squared_distances,
    winner_or_none,
)
from .stdp import StdpRule, apply_rule_array


@dataclass
class LateralKernel:
    """Mexican-hat lateral interaction on firing times.

    Units within excite_radius of the winner are pulled toward its firing
    time; units beyond it are delayed by inhibit_gain ms per lattice unit
    beyond the radius.  excite_radius=None tracks the decayed schedule
    radius during training, which is the learning area's radius too, so no
    unit that can learn is delayed and inhibit_gain changes no result.
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
    def of(lattice: Lattice, times: np.ndarray, winner, t_ref: float) -> "FiringRecord":
        """The record of one presentation from a winner rule's output
        (flat winner index, -1 for none): units firing after t_ref are
        silent."""
        return FiringRecord(times, times > t_ref, lattice.winner(winner))


def feature_ranges(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension min/max over every frame of every sequence."""
    stacked = sample_vectors(sequences, concat=False)
    return stacked.min(axis=0), stacked.max(axis=0)


def normalized_init(rows: int, cols: int, sequences, seed: int) -> Lattice:
    """Random lattice in the normalized [0, 1] feature space of the data."""
    stacked = sample_vectors(sequences, concat=False)
    norm = normalize(stacked, stacked.min(axis=0), stacked.max(axis=0))
    return Lattice.random_init(rows, cols, norm, seed)


def clamped(lattice: Lattice) -> Lattice:
    """The lattice with its weights clamped to [0, 1], which the spiking map
    matches against."""
    return Lattice(lattice.rows, lattice.cols, lattice.weights.clip(0.0, 1.0), lattice.rng_seed)


def mismatch_latencies(v: np.ndarray, match: Lattice, t_max: float) -> np.ndarray:
    """Candidate firing times: t_max times the per-dimension mean squared
    mismatch between the normalized input and the weights of ``match``, a
    ``clamped`` lattice.

    v is one vector or a stack of them, shape (..., dim); the times have
    shape v.shape[:-1] + (n_units,).
    """
    return t_max * (squared_distances(np.asarray(v, dtype=np.float64), match.weights) / match.dim)


def firing_winners(v: np.ndarray, match: Lattice,
                   cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray]:
    """Firing times and earliest-firing winners of normalized inputs v,
    shape (..., dim), against the ``clamped`` lattice ``match``.

    Units whose candidate firing time exceeds t_ref stay silent; the winner
    is the earliest firing unit (lowest flat index on ties), or -1 where the
    entire map is silent (``som.winner_or_none``).
    """
    times = mismatch_latencies(v, match, cfg.t_max)
    return times, winner_or_none(times.argmin(axis=-1), times, cfg.t_ref)


def compute_firing_times(v: np.ndarray, lattice: Lattice, cfg: SsomConfig) -> FiringRecord:
    """Latency-based winner selection over the whole lattice: the
    ``FiringRecord`` of the normalized vector v."""
    if len(v) != lattice.dim:
        raise DimensionMismatchError(lattice.dim, len(v))
    return FiringRecord.of(lattice, *firing_winners(v, clamped(lattice), cfg), cfg.t_ref)


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


def area_rows(dist: np.ndarray, radius: float, kernel: LateralKernel,
              lr: float) -> list[tuple]:
    """Entry u: the units within ``radius`` of unit u (ascending flat order),
    with their ``lateral_tables`` and their learning gains ``lr * h``, h
    their neighborhood values (one column per unit), from dist's rows.  An
    entry whose units all lie within the excitation radius holds None for
    the mask and the delays."""
    area = dist <= radius
    d = dist[area]
    gain = (lr * neighborhood_array(d, radius))[:, None]
    tables = (np.nonzero(area)[1], *lateral_tables(d, kernel), gain)
    rows = zip(*(np.split(a, np.cumsum(area.sum(axis=1))[:-1]) for a in tables))
    return [(a, None, f, None, g) if near.all() else (a, near, f, delay, g)
            for a, near, f, delay, g in rows]


def area_step(times: np.ndarray, w: int, rows: tuple,
              cfg: SsomConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lateral_step`` and ``learning_gate`` of a win by flat unit w, given
    the presentation's firing times, on w's ``area_rows`` entry: the
    learning units, their times and gains."""
    # The same bits as on the whole lattice: present recomputes every time,
    # so the kernel's result outside the area is never read; the winner lies
    # in its own spatial and excitation areas, so its pull t + f * 0 leaves
    # it unchanged (f is finite, as both radii have positive squares);
    # t <= t_ref already drops a unit inhibition silences; and a unit was
    # silent before the kernel exactly where its time is not <= t_ref, as
    # a NaN time stays NaN through the kernel and fails the gate either way.
    area, near, factor, delay, gain = rows
    t0 = times[area]
    t = t0 + factor * (times[w] - t0)
    if near is not None:
        t = np.where(near, t, np.minimum(t0 + delay, cfg.t_max))
    g = np.maximum(t, t0) <= cfg.t_ref
    return area[g], t[g], gain[g]


def stdp_step(v: np.ndarray, t_spike: np.ndarray, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, gain: np.ndarray, rule: StdpRule) -> np.ndarray:
    """STDP toward the normalized input v, with spike times t_spike, of the
    gated units idx that fired at t_post, with learning gains gain (one
    column, see ``area_rows``).  Returns the rows it wrote."""
    new = apply_rule_array(lattice.weights.take(idx, axis=0), v, t_spike - t_post[:, None],
                           rule, gain)
    lattice.weights[idx] = new
    return new


def ssom_learn(v: np.ndarray, spike_times: np.ndarray, lattice: Lattice,
               record: FiringRecord, cfg: SsomConfig, rule: StdpRule,
               lr_scale: float) -> None:
    """STDP adaptation of the units inside the spatial and temporal gates,
    toward the normalized input v with its spike times.

    For each gated unit and each input component, the spike-time difference
    (input spike minus unit firing) drives the configured plasticity rule;
    the effective learning rate is scaled by the neighborhood kernel around
    the winner.
    """
    if record.winner is None or lr_scale == 0.0:
        return
    d = lattice.grid_distances(record.winner)
    idx = learning_gate(record.times, record.silent, d <= cfg.s_radius, cfg)
    stdp_step(v, spike_times, lattice, idx, record.times[idx],
              (lr_scale * neighborhood_array(d[idx], cfg.s_radius))[:, None], rule)


class FiringStep:
    """The spiking map's step object, which keeps no state between frames.

    A step object is what ``train_spiking`` drives: reset() at each
    sequence start, present(codes, i, lattice, cfg) to step frame i of one
    sequence's ``EncodedFrames`` (or of a stacked block, through
    ``[..., i, :]``) to (times, winners), and learn(codes, i, lattice, idx,
    t_post, gain, rule) for the learning step of the gated units idx, with
    gains ``lr * h`` (see ``area_rows``; the learning kernels apply eta).
    ``rssom.DifferenceState`` and ``lin.PotentialState`` are the recurrent
    maps' step objects, and the test oracle of their inference.  This one
    keeps the ``clamped`` copy of its lattice, whose rows learn refreshes,
    and is also the SSOM's winner rule at inference.
    """

    def __init__(self, lattice: Lattice):
        self.match = clamped(lattice)

    def reset(self) -> None:
        """Sequence boundary: nothing to clear."""

    def present(self, codes: EncodedFrames, i: int, lattice: Lattice, cfg: SsomConfig):
        """``firing_winners`` of the normalized values of frame i."""
        return firing_winners(codes.normalized[..., i, :], self.match, cfg)

    def learn(self, codes: EncodedFrames, i: int, lattice: Lattice, idx: np.ndarray,
              t_post: np.ndarray, gain: np.ndarray, rule: StdpRule) -> None:
        """``stdp_step`` toward frame i of one sequence's codes."""
        new = stdp_step(codes.normalized[i], codes.spike_times[i], lattice, idx, t_post, gain,
                        rule)
        self.match.weights[idx] = new.clip(0.0, 1.0, out=new)


def train_spiking(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a spiking model in place: the epoch loop of the spiking
    trainers, driving the model's step object ``model.state(())`` (see
    ``FiringStep``) with the model's lattice, encoding ranges, cfg, lateral
    kernel and STDP rule.

    Every frame is coded once per run and the ``area_rows`` tables, with
    the epoch's learning gains, are gathered once per epoch.  Sequence
    order is reshuffled each epoch from the seed, and the state is reset at
    each sequence start.  Presentations where every unit stays silent
    (winner -1) are skipped and counted; otherwise ``area_step`` applies
    the lateral kernel on the flat winner's spatial area, and the units
    inside its learning gate learn.
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
    log = TrainingLog()
    for t in range(schedule.epochs):
        lr, radius = linear_decay(t, schedule)
        kernel_t = kernel if kernel.excite_radius is not None else replace(kernel, excite_radius=radius)
        rows = area_rows(lattice.distance_table(), radius, kernel_t, lr)
        skipped = 0
        for si in rng.permutation(len(sequences)):
            state.reset()
            seq = codes[si]
            for i in range(seq.spike_times.shape[0]):
                times, w = state.present(seq, i, lattice, cfg)
                if w < 0:
                    skipped += 1
                    continue
                idx, t_post, gain = area_step(times, w, rows[w], cfg)
                state.learn(seq, i, lattice, idx, t_post, gain, rule)
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
