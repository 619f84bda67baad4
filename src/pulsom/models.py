"""Trained-model wrappers, their winner rules, and the flat-file format.

A model file starts with the lattice header and weight rows, then a model
tag line and the variant's parameters as `key value` lines, each value in
the syntax of its config key (PARAMETER_LINES).  Floats are written with
repr for exact round-trips, so rewriting a model is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from pathlib import Path

import numpy as np

from .coding import SsomConfig, encode_frames
from .config import KEYS, RunConfig, format_value, parse_value
from .errors import ConfigError, CorpusFormatError, read_utf8, text_lines
from .lin import PotentialState, potential_latencies, potential_step
from .rssom import DifferenceState, difference_latencies, difference_step
from .som import (
    QE_CHUNK_ELEMENTS,
    Lattice,
    UnitIndex,
    find_bmus,
    frames_of,
    pruned_candidates,
    sample_vectors,
    winner_or_none,
)
from .ssom import FiringStep, LateralKernel
from .stdp import StdpRule

MAGIC = "PULSOM1"


def save_lattice(lattice: Lattice, f) -> None:
    f.write(f"{MAGIC} {lattice.rows} {lattice.cols} {lattice.dim} {lattice.rng_seed}\n")
    for row in lattice.weights.tolist():
        f.write(" ".join(map(repr, row)) + "\n")


def load_lattice(lines: list[str]) -> tuple[Lattice, int]:
    """Parse a lattice from text lines; returns it and the next line index."""
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[0] != MAGIC:
        raise ValueError(f"line 1: not a {MAGIC} model file")
    try:
        rows, cols, dim, seed = (int(x) for x in head[1:])
        if min(rows, cols, dim) < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"line 1: expected '{MAGIC} <rows> <cols> <dim> <seed>', integers with "
                         f"rows, cols and dim positive, got {lines[0].strip()!r}") from None
    n = rows * cols
    if len(lines) < 1 + n:
        raise ValueError(f"truncated: line {len(lines) + 1} (weight row {len(lines)} "
                         f"of {n}) is missing")
    weights = np.array([_float_line(2 + i, lines[1 + i], dim, "weight") for i in range(n)])
    return Lattice(rows, cols, weights, seed), 1 + n


def _float_line(n: int, text: str, count: int, name: str) -> np.ndarray:
    """The ``count`` finite floats of line ``n``, a ``name`` line."""
    try:
        values = np.array([float(x) for x in text.split()])
    except ValueError as exc:
        raise ValueError(f"line {n}: {exc}") from None
    if values.shape != (count,):
        raise ValueError(f"line {n}: {name} line has {values.size} values, expected {count}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"line {n}: {name} values must be finite, got {text.strip()!r}")
    return values


class _Inference:
    """Winner tables over blocks of samples, shared by every model kind.

    A kind provides ``_block_winners(frames, terminal)``: the winner table
    of a (block, n_frames, dim) stack of samples, or of its last frame
    alone if terminal.  Every kind searches with ``som.pruned_candidates``:
    the SOM around each input vector (``som.find_bmus``), the spiking maps
    around their weighted frame means (``mean_candidates``).  Each kind
    binds ``frame_winners`` in its own class body, so per-class profiles
    and traces (perfbench/layers.py) count the kinds apart.
    ``_sample_cost(n_frames, terminal)`` is the number of elements one
    sample adds to the arrays of a block's search.
    """

    def _sample_cost(self, n_frames: int, terminal: bool) -> int:
        # the estimate pass (som.pruned_candidates) holds units x
        # min(frames searched, dim) frame means, and the frames and their
        # codes 2 x frames x dim
        searched = 1 if terminal else n_frames
        dim = self.lattice.dim
        return self.lattice.n_units * min(searched, dim) + 2 * n_frames * dim

    def _block_rows(self, n_frames: int, terminal: bool) -> int:
        """The samples of one block of a winner table."""
        return max(1, QE_CHUNK_ELEMENTS // self._sample_cost(n_frames, terminal))

    def winner_table(self, samples, terminal: bool = False) -> np.ndarray:
        """Flat index of every frame's winning unit, -1 where no unit wins:
        shape (n_samples, n_frames), or (n_samples, 1) for the
        concatenating SOM.  With terminal, only the last frame's winner,
        shape (n_samples, 1): the last column of the whole table, for less
        work.

        There must be at least one sample, and all share one (n_frames,
        dim) shape.  They are coded and searched a block at a time, of as
        many samples as keep their ``_sample_cost`` within
        QE_CHUNK_ELEMENTS: units estimates of ``som.pruned_candidates`` a
        vector searched (one a frame for the SOM; for the spiking maps, one
        a frame searched, at most dim frames a pass, plus the frames and
        their codes).
        """
        frames = [frames_of(s) for s in samples]
        if not frames:
            raise ValueError("samples must be non-empty")
        rows = self._block_rows(frames[0].shape[0], terminal)
        return np.concatenate([self._block_winners(np.array(frames[i:i + rows]), terminal)
                               for i in range(0, len(frames), rows)])

    def frame_winners(self, sample) -> list[UnitIndex | None]:
        """Winner of every frame of one sample (None where no unit wins)."""
        return [self.lattice.winner(w) for w in self.winner_table([sample])[0].tolist()]


@dataclass
class SomModel(_Inference):
    """Plain map operating in raw feature space."""

    lattice: Lattice
    concat: bool = KEYS["som.concat"].default
    kind: str = field(default="SOM", init=False)

    frame_winners = _Inference.frame_winners

    def _sample_cost(self, n_frames: int, terminal: bool) -> int:
        # one estimate per unit and vector (som.pruned_candidates)
        return self.lattice.n_units

    def _block_winners(self, frames: np.ndarray, terminal: bool) -> np.ndarray:
        if terminal and not self.concat:
            # every frame is checked, as the whole table would check it
            if not np.isfinite(frames).all():
                raise ValueError("input vector must be finite")
            frames = frames[:, -1:]
        vectors = sample_vectors(frames, self.concat)
        return find_bmus(vectors, self.lattice).reshape(frames.shape[0], -1)


@dataclass
class SsomModel(_Inference):
    """Spiking map: weights in normalized space plus the encoding ranges.

    Its winner table is every spiking map's: ``mean_candidates`` picks the
    (sample, unit) pairs that can win, through the SOM's search
    (``som.pruned_candidates``), and only those run ``_pair_values(x, w,
    first)``, each pair's value from frame first on in the step object's
    bits, shape (frames, pairs).  The lowest index of least value wins,
    gated on its latency (``_latencies``) as in ``winner_or_none``."""

    lattice: Lattice
    lo: np.ndarray
    hi: np.ndarray
    cfg: SsomConfig = field(default_factory=SsomConfig)
    kernel: LateralKernel = field(default_factory=LateralKernel)
    rule: StdpRule = field(default_factory=StdpRule)
    kind: str = field(default="SSOM", init=False)

    frame_winners = _Inference.frame_winners
    _mean_weights = (0.0, 1.0)  # mean_candidates' decay and gain: the mean is the frame

    def __post_init__(self):
        self.state()  # the step object checks the variant's own values (alpha, lambda)

    def state(self) -> FiringStep:
        """A cleared step object (``ssom.FiringStep`` keeps none between frames)."""
        return FiringStep(self.lattice, self.rule)

    def _match(self) -> tuple[np.ndarray, float]:
        """The weights the map matches against, clamped, and the floor of
        ``mean_candidates`` for distinct d² that round to one firing time."""
        return (self.lattice.weights.clip(0.0, 1.0),
                self.lattice.dim * 2.0 ** -1072 / self.cfg.t_max)

    def _block_winners(self, frames: np.ndarray, terminal: bool) -> np.ndarray:
        v = encode_frames(frames, self.lo, self.hi, self.cfg.t_max, self.lattice.dim).normalized
        first = v.shape[1] - 1 if terminal else 0
        weights, floor = self._match()
        rows, cols = mean_candidates(v, weights, *self._mean_weights, first, floor)
        # A unit left out reads inf, above its row's least value (its exact
        # value is finite, see mean_candidates), so it never wins.
        table = np.full((v.shape[0], self.lattice.n_units), np.inf)
        best, least = [], []
        for got in self._pair_values(v[rows], weights[cols], first):
            table[rows, cols] = got
            best.append(table.argmin(axis=1))
            least.append(table[np.arange(v.shape[0]), best[-1]])
        # latencies rise with the value, so the winner fires first and its
        # time alone decides (a NaN value is the argmin's, and NaN)
        times = self._latencies(np.stack(least, axis=1))
        return winner_or_none(np.stack(best, axis=1), times[..., None], self.cfg.t_ref)

    def _pair_values(self, x: np.ndarray, w: np.ndarray, first: int):
        """The firing time of each pair, ``mismatch_latencies`` on the pairs'
        rows: distinct d² may round to one time, where the lower index wins."""
        for i in range(first, x.shape[1]):
            delta = w - x[:, i]
            yield self.cfg.t_max * (np.einsum("ij,ij->i", delta, delta) / self.lattice.dim)

    def _latencies(self, times: np.ndarray) -> np.ndarray:
        return times


@lru_cache(maxsize=16)
def _frame_weights(decay: float, gain: float, n_frames: int,
                   first: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights of ``mean_candidates``: row t - first holds
    gain * decay**(t - k) for frames k <= t, as repeated products, and 0
    for later frames; and the column of the rows' sums."""
    powers = [gain]
    for _ in range(n_frames - 1):
        powers.append(powers[-1] * decay)
    lag = np.arange(first, n_frames)[:, None] - np.arange(n_frames)
    coef = np.where(lag >= 0, np.array(powers)[lag.clip(0)], 0.0)
    sums = coef.sum(axis=1)[:, None]
    coef.setflags(write=False)
    sums.setflags(write=False)
    return coef, sums


def mean_candidates(v: np.ndarray, weights: np.ndarray, decay: float, gain: float,
                    first: int, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The (sample, unit) pairs, in row-major order, that can hold the
    winner of a spiking map on some frame from ``first`` on, for a block of
    normalized frames v, shape (n, n_frames, dim), with values in [0, 1].

    From a reset every spiking map ranks units by their distance to the
    weighted mean m = z / c of the frames so far, where frame k of t frames
    weighs gain * decay**(t - 1 - k) in z and in c (see the rssom and lin
    module docstrings; the SSOM's decay 0 and gain 1 give the frame).
    ``som.pruned_candidates`` keeps the units near each mean, with ||m||²
    <= dim, and floor plus the gain term of its underflow bound.
    """
    n, n_frames, dim = v.shape
    coef, c = _frame_weights(decay, gain, n_frames, first)
    means = np.einsum("tk,nkd->ntd", coef, v)
    means /= c
    with np.errstate(over="ignore", divide="ignore"):
        floor += (n_frames + 1) * (dim + 2) * 2.0 ** -1064 * (1.0 + 1.0 / np.float64(gain) ** 2)
    keep = np.zeros((n, weights.shape[0]), dtype=bool)
    for lo in range(0, coef.shape[0], dim):     # n x units x dim elements a pass
        m = means[:, lo:lo + dim].reshape(-1, dim)
        keep |= pruned_candidates(m, weights, dim, n_frames, floor).reshape(
            n, -1, weights.shape[0]).any(axis=1)
    return np.nonzero(keep)


@dataclass
class RssomModel(SsomModel):
    """Recurrent spiking map; winners come from the leaky difference vectors."""

    alpha: float = KEYS["rssom.alpha"].default
    kind: str = field(default="RSSOM", init=False)

    frame_winners = _Inference.frame_winners

    def state(self) -> DifferenceState:
        return DifferenceState.zeros(self.lattice, self.alpha)

    def _match(self) -> tuple[np.ndarray, float]:
        return self.lattice.weights, 0.0

    @property
    def _mean_weights(self) -> tuple[float, float]:
        return 1.0 - self.alpha, self.alpha

    def _pair_values(self, x: np.ndarray, w: np.ndarray, first: int):
        """||y||² of each pair: ``update_difference`` and
        ``difference_winners`` on the pairs' rows."""
        y = np.zeros_like(w)
        for i in range(x.shape[1]):
            difference_step(y, x[:, i], w, self.alpha)
            if i >= first:
                yield np.einsum("ij,ij->i", y, y)

    def _latencies(self, n2: np.ndarray) -> np.ndarray:
        return difference_latencies(n2, self.lattice.dim, self.cfg.t_max)


@dataclass
class LinModel(SsomModel):
    """Leaky-integrator map; winners come from the accumulated potentials."""

    lam: float = KEYS["lin.lambda"].default
    kind: str = field(default="LIN", init=False)

    frame_winners = _Inference.frame_winners

    def state(self) -> PotentialState:
        return PotentialState.zeros(self.lattice, self.lam)

    def _match(self) -> tuple[np.ndarray, float]:
        return self.lattice.weights, 0.0

    @property
    def _mean_weights(self) -> tuple[float, float]:
        return self.lam, 1.0

    def _pair_values(self, x: np.ndarray, w: np.ndarray, first: int):
        """-a of each pair (the winner is the most excited): the
        ``update_potential`` step on the pairs' rows."""
        a = np.zeros(w.shape[0])
        for i in range(x.shape[1]):
            delta = w - x[:, i]
            potential_step(a, np.einsum("ij,ij->i", delta, delta), self.lam)
            if i >= first:
                yield -a

    def _latencies(self, neg_a: np.ndarray) -> np.ndarray:
        return potential_latencies(-neg_a, self.lam, self.lattice.dim, self.cfg.t_max)


def model_of(kind: str, lattice: Lattice, cfg: RunConfig, lo=None, hi=None):
    """The model of ``kind`` (a `run.model` value) on ``lattice``, its
    parameters from ``cfg``; the spiking kinds also take the encoding
    ranges."""
    if kind == "som":
        return SomModel(lattice, cfg["som.concat"])
    parts = (lattice, lo, hi, cfg.ssom_config(), cfg.lateral_kernel(), cfg.stdp_rule())
    if kind == "ssom":
        return SsomModel(*parts)
    if kind == "rssom":
        return RssomModel(*parts, alpha=cfg["rssom.alpha"])
    return LinModel(*parts, lam=cfg["lin.lambda"])


# The parameter lines of each kind's model file, in file order: the line's
# name, the config key whose value syntax it uses, and the model attribute
# that holds its value.
_SPIKING_LINES = [
    ("t_max_ms", KEYS["ssom.t_max_ms"], "cfg.t_max"),
    ("t_ref_ms", KEYS["ssom.t_ref_ms"], "cfg.t_ref"),
    ("excite_radius", KEYS["lateral.excite_radius"], "kernel.excite_radius"),
    ("excite_gain", KEYS["lateral.excite_gain"], "kernel.excite_gain"),
    ("inhibit_gain", KEYS["lateral.inhibit_gain"], "kernel.inhibit_gain"),
    ("stdp_variant", KEYS["stdp.variant"], "rule.variant"),
    ("stdp_a_plus", KEYS["stdp.a_plus"], "rule.window.a_plus"),
    ("stdp_a_minus", KEYS["stdp.a_minus"], "rule.window.a_minus"),
    ("stdp_tau_plus_ms", KEYS["stdp.tau_plus_ms"], "rule.window.tau_plus"),
    ("stdp_tau_minus_ms", KEYS["stdp.tau_minus_ms"], "rule.window.tau_minus"),
    ("stdp_eta", KEYS["stdp.eta"], "rule.eta"),
    ("stdp_w_max", KEYS["stdp.w_max"], "rule.w_max"),
]
PARAMETER_LINES = {
    "SOM": [("concat", KEYS["som.concat"], "concat")],
    "SSOM": _SPIKING_LINES,
    "RSSOM": _SPIKING_LINES + [("alpha", KEYS["rssom.alpha"], "alpha")],
    "LIN": _SPIKING_LINES + [("lambda", KEYS["lin.lambda"], "lam")],
}


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        save_lattice(model.lattice, f)
        f.write(f"model {model.kind}\n")
        if model.kind != "SOM":
            for name in ("lo", "hi"):
                f.write(" ".join([name, *(repr(float(x)) for x in getattr(model, name))]) + "\n")
        for name, key, attr in PARAMETER_LINES[model.kind]:
            f.write(f"{name} {format_value(key, attrgetter(attr)(model))}\n")


def load_model(path):
    """Read a model file; any malformed content raises ValueError naming
    the path."""
    path = Path(path)
    try:
        return _parse_model(text_lines(read_utf8(path)))
    except CorpusFormatError as exc:
        raise ValueError(str(exc)) from None
    except (ValueError, ConfigError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_model(lines: list[str]):
    lattice, next_line = load_lattice(lines)
    found = {}  # line name -> (line number, value text)
    for n, raw in enumerate(lines[next_line:], start=next_line + 1):
        if not raw.strip():
            continue
        name, _, value = raw.partition(" ")
        if name in found:
            raise ValueError(f"line {n}: repeated '{name}' line (first on line {found[name][0]})")
        found[name] = n, value.strip()

    def line(name):
        if name not in found:
            raise ValueError(f"missing '{name}' line")
        return found[name]

    kind = found.get("model", (0, None))[1]
    if kind not in PARAMETER_LINES:
        raise ValueError(f"missing or unknown model tag {kind!r}")
    ranges = ("lo", "hi") if kind != "SOM" else ()
    known = {"model", *ranges, *(name for name, _, _ in PARAMETER_LINES[kind])}
    for name, (n, _) in found.items():
        if name not in known:
            raise ValueError(f"line {n}: '{name}' is not a line of {kind} model files")
    values = {}
    for name, key, _ in PARAMETER_LINES[kind]:
        n, text = line(name)
        values[key.name] = parse_value(key, text, f"line {n}")
    lo_hi = [_float_line(*line(name), lattice.dim, f"'{name}'") for name in ranges]
    if lo_hi and np.any(lo_hi[0] > lo_hi[1]):
        raise ValueError(f"line {line('hi')[0]}: 'hi' values must not be below 'lo' values")
    return model_of(kind.lower(), lattice, RunConfig(values), *lo_hi)
