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
from .errors import ConfigError, CorpusFormatError, read_utf8
from .lin import PotentialState, potential_latencies, potential_step
from .rssom import DifferenceState, difference_latencies, difference_step
from .som import (
    QE_CHUNK_ELEMENTS,
    Lattice,
    UnitIndex,
    candidates,
    find_bmus,
    frames_of,
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
    alone if terminal.  The SSOM runs its trainer's step object on the
    frames whose winners the table holds; RSSOM and LIN search pruned
    candidates (``_MeanSearch``).  Each kind binds ``frame_winners`` in its
    own class body, so per-class profiles and traces (perfbench/layers.py)
    count the kinds apart.  ``_sample_cost`` is the number of elements one
    sample adds to a block's pass per frame, at most.
    """

    @property
    def _sample_cost(self) -> int:
        # a units x dim difference per sample: the SSOM's distances, and the
        # recurrent maps' exact pass when every unit stays a candidate
        return self.lattice.weights.size

    def winner_table(self, samples, terminal: bool = False) -> np.ndarray:
        """Flat index of every frame's winning unit, -1 where no unit wins:
        shape (n_samples, n_frames), or (n_samples, 1) for the
        concatenating SOM.  With terminal, only the last frame's winner,
        shape (n_samples, 1): the last column of the whole table, for less
        work.

        There must be at least one sample, and all share one (n_frames,
        dim) shape.  They are coded and searched a block at a time, with at
        most QE_CHUNK_ELEMENTS elements per frame in a block's pass: block
        x units distance estimates for the SOM (``som.nearest_units``),
        block x units x dim differences, at most, for the spiking kinds.
        """
        frames = [frames_of(s) for s in samples]
        if not frames:
            raise ValueError("samples must be non-empty")
        rows = max(1, QE_CHUNK_ELEMENTS // self._sample_cost)
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

    @property
    def _sample_cost(self) -> int:
        # one distance estimate per unit and frame (som.nearest_units)
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
    """Spiking map: weights in normalized space plus the encoding ranges."""

    lattice: Lattice
    lo: np.ndarray
    hi: np.ndarray
    cfg: SsomConfig = field(default_factory=SsomConfig)
    kernel: LateralKernel = field(default_factory=LateralKernel)
    rule: StdpRule = field(default_factory=StdpRule)
    kind: str = field(default="SSOM", init=False)

    frame_winners = _Inference.frame_winners

    def __post_init__(self):
        self.state(())  # the step object checks the variant's own values (alpha, lambda)

    def state(self, batch: tuple) -> FiringStep:
        """A cleared step object for a block of samples of batch shape
        ``batch`` (``ssom.FiringStep`` keeps only the clamped weights)."""
        return FiringStep(self.lattice)

    def _block_winners(self, frames: np.ndarray, terminal: bool) -> np.ndarray:
        # every frame is coded, and so checked, as the whole table would be;
        # the step object keeps no state, so only the table's frames step
        codes = encode_frames(frames, self.lo, self.hi, self.cfg.t_max, self.lattice.dim)
        state = self.state(frames.shape[:1])
        first = frames.shape[1] - 1 if terminal else 0
        return np.stack([state.present(codes, i, self.lattice, self.cfg)[1]
                         for i in range(first, frames.shape[1])], axis=1)


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
                    first: int) -> tuple[np.ndarray, np.ndarray]:
    """The (sample, unit) pairs, in row-major order, that can hold the
    winner of a recurrent map (RSSOM or LIN) on some frame from ``first``
    on, for a block of normalized frames v, shape (n, n_frames, dim), with
    values in [0, 1].

    From a reset both maps rank units by their distance to the weighted
    mean m = z / c of the frames so far, where frame k of t frames weighs
    gain * decay**(t - 1 - k) in z and in c (see the rssom and lin module
    docstrings).  The means are estimated against every unit as
    ``som.nearest_units`` does, and ``som.candidates`` keeps the units
    within the slack of the least.
    """
    n, n_frames, dim = v.shape
    ww = np.einsum("ij,ij->i", weights, weights)
    # Slack.  Let u = 2**-53, T = n_frames, D = dim and R = D + ||w||², and
    # let z*, c* and m* = z*/c* be the real sums and mean for the map's own
    # float coefficients (decay is the 1.0 - alpha the step computes), so
    # m* lies in [0, 1]^D.  Each exact value divided by a per-frame
    # constant (c² for RSSOM; c, less a shift the same for every unit, for
    # LIN) is ||m* - w||² plus rounding error:
    # - RSSOM's y = z - c w: each step rounds x - w, its product with
    #   alpha, (1 - alpha) y and their sum, so |y - y*| <= 3Tu (z* + c*|w|)
    #   componentwise, and the norm einsum adds γ_D: ||y||²/c² is within
    #   (20T + 2D) u R of ||m* - w||², the rounding of c included.
    # - LIN's -2a sums non-negative terms, each squared distance within
    #   γ_{D+2} and each step rounding twice, so it is within γ_{2T+D+2} of
    #   c* (||m* - w||² + r), with 0 <= r <= D the same for every unit:
    #   -2a/c - r c*/c is within (10T + 3D + 6) u R of ||m* - w||².
    # - Each coefficient is within γ_T of its real value (repeated
    #   products), and z and c sum T non-negative terms, so m = z / c is
    #   within (4T + 2) u m* of m*, which moves ||m - w||² by at most
    #   3 (4T + 2) u R; the estimate of ||m - w||² rounds by (2D + 5) u R,
    #   as in nearest_units.
    # In all at most (32T + 5D + 17) u R plus O(u²) terms, which the slack
    # (T + D + 8) 2**-44 R = 512 (T + D + 8) u R covers 16 times.  Under
    # gradual underflow a product may also lose 2**-1075 absolutely; scaled
    # by 1/c² <= 1/gain² (c >= gain), with the cross terms split by
    # 2ab <= u a² + b²/u, that stays below the floor
    # (T + 1)(D + 2) 2**-1064 (1 + 1/gain²), which is inf where gain²
    # underflows.  Where 4T R overflows an exact value may overflow too,
    # and the slack is inf, so ``candidates`` keeps the unit; elsewhere
    # every value is finite.
    coef, c = _frame_weights(decay, gain, n_frames, first)
    means = np.einsum("tk,nkd->ntd", coef, v)
    means /= c
    keep = np.zeros((n, weights.shape[0]), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slack = (ww + dim) * (4.0 * n_frames)
        slack *= (n_frames + dim + 8) * 2.0 ** -46 / n_frames
        slack += (n_frames + 1) * (dim + 2) * 2.0 ** -1064 * (1.0 + 1.0 / np.float64(gain) ** 2)
        for lo in range(0, coef.shape[0], dim):     # n x units x dim elements a pass
            m = means[:, lo:lo + dim].reshape(-1, dim)
            est = np.einsum("ik,jk->ij", m, weights)
            est *= -2.0
            est += np.einsum("ij,ij->i", m, m)[:, None]
            est += ww
            keep |= candidates(est, slack).reshape(n, -1, weights.shape[0]).any(axis=1)
    return np.nonzero(keep)


class _MeanSearch(SsomModel):
    """Winner tables of the recurrent maps.  ``mean_candidates`` picks the
    (sample, unit) pairs that can win, and only those run the map's exact
    arithmetic: ``_pair_values(x, w, first)`` gives, for the frames from
    first on, each pair's value that the winner minimizes, in the bits of
    the step object, shape (frames, pairs).  The winner is the lowest
    index of least value, gated on its latency (``_latencies``) as
    ``winner_or_none`` gates it."""

    def _block_winners(self, frames: np.ndarray, terminal: bool) -> np.ndarray:
        v = encode_frames(frames, self.lo, self.hi, self.cfg.t_max, self.lattice.dim).normalized
        first = v.shape[1] - 1 if terminal else 0
        rows, cols = mean_candidates(v, self.lattice.weights, *self._mean_weights, first)
        # A unit left out reads inf, above its row's least value (its exact
        # value is finite, see mean_candidates), so it never wins.
        table = np.full((v.shape[0], self.lattice.n_units), np.inf)
        best, least = [], []
        for got in self._pair_values(v[rows], self.lattice.weights[cols], first):
            table[rows, cols] = got
            best.append(table.argmin(axis=1))
            least.append(table[np.arange(v.shape[0]), best[-1]])
        # latencies rise with the value, so the winner fires first and its
        # time alone decides (a NaN value is the argmin's, and NaN)
        times = self._latencies(np.stack(least, axis=1))
        return winner_or_none(np.stack(best, axis=1), times[..., None], self.cfg.t_ref)


@dataclass
class RssomModel(_MeanSearch):
    """Recurrent spiking map; winners come from the leaky difference vectors."""

    alpha: float = KEYS["rssom.alpha"].default
    kind: str = field(default="RSSOM", init=False)

    frame_winners = _Inference.frame_winners

    def state(self, batch: tuple) -> DifferenceState:
        return DifferenceState.zeros(self.lattice, self.alpha, batch)

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
class LinModel(_MeanSearch):
    """Leaky-integrator map; winners come from the accumulated potentials."""

    lam: float = KEYS["lin.lambda"].default
    kind: str = field(default="LIN", init=False)

    frame_winners = _Inference.frame_winners

    def state(self, batch: tuple) -> PotentialState:
        return PotentialState.zeros(self.lattice, self.lam, batch)

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
        return _parse_model(read_utf8(path).splitlines())
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
