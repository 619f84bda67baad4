"""Trained-model wrappers, their winner rules, and the flat-file format.

A model file starts with the lattice header and weight rows, then a model
tag line and the variant's parameters as `key value` lines, each value in
the syntax of its config key (PARAMETER_LINES).  Floats are written with
repr for exact round-trips, so rewriting a model is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .coding import SsomConfig, encode_frames
from .config import KEYS, RunConfig, format_value, parse_value
from .errors import ConfigError, CorpusFormatError, read_utf8
from .lin import PotentialState
from .rssom import DifferenceState
from .som import QE_CHUNK_ELEMENTS, Lattice, UnitIndex, find_bmus, frames_of, sample_vectors
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
    alone if terminal.  The spiking kinds step the step object their
    trainer drives (``state(batch)``) one frame at a time, and run the
    winner rule only on the frames whose winners the table holds.  Each
    kind binds ``frame_winners`` in its own class body, so per-class
    profiles and traces (perfbench/layers.py) count the kinds apart.
    ``_sample_cost`` is the number of elements one sample adds to a
    block's pass per frame.
    """

    @property
    def _sample_cost(self) -> int:
        # the spiking step objects hold a units x dim difference per sample
        return self.lattice.weights.size

    def winner_table(self, samples, terminal: bool = False) -> np.ndarray:
        """Flat index of every frame's winning unit, -1 where no unit wins:
        shape (n_samples, n_frames), or (n_samples, 1) for the
        concatenating SOM.  With terminal, only the last frame's winner,
        shape (n_samples, 1): the last column of the whole table, for less
        work.

        There must be at least one sample, and all share one (n_frames,
        dim) shape.  They are coded and stepped a block at a time, with at
        most QE_CHUNK_ELEMENTS elements per frame in a block's pass: block
        x units distance estimates for the SOM (``som.nearest_units``),
        block x units x dim differences for the spiking kinds.
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
        codes = encode_frames(frames, self.lo, self.hi, self.cfg.t_max, self.lattice.dim)
        state = self.state(frames.shape[:1])
        first = frames.shape[1] - 1 if terminal else 0
        for i in range(first):
            state.advance(codes, i, self.lattice)
        return np.stack([state.present(codes, i, self.lattice, self.cfg)[1]
                         for i in range(first, frames.shape[1])], axis=1)


@dataclass
class RssomModel(SsomModel):
    """Recurrent spiking map; winners come from the leaky difference vectors."""

    alpha: float = KEYS["rssom.alpha"].default
    kind: str = field(default="RSSOM", init=False)

    frame_winners = _Inference.frame_winners

    def state(self, batch: tuple) -> DifferenceState:
        return DifferenceState.zeros(self.lattice, self.alpha, batch)


@dataclass
class LinModel(SsomModel):
    """Leaky-integrator map; winners come from the accumulated potentials."""

    lam: float = KEYS["lin.lambda"].default
    kind: str = field(default="LIN", init=False)

    frame_winners = _Inference.frame_winners

    def state(self, batch: tuple) -> PotentialState:
        return PotentialState.zeros(self.lattice, self.lam, batch)


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


# Lines that older model files carry and that no result reads any more,
# with the one value each may still carry (None: any value).  A float value
# loads if it parses to that value.
_RETIRED_LINES = {"sim_step_ms": None, "tau_psp_ms": None, "scale_input_by_lambda": "false",
                  "stdp_flip_branches": "true", "s_radius": 1.0}


def _retired_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse_model(lines: list[str]):
    lattice, next_line = load_lattice(lines)
    found = {}  # line name -> (line number, value text)
    for n, raw in enumerate(lines[next_line:], start=next_line + 1):
        if not raw.strip():
            continue
        name, _, value = raw.partition(" ")
        if name in found:
            raise ValueError(f"line {n}: repeated '{name}' line (first on line {found[name][0]})")
        allowed = _RETIRED_LINES.get(name)
        if allowed is not None and _retired_value(value.strip()) != allowed:
            raise ValueError(f"line {n}: {raw.strip()!r} is retired; only '{allowed}' loads")
        found[name] = n, value.strip()

    def line(name):
        if name not in found:
            raise ValueError(f"missing '{name}' line")
        return found[name]

    kind = found.get("model", (0, None))[1]
    if kind not in PARAMETER_LINES:
        raise ValueError(f"missing or unknown model tag {kind!r}")
    ranges = ("lo", "hi") if kind != "SOM" else ()
    known = {"model", *ranges, *_RETIRED_LINES, *(name for name, _, _ in PARAMETER_LINES[kind])}
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
