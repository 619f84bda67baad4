"""Trained-model wrappers, their winner rules, and the flat-file format.

A model file starts with the lattice header and weight rows, then a model
tag line and the variant's parameters as `key value` lines.  Floats are
written with repr for exact round-trips, so rewriting a model is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coding import SsomConfig, encode_frames
from .lin import PotentialState
from .rssom import DifferenceState
from .som import QE_CHUNK_ELEMENTS, Lattice, UnitIndex, find_bmus
from .ssom import FiringStep, LateralKernel, frames_of
from .stdp import StdpRule, StdpWindow

MAGIC = "PULSOM1"
MODEL_KINDS = ("SOM", "SSOM", "RSSOM", "LIN")


def save_lattice(lattice: Lattice, f) -> None:
    f.write(f"{MAGIC} {lattice.rows} {lattice.cols} {lattice.dim} {lattice.rng_seed}\n")
    for row in lattice.weights:
        f.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_lattice(lines: list[str]) -> tuple[Lattice, int]:
    """Parse a lattice from text lines; returns it and the next line index."""
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[0] != MAGIC:
        raise ValueError(f"not a {MAGIC} model file")
    rows, cols, dim, seed = (int(x) for x in head[1:])
    n = rows * cols
    if len(lines) < 1 + n:
        raise ValueError(f"truncated: line {len(lines) + 1} (weight row {len(lines)} "
                         f"of {n}) is missing")
    weights = np.array([[float(x) for x in lines[1 + i].split()] for i in range(n)])
    if weights.shape != (n, dim):
        raise ValueError(f"expected {n}x{dim} weights, got {weights.shape}")
    return Lattice(rows, cols, weights, seed), 1 + n


class _Inference:
    """Winner tables over blocks of samples, shared by every model kind.

    A kind provides ``_block_winners(frames)``: the winner table of a
    (block, n_frames, dim) stack of samples.  The spiking kinds step the
    step object their trainer drives (``state(batch)``) one frame at a
    time.  Each kind binds ``frame_winners`` in its own class body, so
    per-class profiles and traces (perfbench/layers.py) count the kinds
    apart.
    """

    def winner_table(self, samples) -> np.ndarray:
        """Flat index of every frame's winning unit, -1 where no unit wins:
        shape (n_samples, n_frames), or (n_samples, 1) for the
        concatenating SOM.

        Samples must share one (n_frames, dim) shape.  They are coded and
        stepped a block at a time, with each numpy pass building at most
        QE_CHUNK_ELEMENTS differences (block x units x dim).
        """
        frames = [frames_of(s) for s in samples]
        rows = max(1, QE_CHUNK_ELEMENTS // self.lattice.weights.size)
        return np.concatenate([self._block_winners(np.array(frames[i:i + rows]))
                               for i in range(0, len(frames), rows)])

    def frame_winners(self, sample) -> list[UnitIndex | None]:
        """Winner of every frame of one sample (None where no unit wins)."""
        return [self.lattice.winner(w) for w in self.winner_table([sample])[0].tolist()]

    def sequence_winner(self, sample) -> UnitIndex | None:
        return self.lattice.winner(self.winner_table([sample])[0, -1])


@dataclass
class SomModel(_Inference):
    """Plain map operating in raw feature space."""

    lattice: Lattice
    concat: bool = False
    kind: str = field(default="SOM", init=False)

    frame_winners = _Inference.frame_winners

    def _block_winners(self, frames: np.ndarray) -> np.ndarray:
        if self.concat:
            return find_bmus(frames.reshape(frames.shape[0], 1, -1), self.lattice)
        out = np.empty(frames.shape[:2], dtype=np.intp)
        for i in range(frames.shape[1]):
            out[:, i] = find_bmus(frames[:, i], self.lattice)
        return out


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

    def state(self, batch: tuple) -> FiringStep:
        """A cleared step object for a block of samples of batch shape
        ``batch`` (``ssom.FiringStep`` keeps no state)."""
        return FiringStep()

    def _block_winners(self, frames: np.ndarray) -> np.ndarray:
        codes = encode_frames(frames, self.lo, self.hi, self.cfg.t_max, self.lattice.dim)
        state = self.state(frames.shape[:1])
        out = np.empty(frames.shape[:2], dtype=np.intp)
        for i in range(frames.shape[1]):
            out[:, i] = state.present(codes, i, self.lattice, self.cfg)[2]
        return out


@dataclass
class RssomModel(SsomModel):
    """Recurrent spiking map; winners come from the leaky difference vectors."""

    alpha: float = 0.5

    def __post_init__(self):
        self.kind = "RSSOM"

    frame_winners = _Inference.frame_winners

    def state(self, batch: tuple) -> DifferenceState:
        return DifferenceState.zeros(self.lattice, self.alpha, batch)


@dataclass
class LinModel(SsomModel):
    """Leaky-integrator map; winners come from the accumulated potentials."""

    lam: float = 0.5
    scale_input_by_lambda: bool = False

    def __post_init__(self):
        self.kind = "LIN"

    frame_winners = _Inference.frame_winners

    def state(self, batch: tuple) -> PotentialState:
        return PotentialState.zeros(self.lattice, self.lam, self.scale_input_by_lambda, batch)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _vector_line(name: str, v: np.ndarray) -> str:
    return name + " " + " ".join(repr(float(x)) for x in v)


def save_model(model, path) -> None:
    with open(path, "w") as f:
        save_lattice(model.lattice, f)
        f.write(f"model {model.kind}\n")
        if model.kind == "SOM":
            f.write(f"concat {_fmt_bool(model.concat)}\n")
            return
        f.write(_vector_line("lo", model.lo) + "\n")
        f.write(_vector_line("hi", model.hi) + "\n")
        cfg, kernel, rule = model.cfg, model.kernel, model.rule
        f.write(f"t_max_ms {cfg.t_max!r}\n")
        f.write(f"t_ref_ms {cfg.t_ref!r}\n")
        f.write(f"s_radius {cfg.s_radius!r}\n")
        f.write(f"sim_step_ms {cfg.sim_step!r}\n")
        f.write(f"tau_psp_ms {cfg.tau_psp!r}\n")
        radius = "auto" if kernel.excite_radius is None else repr(kernel.excite_radius)
        f.write(f"excite_radius {radius}\n")
        f.write(f"excite_gain {kernel.excite_gain!r}\n")
        f.write(f"inhibit_gain {kernel.inhibit_gain!r}\n")
        f.write(f"stdp_variant {rule.variant}\n")
        f.write(f"stdp_a_plus {rule.window.a_plus!r}\n")
        f.write(f"stdp_a_minus {rule.window.a_minus!r}\n")
        f.write(f"stdp_tau_plus_ms {rule.window.tau_plus!r}\n")
        f.write(f"stdp_tau_minus_ms {rule.window.tau_minus!r}\n")
        f.write(f"stdp_eta {rule.eta!r}\n")
        f.write(f"stdp_w_max {rule.w_max!r}\n")
        f.write(f"stdp_flip_branches {_fmt_bool(rule.flip_branches)}\n")
        if model.kind == "RSSOM":
            f.write(f"alpha {model.alpha!r}\n")
        elif model.kind == "LIN":
            f.write(f"lambda {model.lam!r}\n")
            f.write(f"scale_input_by_lambda {_fmt_bool(model.scale_input_by_lambda)}\n")


def load_model(path):
    """Read a model file; any malformed content raises ValueError naming
    the path."""
    path = Path(path)
    try:
        return _parse_model(path.read_text().splitlines())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Params(dict):
    """The `key value` lines of a model file; a missing key is a ValueError."""

    def __missing__(self, key):
        raise ValueError(f"missing '{key}' line")


def _parse_model(lines: list[str]):
    lattice, next_line = load_lattice(lines)
    kv = _Params()
    kind = None
    for line in lines[next_line:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key == "model":
            kind = value.strip()
        else:
            kv[key] = value.strip()
    if kind not in MODEL_KINDS:
        raise ValueError(f"missing or unknown model tag {kind!r}")
    if kind == "SOM":
        return SomModel(lattice, concat=kv.get("concat", "false") == "true")

    lo, hi = (np.array([float(x) for x in kv[key].split()]) for key in ("lo", "hi"))
    for key, v in (("lo", lo), ("hi", hi)):
        if v.shape != (lattice.dim,):
            raise ValueError(f"'{key}' line has {v.size} values, expected {lattice.dim}")
    cfg = SsomConfig(
        t_max=float(kv["t_max_ms"]),
        t_ref=float(kv["t_ref_ms"]),
        s_radius=float(kv["s_radius"]),
        sim_step=float(kv["sim_step_ms"]),
        tau_psp=float(kv["tau_psp_ms"]),
    )
    radius = kv.get("excite_radius", "auto")
    kernel = LateralKernel(
        excite_radius=None if radius == "auto" else float(radius),
        excite_gain=float(kv["excite_gain"]),
        inhibit_gain=float(kv["inhibit_gain"]),
    )
    rule = StdpRule(
        variant=kv["stdp_variant"],
        eta=float(kv["stdp_eta"]),
        w_max=float(kv["stdp_w_max"]),
        window=StdpWindow(
            a_plus=float(kv["stdp_a_plus"]),
            a_minus=float(kv["stdp_a_minus"]),
            tau_plus=float(kv["stdp_tau_plus_ms"]),
            tau_minus=float(kv["stdp_tau_minus_ms"]),
        ),
        flip_branches=kv.get("stdp_flip_branches", "false") == "true",
    )
    if kind == "SSOM":
        return SsomModel(lattice, lo, hi, cfg, kernel, rule)
    if kind == "RSSOM":
        return RssomModel(lattice, lo, hi, cfg, kernel, rule, alpha=float(kv["alpha"]))
    return LinModel(lattice, lo, hi, cfg, kernel, rule, lam=float(kv["lambda"]),
                    scale_input_by_lambda=kv.get("scale_input_by_lambda", "false") == "true")
