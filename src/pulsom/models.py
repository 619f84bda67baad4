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

from .coding import EncodedFrames, SsomConfig, encode_frames
from .lin import PotentialState, potential_record, update_potential
from .rssom import DifferenceState, difference_record, update_difference
from .som import Lattice, UnitIndex, find_bmu
from .ssom import LateralKernel, firing_record, frames_of
from .stdp import StdpRule, StdpWindow

MAGIC = "PULSOM1"
MODEL_KINDS = ("SOM", "SSOM", "RSSOM", "LIN")


def save_lattice(lattice: Lattice, f) -> None:
    f.write(f"{MAGIC} {lattice.rows} {lattice.cols} {lattice.dim} {lattice.rng_seed}\n")
    for row in lattice.weights:
        f.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_lattice(lines: list[str]) -> tuple[Lattice, int]:
    """Parse a lattice from text lines; returns it and the next line index."""
    head = lines[0].split()
    if len(head) != 5 or head[0] != MAGIC:
        raise ValueError(f"not a {MAGIC} model file")
    rows, cols, dim, seed = (int(x) for x in head[1:])
    n = rows * cols
    weights = np.array([[float(x) for x in lines[1 + i].split()] for i in range(n)])
    if weights.shape != (n, dim):
        raise ValueError(f"expected {n}x{dim} weights, got {weights.shape}")
    return Lattice(rows, cols, weights, seed), 1 + n


@dataclass
class SomModel:
    """Plain map operating in raw feature space."""

    lattice: Lattice
    concat: bool = False
    kind: str = field(default="SOM", init=False)

    def frame_winners(self, sample) -> list[UnitIndex | None]:
        frames = frames_of(sample)
        if self.concat:
            return [find_bmu(frames.ravel(), self.lattice)]
        return [find_bmu(x, self.lattice) for x in frames]

    def sequence_winner(self, sample) -> UnitIndex | None:
        return self.frame_winners(sample)[-1]


@dataclass
class SsomModel:
    """Spiking map: weights in normalized space plus the encoding ranges."""

    lattice: Lattice
    lo: np.ndarray
    hi: np.ndarray
    cfg: SsomConfig = field(default_factory=SsomConfig)
    kernel: LateralKernel = field(default_factory=LateralKernel)
    rule: StdpRule = field(default_factory=StdpRule)
    kind: str = field(default="SSOM", init=False)

    def encode(self, sample) -> EncodedFrames:
        """The sample's frames coded in the model's ranges, as in training."""
        return encode_frames(frames_of(sample), self.lo, self.hi, self.cfg.t_max,
                             self.lattice.dim)

    def frame_winners(self, sample) -> list[UnitIndex | None]:
        return [firing_record(v, self.lattice, self.cfg).winner
                for v in self.encode(sample).decoded]

    def sequence_winner(self, sample) -> UnitIndex | None:
        return self.frame_winners(sample)[-1]


@dataclass
class RssomModel(SsomModel):
    """Recurrent spiking map; winners come from the leaky difference vectors."""

    alpha: float = 0.5

    def __post_init__(self):
        self.kind = "RSSOM"

    def frame_winners(self, sample) -> list[UnitIndex | None]:
        state = DifferenceState.zeros(self.lattice, self.alpha)
        out = []
        for v in self.encode(sample).normalized:
            update_difference(v, self.lattice, state)
            out.append(difference_record(state, self.lattice, self.cfg).winner)
        return out


@dataclass
class LinModel(SsomModel):
    """Leaky-integrator map; winners come from the accumulated potentials."""

    lam: float = 0.5
    scale_input_by_lambda: bool = False

    def __post_init__(self):
        self.kind = "LIN"

    def frame_winners(self, sample) -> list[UnitIndex | None]:
        state = PotentialState.zeros(self.lattice, self.lam, self.scale_input_by_lambda)
        out = []
        for v in self.encode(sample).normalized:
            update_potential(v, self.lattice, state)
            out.append(potential_record(state, self.lattice, self.cfg).winner)
        return out


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
    path = Path(path)
    lines = path.read_text().splitlines()
    lattice, next_line = load_lattice(lines)
    kv: dict[str, str] = {}
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

    lo = np.array([float(x) for x in kv["lo"].split()])
    hi = np.array([float(x) for x in kv["hi"].split()])
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
