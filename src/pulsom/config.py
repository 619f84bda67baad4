"""Run configuration: a flat `section.key = value` text format with a strict
key registry (unknown keys are rejected), typed parsing, and builders for
the domain objects a run needs.
"""

from __future__ import annotations

import inspect
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from .coding import SsomConfig
from .corpus import build_corpus_dataset, synth_generate
from .errors import ConfigError, CorpusFormatError, read_utf8
from .mfcc import MfccConfig
from .som import Schedule
from .ssom import LateralKernel
from .stdp import StdpRule, StdpWindow

AUTO = "auto"


@dataclass
class Key:
    name: str
    kind: str  # int | seed (an int >= 0) | float | bool | str | choice | float_or_auto
    default: object
    help: str
    choices: tuple = ()


def _default(fn, name: str):
    """The default of ``fn``'s parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


# A default that a library class or function also has is read from it.
REGISTRY = [
    Key("run.model", "choice", "som", "model to train/evaluate",
        ("som", "ssom", "rssom", "lin")),
    Key("run.seed", "seed", 0, "seed for initialization, shuffling and synthesis"),
    Key("run.outdir", "str", None, "directory for all outputs"),
    Key("lattice.rows", "int", 8, "lattice rows"),
    Key("lattice.cols", "int", 8, "lattice columns"),
    Key("schedule.epochs", "int", Schedule.epochs, "training epochs"),
    Key("schedule.lr_start", "float", Schedule.lr_start, "initial learning rate"),
    Key("schedule.lr_end", "float", Schedule.lr_end, "final learning rate"),
    Key("schedule.radius_start", "float_or_auto", AUTO,
        "initial neighborhood radius; auto = half the larger lattice dimension, "
        "or radius_end if that is larger"),
    Key("schedule.radius_end", "float", Schedule.radius_end, "final neighborhood radius"),
    Key("stdp.variant", "choice", StdpRule.variant, "plasticity rule (RSSOM ignores it)",
        ("additive", "panchev", "soula", "input")),
    Key("stdp.a_plus", "float", StdpWindow.a_plus, "window amplitude, potentiating side"),
    Key("stdp.a_minus", "float", StdpWindow.a_minus, "window amplitude, depressing side"),
    Key("stdp.tau_plus_ms", "float", StdpWindow.tau_plus,
        "window time constant, potentiating side"),
    Key("stdp.tau_minus_ms", "float", StdpWindow.tau_minus,
        "window time constant, depressing side"),
    Key("stdp.eta", "float", StdpRule.eta, "STDP step scale (unused by soula in SSOM and LIN)"),
    Key("stdp.w_max", "float", StdpRule.w_max, "weight ceiling"),
    Key("ssom.t_max_ms", "float", SsomConfig.t_max, "latency-encoding horizon"),
    Key("ssom.t_ref_ms", "float", SsomConfig.t_ref, "reference time bounding learning"),
    Key("lateral.excite_radius", "float_or_auto", AUTO,
        "excitatory lateral radius; auto = track the decayed schedule radius"),
    Key("lateral.excite_gain", "float", LateralKernel.excite_gain,
        "pull toward the winner's firing time"),
    Key("lateral.inhibit_gain", "float", LateralKernel.inhibit_gain,
        "delay of remote units, in ms per lattice unit beyond the radius; no effect "
        "at excite_radius = auto (see README)"),
    Key("rssom.alpha", "float", 0.5, "leaking coefficient of the difference vectors"),
    Key("lin.lambda", "float", 0.5, "memory depth of the integrator potentials"),
    Key("som.concat", "bool", False,
        "plain SOM on concatenated whole-sequence vectors instead of frames"),
    Key("mfcc.preemph_a", "float", MfccConfig.preemph_a, "pre-emphasis coefficient"),
    Key("mfcc.frame_len", "int", MfccConfig.frame_len,
        "frame length in samples (frames overlap by half)"),
    Key("mfcc.n_filters", "int", MfccConfig.n_filters, "mel filterbank size"),
    Key("mfcc.n_coeffs", "int", MfccConfig.n_coeffs, "cepstral coefficients per frame"),
    Key("mfcc.fft_size", "int", MfccConfig.fft_size, "FFT size"),
    Key("mfcc.use_power", "bool", MfccConfig.use_power,
        "power spectrum into the filterbank (false = magnitude)"),
    Key("corpus.root", "str", "", "corpus root directory (features command)"),
    Key("corpus.unit", "choice", _default(build_corpus_dataset, "unit"), "segment unit",
        ("phn", "wrd")),
    Key("corpus.dialects", "str", "", "comma-separated dialect-directory filter"),
    Key("corpus.speakers", "str", "", "comma-separated speaker-directory filter"),
    Key("corpus.frames", "int", _default(build_corpus_dataset, "k"),
        "frames extracted per segment"),
    Key("data.train_csv", "str", "", "training dataset cache (train/eval commands)"),
    Key("data.test_csv", "str", "", "evaluation dataset cache (eval command)"),
    Key("synth.classes", "int", 3, "synthetic class count"),
    Key("synth.samples_per_class", "int", 50, "synthetic sequences per class"),
    Key("synth.dim", "int", _default(synth_generate, "dim"), "synthetic feature dimension"),
    Key("synth.frames", "int", _default(synth_generate, "frames"),
        "synthetic frames per sequence"),
    Key("synth.separation", "float", _default(synth_generate, "separation"),
        "minimum distance between cluster means"),
    Key("synth.order_task", "bool", _default(synth_generate, "order_task"),
        "two classes sharing one frame set in opposite orders"),
    Key("eval.frame_vote", "bool", False,
        "per-frame majority vote instead of the terminal winner"),
    Key("eval.class_map", "choice", "identity", "label-to-class mapping for reports",
        ("identity", "timit_macro")),
]

KEYS = {k.name: k for k in REGISTRY}


def parse_value(key: Key, raw: str, at: str):
    """The value of ``raw`` as ``key``'s kind; a bad value raises ConfigError
    naming ``at`` (the ``file:line`` that set it)."""
    try:
        if key.kind == "seed" and int(raw) < 0:
            raise ValueError(raw)
        if key.kind in ("int", "seed"):
            return int(raw)
        if key.kind == "float":
            return float(raw)
        if key.kind == "float_or_auto":
            return AUTO if raw == AUTO else float(raw)
        if key.kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError(raw)
            return raw == "true"
        if key.kind == "choice":
            if raw not in key.choices:
                raise ValueError(raw)
            return raw
        return raw
    except ValueError:
        expect = {"bool": "true or false", "choice": f"one of {key.choices}",
                  "seed": "non-negative integer"}
        raise ConfigError(f"{at}: bad value {raw!r} for {key.name} "
                          f"(expected {expect.get(key.kind, key.kind)})") from None


def format_value(key: Key, value) -> str:
    """The text of ``value`` as ``key``'s kind, which parse_value reads back;
    None or AUTO is an unset float_or_auto."""
    if key.kind == "bool":
        return "true" if value else "false"
    if key.kind == "float_or_auto" and (value is None or value == AUTO):
        return AUTO
    if key.kind in ("float", "float_or_auto"):
        return repr(float(value))
    return str(value)


def parse_config_text(text: str, source: str = "<config>", where: dict | None = None) -> dict:
    """The values of a config text; ``where`` (if given) gets each key's ``source:line``."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        at = f"{source}:{lineno}"
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{at}: expected `section.key = value`, got {line.strip()!r}")
        name, _, raw = stripped.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name not in KEYS:
            raise ConfigError(f"{at}: unknown config key {name!r}")
        if name in values:
            raise ConfigError(f"{at}: duplicate key {name!r}")
        values[name] = parse_value(KEYS[name], raw, at)
        if where is not None:
            where[name] = at
    return values


class RunConfig:
    """A fully resolved configuration: explicit keys plus module defaults,
    and the ``file:line`` where each explicit key was set (``where``)."""

    def __init__(self, values: dict, where: dict | None = None):
        self.values = {k.name: k.default for k in REGISTRY}
        self.values.update(values)
        self.where = where or {}

    @staticmethod
    def load(path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file {path} does not exist")
        try:
            text = read_utf8(path)
        except CorpusFormatError as exc:
            raise ConfigError(str(exc)) from None
        where = {}
        values = parse_config_text(text, source=str(path), where=where)
        return RunConfig(values, where)

    def __getitem__(self, name: str):
        return self.values[name]

    def require(self, name: str):
        v = self.values[name]
        if v in (None, ""):
            raise ConfigError(f"config key {name} is required for this command")
        return v

    def outdir(self) -> Path:
        return Path(self.require("run.outdir"))

    @contextmanager
    def config_errors(self, *sections):
        """Turn a ValueError raised inside into a ConfigError that names the
        ``file:line`` of its culprits: of the keys set in the file under
        ``sections`` (prefixes such as "stdp."), those whose name, less a
        "_ms" suffix, the message mentions, or else all of them.  With no
        sections the message is kept as it is."""
        try:
            yield
        except ValueError as exc:
            msg = str(exc)
            keys = [k for k in self.where if k.startswith(sections)]
            named = [k for k in keys
                     if re.search(rf"\b{k.split('.')[1].removesuffix('_ms')}\b", msg)]
            culprits = ", ".join(f"{self.where[k]} ({k})" for k in named or keys)
            raise ConfigError(f"{culprits}: {msg}" if culprits else msg) from None

    def _build(self, cls, section: str, **given):
        """A ``cls`` with the fields ``given``, and each other field set from
        the value ``section.<field>`` (or ``section.<field>_ms``) if there is
        one; a bad value raises ConfigError naming where it was set."""
        keys = {f.name: k for f in fields(cls) if f.name not in given
                for k in (f"{section}.{f.name}", f"{section}.{f.name}_ms") if k in self.values}
        with self.config_errors(f"{section}."):
            return cls(**given, **{name: self[k] for name, k in keys.items()})

    def schedule(self) -> Schedule:
        if self["schedule.radius_start"] != AUTO:
            return self._build(Schedule, "schedule")
        rest = {f: self[f"schedule.{f}"] for f in ("epochs", "lr_start", "lr_end", "radius_end")}
        with self.config_errors("schedule."):
            return Schedule.for_lattice(self["lattice.rows"], self["lattice.cols"], **rest)

    def stdp_rule(self) -> StdpRule:
        return self._build(StdpRule, "stdp", window=self._build(StdpWindow, "stdp"))

    def ssom_config(self) -> SsomConfig:
        return self._build(SsomConfig, "ssom")

    def lateral_kernel(self) -> LateralKernel:
        radius = self["lateral.excite_radius"]
        return self._build(LateralKernel, "lateral",
                           excite_radius=None if radius == AUTO else radius)

    def mfcc_config(self) -> MfccConfig:
        return self._build(MfccConfig, "mfcc")

    def effective_text(self) -> str:
        return "".join(f"{key.name} = {format_value(key, self.values[key.name])}\n"
                       for key in REGISTRY)


def registry_help() -> str:
    """One line per config key, for --help."""
    width = max(len(k.name) for k in REGISTRY)
    lines = ["config keys (section.key = value):"]
    for k in REGISTRY:
        shown = "(required)" if k.default in (None, "") else f"[{format_value(k, k.default)}]"
        lines.append(f"  {k.name.ljust(width)}  {k.help} {shown}")
    return "\n".join(lines)
