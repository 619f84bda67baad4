"""Spike-timing dependent plasticity: the exponential window and four update laws.

The signed interval is delta_t = t_pre - t_post.  The window is positive on
the pre-before-post side (delta_t < 0) and negative on the other, decaying
exponentially with |delta_t| on both sides.

Two of the update laws (panchev, input-anchored multiplicative) are branch
rules whose potentiating form is printed on the delta_t > 0 side.  The
default, flip_branches=True, puts it on the positive-window side instead
(delta_t < 0, where causality says the presynaptic spike can have driven
the postsynaptic one); flip_branches=False keeps the printed side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_positive

VARIANTS = ("additive", "panchev", "soula", "input")


@dataclass
class StdpWindow:
    """Exponential plasticity window parameters (amplitudes and time constants, ms)."""

    a_plus: float = 1.0
    a_minus: float = 1.0
    tau_plus: float = 10.0
    tau_minus: float = 10.0

    def __post_init__(self):
        check_positive(self, "a_plus", "a_minus", "tau_plus", "tau_minus")


@dataclass
class StdpRule:
    """A plasticity variant plus its parameters.

    eta is the learning rate used by the panchev and input rules; w_max is the
    weight ceiling (the soula rule's saturation limit, and the clamp bound for
    the additive and input rules).
    """

    variant: str = "input"
    eta: float = 0.1
    w_max: float = 1.0
    window: StdpWindow = field(default_factory=StdpWindow)
    flip_branches: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not (0 < self.eta <= 1):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        check_positive(self, "w_max")


def window_value(delta_t: float, window: StdpWindow) -> float:
    """Signed plasticity amount for a spike-time difference.

    Positive (up to a_plus) when the presynaptic spike leads, negative (down
    to -a_minus) when it lags, zero at exact coincidence.
    """
    if not math.isfinite(delta_t):
        raise ValueError(f"delta_t must be finite, got {delta_t}")
    if delta_t < 0:
        return window.a_plus * math.exp(delta_t / window.tau_plus)
    if delta_t > 0:
        return -window.a_minus * math.exp(-delta_t / window.tau_minus)
    return 0.0


def window_magnitude(dt: np.ndarray, window: StdpWindow) -> np.ndarray:
    """a * exp(-|dt| / tau) of float64 dt, with the lead side's a_plus and
    tau_plus where dt < 0 and a_minus and tau_minus elsewhere: the window's
    magnitude wherever dt is not 0 (at coincidence the window is 0)."""
    # Scalars when both sides agree give the bits of per-element values;
    # only an asymmetric window picks them with np.where.
    tau, amp = window.tau_plus, window.a_plus
    if tau != window.tau_minus:
        tau = np.where(dt < 0, tau, window.tau_minus)
    if amp != window.a_minus:
        amp = np.where(dt < 0, amp, window.a_minus)
    m = np.exp(np.abs(dt) / -tau)   # -(|dt| / tau) has the bits of -|dt| / tau
    m *= amp
    return m


def _on_potentiating_branch(delta_t: float, rule: StdpRule) -> bool:
    return (delta_t < 0) if rule.flip_branches else (delta_t > 0)


def additive_update(w: float, f: float, w_max: float = 1.0) -> float:
    """Weight-independent rule: add the window value, clamp to [0, w_max]."""
    if not (math.isfinite(w) and math.isfinite(f)):
        raise ValueError("additive_update requires finite inputs")
    return min(max(w + f, 0.0), w_max)


def panchev_update(w: float, delta_t: float, rule: StdpRule) -> float:
    """Multiplicative rule on normalized weights, saturating at 0 and 1."""
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"panchev_update requires w in [0, 1], got {w}")
    f = window_value(delta_t, rule.window)
    if _on_potentiating_branch(delta_t, rule):
        return w + rule.eta * f * (1.0 - w)
    return w + rule.eta * f * w


def soula_update(w: float, delta_t: float, rule: StdpRule) -> float:
    """Saturating rule with fixed points at 0 and w_max; no learning rate."""
    if not (0.0 <= w <= rule.w_max):
        raise ValueError(f"soula_update requires w in [0, {rule.w_max}], got {w}")
    f = window_value(delta_t, rule.window)
    return w + f * w * (1.0 - w / rule.w_max)


def input_update(w: float, x_i: float, delta_t: float, rule: StdpRule) -> float:
    """Input-anchored multiplicative rule: the potentiating form pulls the
    weight toward the input component x_i; the other form scales the weight
    itself.  Result is clamped to [0, w_max]."""
    if not (math.isfinite(w) and math.isfinite(x_i)):
        raise ValueError("input_update requires finite inputs")
    f = window_value(delta_t, rule.window)
    if _on_potentiating_branch(delta_t, rule):
        w = w + rule.eta * f * (x_i - w)
    else:
        w = w + rule.eta * f * w
    return min(max(w, 0.0), rule.w_max)


def apply_rule_array(w: np.ndarray, x: np.ndarray, delta_t: np.ndarray,
                     rule: StdpRule, gain: np.ndarray | float = 1.0) -> np.ndarray:
    """Vectorized dispatcher used by the trainers.

    ``gain`` is the per-synapse schedule factor (learning-rate decay times
    neighborhood kernel); it scales eta for the eta-bearing rules and the raw
    step for the others.  Shapes of w, x, delta_t and gain broadcast together.
    A NaN delta_t gives a NaN weight.
    """
    w = np.asarray(w, dtype=np.float64)
    dt = np.asarray(delta_t, dtype=np.float64)
    # The window: sign(-dt) is +1 on the lead side, -1 on the lag side and
    # +0.0 at coincidence, so f is +0.0 there, as ``window_value`` is.
    f = window_magnitude(dt, rule.window)
    f *= np.sign(-dt)
    if rule.variant == "soula":
        return w + gain * f * w * (1.0 - w / rule.w_max)
    step = gain * rule.eta * f
    if rule.variant != "additive":
        potentiate = dt < 0 if rule.flip_branches else dt > 0
        step = step * np.where(potentiate, 1.0 - w if rule.variant == "panchev" else x - w, w)
    w = w + step
    if rule.variant == "panchev":
        return w
    return w.clip(0.0, rule.w_max)    # np.clip's ufunc, without its wrapper
