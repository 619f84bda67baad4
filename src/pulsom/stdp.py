"""Spike-timing dependent plasticity: the exponential window and four update laws.

The signed interval is delta_t = t_pre - t_post.  The window is positive on
the pre-before-post side (delta_t < 0) and negative on the other, decaying
exponentially with |delta_t| on both sides.

Two of the update laws (panchev, input-anchored multiplicative) are branch
rules whose potentiating form is applied on the delta_t > 0 side by default;
``flip_branches`` swaps the two sides.  Pairing the potentiating form with
the positive-window side (delta_t < 0, where causality says the presynaptic
spike can have driven the postsynaptic one) requires flip_branches=True,
which is what the trainers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    window: StdpWindow = None
    flip_branches: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not (0 < self.eta <= 1):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        check_positive(self, "w_max")
        if self.window is None:
            self.window = StdpWindow()


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


def window_value_array(delta_t: np.ndarray, window: StdpWindow) -> np.ndarray:
    """Vectorized ``window_value``: one exp(-|delta_t| / tau), with tau and
    the signed amplitude picked per side (0 at coincidence and for NaN)."""
    dt = np.asarray(delta_t, dtype=np.float64)
    return _window_of(dt, dt < 0, window)


def _window_of(dt: np.ndarray, lead: np.ndarray, window: StdpWindow) -> np.ndarray:
    """``window_value_array`` of float64 dt given its lead mask dt < 0."""
    tau = np.where(lead, window.tau_plus, window.tau_minus)
    amp = np.where(lead, window.a_plus, -window.a_minus)
    lag = np.abs(dt)
    return np.where(lag > 0, amp * np.exp(-lag / tau), 0.0)


def _on_potentiating_branch(delta_t: float, rule: StdpRule) -> bool:
    # Potentiating form sits on delta_t > 0 as printed; flipped puts it on
    # the causal (delta_t < 0) side.
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
    """
    w = np.asarray(w, dtype=np.float64)
    dt = np.asarray(delta_t, dtype=np.float64)
    lead = dt < 0
    f = _window_of(dt, lead, rule.window)
    if rule.variant == "additive":
        return np.clip(w + gain * rule.eta * f, 0.0, rule.w_max)
    if rule.variant == "soula":
        return w + gain * f * w * (1.0 - w / rule.w_max)
    potentiate = lead if rule.flip_branches else dt > 0
    if rule.variant == "panchev":
        step = np.where(potentiate, 1.0 - w, w)
        return w + gain * rule.eta * f * step
    step = np.where(potentiate, x - w, w)  # input rule
    return np.clip(w + gain * rule.eta * f * step, 0.0, rule.w_max)
