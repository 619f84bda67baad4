"""The spiking presentation's lean kernels against the code they replaced.

The oracles below are the earlier bodies of ``stdp.apply_rule_array`` (with
its window) and ``rssom.window_step``, which picked the window's per-side
values and its zero at coincidence with np.where and clipped through
np.clip.  The kernels must give their bits for every input the trainers can
pass: weights at 0 and at w_max, delta_t at exact coincidence, zero gains,
asymmetric windows and all four variants.  The SSOM's
clamped weight copy must follow the weights through training.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pulsom.coding import SsomConfig
from pulsom.corpus import synth_generate
from pulsom.models import SsomModel
from pulsom.rssom import DifferenceState, window_step
from pulsom.som import Lattice, Schedule
from pulsom.ssom import LateralKernel, feature_ranges, normalized_init, train_ssom
from pulsom.stdp import VARIANTS, StdpRule, StdpWindow, apply_rule_array
from test_inference import oracle_frame_winners


def oracle_window(dt, window):
    lead = dt < 0
    tau = np.where(lead, window.tau_plus, window.tau_minus)
    amp = np.where(lead, window.a_plus, -window.a_minus)
    lag = np.abs(dt)
    return np.where(lag > 0, amp * np.exp(-lag / tau), 0.0)


def oracle_apply_rule_array(w, x, delta_t, rule, gain=1.0):
    w = np.asarray(w, dtype=np.float64)
    dt = np.asarray(delta_t, dtype=np.float64)
    f = oracle_window(dt, rule.window)
    if rule.variant == "additive":
        return np.clip(w + gain * rule.eta * f, 0.0, rule.w_max)
    if rule.variant == "soula":
        return w + gain * f * w * (1.0 - w / rule.w_max)
    if rule.variant == "panchev":
        step = np.where(dt < 0, 1.0 - w, w)
        return w + gain * rule.eta * f * step
    step = np.where(dt < 0, x - w, w)
    return np.clip(w + gain * rule.eta * f * step, 0.0, rule.w_max)


def oracle_window_step(t_spike, lattice, state, idx, t_post, h, rule, lr_scale):
    gain = (lr_scale * h * rule.eta)[:, None]
    dt = t_spike[None, :] - t_post[:, None]
    scale = np.abs(oracle_window(dt, rule.window))
    stepped = lattice.weights[idx] + gain * scale * state.y[idx]
    lattice.weights[idx] = np.clip(stepped, 0.0, rule.w_max)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def side_values(low, high):
    """A pair of window values, equal on both sides half of the time."""
    return st.one_of(st.floats(low, high).map(lambda v: (v, v)),
                     st.tuples(st.floats(low, high), st.floats(low, high)))


@st.composite
def rules(draw, variants=VARIANTS):
    (a_plus, a_minus), (tau_plus, tau_minus) = draw(side_values(0.05, 3.0)), draw(
        side_values(0.5, 40.0))
    return StdpRule(draw(st.sampled_from(variants)), draw(st.floats(0.01, 1.0)),
                    draw(st.sampled_from([0.8, 1.0, 1.5]) | st.floats(0.1, 3.0)),
                    StdpWindow(a_plus, a_minus, tau_plus, tau_minus))


def blocks(shape, elements):
    return arrays(np.float64, shape, elements=elements)


def weights(w_max):
    """Weights at 0, -0.0 and w_max, inside [0, w_max] and a little above."""
    return st.sampled_from([0.0, -0.0, w_max, 1.0]) | st.floats(0.0, 1.2 * w_max)


# delta_t at exact (signed) coincidence, at infinity and anywhere finite.
DELTA_T = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e-310, -1e-310]) | st.floats(
    -80.0, 80.0)
GAINS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0)


class TestRuleKernel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rule=rules(), k=st.integers(1, 5), d=st.integers(1, 6))
    def test_bits_equal_the_where_and_np_clip_oracle(self, data, rule, k, d):
        w = data.draw(blocks((k, d), weights(rule.w_max)))
        x = data.draw(blocks((d,), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
        dt = data.draw(blocks((k, d), DELTA_T))
        gain = data.draw(blocks((k, 1), GAINS))
        with np.errstate(all="ignore"):
            want = oracle_apply_rule_array(w, x[None, :], dt, rule, gain)
            got = apply_rule_array(w, x, dt, rule, gain)
        assert same_bits(got, want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_coincidence_leaves_the_weight(self, variant, symmetric):
        # the window is +0.0 at delta_t == 0, so the step adds exactly 0;
        # window_magnitude takes a symmetric window's values as scalars
        window = StdpWindow(0.7, 0.7, 6.0, 6.0) if symmetric else StdpWindow(0.7, 1.2, 6.0, 15.0)
        rule = StdpRule(variant, 0.3, 1.5, window)
        w = np.array([0.0, 0.25, 1.0, 1.5])
        got = apply_rule_array(w, np.full(4, 0.5), np.zeros(4), rule, np.full(4, 0.8))
        assert same_bits(got, w)

    def test_scalar_gain_and_one_dimensional_blocks(self):
        rule = StdpRule("input", 0.2, 1.0, StdpWindow(1.0, 1.0, 10.0, 10.0))
        w, x = np.linspace(0.0, 1.0, 7), np.linspace(1.0, 0.0, 7)
        dt = np.array([-12.0, -0.5, 0.0, 0.0, 3.0, 9.0, 40.0])
        assert same_bits(apply_rule_array(w, x, dt, rule),
                         oracle_apply_rule_array(w, x, dt, rule))


class TestWindowStep:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rule=rules(), n=st.integers(1, 8), d=st.integers(1, 5),
           lr=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_bits_equal_the_where_and_np_clip_oracle(self, data, rule, n, d, lr):
        weights_ = data.draw(blocks((n, d), weights(rule.w_max)))
        y = data.draw(blocks((n, d), st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)))
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n,
                                          unique=True)), dtype=np.intp)
        t_post = data.draw(blocks((len(idx),), st.floats(0.0, 20.0)))
        # input spikes that coincide with some of the units' firing times
        t_spike = data.draw(blocks((d,), st.sampled_from(list(t_post) or [0.0])
                                   | st.floats(0.0, 20.0)))
        h = data.draw(blocks((len(idx),), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
        want = Lattice(1, n, weights_.copy())
        got = Lattice(1, n, weights_.copy())
        state = DifferenceState(y, 0.5)

        oracle_window_step(t_spike, want, state, idx, t_post, h, rule, lr)
        window_step(t_spike, got, state, idx, t_post, (lr * h)[:, None], rule)

        assert same_bits(got.weights, want.weights)


class TestClampedCopy:
    """The SSOM matches against a clamped copy of its weights that learn
    refreshes row by row; with w_max = 1.5 the soula rule drives weights
    above 1, where the copy and the weights differ."""

    @pytest.mark.parametrize("variant", ["soula", "panchev"])
    def test_copy_follows_training_and_winner_tables_hold(self, variant):
        data = synth_generate(2, 10, 6, 5, 2.0, True, 11)
        model = SsomModel(normalized_init(3, 5, data, 3), *feature_ranges(data), SsomConfig(),
                          LateralKernel(), StdpRule(variant, w_max=1.5))
        steps = []
        build = model.state
        model.state = lambda batch: steps.append(build(batch)) or steps[-1]
        train_ssom(data, model, Schedule.for_lattice(3, 5, epochs=3), 3)
        del model.state

        (step,) = steps
        assert step.match.weights.tobytes() == np.clip(model.lattice.weights, 0.0, 1.0).tobytes()
        if variant == "soula":
            assert (model.lattice.weights > 1.0).any()
        samples = synth_generate(2, 6, 6, 5, 2.0, True, 12)
        assert model.winner_table(samples).tolist() == [oracle_frame_winners(model, s)
                                                        for s in samples]
