"""The spiking presentation's lean kernels against the code they replaced.

The oracles below are the earlier bodies of ``stdp.apply_rule_array`` (with
its window) and ``rssom.window_step``, which picked the window's per-side
values and its zero at coincidence with np.where and clipped through
np.clip.  The kernels must give their bits for every input the trainers can
pass: weights at 0 and at w_max, delta_t at exact coincidence, zero gains,
asymmetric windows and all four variants.  The SSOM's
clamped weight copy must follow the weights through training.

``oracle_train_spiking`` is the epoch loop of ``ssom.train_spiking`` as it
was before each step object fused its presentation into one
``train_frame``: every sequence coded on its own, and each frame stepped
through present, then ``oracle_area_step`` (the lateral kernel and the
learning gate on the winner's area), then learn, with the winner rules'
and the kernels' earlier formulas.  The fused trainers must give its bits.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pulsom.coding import SsomConfig, encode_frames
from pulsom.corpus import synth_generate
from pulsom.errors import DivergenceError
from pulsom.lin import potential_step, train_lin
from pulsom.models import LinModel, RssomModel, SsomModel
from pulsom.rssom import DifferenceState, difference_step, train_rssom, window_step
from pulsom.som import (
    EpochStats,
    Lattice,
    Schedule,
    TrainingLog,
    check_finite,
    frames_of,
    linear_decay,
    quantization_error,
    sample_vectors,
    winner_or_none,
)
from pulsom.ssom import (
    LateralKernel,
    area_rows,
    feature_ranges,
    normalized_init,
    train_ssom,
)
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


def oracle_area_step(times, w, rows, cfg):
    """The lateral kernel and the learning gate of a win by flat unit w on
    w's ``area_rows`` entry, as ``ssom.area_step`` computed them before it
    worked in place: the learning units, their times and gains."""
    area, near, factor, delay, gain = rows
    t0 = times[area]
    t = t0 + factor * (times[w] - t0)
    if near is not None:
        t = np.where(near, t, np.minimum(t0 + delay, cfg.t_max))
    g = np.maximum(t, t0) <= cfg.t_ref
    return area[g], t[g], gain[g]


class OracleStep:
    """A map's presentation (present: times and winner) and learning step
    (learn), as separate calls."""

    def __init__(self, model):
        self.lattice, self.cfg, self.rule = model.lattice, model.cfg, model.rule

    def learn(self, v, spikes, idx, t_post, gain):
        """The spiking map's STDP step toward v."""
        new = oracle_apply_rule_array(self.lattice.weights[idx], v[None, :],
                                      spikes - t_post[:, None], self.rule, gain)
        self.lattice.weights[idx] = new
        return new


class OracleFiring(OracleStep):
    """The SSOM's: its winner against an always clamped copy of the
    weights, which learn refreshes row by row."""

    def __init__(self, model):
        super().__init__(model)
        self.match = np.clip(model.lattice.weights, 0.0, 1.0)

    def reset(self):
        pass

    def present(self, v):
        delta = self.match - v[None, :]
        times = self.cfg.t_max * (np.einsum("ij,ij->i", delta, delta) / self.lattice.dim)
        return times, winner_or_none(times.argmin(), times, self.cfg.t_ref)

    def learn(self, v, spikes, idx, t_post, gain):
        self.match[idx] = np.clip(super().learn(v, spikes, idx, t_post, gain), 0.0, 1.0)


class OraclePotential(OracleStep):
    """LIN's: leaky potentials, the most excited unit wins, and the
    spiking map's learning step."""

    def __init__(self, model):
        super().__init__(model)
        self.lam = model.lam
        self.a = np.zeros(model.lattice.n_units)

    def reset(self):
        self.a[...] = 0.0

    def present(self, v):
        delta = self.lattice.weights - v[None, :]
        potential_step(self.a, np.einsum("ij,ij->i", delta, delta), self.lam)
        eff = (1.0 - self.lam) * (-self.a)
        times = self.cfg.t_max * (eff / (self.lattice.dim / 2.0)).clip(0.0, 1.0)
        return times, winner_or_none(self.a.argmax(), times, self.cfg.t_ref)


class OracleDifference(OracleStep):
    """RSSOM's: leaky difference vectors, the smallest-norm unit wins, and
    each gated unit steps along its vector."""

    def __init__(self, model):
        super().__init__(model)
        self.state = DifferenceState.zeros(model.lattice, model.alpha)

    def reset(self):
        self.state.y[...] = 0.0

    def present(self, v):
        difference_step(self.state.y, v, self.lattice.weights, self.state.alpha)
        n2 = np.einsum("ij,ij->i", self.state.y, self.state.y)
        times = self.cfg.t_max * np.minimum(n2 / self.lattice.dim, 1.0)
        return times, winner_or_none(n2.argmin(), times, self.cfg.t_ref)

    def learn(self, v, spikes, idx, t_post, gain):
        oracle_window_step(spikes, self.lattice, self.state, idx, t_post, gain[:, 0],
                           self.rule, 1.0)


ORACLE_STEPS = {"SSOM": OracleFiring, "RSSOM": OracleDifference, "LIN": OraclePotential}


def oracle_train_spiking(data, model, schedule, seed, gate_counts=None):
    """``ssom.train_spiking`` through present, ``oracle_area_step`` and
    learn.  gate_counts, a dict, counts in "gated" the presentations whose
    gate left out some unit of the winner's area."""
    lattice, lo, hi = model.lattice, model.lo, model.hi
    cfg, kernel = model.cfg, model.kernel
    step = ORACLE_STEPS[model.kind](model)
    sequences = [frames_of(s) for s in data]
    all_frames = sample_vectors(sequences, concat=False)
    codes = [encode_frames(s, lo, hi, cfg.t_max, lattice.dim) for s in sequences]
    rng = np.random.default_rng(seed)
    log = TrainingLog()
    for t in range(schedule.epochs):
        lr, radius = linear_decay(t, schedule)
        kernel_t = kernel if kernel.excite_radius is not None else replace(kernel, excite_radius=radius)
        rows = area_rows(lattice.distance_table(), radius, kernel_t, lr)
        skipped = 0
        for si in rng.permutation(len(sequences)):
            step.reset()
            seq = codes[si]
            for i in range(seq.spike_times.shape[0]):
                times, w = step.present(seq.normalized[i])
                if w < 0:
                    skipped += 1
                    continue
                idx, t_post, gain = oracle_area_step(times, w, rows[w], cfg)
                if gate_counts is not None:
                    gate_counts["gated"] += len(idx) < len(rows[w][0])
                step.learn(seq.normalized[i], seq.spike_times[i], idx, t_post, gain)
        check_finite(lattice, t)
        decoded = Lattice(lattice.rows, lattice.cols,
                          lo + np.clip(lattice.weights, 0.0, 1.0) * (hi - lo), lattice.rng_seed)
        log.rows.append(EpochStats(t, lr, radius, quantization_error(all_frames, decoded),
                                   skipped))
    return log


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
    """The SSOM matches against a clamped copy of its weights that training
    refreshes row by row; with w_max = 1.5 the soula rule drives weights
    above 1, where the copy and the weights differ.  Where the additive or
    input rule keeps every weight in [0, 1], it matches against the
    weights themselves."""

    @pytest.mark.parametrize("variant, w_max, spread, shared", [
        ("additive", 1.0, False, True), ("input", 0.8, False, True),
        ("input", 1.5, False, False), ("additive", 1.0, True, False),
        ("soula", 1.0, False, False), ("panchev", 1.0, False, False)])
    def test_the_weights_are_matched_where_the_clamp_is_the_identity(self, variant, w_max,
                                                                     spread, shared):
        lattice = Lattice(2, 2, np.linspace(0.0, 1.0, 12).reshape(4, 3))
        if spread:
            lattice.weights[0, 0] = -0.25
        model = SsomModel(lattice, np.zeros(3), np.ones(3), rule=StdpRule(variant, w_max=w_max))
        step = model.state()
        assert (step.match is lattice.weights) == shared
        assert step.match.tobytes() == np.clip(lattice.weights, 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("variant", ["soula", "panchev"])
    def test_copy_follows_training_and_winner_tables_hold(self, variant):
        data = synth_generate(2, 10, 6, 5, 2.0, True, 11)
        model = SsomModel(normalized_init(3, 5, data, 3), *feature_ranges(data), SsomConfig(),
                          LateralKernel(), StdpRule(variant, w_max=1.5))
        steps = []
        build = model.state
        model.state = lambda: steps.append(build()) or steps[-1]
        train_ssom(data, model, Schedule.for_lattice(3, 5, epochs=3), 3)
        del model.state

        (step,) = steps
        assert step.match.tobytes() == np.clip(model.lattice.weights, 0.0, 1.0).tobytes()
        if variant == "soula":
            assert (model.lattice.weights > 1.0).any()
        samples = synth_generate(2, 6, 6, 5, 2.0, True, 12)
        assert model.winner_table(samples).tolist() == [oracle_frame_winners(model, s)
                                                        for s in samples]


MODELS = {"ssom": (SsomModel, train_ssom, {}),
          "rssom": (RssomModel, train_rssom, {"alpha": 0.5}),
          "lin": (LinModel, train_lin, {"lam": 0.5})}
# the default window, a symmetric one whose amplitude is not 1, and an
# asymmetric one
WINDOWS = [StdpWindow(), StdpWindow(0.7, 0.7, 6.0, 6.0), StdpWindow(0.8, 1.3, 7.0, 13.0)]


def fused_and_oracle(kind, variant, window, w_max, excite_radius, t_ref, dim, spread, seed,
                     gate_counts=None):
    """The (weights, log or divergence epoch) of the fused trainer and of
    the oracle on one tiny map, from one initial lattice.  spread maps the
    initial weights to [-0.25, 1.25]."""
    data = synth_generate(2, 4, dim, 4, 2.0, True, seed)
    lo, hi = feature_ranges(data)
    model_cls, train, extra = MODELS[kind]
    init = normalized_init(3, 4, data, seed).weights
    if spread:
        init = init * 1.5 - 0.25
    schedule = Schedule.for_lattice(3, 4, epochs=2)
    out = []
    for run in (train, lambda *args: oracle_train_spiking(*args, gate_counts=gate_counts)):
        model = model_cls(Lattice(3, 4, init.copy()), lo, hi, SsomConfig(t_ref=t_ref),
                          LateralKernel(excite_radius, inhibit_gain=2.0),
                          StdpRule(variant, w_max=w_max, window=window), **extra)
        with np.errstate(all="ignore"):
            try:
                log = run(data, model, schedule, seed)
            except DivergenceError as e:
                log = e.epoch
        out.append((model.lattice.weights, log))
    return out


def assert_same_training(fused, oracle):
    (w_fused, log_fused), (w_oracle, log_oracle) = fused, oracle
    if isinstance(log_oracle, int):     # both diverge in the same epoch
        assert log_fused == log_oracle
        return
    assert same_bits(w_fused.view(np.uint64), w_oracle.view(np.uint64))
    assert len(log_fused.rows) == len(log_oracle.rows)
    for got, want in zip(log_fused.rows, log_oracle.rows):
        assert same_bits(got.qe, want.qe)
        assert (got.lr, got.radius, got.skipped) == (want.lr, want.radius, want.skipped)


class TestFusedTrainer:
    """Each step object's ``train_frame`` trains the bits of the chain it
    replaced (``oracle_train_spiking``): weights, every logged qe and every
    skipped count, for every variant, window and weight ceiling, at the auto
    excitation radius and below the schedule radius (the inhibition
    branch), at reference times that silence frames and gate area units
    out, and from SSOM initial weights outside [0, 1], which keep the
    clamped copy."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(list(MODELS)), variant=st.sampled_from(VARIANTS),
           window=st.sampled_from(WINDOWS), w_max=st.sampled_from([0.8, 1.0, 1.5]),
           excite_radius=st.sampled_from([None, 0.6]),
           t_ref=st.sampled_from([15.0, 2.0, 0.5]) | st.floats(0.2, 20.0),
           dim=st.integers(3, 5), spread=st.booleans(), seed=st.integers(0, 2**16))
    def test_bits_equal_the_present_area_step_learn_chain(self, kind, variant, window, w_max,
                                                          excite_radius, t_ref, dim, spread,
                                                          seed):
        assert_same_training(*fused_and_oracle(kind, variant, window, w_max, excite_radius,
                                                t_ref, dim, spread, seed))

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_a_low_reference_time_skips_frames_and_gates_units(self, kind):
        """At t_ref = 2 (SSOM, LIN) or 1 (RSSOM) with inhibition, some
        presentations leave area units out of learning, and the SSOM and
        LIN skip silent frames."""
        gate_counts = {"gated": 0}
        fused, oracle = fused_and_oracle(kind, "input", WINDOWS[2], 1.0, 0.6,
                                         1.0 if kind == "rssom" else 2.0, 4, False, 5,
                                         gate_counts)
        assert_same_training(fused, oracle)
        assert gate_counts["gated"] > 0
        if kind != "rssom":
            assert fused[1].total_skipped > 0
