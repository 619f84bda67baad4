import math

import numpy as np
import pytest

from pulsom.stdp import (
    StdpRule,
    StdpWindow,
    additive_update,
    apply_rule_array,
    input_update,
    lead_magnitude,
    panchev_update,
    soula_update,
    window_value,
)


def window_value_array(delta_t, window: StdpWindow) -> np.ndarray:
    """Oracle: ``window_value`` over an array, as sign(-delta_t) times
    ``lead_magnitude`` of -delta_t (0 at coincidence and for NaN)."""
    dt = np.asarray(delta_t, dtype=np.float64)
    return np.where(np.isnan(dt), 0.0, np.sign(-dt) * lead_magnitude(-dt, window))


def rule_with(a_plus=1.0, a_minus=1.0, tau=10.0, eta=0.1, w_max=1.0, variant="input"):
    return StdpRule(variant, eta, w_max, StdpWindow(a_plus, a_minus, tau, tau))


class TestWindow:
    def test_zero_at_coincidence(self):
        assert window_value(0.0, StdpWindow()) == 0.0

    def test_potentiating_side_value(self):
        w = StdpWindow(a_plus=1.0, tau_plus=10.0)
        assert window_value(-10.0, w) == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_depressing_side_value(self):
        w = StdpWindow(a_minus=1.0, tau_minus=10.0)
        assert window_value(10.0, w) == pytest.approx(-0.36787944117144233, abs=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            window_value(float("nan"), StdpWindow())
        with pytest.raises(ValueError):
            window_value(float("inf"), StdpWindow())

    def test_sign_opposes_delta(self):
        w = StdpWindow(a_plus=0.7, a_minus=1.3, tau_plus=8.0, tau_minus=12.0)
        rng = np.random.default_rng(0)
        for dt in rng.uniform(-60, 60, size=500):
            if dt == 0:
                continue
            assert math.copysign(1, window_value(dt, w)) == -math.copysign(1, dt)

    def test_magnitude_decays_with_lag(self):
        w = StdpWindow(a_plus=1.0, a_minus=1.0, tau_plus=9.0, tau_minus=11.0)
        for side in (-1, 1):
            lags = [side * x for x in (0.5, 1, 2, 5, 10, 20, 40)]
            mags = [abs(window_value(dt, w)) for dt in lags]
            assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_bounded_by_amplitudes(self):
        w = StdpWindow(a_plus=0.4, a_minus=0.9, tau_plus=5.0, tau_minus=15.0)
        rng = np.random.default_rng(1)
        dts = rng.uniform(-100, 100, size=2000)
        vals = window_value_array(dts, w)
        assert np.all(np.abs(vals) <= max(w.a_plus, w.a_minus))

    def test_one_tau_back_recovers_amplitude(self):
        w = StdpWindow(a_plus=0.8, tau_plus=7.0)
        assert window_value(-7.0, w) * math.e == pytest.approx(0.8, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        w = StdpWindow(a_plus=1.1, a_minus=0.6, tau_plus=4.0, tau_minus=20.0)
        dts = np.array([-30.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.5, 50.0])
        expected = [window_value(dt, w) for dt in dts]
        assert np.allclose(window_value_array(dts, w), expected, atol=0)

    @staticmethod
    def two_exp_window(delta_t, window):
        """The window as two full exp passes, one per side."""
        dt = np.asarray(delta_t, dtype=np.float64)
        pos = window.a_plus * np.exp(np.minimum(dt, 0.0) / window.tau_plus)
        neg = -window.a_minus * np.exp(-np.maximum(dt, 0.0) / window.tau_minus)
        return np.where(dt < 0, pos, np.where(dt > 0, neg, 0.0))

    @pytest.mark.parametrize("w", [StdpWindow(), StdpWindow(0.8, 0.6, 9.0, 14.0)])
    def test_vectorized_bits_equal_two_exp_oracle(self, w):
        rng = np.random.default_rng(3)
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                 np.inf, -np.inf, np.nan]
        dts = np.concatenate([rng.uniform(-80, 80, size=20000 - len(edges)), edges])
        dts = dts.reshape(-1, 40)
        with np.errstate(all="ignore"):
            want = self.two_exp_window(dts, w)
        got = window_value_array(dts, w)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            StdpWindow(a_plus=0.0)
        with pytest.raises(ValueError):
            StdpWindow(tau_minus=-1.0)


class TestAdditive:
    def test_adds_window_value(self):
        assert additive_update(0.5, 0.1) == pytest.approx(0.6)

    def test_zero_is_identity(self):
        assert additive_update(0.42, 0.0) == 0.42

    def test_clamps_at_ceiling(self):
        assert additive_update(0.95, 0.2, w_max=1.0) == 1.0

    def test_clamps_at_floor(self):
        assert additive_update(0.05, -0.2) == 0.0


class TestPanchev:
    def test_fixed_point_at_one_on_potentiating_form(self):
        # delta_t < 0, the causal side, carries the (1 - w) form
        assert panchev_update(1.0, -5.0, rule_with()) == 1.0

    def test_fixed_point_at_zero_on_decay_form(self):
        assert panchev_update(0.0, 5.0, rule_with()) == 0.0

    def test_direct_value_on_potentiating_form(self):
        # a_plus = e at one tau back gives a window value of exactly 1,
        # on the side that carries the (1 - w) form
        rule = rule_with(a_plus=math.e, tau=10.0, eta=0.1)
        assert panchev_update(0.5, -10.0, rule) == pytest.approx(0.55, abs=1e-12)

    def test_rejects_unnormalized_weight(self):
        with pytest.raises(ValueError):
            panchev_update(1.2, 1.0, rule_with())

    def test_stays_in_unit_interval(self):
        # holds because the potentiating form sits on the positive-window side
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            rule = rule_with(a_plus=float(rng.uniform(0.05, 1.0)),
                             a_minus=float(rng.uniform(0.05, 1.0)),
                             tau=float(rng.uniform(1.0, 30.0)),
                             eta=float(rng.uniform(0.01, 1.0)))
            w = float(rng.uniform(0, 1))
            out = panchev_update(w, float(rng.uniform(-50, 50)), rule)
            assert 0.0 <= out <= 1.0


class TestSoula:
    def test_fixed_point_at_zero(self):
        assert soula_update(0.0, -3.0, rule_with()) == 0.0

    def test_fixed_point_at_ceiling(self):
        rule = rule_with(w_max=2.0)
        assert soula_update(2.0, -3.0, rule) == 2.0

    def test_direct_value(self):
        # window value 0.2 on the potentiating side
        rule = rule_with(a_plus=0.2 * math.e, tau=10.0)
        assert soula_update(0.5, -10.0, rule) == pytest.approx(0.55, abs=1e-12)

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            soula_update(1.5, 1.0, rule_with(w_max=1.0))

    def test_stays_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            w_max = float(rng.uniform(0.5, 3.0))
            rule = rule_with(a_plus=float(rng.uniform(0.05, 1.0)),
                             a_minus=float(rng.uniform(0.05, 1.0)),
                             tau=float(rng.uniform(1.0, 30.0)), w_max=w_max)
            w = float(rng.uniform(0, w_max))
            out = soula_update(w, float(rng.uniform(-50, 50)), rule)
            assert 0.0 <= out <= w_max


class TestInputRule:
    def test_fixed_point_at_input(self):
        # delta_t < 0, the causal side, carries the (x - w) form
        rule = rule_with()
        assert input_update(0.3, 0.3, -4.0, rule) == pytest.approx(0.3, abs=1e-15)

    def test_direct_value_toward_input(self):
        rule = rule_with(a_plus=0.4 * math.e, tau=10.0, eta=0.5)
        out = input_update(0.2, 1.0, -10.0, rule)
        assert out == pytest.approx(0.36, abs=1e-12)

    def test_direct_value_on_decay_form(self):
        rule = rule_with(a_minus=0.5 * math.e, tau=10.0, eta=0.1)
        out = input_update(0.5, 0.9, 10.0, rule)
        assert out == pytest.approx(0.475, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            input_update(float("nan"), 0.5, 1.0, rule_with())

    def test_result_between_weight_and_input(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            eta = float(rng.uniform(0.01, 1.0))
            rule = rule_with(a_plus=float(rng.uniform(0.05, 1.0)),
                             a_minus=float(rng.uniform(0.05, 1.0)),
                             tau=float(rng.uniform(1.0, 30.0)), eta=eta)
            w = float(rng.uniform(0, 1))
            x = float(rng.uniform(0, 1))
            dt = float(-rng.uniform(0.01, 50))  # the potentiating side
            out = input_update(w, x, dt, rule)
            assert min(w, x) - 1e-12 <= out <= max(w, x) + 1e-12


class TestPurity:
    def test_same_inputs_same_outputs(self):
        rule = rule_with(a_plus=0.7, a_minus=0.9, tau=12.0, eta=0.3)
        args = (0.4, 0.8, -3.7)
        assert input_update(*args, rule) == input_update(*args, rule)
        assert panchev_update(0.4, -3.7, rule) == panchev_update(0.4, -3.7, rule)
        assert soula_update(0.4, -3.7, rule) == soula_update(0.4, -3.7, rule)
        assert additive_update(0.4, 0.2) == additive_update(0.4, 0.2)


class TestVectorizedDispatcher:
    def test_matches_scalar_input_rule(self):
        rule = rule_with(a_plus=0.8, a_minus=0.6, tau=9.0, eta=0.2)
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 1, size=16)
        x = rng.uniform(0, 1, size=16)
        dt = rng.uniform(-30, 30, size=16)
        out = apply_rule_array(w, x, dt, rule)
        expected = [input_update(w[i], x[i], dt[i], rule) for i in range(16)]
        assert np.allclose(out, expected, atol=1e-15)

    def test_matches_scalar_panchev_and_soula(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(0, 1, size=16)
        dt = rng.uniform(-30, 30, size=16)
        for variant, scalar in (("panchev", panchev_update), ("soula", soula_update)):
            rule = rule_with(a_plus=0.5, a_minus=0.5, tau=14.0, eta=0.3,
                             variant=variant)
            out = apply_rule_array(w, w, dt, rule)
            expected = [scalar(w[i], dt[i], rule) for i in range(16)]
            assert np.allclose(out, expected, atol=1e-15)

    def test_gain_scales_eta(self):
        rule = rule_with(a_plus=math.e, tau=10.0, eta=0.2)
        out = apply_rule_array(np.array([0.5]), np.array([1.0]),
                               np.array([-10.0]), rule, gain=0.5)
        # effective eta 0.1 against window value 1
        assert out[0] == pytest.approx(0.55, abs=1e-12)


class TestRuleValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            StdpRule(variant="triplet")

    def test_eta_range(self):
        with pytest.raises(ValueError):
            StdpRule(eta=0.0)
        with pytest.raises(ValueError):
            StdpRule(eta=1.5)
