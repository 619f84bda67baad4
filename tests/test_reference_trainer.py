"""A plain per-synapse reference trainer for the spiking maps.

Python loops over units and synapses compute what ``ssom.train_spiking``
computes in numpy: the firing times (the SSOM's mismatch latencies, the
RSSOM's difference vectors, LIN's potentials), the lateral kernel on the
units within the radius of the winner, the ``t_ref`` gate and the
neighborhood gain, and each synapse's step through ``pulsom.stdp``'s scalar
laws.  The gain goes into eta (panchev, input), into the window amplitudes
(soula) or into the window value (additive); the RSSOM steps along its
difference vector by |window|.  The final weights must match the
production trainers' within 1e-12: ``math.exp`` and numpy's ``exp`` may
differ in the last bits, and the operations round in another order.

Soula with the asymmetric window is left out: there the gain times the
window exceeds 1 and drives weights below 0, outside the scalar law's
domain [0, w_max].
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pulsom.coding import SsomConfig
from pulsom.corpus import synth_generate
from pulsom.lin import train_lin
from pulsom.models import LinModel, RssomModel, SsomModel
from pulsom.rssom import train_rssom
from pulsom.som import Schedule
from pulsom.ssom import LateralKernel, feature_ranges, normalized_init, train_ssom
from pulsom.stdp import (StdpRule, additive_update, input_update, panchev_update, soula_update,
                         window_value)
from test_trainer_digests import COLS, EPOCHS, GATES, RADII, ROWS, RULES, SEED

KINDS = {"ssom": (SsomModel, train_ssom, {}), "rssom": (RssomModel, train_rssom, {"alpha": 0.5}),
         "lin": (LinModel, train_lin, {"lam": 0.5})}
RULE_SETS = {"default": {}, "asymmetric": RULES["asymmetric"], "w_max_1.5": RULES["w_max_1.5"]}
CASES = [(kind, variant, rules) for kind, variants in [
    ("ssom", ("additive", "panchev", "soula", "input")), ("rssom", ("input",)),
    ("lin", ("additive", "panchev", "soula", "input"))]
    for variant in variants for rules in RULE_SETS
    if not (variant == "soula" and rules == "asymmetric")]


def firing_times(kind, model, state, v):
    """Every unit's firing time for normalized frame v, and the winner;
    steps the RSSOM's difference vectors or LIN's potentials in state."""
    w, t_max, dim = model.lattice.weights.tolist(), model.cfg.t_max, len(v)
    if kind == "ssom":
        times = [t_max * sum((x - min(max(wi, 0.0), 1.0)) ** 2 for x, wi in zip(v, row)) / dim
                 for row in w]
        return times, times.index(min(times))
    if kind == "rssom":
        a = model.alpha
        state[:] = [[(1 - a) * y + a * (x - wi) for y, x, wi in zip(ys, v, row)]
                    for ys, row in zip(state, w)]
        n2 = [sum(y * y for y in ys) for ys in state]
        return [t_max * min(n / dim, 1.0) for n in n2], n2.index(min(n2))
    lam = model.lam
    state[:] = [lam * p - 0.5 * sum((x - wi) ** 2 for x, wi in zip(v, row))
                for p, row in zip(state, w)]
    times = [t_max * min(max((1 - lam) * -p / (dim / 2), 0.0), 1.0) for p in state]
    return times, state.index(max(state))


def synapse_step(kind, rule, wi, x, dt, gain, y):
    """One synapse's new weight, with the learning gain."""
    if kind == "rssom":
        return min(max(wi + rule.eta * gain * abs(window_value(dt, rule.window)) * y, 0.0),
                   rule.w_max)
    if rule.variant == "additive":
        return additive_update(wi, gain * rule.eta * window_value(dt, rule.window), rule.w_max)
    if rule.variant == "soula":
        win = rule.window
        scaled = replace(win, a_plus=gain * win.a_plus, a_minus=gain * win.a_minus)
        return soula_update(wi, dt, replace(rule, window=scaled))
    scaled = replace(rule, eta=gain * rule.eta)
    if rule.variant == "panchev":
        return panchev_update(wi, dt, scaled)
    return input_update(wi, x, dt, scaled)


def reference_train(kind, model, data, schedule, seed):
    lattice, cfg, kernel, rule = model.lattice, model.cfg, model.kernel, model.rule
    cols = lattice.cols
    lo_, span = model.lo.tolist(), (model.hi - model.lo).tolist()
    rng = np.random.default_rng(seed)
    for t in range(schedule.epochs):
        frac = t / (schedule.epochs - 1)
        lr = schedule.lr_start + (schedule.lr_end - schedule.lr_start) * frac
        radius = schedule.radius_start + (schedule.radius_end - schedule.radius_start) * frac
        r_exc = kernel.excite_radius or radius
        for si in rng.permutation(len(data)):
            state = ([[0.0] * lattice.dim for _ in range(lattice.n_units)] if kind == "rssom"
                     else [0.0] * lattice.n_units)
            for frame in data[si].frames.tolist():
                v = [min(max((x - lo) / s, 0.0), 1.0) for x, lo, s in zip(frame, lo_, span)]
                spikes = [cfg.t_max * (1 - x) for x in v]
                times, w = firing_times(kind, model, state, v)
                if times[w] > cfg.t_ref:
                    continue
                for u in range(lattice.n_units):
                    d = math.dist(divmod(u, cols), divmod(w, cols))
                    if d > radius or times[u] > cfg.t_ref:
                        continue
                    if d <= r_exc:
                        pull = kernel.excite_gain * math.exp(-d * d / (2 * r_exc * r_exc))
                        t_post = times[u] + min(pull, 1.0) * (times[w] - times[u])
                    else:
                        t_post = min(times[u] + kernel.inhibit_gain * (d - r_exc), cfg.t_max)
                    if t_post > cfg.t_ref:
                        continue
                    gain = lr * math.exp(-d * d / (2 * radius * radius))
                    row = lattice.weights[u]
                    for i in range(lattice.dim):
                        y = state[u][i] if kind == "rssom" else 0.0
                        row[i] = synapse_step(kind, rule, row[i], v[i], spikes[i] - t_post,
                                              gain, y)


@pytest.mark.parametrize("kind, variant, rules", CASES)
def test_reference_trainer_matches_production(kind, variant, rules):
    data = synth_generate(2, 10, 6, 5, 2.0, True, 11)
    schedule = Schedule.for_lattice(ROWS, COLS, epochs=EPOCHS)
    model_cls, train, extra = KINDS[kind]
    for radius in RADII:
        for gate, (cfg, lateral) in GATES.items():
            models = [model_cls(normalized_init(ROWS, COLS, data, SEED), *feature_ranges(data),
                                SsomConfig(**cfg),
                                LateralKernel(excite_radius=RADII[radius], **lateral),
                                StdpRule(variant, **RULE_SETS[rules]), **extra)
                      for _ in range(2)]
            train(data, models[0], schedule, SEED)
            reference_train(kind, models[1], data, schedule, SEED)
            got, want = models[0].lattice.weights, models[1].lattice.weights
            assert np.abs(got - want).max() <= 1e-12, (radius, gate)
            assert not np.array_equal(want, normalized_init(ROWS, COLS, data, SEED).weights)
