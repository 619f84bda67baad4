"""Batched inference against the per-sample, per-frame reference.

The oracles below are the winner loops and label lookups that inference
ran one sample and one frame at a time before it was batched; every
winner table, label map and report must equal theirs exactly.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pulsom.coding import SsomConfig, encode_frames, encode_latency
from pulsom.corpus import SequenceSample, synth_generate
from pulsom.evaluate import REJECTED, UnitLabelMap, calibrate, classify, report, resolve_labels
from pulsom.lin import PotentialState, potential_winners, train_lin
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel, mean_candidates
from pulsom.rssom import DifferenceState, difference_winners, train_rssom
from pulsom.som import QE_CHUNK_ELEMENTS, Lattice, Schedule, squared_distances, winner_or_none
from pulsom.ssom import (
    LateralKernel,
    clamped,
    feature_ranges,
    firing_winners,
    frames_of,
    normalized_init,
)
from pulsom.stdp import StdpRule, StdpWindow

N_FRAMES = 5


def oracle_frame_winners(model, sample) -> list:
    """Flat winner index of every frame (-1 for none), one frame at a time."""
    lat = model.lattice
    w = lat.weights
    frames = frames_of(sample)

    def d2(delta):
        return np.einsum("ij,ij->i", delta, delta)

    if model.kind == "SOM":
        vectors = [frames.ravel()] if model.concat else list(frames)
        return [int(np.argmin(d2(w - x))) for x in vectors]
    cfg = model.cfg
    codes = encode_frames(frames, model.lo, model.hi, cfg.t_max, lat.dim)
    out = []
    if model.kind == "SSOM":
        for v in codes.normalized:
            times = cfg.t_max * (d2(np.clip(w, 0.0, 1.0) - v) / lat.dim)
            silent = times > cfg.t_ref
            out.append(-1 if np.all(silent)
                       else int(np.argmin(np.where(silent, np.inf, times))))
    elif model.kind == "RSSOM":
        y = np.zeros_like(w)
        for x in codes.normalized:
            y *= 1.0 - model.alpha
            y += model.alpha * (x - w)
            n2 = d2(y)
            silent = cfg.t_max * np.minimum(n2 / lat.dim, 1.0) > cfg.t_ref
            out.append(-1 if np.all(silent) else int(np.argmin(n2)))
    else:
        a = np.zeros(lat.n_units)
        for x in codes.normalized:
            a *= model.lam
            a -= 0.5 * d2(w - x)
            eff = (1.0 - model.lam) * (-a)
            silent = cfg.t_max * np.clip(eff / (lat.dim / 2.0), 0.0, 1.0) > cfg.t_ref
            best = int(np.argmax(a))
            out.append(-1 if silent[best] else best)
    return out


def oracle_nearest_labeled(flat, labels, lattice):
    if labels.labels[flat] is not None:
        return labels.labels[flat]
    labeled = [u for u, lbl in enumerate(labels.labels) if lbl is not None]
    if not labeled:
        return None
    pos = lattice.coords[flat]
    d2 = np.sum((lattice.coords[labeled] - pos) ** 2, axis=1)
    return labels.labels[labeled[int(np.argmin(d2))]]


def mode_label(hist):
    best = max(hist.values())
    return min(lbl for lbl, count in hist.items() if count == best)


def oracle_calibrate(model, data, frame_vote):
    hists = [Counter() for _ in range(model.lattice.n_units)]
    for sample in data:
        winners = oracle_frame_winners(model, sample)
        for w in (winners if frame_vote else winners[-1:]):
            if w >= 0:
                hists[w][sample.label] += 1
    return [mode_label(h) if h else None for h in hists], hists


def oracle_classify(model, labels, sample, frame_vote):
    winners = oracle_frame_winners(model, sample)
    if frame_vote:
        votes = Counter()
        for w in winners:
            lbl = oracle_nearest_labeled(w, labels, model.lattice) if w >= 0 else None
            if lbl is not None:
                votes[lbl] += 1
        return mode_label(votes) if votes else REJECTED
    w = winners[-1]
    lbl = oracle_nearest_labeled(w, labels, model.lattice) if w >= 0 else None
    return lbl if lbl is not None else REJECTED


def make_model(kind, rows=12, cols=12, dim=12, seed=0):
    """A model of each kind on random normalized weights, with reference
    times tight enough that some frames have no winner."""
    rng = np.random.default_rng(seed)
    if kind.startswith("som"):
        concat = kind == "som-concat"
        wdim = dim * N_FRAMES if concat else dim
        return SomModel(Lattice(rows, cols, rng.uniform(size=(rows * cols, wdim))), concat)
    lat = Lattice(rows, cols, rng.uniform(-0.1, 1.1, size=(rows * cols, dim)))
    lo, hi = np.full(dim, -1.0), np.full(dim, 2.0)
    kernel, rule = LateralKernel(), StdpRule()
    if kind == "ssom":
        return SsomModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=1.4),
                         kernel, rule)
    if kind == "rssom":
        return RssomModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=0.55),
                          kernel, rule, alpha=0.4)
    return LinModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=1.9),
                    kernel, rule, lam=0.6)


def make_samples(n, dim=12, seed=1, labels="AB"):
    rng = np.random.default_rng(seed)
    return [SequenceSample(rng.uniform(-1.5, 2.5, size=(N_FRAMES, dim)), labels[i % len(labels)])
            for i in range(n)]


KINDS = ["som", "som-concat", "ssom", "rssom", "lin"]


def block_of(model):
    return max(1, QE_CHUNK_ELEMENTS // model._sample_cost)


class TestWinnerTable:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("offset", ["one", -1, 0, 1])
    def test_equals_per_frame_oracle(self, kind, offset):
        model = make_model(kind)
        n = 1 if offset == "one" else block_of(model) + offset
        samples = make_samples(n)
        table = model.winner_table(samples)
        want = [oracle_frame_winners(model, s) for s in samples]
        assert table.shape == (n, 1 if kind == "som-concat" else N_FRAMES)
        assert table.tolist() == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_terminal_table_is_the_last_column(self, kind):
        model = make_model(kind)
        samples = make_samples(2 * block_of(model) + 3)
        full = model.winner_table(samples)
        terminal = model.winner_table(samples, terminal=True)
        assert terminal.shape == (len(samples), 1) and terminal.dtype == full.dtype
        assert terminal.tolist() == full[:, -1:].tolist()
        assert terminal.tolist() == [oracle_frame_winners(model, s)[-1:] for s in samples]
        if kind in ("ssom", "rssom", "lin"):     # no-winner and winning samples
            assert (terminal == -1).any() and (terminal >= 0).any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_sample_list_is_rejected(self, kind):
        with pytest.raises(ValueError, match="samples must be non-empty"):
            make_model(kind).winner_table([])

    def test_som_blocks_bound_vectors_times_units(self):
        assert block_of(make_model("som")) == QE_CHUNK_ELEMENTS // 144
        assert block_of(make_model("som-concat")) == QE_CHUNK_ELEMENTS // 144
        assert block_of(make_model("ssom")) == QE_CHUNK_ELEMENTS // (144 * 12)

    @pytest.mark.parametrize("kind", ["som", "ssom", "rssom", "lin"])
    def test_terminal_table_checks_every_frame(self, kind):
        sample = make_samples(1)[0].frames.copy()
        sample[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            make_model(kind).winner_table([sample], terminal=True)

    @pytest.mark.parametrize("kind", ["ssom", "rssom", "lin"])
    def test_spiking_tables_hold_silent_and_winning_frames(self, kind):
        model = make_model(kind)
        table = model.winner_table(make_samples(2 * block_of(model) + 3))
        assert (table == -1).any() and (table >= 0).any()

    def test_silent_lin_winner_is_minus_one(self):
        # the most-excited unit is silent: no winner, as in training
        model = make_model("lin", rows=2, cols=2, dim=2)
        model.cfg = SsomConfig(t_max=20.0, t_ref=0.5)
        sample = np.array([[0.5, 0.5], [2.0, 2.0]])
        assert oracle_frame_winners(model, sample)[-1] == -1
        assert model.winner_table([sample])[0, -1] == -1
        assert model.frame_winners(sample)[-1] is None

    def test_ssom_matches_normalized_values(self):
        # unit 0 holds the value decoded from a frame's spike time and unit 1
        # its normalized value; the spiking map matches the normalized one,
        # as in training
        cfg = SsomConfig(t_max=20.0, t_ref=15.0)

        def decoded(v):     # 1 - t / t_max of v's spike time t
            return 1.0 - encode_latency([v], [0.0], [1.0], cfg.t_max)[0] / cfg.t_max

        v = next(v for v in np.random.default_rng(4).random(1000) if decoded(v) != v)
        lat = Lattice(1, 2, np.array([[decoded(v)], [v]]))
        model = SsomModel(lat, np.zeros(1), np.ones(1), cfg)
        assert model.winner_table([np.array([[v]])]).tolist() == [[1]]

    def test_rssom_winner_is_smallest_norm_when_latencies_saturate(self):
        # every latency clips to t_max = t_ref: all units fire at once and
        # the smallest difference norm still decides
        model = make_model("rssom", rows=3, cols=3, dim=3)
        model.lattice.weights[:] = np.random.default_rng(5).uniform(2.5, 3.5, size=(9, 3))
        model.lattice.weights[0] = 4.0
        model.cfg = SsomConfig(t_max=20.0, t_ref=20.0)
        samples = make_samples(4, dim=3)
        want = [oracle_frame_winners(model, s) for s in samples]
        assert model.winner_table(samples).tolist() == want
        assert 0 not in {w for row in want for w in row}

    @pytest.mark.parametrize("kind", KINDS)
    def test_frame_and_sequence_winners_are_the_one_row_case(self, kind):
        model = make_model(kind, rows=3, cols=4, dim=3)
        for sample in make_samples(6, dim=3):
            want = oracle_frame_winners(model, sample)
            assert [-1 if u is None else u.flat for u in model.frame_winners(sample)] == want


class TestLabelsAndReports:
    @pytest.mark.parametrize("kind", ["som", "ssom", "rssom", "lin"])
    @pytest.mark.parametrize("frame_vote", [False, True])
    def test_calibrate_and_report_equal_per_sample_oracle(self, kind, frame_vote):
        model = make_model(kind, rows=6, cols=6, dim=4)
        train = make_samples(9, dim=4, seed=2, labels="ABC")
        test = make_samples(40, dim=4, seed=3, labels="ABC")
        labels = calibrate(model, train, frame_vote=frame_vote)
        want_labels, want_hists = oracle_calibrate(model, train, frame_vote)
        assert labels.labels == want_labels
        assert labels.histograms == want_hists
        assert None in labels.labels     # the fallback is exercised
        want = [oracle_classify(model, labels, s, frame_vote) for s in test]
        assert [classify(model, labels, s) for s in test] == want
        _, confusion = report(model, labels, test)
        assert confusion == Counter((s.label, p) for s, p in zip(test, want))

    def test_fallback_ties_go_to_first_labeled_unit_in_flat_order(self):
        # units 1 ("B") and 3 ("A") are equally near units 0 and 4
        lat = Lattice(3, 3, np.arange(18, dtype=np.float64).reshape(9, 2))
        raw = [None, "B", None, "A", None, None, None, None, "C"]
        labels = UnitLabelMap(raw, [Counter() for _ in range(9)], resolve_labels(raw, lat))
        want = [oracle_nearest_labeled(u, labels, lat) for u in range(9)]
        assert resolve_labels(raw, lat) == want
        assert want[0] == want[4] == "B"
        model = SomModel(lat)
        assert classify(model, labels, lat.weights[4][None, :]) == "B"

    def test_unlabeled_map_resolves_to_none(self):
        lat = Lattice(2, 2, np.zeros((4, 2)))
        assert resolve_labels([None] * 4, lat) == [None] * 4


class TestStepObjects:
    """Training steps one sequence (state batch shape ()) and inference a
    block of samples through the same step object, so every batch shape
    must step the same bits."""

    @staticmethod
    def codes(model, frames):
        return encode_frames(frames, model.lo, model.hi, model.cfg.t_max, model.lattice.dim)

    @pytest.mark.parametrize("kind", ["ssom", "rssom", "lin"])
    def test_batch_shapes_step_the_same_bits(self, kind):
        model = make_model(kind)
        lat, cfg = model.lattice, model.cfg
        block = np.stack([s.frames for s in make_samples(3, seed=4)])
        one, one_codes = model.state(()), self.codes(model, block[1])
        batched = [(model.state((1,)), self.codes(model, block[1:2]), 0),
                   (model.state((3,)), self.codes(model, block), 1)]
        winners = []
        for i in range(N_FRAMES):
            want = [np.asarray(a) for a in one.present(one_codes, i, lat, cfg)]
            for state, codes, row in batched:
                got = state.present(codes, i, lat, cfg)
                for w, g in zip(want, got):
                    assert g[row].dtype == w.dtype and g[row].tobytes() == w.tobytes()
            winners.append(int(want[1]))
        assert -1 in winners and max(winners) >= 0    # silent and firing frames

    @pytest.mark.parametrize("kind", ["ssom", "rssom", "lin"])
    def test_reset_zeroes_every_batch_shape(self, kind):
        model = make_model(kind)
        lat, cfg = model.lattice, model.cfg
        block = np.stack([s.frames for s in make_samples(3, seed=5)])
        for batch, frames in [((), block[0]), ((3,), block)]:
            state, codes = model.state(batch), self.codes(model, frames)
            first = state.present(codes, 0, lat, cfg)
            state.present(codes, 1, lat, cfg)
            state.reset()
            for a in (v for v in vars(state).values() if isinstance(v, np.ndarray)):
                assert a.shape[:len(batch)] == batch and not a.any()
            again = state.present(codes, 0, lat, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(first, again))


class TestWinnerRule:
    """The winner rules return (times, winners) and test only the first
    unit to fire against t_ref.  The oracle is the rule they replaced, which
    built the whole silent mask times > t_ref and gave -1 where a row of it
    was all set."""

    @staticmethod
    def oracle(best, times, t_ref):
        return np.where((times > t_ref).all(axis=-1), -1, best)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["ssom", "rssom", "lin"]),
           units=st.integers(1, 9), dim=st.integers(1, 4),
           batch=st.sampled_from([(), (1,), (4,)]),
           t_ref=st.sampled_from([1e-3, 20.0]) | st.floats(0.01, 20.0))
    def test_equals_the_silent_mask_rule(self, data, kind, units, dim, batch, t_ref):
        # few distinct values, so that units tie and silent rows are common
        def block(shape, values, low, high):
            return data.draw(arrays(np.float64, shape,
                                    elements=st.sampled_from(values) | st.floats(low, high)))

        lattice = Lattice(1, units, block((units, dim), [0.0, 0.5, 1.0], -0.5, 1.5))
        cfg = SsomConfig(t_max=20.0, t_ref=t_ref)
        if kind == "ssom":
            times, w = firing_winners(block(batch + (dim,), [0.0, 0.5, 1.0], 0.0, 1.0),
                                      clamped(lattice), cfg)
            best = times.argmin(axis=-1)
        elif kind == "rssom":
            state = DifferenceState(block(batch + (units, dim), [0.0, 0.5, -1.0], -1.5, 1.5),
                                    0.5)
            times, w = difference_winners(state, lattice, cfg)
            flat = state.y.reshape(-1, dim)
            best = np.einsum("ij,ij->i", flat, flat).reshape(batch + (units,)).argmin(axis=-1)
        else:
            lam = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
            state = PotentialState(block(batch + (units,), [0.0, -0.5, -3.0], -12.0, 0.0), lam)
            times, w = potential_winners(state, lattice, cfg)
            best = state.a.argmax(axis=-1)
        assert np.shape(w) == batch and np.asarray(w).dtype == np.intp
        assert np.array_equal(w, self.oracle(best, times, cfg.t_ref))

    @staticmethod
    def gathered(best, times, t_ref):
        """The batched rule before it read the row minimum: the first
        unit's time gathered at ``best``."""
        first = np.take_along_axis(times, best[..., None], axis=-1)[..., 0]
        return best - (best + 1) * (first > t_ref)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["ssom", "rssom", "lin"]),
           units=st.integers(1, 9), dim=st.integers(1, 4), rows=st.integers(1, 6),
           t_ref=st.sampled_from([1e-3, 20.0]) | st.floats(0.01, 20.0))
    def test_row_minimum_equals_the_gathered_time(self, data, kind, units, dim, rows, t_ref):
        # NaN entries give NaN rows; entries far from every unit give rows
        # whose units all fire at t_max, tied with t_ref = 20
        def block(shape, values, low, high):
            return data.draw(arrays(np.float64, shape, elements=st.sampled_from(values)
                                    | st.floats(low, high)))

        lattice = Lattice(1, units, block((units, dim), [0.0, 1.0, 1.5], -0.5, 1.5))
        cfg = SsomConfig(t_max=20.0, t_ref=t_ref)
        if kind == "ssom":
            times, w = firing_winners(block((rows, dim), [0.0, np.nan], 0.0, 1.0),
                                      clamped(lattice), cfg)
            best = times.argmin(axis=-1)
        elif kind == "rssom":
            state = DifferenceState(block((rows, units, dim), [np.nan, 0.0, 5.0], -1.5, 1.5),
                                    0.5)
            times, w = difference_winners(state, lattice, cfg)
            flat = state.y.reshape(-1, dim)
            best = np.einsum("ij,ij->i", flat, flat).reshape(rows, units).argmin(axis=-1)
        else:
            lam = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
            state = PotentialState(block((rows, units), [np.nan, 0.0, -100.0], -12.0, 0.0), lam)
            times, w = potential_winners(state, lattice, cfg)
            best = state.a.argmax(axis=-1)
        assert np.array_equal(w, self.gathered(best, times, cfg.t_ref))
        assert np.array_equal(winner_or_none(best, times, cfg.t_ref), w)
        for r in range(rows):   # one presentation gathers its own time
            assert winner_or_none(best[r], times[r], cfg.t_ref) == w[r]


def recurrent_model(kind, weights, rows=1, t_ref=20.0, memory=0.5):
    """A RSSOM (alpha = memory) or LIN (lambda = memory) on the given weights,
    coding frames with the ranges [0, 1], so normalizing only clips."""
    dim = weights.shape[1]
    lat = Lattice(rows, weights.shape[0] // rows, weights)
    parts = (lat, np.zeros(dim), np.ones(dim), SsomConfig(t_max=20.0, t_ref=t_ref))
    if kind == "rssom":
        return RssomModel(*parts, alpha=memory)
    return LinModel(*parts, lam=memory)


def assert_tables_match_oracle(model, samples):
    want = [oracle_frame_winners(model, s) for s in samples]
    assert model.winner_table(samples).tolist() == want
    assert model.winner_table(samples, terminal=True).tolist() == [w[-1:] for w in want]
    return want


class TestMeanSearch:
    """RSSOM and LIN inference estimates every unit against the weighted
    frame mean and recomputes exactly only the units that can win
    (``models.mean_candidates``); its tables must hold the step objects'
    bits (the oracle) wherever the estimate is least sure."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["rssom", "lin"]),
           rows=st.integers(1, 2), cols=st.integers(1, 4), dim=st.integers(1, 4),
           n_frames=st.integers(1, 5), n_samples=st.integers(1, 5),
           t_ref=st.sampled_from([1e-3, 20.0]) | st.floats(0.01, 20.0))
    def test_equals_the_step_object_oracle(self, data, kind, rows, cols, dim, n_frames,
                                           n_samples, t_ref):
        # few distinct values, duplicate rows and rows one ulp apart, so that
        # units tie or nearly tie on the frame means
        values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        w = data.draw(arrays(np.float64, (rows * cols, dim), elements=values
                             | st.floats(-0.2, 1.2)))
        for j in range(1, rows * cols):
            how = data.draw(st.sampled_from(["own", "copy", "ulp"]))
            src = data.draw(st.integers(0, j - 1))
            if how == "copy":
                w[j] = w[src]
            elif how == "ulp":
                w[j] = np.nextafter(w[src], data.draw(st.sampled_from([-np.inf, np.inf])))
        if kind == "rssom":
            memory = data.draw(st.sampled_from([1.0, 0.5, 1e-150, 1e-300, 5e-324])
                               | st.floats(1e-3, 1.0))
        else:
            memory = data.draw(st.sampled_from([0.0, 0.4, 1.0]) | st.floats(0.0, 1.0))
        samples = [data.draw(arrays(np.float64, (n_frames, dim),
                                    elements=values | st.floats(-0.1, 1.1)))
                   for _ in range(n_samples)]
        assert_tables_match_oracle(recurrent_model(kind, w, rows, t_ref, memory), samples)

    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    def test_duplicate_rows_go_to_the_lowest_index(self, kind):
        w = np.random.default_rng(6).uniform(size=(6, 3))
        w[4] = w[1]
        w[5] = w[1]
        samples = [np.tile(w[1], (4, 1)), np.stack([w[0], w[1], w[1], w[1]])]
        want = assert_tables_match_oracle(recurrent_model(kind, w), samples)
        assert want[0] == [1, 1, 1, 1] and want[1][-1] == 1

    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_rows_one_ulp_apart(self, kind, toward):
        # the frames sit on unit 0, unit 1 is one ulp away in every
        # component, and units 2 and 3 one ulp away in one
        base = np.array([0.3, 0.7, 0.5])
        w = np.stack([base, np.nextafter(base, toward), base.copy(), base.copy()])
        w[2, 0] = np.nextafter(base[0], toward)
        w[3, 2] = np.nextafter(base[2], -toward)
        samples = [np.tile(base, (3, 1)), np.tile(w[1], (3, 1)), np.tile(w[3], (3, 1))]
        want = assert_tables_match_oracle(recurrent_model(kind, w[::-1].copy()), samples)
        assert all(v >= 0 for row in want for v in row)

    @pytest.mark.parametrize("kind, memory", [("rssom", 1.0), ("lin", 0.0), ("lin", 1.0)])
    def test_memory_extremes(self, kind, memory):
        model = make_model(kind)
        model = recurrent_model(kind, model.lattice.weights, 12, model.cfg.t_ref, memory)
        assert_tables_match_oracle(model, [s.frames / 3.0 + 0.2 for s in make_samples(25)])

    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    @pytest.mark.parametrize("units, dim", [(1, 1), (1, 3), (5, 1)])
    def test_one_unit_or_one_dimension(self, kind, units, dim):
        w = np.random.default_rng(7).uniform(size=(units, dim))
        samples = [s.frames / 3.0 + 0.2 for s in make_samples(9, dim=dim)]
        assert_tables_match_oracle(recurrent_model(kind, w), samples)

    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    def test_all_silent_frames(self, kind):
        model = make_model(kind)
        model.cfg = SsomConfig(t_max=20.0, t_ref=1e-6)
        want = assert_tables_match_oracle(model, make_samples(20))
        assert all(v == -1 for row in want for v in row)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    @pytest.mark.parametrize("huge", [[1], [0, 2, 3], [0, 1, 2, 3, 4, 5]])
    def test_overflowing_norms_keep_their_units(self, kind, huge):
        # units whose squared norm overflows are kept for every sample and
        # frame, and their exact values (inf, or NaN for LIN at lambda 0)
        # decide as the oracle's do
        w = np.random.default_rng(8).uniform(size=(6, 3))
        w[huge] = 1e200
        w[huge[0], 1] = -1e200
        samples = [s.frames / 3.0 + 0.2 for s in make_samples(7, dim=3)]
        for memory in (0.0, 0.5, 1.0) if kind == "lin" else (0.5, 1.0):
            model = recurrent_model(kind, w, memory=memory)
            for first in (0, N_FRAMES - 1):
                v = np.clip(np.array(samples), 0.0, 1.0)
                rows, cols = mean_candidates(v, w, *model._mean_weights, first)
                kept = {(r, c) for r, c in zip(rows.tolist(), cols.tolist())}
                assert {(r, u) for r in range(len(samples)) for u in huge} <= kept
            assert_tables_match_oracle(model, samples)

    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_terminal_tables_around_a_block_boundary(self, kind, offset):
        model = make_model(kind)
        samples = make_samples(2 * block_of(model) + offset, seed=9)
        want = [oracle_frame_winners(model, s)[-1:] for s in samples]
        assert model.winner_table(samples, terminal=True).tolist() == want

    @pytest.mark.parametrize("kind", ["rssom", "lin"])
    def test_one_candidate_a_frame_on_spread_units(self, kind):
        # the slack is proven, not tuned, and still keeps about one unit a
        # frame when no two units are near-tied
        model = make_model(kind)
        v = np.clip((np.stack([s.frames for s in make_samples(50)]) + 1.0) / 3.0, 0.0, 1.0)
        for first in (0, N_FRAMES - 1):
            rows, _ = mean_candidates(v, model.lattice.weights, *model._mean_weights, first)
            assert len(rows) <= 1.1 * len(v) * (N_FRAMES - first)


class TestWeightedMeanIdentity:
    """From a reset, RSSOM's and LIN's winner is the unit nearest the
    alpha- or lambda-weighted mean of the frames so far (the rssom and lin
    module docstrings), pinned on maps trained in criterion 08's setup."""

    @pytest.mark.parametrize("kind, memory", [("rssom", 0.5), ("lin", 0.4)])
    def test_winner_is_the_unit_nearest_the_weighted_mean(self, kind, memory):
        data = synth_generate(2, 75, dim=12, frames=9, separation=5.0, order_task=True,
                              seed=100)
        lo, hi = feature_ranges(data)
        rule = StdpRule("input", 0.1, 1.0, StdpWindow())
        parts = (normalized_init(8, 8, data, seed=0), lo, hi, SsomConfig())
        if kind == "rssom":
            model = RssomModel(*parts, rule=rule, alpha=memory)
            train_rssom(data, model, Schedule.for_lattice(8, 8, epochs=10), seed=0)
            decay, gain = 1.0 - memory, memory
        else:
            model = LinModel(*parts, rule=rule, lam=memory)
            train_lin(data, model, Schedule.for_lattice(8, 8, epochs=10), seed=0)
            decay, gain = memory, 1.0
        table = model.winner_table(data)
        v = encode_frames(np.stack([s.frames for s in data]), lo, hi, 20.0, 12).normalized
        for t in range(v.shape[1]):
            weight = gain * decay ** np.arange(t, -1, -1)
            mean = np.einsum("k,nkd->nd", weight, v[:, :t + 1]) / weight.sum()
            d2 = squared_distances(mean, model.lattice.weights)
            fired = table[:, t] >= 0
            assert fired.mean() > 0.9
            assert np.array_equal(table[fired, t], d2.argmin(axis=1)[fired])
        assert len(np.unique(table)) > 2
