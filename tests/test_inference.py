"""Batched inference against the per-sample, per-frame reference.

The oracles below are the winner loops and label lookups that inference
ran one sample and one frame at a time before it was batched; every
winner table, label map and report must equal theirs exactly.
"""

from collections import Counter

import numpy as np
import pytest

from pulsom.coding import SsomConfig, encode_frames
from pulsom.corpus import SequenceSample
from pulsom.evaluate import REJECTED, UnitLabelMap, calibrate, classify, report
from pulsom.models import LinModel, RssomModel, SomModel, SsomModel
from pulsom.som import QE_CHUNK_ELEMENTS, Lattice
from pulsom.ssom import LateralKernel, frames_of
from pulsom.stdp import StdpRule

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
        for v in codes.decoded:
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
            penalty = 0.5 * d2(w - x)
            if model.scale_input_by_lambda:
                penalty = model.lam * penalty
            a *= model.lam
            a -= penalty
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
        return SsomModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=1.4, sim_step=0.5),
                         kernel, rule)
    if kind == "rssom":
        return RssomModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=0.55, sim_step=0.5),
                          kernel, rule, alpha=0.4)
    return LinModel(lat, lo, hi, SsomConfig(t_max=20.0, t_ref=1.9, sim_step=0.5),
                    kernel, rule, lam=0.6, scale_input_by_lambda=kind == "lin-scaled")


def make_samples(n, dim=12, seed=1, labels="AB"):
    rng = np.random.default_rng(seed)
    return [SequenceSample(rng.uniform(-1.5, 2.5, size=(N_FRAMES, dim)), labels[i % len(labels)])
            for i in range(n)]


KINDS = ["som", "som-concat", "ssom", "rssom", "lin", "lin-scaled"]


def block_of(model):
    return max(1, QE_CHUNK_ELEMENTS // model.lattice.weights.size)


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

    @pytest.mark.parametrize("kind", ["ssom", "rssom", "lin"])
    def test_spiking_tables_hold_silent_and_winning_frames(self, kind):
        model = make_model(kind)
        table = model.winner_table(make_samples(2 * block_of(model) + 3))
        assert (table == -1).any() and (table >= 0).any()

    def test_silent_lin_winner_is_minus_one(self):
        # the most-excited unit is silent: no winner, as in training
        model = make_model("lin", rows=2, cols=2, dim=2)
        model.cfg = SsomConfig(t_max=20.0, t_ref=0.5, sim_step=0.5)
        sample = np.array([[0.5, 0.5], [2.0, 2.0]])
        assert oracle_frame_winners(model, sample)[-1] == -1
        assert model.winner_table([sample])[0, -1] == -1
        assert model.sequence_winner(sample) is None

    def test_ssom_matches_decoded_values(self):
        # unit 0 holds a frame's decoded value and unit 1 its normalized
        # value; the spiking map matches the decoded one, as in training
        cfg = SsomConfig(t_max=20.0, t_ref=15.0)
        v = next(v for v in np.random.default_rng(4).random(1000)
                 if encode_frames(np.array([[v]]), 0.0, 1.0, cfg.t_max, 1).decoded[0, 0] != v)
        decoded = encode_frames(np.array([[v]]), 0.0, 1.0, cfg.t_max, 1).decoded[0, 0]
        lat = Lattice(1, 2, np.array([[decoded], [v]]))
        model = SsomModel(lat, np.zeros(1), np.ones(1), cfg)
        assert model.winner_table([np.array([[v]])]).tolist() == [[0]]

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
            last = model.sequence_winner(sample)
            assert (-1 if last is None else last.flat) == want[-1]


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
        assert [classify(model, labels, s, frame_vote=frame_vote) for s in test] == want
        _, confusion = report(model, labels, test, frame_vote=frame_vote)
        assert confusion == Counter((s.label, p) for s, p in zip(test, want))

    def test_fallback_ties_go_to_first_labeled_unit_in_flat_order(self):
        # units 1 ("B") and 3 ("A") are equally near units 0 and 4
        lat = Lattice(3, 3, np.arange(18, dtype=np.float64).reshape(9, 2))
        labels = UnitLabelMap([None, "B", None, "A", None, None, None, None, "C"],
                              [Counter() for _ in range(9)])
        want = [oracle_nearest_labeled(u, labels, lat) for u in range(9)]
        assert labels.resolved(lat) == want
        assert want[0] == want[4] == "B"
        model = SomModel(lat)
        assert classify(model, labels, lat.weights[4][None, :]) == "B"

    def test_unlabeled_map_resolves_to_none(self):
        lat = Lattice(2, 2, np.zeros((4, 2)))
        labels = UnitLabelMap([None] * 4, [Counter() for _ in range(4)])
        assert labels.resolved(lat) == [None] * 4


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
            winners.append(int(want[2]))
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
