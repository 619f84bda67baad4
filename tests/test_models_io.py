import numpy as np
import pytest

from pulsom.coding import SsomConfig, encode_latency, normalize
from pulsom.lin import PotentialState, potential_record, update_potential
from pulsom.models import (
    LinModel,
    RssomModel,
    SomModel,
    SsomModel,
    load_model,
    save_model,
)
from pulsom.rssom import DifferenceState, difference_record, update_difference
from pulsom.som import Lattice
from pulsom.ssom import LateralKernel, compute_firing_times
from pulsom.stdp import StdpRule, StdpWindow


def random_lattice(seed=0, rows=2, cols=3, dim=4):
    rng = np.random.default_rng(seed)
    return Lattice(rows, cols, rng.uniform(size=(rows * cols, dim)), rng_seed=seed)


def spiking_parts(dim=4):
    lo = np.linspace(-1.0, 0.0, dim)
    hi = np.linspace(1.0, 3.0, dim)
    cfg = SsomConfig(t_max=18.0, t_ref=13.0, s_radius=2.0, sim_step=0.5, tau_psp=4.5)
    kernel = LateralKernel(excite_radius=None, excite_gain=0.7, inhibit_gain=0.2)
    rule = StdpRule("panchev", 0.25, 1.0, StdpWindow(0.9, 1.1, 8.0, 12.0), True)
    return lo, hi, cfg, kernel, rule


class TestHeaderFormat:
    def test_magic_line(self, tmp_path):
        lat = random_lattice(rows=3, cols=2, dim=5)
        path = tmp_path / "m.txt"
        save_model(SomModel(lat), path)
        first = path.read_text().splitlines()[0]
        assert first == "PULSOM1 3 2 5 0"

    def test_weight_rows_follow_header(self, tmp_path):
        lat = random_lattice()
        path = tmp_path / "m.txt"
        save_model(SomModel(lat), path)
        lines = path.read_text().splitlines()
        assert len(lines[1].split()) == 4
        assert "model SOM" in lines


class TestRoundTrips:
    def test_som(self, tmp_path):
        lat = random_lattice(1)
        path = tmp_path / "m.txt"
        save_model(SomModel(lat, concat=True), path)
        back = load_model(path)
        assert back.kind == "SOM"
        assert back.concat is True
        assert np.array_equal(back.lattice.weights, lat.weights)
        assert back.lattice.rng_seed == lat.rng_seed

    def test_ssom(self, tmp_path):
        lat = random_lattice(2)
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(SsomModel(lat, lo, hi, cfg, kernel, rule), path)
        back = load_model(path)
        assert back.kind == "SSOM"
        assert np.array_equal(back.lo, lo)
        assert np.array_equal(back.hi, hi)
        assert back.cfg == cfg
        assert back.kernel == kernel
        assert back.rule == rule

    def test_rssom_records_alpha(self, tmp_path):
        lat = random_lattice(3)
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(RssomModel(lat, lo, hi, cfg, kernel, rule, alpha=0.35), path)
        assert "alpha 0.35" in path.read_text()
        back = load_model(path)
        assert back.kind == "RSSOM"
        assert back.alpha == 0.35

    def test_lin_records_lambda(self, tmp_path):
        lat = random_lattice(4)
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(LinModel(lat, lo, hi, cfg, kernel, rule, lam=0.65,
                            scale_input_by_lambda=True), path)
        text = path.read_text()
        assert "lambda 0.65" in text
        assert "scale_input_by_lambda true" in text
        back = load_model(path)
        assert back.kind == "LIN"
        assert back.lam == 0.65
        assert back.scale_input_by_lambda is True

    def test_rewrite_is_byte_identical(self, tmp_path):
        lat = random_lattice(5)
        lo, hi, cfg, kernel, rule = spiking_parts()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(RssomModel(lat, lo, hi, cfg, kernel, rule, alpha=0.5), p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_weights_round_trip_exactly(self, tmp_path):
        lat = random_lattice(6)
        path = tmp_path / "m.txt"
        save_model(SomModel(lat), path)
        assert np.array_equal(load_model(path).lattice.weights, lat.weights)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("NOPE 1 1 1 0\n0.0\nmodel SOM\n")
        with pytest.raises(ValueError, match="PULSOM1"):
            load_model(path)

    def test_missing_model_tag(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("PULSOM1 1 1 1 0\n0.5\n")
        with pytest.raises(ValueError, match="model tag"):
            load_model(path)

    def test_truncated_weights_name_path_and_line(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(SomModel(random_lattice()), path)
        path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
        with pytest.raises(ValueError, match=r"m\.txt: truncated: line 5 \(weight row 4 of 6\)"):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="PULSOM1"):
            load_model(path)

    @pytest.mark.parametrize("key", ["lo", "t_ref_ms", "stdp_variant", "alpha"])
    def test_missing_parameter_line_named(self, tmp_path, key):
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(RssomModel(random_lattice(), lo, hi, cfg, kernel, rule, alpha=0.5), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(key + " ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"m\.txt: missing '{key}' line"):
            load_model(path)

    def test_range_line_of_wrong_length_named(self, tmp_path):
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(SsomModel(random_lattice(), lo, hi, cfg, kernel, rule), path)
        lines = [" ".join(ln.split()[:-1]) if ln.startswith("hi ") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"m\.txt: 'hi' line has 3 values, expected 4"):
            load_model(path)


class TestWinnerRules:
    def test_som_concat_uses_whole_sequence(self):
        rng = np.random.default_rng(7)
        lat = Lattice(1, 2, rng.uniform(size=(2, 6)))
        model = SomModel(lat, concat=True)
        sample = rng.uniform(size=(2, 3))
        winners = model.frame_winners(sample)
        assert len(winners) == 1
        assert model.sequence_winner(sample).flat == winners[0].flat

    def test_sequence_winner_is_last_frame_winner(self):
        rng = np.random.default_rng(8)
        lat = Lattice(2, 2, rng.uniform(size=(4, 3)))
        model = SomModel(lat)
        sample = rng.uniform(size=(5, 3))
        assert model.sequence_winner(sample).flat == model.frame_winners(sample)[-1].flat

    def test_spiking_winners_equal_per_frame_coding(self):
        # Reference: each frame encoded (spiking map) or normalized
        # (recurrent maps) on its own, then one winner step per frame.
        rng = np.random.default_rng(9)
        lo, hi, cfg, kernel, rule = spiking_parts()
        lat = random_lattice(seed=4, rows=3, cols=3)
        sample = rng.uniform(-1.5, 3.5, size=(12, 4))
        ssom = SsomModel(lat, lo, hi, cfg, kernel, rule)
        rssom = RssomModel(lat, lo, hi, cfg, kernel, rule, alpha=0.4)
        lin = LinModel(lat, lo, hi, cfg, kernel, rule, lam=0.6)
        want_ssom, want_rssom, want_lin = [], [], []
        dstate = DifferenceState.zeros(lat, 0.4)
        pstate = PotentialState.zeros(lat, 0.6)
        for x in sample:
            e = encode_latency(x, lo, hi, cfg.t_max)
            want_ssom.append(compute_firing_times(e, lat, cfg).winner)
            update_difference(normalize(x, lo, hi), lat, dstate)
            want_rssom.append(difference_record(dstate, lat, cfg).winner)
            update_potential(normalize(x, lo, hi), lat, pstate)
            want_lin.append(potential_record(pstate, lat, cfg).winner)
        assert ssom.frame_winners(sample) == want_ssom
        assert rssom.frame_winners(sample) == want_rssom
        assert lin.frame_winners(sample) == want_lin
        assert any(w is not None for w in want_ssom + want_rssom + want_lin)
