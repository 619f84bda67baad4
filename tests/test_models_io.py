import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsom.coding import SsomConfig, normalize
from pulsom.config import KEYS, REGISTRY
from pulsom.corpus import synth_generate
from pulsom.lin import PotentialState, potential_record, train_lin, update_potential
from pulsom.models import (
    PARAMETER_LINES,
    LinModel,
    RssomModel,
    SomModel,
    SsomModel,
    load_model,
    save_model,
)
from pulsom.rssom import DifferenceState, difference_record, train_rssom, update_difference
from pulsom.som import Lattice, Schedule, find_bmu
from pulsom.ssom import (LateralKernel, compute_firing_times, feature_ranges, normalized_init,
                         train_ssom)
from pulsom.stdp import StdpRule, StdpWindow
from conftest import SPLITLINES_ONLY


def random_lattice(seed=0, rows=2, cols=3, dim=4):
    rng = np.random.default_rng(seed)
    return Lattice(rows, cols, rng.uniform(size=(rows * cols, dim)), rng_seed=seed)


def spiking_parts(dim=4):
    lo = np.linspace(-1.0, 0.0, dim)
    hi = np.linspace(1.0, 3.0, dim)
    cfg = SsomConfig(t_max=18.0, t_ref=13.0)
    kernel = LateralKernel(excite_radius=None, excite_gain=0.7, inhibit_gain=0.2)
    rule = StdpRule("panchev", 0.25, 1.0, StdpWindow(0.9, 1.1, 8.0, 12.0))
    return lo, hi, cfg, kernel, rule


# The retired lines that older model files carried, with the values that
# loaded then; no model file loads with one of them now.
RETIRED_LINES = ["sim_step_ms 0.5", "tau_psp_ms 4.5", "scale_input_by_lambda false",
                 "stdp_flip_branches true", "s_radius 1.0"]


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
        save_model(LinModel(lat, lo, hi, cfg, kernel, rule, lam=0.65), path)
        text = path.read_text()
        assert text.endswith("\nlambda 0.65\n")
        back = load_model(path)
        assert back.kind == "LIN"
        assert back.lam == 0.65

    def test_rewrite_is_byte_identical(self, tmp_path):
        lat = random_lattice(5)
        lo, hi, cfg, kernel, rule = spiking_parts()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(RssomModel(lat, lo, hi, cfg, kernel, rule, alpha=0.5), p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalar_parameters_round_trip(self, tmp_path):
        # e.g. values taken from np.linspace; a numpy repr would not load
        lat = random_lattice(7)
        lo, hi, _, kernel, rule = spiking_parts()
        cfg = SsomConfig(t_max=np.float64(20.0), t_ref=13.0)
        for model, attr, line in [
                (RssomModel(lat, lo, hi, cfg, kernel, rule, alpha=np.float64(0.25)), "alpha",
                 "alpha 0.25"),
                (LinModel(lat, lo, hi, cfg, kernel, rule, lam=np.linspace(0, 1, 5)[3]), "lam",
                 "lambda 0.75")]:
            path = tmp_path / f"{model.kind}.txt"
            save_model(model, path)
            text = path.read_text()
            assert "\nt_max_ms 20.0\n" in text and text.endswith(f"\n{line}\n")
            back = load_model(path)
            assert back.cfg == cfg
            assert getattr(back, attr) == getattr(model, attr)

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

    def test_repeated_parameter_line_named(self, tmp_path):
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(SsomModel(random_lattice(), lo, hi, cfg, kernel, rule), path)
        lines = path.read_text().splitlines()
        first = lines.index(f"t_ref_ms {cfg.t_ref!r}") + 1
        path.write_text("\n".join(lines + ["t_ref_ms 3.0"]) + "\n")
        with pytest.raises(ValueError, match=rf"m\.txt: line {len(lines) + 1}: repeated "
                                             rf"'t_ref_ms' line \(first on line {first}\)"):
            load_model(path)

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_error_names_the_file_line(self, tmp_path, sep):
        # a weight row (line 3 of a 1x2 SOM) ending in a character that only
        # str.splitlines breaks at is one line of the file
        path = tmp_path / "m.txt"
        save_model(SomModel(random_lattice(rows=1, cols=2, dim=2)), path)
        lines = path.read_text().splitlines()
        lines[2] += sep
        path.write_text("\n".join(lines + ["concat true"]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"m\.txt: line 6: repeated 'concat' line "
                                             r"\(first on line 5\)"):
            load_model(path)

    def test_range_line_of_wrong_length_named(self, tmp_path):
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(SsomModel(random_lattice(), lo, hi, cfg, kernel, rule), path)
        lines = [" ".join(ln.split()[:-1]) if ln.startswith("hi ") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        at = next(n for n, ln in enumerate(lines, start=1) if ln.startswith("hi "))
        with pytest.raises(ValueError,
                           match=rf"m\.txt: line {at}: 'hi' line has 3 values, expected 4"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: replaced(ls, "PULSOM1", "PULSOM1 2 x 4 0"),
         "expected 'PULSOM1 <rows> <cols> <dim> <seed>'"),
        (lambda ls: replaced(ls, "PULSOM1", "PULSOM1 2 3 0 0"),
         "expected 'PULSOM1 <rows> <cols> <dim> <seed>'"),
        (lambda ls: (ls[:3] + ["0.5 abc 0.5 0.5"] + ls[4:], 4),
         "could not convert string to float: 'abc'"),
        (lambda ls: (ls[:3] + ["0.5 0.5 0.5"] + ls[4:], 4),
         "weight line has 3 values, expected 4"),
        (lambda ls: (ls[:6] + ["0.5 0.5 0.5 0.5 0.5"] + ls[7:], 7),
         "weight line has 5 values, expected 4"),
        (lambda ls: (ls[:2] + ["0.5 nan 0.5 0.5"] + ls[3:], 3),
         "weight values must be finite, got '0.5 nan 0.5 0.5'"),
    ], ids=["header-token", "header-dim-0", "weight-token", "short-weight-row",
            "long-weight-row", "nan-weight"])
    def test_bad_lattice_line_named(self, tmp_path, edit, message):
        path = tmp_path / "m.txt"
        save_model(SomModel(random_lattice()), path)
        lines, at = edit(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"m.txt: line {at}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda ls: replaced(ls, "lo ", "lo 0.0 x 0.0 0.0"),
         "could not convert string to float: 'x'"),
        (lambda ls: replaced(ls, "lo ", "lo 0.0 nan 0.0 0.0"),
         "'lo' values must be finite, got '0.0 nan 0.0 0.0'"),
        (lambda ls: replaced(ls, "hi ", "hi 1.0 1.0 inf 1.0"),
         "'hi' values must be finite, got '1.0 1.0 inf 1.0'"),
        (lambda ls: replaced(ls, "hi ", "hi 1.0 1.0 -0.5 1.0"),
         "'hi' values must not be below 'lo' values"),
        (lambda ls: (ls + ["alpha 0.3"], len(ls) + 1),
         "'alpha' is not a line of SSOM model files"),
        (lambda ls: (ls + ["t_ref 3"], len(ls) + 1),
         "'t_ref' is not a line of SSOM model files"),
        (lambda ls: (ls[:7] + ["0.5 0.5 0.5 0.5"] + ls[7:], 8),
         "'0.5' is not a line of SSOM model files"),
        *[(lambda ls, line=line: (ls + [line], len(ls) + 1),
           f"'{line.split()[0]}' is not a line of SSOM model files")
          for line in RETIRED_LINES],
    ], ids=["bad-range-token", "nan-lo", "inf-hi", "hi-below-lo", "alpha-in-ssom",
            "misspelt-line", "surplus-weight-row",
            *(f"retired-{line.split()[0]}" for line in RETIRED_LINES)])
    def test_bad_line_named(self, tmp_path, edit, message):
        lo, hi, cfg, kernel, rule = spiking_parts()
        path = tmp_path / "m.txt"
        save_model(SsomModel(random_lattice(), lo, hi, cfg, kernel, rule), path)
        lines, at = edit(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"m.txt: line {at}: {message}")):
            load_model(path)


def replaced(lines, prefix, text):
    """lines with the one starting with prefix replaced by text, and the
    replaced line's number."""
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    return lines[:at] + [text] + lines[at + 1:], at + 1


class TestWinnerRules:
    def test_som_concat_uses_whole_sequence(self):
        rng = np.random.default_rng(7)
        lat = Lattice(1, 2, rng.uniform(size=(2, 6)))
        model = SomModel(lat, concat=True)
        sample = rng.uniform(size=(2, 3))
        winners = model.frame_winners(sample)
        assert len(winners) == 1
        assert winners[0].flat == find_bmu(sample.ravel(), lat).flat

    def test_spiking_winners_equal_per_frame_coding(self):
        # Reference: each frame normalized on its own, then one winner
        # step per frame.
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
            want_ssom.append(compute_firing_times(normalize(x, lo, hi), lat, cfg).winner)
            update_difference(normalize(x, lo, hi), lat, dstate)
            want_rssom.append(difference_record(dstate, lat, cfg).winner)
            update_potential(normalize(x, lo, hi), lat, pstate)
            want_lin.append(potential_record(pstate, lat, cfg).winner)
        assert ssom.frame_winners(sample) == want_ssom
        assert rssom.frame_winners(sample) == want_rssom
        assert lin.frame_winners(sample) == want_lin
        assert any(w is not None for w in want_ssom + want_rssom + want_lin)

def test_every_map_parameter_key_has_a_model_file_line():
    """A map parameter added to the config cannot be left out of model
    files, and every model-file line reads a config key."""
    lines = {name: key for kind in PARAMETER_LINES.values() for name, key, _ in kind}
    map_keys = {k.name for k in REGISTRY
                if k.name.startswith(("ssom.", "lateral.", "stdp.", "rssom.", "lin.", "som."))}
    assert {key.name for key in lines.values()} == map_keys
    assert all(KEYS[key.name] is key for key in lines.values())


# Retired lines, with the value older files carry; the fuzzed files carry
# it, and any value on them fails to load.
RETIRED = {"s_radius": "1.0", "stdp_flip_branches": "true", "scale_input_by_lambda": "false"}
SHARED_KEYS = ["lo", "hi", "t_max_ms", "t_ref_ms", "s_radius", "excite_radius", "excite_gain",
               "inhibit_gain", "stdp_variant", "stdp_a_plus", "stdp_a_minus", "stdp_tau_plus_ms",
               "stdp_tau_minus_ms", "stdp_eta", "stdp_w_max", "stdp_flip_branches"]
FUZZED_LINES = ([(kind, key) for kind in ("SSOM", "RSSOM", "LIN") for key in SHARED_KEYS]
                + [("RSSOM", "alpha"), ("LIN", "lambda"), ("LIN", "scale_input_by_lambda")])


@pytest.fixture(scope="module")
def trained_files(tmp_path_factory):
    """The text of a trained ssom, rssom and lin model file, their training
    data, and a scratch file path."""
    data = synth_generate(2, 4, dim=3, frames=4, separation=2.0, order_task=True, seed=2)
    lo, hi = feature_ranges(data)
    texts = {}
    for model, train in [(SsomModel(normalized_init(3, 3, data, 2), lo, hi), train_ssom),
                         (RssomModel(normalized_init(3, 3, data, 2), lo, hi), train_rssom),
                         (LinModel(normalized_init(3, 3, data, 2), lo, hi), train_lin)]:
        train(data, model, Schedule.for_lattice(3, 3, epochs=2), seed=2)
        path = tmp_path_factory.mktemp("models") / "model.txt"
        save_model(model, path)
        texts[model.kind] = path.read_text()
    return texts, data, tmp_path_factory.mktemp("fuzzed") / "model.txt"


class TestFuzzedParameterLine:
    """Any value on any one parameter line of a spiking model file, text or
    float, either fails to load with a ValueError naming the file, or loads
    a model whose winner table runs."""

    @pytest.mark.parametrize("kind, key", FUZZED_LINES)
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(value=st.one_of(st.text(), st.floats().map(repr)))
    def test_loads_or_names_the_file(self, trained_files, kind, key, value):
        texts, data, path = trained_files
        lines = texts[kind].splitlines()
        if key in RETIRED:
            lines.append(f"{key} {RETIRED[key]}")
        at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[at] = f"{key} {value}"
        loads_or_names_the_file(path, lines, data)


def loads_or_names_the_file(path, lines, data):
    """Write lines to path; loading them either fails with a ValueError
    naming the file or gives a model whose winner table runs on data."""
    path.write_text("\n".join(lines) + "\n")
    try:
        model = load_model(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    with np.errstate(all="ignore"):
        assert model.winner_table(data[:1]).shape[0] == 1


HEADER_TOKEN = st.one_of(st.integers(-2, 10).map(str), st.text(max_size=3))
WEIGHT_TOKEN = st.one_of(st.floats().map(repr), st.text(max_size=4))


class TestFuzzedLatticeLines:
    """Any text on the header line or on one weight row of a model file
    either loads or fails with a ValueError naming the file.  The lattice
    reader already behaved so; this pins it."""

    @pytest.mark.parametrize("kind", ["SSOM", "LIN"])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(header=st.one_of(st.text(), st.lists(HEADER_TOKEN, max_size=5).map(
        lambda tokens: " ".join(["PULSOM1", *tokens]))))
    def test_header_line(self, trained_files, kind, header):
        texts, data, path = trained_files
        lines = texts[kind].splitlines()
        lines[0] = header
        loads_or_names_the_file(path, lines, data)

    @pytest.mark.parametrize("kind", ["SSOM", "LIN"])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(row=st.integers(1, 9), text=st.one_of(st.text(), st.lists(WEIGHT_TOKEN, max_size=5)
                                                 .map(" ".join)))
    def test_weight_row(self, trained_files, kind, row, text):
        texts, data, path = trained_files
        lines = texts[kind].splitlines()
        lines[row] = text
        loads_or_names_the_file(path, lines, data)
