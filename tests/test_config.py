import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsom.cli import build_model, synth_dataset
from pulsom.coding import SsomConfig
from pulsom.config import (
    AUTO,
    KEYS,
    MAX_ELEMENTS,
    REGISTRY,
    RunConfig,
    check_elements,
    check_lattice,
    parse_config_text,
    registry_help,
)
from pulsom.corpus import build_corpus_dataset, synth_generate
from pulsom.errors import ConfigError
from pulsom.mfcc import MfccConfig
from pulsom.models import LinModel, RssomModel, SomModel
from pulsom.som import Schedule
from pulsom.ssom import LateralKernel
from pulsom.stdp import StdpRule, StdpWindow
from conftest import SPLITLINES_ONLY


class TestParsing:
    def test_basic_lines(self):
        values = parse_config_text(
            "run.model = ssom\n"
            "lattice.rows = 10\n"
            "stdp.eta = 0.2\n"
            "som.concat = true\n")
        assert values["run.model"] == "ssom"
        assert values["lattice.rows"] == 10
        assert values["stdp.eta"] == 0.2
        assert values["som.concat"] is True

    def test_comments_and_blank_lines(self):
        values = parse_config_text("# a comment\n\nrun.seed = 7  # trailing\n")
        assert values["run.seed"] == 7

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="run.modle"):
            parse_config_text("run.modle = som\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("run.seed = 1\nrun.seed = 2\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="lattice.rows"):
            parse_config_text("lattice.rows = eight\n")

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="run.model"):
            parse_config_text("run.model = gng\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="synth.order_task"):
            parse_config_text("synth.order_task = yes\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="section.key"):
            parse_config_text("run.model som\n")

    def test_auto_values(self):
        values = parse_config_text("schedule.radius_start = auto\n"
                                   "lateral.excite_radius = 2.5\n")
        assert values["schedule.radius_start"] == AUTO
        assert values["lateral.excite_radius"] == 2.5

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY)
    def test_error_names_the_file_line(self, sep):
        # a line ending in a character that only str.splitlines breaks at
        # is one line of the file, and the bad value is on the next one
        with pytest.raises(ConfigError, match=r"^c\.cfg:2: bad value 'x' for lattice\.rows"):
            parse_config_text(f"run.seed = 1{sep}\nlattice.rows = x\n", "c.cfg")


class TestRunConfig:
    def test_defaults_fill_in(self):
        cfg = RunConfig({})
        assert cfg["schedule.epochs"] == 80
        assert cfg["stdp.variant"] == "input"

    def test_require_flags_missing(self):
        cfg = RunConfig({})
        with pytest.raises(ConfigError, match="run.outdir"):
            cfg.require("run.outdir")

    def test_schedule_auto_radius(self):
        cfg = RunConfig({"lattice.rows": 8, "lattice.cols": 6})
        sched = cfg.schedule()
        assert sched.radius_start == 4.0

    def test_schedule_validation_becomes_config_error(self):
        cfg = RunConfig({"schedule.epochs": 0})
        with pytest.raises(ConfigError):
            cfg.schedule()

    def test_builders_produce_domain_objects(self):
        cfg = RunConfig({"stdp.variant": "soula", "ssom.t_ref_ms": 20.0})
        assert cfg.stdp_rule().variant == "soula"
        assert cfg.ssom_config().t_ref == 20.0
        assert cfg.lateral_kernel().excite_radius is None
        assert cfg.mfcc_config().n_coeffs == 12

    def test_effective_text_covers_every_key(self):
        text = RunConfig({}).effective_text()
        for key in REGISTRY:
            assert key.name in text

    def test_effective_text_round_trips(self):
        cfg = RunConfig({"run.model": "lin", "lin.lambda": 0.25,
                         "run.outdir": "/tmp/x"})
        text = cfg.effective_text()
        reparsed = RunConfig(parse_config_text(text))
        assert reparsed.values == cfg.values

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunConfig.load(tmp_path / "nope.cfg")

    def test_load_non_utf8_file_names_the_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"run.seed = 1\n\xadrun.model = som\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: not UTF-8 text: "
                                              r"byte 0xad"):
            RunConfig.load(path)


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


class TestSizeBound:
    """The size checks compare counts only, so these tests allocate nothing."""

    def test_bound_itself_passes_and_one_more_fails(self):
        check_elements(rows=2, cols=MAX_ELEMENTS // 2)
        with pytest.raises(ValueError, match=rf"^a x b = {MAX_ELEMENTS + 1} x 1 exceeds "
                                             rf"{MAX_ELEMENTS} elements$"):
            check_elements(a=MAX_ELEMENTS + 1, b=1)

    def test_non_positive_sizes_are_left_to_their_own_checks(self):
        check_elements(classes=-2, samples_per_class=-(10 ** 15))
        check_elements(rows=0, cols=10 ** 20)
        check_lattice(0, 10 ** 20, 12)

    def test_distance_table_at_the_bound_passes_and_one_more_unit_fails(self):
        # 128 x 256 = 2^15 units give exactly MAX_ELEMENTS distances; 99 x 331 is one unit more
        check_lattice(128, 256, 12)
        with pytest.raises(ValueError, match=rf"^the unit distance table, \(rows x cols\)\^2 = "
                                             rf"\(99 x 331\)\^2, exceeds {MAX_ELEMENTS} "
                                             rf"elements$"):
            check_lattice(99, 331, 12)

    def test_weights_are_checked_before_the_table(self):
        with pytest.raises(ValueError, match=r"^rows x cols x dim = "):
            check_lattice(10 ** 20, 8, 12)


class TestDefaultOwners:
    """A default that a library class or function also has is written once,
    there: each such key's default is its owner's, in value and type (an
    int written as a float would change the effective config text)."""

    OWNERS = {
        "schedule.epochs": Schedule.epochs,
        "schedule.lr_start": Schedule.lr_start,
        "schedule.lr_end": Schedule.lr_end,
        "schedule.radius_end": Schedule.radius_end,
        "stdp.variant": StdpRule.variant,
        "stdp.a_plus": StdpWindow.a_plus,
        "stdp.a_minus": StdpWindow.a_minus,
        "stdp.tau_plus_ms": StdpWindow.tau_plus,
        "stdp.tau_minus_ms": StdpWindow.tau_minus,
        "stdp.eta": StdpRule.eta,
        "stdp.w_max": StdpRule.w_max,
        "ssom.t_max_ms": SsomConfig.t_max,
        "ssom.t_ref_ms": SsomConfig.t_ref,
        "lateral.excite_gain": LateralKernel.excite_gain,
        "lateral.inhibit_gain": LateralKernel.inhibit_gain,
        "rssom.alpha": RssomModel.alpha,
        "lin.lambda": LinModel.lam,
        "som.concat": SomModel.concat,
        "mfcc.preemph_a": MfccConfig.preemph_a,
        "mfcc.frame_len": MfccConfig.frame_len,
        "mfcc.n_filters": MfccConfig.n_filters,
        "mfcc.n_coeffs": MfccConfig.n_coeffs,
        "mfcc.fft_size": MfccConfig.fft_size,
        "mfcc.use_power": MfccConfig.use_power,
        "corpus.unit": default_of(build_corpus_dataset, "unit"),
        "corpus.frames": default_of(build_corpus_dataset, "k"),
        "synth.dim": default_of(synth_generate, "dim"),
        "synth.frames": default_of(synth_generate, "frames"),
        "synth.separation": default_of(synth_generate, "separation"),
        "synth.order_task": default_of(synth_generate, "order_task"),
    }

    @pytest.mark.parametrize("name", list(OWNERS))
    def test_key_default_is_its_owners(self, name):
        default, owner = KEYS[name].default, self.OWNERS[name]
        assert (default, type(default)) == (owner, type(owner))

    def test_default_config_builds_the_default_objects(self):
        """Including the auto keys: the auto radius_start is for_lattice's,
        and the auto excitation radius is LateralKernel's None."""
        cfg = RunConfig({})
        assert cfg.schedule() == Schedule.for_lattice(cfg["lattice.rows"], cfg["lattice.cols"])
        assert cfg.stdp_rule() == StdpRule()
        assert cfg.ssom_config() == SsomConfig()
        assert cfg.lateral_kernel() == LateralKernel()
        assert cfg.mfcc_config() == MfccConfig()

    def test_default_synth_config_is_synth_generates_defaults(self):
        cfg = RunConfig({})
        library = synth_generate(cfg["synth.classes"], cfg["synth.samples_per_class"],
                                 seed=cfg["run.seed"])
        got = synth_dataset(cfg)
        assert [(s.label, s.frames.tobytes()) for s in got] == \
               [(s.label, s.frames.tobytes()) for s in library]


class TestRegistryHelp:
    def test_lists_every_key(self):
        text = registry_help()
        for key in REGISTRY:
            assert key.name in text


FLOAT_KEYS = [k.name for k in REGISTRY if k.kind.startswith("float")]
KIND_OF_SECTION = {"stdp": "ssom", "ssom": "ssom", "lateral": "ssom", "rssom": "rssom",
                   "lin": "lin"}


@pytest.fixture(scope="module")
def fuzz_setup(tmp_path_factory):
    """Training data for the model builder and a config file path."""
    data = synth_generate(2, 2, dim=3, frames=2, separation=2.0, seed=1)
    return data, tmp_path_factory.mktemp("fuzzed") / "run.cfg"


class TestFuzzedFloatKeys:
    """Any float or text on any float key of a config file either builds the
    run's objects (schedule, model, MFCC settings, synthetic dataset) or
    raises a ConfigError that names the file and line."""

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(value=st.one_of(st.floats().map(repr), st.text()))
    def test_builds_or_names_file_and_line(self, fuzz_setup, key, value):
        data, path = fuzz_setup
        kind = KIND_OF_SECTION.get(key.split(".")[0], "som")
        path.write_text(f"run.model = {kind}\n{key} = {value}\n", encoding="utf-8")
        try:
            cfg = RunConfig.load(path)
            cfg.schedule()
            cfg.mfcc_config()
            build_model(cfg, data)
            synth_dataset(cfg)
        except ConfigError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+", str(exc)), str(exc)
