import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsom import som
from pulsom.corpus import synth_generate
from pulsom.errors import DimensionMismatchError
from pulsom.models import SomModel
from pulsom.som import (
    QE_CHUNK_ELEMENTS,
    Lattice,
    Schedule,
    UnitIndex,
    find_bmu,
    find_bmus,
    gain_spans,
    linear_decay,
    nearest_units,
    neighborhood_array,
    pruned_candidates,
    quantization_error,
    sample_vectors,
    som_update,
    squared_distances,
    train_som,
)


def lattice_from(weights, cols=None):
    w = np.asarray(weights, dtype=np.float64)
    cols = cols or w.shape[0]
    return Lattice(w.shape[0] // cols, cols, w)


def scan_bmu(x, lattice):
    """Exhaustive linear-scan oracle for the best-matching unit."""
    best, best_d = 0, math.inf
    for i in range(lattice.n_units):
        d = float(np.sum((lattice.weights[i] - x) ** 2))
        if d < best_d:
            best, best_d = i, d
    return best


class TestFindBmu:
    def test_nearest_by_inspection(self):
        lat = lattice_from([[0.0, 0.0], [1.0, 1.0]])
        assert find_bmu([0.1, 0.1], lat).flat == 0

    def test_exact_match(self):
        lat = lattice_from([[0.0, 0.0], [1.0, 1.0]])
        bmu = find_bmu([1.0, 1.0], lat)
        assert bmu.flat == 1
        assert np.allclose(lat.weights[bmu.flat], [1.0, 1.0])

    def test_tie_breaks_to_lowest_flat_index(self):
        lat = lattice_from([[0.0, 0.0], [1.0, 1.0]])
        assert find_bmu([0.5, 0.5], lat).flat == 0

    def test_dimension_mismatch(self):
        lat = lattice_from([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DimensionMismatchError) as exc:
            find_bmu([1.0, 2.0, 3.0], lat)
        assert exc.value.expected == 2
        assert exc.value.actual == 3

    def test_matches_exhaustive_scan_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 8))
            lat = Lattice(rows, cols, rng.normal(size=(rows * cols, dim)))
            x = rng.normal(size=dim)
            assert find_bmu(x, lat).flat == scan_bmu(x, lat)

    def test_unit_index_fields(self):
        lat = Lattice(2, 3, np.zeros((6, 1)))
        u = lat.unit(5)
        assert (u.row, u.col, u.flat) == (1, 2, 5)
        assert UnitIndex.from_flat(4, 3) == UnitIndex(1, 1, 4)


def neighborhood(grid_dist, radius):
    return neighborhood_array(np.array([grid_dist]), radius)[0]


class TestNeighborhood:
    def test_peak(self):
        assert neighborhood(0.0, 2.0) == 1.0

    def test_one_radius(self):
        assert neighborhood(2.0, 2.0) == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_cutoff(self):
        assert neighborhood(8.0, 2.0) == 0.0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            neighborhood(1.0, 0.0)


class TestSomUpdate:
    def test_full_step(self):
        lat = lattice_from([[0.0, 0.0]])
        som_update([3.0, 4.0], lat, lat.unit(0), lr=1.0, radius=1.0)
        assert np.array_equal(lat.weights[0], [3.0, 4.0])

    def test_zero_lr_is_bitwise_identity(self):
        rng = np.random.default_rng(3)
        lat = Lattice(3, 3, rng.normal(size=(9, 4)))
        before = lat.weights.copy()
        som_update(rng.normal(size=4), lat, lat.unit(4), lr=0.0, radius=2.0)
        assert np.array_equal(lat.weights, before)

    def test_half_step(self):
        lat = lattice_from([[0.0]])
        som_update([1.0], lat, lat.unit(0), lr=0.5, radius=1.0)
        assert lat.weights[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_never_moves_past_target(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lat = Lattice(4, 4, rng.normal(size=(16, 3)))
            x = rng.normal(size=3)
            before = lat.weights.copy()
            som_update(x, lat, find_bmu(x, lat), lr=float(rng.uniform(0.01, 1.0)),
                       radius=float(rng.uniform(0.5, 4.0)))
            # each weight stays inside the segment [w_before, x]
            lo = np.minimum(before, x)
            hi = np.maximum(before, x)
            assert np.all(lat.weights >= lo - 1e-12)
            assert np.all(lat.weights <= hi + 1e-12)

    def test_dimension_mismatch(self):
        lat = lattice_from([[0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            som_update([1.0], lat, lat.unit(0), lr=0.5, radius=1.0)


class TestLinearDecay:
    def test_start_value(self):
        lr, _ = linear_decay(0, Schedule(80, 0.9, 0.05, 4.0, 1.0))
        assert lr == 0.9

    def test_end_value(self):
        lr, _ = linear_decay(79, Schedule(80, 0.9, 0.05, 4.0, 1.0))
        assert lr == pytest.approx(0.05, abs=1e-15)

    def test_midpoint(self):
        # 81 epochs puts an exact integer at the halfway point
        lr, _ = linear_decay(40, Schedule(81, 0.9, 0.05, 4.0, 1.0))
        assert lr == pytest.approx(0.475, abs=1e-12)

    def test_monotone_non_increasing(self):
        sched = Schedule(60, 0.9, 0.05, 5.0, 1.0)
        values = [linear_decay(t, sched) for t in range(60)]
        for (lr0, r0), (lr1, r1) in zip(values, values[1:]):
            assert lr1 <= lr0
            assert r1 <= r0

    def test_out_of_range(self):
        sched = Schedule(10, 0.9, 0.05, 2.0, 1.0)
        with pytest.raises(ValueError):
            linear_decay(10, sched)
        with pytest.raises(ValueError):
            linear_decay(-1, sched)

    def test_single_epoch_returns_start(self):
        assert linear_decay(0, Schedule(1, 0.9, 0.05, 4.0, 1.0)) == (0.9, 4.0)

    def test_half_diameter_default(self):
        sched = Schedule.for_lattice(8, 6)
        assert sched.radius_start == 4.0
        assert sched.radius_end == 1.0

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            Schedule(0, 0.9, 0.05, 4.0, 1.0)
        with pytest.raises(ValueError):
            Schedule(10, 0.05, 0.9, 4.0, 1.0)
        with pytest.raises(ValueError):
            Schedule(10, 0.9, 0.05, 1.0, 2.0)

    def test_rejects_a_radius_that_decays_to_zero(self):
        # 1.5 + (1e-17 - 1.5) rounds to 0.0 at the last epoch.
        with pytest.raises(ValueError, match="radius_end 1e-17 decays to a last radius of 0.0"):
            Schedule(3, 0.9, 0.05, 1.5, 1e-17)
        # The Gaussian kernels divide by the squared radius, here 0.0.
        with pytest.raises(ValueError, match="last radius of 1e-200, whose square must be"):
            Schedule(3, 0.9, 0.05, 1e-200, 1e-200)
        sched = Schedule(3, 0.9, 0.05, 1.5, 1e-15)
        assert 0 < linear_decay(2, sched)[1] < linear_decay(1, sched)[1] < 1.5

    @pytest.mark.parametrize("values", [
        (1.5, 0.05, 4.0, 1.0), (float("inf"), 0.05, 4.0, 1.0), (0.9, float("nan"), 4.0, 1.0),
        (0.9, 0.05, float("inf"), 1.0), (0.9, 0.05, float("inf"), float("inf")),
        (0.9, 0.05, 4.0, float("nan")),
    ])
    def test_rejects_lr_above_one_and_non_finite_values(self, values):
        with pytest.raises(ValueError):
            Schedule(10, *values)


class TestQuantizationError:
    def test_zero_when_data_sits_on_weights(self):
        lat = lattice_from([[0.0, 0.0], [1.0, 1.0]])
        assert quantization_error([[0.0, 0.0], [1.0, 1.0]], lat) == 0.0

    def test_mean_of_distances(self):
        lat = lattice_from([[0.0]])
        assert quantization_error([[1.0], [-1.0]], lat) == pytest.approx(1.0)

    def test_single_sample_distance(self):
        lat = lattice_from([[0.0, 0.0]])
        assert quantization_error([[3.0, 4.0]], lat) == pytest.approx(5.0)

    def test_empty_data(self):
        lat = lattice_from([[0.0]])
        with pytest.raises(ValueError):
            quantization_error(np.empty((0, 1)), lat)

    def test_dimension_mismatch(self):
        lat = lattice_from([[0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            quantization_error([[1.0, 2.0, 3.0]], lat)

    @pytest.mark.parametrize("rows,cols,dim,n", [
        (8, 8, 12, 1),
        (8, 8, 12, QE_CHUNK_ELEMENTS // (64 * 12)),
        (8, 8, 12, QE_CHUNK_ELEMENTS // (64 * 12) + 1),
        (8, 8, 12, 1350),
        (16, 16, 108, 5),
        (3, 2, 5, 700),
    ])
    def test_chunked_sum_equals_scalar_loop(self, rows, cols, dim, n):
        rng = np.random.default_rng(rows * 1000 + n)
        lat = Lattice(rows, cols, rng.normal(size=(rows * cols, dim)))
        data = 3.0 * rng.normal(size=(n, dim))
        total = 0.0
        for x in data:
            delta = lat.weights - x
            total += math.sqrt(float(np.min(np.einsum("ij,ij->i", delta, delta))))
        assert quantization_error(data, lat) == total / n


def exact_nearest(x, weights):
    with np.errstate(over="ignore"):
        d2 = squared_distances(x, weights)
    return d2.argmin(axis=1), d2.min(axis=1)


def assert_same_nearest(x, weights):
    best, least = nearest_units(x, weights)
    want_best, want_least = exact_nearest(x, weights)
    assert best.dtype == want_best.dtype and np.array_equal(best, want_best)
    assert least.dtype == want_least.dtype
    assert np.array_equal(least, want_least, equal_nan=True)
    assert np.array_equal(least.view(np.int64), want_least.view(np.int64))


class TestNearestUnits:
    """nearest_units rules units out through a rounding bound on a cheap
    estimate; what it returns must be the exact search's bits."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(dim=st.integers(1, 128), n=st.integers(1, 12), units=st.integers(1, 40),
           exponent=st.floats(-170.0, 160.0), spread=st.sampled_from([0.0, 1.0, 8.0]),
           offset=st.sampled_from([0.0, 1e4, 1e7]), seed=st.integers(0, 2**32 - 1),
           ties=st.sets(st.sampled_from(["duplicate", "on_weight", "ulp", "nan"])))
    def test_equals_squared_distances_bit_for_bit(self, dim, n, units, exponent, spread,
                                                  offset, seed, ties):
        # spread draws each entry's magnitude around 10**exponent, so that
        # rows mix normal, subnormal and overflowing squares; a common
        # offset far from the origin makes the estimate cancel
        rng = np.random.default_rng(seed)
        centre = offset * rng.normal(size=dim)

        def block(rows):
            scale = 10.0 ** np.clip(exponent + spread * rng.normal(size=(rows, dim)), -320, 300)
            return (centre + rng.normal(size=(rows, dim))) * scale

        weights, x = block(units), block(n)
        near = int(exact_nearest(x[:1], weights)[0][0])
        other = int(rng.integers(units))
        if "duplicate" in ties:     # an exact tie with the nearest unit
            weights[other] = weights[near]
        if "ulp" in ties:           # a 1-ulp near-tie with it
            weights[other] = np.nextafter(weights[near], rng.choice([-np.inf, np.inf], dim))
        if "on_weight" in ties:
            x[-1] = weights[int(rng.integers(units))]
        if "nan" in ties:
            x[int(rng.integers(n)), int(rng.integers(dim))] = np.nan
        assert_same_nearest(x, weights)

    @pytest.mark.parametrize("scale", [1e-170, 1e-162, 1e-155, 1.0, 1e150, 1e160, 1e200])
    def test_extreme_magnitudes_and_no_warnings(self, scale):
        rng = np.random.default_rng(11)
        weights = rng.normal(size=(30, 17)) * scale
        x = np.concatenate([rng.normal(size=(20, 17)) * scale, weights[[3, 3, 29]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nearest_units(x, weights)
        assert_same_nearest(x, weights)

    def test_ties_go_to_the_lowest_flat_index(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        best, least = nearest_units(np.array([[0.5, 0.5], [0.0, 1.0], [2.0, 0.0]]), weights)
        assert best.tolist() == [0, 1, 0] and least.tolist() == [0.5, 0.0, 1.0]

    def test_empty_block(self):
        best, least = nearest_units(np.empty((0, 3)), np.ones((4, 3)))
        assert best.shape == least.shape == (0,)
        assert find_bmus(np.empty((0, 3)), Lattice(2, 2, np.ones((4, 3)))).shape == (0,)

    def test_concat_map_winner_table_equals_per_sample_argmin(self):
        # the paper's case study: a 16x16 map of 9 middle frames x 12 MFCCs
        rng = np.random.default_rng(20)
        frames = rng.normal(size=(400, 9, 12)) * rng.uniform(0.5, 4.0, size=12)
        vectors = frames.reshape(400, 108)
        lattice = Lattice.random_init(16, 16, vectors, seed=3)
        lattice.weights[7] = vectors[5]             # a sample on a weight row
        lattice.weights[[9, 200]] = vectors[11]     # an exact tie: unit 9 wins
        model = SomModel(lattice, concat=True)
        want = [int(squared_distances(v, lattice.weights).argmin()) for v in vectors]
        assert len(frames) > QE_CHUNK_ELEMENTS // lattice.n_units
        assert model.winner_table(frames)[:, 0].tolist() == want
        assert want[5] == 7 and want[11] == 9


def caller_terms(caller, m, n_frames):
    """The terms that each caller of ``pruned_candidates`` passes: ||m||²
    bound, frames and floor (the spiking maps' at gain 1)."""
    dim = m.shape[1]
    if caller == "som":
        return np.einsum("ij,ij->i", m, m), 1, (dim + 1) * 2.0 ** -1068
    return dim, n_frames, (n_frames + 1) * (dim + 2) * 2.0 ** -1064 * 2.0


class TestPrunedCandidates:
    """The one estimate-and-prune step of every map's search must keep
    every unit whose exact squared distance ties its row's least, with the
    SOM's terms (||x||² a row, one frame) and the spiking maps' (dim for
    the whole block, means in [0, 1]^dim, several frames)."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(caller=st.sampled_from(["som", "spiking"]), dim=st.integers(1, 24),
           n=st.integers(1, 8), units=st.integers(1, 30), n_frames=st.integers(1, 9),
           exponent=st.sampled_from([0.0, -155.0, -160.0, -162.0, -170.0, -320.0, 150.0])
           | st.floats(-170.0, 155.0), spread=st.sampled_from([0.0, 1.0, 8.0]),
           offset=st.sampled_from([0.0, 1e4, 1e7]), seed=st.integers(0, 2**32 - 1),
           ties=st.sets(st.sampled_from(["duplicate", "ulp", "on_weight", "nan", "overflow"])))
    def test_keeps_every_unit_that_ties_the_least(self, caller, dim, n, units, n_frames,
                                                  exponent, spread, offset, seed, ties):
        # entries' magnitudes spread around 10**exponent, down to subnormal
        # squares and products; the SOM's vectors may sit far from the
        # origin, where the estimate cancels, and a spiking map's means lie
        # in [0, 1]
        rng = np.random.default_rng(seed)
        centre = offset * rng.normal(size=dim)

        def block(rows):
            scale = 10.0 ** np.clip(exponent + spread * rng.normal(size=(rows, dim)), -320, 300)
            if caller == "som":
                return (centre + rng.normal(size=(rows, dim))) * scale
            return rng.uniform(size=(rows, dim)) * np.minimum(scale, 1.0)

        m, weights = block(n), block(units)
        with np.errstate(over="ignore", invalid="ignore"):
            near = int(squared_distances(m[0], weights).argmin())
        other = int(rng.integers(units))
        if "duplicate" in ties:     # an exact tie with the nearest unit
            weights[other] = weights[near]
        if "ulp" in ties:           # a 1-ulp near-tie with it
            weights[other] = np.nextafter(weights[near], rng.choice([-np.inf, np.inf], dim))
        if "on_weight" in ties:
            m[-1] = weights[int(rng.integers(units))]
            if caller == "spiking":
                m[-1] = m[-1].clip(0.0, 1.0)
        if "overflow" in ties:      # ||w||² overflows: the slack is inf
            weights[other] = 1e200
        if "nan" in ties:
            m[int(rng.integers(n)), int(rng.integers(dim))] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep = pruned_candidates(m, weights, *caller_terms(caller, m, n_frames))
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = squared_distances(m, weights)
        assert keep.shape == d2.shape == (n, units)
        assert not (d2 == d2.min(axis=1, keepdims=True))[~keep].any()
        assert keep[np.isnan(m).any(axis=1)].all()
        if "overflow" in ties:
            assert keep.all()

    @pytest.mark.parametrize("units, dim", [(144, 12), (256, 108)])
    def test_one_candidate_a_vector_on_spread_units(self, units, dim):
        # the SOM's slack takes the largest ||w||² of the map, and still
        # keeps about one unit a vector when no two units are near-tied,
        # at the frame dim and at the concat map's 9 x 12
        rng = np.random.default_rng(dim)
        centre = 10.0 * rng.normal(size=dim)
        lattice = Lattice(units // 16, 16, centre + 3.0 * rng.normal(size=(units, dim)))
        x = centre + 3.0 * rng.normal(size=(1500, dim))
        kept = []

        def counted(*args):
            keep = pruned_candidates(*args)
            kept.append(int(keep.sum()))
            return keep

        with patch.object(som, "pruned_candidates", counted):
            quantization_error(x, lattice)
        assert len(kept) > 1 and sum(kept) <= 1.1 * len(x)


class TestGridDistances:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (3, 7), (8, 8), (12, 12)])
    def test_table_rows_equal_direct_formula(self, rows, cols):
        lat = Lattice(rows, cols, np.zeros((rows * cols, 1)))
        for flat in range(lat.n_units):
            unit = lat.unit(flat)
            delta = lat.coords - np.array([unit.row, unit.col], dtype=np.float64)
            direct = np.sqrt(np.sum(delta * delta, axis=1))
            assert np.array_equal(lat.distance_table()[flat], direct)
            assert np.array_equal(lat.grid_distances(unit), direct)

    def test_rows_are_read_only(self):
        lat = Lattice(2, 2, np.zeros((4, 1)))
        row = lat.grid_distances(lat.unit(0))
        with pytest.raises(ValueError):
            row[1] = 0.0


def frame_model(data, rows, cols, seed):
    """A frame SOM initialized from the rows of data, and data as one-frame
    sequence samples, so that the training vectors are the rows of data."""
    return SomModel(Lattice.random_init(rows, cols, data, seed)), data[:, None, :]


def oracle_train_som(vectors, lattice, schedule, seed):
    """The per-vector loop train_som ran before it took the table path:
    find_bmu + som_update for each vector, in the same seeded order."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(schedule.epochs):
        lr, radius = linear_decay(t, schedule)
        for i in rng.permutation(vectors.shape[0]):
            som_update(vectors[i], lattice, find_bmu(vectors[i], lattice), lr, radius)
        rows.append((t, lr, radius, quantization_error(vectors, lattice)))
    return rows


def assert_trains_like_oracle(samples, model, vectors, schedule, seed):
    """train_som on the model leaves the weights and log rows, bit for bit,
    that the per-vector oracle gives on a copy of its lattice."""
    lattice = Lattice(model.lattice.rows, model.lattice.cols, model.lattice.weights.copy())
    log = train_som(samples, model, schedule, seed)
    want = oracle_train_som(vectors, lattice, schedule, seed)
    assert np.array_equal(model.lattice.weights.view(np.int64), lattice.weights.view(np.int64))
    got = [(r.epoch, r.lr, r.radius, r.qe) for r in log.rows]
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


class TestTrainSom:
    def test_converges_to_constant_dataset(self):
        data = np.array([[[0.3, -0.7]]] * 4)
        model = SomModel(Lattice(1, 1, np.array([[5.0, 5.0]])))
        train_som(data, model, Schedule(80, 0.9, 0.05, 1.0, 1.0), seed=0)
        assert np.allclose(model.lattice.weights[0], [0.3, -0.7], atol=1e-6)

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 3))
        results = []
        for _ in range(2):
            model, samples = frame_model(data, 4, 4, seed=9)
            train_som(samples, model, Schedule.for_lattice(4, 4, epochs=10), seed=9)
            results.append(model.lattice.weights.copy())
        assert np.array_equal(results[0], results[1])

    def test_quantization_error_improves(self):
        rng = np.random.default_rng(1)
        model, samples = frame_model(rng.uniform(size=(500, 2)), 8, 8, seed=2)
        log = train_som(samples, model, Schedule.for_lattice(8, 8, epochs=30), seed=2)
        assert log.rows[-1].qe <= log.rows[0].qe

    def test_same_seed_lattices_identical(self):
        data = np.random.default_rng(0).normal(size=(20, 5))
        a = Lattice.random_init(3, 4, data, seed=123)
        b = Lattice.random_init(3, 4, data, seed=123)
        assert np.array_equal(a.weights, b.weights)

    def test_non_finite_weights_raise_divergence(self):
        from pulsom.errors import DivergenceError
        from pulsom.som import check_finite
        lat = lattice_from([[0.0, 0.0]])
        check_finite(lat, epoch=0)
        lat.weights[0, 0] = np.nan
        with pytest.raises(DivergenceError) as exc:
            check_finite(lat, epoch=7)
        assert exc.value.epoch == 7

    def test_log_csv_format(self, tmp_path):
        model, samples = frame_model(np.random.default_rng(0).uniform(size=(10, 2)), 2, 2, seed=1)
        log = train_som(samples, model, Schedule(3, 0.9, 0.05, 1.0, 1.0), seed=1)
        out = tmp_path / "log.csv"
        log.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,radius,qe"
        assert len(lines) == 4

    @pytest.mark.parametrize("concat", [False, True])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    @pytest.mark.parametrize("epochs", [1, 4])
    def test_equals_per_vector_oracle_bit_for_bit(self, concat, seed, epochs):
        data = synth_generate(3, 6, dim=4, frames=5, separation=2.0, seed=seed)
        vectors = sample_vectors(data, concat)
        model = SomModel(Lattice.random_init(4, 5, vectors, seed), concat)
        schedule = Schedule.for_lattice(4, 5, epochs=epochs, lr_start=1.0)
        assert_trains_like_oracle(data, model, vectors, schedule, seed)

    # Shapes whose spans are partial and wrap lattice rows, and constant
    # radii from a span of the winner alone (3r < 1) to the whole lattice.
    SPAN_SHAPES = [(1, 1), (1, 9), (9, 1), (3, 11), (11, 3), (16, 16)]
    SPAN_RADII = [0.3, 1.0, 2.5, 8.0]

    @pytest.mark.parametrize("rows, cols", SPAN_SHAPES)
    @pytest.mark.parametrize("radius", SPAN_RADII)
    def test_span_step_equals_whole_lattice_oracle(self, rows, cols, radius):
        vectors = np.random.default_rng(rows * cols).normal(size=(30, 3))
        model, samples = frame_model(vectors, rows, cols, seed=4)
        assert_trains_like_oracle(samples, model, vectors, Schedule(2, 0.5, 0.2, radius, radius), 4)

    @pytest.mark.parametrize("rows, cols", SPAN_SHAPES)
    @pytest.mark.parametrize("radius", SPAN_RADII)
    def test_every_nonzero_gain_lies_in_its_tight_span(self, rows, cols, radius):
        lat = Lattice(rows, cols, np.zeros((rows * cols, 1)))
        gain = 0.5 * neighborhood_array(lat.distance_table(), radius)
        spans = gain_spans(gain)
        for span, row in zip(spans, gain):
            moving = np.flatnonzero(row)
            assert span == (moving[0], moving[-1] + 1)
        n = lat.n_units
        if 3 * radius < 1:
            assert spans == [(b, b + 1) for b in range(n)]
        if 3 * radius > math.hypot(rows - 1, cols - 1):
            assert spans == [(0, n)] * n

    def test_all_zero_gain_row_spans_every_unit(self):
        assert gain_spans(np.zeros((3, 3))) == [(0, 3)] * 3

    def test_negative_zero_outside_the_span_is_kept(self):
        # Only a caller-built lattice holds -0.0; the whole-lattice step
        # would turn it into +0.0, which compares equal.
        weights = np.array([[0.5]] + [[0.0]] * 7 + [[-0.0]])
        model = SomModel(Lattice(1, 9, weights))
        train_som(np.array([[[1.0]]]), model, Schedule(1, 0.5, 0.5, 0.3, 0.3), seed=0)
        assert model.lattice.weights[:, 0].tolist() == [0.75] + [0.0] * 8
        assert np.signbit(model.lattice.weights[8, 0])

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(columns=st.lists(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1))
    def test_random_init_never_yields_negative_zero(self, columns, seed):
        data = np.array([c if isinstance(c, list) else [c] * 3 for c in columns]).T
        w = Lattice.random_init(3, 4, data, seed).weights
        assert not np.signbit(w[w == 0]).any()

    def test_vector_layout(self):
        frames = np.arange(12.0).reshape(2, 3, 2)
        assert np.array_equal(sample_vectors(frames, concat=True), frames.reshape(2, 6))
        assert np.array_equal(sample_vectors(frames, concat=False), frames.reshape(6, 2))
        with pytest.raises(ValueError):
            sample_vectors([], concat=False)

    def test_dimension_mismatch_and_non_finite_vectors(self):
        model = SomModel(lattice_from([[0.0, 0.0]]))
        with pytest.raises(DimensionMismatchError):
            train_som(np.zeros((2, 1, 3)), model, Schedule(1), seed=0)
        with pytest.raises(ValueError, match="finite"):
            train_som(np.full((2, 1, 2), np.nan), model, Schedule(1), seed=0)
