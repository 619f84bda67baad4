import math

import numpy as np
import pytest

from pulsom.errors import DimensionMismatchError
from pulsom.som import (
    QE_CHUNK_ELEMENTS,
    Lattice,
    Schedule,
    UnitIndex,
    find_bmu,
    linear_decay,
    neighborhood,
    quantization_error,
    som_update,
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


class TestTrainSom:
    def test_converges_to_constant_dataset(self):
        data = np.array([[0.3, -0.7]] * 4)
        lat = Lattice(1, 1, np.array([[5.0, 5.0]]))
        train_som(data, lat, Schedule(80, 0.9, 0.05, 1.0, 1.0), seed=0)
        assert np.allclose(lat.weights[0], [0.3, -0.7], atol=1e-6)

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 3))
        results = []
        for _ in range(2):
            lat = Lattice.random_init(4, 4, data, seed=9)
            train_som(data, lat, Schedule.for_lattice(4, 4, epochs=10), seed=9)
            results.append(lat.weights.copy())
        assert np.array_equal(results[0], results[1])

    def test_quantization_error_improves(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(size=(500, 2))
        lat = Lattice.random_init(8, 8, data, seed=2)
        log = train_som(data, lat, Schedule.for_lattice(8, 8, epochs=30), seed=2)
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
        data = np.random.default_rng(0).uniform(size=(10, 2))
        lat = Lattice.random_init(2, 2, data, seed=1)
        log = train_som(data, lat, Schedule(3, 0.9, 0.05, 1.0, 1.0), seed=1)
        out = tmp_path / "log.csv"
        log.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,radius,qe"
        assert len(lines) == 4
