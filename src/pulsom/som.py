"""Kohonen lattice, best-matching-unit search, and the baseline training loop.

The lattice is a 2-D grid of units, each holding a weight vector in feature
space.  Winner search, the Gaussian neighborhood kernel, the linear decay
schedule and the quantization-error metric defined here are reused by every
model variant in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergenceError, check_positive

# Neighborhood influence is treated as zero beyond this many radii.
NEIGHBORHOOD_CUTOFF_SIGMA = 3.0

# Largest block of per-pass elements: the (vectors x units) distance
# estimates of one nearest_units pass (quantization_error, find_bmus), or
# the (samples x units x dim) differences, at most, of one spiking map's
# exact pass over a frame at inference.  It bounds the memory that the
# per-epoch error adds to training and that inference takes per block.
QE_CHUNK_ELEMENTS = 32_768


@dataclass
class UnitIndex:
    """Grid address of a lattice unit; ``flat`` is row-major."""

    row: int
    col: int
    flat: int

    @staticmethod
    def from_flat(flat: int, cols: int) -> "UnitIndex":
        return UnitIndex(flat // cols, flat % cols, flat)


@dataclass
class Schedule:
    """Linear decay schedule for learning rate and neighborhood radius.

    ``Schedule()`` starts at radius 1.0, not at the CLI's default
    ``radius_start = auto``, because only ``for_lattice`` knows the lattice."""

    epochs: int = 80
    lr_start: float = 0.9
    lr_end: float = 0.05
    radius_start: float = 1.0
    radius_end: float = 1.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        check_positive(self, "lr_start", "lr_end", "radius_start", "radius_end")
        if not (1 >= self.lr_start >= self.lr_end):
            raise ValueError(
                f"need 1 >= lr_start >= lr_end, got {self.lr_start}, {self.lr_end}"
            )
        if self.radius_start < self.radius_end:
            raise ValueError(
                f"need radius_start >= radius_end, got "
                f"{self.radius_start}, {self.radius_end}"
            )
        # The decayed radius falls monotonically, so its last value is the
        # least; the Gaussian kernels divide by its square.
        last = linear_decay(self.epochs - 1, self)[1]
        if not last * last > 0:
            raise ValueError(f"radius_end {self.radius_end} decays to a last radius of "
                             f"{last}, whose square must be positive")

    @staticmethod
    def for_lattice(rows: int, cols: int, **fields) -> "Schedule":
        """The schedule whose radius starts at half the larger lattice
        dimension, or at radius_end if that is larger; ``fields`` sets the
        other fields, which default as in ``Schedule()``."""
        end = fields.get("radius_end", Schedule.radius_end)
        return Schedule(radius_start=max(max(rows, cols) / 2.0, end), **fields)


class Lattice:
    """2-D grid of units with weight vectors of a fixed feature dimension.

    Weights are stored as an (rows*cols, dim) float64 array in row-major
    unit order, so unit (r, c) lives at flat index r*cols + c.
    """

    def __init__(self, rows: int, cols: int, weights: np.ndarray, rng_seed: int = 0):
        if rows < 1 or cols < 1:
            raise ValueError(f"lattice shape must be positive, got {rows}x{cols}")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != rows * cols or weights.ndim != 2:
            raise ValueError(
                f"weights shape {weights.shape} does not match {rows}x{cols} units"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.rows = rows
        self.cols = cols
        self.dim = weights.shape[1]
        self.weights = weights
        self.rng_seed = int(rng_seed)
        # Grid coordinates of every unit, for lattice-distance computations.
        rr, cc = np.divmod(np.arange(rows * cols), cols)
        self.coords = np.stack([rr, cc], axis=1).astype(np.float64)
        self._distances = None

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    def unit(self, flat: int) -> UnitIndex:
        return UnitIndex.from_flat(flat, self.cols)

    def winner(self, flat: int) -> UnitIndex | None:
        """The unit at a winner-table entry: None for -1 (no winner)."""
        return None if flat < 0 else self.unit(int(flat))

    def distance_table(self) -> np.ndarray:
        """Read-only (n_units, n_units) lattice distances; row i holds the
        Euclidean distance in lattice coordinates from unit i to every unit.
        Built on first use and kept (n_units² floats)."""
        if self._distances is None:
            delta = self.coords[None, :, :] - self.coords[:, None, :]
            table = np.sqrt(np.sum(delta * delta, axis=2))
            table.setflags(write=False)
            self._distances = table
        return self._distances

    def grid_distances(self, unit: UnitIndex) -> np.ndarray:
        """Euclidean distance in lattice coordinates from ``unit`` to all
        units: a read-only row of ``distance_table``."""
        return self.distance_table()[unit.flat]

    @staticmethod
    def random_init(rows: int, cols: int, data: np.ndarray, seed: int) -> "Lattice":
        """Uniform random weights in the per-dimension min/max range of ``data``."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("data must be a non-empty (n, dim) array")
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        rng = np.random.default_rng(seed)
        # a non-positive shape draws nothing, so that Lattice rejects it by name
        w = lo + (hi - lo) * rng.random((max(rows * cols, 0), data.shape[1]))
        return Lattice(rows, cols, w, rng_seed=seed)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    radius: float
    qe: float
    skipped: int = 0


@dataclass
class TrainingLog:
    """Per-epoch training trace; ``skipped`` counts no-winner presentations."""

    rows: list[EpochStats] = field(default_factory=list)

    @property
    def total_skipped(self) -> int:
        return sum(r.skipped for r in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("epoch,lr,radius,qe\n")
            for r in self.rows:
                f.write(f"{r.epoch},{float(r.lr)!r},{float(r.radius)!r},"
                        f"{float(r.qe)!r}\n")


def _check_vector(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise DimensionMismatchError(dim, x.shape[0] if x.ndim == 1 else x.shape)
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector must be finite")
    return x


def winner_or_none(best, times, t_ref: float):
    """Winner indices: ``best``, each presentation's first unit to fire
    (its index into the last axis of ``times``), or -1 where that unit
    fires after ``t_ref``.  The first unit is silent only when every unit
    is, so its time alone decides.  Every winner rule's first unit holds
    its presentation's least time (SSOM takes the argmin of the times;
    RSSOM's times rise and LIN's fall monotonically with the value it
    takes the argmin or argmax of; a NaN row gives NaN either way), so a
    batch reads the row minimum instead of gathering.  Arithmetic rather
    than np.where, so that one presentation's winner stays a cheap numpy
    scalar."""
    first = times[best] if times.ndim == 1 else times.min(axis=-1)
    return best - (best + 1) * (first > t_ref)


def squared_distances(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each vector of x, shape (..., dim),
    to every weight row: shape x.shape[:-1] + (n_units,).

    One einsum over the flattened (vectors x units, dim) block gives every
    distance the same bits whatever the number of leading vectors.
    """
    delta = weights - x[..., None, :]
    if delta.ndim == 2:     # one vector: the block is (n_units, dim) already
        return np.einsum("ij,ij->i", delta, delta)
    flat = delta.reshape(-1, weights.shape[1])
    return np.einsum("ij,ij->i", flat, flat).reshape(delta.shape[:-1])


def candidates(est: np.ndarray, slack) -> np.ndarray:
    """Mask of the entries of each row of est that can hold their row's
    least exact value (or tie with it), given that every exact value lies
    within slack (broadcast against est) of its estimate.  est is
    overwritten.

    Where est - slack > hi, the least est + slack of the row, the exact
    value exceeds that of the entry giving hi.  An inf slack gives est -
    slack NaN or -inf, never above hi, so its entry stays; a NaN in a row's
    est + slack makes hi NaN and keeps the whole row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hi = (est + slack).min(axis=1)
        est -= slack
        return ~(est > hi[:, None])


def nearest_units(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest weight row of each vector of a block x, shape (n, dim), and
    its squared distance: the bits of ``squared_distances(x, weights)``'s
    ``argmin(axis=1)`` (lowest flat index on ties) and ``min(axis=1)``.

    A cheap estimate ||x||² + ||w||² - 2 x·w of every distance rules out
    the units that cannot hold a row's minimum, and only the rest get the
    exact ``squared_distances`` einsum.
    """
    dim = x.shape[1]
    # Slack.  With u = 2**-53 and S = ||x||² + ||w||², the exact form
    # sum_k fl(w_k - x_k)² rounds each difference and then sums dim
    # squares in some order: it is within ((1 + u)²(1 + γ_dim) - 1) d <=
    # (dim + 3) u d of the real distance d <= 2S.  The estimate's three
    # einsums are within γ_dim ||x||², γ_dim ||w||² and 2 γ_dim |x|·|w| <=
    # γ_dim S (Higham 2002, §3.1), and its sum and difference round by u S
    # and 2u S.  The two forms thus differ by at most (4 dim + 9) u S plus
    # O(u²) terms, which the slack (8 dim + 32) u S covers twice, rounding
    # of S and of the slack itself included.  Under gradual underflow
    # every product may also lose up to 2**-1075 absolutely (sums and
    # differences with subnormal results are exact), 5 dim times in all;
    # the floor (dim + 1) 2**-1068 covers that 25 times.  Where S
    # overflows, the slack is inf, so ``candidates`` keeps such units.
    xx = np.einsum("ij,ij->i", x, x)
    ww = np.einsum("ij,ij->i", weights, weights)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = xx[:, None] + ww
        est = np.einsum("ik,jk->ij", x, weights)
        est *= -2.0
        est += norms
        slack = norms
        slack *= (dim + 4) * 2.0 ** -50
        slack += (dim + 1) * 2.0 ** -1068
    rows, cols = np.nonzero(candidates(est, slack))
    delta = weights[cols] - x[rows]
    # A unit left out reads inf, above its row's minimum, which is finite
    # then; NaN distances occur only in rows that keep every unit.
    d2 = np.full(est.shape, np.inf)
    d2[rows, cols] = np.einsum("ij,ij->i", delta, delta)
    return d2.argmin(axis=1), d2.min(axis=1)


def _nearest_blocks(data: np.ndarray, weights: np.ndarray):
    """``nearest_units`` over the rows of data in blocks of at most
    QE_CHUNK_ELEMENTS vectors x units."""
    rows = max(1, QE_CHUNK_ELEMENTS // weights.shape[0])
    for start in range(0, data.shape[0], rows):
        yield nearest_units(data[start:start + rows], weights)


def find_bmus(x, lattice: Lattice) -> np.ndarray:
    """Flat index of the best-matching unit of each vector of x, shape
    (..., dim); the batched ``find_bmu``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] != lattice.dim:
        raise DimensionMismatchError(lattice.dim, x.shape[-1] if x.ndim else x.shape)
    if not np.isfinite(x).all():
        raise ValueError("input vector must be finite")
    blocks = [best for best, _ in _nearest_blocks(x.reshape(-1, lattice.dim), lattice.weights)]
    return np.concatenate(blocks or [np.empty(0, np.intp)]).reshape(x.shape[:-1])


def find_bmu(x, lattice: Lattice) -> UnitIndex:
    """Best-matching unit: smallest squared Euclidean distance to x.

    Ties are broken by the smallest flat index (argmin returns the first
    minimum).
    """
    x = _check_vector(x, lattice.dim)
    return lattice.unit(int(squared_distances(x, lattice.weights).argmin()))


def neighborhood_array(grid_dists: np.ndarray, radius: float) -> np.ndarray:
    """Gaussian kernel over an array of lattice distances, zero beyond 3 radii."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    h = np.exp(-(grid_dists * grid_dists) / (2.0 * radius * radius))
    h[grid_dists > NEIGHBORHOOD_CUTOFF_SIGMA * radius] = 0.0
    return h


def som_update(x, lattice: Lattice, bmu: UnitIndex, lr: float, radius: float) -> None:
    """Move every unit within the kernel cutoff toward x by lr * h * (x - w)."""
    if not (0.0 <= lr <= 1.0):
        raise ValueError(f"lr must be in [0, 1], got {lr}")
    x = _check_vector(x, lattice.dim)
    if lr == 0.0:
        return
    h = neighborhood_array(lattice.grid_distances(bmu), radius)
    lattice.weights += (lr * h)[:, None] * (x - lattice.weights)


def linear_decay(t: int, schedule: Schedule) -> tuple[float, float]:
    """Learning rate and radius at epoch t under linear interpolation."""
    if not (0 <= t <= schedule.epochs - 1):
        raise ValueError(f"epoch {t} outside [0, {schedule.epochs - 1}]")
    if schedule.epochs == 1:
        return schedule.lr_start, schedule.radius_start
    frac = t / (schedule.epochs - 1)
    lr = schedule.lr_start + (schedule.lr_end - schedule.lr_start) * frac
    radius = schedule.radius_start + (schedule.radius_end - schedule.radius_start) * frac
    return lr, radius


def quantization_error(data, lattice: Lattice) -> float:
    """Mean Euclidean distance from each sample to its BMU's weight vector."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty (n, dim) array")
    if data.shape[1] != lattice.dim:
        raise DimensionMismatchError(lattice.dim, data.shape[1])
    total = 0.0
    for _, d2 in _nearest_blocks(data, lattice.weights):
        # Added one sample at a time, left to right: the same rounding as a
        # per-sample loop, so logged errors keep their bits.
        for dist in np.sqrt(d2).tolist():
            total += dist
    return total / data.shape[0]


def check_finite(lattice: Lattice, epoch: int) -> None:
    if not np.all(np.isfinite(lattice.weights)):
        raise DivergenceError(epoch)


def frames_of(sample) -> np.ndarray:
    """Frames of a sequence sample (or a bare (n_frames, dim) array)."""
    return np.asarray(getattr(sample, "frames", sample), dtype=np.float64)


def sample_vectors(samples, concat: bool) -> np.ndarray:
    """The plain map's input vectors of sequence samples, shape (n, dim):
    with concat, one vector per sample, its frames joined in frame-major
    order; otherwise every frame of every sample, in order.  A stacked
    (n_samples, n_frames, dim) array is reshaped without a per-sample loop."""
    frames = samples if isinstance(samples, np.ndarray) else [frames_of(s) for s in samples]
    if len(frames) == 0:
        raise ValueError("samples must be non-empty")
    if concat:
        return np.reshape(frames, (len(frames), -1))
    return np.concatenate(frames, axis=0)


def gain_spans(gain: np.ndarray) -> list[tuple[int, int]]:
    """Flat span ``(lo, hi)`` of each row of a (units x units) gain table:
    units lo to hi - 1, from its first to its last non-zero entry, so every
    unit outside the span has a zero gain.  A row without one spans all
    units."""
    moving = gain != 0
    lo = moving.argmax(axis=1)
    hi = gain.shape[1] - moving[:, ::-1].argmax(axis=1)
    return list(zip(lo.tolist(), hi.tolist()))


def train_som(data, model, schedule: Schedule, seed: int) -> TrainingLog:
    """Train a ``models.SomModel`` in place on sequence samples: each epoch
    presents the model's input vectors (``sample_vectors``) in a seeded
    random order, each taking the ``find_bmu`` + ``som_update`` step with
    the epoch's gain table (lr times the neighborhood table).  Returns the
    per-epoch quantization error.

    The step moves only the winner's ``gain_spans`` span, a slice of the
    weights, since every unit outside it has a zero gain.  The weights get
    the bits of the whole-lattice step, except that a -0.0 weight outside
    the span stays -0.0 where w + 0 * (x - w) would make it +0.0: the two
    compare equal, but a model file prints ``-0.0``.  Random and trained
    weights never hold -0.0 (``Lattice.random_init`` draws lo + (hi - lo)
    r with hi - lo and r non-negative, and w + s is -0.0 only for w = s =
    -0.0), so only a caller-built lattice can.
    """
    lattice = model.lattice
    vectors = sample_vectors(data, model.concat)
    if vectors.shape[1] != lattice.dim:
        raise DimensionMismatchError(lattice.dim, vectors.shape[1])
    if not np.isfinite(vectors).all():
        raise ValueError("input vector must be finite")
    w = lattice.weights
    dist = lattice.distance_table()
    rng = np.random.default_rng(seed)
    log = TrainingLog()
    for t in range(schedule.epochs):
        lr, radius = linear_decay(t, schedule)
        gain = neighborhood_array(dist, radius)
        gain *= lr
        spans = gain_spans(gain)
        for i in rng.permutation(vectors.shape[0]):
            x = vectors[i]
            b = squared_distances(x, w).argmin()
            lo, hi = spans[b]
            ws = w[lo:hi]
            ws += gain[b, lo:hi, None] * (x - ws)
        check_finite(lattice, t)
        log.rows.append(EpochStats(t, lr, radius, quantization_error(vectors, lattice)))
    return log
