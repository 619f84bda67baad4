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

# Largest block of per-pass elements: the (vectors x units) estimates of
# one pruned_candidates pass, the search of every map.  quantization_error
# and find_bmus pass one vector a row, and a spiking map's winner table up
# to dim frame means a sample, counting its frames and codes too.  It
# bounds the memory that the per-epoch error adds to training and that
# inference takes per block.
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


def pruned_candidates(m: np.ndarray, weights: np.ndarray, mm, n_frames: int,
                      floor: float) -> np.ndarray:
    """Mask, shape (vectors, units), of the units that can hold the least
    exact value of each vector of m, shape (vectors, dim), or tie with it:
    the one estimate-and-prune step of every map's winner search.  mm
    bounds ||m||² (one number per vector, or one for all); n_frames and
    floor are the caller's terms of the slack s below.

    Each unit's estimate is ||w||² - 2 m·w, its squared distance to m less
    the ||m||² that the row shares: one BLAS-free einsum against a
    contiguous transposed copy of the weights times -2, so that the inner
    loop runs along units.  A unit is kept where its estimate is at most
    the row's least, lo, plus 2 s.
    """
    dim = weights.shape[1]
    ww = np.einsum("ij,ij->i", weights, weights)
    wt = np.multiply(weights.T, -2.0, order="C")
    # Slack.  Let u = 2**-53, T = n_frames, D = dim and r = mm + max ||w||²
    # >= ||m||² + ||w||² for every unit.  The SOM's m is its input x (T =
    # 1, mm = ||x||²); a spiking map's is the weighted mean m = z / c of T
    # frames in [0, 1]^D (mm = D), where frame k of t weighs gain *
    # decay**(t - 1 - k) in z and in c (see the rssom and lin module
    # docstrings).  Let z*, c* and m* = z*/c* be their real values for the
    # map's own float coefficients (decay is the 1.0 - alpha the step
    # computes), so m* lies in [0, 1]^D; the SOM's m* is x.  If each unit's
    # exact value, divided by a positive constant and less a shift that the
    # row shares, lies within s_v of ||m* - w||², and each estimate within
    # s_e of ||w||² - 2 m*·w, then a unit whose estimate exceeds lo by more
    # than 2 (s_v + s_e) has an exact value above that of the unit giving
    # lo, so it can neither win nor tie.  The constant is 1 for the SOM, c²
    # for RSSOM, t_max / D for the SSOM, and c for LIN, whose shift is
    # r' c*/c with 0 <= r' <= D:
    # - The SOM's exact sum_k fl(w_k - x_k)² rounds each difference and sums
    #   D squares in some order: within ((1 + u)²(1 + γ_D) - 1) d <= (D + 3)
    #   u d of the real distance d <= 2r, so s_v <= (2D + 6) u r.
    # - RSSOM's y = z - c w: each step rounds x - w, its product with
    #   alpha, (1 - alpha) y and their sum, so |y - y*| <= 3Tu (z* + c*|w|)
    #   componentwise, and the norm einsum adds γ_D: ||y||²/c² is within
    #   (20T + 2D) u r of ||m* - w||², the rounding of c included.
    # - LIN's -2a sums non-negative terms, each squared distance within
    #   γ_{D+2} and each step rounding twice, so it is within γ_{2T+D+2} of
    #   c* (||m* - w||² + r'): -2a/c - r' c*/c is within (10T + 3D + 6) u r.
    # - The SSOM's m is the frame, bit for bit, and its value the time
    #   t = t_max (d² / D) on clamped weights, with d² as the SOM's: t D /
    #   t_max is within (2D + 10) u r, also where distinct d² round to one
    #   time.  Where t underflows it may lose 2**-1075, D 2**-1075 / t_max
    #   once divided: the SSOM adds 8 times that to its floor.
    # - The estimate's einsums are within γ_D ||w||² and 2 γ_D |m|·|w| <=
    #   γ_D r (Higham 2002, §3.1) whatever order they sum in, the factor
    #   -2 is exact, and their sum rounds by 2u r.  Each coefficient is
    #   within γ_T of its real value (repeated products), and z and c sum
    #   T non-negative terms, so a spiking map's m is within (4T + 2) u m*
    #   of m*, which moves 2 m·w by at most 3 (4T + 2) u r: s_e <= (12T +
    #   2D + 9) u r.
    # In all s_v + s_e <= (32T + 5D + 19) u r plus O(u²) terms, which s =
    # (T + D + 8) 2**-44 r = 512 (T + D + 8) u r covers 16 times, rounding
    # of r and of s included.  Under gradual underflow a product may also
    # lose 2**-1075 absolutely (sums and differences with subnormal results
    # are exact): 3D times for the SOM, which its floor (D + 1) 2**-1068
    # covers 40 times; for a spiking map, scaled by 1/c² <= 1/gain² (c >=
    # gain), with the cross terms split by 2ab <= u a² + b²/u, that stays
    # below (T + 1)(D + 2) 2**-1064 (1 + 1/gain²), which the spiking maps
    # add to their floor (inf where gain² underflows).  s is computed as 4T
    # r times the rest, so it is inf where 4T r overflows, and an exact
    # value or estimate may overflow only there; lo + 2s is then inf, or
    # NaN where lo is -inf, and a NaN in a row's estimates makes lo NaN:
    # no estimate exceeds a NaN or inf bound, so such rows keep every unit.
    with np.errstate(over="ignore", invalid="ignore"):
        s = (mm + ww.max()) * (4.0 * n_frames)
        s *= (n_frames + dim + 8) * 2.0 ** -46 / n_frames
        s += floor
        est = np.einsum("ik,kj->ij", m, wt)
        est += ww
        bound = est.min(axis=1) + 2.0 * s
        return ~(est > bound[:, None])


def nearest_units(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest weight row of each vector of a block x, shape (n, dim), and
    its squared distance: the bits of ``squared_distances(x, weights)``'s
    ``argmin(axis=1)`` (lowest flat index on ties) and ``min(axis=1)``.

    ``pruned_candidates`` rules out the units that cannot hold a row's
    minimum, and only the rest get the exact ``squared_distances`` einsum.
    """
    floor = (x.shape[1] + 1) * 2.0 ** -1068
    keep = pruned_candidates(x, weights, np.einsum("ij,ij->i", x, x), 1, floor)
    rows, cols = np.nonzero(keep)
    delta = weights[cols] - x[rows]
    # A unit left out reads inf, above its row's minimum, which is finite
    # then; NaN distances occur only in rows that keep every unit.
    d2 = np.full(keep.shape, np.inf)
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
