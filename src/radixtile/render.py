"""Deterministic raster output of depth-k tile approximations.

Point clouds are kept as exact integer combinations w = sum A^{k-j} d_j;
the true points are A^-k w.  A cloud's rows are one (N, n) integer array
under ``linalg.dtype_for`` (int64 below a certified 2**62, else object), in
the order they were built; rasters read them as they are, and ``array``,
their sorted distinct view, is computed on first use.  Pixel mapping is
exact integer arithmetic against a rational bounding box, so identical inputs
give identical bytes: binary PGM (P5) for single clouds, PPM (P6) for overlays.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DepthTooLarge, EmptyCloud, PreconditionViolated, RasterTooLarge, SingularMatrix, charge
from .linalg import IntVec, RatVec, np
from .numsys import RadixSystem
from .radix import EpSeq

RASTER_CAP = 2**28  # bytes of one raster buffer, width * height * channels


class PointCloud:
    """Depth-k partial sums stored as integer vectors w = A^k * point.

    ``rows`` is one (N, n) integer array of the rows w as built (``int_points``
    or ``rows=``), in any order with repeats allowed; ``array`` is the same rows
    in lexicographic order without repeats, computed on first use.
    """

    def __init__(self, system: RadixSystem, depth: int, int_points=(), *, rows=None):
        if rows is None:
            rows = linalg.int_array([linalg.as_vec(w) for w in int_points], system.n)
        self.system = system
        self.depth = depth
        self.rows = rows

    @functools.cached_property
    def array(self) -> np.ndarray:
        return linalg.sorted_unique(self.rows)

    @property
    def int_points(self) -> tuple[IntVec, ...]:
        return tuple(map(tuple, self.array.tolist()))

    @property
    def points(self) -> tuple[RatVec, ...]:
        coords, scale = _scaled_coords(self, self.array)
        return tuple(tuple(Fraction(c, scale) for c in row) for row in coords.tolist())

    def float_points(self) -> np.ndarray:
        """(N, n) float64 points A^-k w of ``array``, each entry its exact value correctly rounded.

        ``multinv.convergence_report`` takes its clouds through the same ``exact_floats``, from the rows as
        walked and a power of adj(A) carried from level to level, so its points are these doubles.
        """
        return exact_floats(*_scaled_coords(self, self.array))

    def __len__(self) -> int:
        return len(self.array)


def ktile_points(
    sys: RadixSystem,
    k: int,
    digit_filter: EpSeq | None = None,
    cap: int = 2**22,
    sample_seed: int | None = None,
) -> PointCloud:
    """All depth-k partial sums, optionally filtered per position.

    digit_filter is an EpSeq of digit sets; position j draws from
    filter entry j instead of the full digit set.  When the exact cloud
    would exceed the cap, a fixed-seed sample of that size is drawn
    instead (DepthTooLarge when sampling is disabled).
    """
    if k < 0:
        raise PreconditionViolated(f"depth must be >= 0, got {k}")
    total = 1
    for j in range(k):
        total *= len(sys.digits if digit_filter is None else digit_filter.entry(j))
        if total > cap:
            break
    if sample_seed is None:
        charge(DepthTooLarge, "cloud points", total, cap)

    # positions enter most significant first, matching sum A^{k-j} d_j
    choices = [
        list(sys.digits)
        if digit_filter is None
        else sorted(linalg.as_vec(d) for d in digit_filter.entry(j))
        for j in range(k)
    ]
    n = sys.n
    dtype = linalg.dtype_for(linalg.int_entry_bound(sys.matrix, choices))
    digits = [np.array(c, dtype=dtype).reshape(-1, n) for c in choices]
    a_t = np.array(sys.matrix, dtype=dtype).T

    if total <= cap:
        points = np.zeros((1, n), dtype=dtype)
        for d in digits:
            points = ((points @ a_t)[:, None, :] + d[None, :, :]).reshape(-1, n)
        return PointCloud(sys, k, rows=points)

    # Draw attempts until cap distinct points or 20 * cap attempts, keeping the
    # distinct points in order of first appearance; choice() on a range draws
    # the same index it would on the digit list.
    rng = random.Random(sample_seed)
    draws = [range(len(c)) for c in choices]
    pick_type = np.min_scalar_type(max(map(len, choices)))
    kept = np.zeros((0, n), dtype=dtype)
    for _ in range(20):
        if len(kept) == cap:
            break
        picks = np.fromiter((rng.choice(r) for _ in range(cap) for r in draws), pick_type, cap * k)
        w = np.zeros((cap, n), dtype=dtype)
        for d, column in zip(digits, picks.reshape(cap, k).T):
            w = w @ a_t + d[column]
        kept = np.concatenate([kept, w])
        order, fresh = linalg.lex_groups(kept)
        kept = kept[np.sort(np.minimum.reduceat(order, np.flatnonzero(fresh)))[:cap]]
    return PointCloud(sys, k, rows=kept)


@dataclass(frozen=True)
class RasterImage:
    width: int
    height: int
    channels: int
    pixels: bytes
    bbox: tuple[tuple[Fraction, Fraction], ...]

    def to_pnm(self) -> bytes:
        magic = b"P5" if self.channels == 1 else b"P6"
        header = magic + f"\n{self.width} {self.height}\n255\n".encode()
        return header + self.pixels


def exact_floats(coords: np.ndarray, scale: int) -> np.ndarray:
    """The float64 values coords / scale for integer coords and scale > 0, each the exact quotient correctly rounded."""
    # int / int on Python ints rounds the exact quotient once, as float(Fraction) does; up to
    # 2^53 both operands are exact doubles, and IEEE division rounds that quotient once too
    exact = scale <= 2**53 and np.abs(coords).max(initial=0) <= 2**53
    return coords.astype(np.float64) / scale if exact else (coords.astype(object) / scale).astype(np.float64)


def _scaled_coords(cloud: PointCloud, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(N, n) integer coordinates det^k-scaled: exact values of A^-k w times |det|^k for the rows w."""
    b, d = linalg.signed_adjugate(cloud.system.matrix)
    scale = d**cloud.depth
    if scale == 0:
        raise SingularMatrix("matrix is singular")
    return linalg.mat_rows(linalg.mat_pow(b, cloud.depth), rows), scale  # B^k / scale == A^-k exactly


def rasterize(
    clouds,
    width: int,
    height: int,
    bbox: tuple[tuple[Fraction, Fraction], ...] | None = None,
) -> RasterImage:
    """Paint clouds into channels; multiple clouds produce an RGB image.

    The bounding box defaults to the union of cloud bounds padded by 5%.
    All coordinate mapping is exact integer arithmetic: for an axis with ends
    p0/q0 < p1/q1, pixel i covers the det^k-scaled coordinates [edge_i, edge_{i+1}),
    edge_i = ceil((N0 + i*S) / D) over the one denominator D = q0*q1*pixels, with
    N0 = scale*p0*q1*pixels and S = scale*(p1*q0 - p0*q1).  A point at or past an
    axis's upper end lands in its last pixel, one below its lower end is dropped: an
    explicit bbox paints points past its top or right edge into the top row or right
    column.  A buffer past RASTER_CAP bytes raises RasterTooLarge before allocation.
    """
    if width < 1 or height < 1:
        raise PreconditionViolated(f"image size must be at least 1x1, got {width}x{height}")
    clouds = list(clouds)
    if not clouds or all(len(c.rows) == 0 for c in clouds):
        raise EmptyCloud("nothing to rasterize")
    if any(c.system.n > 2 for c in clouds):
        raise ValueError("rasterization covers 1-d and 2-d systems")
    channels = 1 if len(clouds) == 1 else 3
    size = width * height * channels
    charge(RasterTooLarge, "raster bytes", size, RASTER_CAP)

    # one-dimensional systems render along the x axis
    scaled = [_scaled_coords(c, c.rows) for c in clouds]
    scaled = [(np.hstack([c, np.zeros_like(c)]) if c.shape[1] == 1 else c, s) for c, s in scaled]

    if bbox is None:
        lo = [min(Fraction(int(c[:, a].min()), s) for c, s in scaled if len(c)) for a in (0, 1)]
        hi = [max(Fraction(int(c[:, a].max()), s) for c, s in scaled if len(c)) for a in (0, 1)]
        pads = [(hi[a] - lo[a]) / 20 or Fraction(1, 2) for a in (0, 1)]
        bbox = tuple((lo[a] - pads[a], hi[a] + pads[a]) for a in (0, 1))
    elif len(bbox) != 2 or any(lo >= hi for lo, hi in bbox):
        shown = [[linalg.frac_str(lo), linalg.frac_str(hi)] for lo, hi in bbox]
        raise PreconditionViolated(f"bbox needs two axes with lo < hi, got {shown}")

    image = np.zeros(size, dtype=np.uint8)
    for channel, (coords, scale) in enumerate(scaled):
        chan = min(channel, channels - 1)
        edges = []
        for axis, pixels in ((0, width), (1, height)):
            # edge_i = ceil(scale * (a0 + i * (a1 - a0) / pixels)) over one denominator
            (p0, q0), (p1, q1) = ((end.numerator, end.denominator) for end in bbox[axis])
            d, n0, step = q0 * q1 * pixels, scale * p0 * q1 * pixels, scale * (p1 * q0 - p0 * q1)
            edges.append([-((-n0 - i * step) // d) for i in range(pixels + 1)])
        # step > 0, so each axis's edges rise and its ends bound the rest
        if linalg.dtype_for(max(max(abs(e[0]), abs(e[-1])) for e in edges)) is object:
            coords = coords.astype(object)
        ix, iy = (
            np.searchsorted(np.array(e, dtype=coords.dtype), coords[:, axis], side="right") - 1
            for axis, e in enumerate(edges)
        )
        ix[ix == width] = width - 1
        iy[iy == height] = height - 1
        keep = (ix >= 0) & (ix < width) & (iy >= 0) & (iy < height)
        # image rows run top to bottom
        image[((height - 1 - iy[keep]) * width + ix[keep]) * channels + chan] = 255
    return RasterImage(width=width, height=height, channels=channels, pixels=image.tobytes(), bbox=bbox)


def render_overlap(
    sys: RadixSystem,
    shift: IntVec,
    k: int,
    width: int = 256,
    height: int = 256,
) -> RasterImage:
    """Tile in the red channel, shifted tile in green; overlap shows both."""
    shift = linalg.as_vec(shift)
    if len(shift) != sys.n:
        raise PreconditionViolated(f"shift has {len(shift)} entries, the system has dimension {sys.n}")
    base = ktile_points(sys, k)
    scale_shift = linalg.mat_vec(linalg.mat_pow(sys.matrix, k), shift)
    dtype = linalg.dtype_for(int(np.abs(base.rows).max(initial=0)) + max(abs(x) for x in scale_shift))
    shifted = base.rows.astype(dtype, copy=False) + np.array(scale_shift, dtype=dtype)
    return rasterize([base, PointCloud(sys, k, rows=shifted)], width, height)


def overlap_pixel_count(img: RasterImage) -> int:
    """Pixels lit in both of the first two channels."""
    if img.channels != 3:
        raise ValueError("overlap counting needs an RGB image")
    rgb = np.frombuffer(img.pixels, dtype=np.uint8).reshape(-1, 3)
    return int(np.count_nonzero(rgb[:, :2].all(axis=1)))
