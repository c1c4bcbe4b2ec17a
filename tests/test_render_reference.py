"""The array-backed render path against a per-point exact reference.

The reference below enumerates partial sums as Python-int tuples and maps
each point to a pixel with ``bisect`` on the exact integer pixel edges, one
point at a time.  The library must agree with it byte for byte, for int64
clouds and for clouds whose entries force exact object arrays.
"""

import bisect
import hashlib
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, linalg
from radixtile.errors import EmptyCloud, SingularMatrix
from radixtile.radix import EpSeq

from conftest import gauss_system


# ---------------------------------------------------------------------------
# per-point exact reference


def ref_cloud(system, k, digit_filter=None):
    points = {linalg.zero_vec(system.n)}
    for j in range(k):
        digits = system.digits if digit_filter is None else digit_filter.entry(j)
        points = {
            linalg.vec_add(linalg.mat_vec(system.matrix, w), linalg.as_vec(d))
            for w in points
            for d in digits
        }
    return sorted(points)


def ref_scaled(system, depth, int_points):
    a, n = system.matrix, system.n
    scale = linalg.det(a) ** depth
    m = linalg.mat_pow(linalg.adjugate(a), depth)
    coords = []
    for w in int_points:
        xy = [sum(m[i][j] * w[j] for j in range(n)) for i in range(min(n, 2))]
        if n == 1:
            xy.append(0)
        coords.append(tuple(xy))
    if scale < 0:
        coords = [(-x, -y) for x, y in coords]
        scale = -scale
    return coords, scale


def ceil_frac(x):
    return -((-x.numerator) // x.denominator)


def ref_raster(clouds, width, height, bbox=None):
    """clouds: (system, depth, int_points) triples; returns (pixels, bbox)."""
    scaled = [ref_scaled(*c) for c in clouds]
    if bbox is None:
        lo, hi = [None, None], [None, None]
        for coords, scale in scaled:
            for axis in (0, 1):
                mn = Fraction(min(p[axis] for p in coords), scale)
                mx = Fraction(max(p[axis] for p in coords), scale)
                lo[axis] = mn if lo[axis] is None else min(lo[axis], mn)
                hi[axis] = mx if hi[axis] is None else max(hi[axis], mx)
        pads = [(hi[a] - lo[a]) / 20 or Fraction(1, 2) for a in (0, 1)]
        bbox = tuple((lo[a] - pads[a], hi[a] + pads[a]) for a in (0, 1))
    channels = 1 if len(clouds) == 1 else 3
    buf = bytearray(width * height * channels)
    for channel, (coords, scale) in enumerate(scaled):
        chan = min(channel, channels - 1)
        edges = []
        for axis, pixels in ((0, width), (1, height)):
            a0, a1 = bbox[axis]
            per_pixel = Fraction(a1 - a0, pixels)
            edges.append([ceil_frac(scale * (a0 + i * per_pixel)) for i in range(pixels + 1)])
        for px, py in coords:
            ix = bisect.bisect_right(edges[0], px) - 1
            iy = bisect.bisect_right(edges[1], py) - 1
            ix = width - 1 if ix == width else ix
            iy = height - 1 if iy == height else iy
            if 0 <= ix < width and 0 <= iy < height:
                buf[((height - 1 - iy) * width + ix) * channels + chan] = 255
    return bytes(buf), bbox


def ref_overlap_count(pixels):
    return sum(1 for i in range(0, len(pixels), 3) if pixels[i] and pixels[i + 1])


# ---------------------------------------------------------------------------
# random small systems

# digit magnitudes from small up to past 2**62, so clouds, scaled
# coordinates and shifted clouds each cross the int64 limit on their own
DIGIT_SCALES = [1, 1, 1, 2**30, 2**55, 2**61, 2**62, 2**70]


# 1-D clouds whose largest |row| is just below, at and just above 2^53; odd rows above 2^53 are no doubles
ROWS_NEAR_2_53 = [
    [(2**53 - 1,), (-(2**53 - 1),), (3,), (0,)],
    [(2**53,), (-(2**53),), (2**53 - 1,), (-1,)],
    [(2**53 + 1,), (2**53,), (2**53 + 3,), (-(2**53 + 5),), (2,)],
    [(2**53 + 1 + 2 * j,) for j in range(-20, 20)],
]


@st.composite
def systems(draw):
    n = draw(st.sampled_from([1, 2]))
    entries = st.integers(-4, 4)
    matrix = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    assume(linalg.det(matrix) != 0)
    scale = draw(st.sampled_from(DIGIT_SCALES))
    vecs = st.tuples(*[st.integers(-6, 6)] * n).map(lambda v: tuple(scale * x for x in v))
    digits = draw(st.lists(vecs, min_size=1, max_size=5, unique=True))
    return rt.RadixSystem(matrix, tuple(digits))


@st.composite
def filters(draw, system):
    subsets = st.lists(st.sampled_from(system.digits), min_size=1, max_size=4, unique=True).map(frozenset)
    pre = draw(st.lists(subsets, max_size=2))
    cycle = draw(st.lists(subsets, min_size=1, max_size=2))
    return EpSeq.make(pre, cycle)


@st.composite
def bboxes(draw):
    scale = draw(st.sampled_from([1, 1, 2**40, 2**66]))
    fracs = st.fractions(min_value=-3, max_value=3, max_denominator=7).map(lambda x: scale * x)
    box = []
    for _ in range(2):
        lo, hi = draw(fracs), draw(fracs)
        assume(lo < hi)
        box.append((Fraction(lo), Fraction(hi)))
    return tuple(box)


SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


class TestAgainstReference:
    @SETTINGS
    @given(data=st.data())
    def test_cloud_and_raster(self, data):
        system = data.draw(systems())
        k = data.draw(st.integers(0, 4))
        digit_filter = data.draw(st.none() | filters(system))
        bbox = data.draw(st.none() | bboxes())
        width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))

        cloud = rt.ktile_points(system, k, digit_filter=digit_filter)
        expected = ref_cloud(system, k, digit_filter)
        assert cloud.int_points == tuple(expected)
        assert len(cloud) == len(expected)
        if cloud.array.dtype == np.int64:
            assert max((abs(x) for w in expected for x in w), default=0) < 2**62

        img = rt.rasterize([cloud], width, height, bbox=bbox)
        pixels, ref_bbox = ref_raster([(system, k, expected)], width, height, bbox)
        assert img.pixels == pixels
        assert img.bbox == ref_bbox

    @SETTINGS
    @given(data=st.data())
    def test_overlap(self, data):
        system = data.draw(systems())
        k = data.draw(st.integers(0, 4))
        shift = data.draw(st.tuples(*[st.integers(-3, 3)] * system.n))
        width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))

        img = rt.render_overlap(system, shift, k, width, height)
        base = ref_cloud(system, k)
        moved = linalg.mat_vec(linalg.mat_pow(system.matrix, k), shift)
        shifted = [linalg.vec_add(w, moved) for w in base]
        pixels, _ = ref_raster([(system, k, base), (system, k, shifted)], width, height)
        assert img.pixels == pixels
        assert rt.overlap_pixel_count(img) == ref_overlap_count(pixels)

    @SETTINGS
    @given(data=st.data())
    def test_float_points_round_the_exact_points(self, data):
        system = data.draw(systems())
        cloud = rt.ktile_points(system, data.draw(st.integers(0, 4)))
        points = cloud.float_points()
        assert points.dtype == np.float64 and points.shape == (len(cloud), system.n)
        assert points.tolist() == [[float(x) for x in p] for p in cloud.points]

    @SETTINGS
    @given(data=st.data())
    def test_points_are_the_inverse_power_images(self, data):
        system = data.draw(systems())
        k = data.draw(st.integers(0, 4))
        cloud = rt.ktile_points(system, k)
        inv_k = linalg.mat_inv_pow(system.matrix, k)
        assert cloud.points == tuple(linalg.frac_mat_vec(inv_k, w) for w in ref_cloud(system, k))

    @SETTINGS
    @given(data=st.data())
    def test_row_order_and_repeats_do_not_matter(self, data):
        """A cloud's rows shuffled and partly repeated give the sorted cloud's points and pixels."""
        system = data.draw(systems())
        k = data.draw(st.integers(0, 4))
        bbox = data.draw(st.none() | bboxes())
        width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        shift = data.draw(st.tuples(*[st.integers(-3, 3)] * system.n))
        rng = data.draw(st.randoms(use_true_random=False))

        rows = rt.ktile_points(system, k).array
        picks = list(range(len(rows))) + rng.choices(range(len(rows)), k=rng.randint(0, len(rows)))
        rng.shuffle(picks)
        messy = rt.PointCloud(system, k, rows=rows[picks])
        tidy = rt.PointCloud(system, k, rows=rows)
        assert messy.int_points == tidy.int_points
        assert messy.points == tidy.points
        assert messy.float_points().tolist() == tidy.float_points().tolist()
        assert len(messy) == len(tidy) == len(rows)

        images = []
        for cloud in (messy, tidy):
            with mock.patch.object(rt.render, "ktile_points", lambda *_: cloud):
                overlap = rt.render_overlap(system, shift, k, width, height)
            images.append((rt.rasterize([cloud], width, height, bbox=bbox), overlap))
        (img, overlap), (ref_img, ref_overlap) = images
        assert (img.pixels, img.bbox) == (ref_img.pixels, ref_img.bbox)
        assert (overlap.pixels, overlap.bbox) == (ref_overlap.pixels, ref_overlap.bbox)

    def test_points_of_a_singular_matrix(self):
        system = rt.RadixSystem(((0,),), ((0,), (1,)))
        assert rt.PointCloud(system, 0, int_points=[(1,)]).points == ((Fraction(1),),)
        with pytest.raises(SingularMatrix, match="matrix is singular"):
            rt.PointCloud(system, 1, int_points=[(1,)]).points

    def test_float_points_round_once(self):
        # float(2**53 + 1) / 3.0 rounds twice and gives ...330.5; the exact quotient is ...331
        cloud = rt.PointCloud(rt.RadixSystem(((3,),), ((0,), (1,), (2,))), 1, int_points=[(2**53 + 1,)])
        assert cloud.float_points().tolist() == [[float(Fraction(2**53 + 1, 3))]] == [[3002399751580331.0]]

    # |det|^k and the det^k-scaled coordinates just below, at and just above 2^53: 3^33 < 2^53 < 3^34,
    # and in 1-D the scaled coordinates are the rows themselves, up to sign.  (0, 1; 2, 0) has det -2:
    # its scale 2^k is 2^53 at k = 53, and its scaled coordinates are 2^26 or 2^27 times a row entry.
    @pytest.mark.parametrize(
        "matrix, depths, clouds",
        [
            (((3,),), (33, 34), ROWS_NEAR_2_53),
            (((-3,),), (33, 34), ROWS_NEAR_2_53),
            (((0, 1), (2, 0)), (52, 53, 54), [
                [(2**27 - 1, 1), (3, -(2**27 - 1)), (0, 0)],
                [(2**26, 2**27), (-(2**26), 5), (2**27, -(2**26))],
                [(2**27 + 1, 2**26 + 1), (7, -(2**27 + 1)), (-(2**27 + 3), 2**27 + 5)],
            ]),
        ],
    )
    def test_float_points_at_two_to_the_53(self, matrix, depths, clouds):
        system = rt.RadixSystem(matrix, [(0,) * len(matrix)])
        for k in depths:
            inv_k = linalg.mat_inv_pow(matrix, k)
            for rows in clouds:
                cloud = rt.PointCloud(system, k, rows=np.array(rows, dtype=np.int64))
                expected = [[float(x) for x in linalg.frac_mat_vec(inv_k, w)] for w in cloud.int_points]
                assert cloud.float_points().tolist() == expected

    def test_large_entries_use_exact_arrays(self):
        system = gauss_system(3, digits=(0, 1, 2**63))
        cloud = rt.ktile_points(system, 3)
        assert cloud.array.dtype == object
        assert cloud.int_points == tuple(ref_cloud(system, 3))

    def test_constructor_sorts_and_dedupes(self, base10):
        cloud = rt.PointCloud(system=base10, depth=1, int_points=((5,), (2**70,), (5,), (-1,)))
        assert cloud.int_points == ((-1,), (5,), (2**70,))
        assert len(cloud) == 3

    def test_empty_filter_entry_gives_empty_cloud(self, base10):
        seq = EpSeq.make([frozenset()], [frozenset({(1,)})])
        cloud = rt.ktile_points(base10, 2, digit_filter=seq)
        assert len(cloud) == 0
        with pytest.raises(EmptyCloud):
            rt.rasterize([cloud], 4, 4)


# ---------------------------------------------------------------------------
# points exactly on the pixel edges


@st.composite
def box_ends(draw):
    """An axis [lo, hi] around an integer m, its two ends plain ints or Fractions."""
    m = draw(st.integers(-10**6, 10**6))
    if draw(st.booleans()):
        return m, m - draw(st.integers(0, 5)), m + draw(st.integers(1, 5))
    below = draw(st.fractions(min_value=0, max_value=3, max_denominator=10**6))
    above = draw(st.fractions(min_value=0, max_value=3, max_denominator=10**6).filter(bool))
    assume(below.denominator != above.denominator)
    return m, m - below, m + above


class TestPixelEdges:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        scale=st.integers(1, 10**30),
        axes=st.tuples(box_ends(), box_ends()),
        size=st.tuples(st.integers(1, 1024), st.integers(1, 1024)),
    )
    @example(scale=10**30, axes=((0, -1, 2), (5, 5, 6)), size=(7, 3))  # plain int ends on both axes
    def test_points_on_the_edges(self, scale, axes, size):
        """Scaled coordinates edge_i and edge_i - 1 land in the pixels the Fraction edges give.

        diag(scale, 1) at depth 1 has scaled coordinates (w0, scale * w1), so its x
        coordinates are free; diag(1, scale) frees y.  Each cloud's other coordinate
        is the integer m inside its axis.
        """
        bbox = tuple((lo, hi) for _, lo, hi in axes)
        clouds = []
        for free in (0, 1):
            a0, a1 = bbox[free]
            pixels = size[free]
            per_pixel = Fraction(a1 - a0, pixels)
            edges = [ceil_frac(scale * (a0 + i * per_pixel)) for i in range(pixels + 1)]
            matrix = ((scale, 0), (0, 1)) if free == 0 else ((1, 0), (0, scale))
            system = rt.RadixSystem(matrix, ((0, 0),))
            m = axes[1 - free][0]
            points = [(e, m) if free == 0 else (m, e) for edge in edges for e in (edge, edge - 1)]
            clouds.append((system, 1, sorted(set(points))))
        img = rt.rasterize([rt.PointCloud(*c) for c in clouds], *size, bbox=bbox)
        pixels, _ = ref_raster(clouds, *size, bbox)
        assert img.pixels == pixels
        assert img.bbox == bbox


# ---------------------------------------------------------------------------
# overflow of user filters with digits larger than the system's own


BIG = EpSeq.make([], [frozenset({(10**17,)})])


class TestFilterDigitBound:
    def test_library(self, base10):
        cloud = rt.ktile_points(base10, 3, digit_filter=BIG)
        assert cloud.int_points == ((111 * 10**17,),)

    def test_cli(self, capsys, tmp_path):
        path = tmp_path / "base10.json"
        path.write_text(json.dumps({"matrix": [10], "digits": [[d] for d in range(10)]}))
        out = tmp_path / "big.pgm"
        # three far-apart groups; a wrapped int64 sum would reorder them
        first = [[0], [5 * 10**16], [10**17]]
        payload = {"k": 3, "width": 24, "height": 1, "filter": {"pre": [first], "cycle": [[[0], [1]]]}}
        code = cli.main(["render", str(path), "-p", json.dumps(payload), "--out", str(out)])
        assert code == 0
        system = cli.load_descriptor(str(path))
        seq = EpSeq.make([frozenset(map(tuple, first))], [frozenset({(0,), (1,)})])
        pixels, _ = ref_raster([(system, 3, ref_cloud(system, 3, seq))], 24, 1)
        assert out.read_bytes() == b"P5\n24 1\n255\n" + pixels


# ---------------------------------------------------------------------------
# output bytes recorded with the per-point implementation


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _m3i_filter():
    return EpSeq.make(
        [frozenset({(0, 0), (8, 0)})],
        [frozenset({(4, 0)}), frozenset({(0, 0), (4, 0), (8, 0)})],
    )


PINNED = {
    "twin_k6_pgm": (
        lambda: rt.rasterize(
            [rt.ktile_points(rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1))), 6)], 64, 48
        ),
        "d36d6cf752f287a4ef4dd4b83fef9dc40ab234b2cae1f04d18f593d6aa151367",
    ),
    "m3i_full_overlap_k3": (
        lambda: rt.render_overlap(gauss_system(3), (1, 0), 3, 40, 40),
        "9a587f54bb944f43269c83beeff35be39e21a0709af4c71b652b0a6b4b2da2a0",
    ),
    "m3i_full_overlap_k6": (
        lambda: rt.render_overlap(gauss_system(3), (1, 0), 6, 128, 128),
        "eb3e51256bf9fd9d841b266ebda41eb8baa9c1cb6c10ad64a54962ef15abe942",
    ),
    "m2i_k3_pgm": (
        lambda: rt.rasterize([rt.ktile_points(gauss_system(2), 3)], 32, 32),
        "1e2bb5733aa523c2dbc8f4d231c6bd41f849d50178fb676dfead43d91dc33926",
    ),
    "base10_bbox": (
        lambda: rt.rasterize(
            [rt.ktile_points(rt.RadixSystem(((10,),), tuple((d,) for d in range(10))), 2)],
            16,
            4,
            bbox=((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(1, 2))),
        ),
        "e4dd305a100887ab04f1bc9f66a6e29da6f1ab1b83cfa0ef6194b4191779be95",
    ),
    "cantor_k5": (
        lambda: rt.rasterize([rt.ktile_points(rt.RadixSystem(((3,),), ((0,), (2,))), 5)], 64, 8),
        "dde017983bfac987a08ca506258be2b5178db8ad26f841c1783b56923ec5b4dc",
    ),
    "bigdigit_k3": (
        lambda: rt.rasterize([rt.ktile_points(gauss_system(3, digits=(0, 1, 2**63)), 3)], 24, 24),
        "8f91265bf7ffaef6af32f558d29d29a5ce883b67a145421c59b20d02d3dc86ec",
    ),
    "bigdigit_overlap_k2": (
        lambda: rt.render_overlap(gauss_system(3, digits=(0, 1, 2**63)), (1, 0), 2, 24, 24),
        "ae838d1e544d8134372b8353c86fd5d93a1b5ab4bc4c6cba79ade49f1225a0e3",
    ),
    "m3i_filter_k4": (
        lambda: rt.rasterize(
            [rt.ktile_points(gauss_system(3, digits=(0, 4, 8)), 4, digit_filter=_m3i_filter())], 32, 32
        ),
        "d0e2daee41102a3e8bdda7b6d02b0ab0ef0a2ee38050a383ea6280f5ac9a90a0",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_pnm_bytes(name):
    build, digest = PINNED[name]
    assert _sha(build().to_pnm()) == digest


def test_pinned_sample(base10):
    cloud = rt.ktile_points(base10, 5, cap=100, sample_seed=1)
    assert _sha(repr(cloud.int_points).encode()) == (
        "5253a5c9e37382c0b16e2eaf751b157a7656a5dd0586508c3827d665a43cee3f"
    )
