import collections
import json
from fractions import Fraction

import pytest

import radixtile as rt
from radixtile import cli, linalg
from radixtile.errors import DepthTooLarge, EmptyCloud, RasterTooLarge
from radixtile.render import RASTER_CAP
from radixtile.radix import vector_seq

from conftest import address_space, charged, gauss_matrix, gauss_system, run_cli_process


class TestKtilePoints:
    def test_cantor_third_stage(self, base3_cantor):
        cloud = rt.ktile_points(base3_cantor, 3)
        assert len(cloud) == 8
        values = sorted(p[0] for p in cloud.points)
        assert values[0] == 0
        assert values[-1] == Fraction(26, 27)

    def test_count_bounded_by_digit_power(self, base10):
        cloud = rt.ktile_points(base10, 3)
        assert len(cloud) == 10**3

    def test_points_inside_certified_ball(self):
        sys = gauss_system(3)
        cloud = rt.ktile_points(sys, 4)
        radius = sys.max_digit_norm() * rt.tail_bound(sys.matrix, 0)
        for p in cloud.points:
            assert float(p[0]) ** 2 + float(p[1]) ** 2 <= radius**2 * (1 + 1e-9)

    def test_filtered_counts_match_component_product(self, m3i_048):
        alpha = vector_seq([(-4, 0), (-8, 0)], [(0, 0), (8, 0)])
        seq = rt.intersection_sequence(rt.translate_spec(m3i_048, alpha))
        cloud = rt.ktile_points(m3i_048, 4, digit_filter=seq)
        assert len(cloud) == 2 * 1 * 3 * 1

    def test_cap_and_sampling(self, base10):
        with pytest.raises(DepthTooLarge) as info:
            rt.ktile_points(base10, 5, cap=100)
        assert charged(info.value, "cloud points", 100) == 1000  # counted up to the first position past the cap
        sampled = rt.ktile_points(base10, 5, cap=100, sample_seed=1)
        assert len(sampled) == 100
        again = rt.ktile_points(base10, 5, cap=100, sample_seed=1)
        assert sampled.int_points == again.int_points

    def test_cli_cloud_past_the_cap(self, capsys, tmp_path):
        # -3+i with the digits 0..9 at depth 8: 10^8 points, counted to 10^7 at depth 7, past the cap of 2^22
        path = tmp_path / "m3i.json"
        path.write_text(json.dumps({"matrix": [[-3, -1], [1, -3]], "digits": [[d, 0] for d in range(10)]}))
        assert cli.main(["render", str(path), "-p", '{"k": 8}', "--out", str(tmp_path / "out.pgm")]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DepthTooLarge"
        assert charged(error, "cloud points", 2**22) == 10**7
        assert not (tmp_path / "out.pgm").exists()


class TestRasterize:
    def test_single_point(self, base3_cantor):
        cloud = rt.PointCloud(system=base3_cantor, depth=1, int_points=((1,),))
        img = rt.rasterize([cloud], 16, 16)
        assert sum(1 for b in img.pixels if b) == 1

    def test_interval_band(self, base10):
        cloud = rt.ktile_points(base10, 3)
        img = rt.rasterize([cloud], 64, 8)
        rows_lit = {
            i // 64
            for i, b in enumerate(img.pixels)
            if b
        }
        # a 1-d cloud paints one horizontal row; the 5% bbox padding leaves
        # a small unlit margin on both ends
        assert len(rows_lit) == 1
        assert sum(1 for b in img.pixels if b) >= 55

    def test_deterministic_bytes(self):
        sys = gauss_system(3)
        a = rt.rasterize([rt.ktile_points(sys, 4)], 64, 64)
        b = rt.rasterize([rt.ktile_points(sys, 4)], 64, 64)
        assert a.pixels == b.pixels
        assert a.to_pnm() == b.to_pnm()
        assert a.to_pnm().startswith(b"P5\n64 64\n255\n")

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloud):
            rt.rasterize([], 8, 8)

    def test_coverage_monotone_in_depth(self):
        sys = gauss_system(2)
        bbox = None
        previous = None
        for k in (2, 3, 4, 5):
            cloud = rt.ktile_points(sys, k)
            if bbox is None:
                img = rt.rasterize([cloud], 48, 48)
                bbox = img.bbox
            else:
                img = rt.rasterize([cloud], 48, 48, bbox=bbox)
            lit = {i for i, b in enumerate(img.pixels) if b}
            if previous is not None:
                assert previous <= lit
            previous = lit


class TestOverlap:
    def test_neighbour_shifts_intersect(self):
        sys = gauss_system(3)
        for shift in [(1, 0), (-1, 0), (2, 1), (3, 1)]:
            img = rt.render_overlap(sys, shift, 5, 96, 96)
            assert rt.overlap_pixel_count(img) > 0

    def test_non_neighbour_shift_disjoint(self):
        sys = gauss_system(3)
        img = rt.render_overlap(sys, (5, 5), 5, 96, 96)
        assert rt.overlap_pixel_count(img) == 0

    def test_depth_six_example(self):
        sys = gauss_system(3)
        img = rt.render_overlap(sys, (1, 0), 6, 128, 128)
        assert rt.overlap_pixel_count(img) > 0
        assert img.to_pnm().startswith(b"P6\n128 128\n255\n")


class TestRenderPathDoesNotSort:
    def test_cli_render_sorts_nothing(self, monkeypatch, tmp_path):
        """A raster reads the rows as built; only listing the points sorts them, once."""
        calls = collections.Counter()
        for name in ("sorted_unique", "lex_groups"):

            def counted(*args, _name=name, _original=getattr(linalg, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(linalg, name, counted)
        path = tmp_path / "m3i.json"
        path.write_text(json.dumps({"matrix": gauss_matrix(3), "digits": [[d, 0] for d in range(10)]}))
        payload = json.dumps({"k": 4, "width": 32, "height": 32})
        for extra, magic in (([], b"P5"), (["--overlap", "1,0"], b"P6")):
            out = tmp_path / "out.pnm"
            assert cli.main(["render", str(path), "-p", payload, "--out", str(out), *extra]) == 0
            assert out.read_bytes().startswith(magic + b"\n32 32\n255\n")
        assert calls == {}

        cloud = rt.ktile_points(gauss_system(3), 4)
        assert calls == {}
        points = cloud.int_points
        assert list(points) == sorted(set(points)) and len(points) == 10**4
        assert cloud.int_points == points
        assert calls == {"sorted_unique": 1, "lex_groups": 1}


KNUTH = rt.RadixSystem(((-1, -1), (1, -1)), ((0, 0), (1, 0)))


class TestRasterCap:
    def test_library(self):
        cloud = rt.ktile_points(KNUTH, 3)
        side = 3 * 10**9
        with pytest.raises(RasterTooLarge) as info:
            rt.rasterize([cloud], side, side)
        assert charged(info.value, "raster bytes", RASTER_CAP) == side * side
        # one byte past the cap on one channel, and an overlay whose three channels pass it
        assert RASTER_CAP == 2**14 * 2**14
        with pytest.raises(RasterTooLarge) as info:
            rt.rasterize([cloud], 2**14, 2**14 + 1)
        assert charged(info.value, "raster bytes", RASTER_CAP) == RASTER_CAP + 2**14
        with pytest.raises(RasterTooLarge) as info:
            rt.render_overlap(KNUTH, (1, 0), 3, 2**14, 2**13)
        assert charged(info.value, "raster bytes", RASTER_CAP) == 3 * 2**27

    def test_cli_under_an_address_space_limit(self, tmp_path):
        # without the cap numpy asks for 9.31 GiB and the process dies in a traceback
        path = tmp_path / "knuth.json"
        path.write_text(json.dumps({"matrix": [[-1, -1], [1, -1]], "digits": [[0, 0], [1, 0]]}))
        payload = json.dumps({"k": 3, "width": 100000, "height": 100000})
        argv = ["render", str(path), "-p", payload, "--out", str(tmp_path / "out.pgm")]
        done = run_cli_process(argv, address_space(2))
        assert done.returncode == 3, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "RasterTooLarge"
        assert charged(error, "raster bytes", RASTER_CAP) == 10**10
        assert not (tmp_path / "out.pgm").exists()
