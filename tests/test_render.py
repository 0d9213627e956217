import io
import math
import struct
import zlib

import numpy as np
import pytest

from nonauto.green import Segment, UNIT_DISK, escape_steps, green_model
from nonauto.render import (Raster, RasterSpec, pixel_axes, raster_green,
                            raster_membership, raster_rect_target, write_csv,
                            write_pgm, write_png)
from nonauto.sequences import builtin


def spec_for(seq_radius, n_steps, width=240, height=160, window=(-1.5, 1.5, -1.0, 1.0)):
    return RasterSpec(*window, width, height, n_steps, seq_radius)


@pytest.fixture(scope="module")
def power_seq():
    return builtin("power", degrees=2)


class TestSpecValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            RasterSpec(1, -1, 0, 1, 10, 10, 5, 2.0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            RasterSpec(-1, 1, -1, 1, 0, 10, 5, 2.0)

    def test_mismatched_matrix(self):
        spec = RasterSpec(-1, 1, -1, 1, 4, 4, 5, 2.0)
        with pytest.raises(ValueError):
            Raster(spec, np.zeros((3, 4)), "green")


class TestPixelAxes:
    def test_symmetric_window_mirrors_exactly(self):
        spec = RasterSpec(-1.5, 1.5, -1.0, 1.0, 900, 600, 5, 2.0)
        xs, ys = pixel_axes(spec)
        assert np.all(xs == -xs[::-1])
        assert np.all(ys == -ys[::-1])

    def test_centers_inside_window(self):
        spec = RasterSpec(0.0, 1.0, 2.0, 3.0, 10, 10, 5, 2.0)
        xs, ys = pixel_axes(spec)
        assert xs[0] > 0.0 and xs[-1] < 1.0
        assert ys[-1] > 2.0 and ys[0] < 3.0


class TestMembership:
    def test_power_disk_area(self, power_seq):
        spec = RasterSpec(-2, 2, -2, 2, 400, 400, 50, 2.0)
        raster = raster_membership(power_seq, spec)
        area = float((raster.values == 0).sum()) * (4.0 / 400) ** 2
        assert abs(area - math.pi) / math.pi < 0.01

    def test_minimal_chebyshev_real_diameter(self, min_cheb, min_cheb_radius):
        spec = RasterSpec(-1.5, 1.5, -1.0, 1.0, 301, 101, 100, min_cheb_radius)
        raster = raster_membership(min_cheb, spec)
        xs, ys = pixel_axes(spec)
        row = int(np.argmin(np.abs(ys)))
        assert ys[row] == 0.0
        on_diameter = np.abs(xs) <= 1.25
        assert np.all(raster.values[row][on_diameter] == 0)

    def test_point_julia_set_escapes_everywhere(self):
        seq = builtin("n_exp_z2")
        spec = RasterSpec(0.05, 1.0, 0.05, 1.0, 60, 60, 40, 1.1)
        raster = raster_membership(seq, spec)
        assert np.all(raster.values > 0)

    @pytest.mark.parametrize("n_steps, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_steps_in_least_unsigned_type(self, power_seq, n_steps, dtype):
        spec = RasterSpec(-1.2, 1.2, -1.2, 1.2, 30, 20, n_steps, 2.0)
        raster = raster_membership(power_seq, spec)
        xs, ys = pixel_axes(spec)
        want = escape_steps(power_seq, xs[None, :] + 1j * ys[:, None], n_steps, 2.0)
        assert raster.values.dtype == dtype
        assert np.array_equal(raster.values, want) and (want == 0).any()

    def test_mirror_symmetry(self, min_cheb, min_cheb_radius):
        spec = spec_for(min_cheb_radius, 60)
        v = raster_membership(min_cheb, spec).values
        assert np.array_equal(v, v[:, ::-1])
        assert np.array_equal(v, v[::-1, :])

    def test_monotone_in_depth(self, min_cheb, min_cheb_radius):
        shallow = raster_membership(min_cheb, spec_for(min_cheb_radius, 30)).values
        deep = raster_membership(min_cheb, spec_for(min_cheb_radius, 60)).values
        assert np.all((deep == 0) <= (shallow == 0))

    def test_deterministic_across_threads(self, min_cheb, min_cheb_radius):
        spec = spec_for(min_cheb_radius, 40)
        a = raster_membership(min_cheb, spec, threads=1).values
        b = raster_membership(min_cheb, spec, threads=4).values
        assert np.array_equal(a, b)


class TestGreenRasters:
    def test_model_disk_field(self):
        spec = RasterSpec(-2, 2, -2, 2, 50, 50, 1, 2.0)
        raster = raster_green(UNIT_DISK, spec)
        xs, ys = pixel_axes(spec)
        grid = xs[None, :] + 1j * ys[:, None]
        want = np.maximum(0.0, np.log(np.abs(grid)))
        assert np.allclose(raster.values, want, atol=1e-14)

    def test_model_segment_zero_exactly_on_pixels_inside(self):
        spec = RasterSpec(-2, 2, -1, 1, 81, 41, 1, 2.0)
        raster = raster_green(Segment(), spec)
        xs, ys = pixel_axes(spec)
        row = int(np.argmin(np.abs(ys)))
        inside = np.abs(xs) <= 1.0
        assert np.all(raster.values[row][inside] == 0.0)

    def test_sequence_field_symmetry(self, min_cheb, min_cheb_radius):
        spec = spec_for(min_cheb_radius, 40)
        v = raster_green(min_cheb, spec).values
        assert np.array_equal(v, v[:, ::-1])
        assert np.array_equal(v, v[::-1, :])


class TestRectTarget:
    def test_thin_rectangle_contains_segment_row(self, min_cheb, min_cheb_radius):
        spec = RasterSpec(-1.5, 1.5, -1.0, 1.0, 301, 101, 8, min_cheb_radius)
        raster = raster_rect_target(min_cheb, spec, (-1, 1, -0.0005, 0.0005))
        xs, ys = pixel_axes(spec)
        row = int(np.argmin(np.abs(ys)))
        inside = np.abs(xs) <= 1.0
        assert np.all(raster.values[row][inside] == 0)
        assert (raster.values == 0).sum() < raster.values.size
        assert raster.values.dtype == np.uint8 and raster.values.max() == 8

    def test_bad_rect(self, min_cheb, min_cheb_radius):
        with pytest.raises(ValueError):
            raster_rect_target(min_cheb, spec_for(min_cheb_radius, 4), (1, -1, 0, 1))


class TestWriters:
    def test_pgm_all_zero(self, tmp_path, power_seq):
        spec = RasterSpec(-0.3, 0.3, -0.3, 0.3, 2, 2, 10, 2.0)
        raster = raster_membership(power_seq, spec)
        assert np.all(raster.values == 0)
        path = tmp_path / "zero.pgm"
        write_pgm(raster, path)
        data = path.read_bytes()
        headerless = [tok for tok in data.split(b"\n") if not tok.startswith(b"#")]
        assert headerless[0] == b"P5"
        assert headerless[1] == b"2 2"
        assert headerless[2] == b"65535"
        assert data.endswith(b"\x00" * 8)

    def test_pgm_membership_scaling(self, tmp_path, min_cheb, min_cheb_radius):
        raster = raster_membership(min_cheb, spec_for(min_cheb_radius, 30, 40, 30))
        path = tmp_path / "m.pgm"
        write_pgm(raster, path)
        data = path.read_bytes()
        payload = data.split(b"65535\n", 1)[1]
        arr = np.frombuffer(payload, dtype=">u2").reshape(30, 40)
        assert arr.max() == 65535
        assert np.array_equal(arr == 0, raster.values == 0)

    def test_png_structure(self, tmp_path, min_cheb, min_cheb_radius):
        raster = raster_green(min_cheb, spec_for(min_cheb_radius, 20, 30, 20))
        path = tmp_path / "g.png"
        write_png(raster, path)
        data = path.read_bytes()
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        w, h, depth, color = struct.unpack(">IIBB", data[16:26])
        assert (w, h, depth, color) == (30, 20, 16, 0)
        idat = data[data.index(b"IDAT") + 4:data.rindex(b"IEND") - 8]
        raw = zlib.decompress(idat)
        assert len(raw) == h * (1 + 2 * w)

    def test_csv_round_trip(self, tmp_path, min_cheb, min_cheb_radius):
        raster = raster_green(min_cheb, spec_for(min_cheb_radius, 10, 12, 8))
        path = tmp_path / "r.csv"
        write_csv(raster, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 12 * 8
        xs, ys = pixel_axes(raster.spec)
        back = np.empty_like(raster.values)
        for line in lines[1:]:
            xs_, ys_, v = line.split(",")
            i = int(np.argmin(np.abs(ys - float(ys_))))
            j = int(np.argmin(np.abs(xs - float(xs_))))
            back[i, j] = float(v)
        assert np.max(np.abs(back - raster.values)) <= 1e-12

    @staticmethod
    def _csv_per_pixel(raster: Raster) -> bytes:
        """The reference writer: one formatted line per pixel."""
        xs, ys = pixel_axes(raster.spec)
        out = io.StringIO(newline="")
        out.write("x,y,value\n")
        for i in range(raster.spec.height):
            y = repr(float(ys[i]))
            for j in range(raster.spec.width):
                v = raster.values[i, j]
                val = int(v) if raster.kind == "membership" else repr(float(v))
                out.write(f"{float(xs[j])!r},{y},{val}\n")
        return out.getvalue().encode()

    def test_csv_bytes_match_per_pixel_writer(self, tmp_path, min_cheb, min_cheb_radius):
        spec = spec_for(min_cheb_radius, 12, 37, 23, window=(-1.7, 1.3, -0.45, 1.05))
        for raster in (raster_green(min_cheb, spec), raster_membership(min_cheb, spec)):
            assert len(np.unique(raster.values)) > 2
            path = tmp_path / f"{raster.kind}.csv"
            write_csv(raster, path)
            assert path.read_bytes() == self._csv_per_pixel(raster)

    def test_repeat_render_binary_identical(self, tmp_path, min_cheb, min_cheb_radius):
        spec = spec_for(min_cheb_radius, 25, 64, 48)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(raster_membership(min_cheb, spec, threads=1), p1)
        write_pgm(raster_membership(min_cheb, spec, threads=4), p2)
        assert p1.read_bytes() == p2.read_bytes()
