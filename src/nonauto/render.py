"""Rasterization of membership and potential fields over pixel windows.

Pixel centers are generated from the window midpoint outward, so symmetric
windows produce exactly mirror-symmetric coordinate grids and therefore
bit-identical mirror-symmetric rasters for symmetric dynamics.  Rendering is
deterministic regardless of the thread count: rows are partitioned into
bands of at most one engine chunk, each pixel is independent, and the
arithmetic per pixel never depends on the partition.
"""
from __future__ import annotations

import math
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .green import _CHUNK, Segment, escape_steps, green_field
from .sequences import PolySequence


@dataclass(frozen=True)
class RasterSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    width: int
    height: int
    n_steps: int
    escape_radius: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window must have positive extent")
        if self.width < 1 or self.height < 1:
            raise ValueError("raster dimensions must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0 < self.escape_radius < math.inf:
            raise ValueError("escape radius must be positive and finite")


@dataclass(frozen=True)
class Raster:
    spec: RasterSpec
    values: np.ndarray          # row-major, row 0 at y_max
    kind: str                   # "membership" (escape steps, 0 = in) or "green"

    def __post_init__(self):
        if self.values.shape != (self.spec.height, self.spec.width):
            raise ValueError("value matrix does not match the spec")


def pixel_axes(spec: RasterSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates, exactly mirror-symmetric for symmetric windows."""
    cx = 0.5 * (spec.x_min + spec.x_max)
    cy = 0.5 * (spec.y_min + spec.y_max)
    dx = (spec.x_max - spec.x_min) / spec.width
    dy = (spec.y_max - spec.y_min) / spec.height
    xs = cx + (np.arange(spec.width) - (spec.width - 1) / 2.0) * dx
    ys = cy - (np.arange(spec.height) - (spec.height - 1) / 2.0) * dy
    return xs, ys


def _by_rows(worker, spec: RasterSpec, threads: int) -> np.ndarray:
    """worker over row bands of the pixel grid, stacked.

    A band holds at most one engine chunk of points (one row if a row is
    wider), and there are at least as many bands as threads.  No step builds
    a grid, a step count or an orbit value for the whole raster: the pass
    allocates its output and small band arrays only.
    """
    xs, ys = pixel_axes(spec)
    threads = _resolve_threads(threads)
    rows = max(1, min(-(-spec.height // threads), _CHUNK // spec.width))
    bands = [ys[i:i + rows] for i in range(0, spec.height, rows)]
    run = lambda band: worker(xs[None, :] + 1j * band[:, None])
    if threads <= 1 or len(bands) == 1:
        return np.vstack([run(band) for band in bands])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.vstack(list(pool.map(run, bands)))


def _resolve_threads(threads: int) -> int:
    import os

    if threads == 0:
        return os.cpu_count() or 1
    if threads < 0:
        raise ValueError("threads must be >= 0")
    return threads


def raster_membership(seq: PolySequence, spec: RasterSpec, threads: int = 1) -> Raster:
    """Escape step per pixel center (0 = bounded), in the least uint holding n_steps."""
    worker = lambda g: escape_steps(seq, g, spec.n_steps, spec.escape_radius).astype(
        np.min_scalar_type(spec.n_steps))
    return Raster(spec, _by_rows(worker, spec, threads), "membership")


def raster_green(seq: PolySequence, spec: RasterSpec, threads: int = 1) -> Raster:
    """Normalized potential of the sequence toward the unit disk per pixel (green_field)."""
    worker = lambda g: green_field(seq, g, spec.n_steps, spec.escape_radius)[0]
    return Raster(spec, _by_rows(worker, spec, threads), "green")


def raster_rect_target(seq: PolySequence, spec: RasterSpec, rect, threads: int = 1) -> Raster:
    """Membership of the step-n orbit value in a rectangle (exact final test).

    Pixels escaping the verified radius cannot re-enter a rectangle inside it;
    surviving pixels whose final value misses the rectangle are labeled
    n_steps.  Covers thin targets a ModelSet cannot express.  The rectangle
    stands in for [-1, 1], so green_field runs toward Segment(): no disk of
    positive radius lies in a segment, so no trap retires a bounded orbit and
    every one runs in full to give its final value.
    """
    x0, x1, y0, y1 = (float(v) for v in rect)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("rectangle must have positive extent")

    def worker(grid):
        _, steps, w = green_field(seq, grid, spec.n_steps, spec.escape_radius, Segment())
        inside = ((steps == 0)
                  & (w.real >= x0) & (w.real <= x1)
                  & (w.imag >= y0) & (w.imag <= y1))
        labels = np.where(steps == 0, spec.n_steps, steps).astype(
            np.min_scalar_type(spec.n_steps))
        labels[inside] = 0
        return labels

    return Raster(spec, _by_rows(worker, spec, threads), "membership")


# --- output formats ----------------------------------------------------------

def _to_u16(raster: Raster) -> tuple[np.ndarray, str]:
    v = raster.values
    if raster.kind == "membership":
        top = int(v.max())
        if top == 0:
            return np.zeros(v.shape, dtype=np.uint16), "membership: all pixels in-set"
        u = np.where(v == 0, 0.0, v * (65535.0 / top))
        return np.rint(u).astype(np.uint16), (
            f"membership: 0 = in-set, escape step scaled by 65535/{top}")
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        return np.zeros(v.shape, dtype=np.uint16), f"green: constant field value {lo!r}"
    u = (v - lo) * (65535.0 / (hi - lo))
    return np.rint(u).astype(np.uint16), f"green: min {lo!r} max {hi!r} mapped to 0..65535"


def write_pgm(raster: Raster, path) -> None:
    """Binary 16-bit P5, big-endian samples, min-max normalized."""
    u16, note = _to_u16(raster)
    header = f"P5\n# {note}\n{raster.spec.width} {raster.spec.height}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(u16.astype(">u2").tobytes())


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def write_png(raster: Raster, path) -> None:
    """16-bit grayscale PNG with the same normalization as the PGM output."""
    u16, _ = _to_u16(raster)
    h, w = u16.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    body = u16.astype(">u2").tobytes()
    stride = 2 * w
    raw = b"".join(b"\x00" + body[r * stride:(r + 1) * stride] for r in range(h))
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(_png_chunk(b"IHDR", ihdr))
        fh.write(_png_chunk(b"IDAT", zlib.compress(raw, 6)))
        fh.write(_png_chunk(b"IEND", b""))


def write_csv(raster: Raster, path) -> None:
    """Plain x,y,value rows at full precision (round-trips to 1e-12 and better).

    x and y are repr of the pixel-center doubles; the value is repr of the
    potential, or the escape step for membership.  Each raster row is joined
    from one list whose x slots are filled once per raster.
    """
    xs, ys = pixel_axes(raster.spec)
    if raster.kind == "membership":
        values, fmt = raster.values.astype(np.int64), str
    else:
        values, fmt = np.asarray(raster.values, dtype=float), repr
    width = raster.spec.width
    line = [""] * (4 * width)  # x, ",y,", value, newline per pixel
    line[0::4] = map(repr, xs.tolist())
    line[3::4] = ["\n"] * width
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\n")
        for y, row in zip(ys.tolist(), values):
            line[1::4] = [f",{y!r},"] * width
            line[2::4] = map(fmt, row.tolist())
            fh.write("".join(line))
