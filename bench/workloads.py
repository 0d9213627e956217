"""The four workloads: set-up, one pass, and the checks on a pass's outputs.

Each workload stresses different layers (see BENCHMARK.json for why each
exists).  A pass calls the package through module attributes, such as
`render.raster_membership(...)`, so the tracer's wrappers see every call.
Checks and known-defect probes run outside the timed region.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import struct
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import nonauto
from nonauto import green, klimek, render, sequences

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Relative tolerance of values compared with a reference recorded at the seed
# commit: loose enough for a change of evaluation order, far below any
# mathematical change.
REF_TOL = 1e-9

WINDOW = (-1.5, 1.5, -1.0, 1.0)
THIN_RECT = (-1.0, 1.0, -0.0005, 0.0005)

SIZES = {
    "full": {
        "figures": {"width": 900, "height": 600, "rect_n": 8, "low_n": 5, "deep_n": 100,
                    "field_samples": 256},
        "deep_orbits": {"depth": 600, "interior": 4, "net_radii": 20, "net_angles": 10,
                        "net_depths": list(range(4, 13)), "probe_depth": 60},
        "metric_table": {"tail_min": 40, "tail_classical": 30, "table_n": 12,
                         "table_samples": 16384, "contraction_m": 4096},
        "cli_custom": {"mem_size": "900x600", "mem_n": 1000, "field_size": "600x400",
                       "field_n": 200, "green_n": 1000, "table_n": 10, "table_samples": 4096,
                       "check_n": 1000, "pixel_sample": 64},
    },
    "smoke": {
        "figures": {"width": 90, "height": 60, "rect_n": 8, "low_n": 5, "deep_n": 20,
                    "field_samples": 64},
        "deep_orbits": {"depth": 60, "interior": 2, "net_radii": 4, "net_angles": 5,
                        "net_depths": [4, 5, 6], "probe_depth": 60},
        "metric_table": {"tail_min": 6, "tail_classical": 5, "table_n": 3,
                         "table_samples": 1024, "contraction_m": 512},
        "cli_custom": {"mem_size": "90x60", "mem_n": 50, "field_size": "60x40",
                       "field_n": 20, "green_n": 50, "table_n": 3, "table_samples": 256,
                       "check_n": 50, "pixel_sample": 16},
    },
}


class Checks:
    """Named pass/fail records; a check that raises counts as failed."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.records.append({"name": name, "ok": bool(ok), "detail": detail})

    def run(self, name: str, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed check, not a crashed run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)


def digest(obj) -> str:
    """sha256 of a canonical encoding of nested outputs (arrays by dtype, shape, bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def load_reference(size: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[size]


def _fill(seq, depth: int):
    for n in range(1, depth + 1):
        seq.get(n)
    return seq


def _polys(seq, depth: int):
    return [(seq.get(k).coeffs, seq.get(k).scale2) for k in range(1, depth + 1)]


def _close_all(got, want, tol=REF_TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False, f"shape {got.shape} != {want.shape}"
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    return worst <= tol, f"worst relative error {worst:.3g} (tolerance {tol:g})"


# --- figures ---------------------------------------------------------------------

class Figures:
    """The paper's three figures and a potential field for minimal Chebyshev."""

    name = "figures"
    jobs = ("fig_n100_s", "field_n100_s")

    def setup(self, seed, size, out):
        # the figures are fixed by the paper; the seed is ignored
        return {"seq": _fill(sequences.builtin("minimal_chebyshev"), size["deep_n"]),
                "size": size, "out": out}

    def run(self, state, in_process=False):
        seq, s, out = state["seq"], state["size"], state["out"]
        jobs = {}
        radius = sequences.escape_radius_search(seq, s["deep_n"])

        def spec(n):
            return render.RasterSpec(*WINDOW, s["width"], s["height"], n, radius)

        rect = render.raster_rect_target(seq, spec(s["rect_n"]), THIN_RECT, threads=1)
        render.write_png(rect, out / "segment_preimage.png")
        low = render.raster_membership(seq, spec(s["low_n"]), threads=1)
        render.write_png(low, out / "disk_preimage_low.png")
        t0 = perf_counter()
        deep = render.raster_membership(seq, spec(s["deep_n"]), threads=1)
        render.write_png(deep, out / "disk_preimage_deep.png")
        jobs["fig_n100_s"] = perf_counter() - t0
        t0 = perf_counter()
        field = render.raster_green(seq, spec(s["deep_n"]), threads=1)
        render.write_png(field, out / "green_field.png")
        jobs["field_n100_s"] = perf_counter() - t0
        outputs = {"radius": radius, "rect": rect.values, "low": low.values,
                   "deep": deep.values, "field": field.values}
        return outputs, jobs

    @staticmethod
    def _field_sample(field, count):
        idx = np.linspace(0, field.size - 1, count).astype(np.int64)
        return field.ravel()[idx]

    def reference(self, state, outputs):
        ref = {"radius": outputs["radius"],
               "field_sample": self._field_sample(outputs["field"],
                                                  state["size"]["field_samples"]).tolist()}
        for key in ("rect", "low", "deep"):
            ref[f"{key}_sha256"] = digest(outputs[key].astype("<i4"))
        return ref

    def check(self, state, outputs, checks, ref):
        checks.run("figures.radius", lambda: (
            outputs["radius"] == ref["radius"], f"{outputs['radius']!r} vs {ref['radius']!r}"))
        for key in ("rect", "low", "deep"):
            got = digest(outputs[key].astype("<i4"))
            checks.run(f"figures.{key}_raster_sha256",
                       lambda got=got, key=key: (got == ref[f"{key}_sha256"], got[:16]))
        sample = self._field_sample(outputs["field"], state["size"]["field_samples"])
        checks.run("figures.green_field_sample", lambda: _close_all(sample, ref["field_sample"]))

    def probes(self, state, outputs):
        return []


# --- deep orbits ------------------------------------------------------------------

# Real starts whose minimal-Chebyshev orbits stay bounded at every depth:
# T_n maps [-1, 1] into itself, so |p_n| <= 2**(1-n) there.
INTERIOR_POOL = [round(-0.95 + 0.05 * i, 2) for i in range(39)]


NET_CHECK_STRIDE = 9   # the oracle checks every 9th (depth, point) pair of the net


def _criterion3_net(radii: int, angles: int) -> np.ndarray:
    r = np.linspace(1.1, 3.0, radii)
    a = 2 * np.pi * np.arange(angles) / angles
    return np.array([rho * np.exp(1j * phi) for rho in r for phi in a])


class DeepOrbits:
    """Scalar orbit engines and certificates at depth, plus the defect probes."""

    name = "deep_orbits"
    jobs = ("radius_s", "orbit_s")

    def setup(self, seed, size, out):
        depth = size["depth"]
        return {
            "minimal": _fill(sequences.builtin("minimal_chebyshev"), depth),
            "classical": _fill(sequences.builtin("classical_chebyshev"), max(size["net_depths"])),
            "n_exp_z2": _fill(sequences.builtin("n_exp_z2"), size["probe_depth"]),
            "shifted_square": sequences.custom_sequence([nonauto.polynomial(1e200, 0, 1)]),
            "interior": random.Random(seed).sample(INTERIOR_POOL, size["interior"]),
            "net": _criterion3_net(size["net_radii"], size["net_angles"]),
            "size": size,
        }

    def run(self, state, in_process=False):
        s, mc, cc, ne = state["size"], state["minimal"], state["classical"], state["n_exp_z2"]
        depth = s["depth"]
        jobs = {}
        t0 = perf_counter()
        radius = sequences.escape_radius_search(mc, depth)
        guided = sequences.check_guided(mc, 2.0, depth)
        jobs["radius_s"] = perf_counter() - t0

        t0 = perf_counter()
        interior = []
        for x in state["interior"]:
            bounded, escaped = green.orbit_bounded(mc, x, depth, radius)
            gv = green.green_nonauto(mc, x, depth, radius)
            interior.append((x, bounded, escaped, gv.value, gv.error_bound, gv.escaped_at))
        net_radius = sequences.escape_radius_search(cc, max(s["net_depths"]))
        net = [(n, complex(z), gv.value, gv.error_bound, gv.escaped_at)
               for n in s["net_depths"] for z in state["net"]
               for gv in (green.green_nonauto(cc, complex(z), n, net_radius),)]
        jobs["orbit_s"] = perf_counter() - t0

        # known-defect probes from the roadmap; each must fail until its fix lands
        probe_radius = sequences.escape_radius_search(ne, s["probe_depth"])
        a = green.green_field(state["shifted_square"], np.array([1e60 + 0j]), 1, 1e101)
        b = green.green_nonauto(ne, 0.1, s["probe_depth"], probe_radius)
        c = green.escape_steps(ne, np.array([1e-5, 1e-40]), s["probe_depth"], probe_radius)
        outputs = {
            "radius": radius,
            "guided": (guided.passed, guided.margin, repr(guided.witness), guided.note),
            "interior": interior, "net_radius": net_radius, "net": net,
            "probe_radius": probe_radius,
            "probe_a": float(a[0][0]),
            "probe_b": (b.value, b.error_bound),
            "probe_c": [int(v) for v in c],
        }
        return outputs, jobs

    def reference(self, state, outputs):
        return {"radius": outputs["radius"], "net_radius": outputs["net_radius"]}

    def check(self, state, outputs, checks, ref):
        import oracle

        s, mc = state["size"], state["minimal"]
        depth, radius = s["depth"], outputs["radius"]
        for key in ("radius", "net_radius"):
            checks.run(f"deep_orbits.{key}", lambda key=key: (
                outputs[key] == ref[key], f"{outputs[key]!r} vs {ref[key]!r}"))

        polys = _polys(mc, depth)
        d_prod = math.factorial(depth)
        for x, bounded, escaped, value, err, gv_escaped in outputs["interior"]:
            def interior_check(x=x, bounded=bounded, escaped=escaped, value=value,
                               err=err, gv_escaped=gv_escaped):
                want_escape, w = oracle.real_orbit(polys, x, radius)
                want = oracle.disk_green(w, d_prod)
                ok = (bounded == (want_escape is None) and escaped == want_escape
                      and gv_escaped == want_escape and abs(value - want) <= err)
                return ok, (f"orbit_bounded=({bounded}, {escaped}) green=({value!r} +- {err:.3g}, "
                            f"escaped {gv_escaped}) oracle=({want!r}, escaped {want_escape})")
            checks.run(f"deep_orbits.interior[{x}]", interior_check)

        def net_check():
            bad = []
            sample = outputs["net"][::NET_CHECK_STRIDE]
            for n, z, value, err, gv_escaped in sample:
                want_escape, want = oracle.chebyshev_composite(z, n, outputs["net_radius"])
                if gv_escaped != want_escape or not abs(value - want) <= err:
                    bad.append((n, z, value, want, err))
            return not bad, f"{len(bad)} of {len(sample)} sampled values outside error_bound {bad[:2]}"
        checks.run("deep_orbits.criterion3_net", net_check)

    def probes(self, state, outputs):
        import oracle

        s, ne = state["size"], state["n_exp_z2"]
        n = s["probe_depth"]
        records = []
        sq = state["shifted_square"].get(1)
        _, w = oracle.real_orbit([(sq.coeffs, sq.scale2)], 1e60, 1e101)
        want_a = oracle.disk_green(w, 2)
        records.append({
            "name": "(a) green_field keeps lower-order terms: z^2+1e200 at 1e60",
            "ok": oracle.close(outputs["probe_a"], want_a, REF_TOL),
            "detail": f"got {outputs['probe_a']!r}, want {want_a!r}"})

        polys = _polys(ne, n)
        _, w = oracle.real_orbit(polys, 0.1, outputs["probe_radius"])
        want_b = oracle.disk_green(w, 2 ** n)
        value, err = outputs["probe_b"]
        records.append({
            "name": f"(b) green_nonauto(n_exp_z2, 0.1, {n}) within its error_bound",
            "ok": abs(value - want_b) <= err,
            "detail": f"got {value!r} +- {err:.3g}, want {want_b!r} "
                      f"(log 0.1 + log {n}! = {math.log(0.1) + oracle.log_factorial(n)!r})"})

        want_c = [oracle.real_orbit(polys, z, outputs["probe_radius"])[0] for z in (1e-5, 1e-40)]
        records.append({
            "name": "(c) escape_steps(n_exp_z2, [1e-5, 1e-40]) matches the scalar reference",
            "ok": outputs["probe_c"] == want_c,
            "detail": f"got {outputs['probe_c']}, want {want_c}"})

        passed, margin, witness, note = outputs["guided"]
        records.append({
            "name": f"(d) check_guided(minimal_chebyshev, 2.0, {s['depth']}) passes",
            "ok": passed,
            "detail": f"got passed={passed} {witness} {note!r}; every zero of T_n lies in "
                      "[-1, 1] and |T_n| / 2**(n-1) >= 2 on |z| = 2"})
        return records


# --- metric table -----------------------------------------------------------------

class MetricTable:
    """Tail constants, the convergence table and a contraction ratio."""

    name = "metric_table"
    jobs = ("tail_s", "table_s")

    def setup(self, seed, size, out):
        # fixed by the paper; the seed is ignored
        return {
            "minimal": _fill(sequences.builtin("minimal_chebyshev"), size["tail_min"] + 1),
            "classical": _fill(sequences.builtin("classical_chebyshev"),
                               size["tail_classical"] + 1),
            "t8": nonauto.chebyshev_t(8),
            "size": size,
        }

    def run(self, state, in_process=False):
        s, mc, cc = state["size"], state["minimal"], state["classical"]
        jobs = {}
        t0 = perf_counter()
        tails = [klimek.tail_constant(mc, green.UNIT_DISK, s["tail_min"]),
                 klimek.tail_constant(cc, green.Segment(), s["tail_classical"])]
        jobs["tail_s"] = perf_counter() - t0
        t0 = perf_counter()
        rows = klimek.convergence_table(mc, green.UNIT_DISK, range(1, s["table_n"] + 1),
                                        samples=s["table_samples"])
        jobs["table_s"] = perf_counter() - t0
        contraction = klimek.contraction_check(state["t8"], green.UNIT_DISK, green.Ellipse(2.0),
                                               s["contraction_m"])
        outputs = {
            "tails": tails,
            "rows": [[r.n, r.log_d, r.gamma, r.cap, r.cap_spread] for r in rows],
            "contraction": [contraction.ratio, contraction.slack],
        }
        return outputs, jobs

    def reference(self, state, outputs):
        return {k: outputs[k] for k in ("tails", "rows", "contraction")}

    def check(self, state, outputs, checks, ref):
        for key in ("tails", "rows", "contraction"):
            checks.run(f"metric_table.{key}", lambda key=key: _close_all(outputs[key], ref[key]))
        # monic maps: every step-n preimage of the unit disk has capacity exactly 1
        caps = [row[3] for row in outputs["rows"]]
        checks.run("metric_table.capacity_is_one", lambda: (
            all(abs(c - 1.0) <= 1e-6 for c in caps), f"capacities {caps[:3]}..."))

    def probes(self, state, outputs):
        return []


# --- CLI on a custom cycle --------------------------------------------------------

# p1 = z^2 + c1, p2 = z^3 + b z + c2, p3 = z^4 + a z^2 + c3 (ascending [re, im] pairs);
# small complex lower coefficients keep the disk |z| <= 2 guided for every seed.
BASE_CYCLE = [
    [[-0.12, 0.35], [0, 0], [1, 0]],
    [[0.05, -0.2], [0.15, 0.1], [0, 0], [1, 0]],
    [[0.1, 0.1], [0, 0], [-0.2, 0.05], [0, 0], [1, 0]],
]
COEFF_JITTER = 0.002         # half-width of the seeded box around each lower coefficient
PROBE_BOX = (0.08, 0.12, 0.18, 0.22)   # green probe point: re range, im range (interior)


def png_pixels(path) -> np.ndarray:
    """16-bit grayscale samples of a PNG written by render.write_png."""
    data = Path(path).read_bytes()
    pos, idat = 8, b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        if tag == b"IHDR":
            width, height = struct.unpack(">II", body[:8])
        elif tag == b"IDAT":
            idat += body
        pos += 12 + length
    rows = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(height, 1 + 2 * width)
    if np.any(rows[:, 0]):
        raise ValueError("unexpected PNG row filter")
    return rows[:, 1:].copy().view(">u2").reshape(height, width)


class CliCustom:
    """Five serial `nonauto` CLI runs on a seeded complex 3-polynomial cycle."""

    name = "cli_custom"
    jobs = ("cli_render_s", "cli_query_s")

    def setup(self, seed, size, out):
        from nonauto import cli  # noqa: F401  (set-up here is the bare import)

        rng = random.Random(seed)

        def jitter(v):
            return v + rng.uniform(-COEFF_JITTER, COEFF_JITTER)

        polys = [[[jitter(re), jitter(im)] if (re or im) else [0.0, 0.0] for re, im in row[:-1]]
                 + [row[-1]] for row in BASE_CYCLE]
        doc = {"polynomials": polys, "repeat": "cycle"}
        z = complex(rng.uniform(*PROBE_BOX[:2]), rng.uniform(*PROBE_BOX[2:]))
        seq_path = out / "cycle.json"
        seq_path.write_text(json.dumps(doc))
        seq = f"custom:{seq_path}"
        commands = {
            "render_membership": ["render", "--seq", seq, "--n", str(size["mem_n"]),
                                  "--size", size["mem_size"], "--format", "png",
                                  "--out", str(out / "membership.png")],
            "render_green": ["render", "--seq", seq, "--mode", "green",
                             "--n", str(size["field_n"]), "--size", size["field_size"],
                             "--format", "csv", "--out", str(out / "green.csv")],
            "green": ["green", "--seq", seq, "--z", f"{z.real!r},{z.imag!r}",
                      "--n", str(size["green_n"]), "--json"],
            "table": ["table", "--seq", seq, "--n-list",
                      ",".join(str(n) for n in range(1, size["table_n"] + 1)),
                      "--samples", str(size["table_samples"])],
            "check": ["check", "--seq", seq, "--which", "guided",
                      "--n-max", str(size["check_n"])],
        }
        return {"seq_path": seq_path, "z": z, "commands": commands, "size": size, "out": out}

    def run(self, state, in_process=False):
        results, times = {}, {}
        for name, argv in state["commands"].items():
            argv = ["--threads", "1", *argv]
            t0 = perf_counter()
            if in_process:
                from nonauto import cli

                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                results[name] = (code, out.getvalue(), err.getvalue())
            else:
                proc = subprocess.run([sys.executable, "-m", "nonauto.cli", *argv],
                                      capture_output=True, text=True)
                results[name] = (proc.returncode, proc.stdout, proc.stderr)
            times[name] = perf_counter() - t0
        outputs = {"results": results}
        for name in ("membership.png", "green.csv"):
            path = state["out"] / name
            outputs[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        jobs = {"cli_render_s": times["render_membership"] + times["render_green"],
                "cli_query_s": times["green"] + times["table"] + times["check"]}
        return outputs, jobs

    @staticmethod
    def _radius(stderr: str) -> float:
        for line in stderr.splitlines():
            if line.startswith("escape radius: "):
                return float(line.split(": ", 1)[1])
        raise ValueError("render printed no escape radius")

    def check(self, state, outputs, checks, ref):
        import oracle

        s, out, results = state["size"], state["out"], outputs["results"]
        seq = sequences.load_sequence_file(state["seq_path"])
        for name, (code, _, err) in results.items():
            checks.add(f"cli_custom.{name}.exit_code", code == 0,
                       f"exit {code}" + ("" if code == 0 else f": {err.strip()[-200:]!r}"))
        rng = np.random.default_rng(0)

        def membership():
            code, _, err = results["render_membership"]
            radius = self._radius(err)
            w, h = (int(v) for v in s["mem_size"].split("x"))
            spec = render.RasterSpec(*WINDOW, w, h, s["mem_n"], radius)
            xs, ys = render.pixel_axes(spec)
            img = png_pixels(out / "membership.png")
            bad = []
            for flat in rng.choice(w * h, s["pixel_sample"], replace=False):
                i, j = divmod(int(flat), w)
                bounded, _ = green.orbit_bounded(seq, complex(xs[j], ys[i]), s["mem_n"], radius)
                if bounded != (img[i, j] == 0):
                    bad.append((i, j))
            return not bad, f"{len(bad)} of {s['pixel_sample']} pixels disagree with orbit_bounded"
        checks.run("cli_custom.membership_png_vs_orbit_bounded", membership)

        def field_csv():
            _, _, err = results["render_green"]
            radius = self._radius(err)
            lines = (out / "green.csv").read_text().splitlines()
            bad = []
            for k in rng.choice(len(lines) - 1, s["pixel_sample"], replace=False):
                x, y, v = (float(t) for t in lines[int(k) + 1].split(","))
                gv = green.green_nonauto(seq, complex(x, y), s["field_n"], radius)
                if not abs(v - gv.value) <= gv.error_bound:
                    bad.append((x, y, v, gv.value))
            return not bad, f"{len(bad)} of {s['pixel_sample']} CSV values outside error_bound {bad[:2]}"
        checks.run("cli_custom.green_csv_vs_green_nonauto", field_csv)

        def green_json():
            _, text, _ = results["green"]
            doc = json.loads(text)
            radius = self._radius(results["render_membership"][2])
            n = s["green_n"]
            escaped, w = oracle.complex_orbit(_polys(seq, n), state["z"], radius)
            d_prod = math.prod(seq.degree(k) for k in range(1, n + 1))
            want = oracle.disk_green(w, d_prod)
            ok = abs(doc["value"] - want) <= doc["error_bound"] and doc["escaped_at"] == escaped
            return ok, f"got {doc['value']!r} +- {doc['error_bound']:.3g}, oracle {want!r}"
        checks.run("cli_custom.green_json_vs_oracle", green_json)

        def table():
            rows = [line.split(",") for line in results["table"][1].strip().splitlines()[1:]]
            ns = [int(r[0]) for r in rows]
            caps = [float(r[3]) for r in rows]
            gammas = [float(r[2]) for r in rows]
            # every map is monic, so each step-n preimage of the unit disk has capacity 1
            ok = (ns == list(range(1, s["table_n"] + 1)) and all(abs(c - 1) <= 1e-6 for c in caps)
                  and all(math.isfinite(g) and g >= 0 for g in gammas))
            return ok, f"n={ns} cap={caps[:2]}..."
        checks.run("cli_custom.table", table)

        def guided():
            doc = json.loads(results["check"][1])
            return doc["passed"] is True, f"margin {doc['margin']!r}"
        checks.run("cli_custom.check_guided", guided)

    def probes(self, state, outputs):
        return []


WORKLOADS = {w.name: w for w in (Figures(), DeepOrbits(), MetricTable(), CliCustom())}
JOB_NAMES = tuple(job for w in WORKLOADS.values() for job in w.jobs)
