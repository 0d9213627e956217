"""Command-line interface: sequences, checks, potentials, metrics, rendering.

Exit codes: 0 success, 1 I/O failure, 2 validation failure, 3 check failure
(a failed checker, or no verified escape radius for the sequence).
All subcommands are deterministic for identical flags; nets are deterministic
by construction.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import klimek, render
from .green import Disk, Ellipse, ModelSet, Segment, green_nonauto
from .sequences import (BUILTIN_KINDS, CheckReport, PolySequence, SequenceError,
                        builtin, check_finite_condition, check_guided, check_P2,
                        escape_radius_search, load_sequence_file)

SEQUENCE_NAMES = sorted(k.replace("_", "-") for k in BUILTIN_KINDS)


class CheckFailure(Exception):
    """A requested verification did not pass (exit code 3)."""


def parse_sequence(text: str) -> PolySequence:
    name, _, arg = text.partition(":")
    if name == "custom":
        if not arg:
            raise ValueError("custom sequence needs a JSON path: custom:specs.json")
        return load_sequence_file(arg)
    kind = name.replace("-", "_")
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown sequence {name!r}; choose from {', '.join(SEQUENCE_NAMES)} or custom:FILE")
    degrees = None
    if arg:
        parts = [int(p) for p in arg.split(",")]
        degrees = parts[0] if len(parts) == 1 else parts
    return builtin(kind, degrees=degrees)


def parse_model(text: str) -> ModelSet:
    name, _, arg = text.partition(":")
    if name == "segment":
        return Segment()
    if name == "disk":
        parts = [float(p) for p in arg.split(",")] if arg else [0.0, 1.0]
        if len(parts) == 2:
            return Disk(complex(parts[0], 0.0), parts[1])
        if len(parts) == 3:
            return Disk(complex(parts[0], parts[1]), parts[2])
        raise ValueError("disk syntax: disk:center,radius or disk:re,im,radius")
    if name == "ellipse":
        if not arg:
            raise ValueError("ellipse syntax: ellipse:R with R > 1")
        return Ellipse(float(arg))
    raise ValueError(f"unknown model {name!r}; choose disk:a,R | segment | ellipse:R")


def parse_z(text: str) -> complex:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise ValueError("point syntax: re or re,im")


def _resolve_radius(seq: PolySequence, requested: float | None, n_max: int) -> float:
    if requested is not None:
        return requested
    try:
        return escape_radius_search(seq, max(2, n_max))
    except SequenceError as exc:
        raise CheckFailure(str(exc)) from exc


def _report_json(report: CheckReport, extra: dict) -> str:
    doc = {
        "passed": report.passed,
        "margin": report.margin,
        "n_range": list(report.n_range),
        "witness": None,
        "note": report.note,
    }
    if report.sup is not None:
        doc["sup"] = report.sup
    if report.witness is not None:
        w = report.witness
        doc["witness"] = {
            "n": w.n,
            "point": None if w.point is None else [w.point.real, w.point.imag],
            "value": w.value,
        }
    doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def cmd_render(args) -> int:
    seq = parse_sequence(args.seq)
    x0, x1, y0, y1 = (float(v) for v in args.window.split(","))
    w, _, h = args.size.partition("x")
    radius = _resolve_radius(seq, args.radius, args.n)
    spec = render.RasterSpec(x0, x1, y0, y1, int(w), int(h), args.n, radius)
    threads = args.threads
    if args.mode == "membership":
        raster = render.raster_membership(seq, spec, threads=threads)
    else:
        raster = render.raster_green(seq, spec, threads=threads)
    ledger = seq.ledger(args.n)
    print(f"escape radius: {radius!r}", file=sys.stderr)
    print(f"degrees: n={ledger.n} logD={ledger.log_d!r} D={ledger.d_exact}", file=sys.stderr)
    writer = {"pgm": render.write_pgm, "png": render.write_png, "csv": render.write_csv}[args.format]
    writer(raster, args.out)
    print(args.out)
    return 0


# check's per-checker flags: (default, the --which choices that read it)
_CHECK_FLAGS = {"R": (2.0, ("guided",)), "A": (1.0, ("p2",)), "center": ("0", ("finite",)),
                "disk_radius": (2.0, ("finite",)), "m": (1024, ("guided", "finite", "escape"))}


def cmd_check(args) -> int:
    given = {k: getattr(args, k) for k in _CHECK_FLAGS if getattr(args, k) is not None}
    unused = [f"--{k.replace('_', '-')}" for k in given if args.which not in _CHECK_FLAGS[k][1]]
    if unused:
        raise ValueError(f"--which {args.which} does not take {', '.join(unused)}")
    opt = {k: default for k, (default, _) in _CHECK_FLAGS.items()} | given
    seq = parse_sequence(args.seq)
    extra = {"sequence": args.seq, "which": args.which}
    if args.which == "guided":
        report = check_guided(seq, opt["R"], args.n_max, m=opt["m"])
    elif args.which == "p2":
        report = check_P2(seq, opt["A"], args.n_max)
    elif args.which == "finite":
        center = parse_z(opt["center"])
        report = check_finite_condition(seq, center, opt["disk_radius"], args.n_max, m=opt["m"])
    else:  # escape
        try:
            radius = escape_radius_search(seq, args.n_max, m=opt["m"])
        except SequenceError as exc:
            print(json.dumps({"passed": False, "which": "escape", "error": str(exc)},
                             sort_keys=True))
            return 3
        print(json.dumps({"passed": True, "which": "escape", "radius": radius},
                         sort_keys=True))
        return 0
    print(_report_json(report, extra))
    return 0 if report.passed else 3


def cmd_table(args) -> int:
    seq = parse_sequence(args.seq)
    target = parse_model(args.E)
    n_list = [int(v) for v in args.n_list.split(",")]
    radius = _resolve_radius(seq, args.radius, max(n_list) + 1)
    rows = klimek.convergence_table(seq, target, n_list, escape_radius=radius,
                                    samples=args.samples)
    # sampled to the depth the table builds, which a finite custom sequence covers
    if not check_finite_condition(seq, 0j, 2.0, max(n_list) + 1).passed:
        print("warning: normalized potentials look unbounded on disk(0,2); "
              "the limit set need not be regular", file=sys.stderr)
    text = klimek.table_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def cmd_green(args) -> int:
    if (args.model is None) == (args.seq is None):
        raise ValueError("need exactly one of --model and --seq")
    z = parse_z(args.z)
    if args.model is not None:
        unused = [flag for flag, v in (("--n", args.n), ("--radius", args.radius),
                                       ("--tail-bound", args.tail_bound)) if v is not None]
        if unused:
            raise ValueError(f"only --seq takes {', '.join(unused)}")
        value = parse_model(args.model).green(z)
        if args.json:
            print(json.dumps({"value": value, "z": [z.real, z.imag]}, sort_keys=True))
        else:
            print(f"{value:.6f}")
        return 0
    seq = parse_sequence(args.seq)
    n = 64 if args.n is None else args.n
    radius = _resolve_radius(seq, args.radius, n)
    gv = green_nonauto(seq, z, n, radius, tail_bound=args.tail_bound)
    if args.json:
        print(json.dumps({
            "value": gv.value,  # JSON has no inf: an absent bound is null
            "error_bound": gv.error_bound if math.isfinite(gv.error_bound) else None,
            "escaped_at": gv.escaped_at, "n": gv.ledger.n,
            "truncation_included": gv.truncation_included,
        }, sort_keys=True))
    else:
        print(f"{gv.value:.6f} (error bound {gv.error_bound:.3e}"
              f"{'' if gv.truncation_included else ', truncation excluded'})")
    return 0


def cmd_gamma(args) -> int:
    est = klimek.gamma_models(parse_model(args.a), parse_model(args.b), m=args.m)
    if args.json:
        print(json.dumps({"lower": est.lower, "samples": est.samples,
                          "refine_delta": est.refine_delta}, sort_keys=True))
    else:
        print(f"{est.lower:.6f}")
    return 0


def cmd_capacity(args) -> int:
    model = parse_model(args.model)
    if args.json:
        print(json.dumps({"value": model.capacity(), "gamma": model.robin()}, sort_keys=True))
    else:
        print(f"{model.capacity():.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonauto",
        description="Non-autonomous polynomial iteration: filled Julia sets, Green "
                    "potentials, capacities, Klimek-metric diagnostics.",
        epilog="Sequences: " + ", ".join(SEQUENCE_NAMES)
               + ", custom:FILE.json. Models: disk:a,R | segment | ellipse:R.")
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads for rasters (0 = auto)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="rasterize membership or potential fields")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, default=64, help="composition depth")
    p.add_argument("--window", default="-1.5,1.5,-1,1", help="x0,x1,y0,y1")
    p.add_argument("--size", default="900x600", help="WIDTHxHEIGHT")
    p.add_argument("--mode", choices=("membership", "green"), default="membership")
    p.add_argument("--radius", type=float, default=None,
                   help="escape radius (default: verified search result)")
    p.add_argument("--format", choices=("pgm", "png", "csv"), default="png")
    p.add_argument("--out", default="raster.png")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("check", help="run a sequence checker, report JSON")
    p.add_argument("--seq", required=True)
    p.add_argument("--which", choices=("guided", "p2", "finite", "escape"), required=True)
    p.add_argument("--R", type=float, help="disk radius for guided (default 2)")
    p.add_argument("--A", type=float, help="coefficient bound for p2 (default 1)")
    p.add_argument("--center", help="disk center for finite (default 0)")
    p.add_argument("--disk-radius", type=float, help="disk radius for finite (default 2)")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--m", type=int, help="samples per circle or grid, not for p2 (default 1024)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", help="convergence table (CSV: n,logD,gamma,cap)")
    p.add_argument("--seq", required=True)
    p.add_argument("--E", default="disk:0,1", help="target model set")
    p.add_argument("--n-list", default="1,2,3,4,5,6,7,8")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("green", help="evaluate a potential at a point")
    p.add_argument("--model", default=None)
    p.add_argument("--seq", default=None)
    p.add_argument("--z", required=True, help="re or re,im")
    p.add_argument("--n", type=int, default=None, help="composition depth for --seq (default 64)")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--tail-bound", type=float, default=None,
                   help="tail constant enabling the truncation term; a value from "
                        "tail_constant is a sampled lower bound, so the term then "
                        "rests on a sampled estimate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("gamma", help="sampled Klimek distance between two model sets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("capacity", help="logarithmic capacity of a model set, from its closed form")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_capacity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except (SequenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
