"""Klimek-metric estimation between model sets and sequence preimage sets.

The metric is the sup-norm distance between Green functions.  Estimates here
are sampled lower bounds over deterministic nets (set boundaries, coarse
interiors, and a rectangular fill of the enclosing disk) with the change
under a 4x refinement reported as the resolution diagnostic; certified upper
bounds would need derivative information the closed forms do not expose
uniformly.  gamma_models asks each set once for its nets at both sizes
(ModelSet.nets), so a preimage set solves one pullback per level, and runs
each set's green once over both; tail_constant stacks every step n in one such
pass (_tail_gammas).  The convergence table's capacities are not sampled: each
is the closed form exp(-robin) of the step-n preimage set's exact Robin
constant.  Its distances, and gamma_nonauto's, take each depth's green_field
values chunk by chunk from one orbit pass per annulus net (green._depth_fields)
and reduce the sup of |G_n - G_m| as the chunks pass.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .green import (ModelSet, Preimage, _depth_fields, _engine_points, _pullbacks, _robin_sums,
                    capacity_of)
from .poly import Polynomial
from .sequences import PolySequence, circle_points, escape_radius_search


@dataclass(frozen=True)
class KlimekEstimate:
    lower: float          # sampled sup of |g_E - g_F|
    samples: int
    refine_delta: float   # change under a 4x denser net

    def __post_init__(self):
        if self.lower < 0 or self.refine_delta < 0:
            raise ValueError("estimate fields must be non-negative")


def _fill_net(radius: float, m: int) -> np.ndarray:
    if not math.isfinite(2.0 * radius):  # linspace's span overflows
        raise ValueError(f"enclosing radius {radius!r} is too large for the fill net")
    side = max(4, int(math.isqrt(max(16, m // 2))))
    xs = np.linspace(-radius, radius, side)
    return (xs + 1j * xs[:, None]).ravel()


def gamma_models(E: ModelSet, F: ModelSet, m: int = 1024) -> KlimekEstimate:
    """Sampled Klimek distance between two model sets.

    |g_E - g_F| attains its sup on the two compacta (each Green function
    vanishes on its own set), so boundary nets carry the estimate; the fill
    net guards preimage variants whose root nets wobble.  Each set gives its
    nets at both sizes, m and 4m, in one ModelSet.nets call (one pullback
    per Preimage level); each size's sup runs over E's points, F's points
    and the fill net of the enclosing disk (_gammas).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _gammas(E, [F], (m, 4 * m), E.nets((m, 4 * m)), [F.nets((m, 4 * m))])[0]


def _gammas(E: ModelSet, Fs, sizes, e_nets, f_nets) -> list[KlimekEstimate]:
    """gamma_models(E, F) for each F of Fs, given every set's nets at both sizes: one array
    of every point, E.green once over it, each F.green once over its own two sizes."""
    radii = [max(E.enclosing_radius(), F.enclosing_radius()) for F in Fs]
    joints = [[e, f, _fill_net(r, k)] for r, nets in zip(radii, f_nets)
              for k, e, f in zip(sizes, e_nets, nets)]
    pts = np.concatenate([part for joint in joints for part in joint])
    at = np.cumsum([0] + [sum(part.size for part in joint) for joint in joints]).tolist()
    gaps = E.green(pts)
    for F, a, b in zip(Fs, at[::2], at[2::2]):
        gaps[a:b] -= F.green(pts[a:b])
    sups = np.maximum.reduceat(np.abs(gaps, out=gaps), at[:-1]).tolist()
    return [_distance(at[i + 2] - at[i + 1], *sups[i:i + 2]) for i in range(0, len(sups), 2)]


def _annulus_net(radius: float, m: int) -> np.ndarray:
    rings = max(4, int(math.isqrt(m // 2)))
    per_ring = max(16, m // rings)
    unit = circle_points(1.0, per_ring)
    parts = [rho * unit for rho in np.linspace(radius / rings, radius, rings)]
    parts.append(_fill_net(radius, m))
    return np.concatenate(parts)


def _distance(samples: int, lo: float, hi: float) -> KlimekEstimate:
    """sup |G_n - G_m| on the base net (lo), refined by the 4x net (hi): gamma_models' rule too."""
    return KlimekEstimate(max(lo, hi), samples, abs(hi - lo))


_PASS_DEPTHS = 16  # depths per orbit pass: a chunk's values take 256 KB per depth


def _distances(seq: PolySequence, target: ModelSet, depths, escape_radius: float, samples: int):
    """{n: _distance of G_n, G_m} for each of the increasing depths n but the last, m the
    next, on annulus nets of samples and 4 samples points: one _depth_fields pass per
    net and _PASS_DEPTHS depths, two depths' chunk values held at a time."""
    if not math.isfinite(2.5 * escape_radius):  # the fill net spans [-1.25 r, 1.25 r]
        raise ValueError(f"escape radius {escape_radius!r} is too large for the annulus net")
    nets = [_annulus_net(1.25 * escape_radius, k * samples) for k in (1, 4)]
    sups = {n: ([], []) for n in depths[:-1]}
    for j, net in enumerate(nets):
        pts, _, log2_r = _engine_points(net, depths[0], escape_radius)
        for lo in range(0, len(depths) - 1, _PASS_DEPTHS - 1):
            part = depths[lo:lo + _PASS_DEPTHS]
            for _, n, vals, _, _ in _depth_fields(seq, pts, part, escape_radius, log2_r, target):
                if n != part[0]:
                    sups[prev_n][j].append(np.max(np.abs(prev - vals)))
                prev_n, prev = n, vals
    return {n: _distance(nets[1].size, *map(float, map(np.max, s))) for n, s in sups.items()}


def gamma_nonauto(seq: PolySequence, target: ModelSet, n: int, m: int,
                  escape_radius: float | None = None, samples: int = 2048) -> KlimekEstimate:
    """Sampled distance between the step-n and step-m preimage sets of `target`.

    Both potentials are the normalized escape rates of the same orbit, so the
    net only needs to cover a disk containing both sets (the escape disk), and
    one orbit pass of m steps per net gives both (_distances).
    """
    if n > m:
        raise ValueError("need n <= m")
    if escape_radius is None:
        escape_radius = escape_radius_search(seq, max(2, m))
    _engine_points(0j, n, escape_radius)  # the drivers' input check, n == m too
    if n == m:
        return KlimekEstimate(0.0, 0, 0.0)
    return _distances(seq, target, [n, m], escape_radius, samples)[n]


_TAIL_SAMPLES = 256  # the m of tail_constant's gamma_models nets


def tail_constant(seq: PolySequence, target: ModelSet, n_max: int) -> float:
    """max over 1 <= n <= n_max of gamma_models(target, its pullback under p_{n+1}),
    every n in one stacked pass (_tail_gammas); feeds green_nonauto's truncation term.

    A sampled lower bound on the tail constant, not an upper bound: a
    truncation term built on it rests on a sampled estimate.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return max(0.0, *_tail_gammas(seq, target, n_max))


def _tail_gammas(seq: PolySequence, target: ModelSet, n_max: int) -> list[float]:
    """gamma_models(target, Preimage(target, p_{n+1}), _TAIL_SAMPLES).lower, 1 <= n <= n_max,
    bit for bit: target's nets once per distinct size, then one _pullbacks and one _gammas."""
    sizes = (_TAIL_SAMPLES, 4 * _TAIL_SAMPLES)
    pres = [Preimage(target, seq.get(n + 1)) for n in range(1, n_max + 1)]
    asks = [[max(8, m // pre.poly.degree) for m in sizes] for pre in pres]  # as Preimage.nets
    keys = sorted({*sizes, *(k for ask in asks for k in ask)})
    nets = dict(zip(keys, target.nets(keys)))
    zs = _pullbacks(pres, [np.concatenate([nets[k] for k in ask]) for ask in asks])
    f_nets = [np.split(z, [p.poly.degree * nets[ask[0]].size]) for p, ask, z in zip(pres, asks, zs)]
    return [est.lower for est in _gammas(target, pres, sizes, [nets[k] for k in sizes], f_nets)]


class ContractionResult(NamedTuple):
    ratio: float
    slack: float


def contraction_check(P: Polynomial, E: ModelSet, F: ModelSet, m: int = 1024) -> ContractionResult:
    """Sampled contraction ratio of the pullback K -> P^{-1}(K).

    ratio should not exceed 1/deg P beyond the reported sampling slack.
    """
    if P.degree < 2:
        raise ValueError("contraction needs deg P >= 2")
    base = gamma_models(E, F, m)
    if base.lower <= 1e-15:
        raise ValueError("distance between E and F is zero; ratio undefined")
    pulled = gamma_models(Preimage(E, P), Preimage(F, P), m)
    ratio = pulled.lower / base.lower
    slack = (pulled.refine_delta + ratio * base.refine_delta) / base.lower
    return ContractionResult(ratio, slack)


@dataclass(frozen=True)
class TableRow:
    n: int
    log_d: float
    gamma: float        # sampled distance between steps n and n+1
    cap: float          # exact capacity of the step-n preimage set
    cap_spread: float = 0.0  # read by bench/workloads.py; cap is exact


def convergence_table(seq: PolySequence, target: ModelSet, n_list: Sequence[int],
                      escape_radius: float | None = None, samples: int = 1024) -> list[TableRow]:
    """Per-step diagnostics: degree ledger, successive distances, capacities.  cap is
    exp(-(S_n + robin_E / D_n)) from _robin_sums, the constant green_field adds.
    gamma is gamma_nonauto(n, n + 1).lower, from one orbit pass per net through
    every depth n and n + 1 (_distances), not one per depth."""
    ns = [int(n) for n in n_list]
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be increasing")
    if not ns:
        raise ValueError("n_list must be non-empty")
    if escape_radius is None:
        escape_radius = escape_radius_search(seq, max(ns) + 1)
    _engine_points(0j, ns[0], escape_radius)  # before any field, as gamma_nonauto
    depths = sorted({k for n in ns for k in (n, n + 1)})
    gaps = _distances(seq, target, depths, escape_radius, samples)
    inv_d, s = _robin_sums([seq.get(k) for k in range(1, ns[-1] + 1)])
    return [TableRow(n, seq.ledger(n).log_d, gaps[n].lower,
                     capacity_of(s[n] + target.robin() * inv_d[n])) for n in ns]


def table_to_csv(rows: Sequence[TableRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "logD", "gamma", "cap"])
    for row in rows:
        writer.writerow([row.n, repr(row.log_d), repr(row.gamma), repr(row.cap)])
    return buf.getvalue()
