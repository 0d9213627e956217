"""Klimek-metric estimation between model sets and sequence preimage sets.

The metric is the sup-norm distance between Green functions.  Estimates here
are sampled lower bounds over deterministic nets (set boundaries, coarse
interiors, and a rectangular fill of the enclosing disk) with the change
under a 4x refinement reported as the resolution diagnostic; certified upper
bounds would need derivative information the closed forms do not expose
uniformly.  gamma_models asks each set once for its nets at both sizes
(ModelSet.nets), so a preimage set solves one pullback per level.  The
convergence table's capacities are not sampled: each is the closed form
exp(-robin) of the step-n preimage set's exact Robin constant.  Its distances,
and gamma_nonauto's, take each depth's green_field values chunk by chunk from
one orbit pass per annulus net (green._depth_fields) and reduce the sup of
|G_n - G_m| as the chunks pass.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .green import ModelSet, Preimage, _depth_fields, _engine_points, _robin_sums, capacity_of
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
    side = max(4, int(math.isqrt(max(16, m // 2))))
    xs = np.linspace(-radius, radius, side)
    gx, gy = np.meshgrid(xs, xs)
    return (gx + 1j * gy).ravel()


def gamma_models(E: ModelSet, F: ModelSet, m: int = 1024) -> KlimekEstimate:
    """Sampled Klimek distance between two model sets.

    |g_E - g_F| attains its sup on the two compacta (each Green function
    vanishes on its own set), so boundary nets carry the estimate; the fill
    net guards preimage variants whose root nets wobble.  Each set gives its
    nets at both sizes, m and 4m, in one ModelSet.nets call (one pullback
    per Preimage level); each size's sup runs over E's points, F's points
    and the fill net of the enclosing disk.
    """
    sizes = (m, 4 * m)
    radius = max(E.enclosing_radius(), F.enclosing_radius())
    joint = [np.concatenate([e_net, f_net, _fill_net(radius, k)])
             for k, e_net, f_net in zip(sizes, E.nets(sizes), F.nets(sizes))]
    return _distance(joint, *(float(np.max(np.abs(E.green(pts) - F.green(pts)))) for pts in joint))


def _annulus_net(radius: float, m: int) -> np.ndarray:
    rings = max(4, int(math.isqrt(m // 2)))
    per_ring = max(16, m // rings)
    parts = [circle_points(rho, per_ring) for rho in np.linspace(radius / rings, radius, rings)]
    parts.append(_fill_net(radius, m))
    return np.concatenate(parts)


def _distance(nets, lo: float, hi: float) -> KlimekEstimate:
    """sup |G_n - G_m| on the base net (lo), refined by the 4x net (hi): gamma_models' rule too."""
    return KlimekEstimate(max(lo, hi), nets[1].size, abs(hi - lo))


_PASS_DEPTHS = 16  # depths per orbit pass: a chunk's values take 256 KB per depth


def _distances(seq: PolySequence, target: ModelSet, depths, escape_radius: float, samples: int):
    """{n: _distance of G_n, G_m} for each of the increasing depths n but the last, m the
    next, on annulus nets of samples and 4 samples points: one _depth_fields pass per
    net and _PASS_DEPTHS depths, two depths' chunk values held at a time."""
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
    return {n: _distance(nets, *(float(np.max(s)) for s in pair)) for n, pair in sups.items()}


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
    """max over 1 <= n <= n_max of the sampled distance between target and its
    pullback under p_{n+1}; feeds the truncation term of green_nonauto.

    A sampled lower bound on the tail constant, not an upper bound: a
    truncation term built on it rests on a sampled estimate.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    worst = 0.0
    for n in range(1, n_max + 1):
        pre = Preimage(target, seq.get(n + 1))
        worst = max(worst, gamma_models(target, pre, _TAIL_SAMPLES).lower)
    return worst


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
