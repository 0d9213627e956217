"""Klimek-metric estimation between model sets and sequence preimage sets.

The metric is the sup-norm distance between Green functions.  Estimates here
are sampled lower bounds over deterministic nets (set boundaries, coarse
interiors, and a rectangular fill of the enclosing disk) with the change
under a 4x refinement reported as the resolution diagnostic; certified upper
bounds would need derivative information the closed forms do not expose
uniformly.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .green import (ModelSet, Preimage, UNIT_DISK, capacity_estimate,
                    green_field)
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


def _joint_net(E: ModelSet, F: ModelSet, m: int) -> np.ndarray:
    radius = max(E.enclosing_radius(), F.enclosing_radius())
    parts = [E.boundary_net(m), F.boundary_net(m),
             E.interior_net(m), F.interior_net(m),
             _fill_net(radius, m)]
    return np.concatenate([p for p in parts if p.size])


def _sup_diff(E: ModelSet, F: ModelSet, m: int) -> tuple[float, int]:
    pts = _joint_net(E, F, m)
    diff = np.abs(np.asarray(E.green(pts), float) - np.asarray(F.green(pts), float))
    return float(diff.max()), pts.size


def gamma_models(E: ModelSet, F: ModelSet, m: int = 1024) -> KlimekEstimate:
    """Sampled Klimek distance between two model sets.

    |g_E - g_F| attains its sup on the two compacta (each Green function
    vanishes on its own set), so boundary nets carry the estimate; the fill
    net guards preimage variants whose root nets wobble.
    """
    coarse, _ = _sup_diff(E, F, m)
    fine, n_fine = _sup_diff(E, F, 4 * m)
    return KlimekEstimate(max(coarse, fine), n_fine, abs(fine - coarse))


def _annulus_net(radius: float, m: int) -> np.ndarray:
    rings = max(4, int(math.isqrt(m // 2)))
    per_ring = max(16, m // rings)
    parts = [circle_points(rho, per_ring) for rho in np.linspace(radius / rings, radius, rings)]
    parts.append(_fill_net(radius, m))
    return np.concatenate(parts)


def gamma_nonauto(seq: PolySequence, target: ModelSet, n: int, m: int,
                  escape_radius: float | None = None, samples: int = 2048) -> KlimekEstimate:
    """Sampled distance between the step-n and step-m preimage sets of `target`.

    Both potentials are the normalized escape rates of the same orbit, so the
    net only needs to cover a disk containing both sets (the escape disk).
    """
    if n > m:
        raise ValueError("need n <= m")
    if n == m:
        return KlimekEstimate(0.0, 0, 0.0)
    if escape_radius is None:
        escape_radius = escape_radius_search(seq, m)
    base = _annulus_net(1.25 * escape_radius, samples)
    fine = _annulus_net(1.25 * escape_radius, 4 * samples)
    lo = float(np.max(np.abs(green_field(seq, base, n, escape_radius, target)[0]
                             - green_field(seq, base, m, escape_radius, target)[0])))
    hi = float(np.max(np.abs(green_field(seq, fine, n, escape_radius, target)[0]
                             - green_field(seq, fine, m, escape_radius, target)[0])))
    return KlimekEstimate(max(lo, hi), fine.size, abs(hi - lo))


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
    cap: float | None   # capacity estimate of the step-n preimage set
    cap_spread: float | None


def convergence_table(seq: PolySequence, target: ModelSet, n_list: Sequence[int],
                      escape_radius: float | None = None, samples: int = 1024,
                      with_capacity: bool = True) -> list[TableRow]:
    """Per-step diagnostics: degree ledger, successive distances, capacities."""
    ns = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be increasing")
    if not ns:
        raise ValueError("n_list must be non-empty")
    if escape_radius is None:
        escape_radius = escape_radius_search(seq, max(ns) + 1)
    probes = tuple(f * escape_radius for f in (2.0, 4.0, 8.0))
    rows = []
    for n in ns:
        led = seq.ledger(n)
        gam = gamma_nonauto(seq, target, n, n + 1,
                            escape_radius=escape_radius, samples=samples)
        if with_capacity:
            est = capacity_estimate(
                lambda pts: green_field(seq, pts, n, escape_radius, target)[0], probes)
            rows.append(TableRow(n, led.log_d, gam.lower, est.value, est.spread))
        else:
            rows.append(TableRow(n, led.log_d, gam.lower, None, None))
    return rows


def table_to_csv(rows: Sequence[TableRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "logD", "gamma", "cap"])
    for row in rows:
        cap = "" if row.cap is None else repr(row.cap)
        writer.writerow([row.n, repr(row.log_d), repr(row.gamma), cap])
    return buf.getvalue()
