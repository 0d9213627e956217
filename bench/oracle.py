"""120-digit mpmath references for the scalar engines.

Each function recomputes an orbit or a potential independently of the
package's double and ScaledComplex arithmetic, so a check can compare the
package's value against it within the package's own stated error bound.
mpmath keeps an unbounded exponent, so orbits far outside double range are
carried exactly up to 120 significant digits.
"""
from __future__ import annotations

import math

import mpmath
from mpmath import libmp

DIGITS = 120
_PREC = libmp.dps_to_prec(DIGITS)
mpmath.mp.dps = DIGITS


def _real_horner_parts(coeffs):
    """(parity, coefficients in w**2) of a real polynomial with one parity, else None."""
    if any(c.imag for c in coeffs):
        return None
    nonzero = [j for j, c in enumerate(coeffs) if c]
    parity = (len(coeffs) - 1) % 2
    if any(j % 2 != parity for j in nonzero):
        return None
    return parity, [libmp.from_float(c.real) for c in coeffs[parity::2]]


def real_orbit(polys, x: float, radius: float):
    """Orbit of a real start under real polynomials of fixed parity.

    polys are (coeffs, scale2) pairs for p_1..p_n.  Returns (escaped_at, final
    value as an mpf); escaped_at is the first step with |w| > radius, or None.
    Horner runs in w**2 on the nonzero coefficients, in raw mpf arithmetic,
    because a depth-600 Chebyshev orbit needs about 90,000 multiply-adds.
    """
    mul, add, rnd = libmp.mpf_mul, libmp.mpf_add, libmp.round_nearest
    w = libmp.from_float(float(x))
    r = libmp.from_float(float(radius))
    escaped_at = None
    for k, (coeffs, scale2) in enumerate(polys, start=1):
        parts = _real_horner_parts(coeffs)
        if parts is None:
            raise ValueError(f"p_{k} is not a real polynomial of fixed parity")
        parity, sub = parts
        u = mul(w, w, _PREC, rnd)
        acc = sub[-1]
        for a in reversed(sub[:-1]):
            acc = add(mul(acc, u, _PREC, rnd), a, _PREC, rnd)
        if parity:
            acc = mul(acc, w, _PREC, rnd)
        w = libmp.mpf_shift(acc, scale2)
        if escaped_at is None and libmp.mpf_gt(libmp.mpf_abs(w), r):
            escaped_at = k
    return escaped_at, mpmath.mpf(w)


def complex_orbit(polys, z: complex, radius: float):
    """Orbit of any start under any polynomials by plain mpc Horner.

    Returns (escaped_at, final value as an mpc).  Cost grows with the sum of
    the degrees, so this is for low degrees or short orbits.
    """
    w = mpmath.mpc(z)
    escaped_at = None
    for k, (coeffs, scale2) in enumerate(polys, start=1):
        acc = mpmath.mpc(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * w + mpmath.mpc(c)
        w = mpmath.ldexp(acc.real, scale2) + 1j * mpmath.ldexp(acc.imag, scale2)
        if escaped_at is None and abs(w) > radius:
            escaped_at = k
    return escaped_at, w


def disk_green(w, degree_product: int) -> float:
    """(1/D) log+ |w|: the unit-disk potential pulled back through degree D."""
    a = abs(w)
    if a <= 1:
        return 0.0
    return float(mpmath.log(a) / degree_product)


def chebyshev_composite(z: complex, depth: int, radius: float):
    """Classical Chebyshev T_n o ... o T_1 = T_{n!} in closed form.

    Returns (escaped_at, unit-disk potential of the depth-n orbit).  Uses
    T_m(cosh t) = cosh(m t), valid for every complex t, so step k of the orbit
    is cosh(k! t) with t = acosh(z).
    """
    t = mpmath.acosh(mpmath.mpc(z))
    escaped_at = None
    m = 1
    for k in range(1, depth + 1):
        m *= k
        if escaped_at is None and abs(mpmath.cosh(m * t)) > radius:
            escaped_at = k
    return escaped_at, disk_green(mpmath.cosh(m * t), m)


def log_factorial(n: int) -> float:
    return float(mpmath.loggamma(n + 1))


def close(got: float, want: float, tol: float) -> bool:
    """|got - want| <= tol * max(1, |want|)."""
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))
