"""Adaptive quadrature and integral-identity checks.

Evaluates both sides of the change-of-variables identities produced by
``build_integrands``: an x-side integral of a weight composed with R
against 1/sqrt(U) (or 1/(R' U) in the rational form) and a q-side
integral of the same weight against 1/sqrt(D) (or 1/D).  Radical
integrands are evaluated through their gcd-reduced squares so removable
0/0 points, such as s = 0 when R'(0) = 0, cause no trouble.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..derive import IntegrandSpec
from ..errors import QuadratureError, SingularIntegrandError

__all__ = [
    "quad",
    "lhs_integrand",
    "rhs_integrand",
    "IdentityReport",
    "check_identity",
    "invert_phi",
]


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
             m: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise SingularIntegrandError(f"integrand not finite near [{a}, {b}]")
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth >= 40:
        return left + right + err / 15.0
    half = 0.5 * tol
    return (_adapt(f, a, fa, m, fm, lm, flm, left, half, depth + 1)
            + _adapt(f, m, fm, b, fb, rm, frm, right, half, depth + 1))


def quad(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson integral of f over [a, b].

    The error target is tol * (1 + |result|).  Endpoints where f is not
    finite are nudged inward by a relative 1e-12; a non-finite value in
    the interior raises SingularIntegrandError.
    """
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError("infinite interval")
    span = b - a
    fa = f(a)
    if not math.isfinite(fa):
        fa = f(a + 1e-12 * span)
    fb = f(b)
    if not math.isfinite(fb):
        fb = f(b - 1e-12 * span)
    m = 0.5 * (a + b)
    fm = f(m)
    if not (math.isfinite(fa) and math.isfinite(fb) and math.isfinite(fm)):
        raise SingularIntegrandError("integrand not finite at the endpoints")
    crude = abs(span) * (abs(fa) + abs(fm) + abs(fb)) / 3.0
    whole = _simpson(f, a, fa, b, fb, m, fm)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol * (1.0 + crude), 0)


def _sqrt_of_reduced(num, den, sign_poly):
    """Evaluator for sign(sign_poly) * sqrt(num/den) with num, den coprime.

    num and den are the reduced squares of the original integrand, so a
    common zero has been cancelled exactly and any remaining zero of den
    is a genuine singularity, reported as inf so ``quad`` can step off an
    endpoint there.
    """
    nc = num.float_coeffs()
    dc = den.float_coeffs()
    sc = sign_poly

    def ev(t: float) -> float:
        n = 0.0
        for c in reversed(nc):
            n = n * t + c
        d = 0.0
        for c in reversed(dc):
            d = d * t + c
        if d == 0.0:
            return math.inf
        ratio = n / d
        if ratio < 0:
            return math.nan
        s = sc(t)
        if s == 0.0:
            s = 1.0
        return math.copysign(math.sqrt(ratio), s)

    return ev


def lhs_integrand(spec: IntegrandSpec) -> Callable[[float], float]:
    """The x-side integrand as a plain float function of s."""
    if spec.radical:
        num, den = spec.lhs_sq
        wc = spec.weight.float_coeffs()
        rc = spec.problem.R.float_coeffs()
        rpc = spec.problem.rprime().float_coeffs()

        def signp(s: float) -> float:
            r = 0.0
            for c in reversed(rc):
                r = r * s + c
            w = 0.0
            for c in reversed(wc):
                w = w * r + c
            if spec.remark2:
                rp = 0.0
                for c in reversed(rpc):
                    rp = rp * s + c
                return w * rp
            return w * spec.sign_rp0

        return _sqrt_of_reduced(num, den, signp)
    # lhs_num is already the composition weight(R(s)); evaluate directly
    ncf = spec.lhs_num.float_coeffs()
    dcf = spec.lhs_den.float_coeffs()

    def ev(s: float) -> float:
        n = 0.0
        for c in reversed(ncf):
            n = n * s + c
        d = 0.0
        for c in reversed(dcf):
            d = d * s + c
        return n / d

    return ev


def rhs_integrand(spec: IntegrandSpec) -> Callable[[float], float]:
    """The q-side integrand as a plain float function of t."""
    if spec.radical:
        num, den = spec.rhs_sq
        wc = spec.weight.float_coeffs()

        def signp(t: float) -> float:
            w = 0.0
            for c in reversed(wc):
                w = w * t + c
            return w

        return _sqrt_of_reduced(num, den, signp)
    ncf = spec.rhs_num.float_coeffs()
    dcf = spec.rhs_den.float_coeffs()

    def ev(t: float) -> float:
        n = 0.0
        for c in reversed(ncf):
            n = n * t + c
        d = 0.0
        for c in reversed(dcf):
            d = d * t + c
        return n / d

    return ev


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    diff: float
    x: float
    q: float


def check_identity(spec: IntegrandSpec, x: float, q: float,
                   tol: float = 1e-12) -> IdentityReport:
    """Compare the x-side and q-side integrals at a matched pair (x, q).

    The caller supplies x with R(x) = q on the branch through 0; both
    integrals then measure the same quantity and should agree up to
    quadrature error.
    """
    lhs = quad(lhs_integrand(spec), 0.0, x, tol)
    rhs = quad(rhs_integrand(spec), 0.0, q, tol)
    return IdentityReport(lhs=lhs, rhs=rhs, diff=lhs - rhs, x=x, q=q)


def invert_phi(spec: IntegrandSpec, target: float, bracket: tuple[float, float],
               tol: float = 1e-12) -> float:
    """Solve phi(x) = target for x, where phi is the x-side integral from 0.

    phi is monotone wherever the integrand keeps one sign, which holds on
    any branch segment; plain bisection on the bracket is enough.
    """
    f = lhs_integrand(spec)
    a, b = bracket

    def phi(x: float) -> float:
        return quad(f, 0.0, x, tol) - target

    fa = phi(a)
    fb = phi(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise QuadratureError("bracket does not straddle the target")
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = phi(mid)
        if fm == 0.0 or (b - a) < 1e-14 * (1.0 + abs(mid)):
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)
