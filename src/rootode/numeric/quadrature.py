"""Adaptive quadrature and integral-identity checks.

Evaluates both sides of the change-of-variables identities produced by
``build_integrands``: an x-side integral of a weight composed with R
against 1/sqrt(U) (or 1/(R' U) in the rational form) and a q-side
integral of the same weight against 1/sqrt(D) (or 1/D).  Radical
integrands are evaluated through their gcd-reduced squares so removable
0/0 points, such as s = 0 when R'(0) = 0, cause no trouble.  A budget
of ``MAX_EVALS`` integrand evaluations per ``quad`` call turns a pole
just off the path into a QuadratureError instead of minutes of work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..algebra import UPoly, _horner
from ..derive import IntegrandSpec
from ..errors import QuadratureError, SingularIntegrandError

__all__ = [
    "quad",
    "lhs_integrand",
    "rhs_integrand",
    "IdentityReport",
    "check_identity",
]

# a converging identity check takes under 10,000 per integral
MAX_EVALS = 100_000
# relative error target of every integral
QUAD_TOL = 1e-12


def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson integral of f over [a, b].

    The error target is QUAD_TOL * (1 + |result|), and the recursion stops at
    depth 40.  Endpoints where f is not finite are nudged inward by a
    relative 1e-12; a non-finite value in the interior raises
    SingularIntegrandError.  The recursion raises QuadratureError once it
    has evaluated f MAX_EVALS times.
    """
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError("infinite interval")
    evals = 0

    def adapt(a, fa, b, fb, m, fm, whole, tol, depth):
        nonlocal evals
        evals += 2
        if evals > MAX_EVALS:
            raise QuadratureError(f"no convergence within {MAX_EVALS} integrand evaluations")
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        if not (math.isfinite(flm) and math.isfinite(frm)):
            raise SingularIntegrandError(f"integrand not finite near [{a}, {b}]")
        left = _simpson(a, m, fa, flm, fm)
        right = _simpson(m, b, fm, frm, fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol or depth >= 40:
            return left + right + err / 15.0
        half = 0.5 * tol
        return (adapt(a, fa, m, fm, lm, flm, left, half, depth + 1)
                + adapt(m, fm, b, fb, rm, frm, right, half, depth + 1))

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
    whole = _simpson(a, b, fa, fm, fb)
    return adapt(a, fa, b, fb, m, fm, whole, QUAD_TOL * (1.0 + crude), 0)


def _ratio(num: UPoly, den: UPoly) -> Callable[[float], float]:
    nc = num.float_coeffs()
    dc = den.float_coeffs()
    return lambda t: _horner(nc, t) / _horner(dc, t)


def _sqrt_of_reduced(num, den, sign_poly):
    """Evaluator for sign(sign_poly) * sqrt(num/den) with num, den coprime.

    num and den are the reduced squares of the original integrand, so a
    common zero has been cancelled exactly and any remaining zero of den
    is a genuine singularity, reported as inf so ``quad`` can step off an
    endpoint there.
    """
    nc = num.float_coeffs()
    dc = den.float_coeffs()

    def ev(t: float) -> float:
        d = _horner(dc, t)
        if d == 0.0:
            return math.inf
        ratio = _horner(nc, t) / d
        if ratio < 0:
            return math.nan
        s = sign_poly(t)
        if s == 0.0:
            s = 1.0
        return math.copysign(math.sqrt(ratio), s)

    return ev


def lhs_integrand(spec: IntegrandSpec) -> Callable[[float], float]:
    """The x-side integrand as a plain float function of s."""
    if not spec.radical:
        # lhs_num is already the composition weight(R(s))
        return _ratio(spec.lhs_num, spec.lhs_den)
    wc = spec.weight.float_coeffs()
    rc = spec.problem.R.float_coeffs()
    rpc = spec.problem.rprime().float_coeffs()

    def signp(s: float) -> float:
        w = _horner(wc, _horner(rc, s))
        if spec.remark2:
            return w * _horner(rpc, s)
        return w * spec.sign_rp0

    return _sqrt_of_reduced(*spec.lhs_sq, signp)


def rhs_integrand(spec: IntegrandSpec) -> Callable[[float], float]:
    """The q-side integrand as a plain float function of t."""
    if not spec.radical:
        return _ratio(spec.rhs_num, spec.rhs_den)
    wc = spec.weight.float_coeffs()
    return _sqrt_of_reduced(*spec.rhs_sq, lambda t: _horner(wc, t))


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    diff: float
    x: float
    q: float


def check_identity(spec: IntegrandSpec, x: float, q: float) -> IdentityReport:
    """Compare the x-side and q-side integrals at a matched pair (x, q).

    The caller supplies x with R(x) = q on the branch through 0; both
    integrals then measure the same quantity and should agree up to
    quadrature error.
    """
    lhs = quad(lhs_integrand(spec), 0.0, x)
    rhs = quad(rhs_integrand(spec), 0.0, q)
    return IdentityReport(lhs=lhs, rhs=rhs, diff=lhs - rhs, x=x, q=q)
