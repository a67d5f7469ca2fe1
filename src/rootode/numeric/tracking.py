"""Numeric continuation of the root branch along its first-order equation.

Integrates x' = W(x, q)/D(q) from (0, 0) with an embedded Cash-Karp 4(5)
pair and polishes each accepted step with Newton on R(x) - q, so the
result carries full Newton accuracy while the integration supplies branch
selection and starting points.  Branch points are located beforehand from
the real roots of D, and targets at or beyond the first one are refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..algebra import UPoly, poly_gcd
from ..derive import ProblemSpec, abel_ode
from ..errors import DomainError

__all__ = [
    "PolishResult",
    "TrackResult",
    "newton_polish",
    "first_branch_point",
    "track_root",
]


@dataclass(frozen=True)
class PolishResult:
    x: float
    residual: float
    iters: int
    converged: bool


def newton_polish(r: UPoly, q: float, x0: float, tol: float = 1e-12,
                  max_iter: int = 50) -> PolishResult:
    """Newton iteration on R(x) - q = 0 from x0."""
    coeffs = r.float_coeffs()
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    x = x0
    scale = tol * (1.0 + abs(q))
    for it in range(1, max_iter + 1):
        f = 0.0
        for c in reversed(coeffs):
            f = f * x + c
        f -= q
        if abs(f) <= scale:
            return PolishResult(x=x, residual=abs(f), iters=it - 1, converged=True)
        fp = 0.0
        for c in reversed(dcoeffs):
            fp = fp * x + c
        if fp == 0.0 or not math.isfinite(f):
            break
        x -= f / fp
    f = 0.0
    for c in reversed(coeffs):
        f = f * x + c
    f -= q
    return PolishResult(x=x, residual=abs(f), iters=max_iter,
                        converged=abs(f) <= scale)


def first_branch_point(d: UPoly, direction: int) -> float | None:
    """Nearest real root of D on the given side of 0, or None.

    Roots are taken from the square-free part of D so multiple roots do
    not degrade the float accuracy, then polished by Newton.  A root at 0
    itself (multiple root of R) is always reported.
    """
    if d.var != "q" or not d:
        raise ValueError("expected a nonzero polynomial in q")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if d.coefficient(0) == 0:
        return 0.0
    if d.degree == 0:
        return None
    sf = d.exact_div(poly_gcd(d, d.derivative())) if d.degree > 1 else d
    roots = np.roots(list(reversed(sf.float_coeffs())))
    sfc = sf.float_coeffs()
    dsfc = [i * c for i, c in enumerate(sfc)][1:]
    best = None
    for z in roots:
        if abs(z.imag) > 1e-8 * (1.0 + abs(z.real)):
            continue
        t = z.real
        for _ in range(8):
            f = 0.0
            for c in reversed(sfc):
                f = f * t + c
            fp = 0.0
            for c in reversed(dsfc):
                fp = fp * t + c
            if fp == 0.0:
                break
            t -= f / fp
        if t * direction > 0 and (best is None or abs(t) < abs(best)):
            best = t
    return best


@dataclass(frozen=True)
class TrackResult:
    """Outcome of following the branch from q = 0 to q_target.

    status is "ok", "hit_branch_point" (target at or past the first real
    root of D; x is NaN) or "step_underflow".  q_star is the first branch
    point in the direction of travel when one exists.
    """

    q_target: float
    x: float
    residual: float
    steps: int
    polish_iters: int
    status: str
    q_star: float | None


# Cash-Karp tableau
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def track_root(
    spec: ProblemSpec,
    q_target: float,
    *,
    atol: float = 1e-12,
    rtol: float = 1e-10,
    residual_tol: float = 1e-10,
    max_steps: int = 100000,
) -> TrackResult:
    """Follow the branch x(q), x(0) = 0, to q_target.

    Requires R monic with R'(0) != 0 (otherwise the branch leaves 0 with
    infinite slope and the first-order equation cannot start) and a
    finite q_target.
    """
    q_target = float(q_target)
    if not math.isfinite(q_target):
        raise ValueError(f"q_target must be finite, got {q_target}")
    if spec.rprime().coefficient(0) == 0:
        raise DomainError("R'(0) = 0: the branch is not analytic at the origin")
    ode = abel_ode(spec)
    if q_target == 0.0:
        return TrackResult(0.0, 0.0, 0.0, 0, 0, "ok", None)
    direction = 1 if q_target > 0 else -1
    q_star = first_branch_point(ode.D, direction)
    if q_star is not None and abs(q_target) >= abs(q_star) - 1e-12 * (1.0 + abs(q_star)):
        return TrackResult(q_target, math.nan, math.nan, 0, 0,
                           "hit_branch_point", q_star)

    wq = [ode.W.coefficient(j).float_coeffs() for j in range(ode.W.deg_x + 1)]
    dq = ode.D.float_coeffs()

    def f(q: float, x: float) -> float:
        den = 0.0
        for c in reversed(dq):
            den = den * q + c
        num = 0.0
        for cs in reversed(wq):
            w = 0.0
            for c in reversed(cs):
                w = w * q + c
            num = num * x + w
        return num / den

    rpoly = spec.R
    q = 0.0
    x = 0.0
    h = q_target / 16.0
    steps = 0
    polish_total = 0
    while steps < max_steps:
        if (q_target - q) * direction <= 0:
            break
        if abs(h) > abs(q_target - q):
            h = q_target - q
        k = [0.0] * 6
        try:
            k[0] = f(q, x)
            ok_eval = math.isfinite(k[0])
            for i in range(1, 6):
                xi = x + h * sum(a * k[j] for j, a in enumerate(_CK_A[i]))
                k[i] = f(q + h * sum(_CK_A[i]), xi)
                ok_eval = ok_eval and math.isfinite(k[i])
        except (ZeroDivisionError, OverflowError):
            ok_eval = False
        if ok_eval:
            x5 = x + h * sum(b * ki for b, ki in zip(_CK_B5, k))
            err = abs(h * sum((b5 - b4) * ki
                              for b5, b4, ki in zip(_CK_B5, _CK_B4, k)))
            scale = atol + rtol * max(abs(x), abs(x5))
        else:
            err = math.inf
            scale = 1.0
        if ok_eval and err <= scale:
            q += h
            pol = newton_polish(rpoly, q, x5, tol=residual_tol)
            x = pol.x
            polish_total += pol.iters
            steps += 1
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            h *= grow
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.25) if math.isfinite(err) else 0.2
        if abs(h) < 1e-15 * (1.0 + abs(q)):
            return TrackResult(q_target, x, abs(rpoly(x) - q), steps,
                               polish_total, "step_underflow", q_star)
    pol = newton_polish(rpoly, q_target, x, tol=min(residual_tol, 1e-13))
    polish_total += pol.iters
    return TrackResult(q_target, pol.x, pol.residual, steps, polish_total,
                       "ok", q_star)
