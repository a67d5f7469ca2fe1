"""Numeric continuation of the root branch along its first-order equation.

Integrates x' = W(x, q)/D(q) from (0, 0) with an embedded Cash-Karp 4(5)
pair and polishes each accepted step with Newton on R(x) - q, so the
result carries full Newton accuracy while the integration supplies branch
selection and starting points.  The first branch point, the nearest
nonzero real root of D on the side of the target, is isolated beforehand
in exact arithmetic by Sturm's theorem, and targets at or beyond it are
refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .._memo import memoized
from ..algebra import UPoly, _horner, _integer_coeffs
from ..derive import ProblemSpec, abel_ode
from ..errors import DomainError

__all__ = [
    "PolishResult",
    "TrackResult",
    "newton_polish",
    "first_branch_point",
    "past_branch_point",
    "track_root",
]

# Newton's residual target after each accepted step, relative to 1 + |q|
RESIDUAL_TOL = 1e-10
# accepted RK steps before tracking gives up with status step_limit
MAX_STEPS = 100_000


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
        f = _horner(coeffs, x) - q
        if abs(f) <= scale:
            return PolishResult(x=x, residual=abs(f), iters=it - 1, converged=True)
        fp = _horner(dcoeffs, x)
        if fp == 0.0 or not math.isfinite(f):
            break
        x -= f / fp
    f = _horner(coeffs, x) - q
    return PolishResult(x=x, residual=abs(f), iters=max_iter,
                        converged=abs(f) <= scale)


def _at(cs: list[int], n: int, s: int) -> int:
    """s^deg * p(n/s) for integer coefficients cs and s > 0: an integer
    with the sign of p at n/s."""
    acc, pw = cs[-1], 1
    for c in reversed(cs[:-1]):
        pw *= s
        acc = acc * n + c * pw
    return acc


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@memoized
def _nearest_root(p: UPoly, direction: int) -> float | None:
    """Nearest nonzero real root of the nonzero p on the given side of 0,
    or None.

    Sturm's theorem isolates the root exactly: the remainder chain of p
    and p', divided by its last member gcd(p, p') so that a multiple root
    counts once, loses one sign change per distinct root in (a, b] from a
    to b.  Bisection on dyadic rationals shrinks (0, B], B past Cauchy's
    bound, to an interval of relative width 2^-32 about that root alone.
    Newton on the square-free part, in floats, then gives a float whose
    two neighbours bracket the root, or else bisection goes on to 2^-60.
    A root at 0 itself is divided out first.  Memoized per process: it
    serves D for ``first_branch_point`` and R' for ``bisect_branch_root``.
    """
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    if p.degree == zeros:
        return None
    # search t > 0 on p(direction * t) / t^zeros
    d = UPoly(p.var, (c * direction**k for k, c in enumerate(p.coeffs[zeros:])))
    chain = [d, d.derivative()]
    while rem := chain[-2] % chain[-1]:
        chain.append(-rem)
    if chain[-1].degree > 0:
        g = chain[-1].monic()
        chain = [p.exact_div(g) for p in chain]
    ints = [_integer_coeffs(p.coeffs)[1] for p in chain]
    top = ints[0]
    # (lo / 2^k, hi / 2^k] holds v_lo - v_hi distinct roots and lo is none
    # of them, so the square-free part has the sign top[0] it has at 0 there
    lo, hi, k = 0, 1 << (sum(map(abs, top)) // abs(top[-1])).bit_length(), 0
    v_lo = _sign_changes(cs[0] for cs in ints)
    v_hi = _sign_changes(cs[-1] for cs in ints)
    if v_lo == v_hi:
        return None
    sfc = chain[0].float_coeffs()
    dsfc = [i * c for i, c in enumerate(sfc)][1:]
    bits = 32
    while True:
        if v_lo - v_hi > 1 or (hi - lo) << bits > hi:
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            mid = (lo + hi) // 2
            if v_lo - v_hi > 1:
                v_mid = _sign_changes(_at(cs, mid, 1 << k) for cs in ints)
            else:
                v_mid = v_lo if _at(top, mid, 1 << k) * top[0] > 0 else v_hi
            if v_mid < v_lo:
                hi, v_hi = mid, v_mid
            else:
                lo, v_lo = mid, v_mid
            continue
        t = (lo + hi) / (2 << k)
        if bits == 60:
            return direction * t
        for _ in range(8):
            fp = _horner(dsfc, t)
            if fp == 0.0:
                break
            t -= _horner(sfc, t) / fp
        if math.isfinite(t):
            (an, ad), (bn, bd) = (math.nextafter(t, u).as_integer_ratio()
                                  for u in (0.0, math.inf))
            if (lo * ad < an << k and bn << k <= hi * bd
                    and _at(top, an, ad) * _at(top, bn, bd) <= 0):
                return direction * t
        bits = 60


def first_branch_point(d: UPoly, direction: int) -> float | None:
    """Nearest nonzero real root of D on the given side of 0, or None,
    isolated exactly by Sturm's theorem.  A root at 0 itself (a multiple
    root of R) does not count."""
    if d.var != "q" or not d:
        raise ValueError("expected a nonzero polynomial in q")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return _nearest_root(d, direction)


def past_branch_point(q: float, q_star: float | None) -> bool:
    """True when q lies at or beyond the branch point q_star, if any."""
    return q_star is not None and abs(q) >= abs(q_star) - 1e-12 * (1.0 + abs(q_star))


@dataclass(frozen=True)
class TrackResult:
    """Outcome of following the branch from q = 0 to the target.

    status is "ok", "hit_branch_point" (target at or past the first real
    root of D; x is NaN), "step_limit" (MAX_STEPS accepted steps did not
    reach the target; x is NaN) or "step_underflow".  q_star is the first
    branch point in the direction of travel when one exists.
    """

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
) -> TrackResult:
    """Follow the branch x(q), x(0) = 0, to q_target.

    Requires R'(0) != 0 (otherwise the branch leaves 0 with infinite
    slope), D(0) != 0 (otherwise x' = W/D is 0/0 at the origin, and the
    first-order equation cannot start there) and a finite q_target.
    """
    q_target = float(q_target)
    if not math.isfinite(q_target):
        raise ValueError(f"q_target must be finite, got {q_target}")
    if spec.rprime().coefficient(0) == 0:
        raise DomainError("R'(0) = 0: the branch is not analytic at the origin")
    ode = abel_ode(spec)
    if not ode.D.coefficient(0):
        raise DomainError("D(0) = 0: R has a multiple root, and x' = W/D is 0/0 at the origin")
    if q_target == 0.0:
        return TrackResult(0.0, 0.0, 0, 0, "ok", None)
    direction = 1 if q_target > 0 else -1
    q_star = first_branch_point(ode.D, direction)
    if past_branch_point(q_target, q_star):
        return TrackResult(math.nan, math.nan, 0, 0, "hit_branch_point", q_star)

    wq = [w.float_coeffs() for w in ode.W]
    dq = ode.D.float_coeffs()

    def f(q: float, x: float) -> float:
        return _horner([_horner(cs, q) for cs in wq], x) / _horner(dq, q)

    rc = spec.R.float_coeffs()
    q = 0.0
    x = 0.0
    # a subnormal q_target / 16 can round to 0
    h = q_target / 16.0 or q_target
    steps = 0
    polish_total = 0
    while (q_target - q) * direction > 0:
        if steps == MAX_STEPS:
            return TrackResult(math.nan, math.nan, steps, polish_total, "step_limit", q_star)
        last = abs(h) > abs(q_target - q)
        if last:
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
            # q + (q_target - q) can miss q_target by an ulp
            q = q_target if last else q + h
            pol = newton_polish(spec.R, q, x5, tol=RESIDUAL_TOL)
            x = pol.x
            polish_total += pol.iters
            steps += 1
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            h *= grow
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.25) if math.isfinite(err) else 0.2
        if abs(h) <= 1e-15 * abs(q):
            return TrackResult(x, abs(_horner(rc, x) - q), steps, polish_total,
                               "step_underflow", q_star)
    pol = newton_polish(spec.R, q_target, x, tol=1e-13)
    polish_total += pol.iters
    return TrackResult(pol.x, pol.residual, steps, polish_total, "ok", q_star)
