"""Numeric continuation of the root branch along its first-order equation.

Integrates x' = W(x, q)/D(q) from (0, 0) with an embedded Cash-Karp 4(5)
pair and polishes each accepted step with Newton on R(x) - q, so the
result carries full Newton accuracy while the integration supplies branch
selection and starting points.  The first branch point, the nearest
nonzero real root of D on the side of the target, is isolated beforehand
in exact arithmetic by Sturm's theorem, on a chain built over Z by the
pseudo-remainders of ``algebra._prem``, and targets at or beyond it are
refused; the same isolator (``_roots``) lists every real root of D' for
the near-poles of ``quadrature.check_identity``.  ``_newton`` is the one
float Newton of the numeric layer: it polishes the tracked steps, the
isolated roots and the closed forms of ``closedform``.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .._memo import memoized
from ..algebra import UPoly, _exact_div, _horner, _integer_coeffs, _prem, _primitive
from ..derive import ProblemSpec, abel_ode
from ..errors import DomainError

__all__ = [
    "TrackResult",
    "first_branch_point",
    "past_branch_point",
    "track_root",
]

# Newton's residual target after each accepted step, relative to 1 + |q|
RESIDUAL_TOL = 1e-10
# accepted RK steps before tracking gives up with status step_limit
MAX_STEPS = 100_000


def _newton(coeffs, dcoeffs, q: float, x: float, tol: float,
            max_iter: int = 50) -> tuple[float, float, int, bool]:
    """Newton on R(x) - q = 0 from x, with R and R' given as float
    coefficient lists: (x, |R(x) - q|, steps taken, converged).  Stops
    early, unconverged, where R'(x) is 0 or R(x) - q is not finite; with
    tol 0 it runs max_iter plain steps unless R(x) - q reaches exactly 0."""
    scale = tol * (1.0 + abs(q))
    for it in range(max_iter):
        f = _horner(coeffs, x) - q
        if abs(f) <= scale:
            return x, abs(f), it, True
        fp = _horner(dcoeffs, x)
        if fp == 0.0 or not math.isfinite(f):
            return x, abs(f), it, False
        x -= f / fp
    f = _horner(coeffs, x) - q
    return x, abs(f), max_iter, abs(f) <= scale


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


def _roots(p: UPoly, direction: int) -> Iterator[float]:
    """The distinct nonzero real roots of the nonzero p on the given side
    of 0, nearest first, as a generator.

    Sturm's theorem isolates the roots exactly: the chain of p and p',
    continued by negated remainders and divided by its last member
    gcd(p, p') so that a multiple root counts once, loses one sign change
    per distinct root in (a, b] from a to b.  The chain is built over Z
    by ``_prem``, each divisor signed to a positive lead so that every
    pseudo-remainder is a positive multiple of the remainder and the signs
    are those of the chain over Q.  Bisection on dyadic rationals shrinks
    (0, B], B past Cauchy's bound, keeping the nearer half that holds a
    root and setting the farther one aside for later, to an interval of
    relative width 2^-32 about one root alone.  Newton (``_newton``) on the
    square-free part, in floats, then gives a float whose two neighbours
    bracket the root, or else bisection goes on to 2^-60.  A root at 0
    itself is divided out first.  Each root comes from the same dyadic
    intervals whether or not the roots beyond it are asked for.
    """
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    if p.degree == zeros:
        return
    # search t > 0 on p(direction * t) / t^zeros, den times over Z
    den, d = _integer_coeffs(p.coeffs[zeros:])
    d = [c * direction**k for k, c in enumerate(d)]
    ints = [d, [i * c for i, c in enumerate(d) if i]]
    while len(b := ints[-1]) > 1:
        # by b with a positive lead, a positive multiple of the remainder
        r = _prem(ints[-2], b if b[-1] > 0 else [-c for c in b])
        if not r:
            break
        ints.append([-c for c in _primitive(r)])
    lead = 1
    if len(ints[-1]) > 1:
        g = _primitive(ints[-1])
        ints, lead = [_exact_div(cs, g) for cs in ints], g[-1]
    top = ints[0]
    v_0 = _sign_changes(cs[0] for cs in ints)
    v_b = _sign_changes(cs[-1] for cs in ints)
    if v_0 == v_b:
        return
    # the floats of the rational square-free part d / monic(g), top lc(g) / den
    sfc = UPoly(p.var, [Fraction(c * lead, den) for c in top]).float_coeffs()
    dsfc = [i * c for i, c in enumerate(sfc)][1:]
    # intervals (lo / 2^k, hi / 2^k] holding v_lo - v_hi distinct roots, the
    # nearest last
    todo = [(0, 1 << (sum(map(abs, top)) // abs(top[-1])).bit_length(), 0, v_0, v_b)]
    while todo:
        lo, hi, k, v_lo, v_hi = todo.pop()
        # the sign of the square-free part just right of lo: top[0]'s, as at
        # 0, flipped once by each of the v_0 - v_lo simple roots in (0, lo]
        s = top[0] if (v_0 - v_lo) % 2 == 0 else -top[0]
        bits = 32
        while True:
            if v_lo - v_hi > 1 or (hi - lo) << bits > hi:
                lo, hi, k = 2 * lo, 2 * hi, k + 1
                mid = (lo + hi) // 2
                if v_lo - v_hi > 1:
                    v_mid = _sign_changes(_at(cs, mid, 1 << k) for cs in ints)
                else:
                    v_mid = v_lo if _at(top, mid, 1 << k) * s > 0 else v_hi
                if v_mid < v_lo:
                    if v_mid > v_hi:
                        todo.append((mid, hi, k, v_mid, v_hi))
                    hi, v_hi = mid, v_mid
                else:
                    lo, v_lo = mid, v_mid
                continue
            t = (lo + hi) / (2 << k)
            if bits == 60:
                break
            t = _newton(sfc, dsfc, 0.0, t, 0.0, 8)[0]
            if math.isfinite(t):
                (an, ad), (bn, bd) = (math.nextafter(t, u).as_integer_ratio()
                                      for u in (0.0, math.inf))
                if (lo * ad < an << k and bn << k <= hi * bd
                        and _at(top, an, ad) * _at(top, bn, bd) <= 0):
                    break
            bits = 60
        yield direction * t


@memoized
def _nearest_root(p: UPoly, direction: int) -> float | None:
    """Nearest nonzero real root of the nonzero p on the given side of 0,
    or None: the first root ``_roots`` yields, the farther ones never
    isolated.  Memoized per process: it serves D for ``first_branch_point``
    and R' for ``bisect_branch_root``."""
    return next(_roots(p, direction), None)


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


# Cash-Karp tableau, with the nodes c_i = sum_j a_ij and the error weights
# b5 - b4 of the embedded pair
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
_CK_C = tuple(sum(row) for row in _CK_A)
_CK_E = tuple(b5 - b4 for b5, b4 in zip(_CK_B5, _CK_B4))


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
    first-order equation cannot start there), a finite q_target and
    finite, nonnegative atol and rtol (ValueError otherwise).  The
    float tables of W, D, R and R' are built once per call; the six stages
    and both combinations of the pair are written out as left-to-right
    sums over them, and each accepted step is polished by Newton on R and
    R' (polish_iters counts its steps).
    """
    q_target = float(q_target)
    if not math.isfinite(q_target):
        raise ValueError(f"q_target must be finite, got {q_target}")
    if not (0.0 <= atol < math.inf and 0.0 <= rtol < math.inf):
        raise ValueError(f"atol and rtol must be finite and nonnegative, got {atol}, {rtol}")
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
    drc = [i * c for i, c in enumerate(rc)][1:]
    _, c2, c3, c4, c5, c6 = _CK_C
    _, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _CK_A
    # the zero weights b2 and b5 of both rows drop out of the sums
    b1, _, b3, b4, _, b6 = _CK_B5
    e1, _, e3, e4, e5, e6 = _CK_E
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
        try:
            k1 = f(q, x)
            k2 = f(q + h * c2, x + h * (a21 * k1))
            k3 = f(q + h * c3, x + h * (a31 * k1 + a32 * k2))
            k4 = f(q + h * c4, x + h * (a41 * k1 + a42 * k2 + a43 * k3))
            k5 = f(q + h * c5, x + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
            k6 = f(q + h * c6, x + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                                        + a65 * k5))
            ok_eval = all(map(math.isfinite, (k1, k2, k3, k4, k5, k6)))
        except (ZeroDivisionError, OverflowError):
            ok_eval = False
        if ok_eval:
            x5 = x + h * (b1 * k1 + b3 * k3 + b4 * k4 + b6 * k6)
            err = abs(h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6))
            scale = atol + rtol * max(abs(x), abs(x5))
        else:
            err = math.inf
            scale = 1.0
        if ok_eval and err <= scale:
            # q + (q_target - q) can miss q_target by an ulp
            q = q_target if last else q + h
            x, _, iters, _ = _newton(rc, drc, q, x5, RESIDUAL_TOL)
            polish_total += iters
            steps += 1
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
            h *= grow
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.25) if math.isfinite(err) else 0.2
        if abs(h) <= 1e-15 * abs(q):
            return TrackResult(x, abs(_horner(rc, x) - q), steps, polish_total,
                               "step_underflow", q_star)
    x, residual, iters, _ = _newton(rc, drc, q_target, x, 1e-13)
    return TrackResult(x, residual, steps, polish_total + iters, "ok", q_star)
