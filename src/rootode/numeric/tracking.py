"""Branch roots of R(x) = q, certified, and the branch points that bound them.

``bisect_branch_root`` guesses the root of the branch x(q), x(0) = 0, from
R's lowest term and hands it to ``_certified``, the one path from a guess
to the float next to the root: Newton kept inside the exact bracket from 0
to R's first critical point, finished by exact signs of R - q.  ``solve``
and ``check`` both take x from it, so this module alone decides which
float is x.

The first branch point, the nearest nonzero real root of D on the side of
the target, is isolated beforehand in exact arithmetic by Sturm's theorem,
on a chain built over Z by the pseudo-remainders of ``algebra._prem``, and
targets at or beyond it are refused; the same isolator (``_roots``) gives
the critical points of R and the near-poles of ``quadrature``.
"""
from __future__ import annotations

import math
import struct
import sys
from collections.abc import Iterator

from .._memo import memoized
from ..algebra import UPoly, _exact_div, _horner, _integer_coeffs, _prem, _primitive
from ..errors import DomainError

__all__ = [
    "bisect_branch_root",
    "first_branch_point",
]


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
    (0, B], B a power of 2 past Cauchy's bound, keeping the nearer half
    that holds a root and setting the farther one aside for later, to an
    interval of relative width 2^-60 about one root alone.  Each root is
    the float nearest it: every point halfway between two floats lies on
    the dyadic grid by then, so the interval lies on one side of it and its
    midpoint rounds as the root does (to the float nearer 0 when the root
    is such a point).  No float of p is formed.  A root at 0 itself is
    divided out first.  Each root comes from the same dyadic intervals
    whether or not the roots beyond it are asked for.
    """
    zeros = next(k for k, c in enumerate(p.coeffs) if c)
    if p.degree == zeros:
        return
    # search t > 0 on p(direction * t) / t^zeros, scaled to Z
    d = _integer_coeffs(p.coeffs[zeros:])[1]
    d = [c * direction**k for k, c in enumerate(d)]
    ints = [d, [i * c for i, c in enumerate(d) if i]]
    while len(b := ints[-1]) > 1:
        # by b with a positive lead, a positive multiple of the remainder
        r = _prem(ints[-2], b if b[-1] > 0 else [-c for c in b])
        if not r:
            break
        ints.append([-c for c in _primitive(r)])
    if len(ints[-1]) > 1:
        g = _primitive(ints[-1])
        ints = [_exact_div(cs, g) for cs in ints]
    top = ints[0]
    v_0 = _sign_changes(cs[0] for cs in ints)
    v_b = _sign_changes(cs[-1] for cs in ints)
    if v_0 == v_b:
        return
    # intervals (lo / 2^k, hi / 2^k] holding v_lo - v_hi distinct roots, the
    # nearest last
    todo = [(0, 1 << (sum(map(abs, top)) // abs(top[-1])).bit_length(), 0, v_0, v_b)]
    while todo:
        lo, hi, k, v_lo, v_hi = todo.pop()
        # the sign of the square-free part just right of lo: top[0]'s, as at
        # 0, flipped once by each of the v_0 - v_lo simple roots in (0, lo]
        s = top[0] if (v_0 - v_lo) % 2 == 0 else -top[0]
        while v_lo - v_hi > 1 or (hi - lo) << 60 > hi:
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
        try:
            t = (lo + hi) / (2 << k)
        except OverflowError:
            raise DomainError("a root lies beyond the float range"
                              " (magnitude above about 1.8e308)") from None
        yield direction * t


@memoized
def _nearest_root(p: UPoly, direction: int) -> float | None:
    """Nearest nonzero real root of the nonzero p on the given side of 0,
    or None: the first root ``_roots`` yields, the farther ones never
    isolated.  Memoized per process: it serves D for ``first_branch_point``
    and R' for ``bisect_branch_root``."""
    return next(_roots(p, direction), None)


def first_branch_point(d: UPoly, direction: int) -> float | None:
    """Nearest nonzero real root of D on the given side of 0, or None:
    the float nearest it, found by exact Sturm isolation and bisection
    alone.  A root at 0 itself (a multiple root of R) does not count."""
    if d.var != "q" or not d:
        raise ValueError("expected a nonzero polynomial in q")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return _nearest_root(d, direction)


def past_branch_point(q: float, q_star: float | None) -> bool:
    """True when q lies at or beyond the branch point q_star, if any, within
    a relative 1e-12, so a tiny q_star still admits the targets inside it."""
    return q_star is not None and abs(q) >= abs(q_star) * (1.0 - 1e-12)


def _next_to_root(r: UPoly, q: float, x: float, end: float) -> float:
    """The float next to the root of R = q, found from x on the monotone
    stretch of R - q from 0 to end, where it changes sign once, with exact
    signs, in integers on the dyadic floats as in ``_roots``: steps of 1, 2,
    4, ... ulps towards the sign change, then bisection, to two consecutive
    floats of opposite signs.  Of the two, the one with the smaller exact
    |R - q|, compared as rationals; the smaller in magnitude on a tie."""
    den, ints = _integer_coeffs(r.coeffs)
    a, b = q.as_integer_ratio()
    cs = [b * c for c in ints]
    cs[0] -= den * a

    def value(t: float) -> tuple[int, int]:
        # (d^deg den b (R(t) - q), d) at t = n/d: an integer of the sign of R(t) - q
        n, d = t.as_integer_ratio()
        return _at(cs, n, d), d

    near, (v_near, d_near) = x, value(x)
    if not v_near:
        return x
    # cs[0] has the sign of R(0) - q: search towards the end of the other sign
    end = 0.0 if (v_near > 0) != (cs[0] > 0) else end
    step = math.copysign(math.ulp(x), end - x)
    while True:
        far = end if (near + step - end) * step >= 0 else near + step
        v_far, d_far = value(far)
        if not v_far or (v_far > 0) != (v_near > 0):
            break
        if far == end:
            raise DomainError("R does not reach q on its monotone stretch")
        near, v_near, d_near, step = far, v_far, d_far, 2.0 * step
    while v_far and (mid := near + 0.5 * (far - near)) not in (near, far):
        v_mid, d_mid = value(mid)
        if v_mid and (v_mid > 0) == (v_near > 0):
            near, v_near, d_near = mid, v_mid, d_mid
        else:
            far, v_far, d_far = mid, v_mid, d_mid
    # |R - q| at n/d is |v| / d^deg times den b
    lhs, rhs = (abs(v) * d ** (len(cs) - 1) for v, d in ((v_near, d_far), (v_far, d_near)))
    return near if lhs < rhs or (lhs == rhs and abs(near) < abs(far)) else far


def _count_mid(a: float, b: float) -> float:
    """The mean of the bit patterns of a and b, of one sign (either may be 0):
    strictly between them unless they are neighbours, so 64 halvings close any pair."""
    ia, ib = (struct.unpack("<q", struct.pack("<d", abs(v)))[0] for v in (a, b))
    return math.copysign(struct.unpack("<d", struct.pack("<q", (ia + ib) // 2))[0], a + b)


def _certified(r: UPoly, coeffs, dcoeffs, q: float, x: float, end: float) -> float:
    """From a guess x in [0, end], where R - q changes sign once, with R and
    R' as floats: the float next to the root of R = q, whatever the guess.
    The bracket [0, end] shrinks to each x by the float sign of R(x) - q.  A
    Newton step is taken when it lands strictly inside it and moves at most
    half as far as the last move (``rtsafe``, Press et al., "Numerical
    Recipes", 9.4); else the bracket is halved, by value after a step past
    it (the root lies at its scale), else by count (``_count_mid``).  Within
    Horner's rounding bound (when finite) one more Newton step ends the
    loop, as do neighbouring floats; ``_next_to_root`` then gives the same
    float wherever the loop stopped."""
    abs_coeffs = [abs(c) for c in coeffs]
    slack = len(coeffs) * sys.float_info.epsilon
    qtol = slack * abs(q)
    # the bound grows with |x|: above it at end, |R(x) - q| is above it at x
    cap = slack * _horner(abs_coeffs, abs(end)) + qtol
    # R - q has the sign of R(0) - q at a and the other sign at b
    pos0 = coeffs[0] - q > 0
    a, b, moved = 0.0, end, math.inf
    while True:
        f = _horner(coeffs, x) - q
        if abs(f) <= cap and abs(f) <= slack * _horner(abs_coeffs, abs(x)) + qtol < math.inf:
            break
        a, b = (x, b) if (f > 0) == pos0 else (a, x)
        if math.nextafter(a, b) == b:
            return _next_to_root(r, q, x, end)
        lo, hi = (a, b) if a < b else (b, a)
        fp = _horner(dcoeffs, x) if math.isfinite(f) else 0.0
        y = x - f / fp if fp else math.nan
        if not (lo < y < hi and abs(y - x) <= 0.5 * moved):
            y = 0.5 * a + 0.5 * b if math.isfinite(y) and not lo <= y <= hi else _count_mid(a, b)
        moved, x = abs(y - x), y
    fp = _horner(dcoeffs, x)
    y = x - f / fp if fp else x
    if min(a, b) < y < max(a, b):
        x = y
    return _next_to_root(r, q, x, end)


@memoized
def bisect_branch_root(r: UPoly, q: float) -> float:
    """The float next to the root of R(x) = q on the monotone stretch of R
    from 0: the branch x(q), x(0) = 0, at q, which ``solve`` and ``check``
    report.  Memoized per (R, q), so ``solve`` and both ``check`` kinds at
    one target certify it once.

    The branch leaves 0 where the lowest nonzero term c_k x^k of R - R(0)
    has the sign of q - R(0); for even k both sides are tried, positive
    first.  R is monotone from 0 to x_c, the nearest nonzero root of R'
    (isolated exactly by Sturm's theorem), or to the largest float if R'
    has none: an exact bracket.  ``_certified`` starts from the tangent
    guess |(q - R(0))/c_k|^(1/k), or from the bracket's midpoint by count
    if the guess is not inside; halving is its fallback.  A q that R does
    not reach there raises DomainError; inside the first branch point R
    always reaches it."""
    if r.var != "x" or r.degree < 1:
        raise ValueError("expected a nonconstant polynomial in x")
    coeffs = r.float_coeffs()
    f0 = coeffs[0] - q
    if f0 == 0.0:
        return 0.0
    # for odd k the branch leaves 0 where c_k x^k has the sign of -f0
    k, c = next((k, c) for k, c in enumerate(coeffs) if k and c)
    directions = (int(math.copysign(1.0, -f0 * c)),) if k % 2 else (1, -1)
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    for direction in directions:
        end = _nearest_root(r.derivative(), direction) or direction * sys.float_info.max
        # by f0's sign alone: a subnormal f0 times R(end) - q can underflow to 0
        if (_horner(coeffs, end) - q) * math.copysign(1.0, f0) < 0:
            # a guess that underflows starts at the smallest float instead
            x = direction * max(abs(f0 / c) ** (1.0 / k), math.ulp(0.0))
            x = x if abs(x) < abs(end) else _count_mid(0.0, end)
            return _certified(r, coeffs, dcoeffs, q, x, end)
    raise DomainError("R does not reach q between 0 and its first critical point")
