"""Tanh-sinh quadrature and integral-identity checks.

Evaluates both sides of the change-of-variables identities produced by
``build_integrands``: an x-side integral of a weight composed with R
against 1/sqrt(U) (or 1/(R' U) in the rational form) and a q-side
integral of the same weight against 1/sqrt(D) (or 1/D).  One evaluator,
``_integrand``, serves every side of both kinds: it reads the exact
(num, den, sign) triple of ``IntegrandSpec``, so the sign rule is decided
in ``derive`` alone, and returns one closure that evaluates the triple's
polynomials by Horner's rule inline.  Radical integrands are evaluated
through their gcd-reduced squares so removable 0/0 points, such as s = 0
when R'(0) = 0, cause no trouble, and the integrable 1/sqrt endpoint
singularity left where D(0) = 0 costs the double-exponential rule of
``quad`` no accuracy.

The rule's nodes do not depend on the interval, so each level's are
tabulated once per process, on first use: two doubles per node in
``array('d')``, 295 kB once all 18,433 nodes of the 13 levels are held.
``quad`` halves its step until a level's change to the sum is negligible
or the error left after it is, as estimated from the last two changes
(each level squares the error; Bailey, Jeyabalan and Li 2005).  From
level 2 on it evaluates only the nodes out to where the terms of its
first two levels stopped mattering, as Boost's ``tanh_sinh`` keeps the
range its first levels found.  The integral of 1/sqrt(1 + t) over
[0, 3] takes 56 evaluations, where running a level past convergence over
every node took 123.

Tanh-sinh converges at a rate set by how near the nearest singularity of
the integrand lies to the interval, relative to its length, and it crowds
its nodes at the ends only.  A complex root pair of D just off [0, q]
puts a spike inside both intervals that the finest step does not resolve,
so ``check_identity`` splits each side at such near-poles: at the real
roots t* of D' between 0 and q where D's local quadratic model puts a root
pair within |q|/16 of t*, and at their images x(t*) on the x side.  Each
piece then has its singularity near an end, where the nodes are.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .._memo import memoized
from ..algebra import UPoly, _horner
from ..derive import IntegrandSpec
from ..errors import QuadratureError, SingularIntegrandError
from .tracking import _roots, bisect_branch_root

__all__ = [
    "quad",
    "lhs_integrand",
    "rhs_integrand",
    "IdentityReport",
    "check_identity",
]

# tanh-sinh nodes lie at |t| <= T_MAX, with steps h = 1, 1/2, ... 2^-MAX_LEVEL:
# at most 9 * 2^MAX_LEVEL + 1 integrand evaluations per integral
T_MAX = 4.5
MAX_LEVEL = 12
# the last level may change the sum by this share of the integral of |f|; on
# a smooth integrand the error left is far smaller, as each level squares it
QUAD_TOL = 1e-11
# from level 2 on, quad evaluates only the nodes up to 1/2 past the last node
# of levels 0 and 1 whose term exceeds this share of the sum of |w f|
REACH_FLOOR = 1e-20
# check_identity splits at a real root t* of D' when D's local quadratic model
# has its root pair within this share of |q| of t*
NEAR_POLE = 1 / 16


# per level, the nodes t that level adds: e = exp(-pi sinh t) and the weight
# w = cosh t e / (1 + e)^2, built by _level up to the deepest level reached
_NODES: list[tuple[array, array]] = []


def _level(level: int) -> tuple[array, array]:
    """(e, w) of the nodes t = k 2^-level, 0 <= t <= T_MAX, that the level
    adds: every k at level 0, the odd k later.  Level 1 ends with T_MAX."""
    while len(_NODES) <= level:
        lv = len(_NODES)
        h = 0.5**lv
        first, step = (1, 2) if lv else (0, 1)
        es, ws = array("d"), array("d")
        for k in range(first, int(T_MAX / h) + 1, step):
            t = k * h
            e = math.exp(-math.pi * math.sinh(t))
            es.append(e)
            ws.append(math.cosh(t) * e / (1.0 + e) ** 2)
        # quad's edge check reads the last node of level 1 as t = T_MAX
        assert lv != 1 or t == T_MAX
        _NODES.append((es, ws))
    return _NODES[level]


# t of the nodes of levels 0 and 1 in table order: 0, 1, ... then 1/2, 3/2, ... T_MAX
_T01 = (*range(int(T_MAX) + 1), *(k + 0.5 for k in range(int(T_MAX + 0.5))))


def quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Tanh-sinh integral of f over [a, b].

    Substitutes x = (a+b)/2 + (b-a)/2 tanh(pi/2 sinh t) over |t| <= T_MAX,
    which crowds the nodes double-exponentially towards both endpoints.
    Each node is placed by its distance from the nearer endpoint to keep
    its relative precision there, and f is never evaluated at a or b.  The
    step h halves from 1 until the change d_L that level L makes to the
    sum is at most QUAD_TOL times the same sum over |f|, or until the
    error left after it, about d_L^2 / d_(L-1) as each level squares the
    error, is at most a hundredth of that.  The estimate is used only once
    d_(L-1) is at most 3e-5 times that sum: before, a change can be small
    by chance, where the level's error changes sign, and the estimate
    then falls short of the error by orders of magnitude.  A looser guard
    stops more integrals a level early, in other last bits than one more
    level gives.  Both tests are
    free of the scale of f and of [a, b]; no convergence by
    h = 2^-MAX_LEVEL raises QuadratureError.  So do terms at |t| = T_MAX
    that are not negligible beside that sum: no node comes within
    6e-62 (b - a) of an end, and f may carry weight there.  A
    non-finite value of f raises SingularIntegrandError.  A sum whose every
    term w f is 0, as when f underflows at every node, raises
    QuadratureError; an interval too short to hold a node gives 0.  The
    nodes and weights come from the per-process table of ``_level``; only
    their scaling to [a, b] is computed per call.

    Levels 0 and 1 evaluate every node.  From level 2 on, only the nodes
    with t <= ``reach`` are evaluated: reach is 1/2 past the largest t of
    levels 0 and 1 whose larger |w f| exceeds REACH_FLOOR times the sum
    over |f|, and at most T_MAX.  The terms beyond it fall off
    double-exponentially, so they cannot change the sum.

    f is called once per point, a + dist then its mirror b - dist for each
    node in table order, and the terms are added to running sums with
    ``+=`` in that order.  Those sums are the result's last bits, so they
    are never ``sum()`` (compensated on floats from Python 3.12) or
    ``math.fsum``.
    """
    if a == b:
        return 0.0
    span = b - a
    if not math.isfinite(span):
        raise QuadratureError("infinite interval")
    # sums over the nodes of w f, of |w f|, and the largest |w f| at |t| = T_MAX
    acc = l1 = edge = 0.0
    evaluated = False
    est = change = math.nan
    # the larger |w f| of each node of levels 0 and 1, in table order
    tops: list[float] | None = []
    reach = T_MAX
    for level in range(MAX_LEVEL + 1):
        h = 0.5**level
        es, ws = _level(level)
        # the nodes t = k h of this level with t <= reach: the odd k up to reach / h
        for e, w in islice(zip(es, ws), (int(reach / h) + 1) // 2) if level > 1 else zip(es, ws):
            dist = span * e / (1.0 + e)
            # the largest |w f| of this node
            top = 0.0
            # t = 0, where e = 1, is the midpoint and its own mirror image
            for x in (a + dist, b - dist) if e < 1.0 else (a + dist,):
                if x != a and x != b:
                    y = w * f(x)
                    evaluated = True
                    if not math.isfinite(y):
                        raise SingularIntegrandError(f"integrand not finite at {x}")
                    acc += y
                    y = abs(y)
                    l1 += y
                    if y > top:
                        top = y
            if tops is not None:
                tops.append(top)
        if level == 1:
            edge = top
            floor = REACH_FLOOR * l1
            reach = min(T_MAX, 0.5 + max((t for t, y in zip(_T01, tops) if y > floor),
                                         default=T_MAX))
            tops = None
        prev, est = est, h * acc
        last, change = change, abs(est - prev)
        scale = QUAD_TOL * h * l1
        # the error estimate holds once the previous change was small too
        if change <= scale or (last <= 3e-5 * h * l1
                               and change * change <= 1e-2 * scale * last):
            if evaluated and not l1:
                raise QuadratureError("every term of the sum underflowed to 0")
            if edge > scale:
                raise QuadratureError("integrand not negligible at the ends of [a, b]")
            return math.pi * span * est
    raise QuadratureError(f"no convergence at step 2^-{MAX_LEVEL}")


def _integrand(num: UPoly, den: UPoly, sign: UPoly | None) -> Callable[[float], float]:
    """The float evaluator of an ``IntegrandSpec`` triple: num/den when sign
    is None, else sqrt(num/den) with the sign of ``sign`` (+ where it is 0).

    A zero of den gives inf and a negative square nan, which ``quad``
    refuses with SingularIntegrandError: a radical pair's num and den are
    coprime, so a zero of den left there is a genuine singularity.

    ``quad`` calls it once per point: twice per node, once at t = 0.  So
    the closure runs the recurrence of ``algebra._horner`` inline over its
    coefficients reversed once, each accumulator starting from 0.0 as
    there: the same operations in the same order, so the same bits, signed
    zeros included, without a call per polynomial.
    """
    nc = num.float_coeffs()[::-1]
    dc = den.float_coeffs()[::-1]
    if sign is None:
        def ev(t: float) -> float:
            d = 0.0
            for c in dc:
                d = d * t + c
            if not d:
                return math.inf
            n = 0.0
            for c in nc:
                n = n * t + c
            return n / d
        return ev
    sc = sign.float_coeffs()[::-1]
    sqrt, copysign = math.sqrt, math.copysign

    def ev(t: float) -> float:
        d = 0.0
        for c in dc:
            d = d * t + c
        if d == 0.0:
            return math.inf
        n = 0.0
        for c in nc:
            n = n * t + c
        ratio = n / d
        if ratio < 0:
            return math.nan
        s = 0.0
        for c in sc:
            s = s * t + c
        return copysign(sqrt(ratio), s or 1.0)
    return ev


def lhs_integrand(spec: IntegrandSpec) -> Callable[[float], float]:
    """The x-side integrand as a plain float function of s."""
    return _integrand(*spec.lhs)


def rhs_integrand(spec: IntegrandSpec) -> Callable[[float], float]:
    """The q-side integrand as a plain float function of t."""
    return _integrand(*spec.rhs)


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    diff: float


@memoized
def _near_poles(d: UPoly, direction: int) -> tuple[tuple[float, float], ...]:
    """(t*, rho) for each real root t* of D' on the given side of 0, nearest
    first.

    The roots are isolated exactly by Sturm's theorem (``tracking._roots``).
    rho = sqrt|2 D(t*) / D''(t*)| is the distance from t* of the root pair
    of D's quadratic model there, D(t* + u) ~ D(t*) + D''(t*) u^2 / 2, in
    floats; inf where D''(t*) is 0.  Memoized per process, like the
    isolations of D and R'.
    """
    # D has degree n - 1 >= 1 (certified by factorize), so D' is nonzero
    dp = d.derivative()
    dc = d.float_coeffs()
    d2c = dp.derivative().float_coeffs()
    out = []
    for t in _roots(dp, direction):
        d2 = _horner(d2c, t)
        out.append((t, math.sqrt(abs(2.0 * _horner(dc, t) / d2)) if d2 else math.inf))
    return tuple(out)


def _breakpoints(spec: IntegrandSpec, q: float) -> tuple[float, ...]:
    """The q-side breakpoints of ``check_identity``, from 0 outward: the t*
    of ``_near_poles`` strictly between 0 and a finite q whose rho is below
    NEAR_POLE |q|."""
    if not (q and math.isfinite(q)):
        return ()
    reach = abs(q)
    return tuple(t for t, rho in _near_poles(spec.D, 1 if q > 0 else -1)
                 if abs(t) < reach and rho < NEAR_POLE * reach)


def _piecewise(f: Callable[[float], float], ends: tuple[float, ...], side: str) -> float:
    """The ``quad`` integrals of f over [0, ends[0]], [ends[0], ends[1]], ...
    added up in that order; a QuadratureError names the side and the piece."""
    total = None
    for a, b in zip((0.0, *ends), ends):
        try:
            y = quad(f, a, b)
        except QuadratureError as exc:
            raise QuadratureError(f"{side} side, piece [{a!r}, {b!r}]: {exc}") from exc
        total = y if total is None else total + y
    return total


def check_identity(spec: IntegrandSpec, x: float, q: float) -> IdentityReport:
    """Compare the x-side and q-side integrals at a matched pair (x, q).

    The caller supplies x with R(x) = q on the branch through 0; both
    integrals then measure the same quantity and should agree up to
    quadrature error.  The q side is split at the near-poles t* of D
    between 0 and q (``_breakpoints``) and the x side at their images
    x(t*) on the branch (``bisect_branch_root``); the split leaves each
    integral unchanged and ``quad`` certifies every piece.  With no
    near-pole each side is one ``quad`` call over [0, x] resp. [0, q].
    """
    ts = _breakpoints(spec, q)
    ss = tuple(bisect_branch_root(spec.problem.R, t) for t in ts)
    lhs = _piecewise(lhs_integrand(spec), (*ss, x), "x")
    rhs = _piecewise(rhs_integrand(spec), (*ts, q), "q")
    return IdentityReport(lhs=lhs, rhs=rhs, diff=lhs - rhs)
