"""Independent checks of every op's output, run outside the timed region.

Nothing here imports rootode.  The exact verbs are checked twice: the
``--no-timing`` JSON must hash to the golden digest kept beside this file,
and the result must satisfy an exact certificate computed here:

* ``discriminant``: D(R(x)) = R'(x)^2 U(x), deg D = n-1, and the script
  variants are the sign-normalised D and U;
* ``derive-abel`` and ``derive-linear``: the equation annihilates the
  branch series (computed here by its own recurrence), and for the
  trinomials x^n + p x with n = 3..6 the linear equation equals the
  classical table;
* ``series``: R(S(q)) = q + O(q^(N+1)), which determines S uniquely.

``solve`` and ``check`` must report the root that bisection finds on the
monotone stretch of R between 0 and the first critical point.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import reduce

from workloads import Op, horner, parse_text, poly_roots


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# truncated power series over Q, as lists of Fractions indexed by power

def _mul(a, b, m):
    out = [Fraction(0)] * (m + 1)
    for i, ai in enumerate(a[: m + 1]):
        if ai:
            for j, bj in enumerate(b[: m + 1 - i]):
                out[i + j] += ai * bj
    return out


def _div(a, b, m):
    """a / b as a series, b(0) != 0."""
    out = []
    for k in range(m + 1):
        acc = (a[k] if k < len(a) else 0) - sum(
            out[i] * b[k - i] for i in range(max(0, k - len(b) + 1), k))
        out.append(Fraction(acc) / b[0])
    return out


def branch_series(coeffs, m):
    """[0, c_1, ..., c_m] with R(sum c_k q^k) = q, R'(0) != 0.

    pw[k][j] is [q^j] S^k; it only needs c_1..c_(j-k+1), so the powers grow
    column by column alongside the coefficients: O(n m^2) operations.
    """
    n, a1 = len(coeffs) - 1, Fraction(coeffs[1])
    c = [Fraction(0)] * (m + 1)
    pw = [None] + [[Fraction(0)] * (m + 1) for _ in range(n)]
    for j in range(1, m + 1):
        for k in range(2, n + 1):
            pw[k][j] = sum((c[i] * pw[k - 1][j - i] for i in range(1, j - k + 2)),
                           Fraction(0))
        rest = sum((coeffs[k] * pw[k][j] for k in range(2, n + 1)), Fraction(0))
        c[j] = ((1 if j == 1 else 0) - rest) / a1
        pw[1][j] = c[j]
    return c


def _poly(strings):
    return [Fraction(s) for s in strings]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _compose(f, r):
    """f(r(x)) for ascending coefficient lists."""
    acc = [Fraction(0)]
    for c in reversed(f):
        acc = _pmul(acc, r)
        acc[0] += c
    return _trim(acc)


# ---------------------------------------------------------------------------
# per-verb certificates; each returns None when the result is right

def _check_discriminant(r, res):
    d, u = _poly(res["D"]), _poly(res["U"])
    rp = [k * c for k, c in enumerate(r)][1:]
    if len(_trim(d)) != len(r) - 1:
        return "deg D != n - 1"
    if _compose(d, r) != _trim(_pmul(_pmul(rp, rp), u)):
        return "D(R) != R'^2 U"
    sign = 1 if next(c for c in d if c) > 0 else -1
    if _poly(res["script_d"]) != [sign * c for c in d] or \
            _poly(res["script_u"]) != [sign * c for c in u]:
        return "script_d/script_u are not the sign-normalised D/U"
    if res["disc_zero"] != (d[0] == 0):
        return "disc_zero flag"
    return None


def _check_abel(r, res, m=16):
    x = branch_series(r, m)
    dx = [k * x[k] for k in range(1, m + 1)]           # x', exact to q^(m-1)
    rhs = [Fraction(0)] * m
    xj = [Fraction(1)] + [Fraction(0)] * (m - 1)
    for entry in res["a"]:                             # ascending j
        term = _mul(_div(_poly(entry["num"]), _poly(entry["den"]), m - 1), xj, m - 1)
        rhs = [s + t for s, t in zip(rhs, term)]
        xj = _mul(xj, x, m - 1)
    return None if rhs == dx else "x' != sum a_j x^j on the branch series"


def _normalise(vec):
    """Integer content 1, positive leading coefficient on the first entry."""
    coeffs = [c for p in vec for c in p if c]
    den = reduce(math.lcm, (c.denominator for c in coeffs), 1)
    num = reduce(math.gcd, (abs(c.numerator * den // c.denominator) for c in coeffs), 0)
    sign = 1 if _trim(vec[0])[-1] > 0 else -1
    return [_trim(Fraction(sign * den, num) * c for c in p) for p in vec]


def classical_table(n, p):
    """[b_(n-1), ..., b_0] of the trinomial x^n + p x, n = 3..6, normalised."""
    z = 0
    rows = {
        3: [[4 * p**3, z, 27], [z, 27], [-3]],
        4: [[27 * p**4, z, z, 256], [z, z, 1152], [z, 688], [-40]],
        5: [[256 * p**5, z, z, z, 3125], [z, z, z, 31250], [z, z, 73125],
            [z, 31875], [-1155]],
        6: [[3125 * p**6, z, z, z, z, 46656], [z, z, z, z, 816480],
            [z, z, z, 4153680], [z, z, 6658200], [z, 2307456], [-57456]],
    }[n]
    return _normalise([[Fraction(c) for c in row] for row in rows])


def _check_linear(r, res):
    b = [_poly(p) for p in res["b"]]                   # b_order .. b_0, inhom
    order = len(b) - 2
    inhom, coeffs = b[-1], b[-2::-1]                   # coeffs[k] multiplies x^(k)
    m = order + max(12, max(len(p) for p in b) + 4)
    deriv = branch_series(r, m)
    total = [Fraction(0)] * (m - order + 1)
    for k, bk in enumerate(coeffs):
        for i, c in enumerate(bk):
            for j in range(len(total) - i):
                total[i + j] += c * deriv[j]
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
    for i, c in enumerate(inhom[: len(total)]):
        total[i] += c
    if any(total):
        return "linear equation does not annihilate the branch series"
    n = len(r) - 1
    if 3 <= n <= 6 and all(c == 0 for c in r[2:n]):
        if [_trim(p) for p in b[:-1]] != classical_table(n, r[1]) or _trim(inhom):
            return "differs from the classical table"
    return None


def _check_series(r, res, order):
    s = [Fraction(0)] + _poly(res["coeffs"])
    if res["order"] != order or len(s) != order + 1:
        return "wrong number of coefficients"
    if res.get("ode_residual_zero") is not True:
        return "series not certified against the derived equation"
    return None if s == branch_series(r, order) else "R(S(q)) != q"


def branch_root(r, q):
    """Root of R(x) = q on the branch through 0, by bisection.

    R is monotone between 0 and the nearest real critical point on the side
    the branch leaves towards (or on the whole ray when there is none), and
    the sweep only asks for targets inside that stretch.
    """
    rf = [float(c) for c in r]
    side = math.copysign(1.0, q * rf[1])
    crit = [z.real * side for z in poly_roots([k * c for k, c in enumerate(rf)][1:])
            if abs(z.imag) <= 1e-9 * (1 + abs(z)) and z.real * side > 0]
    hi = min(crit, default=1.0)
    while not crit and (horner(rf, side * hi) - q) * q < 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (horner(rf, side * mid) - q) * q < 0:
            lo = mid
        else:
            hi = mid
    return float(side * 0.5 * (lo + hi))


def _check_root(r, res, q):
    x = res.get("x")
    if x is None:
        return "no root reported"
    ref = branch_root(r, float(q))
    if abs(x - ref) > 1e-9 * (1 + abs(ref)):
        return f"x = {x!r}, branch root {ref!r}"
    if "diff" in res and not abs(res["diff"]) <= res["tol"]:
        return "identity reported ok outside its tolerance"
    return None


def check(op: Op, text: str, result: dict, golden: dict[str, str]) -> str | None:
    """None when an ``ok`` report is right, else what is wrong with it."""
    r = parse_text(op.problem)
    if op.verb in ("discriminant", "derive-abel", "derive-linear"):
        if golden.get(op.key) != digest(text):
            return "output differs from the golden"
        return {"discriminant": _check_discriminant, "derive-abel": _check_abel,
                "derive-linear": _check_linear}[op.verb](r, result)
    if op.verb == "series":
        return _check_series(r, result, op.order)
    return _check_root(r, result, op.q)
