"""Built-in end-to-end reproductions of worked examples.

Each demo re-derives one example exactly and checks it numerically against
closed forms, returning a list of named checks {"name", "ok", ...detail}.
``DEMOS`` maps each demo name to its function; the ``demo`` verb of the
CLI runs them.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebra import UPoly
from .derive import ProblemSpec, build_integrands, factorize, linear_ode, trinomial
from .numeric.closedform import (
    babylonian_root,
    cardano_root,
    depress_quartic,
    quartic_real_roots,
    quartic_w_root,
    vieta_hyp_root,
    vieta_trig_root,
)
from .numeric.quadrature import check_identity, lhs_integrand, quad, rhs_integrand
from .numeric.series import lagrange_series, quartic_series_2f1_product, quartic_series_3f2
from .numeric.tracking import bisect_branch_root

__all__ = ["DEMOS"]


def _check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def _within(name: str, diffs, tol: float) -> dict:
    """Passes when the worst of the absolute differences is at most tol."""
    worst = max([0.0, *diffs])
    return _check(name, worst <= tol, max_diff=worst)


def babylonian() -> list[dict]:
    spec = trinomial(2, 1)
    fact = factorize(spec)
    qv = 2.0
    x = babylonian_root(1.0, qv)
    rad = check_identity(build_integrands(fact, UPoly.one("q")), x, qv)
    rat = check_identity(build_integrands(fact, UPoly.one("q"), "corollary2"), x, qv)
    closed = (math.sqrt(1.0 + 4.0 * qv) - 1.0) / 2.0
    closed_log = 0.25 * math.log(1.0 + 4.0 * qv)
    return [
        _check("discriminant_exact", fact.D == UPoly("q", (1, 4))),
        _check("cofactor_exact", fact.U == UPoly.one("x")),
        _within("tracked_vs_closed_form",
                (abs(bisect_branch_root(spec.R, q) - babylonian_root(1.0, q))
                 for q in (-0.2, -0.1, 0.5, 1.0, 2.0)), 1e-9),
        _check("radical_identity",
               abs(rad.diff) <= 1e-8 and abs(rad.rhs - closed) <= 1e-8, diff=rad.diff),
        _check("log_identity",
               abs(rat.diff) <= 1e-8 and abs(rat.rhs - closed_log) <= 1e-8, diff=rat.diff),
    ]


def cardano() -> list[dict]:
    spec = trinomial(3, 1)
    fact = factorize(spec)
    qs = (-2.0, -0.5, 0.5, 1.0, 2.0)
    return [
        _check("discriminant_exact", fact.script_d == UPoly("q", (4, 0, 27))),
        _check("cofactor_exact", fact.script_u == UPoly("x", (4, 0, 3))),
        _within("tracked_vs_cardano",
                (abs(bisect_branch_root(spec.R, q) - cardano_root(1.0, q)) for q in qs), 1e-9),
        _within("cardano_vs_sinh_form",
                (abs(cardano_root(1.0, q) - vieta_hyp_root(1.0, q)) for q in qs), 1e-12),
        # p = -1: all three roots are real while |q| < sqrt(4/27)
        _within("tracked_vs_trig_form",
                (abs(bisect_branch_root(trinomial(3, -1).R, q) - vieta_trig_root(-1.0, q))
                 for q in (-0.3, -0.1, 0.1, 0.3)), 1e-9),
    ]


def _quartic23_branch(qv: float) -> float:
    """The root of x^4 - 2x^3 + 2x^2 - x = q on the branch through 0."""
    return 0.5 - 0.5 * math.sqrt(-1.0 + 2.0 * math.sqrt(1.0 + 4.0 * qv))


def _quartic23_roots_diff(r: UPoly, qv: float) -> float:
    """Worst gap between the closed-form real roots and Ferrari's."""
    closed = []
    for s2 in (1.0, -1.0):
        inner = -1.0 + s2 * 2.0 * math.sqrt(1.0 + 4.0 * qv)
        if inner >= 0.0:
            for s1 in (1.0, -1.0):
                closed.append(0.5 + s1 * 0.5 * math.sqrt(inner))
    shift, c, d, e0 = depress_quartic(r)
    ferrari = sorted(y + shift for y in quartic_real_roots(c, d, e0 - qv))
    if len(closed) != len(ferrari):
        return math.inf
    return max(abs(a - b) for a, b in zip(sorted(closed), ferrari))


def quartic23() -> list[dict]:
    spec = ProblemSpec(UPoly("x", (0, -1, 2, -2, 1)))
    fact = factorize(spec)
    # the positive-near-0 normalization; the signed discriminant is its negative
    d_expected = UPoly("q", (1, 4)) ** 2 * UPoly("q", (3, 16))
    u_expected = UPoly("x", (1, -2, 2)) ** 2 * UPoly("x", (3, -4, 4))
    ispec = build_integrands(fact, UPoly.const("q", -2))
    phi_f = lhs_integrand(ispec)
    psi_f = rhs_integrand(ispec)
    arctan = []
    for qv in (0.25, 0.75):
        x = _quartic23_branch(qv)
        phi = quad(phi_f, 0.0, x)
        psi = quad(psi_f, 0.0, qv)
        phi_closed = (
            2.0 * math.atan((2.0 * x - 1.0) / math.sqrt(4.0 * x * x - 4.0 * x + 3.0))
            + math.pi / 3.0
        )
        psi_closed = -math.atan(math.sqrt(16.0 * qv + 3.0)) + math.pi / 3.0
        arctan += [abs(phi - phi_closed), abs(psi - psi_closed), abs(phi - psi)]
    return [
        _check("script_d_exact", fact.script_d == d_expected and fact.D == -d_expected),
        _check("script_u_exact", fact.script_u == u_expected and fact.U == -u_expected),
        _within("closed_roots_vs_ferrari",
                (_quartic23_roots_diff(spec.R, qv) for qv in (0.25, 0.75)), 1e-10),
        _within("tracked_vs_closed_branch",
                (abs(bisect_branch_root(spec.R, q) - _quartic23_branch(q))
                 for q in (0.25, 0.75)), 1e-10),
        _within("arctan_identity", arctan, 1e-8),
    ]


def betti() -> list[dict]:
    spec = ProblemSpec(UPoly("x", (0, 0, 0, 5, 0, 1)))
    fact = factorize(spec)
    d_expected = 5**5 * UPoly("q", (0, 0, 1)) * UPoly("q", (108, 0, 1))
    u_expected = (
        5**3
        * UPoly("x", (0, 0, 1))
        * UPoly("x", (5, 0, 1)) ** 2
        * UPoly("x", (12, 0, -8, 0, 4, 0, 1))
    )
    ispec = build_integrands(fact, UPoly("q", (0, 5)), surd=5)
    return [
        _check("script_d_exact", fact.script_d == d_expected),
        _check("script_u_exact", fact.script_u == u_expected),
        _within("elliptic_identity",
                (abs(check_identity(ispec, bisect_branch_root(spec.R, q), q).diff)
                 for q in (0.5, 1.0, 2.0)), 1e-8),
    ]


def hypergeom() -> list[dict]:
    order = 12
    spec = trinomial(4, 1)
    lag = lagrange_series(spec, order)
    x1 = quartic_series_3f2(Fraction(1), order)
    x2 = quartic_series_2f1_product(Fraction(1), order)
    return [
        _check("series_3f2_equals_lagrange", x1 == lag),
        _check("series_2f1_product_equals_lagrange", x2 == lag),
        # the auxiliary sextic's real w-branch, inside q* = -3/4^(4/3)
        _within("tracked_vs_w_form",
                (abs(bisect_branch_root(spec.R, q) - quartic_w_root(1.0, q))
                 for q in (-0.4, -0.2, 0.2, 1.0)), 1e-9),
    ]


def remark5() -> list[dict]:
    checks = []
    for s in (1, 2):
        ode = linear_ode(ProblemSpec(UPoly("x", (0, 1, s, 1))))
        # (4p^3 + 27q^2 + 18pqs - p^2 s^2 - 4qs^3) at p = 1
        b2 = UPoly("q", (4 - s * s, 18 * s - 4 * s**3, 27))
        b1 = UPoly("q", (9 * s - 2 * s**3, 27))
        want = (
            ode.order == 2
            and ode.b == (UPoly("q", (-3,)), b1, b2)
            and ode.inhomogeneous == UPoly("q", (-s,))
        )
        checks.append(_check(f"nonhomogeneous_s{s}", want))
    reduced = linear_ode(trinomial(3, 1))
    checks.append(
        _check(
            "s0_reduces_to_homogeneous",
            reduced.b == (UPoly("q", (-3,)), UPoly("q", (0, 27)), UPoly("q", (4, 0, 27)))
            and not reduced.inhomogeneous,
        )
    )
    return checks


DEMOS = {
    "babylonian": babylonian,
    "cardano": cardano,
    "quartic23": quartic23,
    "betti": betti,
    "hypergeom": hypergeom,
    "remark5": remark5,
}
