"""Floating-point side: quadrature, closed forms, tracking, identity checks."""
import json
import math
import random
import struct
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rootode.algebra import UPoly, _horner, discriminant
from rootode.derive import ProblemSpec, abel_ode, build_integrands, factorize, trinomial
from rootode import (
    _memo,
    babylonian_root,
    bisect_branch_root,
    cardano_root,
    check_identity,
    first_branch_point,
    quad,
    quartic_real_roots,
    quartic_w_root,
    vieta_hyp_root,
    vieta_trig_root,
)
from rootode.errors import DomainError, QuadratureError, SingularIntegrandError
from rootode.cli import Command, parse_polynomial, run
from rootode.numeric import closedform, quadrature, tracking
from rootode.numeric.tracking import _at
from rootode.numeric.closedform import depress_quartic, depressed_cubic_real_roots
from rootode.numeric.quadrature import rhs_integrand

from exact_sign import exactly_bracketed, nearest_to_a_root
from q_division import qexact_div, rational_euclid


def exact_real_roots(coeffs):
    """The distinct real roots of the polynomial with float coefficients
    coeffs (ascending), taken as rationals, each the float nearest it: the
    exact isolation of ``tracking._roots``, with a root at 0 added back."""
    p = UPoly("x", [Fraction(c) for c in coeffs])
    zero = [0.0] if coeffs[0] == 0 else []
    return sorted([*tracking._roots(p, -1), *zero, *tracking._roots(p, 1)])


def signed_powers(lo, hi):
    """Floats +-10^u with u uniform in [lo, hi]."""
    return st.tuples(st.sampled_from([1.0, -1.0]), st.floats(lo, hi)).map(
        lambda t: t[0] * 10 ** t[1])


def mono_trinomial(n, p):
    coeffs = [0] * (n + 1)
    coeffs[1] = p
    coeffs[n] = 1
    return UPoly("x", coeffs)


class TestQuad:
    def test_inverse_sqrt_fixture(self):
        # int_0^2 dt/sqrt(1+4t) = (3-1)/2
        val = quad(lambda t: 1.0 / math.sqrt(1 + 4 * t), 0.0, 2.0)
        assert abs(val - 1.0) < 1e-12

    def test_log_fixture(self):
        val = quad(lambda t: 1.0 / (1 + 4 * t), 0.0, 1.0)
        assert abs(val - math.log(5) / 4) < 1e-12

    def test_orientation(self):
        val = quad(math.sin, math.pi, 0.0)
        assert abs(val + 2.0) < 1e-11

    def test_zero_width(self):
        assert quad(math.exp, 1.0, 1.0) == 0.0

    def test_inverse_sqrt_endpoint_singularity(self):
        # f(0) is not defined: no node may land on an endpoint
        f = lambda t: t**-0.5
        assert abs(quad(f, 0.0, 1.0) - 2.0) < 1e-14
        assert abs(quad(f, 1.0, 0.0) + 2.0) < 1e-14

    def test_near_pole_refused_within_level_cap(self):
        calls = 0

        def f(t):
            nonlocal calls
            calls += 1
            return 1.0 / ((t - 0.5) ** 2 + 1e-14)

        with pytest.raises(QuadratureError):
            quad(f, 0.0, 1.0)
        assert calls <= 9 * 2**12 + 1

    def test_sum_underflowed_to_zero_refused(self):
        # every node is evaluated and every term is 0: no silent 0
        with pytest.raises(QuadratureError):
            quad(lambda t: math.exp(-t), 1e6, 2e6)

    def test_interval_without_nodes_is_zero(self):
        # no node fits between 0 and the smallest subnormal
        assert quad(lambda t: 1.0, 0.0, 5e-324) == 0.0

    def test_weight_beyond_the_outermost_nodes_refused(self):
        # the mass of 1/(1+t^2) lies within 1e-100 of the end 0 of the
        # interval, closer than any node reaches
        with pytest.raises(QuadratureError):
            quad(lambda t: 1.0 / (1.0 + t * t), 0.0, 1e100)
        assert abs(quad(lambda t: 1.0 / (1.0 + t * t), 0.0, 1e30) - math.pi / 2) < 1e-14

    def test_node_table_matches_the_formulas(self):
        for level in range(quadrature.MAX_LEVEL + 1):
            es, ws = quadrature._level(level)
            assert isinstance(es, array) and es.typecode == "d"
            assert isinstance(ws, array) and ws.typecode == "d"
            h = 0.5**level
            first, step = (1, 2) if level else (0, 1)
            ts = [k * h for k in range(first, int(quadrature.T_MAX / h) + 1, step)]
            want_e = [math.exp(-math.pi * math.sinh(t)) for t in ts]
            assert list(es) == want_e
            assert list(ws) == [math.cosh(t) * e / (1.0 + e) ** 2
                                for t, e in zip(ts, want_e)]
            # quad takes the edge terms from the last node of level 1
            assert (ts[-1] == quadrature.T_MAX) == (level == 1)

    def test_singular_integrand_names_the_first_point_in_node_order(self):
        # over [-1, 3]: level 0's node t = 1 has its points at
        # -0.9027359281454939 and, mirrored, 2.9027359281454936, level 1's
        # node t = 1/2 its first point at -0.3485429844968716; a node's
        # point comes before its mirror and level 0 before level 1, so with
        # a pole at both the first is named
        a, b = -1.0, 3.0
        left0, right0, left1 = -0.9027359281454939, 2.9027359281454936, -0.3485429844968716
        for poles, named in (({left0, right0}, left0), ({right0, left1}, right0), ({left1}, left1)):
            with pytest.raises(SingularIntegrandError, match=f"at {named}$"):
                quad(lambda x: math.inf if x in poles else 1.0, a, b)
        # 1/(t - right0) is inf there and finite at every node before it;
        # sqrt(1/(t - left1)) is nan at level 0's t = 1 node, left of left1
        one = UPoly("x", (1,))
        pole = quadrature._integrand(one, UPoly("x", (-Fraction(right0), 1)), None)
        with pytest.raises(SingularIntegrandError, match=f"at {right0}$"):
            quad(pole, a, b)
        root = quadrature._integrand(one, UPoly("x", (-Fraction(left1), 1)), UPoly("x", (0, 1)))
        with pytest.raises(SingularIntegrandError, match=f"at {left0}$"):
            quad(root, a, b)

    @staticmethod
    def _counted(f, a, b):
        calls = 0

        def g(t):
            nonlocal calls
            calls += 1
            return f(t)
        return quad(g, a, b), calls

    def test_stops_at_the_converged_level(self):
        # the error estimate d_L^2 / d_(L-1) stops the rule a level before
        # the change test would, and from level 2 on it skips the nodes
        # whose terms are negligible: 56 evaluations, not 123
        val, calls = self._counted(lambda t: 1.0 / math.sqrt(1 + t), 0.0, 3.0)
        assert calls <= 64
        assert repr(val) == repr(1.9999999999999996)

    def test_reach_keeps_terms_out_to_t_max(self):
        # the terms of t^-1/2 are not negligible at |t| = T_MAX, so every
        # node of every level it runs is evaluated
        val, calls = self._counted(lambda t: t**-0.5, 0.0, 1.0)
        assert calls == 62
        assert repr(val) == repr(1.9999999999999993)

    def test_values_pinned_bit_for_bit(self):
        # a change of node placement or summation order shows here first
        cases = [
            (lambda t: 1.0 / math.sqrt(1 + 4 * t), 0.0, 2.0, 1.0000000000000004),
            (math.sin, math.pi, 0.0, -2.0),
            # an integrable singularity at the end 0
            (lambda t: t**-0.5, 0.0, 1.0, 1.9999999999999993),
            # all the weight within 1e-29 (b - a) of the end 0
            (lambda t: 1.0 / (1.0 + t * t), 0.0, 1e30, 1.570796326794897),
            (lambda t: math.exp(-t) * math.cos(3 * t), -1.0, 2.5, -0.13377331323755678),
        ]
        for f, a, b, want in cases:
            assert repr(quad(f, a, b)) == repr(want)


class TestClosedForms:
    def test_babylonian(self):
        for p, q in ((1, 2), (1, -0.2), (-3, 0.5), (0.25, 1)):
            x = babylonian_root(p, q)
            assert abs(x * x + p * x - q) < 1e-12
        # branch through the origin
        assert abs(babylonian_root(2, 1e-8) - 5e-9) < 1e-16

    @pytest.mark.parametrize("p,q", [(1.0, 1e-17), (1e8, 1.0), (1e200, 1.0), (-3.0, 1e-300)])
    def test_babylonian_does_not_cancel(self, p, q):
        # -p + sign(p) sqrt(p^2 + 4q) once cancelled to 0.0 at (1, 1e-17) and
        # to 7.45e-9 at (1e8, 1), and p^2 overflowed to inf at (1e200, 1)
        ref = bisect_branch_root(UPoly("x", (0, Fraction(p), 1)), q)
        assert abs(babylonian_root(p, q) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("p,q,want", [
        (0.0, -1.0, -1.0), (1e-10, -8.0, -1.9999999999833333), (1e103, 1.0, 1e-103),
    ])
    def test_cardano_does_not_cancel_or_overflow(self, p, q, want):
        # q/2 + sqrt(rad) once cancelled to 0 for q < 0, answering 0.0, and
        # p^3 overflowed at p = 1e103
        assert cardano_root(p, q) == want

    def test_cardano_and_hyperbolic_agree(self):
        for p, q in ((2, 1), (3, -0.7), (0.5, 0.1)):
            xc = cardano_root(p, q)
            xh = vieta_hyp_root(p, q)
            assert abs(xc - xh) < 1e-12
            assert abs(xc**3 + p * xc - q) < 1e-12

    def test_cardano_outside_domain(self):
        with pytest.raises(DomainError):
            cardano_root(-3.0, 0.1)

    def test_vieta_trig(self):
        p = -3.0
        for q in (0.1, -0.5, 1.9):
            x = vieta_trig_root(p, q)
            assert abs(x**3 + p * x - q) < 1e-12
        # continuous branch through 0: for small q the root is ~ q/p
        assert abs(vieta_trig_root(p, 1e-6) - 1e-6 / p) < 1e-9

    def test_vieta_trig_outside_domain(self):
        with pytest.raises(DomainError):
            vieta_trig_root(-3.0, 5.0)
        with pytest.raises(DomainError):
            vieta_trig_root(1.0, 0.1)

    def test_depressed_cubic_all_roots(self):
        # classical form t^3 + pt + q = 0
        roots = depressed_cubic_real_roots(-3.0, 0.5)
        assert len(roots) == 3
        assert roots == sorted(roots)
        for r in roots:
            assert abs(r**3 - 3 * r + 0.5) < 1e-10
        assert len(depressed_cubic_real_roots(3.0, 0.5)) == 1

    def test_depressed_cubic_rescales_radicands_beyond_the_float_range(self):
        # unscaled, q^2/4 + p^3/27 underflows to 0 with p >= 0, or p^3
        # overflows; on the rescaling t = 2^k s each is answered, and is the
        # float nearest the one real root
        cases = [((4e-300, -0.0), [0.0]), ((1e-110, -1e-200), [1e-90]),
                 ((0.0, -1e-200), [2.1544346900318838e-67]), ((1e103, 1.0), [-1e-103])]
        for (p, q), want in cases:
            assert depressed_cubic_real_roots(p, q) == want == exact_real_roots([q, p, 0.0, 1.0])

    @pytest.mark.parametrize("fn,args,coeffs", [
        (depressed_cubic_real_roots, (1e250, 1.0), [1.0, 1e250, 0.0, 1.0]),
        (depressed_cubic_real_roots, (1e215, 1.1), [1.1, 1e215, 0.0, 1.0]),
        (lambda p, q: [cardano_root(p, q)], (1e250, 1.0), [-1.0, 1e250, 0.0, 1.0]),
        (lambda p, q: [cardano_root(p, q)], (1e215, 1.1), [-1.1, 1e215, 0.0, 1.0]),
        (quartic_real_roots, (1e300, 0.0, -1.0), [-1.0, 0.0, 1e300, 0.0, 1.0]),
    ], ids=["cubic-1e250", "cubic-1e215", "cardano-1e250", "cardano-1e215", "quartic-1e300"])
    def test_coefficients_spanning_more_than_the_float_range(self, fn, args, coeffs):
        # on the rescaling the small coefficient fell to 0 or a subnormal,
        # and [0.0] (or a root 2% off) came back for roots near 1e-250,
        # 1.1e-215 and +-1e-150
        try:
            roots = fn(*args)
        except DomainError:
            return
        assert roots == exact_real_roots(coeffs)

    def test_depressed_cubic_radicand_underflowing_with_p_negative(self):
        # q^2/4 and p^3/27 both underflowed to 0 here, and the three-root
        # formula answered [-1.48e29, -1.02e45, -1.02e45]
        assert depressed_cubic_real_roots(-1e-200, 1e-170) == [-2.1544346900318837e-57]

    @pytest.mark.parametrize("c,d,e,want", [
        (-934.876, 0.011865, -52.305, [-30.57666321341011, 30.576650523406187]),
        (455.383, -0.012205, -0.13354, [-0.017111074459940517, 0.017137876040765863]),
    ])
    def test_quartic_count_and_values(self, c, d, e, want):
        # the Ferrari split once answered four roots for the first and none
        # for the second
        assert quartic_real_roots(c, d, e) == want == exact_real_roots([e, d, c, 0.0, 1.0])

    def test_quartic_small_d_against_large_c(self):
        # |d| < 1e-14 (1 + |c| + |e|) once dropped d and answered [0.0] for
        # y^4 + 1e120 y^2 + y - 1, whose real roots lie near +-1e-60
        try:
            roots = quartic_real_roots(1e120, 1.0, -1.0)
        except DomainError:
            return
        assert roots == [-1e-60, 1e-60]

    @settings(max_examples=300, deadline=None)
    @given(signed_powers(-3, 3), st.one_of(st.just(0.0), signed_powers(-3, 3)),
           signed_powers(-3, 3))
    def test_quartic_matches_exact_isolation(self, c, d, e):
        try:
            roots = quartic_real_roots(c, d, e)
        except DomainError:
            return
        ref = exact_real_roots([e, d, c, 0.0, 1.0])
        assert len(roots) == len(ref)
        assert all(abs(y - r) <= 1e-12 * abs(r) for y, r in zip(roots, ref))

    @settings(max_examples=300, deadline=None)
    @given(signed_powers(-3, 3), signed_powers(-3, 3))
    def test_depressed_cubic_matches_exact_isolation(self, p, q):
        try:
            roots = depressed_cubic_real_roots(p, q)
        except DomainError:
            return
        ref = exact_real_roots([q, p, 0.0, 1.0])
        assert len(roots) == len(ref)
        assert all(abs(t - r) <= 1e-12 * abs(r) for t, r in zip(roots, ref))

    @settings(max_examples=300, deadline=None)
    @given(signed_powers(-300, 300), signed_powers(-300, 300))
    def test_cubic_matches_exact_isolation_across_the_float_range(self, p, q):
        # answers right in count and value, or DomainError; a scaled
        # coefficient below the normal range once answered silently wrong
        for roots, coeffs in ((lambda: depressed_cubic_real_roots(p, q), [q, p, 0.0, 1.0]),
                              (lambda: [cardano_root(p, q)], [-q, p, 0.0, 1.0])):
            try:
                got = roots()
            except DomainError:
                continue
            ref = exact_real_roots(coeffs)
            assert len(got) == len(ref)
            assert all(abs(t - r) <= 1e-12 * abs(r) for t, r in zip(got, ref))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([babylonian_root, cardano_root, vieta_trig_root, vieta_hyp_root,
                            depressed_cubic_real_roots, quartic_real_roots]),
           st.lists(st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, sys.float_info.max,
                                               -sys.float_info.max]),
                              signed_powers(-300, 300)), min_size=3, max_size=3))
    def test_closed_forms_answer_finite_or_refuse(self, fn, args):
        # across the float range each answers finite floats or raises
        # DomainError, never OverflowError, ZeroDivisionError or ValueError
        try:
            out = fn(*args[:3 if fn is quartic_real_roots else 2])
        except DomainError:
            return
        assert all(math.isfinite(x) for x in (out if isinstance(out, list) else [out]))

    def test_closed_forms_refuse_non_finite_input(self):
        for fn in (babylonian_root, cardano_root, vieta_trig_root, vieta_hyp_root,
                   depressed_cubic_real_roots):
            for args in ((1.0, math.nan), (-1.0, math.inf), (math.nan, 1.0)):
                with pytest.raises(DomainError):
                    fn(*args)
        with pytest.raises(DomainError):
            quartic_real_roots(1.0, math.inf, 0.0)

    def test_biquadratic(self):
        # y^4 - 5y^2 + 4 = (y^2-1)(y^2-4)
        roots = quartic_real_roots(-5.0, 0.0, 4.0)
        assert np.allclose(roots, [-2, -1, 1, 2], atol=1e-12)
        assert quartic_real_roots(1.0, 0.0, 1.0) == []

    def test_ferrari_vs_companion(self):
        for c, d, e in ((0.0, 1.0, -0.3), (1.0, -2.0, 0.5), (-3.0, 0.7, 1.0)):
            mine = quartic_real_roots(c, d, e)
            raw = np.roots([1, 0, c, d, e])
            ref = sorted(r.real for r in raw if abs(r.imag) < 1e-9)
            assert len(mine) == len(ref)
            assert np.allclose(mine, ref, atol=1e-8)

    def test_quartic_dispatch_on_small_d(self):
        # d = 0 takes the biquadratic split z^2 + c z + e, z = y^2
        roots = quartic_real_roots(-5.0, 0.0, 4.0)
        assert np.allclose(roots, [-2, -1, 1, 2], atol=1e-12)

    def test_depress_quartic_fixture(self):
        # x^4 - 2x^3 + 2x^2 - x depresses at s = 1/2 to y^4 + y^2/2 - 3/16
        s, c, d, e0 = depress_quartic(UPoly("x", (0, -1, 2, -2, 1)))
        assert abs(s - 0.5) < 1e-15
        assert abs(c - 0.5) < 1e-15
        assert abs(d) < 1e-15
        assert abs(e0 + 3 / 16) < 1e-15

    def test_quartic_w_residual(self):
        for p, q in ((1, 0.2), (2, -0.3), (-1.5, 0.1), (1, 0.0)):
            x = quartic_w_root(p, q)
            assert abs(x**4 + p * x - q) < 1e-10

    def test_quartic_w_matches_ferrari_branch(self):
        p, q = 1.0, 0.25
        x = quartic_w_root(p, q)
        roots = quartic_real_roots(0.0, p, -q)
        assert min(abs(x - r) for r in roots) < 1e-10

    @pytest.mark.parametrize("p,q,want", [
        (1.0, 10.0, 1.6974718808441553),
        (-2.0, 1000.0, -5.607579635419537),
    ])
    def test_quartic_w_answers_on_the_side_without_a_branch_point(self, p, q, want):
        # no branch point lies on this side: u = 1/w^2 > 0 is a root of the
        # cubic u^3 + 4qu - p^2 for every real q
        assert quartic_w_root(p, q) == bisect_branch_root(trinomial(4, p).R, q) == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, -1]), st.floats(-3, 3), st.sampled_from([1, -1]), st.floats(-8, 8))
    def test_quartic_w_matches_bisection(self, sp, ep, sq, eq):
        p = sp * 10**ep
        q = sq * 10**eq * abs(p) ** (4 / 3)
        # R(x_c) of the critical point x_c = -(p/4)^(1/3); q > q* is inside
        q_star = 0.75 * p * -math.copysign(abs(p / 4) ** (1 / 3), p)
        if abs(q / q_star - 1) < 1e-6:
            reject()  # at the double root any float route loses half its digits
        if q < q_star:
            with pytest.raises(DomainError):
                quartic_w_root(p, q)
            return
        ref = bisect_branch_root(UPoly("x", (0, Fraction(p), 0, 0, 1)), q)
        assert abs(quartic_w_root(p, q) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("p,q", [
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (math.inf, 1.0),
        (-math.inf, 1.0), (math.nan, 1.0), (1.0, 1e308),
        (1e300, 1.0), (1e-150, 1.0),  # q / |p|^(4/3) beyond the float range
    ])
    def test_quartic_w_refuses_non_finite_and_out_of_range(self, p, q):
        with pytest.raises(DomainError):
            quartic_w_root(p, q)

    @pytest.mark.parametrize("p,q", [
        (2.0079478653585354e-98, 3.007861847174045e-270),
        (-1.3412031151111425e-159, 3.3685653124428136e-249),
        (1.2e268, -1e300),
        (7e-200, 1e-300),
    ])
    def test_quartic_w_rescales_extreme_p(self, p, q):
        # unscaled, p^2 would underflow in the cubic (or p x overflow in
        # the polish) and put the formula far from the root
        ref = bisect_branch_root(UPoly("x", (0, Fraction(p), 0, 0, 1)), q)
        assert abs(quartic_w_root(p, q) - ref) <= 1e-12 * abs(ref)

    def test_bisect_branch_root(self):
        r3 = mono_trinomial(3, 1)
        for q in (0.5, -0.5, 2.0):
            assert abs(bisect_branch_root(r3, q) - cardano_root(1.0, q)) < 1e-12
        r23 = UPoly("x", (0, -1, 2, -2, 1))
        x = bisect_branch_root(r23, 0.75)
        closed = 0.5 - 0.5 * math.sqrt(-1 + 2 * math.sqrt(1 + 4 * 0.75))
        assert abs(x - closed) < 1e-12
        # R(0) != 0: R - q has the sign of q at 0, and the exact finish
        # searches away from it
        r = UPoly("x", (5, 0, -1))
        x = bisect_branch_root(r, 2.0)
        assert x == math.sqrt(3.0) and exactly_bracketed(r, 2.0, x)

    def test_bisect_stays_before_first_critical_point(self):
        # R has a local maximum at x_c ~ 0.8134 and passes 1.92451 again
        # at 3.0268, on another branch
        r = UPoly("x", (0, 3, 2, -1, -3, 1))
        x = bisect_branch_root(r, 1.92451)
        assert 0.0 < x < 0.8134
        assert _solve("x^5-3x^4-x^3+2x^2+3x", 1.92451).result["x"] == x
        # x - x^3 peaks at 2/sqrt(27) ~ 0.385 before it turns back
        with pytest.raises(DomainError, match="does not reach q"):
            bisect_branch_root(UPoly("x", (0, 1, 0, -1)), 1.0)
        # no critical point on the side of q: the bracket runs to Cauchy's bound
        assert abs(bisect_branch_root(mono_trinomial(5, 1), 34.0) - 2.0) < 1e-12

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("q", [2.0, -3.0, 1e17])
    def test_bisect_branch_root_linear(self, c, q):
        # Cauchy's bound alone rounds onto the root once |q| > 2^53
        x = bisect_branch_root(UPoly("x", (0, c)), q)
        assert abs(x - q / c) <= 1e-15 * abs(q / c)

    def test_bisect_branch_root_to_neighbouring_floats(self):
        r = mono_trinomial(7, 1)
        for q in (1e-20, -1e-14, 5e-324):
            assert bisect_branch_root(r, q) == q
        # R(0) - q = 5e-324 times R(x_c) - q = -0.30 underflows to -0.0, a
        # product that once hid the sign change across the bracket
        r = UPoly("x", (0, -2, 3, 1))
        assert bisect_branch_root(r, -5e-324) == 5e-324
        assert exactly_bracketed(r, -5e-324, 5e-324)
        # x - c x^2 turns at 1/(2c) ~ 1.2e308, and its root at q = 5.9e307
        # lies near 1.05e308, where the sum of the bracket's ends overflows
        r = UPoly("x", (0, 1, Fraction(-3, 2**1026)))
        x = bisect_branch_root(r, 5.9e307)
        assert 1e308 < x < 1.1e308
        assert abs(r(x) - 5.9e307) <= 1e-15 * 5.9e307


class TestPolish:
    def test_converges_near_root(self):
        # Newton from near a closed-form root lands on it
        cubic = [-0.7, 1.0, 0.0, 1.0]
        assert abs(closedform._polish(cubic, 0.6, 50) - cardano_root(1.0, 0.7)) < 1e-14

    def test_counts_the_steps_taken(self):
        # iters bounds the Newton steps: none leaves x as it is, one is
        # exactly x - f/f'
        cubic = [-0.7, 1.0, 0.0, 1.0]
        assert closedform._polish(cubic, 0.6, 0) == 0.6
        assert closedform._polish(cubic, 0.6, 1) == 0.6 - (0.6**3 + 0.6 - 0.7) / (3 * 0.6**2 + 1)
        # R'(0) = 0, with R(0) = 0 or not, stops it before its first step:
        # no 0/0 or f/0 step
        assert closedform._polish([0.0, 0.0, 1.0], 0.0) == 0.0
        assert closedform._polish([-1.0, 0.0, 1.0], 0.0) == 0.0
        # an overflowed value stops it as well: inf/inf would make x NaN
        assert closedform._polish([-1.0, 1.0, 0.0, 1.0], 1e200) == 1e200
        # one step from 0 lands on the root of 2x - 1, where f = 0 stops it
        assert closedform._polish([-1.0, 2.0], 0.0) == 0.5


def _reference_first_branch_point(d, direction):
    """The float-root version: np.roots of the square-free part of D, each
    real root polished by eight Newton steps, the nearest on the side kept;
    a root at 0 is divided out first."""
    d = UPoly("q", d.coeffs[next(k for k, c in enumerate(d.coeffs) if c):])
    if d.degree == 0:
        return None
    sf = qexact_div(d, rational_euclid(d, d.derivative())) if d.degree > 1 else d
    sfc = sf.float_coeffs()
    dsfc = [i * c for i, c in enumerate(sfc)][1:]
    best = None
    for z in np.roots(list(reversed(sfc))):
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


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def discriminants(draw):
    """D(q) of R of degree 2..6 with R(0) = 0 and small rational coefficients."""
    n = draw(st.integers(min_value=2, max_value=6))
    lower = draw(st.lists(st.just(Fraction(0)) | small_rationals, min_size=n - 1, max_size=n - 1))
    lead = draw(small_rationals.filter(bool))
    return discriminant(UPoly("x", [0, *lower, lead]))


class TestBranchPoint:
    @settings(max_examples=150, deadline=None)
    @given(discriminants(), st.sampled_from([1, -1]))
    def test_matches_float_roots(self, d, direction):
        got = first_branch_point(d, direction)
        ref = _reference_first_branch_point(d, direction)
        if ref is None:
            assert got is None
            return
        # float roots lose digits on clustered roots, so they are matched to
        # that accuracy; the certified value is the float nearest the root
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-300)
        if got:
            assert nearest_to_a_root(d, got)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(-20, 20, max_denominator=9).filter(bool), min_size=1, max_size=6),
           st.integers(1, 5), st.sampled_from([1, -1]))
    def test_every_root_on_a_side(self, roots, c, direction):
        # p = (q^2 + c) prod (q - r), repeated roots allowed: tracking._roots
        # yields each distinct r on the side once, nearest first, as the
        # float nearest it
        p = UPoly("q", (c, 0, 1))
        for r in roots:
            p = p * UPoly("q", (-r, 1))
        want = sorted({r for r in roots if r * direction > 0}, key=abs)
        got = list(tracking._roots(p, direction))
        assert got == [float(r) for r in want]

    def test_rational_root_behind_a_nearer_one(self):
        # D = -16 (q+1)^2 (16q+7); bisecting (-4, 0) meets the double root -1
        # before the nearer -7/16
        d = discriminant(UPoly("x", (0, 2, 3, 2, 1)))
        assert d == -16 * UPoly("q", (1, 1)) ** 2 * UPoly("q", (7, 16))
        assert first_branch_point(d, -1) == -7 / 16
        assert first_branch_point(d, 1) is None

    def test_cubic_fold(self):
        d = UPoly("q", (4, 0, -27))
        q_star = math.sqrt(4 / 27)
        assert abs(first_branch_point(d, 1) - q_star) < 1e-14
        assert abs(first_branch_point(d, -1) + q_star) < 1e-14

    def test_zero_at_origin(self):
        # a root at 0 (a multiple root of R) is not a branch point
        assert first_branch_point(UPoly("q", (0, 1)), 1) is None
        assert first_branch_point(UPoly("q", (0, -1, 1)), 1) == 1.0
        assert first_branch_point(UPoly("q", (0, -1, 1)), -1) is None

    def test_no_real_zero(self):
        d = UPoly("q", (1, 0, 1))
        assert first_branch_point(d, 1) is None
        assert first_branch_point(d, -1) is None

    def test_one_sided(self):
        d = UPoly("q", (-1, 1))
        assert first_branch_point(d, 1) == pytest.approx(1.0, abs=1e-14)
        assert first_branch_point(d, -1) is None

    def test_repeated_factor_handled(self):
        d = UPoly("q", (1, -2, 1)) * UPoly("q", (2, 1))
        assert first_branch_point(d, 1) == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_beyond_float_range(self):
        # (q - 3)(q + 2)(10^320 q^2 + 1): no float Newton table, so bisection
        # alone brackets each root between its float neighbours
        p = UPoly("q", (-6, -1, 1)) * UPoly("q", (1, 0, 10**320))
        assert first_branch_point(p, 1) == 3.0
        assert first_branch_point(p, -1) == -2.0

    def test_root_beyond_float_range_refused(self):
        # coefficients in range, the root 10^400 is not
        p = UPoly("q", (-10**200, Fraction(1, 10**200)))
        with pytest.raises(DomainError, match="float range"):
            first_branch_point(p, 1)
        assert first_branch_point(p, -1) is None


def _solve(problem, q):
    """The report of ``solve`` on problem at q (a float or its text)."""
    return run(Command("solve", problem=problem, q=q if isinstance(q, str) else repr(q),
                       timing=False))[0]


class TestTracking:
    def test_against_quadratic_closed_form(self):
        for q in (0.2, 1.0, 5.0, -0.2):
            res = _solve("x^2+x", q)
            assert res.status == "ok"
            assert abs(res.result["x"] - babylonian_root(1.0, q)) < 1e-11
            assert abs(res.result["residual"]) < 1e-12

    def test_against_cubic_closed_form(self):
        for q in (0.5, -2.0, 3.0):
            res = _solve("x^3+x", q)
            assert res.status == "ok"
            assert abs(res.result["x"] - cardano_root(1.0, q)) < 1e-11

    def test_branch_point_refusal(self):
        q_star = math.sqrt(4 / 27)
        res = _solve("x^3-x", 0.5)
        assert res.status == "hit_branch_point"
        assert res.result["q_star"] == pytest.approx(q_star, abs=1e-12)
        assert res.result["x"] is None
        inside = _solve("x^3-x", 0.9 * q_star)
        assert inside.status == "ok"
        assert abs(inside.result["x"] - vieta_trig_root(-1.0, 0.9 * q_star)) < 1e-9

    @pytest.mark.parametrize("q,status", [
        ("-1e-30", "ok"), ("-1e-18", "ok"), ("-2.4e-17", "ok"),
        ("-2.5e-17", "hit_branch_point"), ("-3e-17", "hit_branch_point"),
    ])
    def test_tiny_branch_point_blocks_only_past_it(self, q, status):
        # q* = -2.5e-17: the refusal margin must scale with |q*|, since an
        # absolute floor of 1e-12 would refuse every target on this side
        problem = "x^2+1/100000000x"
        for verb in ("solve", "check"):
            report, code = run(Command(verb=verb, problem=problem, q=q, timing=False))
            assert (report.status, code) == (status, 0 if status == "ok" else 2)
            if status == "ok":
                assert exactly_bracketed(parse_polynomial(problem).R, float(q), report.result["x"])

    def test_q_zero_shortcut(self):
        for q in ("0", "-0"):
            res = _solve("x^4+2x", q)
            assert res.status == "ok"
            assert (res.result["x"], res.result["q_star"]) == (0.0, None)

    def test_non_finite_target_rejected(self):
        for q in ("nan", "inf", "-inf"):
            assert _solve("x^3+x", q).status == "usage_error"

    def test_degenerate_origin_rejected(self):
        # R'(0) = 0, even at q = 0, where x(0) = 0 would need no work
        for q in ("0.5", "0"):
            report, code = run(Command("solve", problem="x^5+5x^3", q=q, timing=False))
            assert (report.status, code) == ("domain_error", 2)
            assert report.errors == ["R'(0) = 0: the branch is not analytic at the origin"]

    def test_multiple_root_away_from_origin(self):
        # R = x (x+1)^2: D(0) = 0 through the double root at -1, where
        # x' = W/D is 0/0 at the origin; the bracket [0, x_c] is not
        r = UPoly("x", (0, 1, 2, 1))
        res = _solve("x^3+2x^2+x", 0.01)
        assert res.status == "ok"
        assert res.result["x"] == 0.009806713608741848
        assert exactly_bracketed(r, 0.01, res.result["x"])
        assert bisect_branch_root(r, 0.01) == res.result["x"]

    def test_huge_target(self):
        # D(q) overflows at q = 1e308, and so does R on most of [0, x_c]
        t0 = time.perf_counter()
        res = _solve("x^3+x", 1e308)
        assert time.perf_counter() - t0 < 2.0
        assert res.status == "ok"
        assert res.result["x"] == 4.641588833612779e+102
        assert exactly_bracketed(UPoly("x", (0, 1, 0, 1)), 1e308, res.result["x"])

    def test_far_from_root_newton_is_certified(self):
        # a Newton polish that stops at a residual tolerance answers 128 ulps
        # from the root here
        res = _solve("x^5-3x^4-x^3+x^2+2x", -18.7805)
        assert res.status == "ok"
        assert exactly_bracketed(UPoly("x", (0, 2, 1, -1, -3, 1)), -18.7805, res.result["x"])

    def test_certificate_near_a_branch_point(self, monkeypatch):
        # R is so flat here that Newton's float x lands 3e7 ulps from the
        # root; the search doubles its steps, so the ulp walk stays short
        _memo.clear()  # else an earlier certification of this root is reused
        spec = ProblemSpec(UPoly("x", (0, -2, 3, 1)))
        q = first_branch_point(factorize(spec).D, 1) * (1 - 3e-12)
        calls = []
        monkeypatch.setattr(tracking, "_at", lambda *a: calls.append(a) or _at(*a))
        res = _solve("x^3+3x^2-2x", q)
        assert res.status == "ok"
        assert exactly_bracketed(spec.R, q, res.result["x"])
        assert len(calls) < 200

    def test_corrector_stays_on_the_monotone_stretch(self):
        # R' vanishes at x_c = 5.925...: a Newton step from outside [0, x_c]
        # converges to the root of R = q near x = 8.0 on another branch
        res = _solve("-x^4+7x^3+8x^2+1/100x", 1.2765518447256992)
        assert res.status == "ok"
        assert res.result["x"] == 0.3509884919190399

    def test_last_step_lands_on_target(self):
        # continuation once fell one ulp short of the first target, and the
        # step after it underflowed; at the second (c_1 = -4e-10, q = q*/2)
        # its steps underflowed with x at twice the root
        for problem, q in (("x^5-x^3+x^2+x", 0.00702746),
                           ("-80000000x^6-100x^5+3/500000000x^4+200000x^3+1/10x^2"
                            "-1/2500000000x", 1.91871772563331e-15)):
            res = _solve(problem, q)
            assert res.status == "ok"
            assert exactly_bracketed(parse_polynomial(problem).R, q, res.result["x"])

    def test_random_trinomials_residual(self):
        rng = random.Random(5150)
        for _ in range(25):
            n = rng.randint(2, 6)
            p = rng.choice([-2, -1, 1, 2, 3])
            lim = first_branch_point(abel_ode(trinomial(n, p)).D, 1)
            q = 0.7 * lim if lim is not None else 2.0
            res = _solve(f"x^{n}{p:+d}x", q)
            assert res.status == "ok"
            assert abs(res.result["residual"]) < 1e-10
            ref = bisect_branch_root(mono_trinomial(n, p), q)
            assert abs(res.result["x"] - ref) < 1e-9

    def test_dense_polynomial(self):
        res = _solve("x^4-x^2+3x", 1.2)
        assert res.status == "ok"
        ref = bisect_branch_root(UPoly("x", (0, 3, -1, 0, 1)), 1.2)
        assert abs(res.result["x"] - ref) < 1e-9

    def test_sweep_pool_answers_are_certified(self):
        # every inside target of the sweep benchmark's pool: solve and check
        # answer the same certified float
        pool = json.loads((Path(__file__).parents[1] / "perfbench" / "sweep_pool.json")
                          .read_text())
        targets = [(e["problem"], q) for entries in pool.values() for e in entries
                   for q, _, _ in e["inside"]]
        assert len(targets) == 1152
        for problem, q in targets:
            report, _ = run(Command("solve", problem=problem, q=q, timing=False))
            assert report.status == "ok"
            r = parse_polynomial(problem).R
            assert exactly_bracketed(r, float(q), report.result["x"]), (problem, q)
            checked, _ = run(Command("check", problem=problem, q=q, timing=False))
            assert checked.result["x"] == report.result["x"], (problem, q)


def _horner_integrand(num, den, sign):
    """The integrand evaluator as a call of ``_horner`` per polynomial: the
    reference for the closure of ``quadrature._integrand``."""
    nc, dc = num.float_coeffs(), den.float_coeffs()
    if sign is None:
        def ev(t):
            d = _horner(dc, t)
            return _horner(nc, t) / d if d else math.inf
        return ev
    sc = sign.float_coeffs()

    def ev(t):
        d = _horner(dc, t)
        if d == 0.0:
            return math.inf
        ratio = _horner(nc, t) / d
        if ratio < 0:
            return math.nan
        return math.copysign(math.sqrt(ratio), _horner(sc, t) or 1.0)
    return ev


def _polys(min_size=0):
    coeff = st.fractions(-10**6, 10**6, max_denominator=10**6)
    return st.lists(coeff, min_size=min_size, max_size=6).map(lambda cs: UPoly("x", cs))


_NODES_T = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-160, -1e-160]),
)


@settings(max_examples=200, deadline=None)
@given(_polys(), _polys(), st.none() | _polys(), st.lists(_NODES_T, min_size=1, max_size=8))
def test_integrand_closure_matches_horner_bit_for_bit(num, den, sign, ts):
    # the inlined Horner steps are _horner's, from the same 0.0, so every
    # value is the same double: signed zeros, infinities and nan included
    got = quadrature._integrand(num, den, sign)
    want = _horner_integrand(num, den, sign)
    for t in ts:
        assert struct.pack("<d", got(t)) == struct.pack("<d", want(t)), t


class TestIdentities:
    def test_quadratic_radical(self):
        spec = build_integrands(factorize(trinomial(2, 1)), UPoly("q", (1,)))
        q = 2.0
        x = babylonian_root(1.0, q)
        rep = check_identity(spec, x, q)
        assert abs(rep.diff) < 1e-10
        # the q-side integral has the closed form x itself here
        assert abs(rep.rhs - x) < 1e-10

    def test_quadratic_rational_log(self):
        spec = build_integrands(factorize(trinomial(2, 1)), UPoly("q", (1,)), "corollary2")
        q = 2.0
        x = babylonian_root(1.0, q)
        rep = check_identity(spec, x, q)
        assert abs(rep.diff) < 1e-10
        assert abs(rep.rhs - math.log(1 + 4 * q) / 4) < 1e-10

    def test_cubic_weighted(self):
        spec = build_integrands(factorize(trinomial(3, 1)), UPoly("q", (1, 2)), surd=3)
        q = 0.8
        x = cardano_root(1.0, q)
        rep = check_identity(spec, x, q)
        assert abs(rep.diff) < 1e-9

    def test_pole_and_negative_ratio_of_the_q_side(self):
        # D = -16 (q+1)^2 (16q+7): script_d = -D vanishes at -7/16 and is
        # negative beyond it, so the theorem1 q-side integrand is inf at
        # the zero, nan past it, and quad over [0, -1/2] refuses
        fact = factorize(ProblemSpec(UPoly("x", (0, 2, 3, 2, 1))))
        assert fact.D == -16 * UPoly("q", (1, 1)) ** 2 * UPoly("q", (7, 16))
        f = rhs_integrand(build_integrands(fact, UPoly.one("q")))
        assert f(-7 / 16) == math.inf
        assert math.isnan(f(-0.5))
        with pytest.raises(SingularIntegrandError):
            quad(f, 0.0, -0.5)

    def test_pole_of_the_corollary2_q_side(self):
        # the rational q-side weight/D has its pole at -7/16, the midpoint of
        # [0, -7/8]: inf there, which quad refuses
        fact = factorize(ProblemSpec(UPoly("x", (0, 2, 3, 2, 1))))
        f = rhs_integrand(build_integrands(fact, UPoly.one("q"), "corollary2"))
        assert f(-7 / 16) == math.inf
        with pytest.raises(SingularIntegrandError):
            quad(f, 0.0, -0.875)

    def test_degenerate_branch_identity(self):
        r = UPoly("x", (0, 0, 0, 5, 0, 1))
        spec = build_integrands(
            factorize(ProblemSpec(r)), UPoly("q", (0, 5)), surd=5
        )
        for q in (0.5, 2.0):
            x = bisect_branch_root(r, q)
            rep = check_identity(spec, x, q)
            assert abs(rep.diff) < 1e-8


NAMED_R = UPoly("x", (0, -1, 2, 0, -3, 1))    # x^5 - 3x^4 + 2x^2 - x


@st.composite
def branch_checks(draw):
    """(integrand pair, x, q, interior t) for R of degree 3..5 with small
    integer coefficients, R'(0) != 0 and D(0) != 0, q a share of the way
    to the first branch point (or to +-1 where there is none) and t a share
    of the way to q.  Pairs with a near-pole of D inside [0, q] are left
    out: unsplit, their rule's error can reach 1e-12."""
    n = draw(st.integers(min_value=3, max_value=5))
    c1 = draw(st.integers(-3, 3).filter(bool))
    middle = draw(st.lists(st.integers(-3, 3), min_size=n - 2, max_size=n - 2))
    lead = draw(st.integers(-3, 3).filter(bool))
    spec = ProblemSpec(UPoly("x", [0, c1, *middle, lead]))
    fact = factorize(spec)
    if fact.disc_zero:
        reject()
    direction = draw(st.sampled_from([1, -1]))
    q_star = first_branch_point(fact.D, direction)
    q = draw(st.floats(0.05, 0.7)) * (q_star if q_star is not None else direction)
    t = draw(st.floats(0.2, 0.8)) * q
    ispec = build_integrands(fact, UPoly.one("q"), draw(st.sampled_from(["theorem1", "corollary2"])))
    if quadrature._breakpoints(ispec, q):
        reject()
    return ispec, bisect_branch_root(spec.R, q), q, t


class TestNearPoleSplit:
    def test_named_breakpoints(self):
        # D has a root pair at -0.14566 +- 0.00137i: its model's pair is
        # 1.8e-4 |q| from t*, and t* maps to s* with R(s*) = t*; R' is -0.034
        # there, so s* moves 30 times as far as t*
        ispec = build_integrands(factorize(ProblemSpec(NAMED_R)), UPoly.one("q"), "corollary2")
        (t,) = quadrature._breakpoints(ispec, -7.55021)
        assert t == pytest.approx(-0.1456603, abs=1e-7)
        s = bisect_branch_root(NAMED_R, t)
        assert s == pytest.approx(0.374996, abs=1e-6)
        assert float(NAMED_R(Fraction(s))) == pytest.approx(t, rel=1e-14)
        dp = ispec.D.derivative()
        below, above = (dp(Fraction(math.nextafter(t, u))) for u in (-math.inf, math.inf))
        assert below * above < 0

    def _quad_calls(self, monkeypatch, problem, q, kind):
        calls = []

        def counted(f, a, b):
            calls.append((a, b))
            return quad(f, a, b)
        monkeypatch.setattr(quadrature, "quad", counted)
        report, _ = run(Command("check", problem=problem, q=q, kind=kind, timing=False))
        assert report.status == "ok"
        return calls, report.result["x"]

    @pytest.mark.parametrize("kind", ["theorem1", "corollary2"])
    def test_split_only_near_a_pole(self, monkeypatch, kind):
        # x^3+x^2-3x: D' has its root 29/27 inside [0, 2.79931], but D's
        # model puts the pair 0.84 |q| from it, so neither side is split
        calls, x = self._quad_calls(monkeypatch, "x^3+x^2-3x", "2.79931", kind)
        assert calls == [(0.0, x), (0.0, 2.79931)]
        calls, x = self._quad_calls(monkeypatch, "x^5-3x^4+2x^2-x", "-7.55021", kind)
        (t,) = quadrature._breakpoints(build_integrands(
            factorize(ProblemSpec(NAMED_R)), UPoly.one("q"), kind), -7.55021)
        s = bisect_branch_root(NAMED_R, t)
        assert calls == [(0.0, s), (s, x), (0.0, t), (t, -7.55021)]

    def test_failure_names_side_and_piece(self):
        # every level runs on the x side's [0, x], x = 4.6e102
        ispec = build_integrands(factorize(trinomial(3, 1)), UPoly.one("q"), "corollary2")
        x = bisect_branch_root(ispec.problem.R, 1e308)
        with pytest.raises(QuadratureError) as exc:
            check_identity(ispec, x, 1e308)
        assert str(exc.value) == f"x side, piece [0.0, {x!r}]: no convergence at step 2^-12"

    @settings(max_examples=60, deadline=None)
    @given(branch_checks())
    def test_forced_split_agrees(self, case):
        # the integral is additive: a split at any interior t and its image
        # x(t) leaves both sides as they were, up to the rule's error
        ispec, x, q, t = case
        s = bisect_branch_root(ispec.problem.R, t)
        for f, end, mid, side in ((quadrature.lhs_integrand(ispec), x, s, "x"),
                                  (quadrature.rhs_integrand(ispec), q, t, "q")):
            whole = quad(f, 0.0, end)
            split = quadrature._piecewise(f, (mid, end), side)
            assert abs(split - whole) <= 1e-12 * abs(whole)


# (problem, q, theorem1 weight, corollary2 weight,
#  solve (x, residual),
#  check theorem1 (x, lhs, rhs, diff), check corollary2 (x, lhs, rhs, diff))
PINNED = [
    ('x^3+3x^2-2x', '-0.173396', '2-q', '2-q',
     (0.10323397606332392, 0.0),
     (0.10323397606332392, -0.05289722332482231, -0.05289722332482228, -2.7755575615628914e-17),
     (0.10323397606332392, -0.007843294267578339, -0.007843294267578335, -3.469446951953614e-18)),
    ('x^3+3x^2+2x', '-0.297301', '2+q', '3-q',
     (-0.21039018773900392, 5.551115123125783e-17),
     (-0.21039018773900392, -0.312695786232701, -0.3126957862327011, 1.1102230246251565e-16),
     (-0.21039018773900392, -0.3130729433042851, -0.31307294330428487, -2.220446049250313e-16)),
    ('x^3+x^2-3x', '2.79931', '3', '3-q',
     (-0.9077692331779135, 0.0),
     (-0.9077692331779135, 0.7530067790011747, 0.7530067790011753, -5.551115123125783e-16),
     (-0.9077692331779135, 0.033689378560248964, 0.03368937856024896, 6.938893903907228e-18)),
    ('x^3+x^2-x', '0.383107', '1', '1-q',
     (-0.315103484068914, 0.0),
     (-0.315103484068914, 0.13799101108396142, 0.13799101108396136, 5.551115123125783e-17),
     (-0.315103484068914, 0.04152886561417766, 0.041528865614177686, -2.7755575615628914e-17)),
    ('x^4-3x^3-3x^2-2x', '1.37682', '1+q', '3',
     (-0.7458032237797948, 0.0),
     (-0.7458032237797948, 0.05900218569933488, 0.0590021856993349, -2.0816681711721685e-17),
     (-0.7458032237797948, -0.0037510557795878943, -0.0037510557795878935, -8.673617379884035e-19)),
    ('x^4-2x^3-3x', '-3.00222', '1+q', '2',
     (0.7974569640977491, 0.0),
     (0.7974569640977491, 0.01288638835831819, 0.012886388358318197, -6.938893903907228e-18),
     (0.7974569640977491, 0.001109621749749846, 0.001109621749749847, -8.673617379884035e-19)),
    ('x^4+3x^3-3x^2-3x', '-1.3277', '1-q', '2',
     (0.3641192109308149, 0.0),
     (0.3641192109308149, -0.022510803748109376, -0.022510803748109383, 6.938893903907228e-18),
     (0.3641192109308149, -0.00028198532486592697, -0.00028198532486592724, 2.710505431213761e-19)),
    ('x^5-x^4+2x^3+x^2-3x', '-0.804108', '2-2q', '1+2q',
     (0.3227041202408269, 0.0),
     (0.3227041202408269, -0.010023187333603089, -0.010023187333603092, 3.469446951953614e-18),
     (0.3227041202408269, 3.983391013924284e-07, 3.9833910139242806e-07, 3.1763735522036263e-22)),
    ('x^5+3x^4-x^3+2x', '9.66179', '1', '3-2q',
     (1.2096226505896222, 3.552713678800501e-15),
     (1.2096226505896222, 0.009390300038163078, 0.009390300038163081, -3.469446951953614e-18),
     (1.2096226505896222, -3.633417707848957e-05, -3.633417707848951e-05, -6.098637220230962e-20)),
    ('x^5-3x^4-x^3-2x^2+3x', '-32.8047', '3+q', '3+q',
     (-1.5606186221809542, 0.0),
     (-1.5606186221809542, 0.01628176687532842, 0.016281766875328424, -3.469446951953614e-18),
     (-1.5606186221809542, 4.41612135977412e-06, 4.416121359774122e-06, -1.6940658945086007e-21)),
]


@pytest.mark.parametrize("problem,q,w1,w2,solved,thm1,cor2", PINNED)
def test_solve_and_check_pinned_bit_for_bit(problem, q, w1, w2, solved, thm1, cor2):
    # sweep-style inputs inside the radius; any drift in the last digit of
    # tracking, polishing or quadrature fails here, and solve and check
    # share the one certified x
    assert solved[0] == thm1[0] == cor2[0]
    assert exactly_bracketed(parse_polynomial(problem).R, float(q), solved[0])
    def result(**kw):
        report, _ = run(Command(problem=problem, q=q, timing=False, **kw))
        assert report.status == "ok"
        return report.result

    r = result(verb="solve")
    assert repr((r["x"], r["residual"])) == repr(solved)
    for kind, weight, want in (("theorem1", w1, thm1), ("corollary2", w2, cor2)):
        r = result(verb="check", kind=kind, weight=weight)
        assert repr((r["x"], r["lhs"], r["rhs"], r["diff"])) == repr(want)


F = Fraction

# rational, non-square-free and root-at-0 polynomials: the isolator bisects
# on the dyadic grid to the float nearest each root, which the exact
# half-ulp check proves, and any drift in the last digit fails here
BRANCH_POINT_PINS = [
    ((F(-1, 2), 27, F(19, 3), -17, F(-13, 8), -2), 1, 0.018442691034735396),
    ((F(-1, 2), 27, F(19, 3), -17, F(-13, 8), -2), -1, -1.0825078090350213),
    ((0, 0, 0, -7, F(2, 7), F(5, 3)), 1, 1.9654675538054363),
    ((0, 0, F(15, 7), 38, F(-11, 81), -1), -1, -0.05638433308614593),
    # the rational root -40/21
    ((F(43200, 49), F(47260, 49), F(18702, 49), F(114619, 784), F(429, 7), 9), -1,
     -1.9047619047619047),
    ((F(-784, 3), F(3472, 9), F(16736, 27), F(2324, 9), F(136, 3), 4), -1, -2.3333333333333335),
    ((13, 0, F(22, 7), -1), 1, 3.968363550119466),
    ((0, F(11, 27), 13, F(-39, 7), F(17, 3), F(5, 3)), -1, -0.030916622485759507),
    ((F(4177045121, 81000000000000), F(-543229, 250000000), F(-1225, 243)), 1,
     0.0029900938781866593),
    ((F(11, 1000), 34, 14, F(13, 16), 35, F(5, 3)), -1, -0.0003235725223923362),
]


@pytest.mark.parametrize("coeffs,direction,want", BRANCH_POINT_PINS)
def test_first_branch_point_pinned_bit_for_bit(coeffs, direction, want):
    d = UPoly("q", coeffs)
    assert nearest_to_a_root(d, want)
    assert repr(first_branch_point(d, direction)) == repr(want)


BISECT_PINS = [
    ((0, F(-5, 2), F(-11, 81), 17), -0.3, 0.13615757516620985),
    ((0, F(-5, 2), F(-11, 81), 17), 0.1, -0.04054243299584878),
    ((0, F(1, 3), F(-7, 2), 1), 0.005, 0.018621681622060886),
    ((0, F(19, 3), F(17, 500), F(3, 8), -26), 1.7, 0.29929306505693637),
    ((0, 0, F(3, 7), F(-2, 9)), 0.05, 0.3813412594136705),
    ((0, 1, 2, 1), 0.01, 0.009806713608741848),
    ((0, F(7, 16), 0, F(-5, 3), F(1, 2)), -0.05, -0.12133916893668507),
]


@pytest.mark.parametrize("coeffs,q,want", BISECT_PINS)
def test_bisect_branch_root_pinned_bit_for_bit(coeffs, q, want):
    r = UPoly("x", coeffs)
    assert exactly_bracketed(r, q, want)
    assert repr(bisect_branch_root(r, q)) == repr(want)


@pytest.mark.parametrize("problem,q,floats,exacts", [
    # a target well inside the radius: Newton from the tangent guess, after
    # one halving by value where its first step overshoots the bracket
    # (4.06409), lands next to the root (halving to neighbouring floats took
    # 56, halving to relative width 2^-12 and then Newton 23)
    ("x^3+3x^2-2x", -0.173396, 24, 2),
    ("x^3+3x^2-2x", 4.06409, 24, 2),
    # Newton first gets within Horner's bound some ulps from the root, and
    # one more step lands next to it (12 exact evaluations without that
    # step; 25 float and 4 exact before)
    ("x^4-x^3-3x^2-3x", 1.10602, 24, 2),
    # q = q* (1 - 3e-12) on either side: R - q has a near-double root, where
    # Newton converges linearly and the exact walk of _next_to_root is long
    # (halving, then Newton: 52 and 48 float, 32 and 36 exact evaluations)
    ("x^3+3x^2-2x", 8.303314829119353 * (1 - 3e-12), 56, 40),
    ("x^3+3x^2-2x", -0.3033148291193521 * (1 - 3e-12), 56, 40),
    # small |q|: the tangent guess is all but the root, where halving from
    # [0, x_c] to relative width 2^-12 cost a halving per binade (52 and 683
    # float evaluations) and 31 at q = 0.01, where D(0) = 0
    ("x^3+3x^2-2x", 1e-9, 16, 2),
    ("x^3+3x^2-2x", -1e-200, 16, 2),
    ("x^3+2x^2+x", 0.01, 16, 2),
    # the smallest float: the guess underflows to 0 (was 1078 float
    # evaluations); the largest targets: R overflows on most of [0, 1.8e308]
    # and halving by count finds the root's binade (was 700 float and 78 exact)
    ("x^3+3x^2-2x", 5e-324, 64, 4),
    ("x^3+x", 1e308, 64, 4),
])
def test_bisect_branch_root_evaluations_bounded(monkeypatch, problem, q, floats, exacts):
    r = parse_polynomial(problem).R
    x = bisect_branch_root(r, q)  # isolates x_c once, memoized
    # the root itself is memoized too: count a fresh certification
    counts = {"float": 0, "exact": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(tracking, "_horner", counted("float", tracking._horner))
    monkeypatch.setattr(tracking, "_at", counted("exact", tracking._at))
    assert bisect_branch_root.__wrapped__(r, q) == x
    assert exactly_bracketed(r, q, x)
    assert counts["float"] <= floats and counts["exact"] <= exacts, counts


@st.composite
def _branch_targets(draw):
    """R of degree 3-5 with small integer coefficients, R(0) = 0 and
    R'(0) != 0, and q strictly inside its first branch point."""
    n = draw(st.integers(3, 5))
    coeffs = [0, draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))]
    coeffs += [draw(st.integers(-3, 3)) for _ in range(n - 2)] + [draw(st.sampled_from([-1, 1, 2]))]
    spec = ProblemSpec(UPoly("x", coeffs))
    direction = draw(st.sampled_from([1, -1]))
    q_star = first_branch_point(factorize(spec).D, direction)
    scale = abs(q_star) if q_star is not None else 10.0
    return spec.R, direction * scale * draw(st.floats(1e-6, 0.999))


@settings(max_examples=150, deadline=None)
@given(_branch_targets())
def test_certified_float_does_not_depend_on_the_start(target):
    r, q = target
    coeffs = r.float_coeffs()
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    side = 1 if q * coeffs[1] > 0 else -1
    end = tracking._nearest_root(r.derivative(), side) or side * sys.float_info.max
    starts = [math.nextafter(0.0, end), math.nextafter(end, 0.0), tracking._count_mid(0.0, end)]
    guess = q / coeffs[1]
    if abs(guess) < abs(end):
        starts.append(guess)
    xs = {tracking._certified(r, coeffs, dcoeffs, q, x, end) for x in starts}
    assert xs == {bisect_branch_root(r, q)}
    assert exactly_bracketed(r, q, xs.pop())


@settings(max_examples=150, deadline=None)
@given(_branch_targets())
def test_memoized_root_is_the_fresh_one(target):
    r, q = target
    fresh = struct.pack("<d", bisect_branch_root.__wrapped__(r, q))
    for _ in range(2):  # a miss or a hit, then a hit
        assert struct.pack("<d", bisect_branch_root(r, q)) == fresh


def test_unreached_target_is_refused_again():
    # R = x - x^3 rises to 0.3849 at its first critical point 1/sqrt(3); a
    # refusal is not stored, so the second call certifies afresh and refuses
    r = UPoly("x", (0, 1, 0, -1))
    for _ in range(2):
        with pytest.raises(DomainError, match="does not reach q"):
            bisect_branch_root(r, 0.5)


def test_solve_and_both_checks_certify_one_root(monkeypatch):
    _memo.clear()
    calls = []
    monkeypatch.setattr(tracking, "_certified",
                        lambda *a, f=tracking._certified: calls.append(a) or f(*a))
    xs = {run(Command(verb, problem="x^3+3x^2-2x", q="-0.173396", kind=kind,
                      timing=False))[0].result["x"]
          for verb, kind in (("solve", "theorem1"), ("check", "theorem1"),
                             ("check", "corollary2"))}
    assert xs == {0.10323397606332392}
    assert len(calls) == 1


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, sys.float_info.max), st.floats(0.0, sys.float_info.max),
       st.sampled_from([1.0, -1.0]))
def test_count_mid_lies_strictly_between(a, b, sign):
    a, b = sign * a, sign * b
    mid = tracking._count_mid(a, b)
    lo, hi = min(a, b), max(a, b)
    if lo == hi or math.nextafter(lo, hi) == hi:
        assert mid in (lo, hi)
    else:
        assert lo < mid < hi


@pytest.mark.parametrize("a,b", [(0.0, 5e-324), (0.0, 1e-323), (5e-324, 1.5e-323),
                                 (0.0, sys.float_info.max), (1.0, sys.float_info.max),
                                 (-0.0, -sys.float_info.max)])
def test_count_mid_closes_any_bracket_in_64_halvings(a, b):
    # keep either half every time: the count of floats between the ends halves
    for keep_upper in (True, False):
        lo, hi, halvings = a, b, 0
        while math.nextafter(lo, hi) != hi:
            mid = tracking._count_mid(lo, hi)
            assert min(lo, hi) < mid < max(lo, hi)
            lo, hi = (mid, hi) if keep_upper else (lo, mid)
            halvings += 1
        assert halvings <= 64


CLOSED_FORM_PINS = [
    (cardano_root, (1.0, 0.7), 0.5413510989305169),
    (cardano_root, (-0.4, 2.3), 1.4208335763226616),
    (vieta_trig_root, (-3.0, 0.9), -0.3099229286144267),
    (vieta_trig_root, (-1.7, -0.5), 0.31197963617648766),
    (vieta_hyp_root, (2.0, -1.3), -0.5614894822901626),
    (vieta_hyp_root, (0.3, 4.1), 1.538073969469485),
    (depressed_cubic_real_roots, (-3.0, 0.9),
     [-1.86608999067199, 0.30992292861442666, 1.5561670620575634]),
    (depressed_cubic_real_roots, (1.2, -0.7), [0.48705163104565136]),
    (quartic_real_roots, (-4.0, 1.3, 0.5),
     [-2.121707674286327, -0.22746866342798364, 0.5883715624758704, 1.7608047752384404]),
    (quartic_real_roots, (-5.0, 0.0, 4.0), [-2.0, -1.0, 1.0, 2.0]),
    (quartic_real_roots, (2.0, -3.0, -1.0), [-0.27929945187431426, 1.1572199042296485]),
    (quartic_w_root, (1.0, 0.6), 0.5243857636193325),
    (quartic_w_root, (-2.0, 0.3), -0.14974856790419155),
]


@pytest.mark.parametrize("fn,args,want", CLOSED_FORM_PINS)
def test_closed_forms_pinned_bit_for_bit(fn, args, want):
    # each closed form ends in a few Newton steps; their floats are pinned
    assert repr(fn(*args)) == repr(want)


def test_cli_import_loads_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    # -B: the child's bare environment would let it write bytecode into src
    out = subprocess.run(
        [sys.executable, "-B", "-c",
         "import sys; import rootode.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
