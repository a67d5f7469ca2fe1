"""Floating-point side: quadrature, closed forms, tracking, identity checks."""
import math
import random

import numpy as np
import pytest

from rootode.algebra import UPoly
from rootode.derive import ProblemSpec, abel_ode, build_integrands, factorize, trinomial
from rootode.errors import DomainError
from rootode.numeric import (
    babylonian_root,
    biquadratic_real_roots,
    bisect_branch_root,
    cardano_root,
    check_identity,
    closed_form_root,
    depress_quartic,
    depressed_cubic_real_roots,
    ferrari_real_roots,
    first_branch_point,
    invert_phi,
    lhs_integrand,
    newton_polish,
    quad,
    quartic_real_roots,
    quartic_w_root,
    track_root,
    vieta_hyp_root,
    vieta_trig_root,
)


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


class TestClosedForms:
    def test_babylonian(self):
        for p, q in ((1, 2), (1, -0.2), (-3, 0.5), (0.25, 1)):
            x = babylonian_root(p, q)
            assert abs(x * x + p * x - q) < 1e-12
        # branch through the origin
        assert abs(babylonian_root(2, 1e-8) - 5e-9) < 1e-16

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

    def test_biquadratic(self):
        # y^4 - 5y^2 + 4 = (y^2-1)(y^2-4)
        roots = biquadratic_real_roots(-5.0, 4.0)
        assert np.allclose(roots, [-2, -1, 1, 2], atol=1e-12)
        assert biquadratic_real_roots(1.0, 1.0) == []

    def test_ferrari_vs_companion(self):
        for c, d, e in ((0.0, 1.0, -0.3), (1.0, -2.0, 0.5), (-3.0, 0.7, 1.0)):
            mine = ferrari_real_roots(c, d, e)
            raw = np.roots([1, 0, c, d, e])
            ref = sorted(r.real for r in raw if abs(r.imag) < 1e-9)
            assert len(mine) == len(ref)
            assert np.allclose(mine, ref, atol=1e-8)

    def test_quartic_dispatch_on_small_d(self):
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
        roots = ferrari_real_roots(0.0, p, -q)
        assert min(abs(x - r) for r in roots) < 1e-10

    def test_dispatcher(self):
        got = closed_form_root("babylonian", p=1.0, q=2.0)
        assert got.method == "babylonian"
        assert got.value == babylonian_root(1.0, 2.0)
        assert "p != 0" in got.validity
        with pytest.raises(ValueError):
            closed_form_root("newton")

    def test_bisect_branch_root(self):
        r3 = mono_trinomial(3, 1)
        for q in (0.5, -0.5, 2.0):
            assert abs(bisect_branch_root(r3, q) - cardano_root(1.0, q)) < 1e-12
        r23 = UPoly("x", (0, -1, 2, -2, 1))
        x = bisect_branch_root(r23, 0.75)
        closed = 0.5 - 0.5 * math.sqrt(-1 + 2 * math.sqrt(1 + 4 * 0.75))
        assert abs(x - closed) < 1e-12


class TestPolish:
    def test_converges_near_root(self):
        r = mono_trinomial(3, 1)
        res = newton_polish(r, 0.7, 0.6)
        assert res.converged
        assert abs(res.residual) < 1e-14
        assert abs(res.x - cardano_root(1.0, 0.7)) < 1e-14

    def test_reports_failure(self):
        # derivative vanishes at the start point, far from any root
        r = mono_trinomial(3, -1)
        res = newton_polish(r, 1e6, math.sqrt(1 / 3), max_iter=3)
        assert not res.converged


class TestBranchPoint:
    def test_cubic_fold(self):
        d = UPoly("q", (4, 0, -27))
        q_star = math.sqrt(4 / 27)
        assert abs(first_branch_point(d, 1) - q_star) < 1e-14
        assert abs(first_branch_point(d, -1) + q_star) < 1e-14

    def test_zero_at_origin(self):
        assert first_branch_point(UPoly("q", (0, 1)), 1) == 0.0

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


class TestTracking:
    def test_against_quadratic_closed_form(self):
        spec = trinomial(2, 1)
        for q in (0.2, 1.0, 5.0, -0.2):
            res = track_root(spec, q)
            assert res.status == "ok"
            assert abs(res.x - babylonian_root(1.0, q)) < 1e-11
            assert abs(res.residual) < 1e-12

    def test_against_cubic_closed_form(self):
        spec = trinomial(3, 1)
        for q in (0.5, -2.0, 3.0):
            res = track_root(spec, q)
            assert res.status == "ok"
            assert abs(res.x - cardano_root(1.0, q)) < 1e-11

    def test_branch_point_refusal(self):
        spec = trinomial(3, -1)
        q_star = math.sqrt(4 / 27)
        res = track_root(spec, 0.5)
        assert res.status == "hit_branch_point"
        assert res.q_star == pytest.approx(q_star, abs=1e-12)
        assert math.isnan(res.x)
        inside = track_root(spec, 0.9 * q_star)
        assert inside.status == "ok"
        assert abs(inside.x - vieta_trig_root(-1.0, 0.9 * q_star)) < 1e-9

    def test_q_zero_shortcut(self):
        res = track_root(trinomial(4, 2), 0.0)
        assert res.x == 0.0 and res.steps == 0

    def test_non_finite_target_rejected(self):
        for q in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                track_root(trinomial(3, 1), q)

    def test_degenerate_origin_rejected(self):
        with pytest.raises(DomainError):
            track_root(ProblemSpec(UPoly("x", (0, 0, 0, 5, 0, 1))), 0.5)

    def test_random_trinomials_residual(self):
        rng = random.Random(5150)
        for _ in range(25):
            n = rng.randint(2, 6)
            p = rng.choice([-2, -1, 1, 2, 3])
            spec = trinomial(n, p)
            ode = abel_ode(spec)
            lim = first_branch_point(ode.D, 1)
            q = 0.7 * lim if lim is not None else 2.0
            res = track_root(spec, q)
            assert res.status == "ok"
            assert abs(res.residual) < 1e-10
            ref = bisect_branch_root(mono_trinomial(n, p), q)
            assert abs(res.x - ref) < 1e-9

    def test_dense_polynomial(self):
        spec = ProblemSpec(UPoly("x", (0, 3, -1, 0, 1)))
        res = track_root(spec, 1.2)
        assert res.status == "ok"
        ref = bisect_branch_root(spec.R, 1.2)
        assert abs(res.x - ref) < 1e-9


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

    def test_degenerate_branch_identity(self):
        r = UPoly("x", (0, 0, 0, 5, 0, 1))
        spec = build_integrands(
            factorize(ProblemSpec(r)), UPoly("q", (0, 5)), surd=5, remark2=True
        )
        for q in (0.5, 2.0):
            x = bisect_branch_root(r, q)
            rep = check_identity(spec, x, q)
            assert abs(rep.diff) < 1e-8

    def test_invert_phi_recovers_x(self):
        spec = build_integrands(factorize(trinomial(3, 1)), UPoly("q", (1,)), surd=1)
        x0 = cardano_root(1.0, 0.8)
        target = quad(lhs_integrand(spec), 0.0, x0)
        got = invert_phi(spec, target, (0.0, 2 * x0))
        assert abs(got - x0) < 1e-10
