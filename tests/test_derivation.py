"""Exact derivation pipeline: factorization, integrands, Abel form, tower,
linear annihilator, and the memo in front of them."""
import inspect
import random
import time
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootode.algebra import (MAX_DEGREE, UPoly, _integer_coeffs, _monic_divmod, _mul, _rat,
                             compose_q, discriminant)
from rootode.derive import (
    LinearODE,
    ProblemSpec,
    _kernel,
    abel_ode,
    build_integrands,
    derivative_tower,
    factorize,
    linear_ode,
    trinomial,
)
from rootode import _memo, derive
from rootode.errors import DomainError, NonExactDivisionError
from rootode.cli import Command, run
from rootode import lagrange_series, series_ode_residual
from rootode.numeric.tracking import _nearest_root
from rootode.render import text_linear

from q_division import qdivmod, qexact_div, r_adic_digits


def q_poly(*cs):
    return UPoly("q", cs)


def x_poly(*cs):
    return UPoly("x", cs)


def assert_quotients(nums, den, expected_nums, expected_den):
    """nums[j] / den == expected_nums[j] / expected_den for every j."""
    assert len(nums) == len(expected_nums)
    for j, (num, want) in enumerate(zip(nums, expected_nums)):
        assert num * expected_den == want * den, f"quotient {j} differs"


def abel_numerators(ode):
    return list(ode.W)


def normal_form(polys, anchor):
    """``derive._normalize_vector`` of rational polynomials in q."""
    ints = derive._primitive_pair(1, [p.coeffs for p in polys])[1]
    return [UPoly("q", p) for p in derive._normalize_vector(ints, anchor)]


def reduced(num, den):
    """num / den, den nonzero, in lowest terms as ``derive._normalize_vector``
    gives it: coprime integer polynomials of joint content 1 with a
    positive leading coefficient of den."""
    p, q = derive._normalize_vector(derive._primitive_pair(1, [num.coeffs, den.coeffs])[1],
                                    anchor=1)
    return UPoly(num.var, p), UPoly(den.var, q)


def at_q_over(p, c):
    """p(q / c)."""
    return UPoly("q", [Fraction(a) / Fraction(c) ** k for k, a in enumerate(p.coeffs)])


def rand_problem(rng, max_n=8):
    """Random R with R(0) = 0 and degree 2..max_n, numerators in [-9, 9]:
    in turn monic over Z, with denominators up to 7 and lead -1, and with
    denominators up to 7 and a lead of either sign, rational or not."""
    n = rng.randint(2, max_n)
    shape = rng.randrange(3)
    def coeff():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)) if shape else 1)
    lead = (1, -1, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 5))))
    return ProblemSpec(UPoly("x", [0] + [coeff() for _ in range(n - 1)] + [lead[shape]]))


def _resultant(a, b):
    """Res(a, b) over Q by the Euclidean remainder sequence, b nonzero."""
    if b.degree == 0:
        return Fraction(b.lc) ** a.degree
    c = qdivmod(a, b)[1]
    if not c:
        return Fraction(0)
    sign = -1 if a.degree * b.degree % 2 else 1
    return sign * Fraction(b.lc) ** (a.degree - c.degree) * _resultant(b, c)


def break_chi(monkeypatch):
    """Make ``derive._frame`` answer a chi that is not det(tI - A), and
    empty the memo so that nothing is answered from it."""
    frame = derive._frame

    def wrong(R):
        D, chi, *rest = frame(R)
        return (D, [chi[0] + 1, *chi[1:]], *rest)

    monkeypatch.setattr(derive, "_frame", wrong)
    _memo.clear()


def assert_matches_q_route(spec):
    """``factorize`` and ``abel_ode`` against the route over Q[x], which
    shares nothing with the integer frame: D against
    (-1)^(n(n-1)/2) Res(R - t, R') / lc(R), by Euclid over Q, at n points
    t (enough for a polynomial of degree n-1); U = D(R(x)) / R'(x)^2 by
    composition and exact division; W from the R-adic digits of R'U, by
    division by R over Q."""
    R, n, rp = spec.R, spec.n, spec.rprime()
    fact, ode = factorize(spec), abel_ode(spec)
    D = fact.D
    assert D.degree == n - 1
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    for t in range(n):
        assert D(t) == sign * _resultant(R - t, rp) / R.lc, f"D({t}) differs for R = {R}"
    U = qexact_div(compose_q(D, R), rp * rp)
    digits = r_adic_digits(rp * U, R)
    W = tuple(UPoly("q", [c.coefficient(j) for c in digits]) for j in range(n))
    sgn = 1 if D.trailing() > 0 else -1
    assert (fact.U, fact.script_d, fact.script_u) == (U, D * sgn, U * sgn), f"R = {R}"
    assert fact.sign_rp0 == (rp.coefficient(0) > 0) - (rp.coefficient(0) < 0)
    assert fact.disc_zero is (D.coefficient(0) == 0)
    assert ode.D == D
    assert ode.W == W, f"W differs for R = {R}"


class TestProblemSpec:
    def test_rejects_wrong_variable(self):
        with pytest.raises(ValueError):
            ProblemSpec(UPoly("q", (0, 1, 1)))

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            ProblemSpec(UPoly("x", (0, 1)))

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            ProblemSpec(UPoly("x", (1, 0, 1)))

    def test_degree_above_the_limit_refused_at_once(self):
        # a dense integer R of degree 14 takes about half a minute in
        # linear_ode; the spec and the discriminant refuse it before any work
        assert ProblemSpec(UPoly("x", range(MAX_DEGREE + 1))).n == MAX_DEGREE
        dense = UPoly("x", range(MAX_DEGREE + 2))
        for refuse in (ProblemSpec, discriminant):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1} exceeds the limit"):
                refuse(dense)
            assert time.perf_counter() - t0 < 0.01

    def test_trinomial_validation(self):
        with pytest.raises(ValueError):
            trinomial(1, 1)
        with pytest.raises(ValueError):
            trinomial(3, 0)


class TestFactorize:
    def test_quadratic_fixture(self):
        fact = factorize(trinomial(2, 1))
        assert fact.D == q_poly(1, 4)
        assert fact.U == UPoly.one("x")
        assert fact.script_d == fact.D
        assert not fact.disc_zero

    def test_cubic_fixture(self):
        fact = factorize(trinomial(3, 1))
        assert fact.D == q_poly(-4, 0, -27)
        assert fact.U == x_poly(-4, 0, -3)
        assert fact.script_d == q_poly(4, 0, 27)
        assert fact.script_u == x_poly(4, 0, 3)
        # D(R(x)) = -(3x^2+4)(3x^2+1)^2 for p = 1
        comp = compose_q(fact.D, UPoly("x", (0, 1, 0, 1)))
        assert comp == -(x_poly(4, 0, 3) * x_poly(1, 0, 3) ** 2)

    def test_cubic_negative_p(self):
        fact = factorize(trinomial(3, -1))
        assert fact.D == q_poly(4, 0, -27)
        # trailing coefficient positive, so no sign flip
        assert fact.script_d == fact.D

    def test_quartic_trinomial(self):
        fact = factorize(trinomial(4, 1))
        assert fact.D == q_poly(-27, 0, 0, -256)
        assert fact.U == -x_poly(27, 0, 0, 40, 0, 0, 16)

    def test_degenerate_quintic(self):
        fact = factorize(ProblemSpec(x_poly(0, 0, 0, 5, 0, 1)))
        assert fact.script_d == 5**5 * q_poly(0, 0, 1) * q_poly(108, 0, 1)
        assert fact.script_u == (
            5**3 * x_poly(0, 0, 1) * x_poly(5, 0, 1) ** 2 * x_poly(12, 0, -8, 0, 4, 0, 1)
        )
        assert fact.disc_zero
        assert fact.sign_rp0 == 0

    def test_factorization_certificate_random(self):
        rng = random.Random(424242)
        seen_n = set()
        for _ in range(60):
            spec = rand_problem(rng, max_n=13)
            seen_n.add(spec.n)
            fact = factorize(spec)
            n = spec.n
            assert fact.D.degree == n - 1
            assert fact.U.degree == (n - 1) * (n - 2)
            rp = spec.rprime()
            assert compose_q(fact.D, spec.R) == rp * rp * fact.U
            assert compose_q(fact.script_d, spec.R) == rp * rp * fact.script_u
            if not fact.disc_zero:
                assert fact.U.coefficient(0) != 0
        assert set(range(2, 14)) <= seen_n

    @pytest.mark.parametrize("coeffs", [
        (0, 0, 1), (0, 0, 0, -1), (0, 0, 0, 5, 0, 1),     # R'(0) = 0
        (0, 1, 2, 1),                                      # D(0) = 0 at x = -1
        (0, 1, 0, 1), (0, -2, 0, 0, 1), (0, 1, Fraction(-1, 2), Fraction(2, 3)),
        (0, Fraction(4, 3), -1, 0, 0, 0, 0, Fraction(7, 5), 0, 0, -1, Fraction(5, 2),
         Fraction(-3, 7)),
    ])
    def test_fixed_shapes_match_q_route(self, coeffs):
        assert_matches_q_route(ProblemSpec(x_poly(*coeffs)))

    def test_random_match_q_route(self):
        # rational, non-monic and leading-minus R of degree 2..13
        rng = random.Random(20201)
        for _ in range(40):
            assert_matches_q_route(rand_problem(rng, max_n=13))

    def test_wrong_chi_fails_the_division(self, monkeypatch):
        # a chi that is not det(tI - A) leaves chi(H) a remainder modulo G
        break_chi(monkeypatch)
        for spec in (trinomial(2, 1), trinomial(4, 1), ProblemSpec(x_poly(0, 0, 0, -1))):
            with pytest.raises(NonExactDivisionError):
                factorize(spec)

    def test_wrong_chi_fails_the_short_division(self, monkeypatch):
        # abel_ode divides chi(H) by G itself, digit by digit, and refuses
        # the remainder the same wrong chi leaves
        break_chi(monkeypatch)
        for spec in (trinomial(2, 1), trinomial(4, 1), ProblemSpec(x_poly(0, 0, 0, -1)),
                     ProblemSpec(x_poly(0, Fraction(4, 3), -1, 0, 0, Fraction(-3, 7)))):
            with pytest.raises(NonExactDivisionError):
                abel_ode(spec)

    def test_equations_need_no_factorization(self, monkeypatch):
        # the first-order equation, the tower, the linear equation and the
        # verbs built on them never ask for the cofactor U
        def refuse(spec):
            raise AssertionError("factorize called")

        monkeypatch.setattr(derive, "factorize", refuse)
        _memo.clear()
        spec = ProblemSpec(x_poly(0, Fraction(4, 3), -1, 0, Fraction(7, 5), Fraction(-3, 7)))
        assert abel_ode(spec).D.degree == 4
        assert len(derivative_tower(spec)) == 4
        assert linear_ode(spec).order == 4
        for cmd in (Command("derive-abel", problem="-3/7x^5+7/5x^4-x^2+4/3x", timing=False),
                    Command("derive-linear", problem="x^4-2x^3+3x", timing=False),
                    Command("series", problem="2x^3+x^2-x", order=8, timing=False)):
            report, code = run(cmd)
            assert (report.status, code) == ("ok", 0), cmd.verb

    def test_script_d_positive_after_zero(self):
        rng = random.Random(777)
        for _ in range(30):
            fact = factorize(rand_problem(rng, max_n=5))
            assert fact.script_d.trailing() > 0


_integrand_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def integrand_inputs(draw):
    """(fact, weight) for ``build_integrands``: R of degree 2..6 with
    rational, non-monic coefficients, R'(0) = 0 and D(0) = 0 among them,
    and a weight of degree 0..2, w(0) = 0 among them.  Half the R are
    built as the integral of (x - b) T, so that D has the rational root
    R(b); half of those weights carry the factor q - R(b)."""
    n = draw(st.integers(min_value=2, max_value=6))
    lead = _integrand_coeffs.filter(bool)
    if draw(st.booleans()):
        cs = [0, *draw(st.lists(_integrand_coeffs, min_size=n - 1, max_size=n - 1)), draw(lead)]
        r, root = x_poly(*cs), None
    else:
        b = draw(_integrand_coeffs)
        t = x_poly(*draw(st.lists(_integrand_coeffs, min_size=n - 2, max_size=n - 2)), draw(lead))
        rp = t * x_poly(-b, 1)
        r = x_poly(0, *(Fraction(c, k) for k, c in enumerate(rp.coeffs, 1)))
        root = r(b)
    fact = factorize(ProblemSpec(r))
    shared = root is not None and draw(st.booleans())
    size = 2 if shared else draw(st.integers(min_value=1, max_value=3))
    weight = q_poly(*draw(st.lists(_integrand_coeffs, min_size=size - 1, max_size=size - 1)),
                    draw(lead))
    if shared:
        assert fact.D(root) == 0
        weight = weight * q_poly(-root, 1)
    return fact, weight


def reference_integrands(fact, weight, kind, surd):
    """The (lhs, rhs) triples of ``build_integrands`` from UPoly arithmetic,
    each square pair reduced through the gcd (``reduced``)."""
    r = fact.problem.R
    wr = UPoly.zero("x")
    for c in reversed(weight.coeffs):
        wr = wr * r + c
    if kind == "corollary2":
        return (wr, r.derivative() * fact.U, None), (weight, fact.D, None)
    remark2 = weight.coefficient(0) == 0 or fact.sign_rp0 == 0 or fact.disc_zero
    sign = wr * r.derivative() if remark2 else wr * fact.sign_rp0
    return ((*reduced(wr * wr * surd, fact.script_u), sign),
            (*reduced(weight * weight * surd, fact.script_d), weight))


class TestIntegrands:
    def test_theorem1_squares_reduced(self):
        fact = factorize(trinomial(3, 1))
        weight = q_poly(1, 2)
        spec = build_integrands(fact, weight, surd=3)
        num, den = spec.lhs[:2]
        lhs_num = compose_q(weight, fact.problem.R)
        # reduced pair still represents (surd * (G(R))^2) / script_u
        assert num * fact.script_u == lhs_num * lhs_num * 3 * den
        rnum, rden = spec.rhs[:2]
        assert rnum * fact.script_d == weight * weight * 3 * rden

    def test_quintic_squares_cancel_origin_zero(self):
        fact = factorize(ProblemSpec(x_poly(0, 0, 0, 5, 0, 1)))
        spec = build_integrands(fact, q_poly(0, 5), surd=5)
        num, den = spec.lhs[:2]
        assert num == x_poly(0, 0, 0, 0, 1)
        assert den == x_poly(12, 0, -8, 0, 4, 0, 1)
        rnum, rden = spec.rhs[:2]
        assert rnum == q_poly(1)
        assert rden == 25 * q_poly(108, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(integrand_inputs(), st.sampled_from([1, 2, 3, 5]),
           st.sampled_from(["theorem1", "corollary2"]))
    def test_matches_full_reduction(self, case, surd, kind):
        # the x-side pair skips its gcd when the q side's is 1; the triples
        # must be those of the full reduction either way
        fact, weight = case
        try:
            spec = build_integrands(fact, weight, kind, surd=surd)
        except DomainError:
            return
        assert (spec.lhs, spec.rhs) == reference_integrands(fact, weight, kind, surd)

    def test_x_side_keeps_its_gcd(self):
        # w = q - 2 divides D of x^3 - 3x (the critical value at x = -1),
        # so the q-side gcd is q - 2 and the x side has its own, x - 2:
        # w(R) = (x + 1)^2 (x - 2) and U is a multiple of (x - 2)(x + 2)
        fact = factorize(ProblemSpec(x_poly(0, -3, 0, 1)))
        spec = build_integrands(fact, q_poly(-2, 1))
        assert spec.lhs[1] == x_poly(6, 3)
        assert spec.rhs[1] == q_poly(54, 27)
        assert (spec.lhs, spec.rhs) == reference_integrands(fact, q_poly(-2, 1), "theorem1", 1)

    def test_remark2_derived(self):
        # the relaxed sign rule holds for theorem1 exactly when w(0) = 0,
        # R'(0) = 0 or D(0) = 0; a corollary2 pair never takes it
        cases = [
            (x_poly(0, 0, 0, 5, 0, 1), q_poly(0, 5), True),   # R'(0) = 0
            (x_poly(0, 1, 2, 1), q_poly(1), True),            # D(0) = 0
            (x_poly(0, 1, 0, 1), q_poly(0, 1), True),         # w(0) = 0
            (x_poly(0, 1, 0, 1), q_poly(1), False),
            (x_poly(0, 1, 0, 1), q_poly(2, 1), False),
            (x_poly(0, 2, 0, 0, 1), q_poly(-1, 0, 3), False),
        ]
        for r, weight, relaxed in cases:
            fact = factorize(ProblemSpec(r))
            assert build_integrands(fact, weight).remark2 is relaxed
            if not fact.disc_zero:
                assert build_integrands(fact, weight, "corollary2").remark2 is False

    def test_rational_kind_needs_simple_roots(self):
        fact = factorize(ProblemSpec(x_poly(0, 0, 0, 5, 0, 1)))
        with pytest.raises(DomainError):
            build_integrands(fact, q_poly(1), "corollary2")

    def test_rational_kind_denominators(self):
        fact = factorize(trinomial(2, 1))
        spec = build_integrands(fact, q_poly(1), "corollary2")
        assert spec.lhs[1] == x_poly(1, 2)
        assert spec.rhs[1] == q_poly(1, 4)
        assert spec.kind == "corollary2"

    REMARK2_CASES = [
        (x_poly(0, 0, 0, 5, 0, 1), q_poly(0, 5)),   # R'(0) = 0
        (x_poly(0, 1, 2, 1), q_poly(1)),            # D(0) = 0
        (x_poly(0, 1, 0, 1), q_poly(0, 1)),         # w(0) = 0
        (x_poly(0, 1, 0, 1), q_poly(1)),
        (x_poly(0, 1, 0, 1), q_poly(2, 1)),
        (x_poly(0, 2, 0, 0, 1), q_poly(-1, 0, 3)),
    ]

    def test_theorem1_sign_polynomials(self):
        # the sign rule lives in the triples: sign(R'(0)) w(R) on the x
        # side, or w(R) R' under Remark 2, and w on the q side
        for r, weight in self.REMARK2_CASES:
            fact = factorize(ProblemSpec(r))
            spec = build_integrands(fact, weight)
            wr = compose_q(weight, r)
            want = wr * r.derivative() if spec.remark2 else wr * fact.sign_rp0
            assert spec.lhs[2] == want
            assert spec.rhs[2] == weight

    def test_corollary2_triples(self):
        for r, weight in self.REMARK2_CASES:
            fact = factorize(ProblemSpec(r))
            if fact.disc_zero:
                continue
            spec = build_integrands(fact, weight, "corollary2")
            assert spec.lhs == (compose_q(weight, r), r.derivative() * fact.U, None)
            assert spec.rhs == (weight, fact.D, None)

    def test_weight_validation(self):
        fact = factorize(trinomial(2, 1))
        with pytest.raises(ValueError):
            build_integrands(fact, x_poly(0, 1))
        with pytest.raises(ValueError):
            build_integrands(fact, UPoly.zero("q"))
        with pytest.raises(ValueError):
            build_integrands(fact, q_poly(1), surd=0)
        with pytest.raises(ValueError):
            build_integrands(fact, q_poly(1), kind="nope")


def split_reference(polys):
    """(s, ints) with polys[i] = s ints[i]: rational lists, not all zero,
    over their common denominator with the joint content divided out."""
    den = lcm(*(Fraction(c).denominator for p in polys for c in p))
    ints = [[int(c * den) for c in p] for p in polys]
    g = gcd(*(c for p in ints for c in p))
    return Fraction(g, den), [[c // g for c in p] for p in ints]


_pair_entry = st.one_of(st.integers(-10**6, 10**6),
                        st.fractions(min_value=-50, max_value=50, max_denominator=12).map(_rat))


@st.composite
def pair_lists(draw):
    """Lists of canonical rationals or of ints alone, not all zero."""
    entry = draw(st.sampled_from([_pair_entry, st.integers(-10**9, 10**9)]))
    polys = draw(st.lists(st.lists(entry, max_size=6), min_size=1, max_size=4))
    if not any(any(p) for p in polys):
        polys[0] = polys[0] + [draw(st.sampled_from([-3, 1, Fraction(5, 7)]))]
    return polys


class TestPrimitivePair:
    @settings(max_examples=200, deadline=None)
    @given(pair_lists(), st.one_of(st.sampled_from([1, -1, 6, -4]),
                                   st.fractions(min_value=-20, max_value=20).filter(bool)))
    def test_scale_times_primitive_ints(self, polys, scale):
        s, ints = derive._primitive_pair(scale, polys)
        assert s > 0
        assert len(ints) == len(polys)
        for p, row in zip(polys, ints):
            assert type(row) is tuple and len(row) == len(p)
            assert all(type(c) is int and s * c == scale * a for a, c in zip(p, row))
        assert gcd(*(c for row in ints for c in row)) == 1
        if scale == 1:
            assert (s, [list(row) for row in ints]) == split_reference(polys)

    @settings(max_examples=60, deadline=None)
    @given(integrand_inputs(), st.sampled_from([1, 2, 3, 5]))
    def test_build_integrands_lists(self, case, surd):
        # the q-side and x-side squares build_integrands splits, each over
        # its script_d or script_u, give the lists of the common-denominator
        # split
        fact, weight = case
        wr = compose_q(weight, fact.problem.R)
        for polys in ([derive._square(weight, surd), fact.script_d.coeffs],
                      [derive._square(wr, surd), fact.script_u.coeffs]):
            s, ints = derive._primitive_pair(1, polys)
            assert (s, [list(row) for row in ints]) == split_reference(polys)


_abel_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def abel_problems(draw):
    """R of degree 2..13 with R(0) = 0: rational and non-monic, with lead
    -1, x^n, and trinomials x^n + p x."""
    n = draw(st.integers(min_value=2, max_value=MAX_DEGREE))
    shape = draw(st.sampled_from(("rational", "minus", "power", "trinomial")))
    if shape == "power":
        return ProblemSpec(UPoly.monomial("x", n))
    if shape == "trinomial":
        return trinomial(n, draw(_abel_coeffs.filter(bool)))
    lower = draw(st.lists(_abel_coeffs, min_size=n - 1, max_size=n - 1))
    lead = -1 if shape == "minus" else draw(_abel_coeffs.filter(bool))
    return ProblemSpec(UPoly("x", [0, *lower, lead]))


def trimmed(lists):
    """Integer lists without trailing zeros, and the list of them without
    trailing empty ones: the polynomials they stand for."""
    out = [list(p) for p in lists]
    for p in out:
        while p and not p[-1]:
            p.pop()
    while out and not out[-1]:
        out.pop()
    return out


class TestAbel:
    @settings(max_examples=40, deadline=None)
    @given(abel_problems())
    def test_short_division_digits_match_the_quotient(self, spec):
        # the digits of chi(H) / G by short division against the H-adic
        # digits of the quotient built in full: chi(H) by Horner, one monic
        # division by G, then monic divisions by H.  The short division's
        # top digit e_m is 0 (chi is monic of degree m, deg G >= 1), which
        # the expansion of the quotient leaves out
        D, chi, H, G, *_ = derive._frame(spec.R)
        digits = derive._short_division(chi, H, G)
        assert len(digits) == len(chi) and not any(digits[-1])
        assert all(len(e) <= spec.n for e in digits)
        f = [1]
        for c in reversed(chi[:-1]):
            f = _mul(f, H)
            f[0] += c
        f, rem = _monic_divmod(f, G)
        assert not any(rem)
        want = []
        while f:
            f, e = _monic_divmod(f, H)
            want.append(e)
        assert trimmed(digits) == trimmed(want)
        # the equation on integers: positive scalars, primitive lists
        ode = abel_ode(spec)
        assert ode.sd > 0 and ode.sw > 0
        assert gcd(*ode.dh) == 1 and gcd(*(c for w in ode.wh for c in w)) == 1
        assert UPoly("q", [ode.sd * c for c in ode.dh]) == ode.D
        assert ode.W == tuple(UPoly("q", [ode.sw * c for c in w]) for w in ode.wh)
        # frozen and hashable, and a fresh equal object hashes alike
        fresh = abel_ode.__wrapped__(spec)
        assert fresh is not ode and fresh == ode and hash(fresh) == hash(ode)

    def test_quadratic_display(self):
        ode = abel_ode(trinomial(2, 1))
        assert_quotients(abel_numerators(ode), ode.D, [q_poly(1), q_poly(2)], q_poly(1, 4))
        assert ode.a[1] == (q_poly(2), q_poly(1, 4))

    def test_cubic_display(self):
        ode = abel_ode(trinomial(3, 1))
        den = q_poly(4, 0, 27)
        assert_quotients(
            abel_numerators(ode), ode.D, [q_poly(4), q_poly(0, 9), q_poly(6)], den
        )
        assert ode.a[1] == (q_poly(0, 9), den)

    def test_cubic_display_general_p(self):
        p = Fraction(3, 2)
        ode = abel_ode(trinomial(3, p))
        den = q_poly(4 * p**3, 0, 27)
        assert_quotients(
            abel_numerators(ode), ode.D, [q_poly(4 * p**2), q_poly(0, 9), q_poly(6 * p)], den
        )
        # the reduced pair has integer content 1: 9/(27q^2 + 27/2) = 2/(6q^2 + 3)
        assert ode.a[0] == (q_poly(2), q_poly(3, 0, 6))

    def test_quartic_display(self):
        ode = abel_ode(trinomial(4, 1))
        den = q_poly(27, 0, 0, 256)
        assert_quotients(
            abel_numerators(ode),
            ode.D,
            [q_poly(27), q_poly(0, 0, 64), q_poly(0, 48), q_poly(36)],
            den,
        )

    def test_zero_coefficient_pair(self):
        # x' = x^3/(8q^2+2q) + (2q+1)x/(8q^2+2q) for R = x^4 + x^2: the
        # missing even powers give the pair (0, 1)
        ode = abel_ode(ProblemSpec(x_poly(0, 0, 1, 0, 1)))
        assert not ode.W[2]
        assert ode.a[2] == (UPoly.zero("q"), q_poly(1))
        assert ode.a[1] == (q_poly(1, 2), q_poly(0, 2, 8))

    def test_substitution_certificate(self):
        # W(x, R(x)) = R'U exactly: W is R'U modulo R(x) - q
        rng = random.Random(9)
        for _ in range(20):
            spec = rand_problem(rng, max_n=8)
            ode = abel_ode(spec)
            back = sum((compose_q(w, spec.R) * UPoly.monomial("x", j)
                        for j, w in enumerate(ode.W)), x_poly())
            assert back == spec.rprime() * factorize(spec).U
            assert len(ode.W) == spec.n

    def test_nonmonic_is_q_scaled(self):
        # c R(x) = q is R(x) = q/c, so the branch for c R is x(q/c) and its
        # k-th derivative c^-k x^(k)(q/c)
        for coeffs, c in (((0, 1, 0, 1), 2), ((0, 1, 0, 1), Fraction(-1, 3)),
                          ((0, 1, 2), Fraction(1, 2)), ((0, 3, -2, 0, 1), Fraction(5, 2)),
                          ((0, 2, Fraction(1, 2), -1, 0, 1), Fraction(-7, 4))):
            spec, scaled = ProblemSpec(x_poly(*coeffs)), ProblemSpec(x_poly(*coeffs) * c)
            ode, ode_c = abel_ode(spec), abel_ode(scaled)
            for (num, den), got in zip(ode.a, ode_c.a, strict=True):
                want = normal_form([at_q_over(num, c), at_q_over(den, c) * c], anchor=1)
                assert list(got) == want
            lin = linear_ode(spec)
            assert not lin.ambiguous
            want = [at_q_over(b, c) * Fraction(c) ** k for k, b in enumerate(lin.b)]
            want.append(at_q_over(lin.inhomogeneous, c))
            assert linear_ode(scaled).vector() == normal_form(want, anchor=lin.order)

    def test_coefficients_normalised_once_on_demand(self):
        # a fresh AbelODE, not one whose pairs an earlier test normalised;
        # abel_ode leaves them uncomputed, the first read stores them on the
        # instance, and every later read, through the memo too, returns them
        _memo.clear()
        ode = abel_ode(trinomial(4, 1))
        assert "a" not in vars(ode)
        first = ode.a
        assert len(first) == len(ode.W) == 4
        assert vars(ode)["a"] is first
        assert ode.a is first
        assert abel_ode(trinomial(4, 1)).a is first


def _reference_tower(spec):
    """The tower by an independent route, in Q[x] alone: along the branch
    x^(k) = f_k(x) / D(R(x))^k with f_1 = R'U and

        f_{k+1} = R'U f_k' - k D'(R(x)) f_k,

    and B_k is f_k modulo P, read off its R-adic digits f_k = sum_m c_m R^m
    as B_k[j] = sum_m c_m[j] q^m."""
    fact = factorize(spec)
    ru = spec.rprime() * fact.U
    dp = compose_q(fact.D.derivative(), spec.R)
    f, raw = ru, []
    for k in range(1, spec.n):
        if k > 1:
            f = ru * f.derivative() - (k - 1) * dp * f
        digits = r_adic_digits(f, spec.R)
        raw.append(tuple(UPoly("q", [c.coefficient(j) for c in digits]) for j in range(spec.n)))
    return raw


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def monic_problems(draw, max_n=7):
    """Monic R of degree 2..max_n with R(0) = 0 and small rational coefficients."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    lower = draw(st.lists(st.just(Fraction(0)) | small_rationals, min_size=n - 1, max_size=n - 1))
    return ProblemSpec(UPoly("x", [0, *lower, 1]))


@st.composite
def rational_problems(draw, max_n=7):
    """R of degree 2..max_n with R(0) = 0, small rational coefficients and
    any nonzero lead."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    lower = draw(st.lists(st.just(Fraction(0)) | small_rationals, min_size=n - 1, max_size=n - 1))
    lead = draw(small_rationals.filter(bool))
    return ProblemSpec(UPoly("x", [0, *lower, lead]))


@st.composite
def wide_lead_problems(draw, max_n=7):
    """Rational R of degree 2..max_n with R(0) = 0 whose R_Z, R with its
    denominators cleared, has a leading coefficient other than +-1."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    lower = draw(st.lists(st.just(Fraction(0)) | small_rationals, min_size=n - 1, max_size=n - 1))
    lead = draw(st.sampled_from((2, -3, Fraction(5, 2), Fraction(-4, 3))))
    return ProblemSpec(UPoly("x", [0, *lower, lead]))


class TestTower:
    @settings(max_examples=30, deadline=None)
    @given(wide_lead_problems())
    def test_integer_rows_primitive_and_scaled(self, spec):
        # the reduction modulo P multiplies by lc(R_Z); each integer row
        # keeps content 1, and its scalar times it is the reference row
        assert abs(_integer_coeffs(spec.R.coeffs)[1][-1]) > 1
        sd, dh, scalars, rows = derive._tower(spec)
        assert UPoly("q", [sd * c for c in dh]) == abel_ode(spec).D
        assert len(rows) == len(scalars) == spec.n - 1
        for sk, row, want in zip(scalars, rows, _reference_tower(spec), strict=True):
            assert len(row) == spec.n
            assert gcd(*(c for p in row for c in p)) == 1
            assert tuple(UPoly("q", [sk * c for c in p]) for p in row) == want

    @settings(max_examples=40, deadline=None)
    @given(rational_problems(max_n=8))
    def test_matches_reference(self, spec):
        # rational and non-monic R exercise the reduction modulo P / lc(R)
        tower = derivative_tower(spec)
        assert type(tower) is tuple
        for row in (abel_ode(spec).W, *tower):
            assert type(row) is tuple and len(row) == spec.n
            assert all(isinstance(p, UPoly) and p.var == "q" for p in row)
        assert list(tower) == _reference_tower(spec)

    def test_first_row_is_abel(self):
        spec = trinomial(3, 1)
        tower = derivative_tower(spec)
        assert tower[0] == abel_ode(spec).W

    def test_cubic_second_derivative_fixture(self):
        # x'' = (-162qx^2 + (12-162q^2)x - 108q) / (4+27q^2)^2 at p=1
        spec = trinomial(3, 1)
        b2 = derivative_tower(spec)[1]
        assert_quotients(
            list(b2),
            abel_ode(spec).D ** 2,
            [q_poly(0, -108), q_poly(12, 0, -162), q_poly(0, -162)],
            q_poly(4, 0, 27) ** 2,
        )

    def test_rows_stay_reduced(self):
        rng = random.Random(31)
        for _ in range(10):
            spec = rand_problem(rng, max_n=6)
            tower = derivative_tower(spec)
            assert len(tower) == spec.n - 1
            for bk in tower:
                assert len(bk) == spec.n

    def test_series_satisfies_tower_rows(self):
        # substitute the exact branch series into x^(k) = sum a_kj x^j
        for n, p in ((3, 1), (4, 2), (5, 1)):
            spec = trinomial(n, p)
            order = 12
            tower = derivative_tower(spec)
            D = abel_ode(spec).D
            s = lagrange_series(spec, order)
            dense = [Fraction(0)] + list(s)

            def mul(a, b, m=order):
                out = [Fraction(0)] * (m + 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b[: m + 1 - i]):
                            if bj:
                                out[i + j] += ai * bj
                return out

            deriv = dense
            for k in range(1, len(tower) + 1):
                deriv = [i * deriv[i] for i in range(1, len(deriv))]
                # rhs_num = sum_j B_k[j] * S^j must equal deriv * D^k as series
                dk = D ** k
                rhs = [Fraction(0)] * (order + 1)
                power = [Fraction(1)] + [Fraction(0)] * order
                bk = tower[k - 1]
                for bkj in bk:
                    cj = list(bkj.coeffs)
                    rhs = [r + t for r, t in zip(rhs, mul(cj + [Fraction(0)] * order, power))]
                    power = mul(power, dense)
                lhs = mul(list(deriv) + [Fraction(0)], list(dk.coeffs) + [Fraction(0)] * order)
                # deriv is exact only through q^(order-k)
                keep = order - k
                assert keep > 1
                assert lhs[: keep + 1] == rhs[: keep + 1]


class TestLinearODE:
    def test_quadratic(self):
        ode = linear_ode(trinomial(2, 1))
        assert ode.order == 1
        assert ode.b == (q_poly(-2), q_poly(1, 4))
        assert ode.inhomogeneous == q_poly(-1)

    def test_cubic_matches_classical(self):
        ode = linear_ode(trinomial(3, 1))
        assert ode.b == (q_poly(-3), q_poly(0, 27), q_poly(4, 0, 27))
        assert not ode.inhomogeneous
        assert not ode.ambiguous

    def test_table_various_p(self):
        # x^n + p x = q: b_0 .. b_{n-1} of the classical table; only the
        # constant term of the top coefficient depends on p, as c p^n
        table = {
            3: ((-3,), (0, 27), (4, 0, 27)),
            4: ((-40,), (0, 688), (0, 0, 1152), (27, 0, 0, 256)),
            5: ((-1155,), (0, 31875), (0, 0, 73125), (0, 0, 0, 31250),
                (256, 0, 0, 0, 3125)),
            6: ((-57456,), (0, 2307456), (0, 0, 6658200), (0, 0, 0, 4153680),
                (0, 0, 0, 0, 816480), (3125, 0, 0, 0, 0, 46656)),
        }
        cases = [(n, 1) for n in table] + [(n, p) for p in (2, Fraction(1, 2), -1) for n in (3, 4)]
        for n, p in cases:
            *lower, top = (q_poly(*cs) for cs in table[n])
            top = top + (p**n - 1) * top.coefficient(0)
            want = normal_form([*lower, top, UPoly.zero("q")], anchor=n - 1)
            got = linear_ode(trinomial(n, p))
            assert got.order == n - 1
            assert got.vector() == want

    def test_remark5_nonhomogeneous(self):
        for s in (1, 2):
            ode = linear_ode(ProblemSpec(x_poly(0, 1, s, 1)))
            assert ode.b == (
                q_poly(-3),
                q_poly(9 * s - 2 * s**3, 27),
                q_poly(4 - s * s, 18 * s - 4 * s**3, 27),
            )
            assert ode.inhomogeneous == q_poly(-s)

    def test_annihilator_certificate(self):
        rng = random.Random(61)
        for _ in range(8):
            spec = rand_problem(rng, max_n=5)
            try:
                ode = linear_ode(spec)
            except Exception:
                raise AssertionError(f"derivation failed for {spec.R}")
            tower = derivative_tower(spec)
            D = abel_ode(spec).D
            n = spec.n
            # x^(k) = B_k / D^k; the x^j constraint multiplied through by D^(n-1)
            for j in range(n):
                acc = UPoly.zero("q")
                if j == 1:
                    acc = acc + ode.b[0] * D ** (n - 1)
                if j == 0:
                    acc = acc + ode.inhomogeneous * D ** (n - 1)
                for k in range(1, n):
                    acc = acc + ode.b[k] * tower[k - 1][j] * D ** (n - 1 - k)
                assert not acc, f"power x^{j} not annihilated for {spec.R}"

    @settings(max_examples=40, deadline=None)
    @given(monic_problems(max_n=6))
    def test_normalization_idempotent(self, spec):
        # renormalising what linear_ode returns changes nothing
        ode = linear_ode(spec)
        assert normal_form(ode.vector(), anchor=ode.order) == ode.vector()

    def test_normal_form_properties(self):
        rng = random.Random(44)
        for _ in range(10):
            ode = linear_ode(rand_problem(rng, max_n=5))
            assert ode.b[ode.order].lc > 0
            for poly in ode.vector():
                for c in poly.coeffs:
                    assert c.denominator == 1

    def test_kernel_dimension_above_one_pinned(self):
        # the minimal-degree representative chosen among the kernel vectors;
        # its order is that of its highest nonzero coefficient, below n-1
        expected = {
            (0, -1, 2, -2, 1): (2, "(64*q^2 + 28*q + 3)*x'' + (64*q + 14)*x' - 4*x + 2 = 0"),
            (0, 0, 1, 0, 1): (2, "(16*q^2 + 4*q)*x'' + (16*q + 2)*x' - x = 0"),
            (0, 0, 1, 0, 0, 0, 1): (
                3,
                "(216*q^3 + 32*q)*x''' + (972*q^2 + 48)*x'' + 606*q*x' - 21*x = 0",
            ),
        }
        for coeffs, (order, text) in expected.items():
            ode = linear_ode(ProblemSpec(x_poly(*coeffs)))
            assert ode.ambiguous
            assert ode.order == order
            assert ode.b[ode.order] != 0
            assert ode.b[ode.order].lc > 0
            assert normal_form(ode.vector(), anchor=ode.order) == ode.vector()
            assert text_linear(ode) == text

    def test_dense_octic_annihilates_its_series(self):
        # the dense octic's tower rows reach 292-bit entries of q-degree 41
        spec = ProblemSpec(x_poly(0, 5, 0, 1, 0, -2, 0, 3, 1))
        ode = linear_ode(spec)
        assert (ode.order, ode.ambiguous) == (7, False)
        residual = series_ode_residual(ode, lagrange_series(spec, 60))
        assert len(residual) > 20
        assert not any(residual)

    @settings(max_examples=30, deadline=None)
    @given(monic_problems(max_n=6))
    def test_divisor_matches_plain_elimination(self, spec):
        # dividing the known powers of D out of the kernel's elimination
        # changes no answer
        def plain_kernel(rows, ncols, divisor):
            return _kernel(rows, ncols)

        # each side computed afresh, not read back from the memo
        _memo.clear()
        with mock.patch.object(derive, "_kernel", plain_kernel):
            plain = linear_ode(spec)
        _memo.clear()
        assert linear_ode(spec) == plain

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            LinearODE(2, (q_poly(1),), UPoly.zero("q"))


def annihilates(rows, v):
    return all(not sum((a * b for a, b in zip(row, v)), UPoly.zero("q")) for row in rows)


def _reference_kernel(rows, ncols):
    """Fraction-free Gauss-Jordan updating every entry of every row."""
    m = [list(r) for r in rows]
    pivots, prev, r = {}, UPoly.one("q"), 0
    for c in range(ncols):
        if r == len(m):
            break
        prow = next((i for i in range(r, len(m)) if m[i][c]), None)
        if prow is None:
            continue
        m[r], m[prow] = m[prow], m[r]
        piv = m[r][c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [qexact_div(piv * e - f * g, prev) for e, g in zip(m[i], m[r])]
        prev, pivots[c], r = piv, r, r + 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [UPoly.zero("q")] * ncols
        v[f] = prev
        for c, rr in pivots.items():
            v[c] = -m[rr][f]
        basis.append(v)
    return basis


def int_rows(rows):
    """Rows of integral ``UPoly`` as the integer lists ``_kernel`` takes."""
    return [[list(p.coeffs) for p in row] for row in rows]


def kernel(rows, ncols):
    """``_kernel`` on rows of integral ``UPoly``, its basis mapped back."""
    basis, ambiguous = _kernel(int_rows(rows), ncols)
    return [[UPoly("q", p) for p in v] for v in basis], ambiguous


class TestKernel:
    def test_matches_full_update_reference(self):
        # the pivot columns are set, not computed: the basis is the same
        rng = random.Random(72)
        for _ in range(40):
            nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
            rows = [[q_poly(*(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
                     for _ in range(ncols)] for _ in range(nrows)]
            if rng.random() < 0.3:
                rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
            assert kernel(rows, ncols)[0] == _reference_kernel(rows, ncols)

    def test_row_swap_and_rank_deficiency_match_reference(self):
        # column 0 is zero on the first row, so the first pivot comes from a
        # swap; the third row is a Q[q]-combination of the first two
        q = UPoly.monomial("q", 1)
        one, zero = UPoly.one("q"), UPoly.zero("q")
        r0 = [zero, 3 * q + 1, q * q - 2, 2 * one]
        r1 = [2 * q - 1, 5 * one, q, zero]
        rows = [r0, r1, [(q - 3) * a + 2 * q * b for a, b in zip(r0, r1)]]
        basis, ambiguous = kernel(rows, 4)
        assert basis == _reference_kernel(rows, 4)
        assert len(basis) == 2 and ambiguous
        assert all(annihilates(rows, v) for v in basis)

    def test_unique_kernel_vector(self):
        one = UPoly.one("q")
        q = UPoly.monomial("q", 1)
        basis, ambiguous = kernel([[one, q]], 2)
        assert not ambiguous
        assert len(basis) == 1
        v = basis[0]
        assert any(v)
        assert annihilates([[one, q]], v)

    def test_full_rank_has_empty_kernel(self):
        one = UPoly.one("q")
        zero = UPoly.zero("q")
        basis, ambiguous = kernel([[one, zero], [zero, one]], 2)
        assert basis == []
        assert not ambiguous

    def test_two_free_columns_flagged_ambiguous(self):
        one = UPoly.one("q")
        basis, ambiguous = kernel([[one, one, one]], 3)
        assert len(basis) == 2
        assert ambiguous
        assert all(annihilates([[one, one, one]], v) for v in basis)

    def test_fraction_free_divisions_exact(self):
        # rank 2 over Q[q] with a row swap and non-unit pivots: every
        # division is exact and each basis vector annihilates every row
        q = UPoly.monomial("q", 1)
        one, zero = UPoly.one("q"), UPoly.zero("q")
        r0 = [zero, q + 1, q * q, one]
        r1 = [q, 2 * one, zero, q - 1]
        rows = [r0, r1, [q * a + (q + 2) * b for a, b in zip(r0, r1)]]
        basis, ambiguous = kernel(rows, 4)
        assert len(basis) == 2 and ambiguous
        for v in basis:
            assert any(v)
            assert annihilates(rows, v)

    def test_inexact_division_raises(self):
        # a divisor that the minors do not carry is refused, not rounded
        q = UPoly.monomial("q", 1)
        rows = int_rows([[q, q + 1, 2 * q], [q + 2, 3 * q, q * q]])
        with pytest.raises(NonExactDivisionError):
            _kernel(rows, 3, [1, 1])


class TestMemo:
    def test_entry_points_stay_plain_functions(self):
        # a tracer that wraps each public function of a module still finds
        # the memoized entry points under their own module
        for fn in (factorize, abel_ode, linear_ode):
            assert inspect.isfunction(fn)
            assert fn.__module__ == "rootode.derive"

    @settings(max_examples=25, deadline=None)
    @given(rational_problems())
    def test_memoized_equals_fresh(self, spec):
        calls = [(factorize, spec), (abel_ode, spec), (linear_ode, spec)]
        calls += [(_nearest_root, p, side)
                  for p in (factorize(spec).D, spec.rprime()) for side in (1, -1)]
        first = [f(*args) for f, *args in calls]
        assert all(f(*args) is out for (f, *args), out in zip(calls, first))
        _memo.clear()
        assert [f.__wrapped__(*args) for f, *args in calls] == first

    def test_table_stays_bounded(self):
        _memo.clear()
        for k in range(1, _memo.SIZE + 20):
            factorize(ProblemSpec(x_poly(0, k, 1)))
        assert _memo._call.cache_info().currsize == _memo.SIZE
