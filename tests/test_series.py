"""Branch series, ODE residual certification, hypergeometric forms."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rootode import (
    DomainError,
    ProblemSpec,
    UPoly,
    lagrange_series,
    linear_ode,
    pfq_series,
    quartic_series_2f1_product,
    quartic_series_3f2,
    series_ode_residual,
    trinomial,
)
from rootode.algebra import _horner
from rootode.cli import parse_polynomial
from rootode.numeric.series import MAX_SERIES_ORDER


def _mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def _reference_series(spec, order):
    """The branch series by recomposing R at every order: with partial sum
    S, [q^m] R(S + c_m q^m) = [q^m] R(S) + R'(0) c_m.  O(n order^3)."""
    rp0 = spec.R.coefficient(1)
    s = [Fraction(0)] * (order + 1)
    s[1] = Fraction(1) / rp0
    for m in range(2, order + 1):
        acc = [Fraction(0)] * (order + 1)
        for c in reversed(spec.R.coeffs):
            acc = _mul(acc, s, m)
            acc[0] += c
        s[m] = -acc[m] / rp0
    return tuple(s[1:])


def _defining_residual(spec, s):
    """R(S(q)) - q through the order of the series S."""
    order = len(s)
    dense = [0, *s]
    acc = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for c in spec.R.coeffs:
        acc = [u + c * v for u, v in zip(acc, power)]
        power = _mul(power, dense, order)
    acc[1] -= 1
    return acc


def _reference_residual(ode, series):
    """The residual of ``ode`` on ``series`` in Fractions, term by term."""
    m = len(series)
    degs = [p.degree for p in ode.vector() if p]
    keep = m - max(degs, default=0) - ode.order
    dense = [0, *series]
    residual = [Fraction(0)] * (keep + 1)

    def add(poly, term):
        for i, c in enumerate(poly.coeffs):
            for j, t in enumerate(term):
                if i + j > keep:
                    break
                residual[i + j] += c * t

    deriv = dense
    add(ode.b[0], deriv)
    for k in range(1, ode.order + 1):
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
        add(ode.b[k], deriv)
    add(ode.inhomogeneous, [Fraction(1)])
    return residual


def _canonical(values):
    """Every value is an int exactly where it is integral."""
    return all((type(c) is int) == (Fraction(c).denominator == 1) for c in values)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def branch_polynomials(draw):
    """R of degree 2..6 with R(0) = 0, R'(0) != 0, small rational
    coefficients (zeros included) and any nonzero leading coefficient."""
    n = draw(st.integers(min_value=2, max_value=6))
    rp0 = draw(small_rationals.filter(bool))
    middle = draw(st.lists(st.just(Fraction(0)) | small_rationals, min_size=n - 2, max_size=n - 2))
    lead = draw(small_rationals.filter(bool))
    return ProblemSpec(UPoly("x", [0, rp0, *middle, lead]))


@st.composite
def strided_polynomials(draw):
    """R = r_1 x + sum_j r_(1+jg) x^(1+jg) of degree up to 9, the exponents
    minus one sharing g in {2, 3, 4}: its series has e_i = 0 unless
    i = 1 mod g, the strided sums of lagrange_series."""
    g = draw(st.sampled_from([2, 3, 4]))
    middle = draw(st.lists(st.just(Fraction(0)) | small_rationals, max_size=8 // g - 1))
    coeffs = [0, draw(small_rationals.filter(bool))]
    for c in [*middle, draw(small_rationals.filter(bool))]:
        coeffs += [0] * (g - 1) + [c]
    return ProblemSpec(UPoly("x", coeffs))


def binomial(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(a - i, i + 1)
    return out


class TestLagrange:
    def test_catalan_numbers(self):
        s = lagrange_series(trinomial(2, 1), 8)
        # x = (sqrt(1+4q)-1)/2 has coefficients (-1)^(n-1) * Catalan(n-1)
        assert list(s[:6]) == [1, -1, 2, -5, 14, -42]

    def test_quadratic_binomial_oracle(self):
        s = lagrange_series(trinomial(2, 1), 12)
        for m, c in enumerate(s, start=1):
            assert c == binomial(Fraction(1, 2), m) * 4**m / 2

    def test_trinomial_pattern(self):
        for n, p in ((3, 2), (4, 3), (5, Fraction(1, 2))):
            s = lagrange_series(trinomial(n, p), n + 1)
            assert s[0] == Fraction(1, p)
            assert s[n - 1] == -Fraction(1, p ** (n + 1))
            assert all(c == 0 for c in s[1 : n - 1])

    def test_defining_equation(self):
        # R(S(q)) - q must vanish through the computed order
        # the last two are rational and non-monic, the first of them with
        # R'(0) < 0, at orders where a slip in the integer rescale would show
        cases = (
            ("2x^4-x^2+3x", 10),
            ("x^5+x", 200),
            ("x^5-x", 200),
            ("-3x^3+x^2-5/4x", 150),
            ("1/7x^5+3/5x^2+2/9x", 200),
        )
        for text, order in cases:
            spec = parse_polynomial(text)
            s = lagrange_series(spec, order)
            assert len(s) == order
            assert all(v == 0 for v in _defining_residual(spec, s))

    @settings(max_examples=60, deadline=None)
    @given(spec=branch_polynomials(), order=st.integers(min_value=1, max_value=30))
    def test_matches_reference(self, spec, order):
        coeffs = lagrange_series(spec, order)
        assert coeffs == _reference_series(spec, order)
        # canonical whatever R's denominators: an int exactly where integral
        assert _canonical(coeffs)

    @settings(max_examples=30, deadline=None)
    @given(spec=strided_polynomials(), order=st.integers(min_value=1, max_value=40))
    @example(spec=parse_polynomial("2x^7-1/3x^4+x"), order=40)
    def test_strided_matches_reference(self, spec, order):
        coeffs = lagrange_series(spec, order)
        assert coeffs == _reference_series(spec, order)
        assert _canonical(coeffs)

    def test_coefficients_canonical(self):
        # R'(0) = 1: Lagrange inversion over Z, every coefficient an int
        assert all(type(c) is int for c in lagrange_series(trinomial(5, 1), 40))
        halves = lagrange_series(trinomial(3, 2), 12)
        assert all(type(c) is Fraction and c.denominator > 1 for c in halves if c)

    def test_order_bounds(self):
        spec = trinomial(3, 1)
        for order in (0, MAX_SERIES_ORDER + 1):
            with pytest.raises(ValueError):
                lagrange_series(spec, order)

    def test_requires_simple_origin(self):
        with pytest.raises(DomainError):
            lagrange_series(ProblemSpec(UPoly("x", (0, 0, 1, 1))), 5)

    def test_evaluate_matches_closed_form(self):
        s = lagrange_series(trinomial(2, 1), 16)
        q = 0.03
        expect = (math.sqrt(1 + 4 * q) - 1) / 2
        assert abs(_horner((0, *s), q) - expect) < 1e-15


class TestResidual:
    def test_zero_for_derived_ode(self):
        for n in (2, 3, 4, 5):
            spec = trinomial(n, 1)
            ode = linear_ode(spec)
            s = lagrange_series(spec, 2 * n + 6)
            res = series_ode_residual(ode, s)
            assert len(res) > n
            assert all(c == 0 for c in res)

    def test_nonzero_for_wrong_ode(self):
        spec = trinomial(3, 1)
        ode = linear_ode(trinomial(3, 2))
        s = lagrange_series(spec, 12)
        assert any(c != 0 for c in series_ode_residual(ode, s))

    @settings(max_examples=40, deadline=None)
    @given(
        spec=branch_polynomials(),
        n=st.integers(min_value=2, max_value=5),
        p=small_rationals.filter(bool),
    )
    # d > 1 and |rho| > 1, with R'(0) < 0
    @example(spec=parse_polynomial("-3x^3+x^2-5/4x"), n=3, p=Fraction(2))
    @example(spec=parse_polynomial("1/7x^5+3/5x^2+2/9x"), n=4, p=Fraction(-1, 3))
    def test_matches_reference(self, spec, n, p):
        ode_spec = trinomial(n, p)
        assume(ode_spec.R != spec.R)
        s = lagrange_series(spec, 20)
        ode = linear_ode(ode_spec)
        residual = series_ode_residual(ode, s)
        assert residual == _reference_residual(ode, s)
        assert _canonical(residual)

    def test_zero_and_nonzero_entries(self):
        # the equation of x^3 + 2x on the series of x^5 - x^3 + 2x: zeros,
        # ints and fractions, each an int exactly where it is integral
        ode = linear_ode(parse_polynomial("x^3+2x"))
        s = lagrange_series(parse_polynomial("x^5-x^3+2x"), 20)
        residual = series_ode_residual(ode, s)
        assert residual == _reference_residual(ode, s)
        assert residual[:10] == [0, 24, 0, 20, 0, 0, 0, -15, 0, Fraction(-4355, 256)]
        assert type(residual[0]) is int and type(residual[9]) is Fraction
        assert _canonical(residual)

    def test_short_series_rejected(self):
        ode = linear_ode(trinomial(5, 1))
        s = lagrange_series(trinomial(5, 1), 4)
        with pytest.raises(ValueError):
            series_ode_residual(ode, s)


class TestHypergeometric:
    def test_pole_in_lower_parameter(self):
        with pytest.raises(ValueError):
            pfq_series([Fraction(1)], [Fraction(-2)], Fraction(1), 1, 8)

    def test_geometric_series(self):
        # 1F0(1; ; z) = 1/(1-z)
        s = pfq_series([Fraction(1)], [], Fraction(1), 1, 6)
        assert list(s) == [Fraction(1)] * 7

    def test_both_quartic_forms_match_lagrange(self):
        for p in (1, 2, Fraction(1, 2)):
            s = lagrange_series(trinomial(4, p), 12)
            for form in (quartic_series_3f2, quartic_series_2f1_product):
                t = form(p, 12)
                assert t == s
                assert _canonical(t)
