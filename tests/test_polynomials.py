"""Exact polynomial arithmetic: ring laws, division, gcd, resultants,
discriminants."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootode import algebra
from rootode.algebra import (
    _P,
    _add,
    _chi,
    _frame,
    _gcd,
    _horner,
    _monic_divmod,
    _mul,
    _ratio,
    UPoly,
    compose_q,
    discriminant,
)
from rootode.derive import ProblemSpec, linear_ode
from rootode.errors import DomainError, NonExactDivisionError, VariableMismatchError

from q_division import qdivmod, qexact_div, qmonic, rational_euclid


def rand_poly(rng, var="x", max_deg=6, lo=-9, hi=9, nonzero=False):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(deg + 1)]
    p = UPoly(var, coeffs)
    if nonzero and not p:
        return p + 1
    return p


# -- references on plain Fraction lists (ascending, trailing zeros trimmed) --


def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, b), [c])
    return acc


def _canonical(p):
    """Every coefficient an int where integral, else a reduced Fraction."""
    return all(type(c) is int if c.denominator == 1 else type(c) is Fraction
               for c in p.coeffs)


_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))
_coeff_lists = st.lists(_rationals, max_size=5)


class TestCanonicalCoefficients:
    @settings(max_examples=150, deadline=None)
    @given(_coeff_lists, _coeff_lists)
    def test_results_int_where_integral(self, a, b):
        pa, pb = UPoly("x", a), UPoly("x", b)
        ra, rb = _trim(a), _trim(b)
        results = [
            (pa + pb, _ref_add(ra, rb)),
            (pa - pb, _ref_add(ra, [-y for y in rb])),
            (pa * pb, _ref_mul(ra, rb)),
            (pa.compose(pb), _ref_compose(ra, rb)),
            (pa.derivative(), _trim(i * y for i, y in enumerate(ra) if i)),
        ]
        for got, want in results:
            assert _canonical(got), got
            assert list(got.coeffs) == want

    def test_constructor_canonicalizes(self):
        p = UPoly("q", (Fraction(4, 2), Fraction(1, 3), True, 0))
        assert [type(c) for c in p.coeffs] == [int, Fraction, int]
        assert p.coefficient(7) == 0 and type(p.coefficient(7)) is int
        with pytest.raises(TypeError):
            UPoly("x", (0.5,))


class TestUPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert UPoly("x", (1, 2, 0, 0)) == UPoly("x", (1, 2))

    def test_zero_degree_is_minus_one(self):
        assert UPoly.zero("x").degree == -1
        assert not UPoly.zero("x")

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            UPoly("x", (0.5, 1))

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            UPoly("y", (1,))

    def test_immutable(self):
        p = UPoly("x", (1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_mixed_variable_arithmetic_rejected(self):
        with pytest.raises(VariableMismatchError):
            UPoly("x", (1,)) + UPoly("q", (1,))

    def test_call_exact_and_float(self):
        p = UPoly("x", (1, -2, 3))
        assert p(Fraction(1, 2)) == Fraction(3, 4)
        assert p(0.5) == pytest.approx(0.75)

    def test_horner_on_float_coeffs_is_call_on_a_float(self):
        # float + Fraction converts the Fraction to a float first, so the
        # numeric layer's evaluator gives the same bits as UPoly.__call__
        rng = random.Random(5)
        for _ in range(50):
            p = UPoly("x", [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(rng.randint(1, 8))])
            for t in (rng.uniform(-3, 3), 1e200, -math.inf, math.nan):
                assert repr(_horner(p.float_coeffs(), t)) == repr(p(t))

    def test_float_coeffs_beyond_range(self):
        for c in (10**400, Fraction(-10**400, 3)):
            with pytest.raises(DomainError, match="float range"):
                UPoly("q", (1, c)).float_coeffs()
        # a rational too small for a float rounds to 0.0
        assert UPoly("q", (Fraction(1, 10**400), 1)).float_coeffs() == (0.0, 1.0)

    def test_str_descending(self):
        assert str(UPoly("q", (4, 0, 27))) == "27*q^2+4"
        assert str(UPoly.zero("q")) == "0"


class TestRingLaws:
    def test_ring_axioms_random(self):
        rng = random.Random(20260823)
        for _ in range(200):
            a = rand_poly(rng)
            b = rand_poly(rng)
            c = rand_poly(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == UPoly.zero("x")
            assert a * UPoly.one("x") == a

    def test_degree_of_product(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_poly(rng, nonzero=True)
            b = rand_poly(rng, nonzero=True)
            assert (a * b).degree == a.degree + b.degree

    def test_power_matches_repeated_product(self):
        p = UPoly("x", (1, 1))
        assert p**4 == p * p * p * p
        assert p**0 == UPoly.one("x")


class TestDivision:
    def test_integer_helpers_match_upoly(self):
        # _mul and _monic_divmod on int lists agree with UPoly and division
        # over Q, the remainder padded to deg b entries, or all of a when a
        # is shorter
        rng = random.Random(17)
        for _ in range(300):
            a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
            b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1]
            assert UPoly("x", _mul(a, b)) == UPoly("x", a) * UPoly("x", b)
            quo, rem = _monic_divmod(a, b)
            assert len(rem) == min(len(a), len(b) - 1)
            assert (UPoly("x", quo), UPoly("x", rem)) == qdivmod(UPoly("x", a), UPoly("x", b))

    @settings(max_examples=150, deadline=None)
    @given(*[st.lists(st.just(0) | st.integers(-2**500, 2**500), max_size=60)
             | st.lists(st.integers(-9, 9), max_size=1)] * 2)
    @example([], [1, 2])
    @example([0, 0, 0], [7])
    @example([0, 3, 0], [0, 0, -2])
    @example([(-1) ** i * 3**i * (i % 3 > 0) for i in range(60)],
             [i * 2**400 - 1 for i in range(60)])
    def test_mul_matches_reference(self, a, b):
        # empty, one-term, zero-laden and up to 60-term lists: the product
        # untrimmed, of len(a) + len(b) - 1 entries, or [] for an empty one
        got = _mul(a, b)
        assert len(got) == (len(a) + len(b) - 1 if a and b else 0)
        assert _trim(got) == _ref_mul(a, b)

    def test_ratio_is_canonical(self):
        for num, den in ((6, 3), (-6, 4), (6, -4), (0, 7), (7, 1), (-9, -3)):
            got = _ratio(num, den)
            assert got == Fraction(num, den)
            assert type(got) is (int if Fraction(num, den).denominator == 1 else Fraction)


def _int_poly(rng, max_deg):
    """A nonzero integer list of degree at most max_deg, entries in [-9, 9]."""
    return list(rand_poly(rng, max_deg=max_deg, nonzero=True).coeffs)


class TestGcd:
    """``_gcd`` on integer lists against Euclid over Q."""

    def test_known_common_factor(self):
        f = _mul(_mul([1, 1], [1, 1]), [-2, 1])
        assert _gcd(f, _mul([1, 1], [3, 1])) == [1, 1]

    def test_gcd_divides_both_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = _int_poly(rng, 4), _int_poly(rng, 4)
            g = _gcd(a, b)
            assert not qdivmod(UPoly("x", a), UPoly("x", g))[1]
            assert not qdivmod(UPoly("x", b), UPoly("x", g))[1]
            assert g[-1] > 0 and math.gcd(*g) == 1

    def test_gcd_of_coprime_is_one(self):
        assert _gcd([1, 1], [2, 1]) == [1]

    def test_matches_rational_euclid(self):
        # a planted common factor, constants among the operands
        rng = random.Random(17)
        for _ in range(150):
            g = _int_poly(rng, 2)
            a, b = _mul(_int_poly(rng, 4), g), _mul(_int_poly(rng, 4), g)
            want = rational_euclid(UPoly("x", a), UPoly("x", b))
            assert qmonic(UPoly("x", _gcd(a, b))) == want
            assert qmonic(UPoly("x", _gcd(b, a))) == want


# -- the gcd by pseudo-remainders alone, the reference for the certificate --


def _collins(a, b):
    """Primitive gcd with a positive lead of nonzero integer lists, by
    classical pseudo-remainders lc(b)^(deg a - deg b + 1) a mod b."""
    def primitive(cs):
        g = math.gcd(*cs)
        return [c // g for c in cs]

    def prem(a, b):
        r = [b[-1] ** (len(a) - len(b) + 1) * c for c in a]
        for k in range(len(r) - 1, len(b) - 2, -1):
            f = r[k] // b[-1]
            for i, y in enumerate(b):
                r[k - len(b) + 1 + i] -= f * y
        r = r[:len(b) - 1]
        while r and not r[-1]:
            r.pop()
        return r

    x, y = primitive(a), primitive(b)
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = prem(x, y)
        if not r:
            return y if y[-1] > 0 else [-c for c in y]
        x, y = y, primitive(r)
    return [1]


_gcd_coeffs = st.integers(-2**40, 2**40) | st.sampled_from([_P, -_P, 2 * _P, _P * _P, 1, -1])
_gcd_lists = st.lists(_gcd_coeffs, min_size=1, max_size=8).filter(lambda cs: cs[-1] != 0)


class TestGcdCertificate:
    """``_gcd`` returns 1 without a pseudo-remainder when Euclid modulo _P
    proves it; every other pair takes the pseudo-remainder route."""

    @pytest.fixture
    def prems(self, monkeypatch):
        calls = []
        prem = algebra._prem
        monkeypatch.setattr(algebra, "_prem", lambda a, b: calls.append(1) or prem(a, b))
        return calls

    def test_coprime_pair_needs_no_pseudo_remainder(self, prems):
        assert _gcd([1, 0, 3, 1], [2, 5, 1]) == [1]
        assert not prems

    def test_coprime_over_z_but_not_modulo_p(self, prems):
        # x + P and x are both x modulo P, so the certificate fails
        assert _gcd([_P, 1], [0, 1]) == [1]
        assert prems

    def test_lead_divisible_by_p(self, prems):
        assert _gcd([1, 0, _P], [1, 1]) == [1]
        assert prems
        f = [3, -1, 2]
        assert _gcd(_mul(f, [1, 0, _P]), _mul(f, [1, 1])) == f

    def test_shared_factor(self, prems):
        f = [-5, 0, 7, 2]
        assert _gcd(_mul(f, [1, 4, 1]), _mul(f, [-2, 3])) == f
        assert _gcd(_mul([-c for c in f], [6, 3]), _mul(f, [0, 1])) == f
        assert prems

    def test_degree_13_normal_form_needs_no_pseudo_remainder(self, monkeypatch):
        # b_0 and b_1 of x^13+2x^12-x^11+3x^9-x^7+x^5-x^2+4x, of q-degree
        # 55-56 and about 700 bits, are coprime; their pseudo-remainders
        # took seconds
        def refuse(a, b):
            raise AssertionError("pseudo-remainder taken")
        monkeypatch.setattr(algebra, "_prem", refuse)
        spec = ProblemSpec(UPoly("x", (0, 4, -1, 0, 0, 1, 0, -1, 0, 3, 0, -1, 2, 1)))
        ode = linear_ode.__wrapped__(spec)  # past the memo
        assert ode.order == 12
        assert _gcd(list(ode.b[0].coeffs), list(ode.b[1].coeffs)) == [1]

    @settings(max_examples=300, deadline=None)
    @given(_gcd_lists, _gcd_lists, _gcd_lists)
    def test_matches_collins(self, a, b, f):
        assert _gcd(a, b) == _collins(a, b)
        assert _gcd(_mul(a, f), _mul(b, f)) == _collins(_mul(a, f), _mul(b, f))

class TestComposeInterpolate:
    def test_compose_example(self):
        outer = UPoly("q", (1, 0, 1))
        inner = UPoly("x", (1, 1))
        assert compose_q(outer, inner) == UPoly("x", (2, 2, 1))

    @settings(max_examples=150, deadline=None)
    @given(_coeff_lists, _coeff_lists, st.sampled_from(["x", "q"]))
    def test_compose_is_upoly_horner(self, outer, inner, var):
        # Horner on coefficient lists equals Horner in UPoly arithmetic
        f, g = UPoly(var, outer), UPoly("x", inner)
        want = UPoly.zero("x")
        for c in reversed(f.coeffs):
            want = want * g + c
        got = f.compose(g)
        assert got == want and _canonical(got)

    def test_compose_variable_checked(self):
        with pytest.raises(VariableMismatchError):
            compose_q(UPoly("x", (1, 1)), UPoly("x", (0, 1)))


# -- the Sylvester resultant, the reference for discriminant --


def bareiss_determinant(rows, one):
    """Fraction-free determinant; entries may live in any integral domain
    supporting *, -, truth testing and exact division."""
    def exact_quot(a, b):
        return qexact_div(a, b) if isinstance(a, UPoly) else Fraction(a, b)

    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = t if prev is None else exact_quot(t, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def sylvester_matrix(a, b, zero):
    """Sylvester matrix of two coefficient sequences (ascending order)."""
    m, n = len(a) - 1, len(b) - 1
    ra, rb = list(reversed(a)), list(reversed(b))
    return ([[zero] * i + ra + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + rb + [zero] * (m - 1 - i) for i in range(m)])


def resultant_elems(a, b, zero, one):
    """Resultant of two coefficient sequences with nonzero leads, over any
    integral domain, by Bareiss elimination of their Sylvester matrix."""
    return bareiss_determinant(sylvester_matrix(a, b, zero), one)


def resultant(a, b):
    """Resultant of two nonzero polynomials in the same variable."""
    assert a.var == b.var and a and b
    return Fraction(resultant_elems(list(a.coeffs), list(b.coeffs), Fraction(0), Fraction(1)))


class TestResultant:
    def test_linear_pair_fixture(self):
        # Res_x(x^2 + x - q, 2x + 1) = -(4q + 1), with coefficients in Q[q]
        a = [UPoly("q", (0, -1)), UPoly.one("q"), UPoly.one("q")]
        b = [UPoly.one("q"), UPoly.const("q", 2)]
        assert resultant_elems(a, b, UPoly.zero("q"), UPoly.one("q")) == UPoly("q", (-1, -4))

    def test_shared_root_gives_zero(self):
        f = UPoly("x", (2, -3, 1))  # (x-1)(x-2)
        g = UPoly("x", (-1, 1))
        assert resultant(f, g) == 0

    def test_scalar_fixture(self):
        # Res(x^2 - 1, x^2 - 4) = ((1)^2-4)((-1)^2-4) = 9
        assert resultant(UPoly("x", (-1, 0, 1)), UPoly("x", (-4, 0, 1))) == 9

    def test_multiplicative_in_first_argument(self):
        rng = random.Random(123)
        for _ in range(50):
            a = rand_poly(rng, max_deg=3, nonzero=True)
            b = rand_poly(rng, max_deg=3, nonzero=True)
            c = rand_poly(rng, max_deg=3, nonzero=True)
            if a.degree < 1 or b.degree < 1 or c.degree < 1:
                continue
            assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)

    def test_swap_sign_rule(self):
        rng = random.Random(321)
        for _ in range(50):
            a = rand_poly(rng, max_deg=4, nonzero=True)
            b = rand_poly(rng, max_deg=3, nonzero=True)
            if a.degree < 1 or b.degree < 1:
                continue
            sign = -1 if (a.degree * b.degree) % 2 else 1
            assert resultant(a, b) == sign * resultant(b, a)

    def test_auxiliary_sextic_resultant_identity(self):
        # Eliminating w between (2xw+1)^2 + 1 - 2w^3 and -w^6 + 4qw^4 + 1
        # recovers a power of the trinomial quartic.  The resultant has
        # degree at most 12 in x, so agreement at 13 rational x proves it.
        q = UPoly.monomial("q", 1)
        one, zero = UPoly.one("q"), UPoly.zero("q")
        b_coeffs = [one, zero, zero, zero, 4 * q, zero, -one]
        for t in range(-6, 7):
            s_coeffs = [UPoly.const("q", 2), UPoly.const("q", 4 * t),
                        UPoly.const("q", 4 * t * t), UPoly.const("q", -2)]
            res = resultant_elems(s_coeffs, b_coeffs, zero, one)
            assert res == -4096 * (UPoly.const("q", t**4 + t) - q) ** 3


class TestBareiss:
    def test_integer_determinant(self):
        rows = [
            [Fraction(2), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(3), Fraction(2)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
        assert bareiss_determinant(rows, Fraction(1)) == 3

    def test_singular_matrix(self):
        rows = [
            [Fraction(1), Fraction(2)],
            [Fraction(2), Fraction(4)],
        ]
        assert bareiss_determinant(rows, Fraction(1)) == 0

    def test_row_swap_sign(self):
        rows = [
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0)],
        ]
        assert bareiss_determinant(rows, Fraction(1)) == -1


# -- Berkowitz on the matrix of multiplication by H modulo G, the reference for _chi --


def _charpoly(a):
    """det(tI - A) of a square integer matrix, coefficients from the top
    down, by Berkowitz's division-free algorithm.

    For the leading block A_r, its next row u, column v and diagonal entry
    c, the characteristic polynomial of A_(r+1) is T times that of A_r,
    with T lower-triangular Toeplitz on the first column
    1, -c, -u v, -u A_r v, ..., -u A_r^(r-1) v.
    """
    chi = [1]
    for r in range(len(a)):
        u, c = a[r][:r], a[r][r]
        v = [a[i][r] for i in range(r)]
        col = [1, -c]
        for _ in range(r):
            col.append(-sum(x * y for x, y in zip(u, v)))
            v = [sum(x * y for x, y in zip(a[i][:r], v)) for i in range(r)]
        chi = [sum(col[i - j] * chi[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return chi


def _matrix_chi(H, G):
    """det(tI - A), ascending, A the integer matrix whose column j holds
    y^j H mod G, for monic G of degree m."""
    m = len(G) - 1
    cols = [_monic_divmod(H, G)[1]]
    for _ in range(m - 1):
        cols.append(_monic_divmod([0] + cols[-1], G)[1])
    return _charpoly([[cols[j][i] for j in range(m)] for i in range(m)])[::-1]


@st.composite
def frame_polys(draw):
    """R of degree 2..13, in turn monic over Z, rational with lead -1, and
    rational with a lead of either sign, integral or not."""
    shape = draw(st.integers(0, 2))
    coeff = (st.integers(-9, 9) if shape == 0
             else st.fractions(min_value=-9, max_value=9, max_denominator=7))
    lower = draw(st.lists(coeff, min_size=2, max_size=13))
    lead = (1, -1, draw(st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)))
    return UPoly("x", lower + [lead[shape]])


class TestChi:
    @settings(max_examples=80, deadline=None)
    @given(frame_polys())
    def test_matches_berkowitz(self, r):
        D, chi, H, G, *_ = _frame(r)
        assert _chi(H, G) == chi == _matrix_chi(H, G)

    def test_matches_berkowitz_fixtures(self):
        # x^n (H = 0 modulo G), a quadratic (m = 1), and the degree-13 R of CI
        for coeffs in ((0, 0, 0, 0, 0, 1), (0, 3, 1), (0, 4, -1, 0, 0, 1, 0, -1, 0, 3, 0, -1, 2, 1),
                       (0, Fraction(4, 3), -1, 0, 0, 3, 0, 0, Fraction(7, 5), 0, 0, -1,
                        Fraction(5, 2), Fraction(-3, 7))):
            D, chi, H, G, *_ = _frame(UPoly("x", coeffs))
            assert chi == _matrix_chi(H, G)

    def test_non_exact_newton_division_raises(self, monkeypatch):
        # an extra 1 on the square of H = y modulo G = y^3 puts p_2 = 3, and
        # Newton's identity 2 c_2 = -(p_2 + c_1 p_1) = -3 does not divide
        mul = algebra._mul
        monkeypatch.setattr(algebra, "_mul", lambda a, b: _add(mul(a, b), [1]))
        with pytest.raises(NonExactDivisionError, match="Newton"):
            _chi([0, 1], [0, 0, 0, 1])


@st.composite
def rational_polys(draw):
    """R of degree 2..9 with small rational coefficients and a nonzero,
    not necessarily monic, lead."""
    small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    lower = draw(st.lists(small, min_size=2, max_size=9))
    lead = draw(small.filter(bool))
    return UPoly("x", lower + [lead])


class TestDiscriminant:
    def test_quadratic(self):
        assert discriminant(UPoly("x", (0, 1, 1))) == UPoly("q", (1, 4))

    def test_cubic_formula(self):
        # dis(x^3 + ax + b) = -4a^3 - 27b^2, applied to a=2, b=-q
        assert discriminant(UPoly("x", (0, 2, 0, 1))) == UPoly("q", (-32, 0, -27))

    def test_degree_in_q(self):
        rng = random.Random(2024)
        for _ in range(20):
            n = rng.randint(2, 6)
            coeffs = [Fraction(0)] + [Fraction(rng.randint(-5, 5)) for _ in range(n - 1)] + [Fraction(1)]
            assert discriminant(UPoly("x", coeffs)).degree == n - 1

    def test_matches_sylvester_resultant(self):
        # D(t) = (-1)^(n(n-1)/2) Res(R - t, R') / lc(R), by direct Bareiss
        # elimination of the (2n-1)-size Sylvester matrix at q = t
        rng = random.Random(909)
        for _ in range(60):
            n = rng.randint(2, 9)
            lead = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(n)] + [Fraction(lead)]
            r = UPoly("x", coeffs)
            d = discriminant(r)
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            for _ in range(3):
                t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                ref = sign * resultant(r - t, r.derivative()) / r.lc
                assert d(t) == ref, f"D({t}) differs for R = {r}"

    def test_rational_coefficients_match_sylvester_resultant(self):
        # non-integral coefficients below the lead: the rows of qI - M are
        # scaled into Z[q] and the scales divided out again
        rng = random.Random(910)
        for _ in range(40):
            n = rng.randint(2, 6)
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            coeffs.append(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 7])))
            r = UPoly("x", coeffs)
            d = discriminant(r)
            assert d.degree == n - 1
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            for _ in range(3):
                t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                assert d(t) == sign * resultant(r - t, r.derivative()) / r.lc

    def test_degrees_8_and_9_match_sylvester_resultant(self):
        # the dense octic and nonic, x^9 + x, and a non-monic rational nonic
        for coeffs in ((0, 5, 0, 1, 0, -2, 0, 3, 1), (0, 4, -1, 0, 0, 3, 0, -1, 2, 1),
                       (0, 1, 0, 0, 0, 0, 0, 0, 0, 1),
                       (Fraction(5, 7), 2, 0, 0, Fraction(-1, 3), 0, 0, 1, 0, Fraction(3, 2))):
            r = UPoly("x", coeffs)
            n = r.degree
            d = discriminant(r)
            assert d.degree == n - 1
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            for t in (Fraction(0), Fraction(-3, 2), Fraction(11, 5)):
                assert d(t) == sign * resultant(r - t, r.derivative()) / r.lc

    @settings(max_examples=60, deadline=None)
    @given(rational_polys(), st.fractions(min_value=-9, max_value=9, max_denominator=9))
    def test_rational_nonmonic_matches_sylvester_resultant(self, r, t):
        n = r.degree
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert discriminant(r)(t) == sign * resultant(r - t, r.derivative()) / r.lc

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            discriminant(UPoly("x", (0, 1)))
        with pytest.raises(VariableMismatchError):
            discriminant(UPoly("q", (0, 1, 1)))
