"""Exact polynomial arithmetic: ring laws, division, gcd, resultants,
discriminants."""
import random
from fractions import Fraction

import pytest

from rootode.algebra import (
    BiPoly,
    UPoly,
    bareiss_determinant,
    compose_q,
    discriminant,
    poly_gcd,
    resultant,
    resultant_elems,
)
from rootode.errors import NonExactDivisionError, VariableMismatchError


def rand_poly(rng, var="x", max_deg=6, lo=-9, hi=9, nonzero=False):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(deg + 1)]
    p = UPoly(var, coeffs)
    if nonzero and not p:
        return p + 1
    return p


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
    def test_divmod_random(self):
        rng = random.Random(99)
        for _ in range(500):
            a = rand_poly(rng, max_deg=8)
            b = rand_poly(rng, max_deg=5, nonzero=True)
            quo, rem = divmod(a, b)
            assert quo * b + rem == a
            assert rem.degree < b.degree

    def test_exact_division_roundtrip(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rand_poly(rng, nonzero=True)
            b = rand_poly(rng, nonzero=True)
            assert (a * b).exact_div(b) == a

    def test_exact_division_failure_raises(self):
        with pytest.raises(NonExactDivisionError):
            UPoly("x", (1, 0, 1)).exact_div(UPoly("x", (1, 1)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(UPoly("x", (1, 1)), UPoly.zero("x"))


class TestGcd:
    def test_known_common_factor(self):
        f = UPoly("x", (1, 1)) ** 2 * UPoly("x", (-2, 1))
        g = UPoly("x", (1, 1)) * UPoly("x", (3, 1))
        assert poly_gcd(f, g) == UPoly("x", (1, 1))

    def test_gcd_divides_both_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rand_poly(rng, max_deg=4, nonzero=True)
            b = rand_poly(rng, max_deg=4, nonzero=True)
            g = poly_gcd(a, b)
            assert a % g == UPoly.zero("x")
            assert b % g == UPoly.zero("x")
            assert g.lc == 1

    def test_gcd_of_coprime_is_one(self):
        assert poly_gcd(UPoly("x", (1, 1)), UPoly("x", (2, 1))) == UPoly.one("x")

    def test_gcd_zero_zero_undefined(self):
        with pytest.raises(ValueError):
            poly_gcd(UPoly.zero("x"), UPoly.zero("x"))

class TestComposeInterpolate:
    def test_compose_example(self):
        outer = UPoly("q", (1, 0, 1))
        inner = UPoly("x", (1, 1))
        assert compose_q(outer, inner) == UPoly("x", (2, 2, 1))

    def test_compose_variable_checked(self):
        with pytest.raises(VariableMismatchError):
            compose_q(UPoly("x", (1, 1)), UPoly("x", (0, 1)))

class TestBiPoly:
    def test_divmod_x_certificate(self):
        rng = random.Random(17)
        p = BiPoly.from_x(UPoly("x", (0, 1, 0, 1))) - BiPoly.from_q(UPoly.monomial("q", 1))
        for _ in range(30):
            a = BiPoly.from_x(rand_poly(rng, max_deg=7)) * BiPoly.from_q(
                rand_poly(rng, var="q", max_deg=3)
            )
            quo, rem = a.divmod_x(p)
            assert quo * p + rem == a
            assert rem.deg_x < p.deg_x

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
            n = rng.randint(2, 7)
            lead = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(n)] + [Fraction(lead)]
            r = UPoly("x", coeffs)
            d = discriminant(r)
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            for _ in range(3):
                t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                ref = sign * resultant(r - t, r.derivative()) / r.lc
                assert d(t) == ref, f"D({t}) differs for R = {r}"

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            discriminant(UPoly("x", (0, 1)))
        with pytest.raises(VariableMismatchError):
            discriminant(UPoly("q", (0, 1, 1)))
