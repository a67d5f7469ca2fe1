"""Exact derivation pipeline: factorization, integrands, Abel form, tower,
linear annihilator."""
import random
from fractions import Fraction

import pytest

from rootode.algebra import BiPoly, UPoly, compose_q
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
    verify_trinomial_table,
)
from rootode.errors import DomainError
from rootode.render import text_linear


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
    return [ode.W.coefficient(j) for j in range(ode.n)]


def rand_problem(rng, max_n=8):
    """Random monic R with R(0) = 0, integer coefficients in [-9, 9]."""
    n = rng.randint(2, max_n)
    coeffs = [Fraction(0)] + [Fraction(rng.randint(-9, 9)) for _ in range(n - 1)] + [Fraction(1)]
    return ProblemSpec(UPoly("x", coeffs))


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

    def test_trinomial_validation(self):
        with pytest.raises(ValueError):
            trinomial(1, 1)
        with pytest.raises(ValueError):
            trinomial(3, 0)

    def test_p_bipoly(self):
        spec = trinomial(2, 1)
        p = spec.p_bipoly()
        assert p.deg_x == 2
        assert p.coefficient(0) == q_poly(0, -1)


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
            spec = rand_problem(rng)
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
        assert {2, 3, 4, 5, 6, 7, 8} <= seen_n

    def test_script_d_positive_after_zero(self):
        rng = random.Random(777)
        for _ in range(30):
            fact = factorize(rand_problem(rng, max_n=5))
            assert fact.script_d.trailing() > 0


class TestIntegrands:
    def test_theorem1_squares_reduced(self):
        fact = factorize(trinomial(3, 1))
        weight = q_poly(1, 2)
        spec = build_integrands(fact, weight, surd=3)
        num, den = spec.lhs_sq
        lhs_num = compose_q(weight, fact.problem.R)
        # reduced pair still represents (surd * (G(R))^2) / script_u
        assert num * fact.script_u == lhs_num * lhs_num * 3 * den
        rnum, rden = spec.rhs_sq
        assert rnum * fact.script_d == weight * weight * 3 * rden

    def test_quintic_squares_cancel_origin_zero(self):
        fact = factorize(ProblemSpec(x_poly(0, 0, 0, 5, 0, 1)))
        spec = build_integrands(fact, q_poly(0, 5), surd=5, remark2=True)
        num, den = spec.lhs_sq
        assert num == x_poly(0, 0, 0, 0, 1)
        assert den == x_poly(12, 0, -8, 0, 4, 0, 1)
        rnum, rden = spec.rhs_sq
        assert rnum == q_poly(1)
        assert rden == 25 * q_poly(108, 0, 1)

    def test_degenerate_needs_remark2(self):
        fact = factorize(ProblemSpec(x_poly(0, 0, 0, 5, 0, 1)))
        with pytest.raises(DomainError):
            build_integrands(fact, q_poly(0, 5))

    def test_zero_weight_at_origin_needs_remark2(self):
        fact = factorize(trinomial(3, 1))
        with pytest.raises(DomainError):
            build_integrands(fact, q_poly(0, 1))
        build_integrands(fact, q_poly(0, 1), remark2=True)

    def test_rational_kind_needs_simple_roots(self):
        fact = factorize(ProblemSpec(x_poly(0, 0, 0, 5, 0, 1)))
        with pytest.raises(DomainError):
            build_integrands(fact, q_poly(1), "corollary2", remark2=True)

    def test_rational_kind_denominators(self):
        fact = factorize(trinomial(2, 1))
        spec = build_integrands(fact, q_poly(1), "corollary2")
        assert spec.lhs_den == x_poly(1, 2)
        assert spec.rhs_den == q_poly(1, 4)
        assert not spec.radical

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


class TestAbel:
    def test_quadratic_display(self):
        ode = abel_ode(trinomial(2, 1))
        assert_quotients(abel_numerators(ode), ode.D, [q_poly(1), q_poly(2)], q_poly(1, 4))
        assert ode.coefficient(1) == (q_poly(2), q_poly(1, 4))

    def test_cubic_display(self):
        ode = abel_ode(trinomial(3, 1))
        den = q_poly(4, 0, 27)
        assert_quotients(
            abel_numerators(ode), ode.D, [q_poly(4), q_poly(0, 9), q_poly(6)], den
        )
        assert ode.coefficient(1) == (q_poly(0, 9), den)

    def test_cubic_display_general_p(self):
        p = Fraction(3, 2)
        ode = abel_ode(trinomial(3, p))
        den = q_poly(4 * p**3, 0, 27)
        assert_quotients(
            abel_numerators(ode), ode.D, [q_poly(4 * p**2), q_poly(0, 9), q_poly(6 * p)], den
        )
        # the reduced pair has integer content 1: 9/(27q^2 + 27/2) = 2/(6q^2 + 3)
        assert ode.coefficient(0) == (q_poly(2), q_poly(3, 0, 6))

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
        assert not ode.W.coefficient(2)
        assert ode.coefficient(2) == (UPoly.zero("q"), q_poly(1))
        assert ode.coefficient(1) == (q_poly(1, 2), q_poly(0, 2, 8))

    def test_division_certificate(self):
        rng = random.Random(9)
        for _ in range(20):
            spec = rand_problem(rng, max_n=6)
            fact = factorize(spec)
            ode = abel_ode(spec)
            ru = BiPoly.from_x(spec.rprime() * fact.U)
            assert ode.Q * spec.p_bipoly() + ode.W == ru
            assert ode.W.deg_x <= spec.n - 1

    def test_nonmonic_rejected(self):
        with pytest.raises(ValueError):
            abel_ode(ProblemSpec(x_poly(0, 1, 2)))


class TestTower:
    def test_first_row_is_abel(self):
        spec = trinomial(3, 1)
        tower = derivative_tower(spec)
        assert tower.raw[0] == abel_ode(spec).W

    def test_cubic_second_derivative_fixture(self):
        # x'' = (-162qx^2 + (12-162q^2)x - 108q) / (4+27q^2)^2 at p=1
        tower = derivative_tower(trinomial(3, 1))
        b2 = tower.raw[1]
        assert_quotients(
            [b2.coefficient(j) for j in range(3)],
            tower.D**2,
            [q_poly(0, -108), q_poly(12, 0, -162), q_poly(0, -162)],
            q_poly(4, 0, 27) ** 2,
        )

    def test_rows_stay_reduced(self):
        rng = random.Random(31)
        for _ in range(10):
            spec = rand_problem(rng, max_n=6)
            tower = derivative_tower(spec)
            assert tower.k_max == spec.n - 1
            for bk in tower.raw:
                assert bk.deg_x <= spec.n - 1

    def test_series_satisfies_tower_rows(self):
        # substitute the exact branch series into x^(k) = sum a_kj x^j
        from rootode.numeric import lagrange_series

        for n, p in ((3, 1), (4, 2), (5, 1)):
            spec = trinomial(n, p)
            order = 12
            tower = derivative_tower(spec)
            s = lagrange_series(spec, order)
            dense = [Fraction(0)] + list(s.coeffs)

            def mul(a, b, m=order):
                out = [Fraction(0)] * (m + 1)
                for i, ai in enumerate(a):
                    if ai:
                        for j, bj in enumerate(b[: m + 1 - i]):
                            if bj:
                                out[i + j] += ai * bj
                return out

            deriv = dense
            for k in range(1, tower.k_max + 1):
                deriv = [i * deriv[i] for i in range(1, len(deriv))]
                # rhs_num = sum_j B_k[j] * S^j must equal deriv * D^k as series
                dk = tower.D ** k
                rhs = [Fraction(0)] * (order + 1)
                power = [Fraction(1)] + [Fraction(0)] * order
                bk = tower.raw[k - 1]
                for j in range(bk.deg_x + 1):
                    cj = list(bk.coefficient(j).coeffs)
                    rhs = [r + t for r, t in zip(rhs, mul(cj + [Fraction(0)] * order, power))]
                    power = mul(power, dense)
                lhs = mul(list(deriv) + [Fraction(0)], list(dk.coeffs) + [Fraction(0)] * order)
                # deriv is exact only through q^(order-k)
                keep = order - k
                assert keep > 1
                assert lhs[: keep + 1] == rhs[: keep + 1]


class TestLinearODE:
    def test_quadratic(self):
        ode = linear_ode(trinomial(2, 1)).normalized()
        assert ode.order == 1
        assert ode.b == (q_poly(-2), q_poly(1, 4))
        assert ode.inhomogeneous == q_poly(-1)

    def test_cubic_matches_classical(self):
        ode = linear_ode(trinomial(3, 1)).normalized()
        assert ode.b == (q_poly(-3), q_poly(0, 27), q_poly(4, 0, 27))
        assert not ode.inhomogeneous
        assert not ode.ambiguous

    def test_table_various_p(self):
        for n in (3, 4, 5, 6):
            assert verify_trinomial_table(n, 1).ok
        for p in (2, Fraction(1, 2), -1):
            assert verify_trinomial_table(3, p).ok
            assert verify_trinomial_table(4, p).ok

    def test_table_rejects_other_n(self):
        with pytest.raises(ValueError):
            verify_trinomial_table(7)

    def test_remark5_nonhomogeneous(self):
        for s in (1, 2):
            ode = linear_ode(ProblemSpec(x_poly(0, 1, s, 1))).normalized()
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
            n = spec.n
            # x^(k) = B_k / D^k; the x^j constraint multiplied through by D^(n-1)
            for j in range(n):
                acc = UPoly.zero("q")
                if j == 1:
                    acc = acc + ode.b[0] * tower.D ** (n - 1)
                if j == 0:
                    acc = acc + ode.inhomogeneous * tower.D ** (n - 1)
                for k in range(1, n):
                    acc = acc + ode.b[k] * tower.raw[k - 1].coefficient(j) * tower.D ** (n - 1 - k)
                assert not acc, f"power x^{j} not annihilated for {spec.R}"

    def test_normalization_idempotent(self):
        rng = random.Random(8)
        for _ in range(10):
            ode = linear_ode(rand_problem(rng, max_n=5)).normalized()
            again = ode.normalized()
            assert again.b == ode.b
            assert again.inhomogeneous == ode.inhomogeneous

    def test_normal_form_properties(self):
        rng = random.Random(44)
        for _ in range(10):
            ode = linear_ode(rand_problem(rng, max_n=5)).normalized()
            assert ode.b[ode.order].lc > 0
            for poly in ode.vector():
                for c in poly.coeffs:
                    assert c.denominator == 1

    def test_kernel_dimension_above_one_pinned(self):
        # the minimal-degree representative chosen among the kernel vectors
        expected = {
            (0, -1, 2, -2, 1): "( - 64*q^2 - 28*q - 3)*x'' + ( - 64*q - 14)*x' + 4*x - 2 = 0",
            (0, 0, 1, 0, 1): "( - 16*q^2 - 4*q)*x'' + ( - 16*q - 2)*x' + x = 0",
            (0, 0, 1, 0, 0, 0, 1): (
                "( - 216*q^3 - 32*q)*x''' + ( - 972*q^2 - 48)*x'' - 606*q*x' + 21*x = 0"
            ),
        }
        for coeffs, text in expected.items():
            ode = linear_ode(ProblemSpec(x_poly(*coeffs)))
            assert ode.ambiguous
            assert text_linear(ode) == text

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            LinearODE(2, (q_poly(1),), UPoly.zero("q"))


def annihilates(rows, v):
    return all(not sum((a * b for a, b in zip(row, v)), UPoly.zero("q")) for row in rows)


class TestKernel:
    def test_unique_kernel_vector(self):
        one = UPoly.one("q")
        q = UPoly.monomial("q", 1)
        basis, ambiguous = _kernel([[one, q]], 2)
        assert not ambiguous
        assert len(basis) == 1
        v = basis[0]
        assert any(v)
        assert annihilates([[one, q]], v)

    def test_full_rank_has_empty_kernel(self):
        one = UPoly.one("q")
        zero = UPoly.zero("q")
        basis, ambiguous = _kernel([[one, zero], [zero, one]], 2)
        assert basis == []
        assert not ambiguous

    def test_two_free_columns_flagged_ambiguous(self):
        one = UPoly.one("q")
        basis, ambiguous = _kernel([[one, one, one]], 3)
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
        basis, ambiguous = _kernel(rows, 4)
        assert len(basis) == 2 and ambiguous
        for v in basis:
            assert any(v)
            assert annihilates(rows, v)
