"""Command-line surface: parsing, report schema, exit codes, demos."""
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootode import _memo, bisect_branch_root, cli
from rootode.algebra import MAX_DEGREE, UPoly
from rootode.cli import (
    DEMO_NAMES,
    Command,
    Report,
    format_report,
    main,
    parse_polynomial,
    parse_q_value,
    parse_weight,
    run,
)
from rootode.errors import ParseError

from exact_sign import exactly_bracketed


class TestParsing:
    def test_trinomial_text(self):
        spec = parse_polynomial("x^3+x")
        assert spec.R == UPoly("x", (0, 1, 0, 1))

    def test_parsed_text_is_memoized(self):
        # the parse depends on the text alone; a failed parse is not stored
        assert parse_polynomial("x^3+3x^2-2x") is parse_polynomial("x^3+3x^2-2x")
        assert parse_weight("2-q") is parse_weight("2-q")
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_polynomial("x^3+1")
        first = parse_polynomial("x^3+3x^2-2x")
        _memo.clear()
        assert parse_polynomial("x^3+3x^2-2x") is not first

    def test_full_quartic_spellings(self):
        expect = UPoly("x", (0, -1, 2, -2, 1))
        assert parse_polynomial("x^4-2x^3+2x^2-x").R == expect
        assert parse_polynomial("x^4 - 2*x^3 + 2*x^2 - x").R == expect

    def test_rational_coefficients(self):
        spec = parse_polynomial("1/2*x^2 + 3x")
        assert spec.R == UPoly("x", (0, 3, Fraction(1, 2)))

    def test_repeated_powers_collect(self):
        assert parse_polynomial("x^2+x^2+x").R == UPoly("x", (0, 1, 2))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^3+@")
        assert exc.value.position == 4
        assert "position 4" in str(exc.value)

    def test_dangling_sign(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^2+")

    def test_constant_term_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^2+1")

    def test_degree_one_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x")

    def test_wrong_variable(self):
        with pytest.raises(ParseError):
            parse_polynomial("q^2+q")

    def test_weight_either_letter(self):
        assert parse_weight("1+2q") == UPoly("q", (1, 2))
        assert parse_weight("1+2x") == UPoly("q", (1, 2))
        assert parse_weight("5") == UPoly("q", (5,))
        with pytest.raises(ParseError):
            parse_weight("1+2y")

    def test_coefficients_are_ints_where_integral(self):
        r = parse_polynomial("4/2x^3 + 3/6x^2 + 1/2x^2 - x").R
        assert r == UPoly("x", (0, -1, 1, 2))
        assert all(type(c) is int for c in r.coeffs)
        assert type(parse_polynomial("1/2x^2+x").R.lc) is Fraction

    def test_over_long_integer_is_a_parse_error(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer string conversion has no digit limit here")
        digits = "1" * (limit + 1)
        for text, position in ((f"{digits}x^2+x", 0), (f"x^2+{digits}x", 4),
                               (f"x^2+1/{digits}x", 6), (f"x^{digits}+x", 2)):
            with pytest.raises(ParseError, match="number too long") as exc:
                parse_polynomial(text)
            assert exc.value.position == position
        report, code = run(Command("discriminant", problem=f"{digits}x^2+x"))
        assert code == 1
        assert report.errors == ["parse error: number too long (at position 0)"]

    def test_non_decimal_digit_is_a_parse_error(self):
        for text, position in (("x^\u00b2+x", 2), ("\u00b2x^2+x", 0), ("x^2\u00b2+x", 3)):
            with pytest.raises(ParseError) as exc:
                parse_polynomial(text)
            assert exc.value.position == position

    @pytest.mark.parametrize("text, message", [
        ("", "empty polynomial (at position 0)"),
        ("  \t", "empty polynomial (at position 0)"),
        ("x^2+1/0x", "zero denominator (at position 6)"),
        ("x^2+3*", "expected variable after '*' (at position 6)"),
        ("x^2+3* 4", "expected variable after '*' (at position 7)"),
    ])
    def test_rare_parse_errors_pinned(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == message
        report, code = run(Command("discriminant", problem=text, timing=False))
        assert (report.status, code) == ("usage_error", 1)
        assert report.errors == [f"parse error: {message}"]

    def test_q_value(self):
        assert parse_q_value("3/4") == 0.75
        assert parse_q_value("0.5") == 0.5
        assert parse_q_value("-2") == -2.0
        with pytest.raises(ParseError):
            parse_q_value("two")
        for text in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ParseError):
                parse_q_value(text)
        # a zero keeps the sign of the rational it rounds from, so "-0" is +0.0
        for text, sign in (("-0", 1.0), ("-0.0", 1.0), ("-1e-400", -1.0), ("-2e-324", -1.0)):
            value = parse_q_value(text)
            assert value == 0.0 and math.copysign(1.0, value) == sign, text
        assert parse_q_value("5e-324") == 5e-324
        assert parse_q_value("1/3") == 1 / 3
        assert parse_q_value(" 1.5 ") == 1.5
        assert parse_q_value("1_000") == 1000.0
        with pytest.raises(ParseError, match="not a rational or float"):
            parse_q_value("1/0")
        # a rational beyond the float range is infinite, not unreadable
        big = "1" + "0" * 400 + "/1"
        for text in ("1.7976931348623159e308", "nan", big, "-" + big):
            with pytest.raises(ParseError, match="q must be finite"):
                parse_q_value(text)
        for verb in ("solve", "check"):
            report, code = run(Command(verb, problem="x^3+x", q=big, timing=False))
            assert code == 1
            assert report.status == "usage_error"
            assert report.errors == [f"parse error: q must be finite, got {big!r} (at position 0)"]

    def test_q_value_read_as_infinite_builds_no_fraction(self, monkeypatch):
        # float's overflow is the rational's, so "1e9999999" is refused at
        # once rather than after building 10^9999999
        def no_fraction(text):
            raise AssertionError(f"Fraction({text!r})")
        monkeypatch.setattr(cli, "Fraction", no_fraction)
        for text in ("1e9999999", "-1e400", "inf", "nan"):
            with pytest.raises(ParseError, match="q must be finite"):
                parse_q_value(text)

    def test_q_value_read_as_zero_builds_no_fraction(self, monkeypatch):
        # a decimal zero takes its sign from its mantissa's digits, so
        # "-1e-99999999" answers at once rather than after building
        # 10^99999999
        def no_fraction(text):
            raise AssertionError(f"Fraction({text!r})")
        monkeypatch.setattr(cli, "Fraction", no_fraction)
        for text, sign in (("-1e-99999999", -1.0), ("0e99999999", 1.0), ("-0e-99999999", 1.0)):
            value = parse_q_value(text)
            assert value == 0.0 and math.copysign(1.0, value) == sign, text
            for verb in ("solve", "check"):
                report, code = run(Command(verb, problem="x^3+x", q=text, timing=False))
                assert (report.status, code, report.result["x"]) == ("ok", 0, 0.0), (verb, text)

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(r"\A[+-]?(\d{1,30}|\d{0,30}\.\d{1,30})([eE][+-]?\d{1,3})?\Z"))
    def test_q_value_is_the_rounded_rational(self, text):
        # float's reading of a nonzero decimal is float(Fraction(text)), and
        # a zero takes the rational's sign
        try:
            want = float(Fraction(text))
        except OverflowError:
            with pytest.raises(ParseError, match="q must be finite"):
                parse_q_value(text)
            return
        got = parse_q_value(text)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestVerbs:
    def test_discriminant_schema(self):
        report, code = run(Command("discriminant", problem="x^3+x"))
        assert code == 0
        assert report.status == "ok"
        r = report.result
        assert r["n"] == 3
        assert r["D"] == ["-4", "0", "-27"]
        assert r["script_d"] == ["4", "0", "27"]
        assert r["script_u"] == ["4", "0", "3"]
        assert r["disc_zero"] is False

    def test_derive_abel_golden(self):
        report, code = run(Command("derive-abel", problem="x^2+x"))
        assert code == 0
        r = report.result
        assert r["a"] == [
            {"j": 0, "num": ["1"], "den": ["1", "4"]},
            {"j": 1, "num": ["2"], "den": ["1", "4"]},
        ]
        assert r["latex"] == r"x'=\frac{2}{4q+1}x+\frac{1}{4q+1}"

    def test_derive_linear_golden(self):
        report, code = run(Command("derive-linear", problem="x^3+x"))
        assert code == 0
        r = report.result
        assert r["b"] == [["4", "0", "27"], ["0", "27"], ["-3"], ["0"]]
        assert r["ambiguous"] is False
        assert r["latex"] == r"(27q^{2}+4)x''+27qx'-3x=0"

    def test_solve(self):
        report, code = run(Command("solve", problem="x^2+x", q="3/4"))
        assert code == 0
        r = report.result
        assert abs(r["x"] - 0.5) < 1e-10
        assert abs(r["residual"]) < 1e-12
        assert r["tracking_status"] == "ok"

    def test_solve_result_keys(self):
        # an answer, a refusal past q* and the q = 0 shortcut report the same keys
        for q in ("3/4", "-1", "0"):
            report, _ = run(Command("solve", problem="x^2+x", q=q, timing=False))
            assert list(report.result) == ["q", "x", "residual", "tracking_status", "q_star"]

    def test_solve_nonmonic_matches_check(self):
        # lc(R) = 2: the first-order equation is derived over Q
        solved, code = run(Command("solve", problem="2x^3+x", q="0.5"))
        assert code == 0
        checked, _ = run(Command("check", problem="2x^3+x", q="0.5"))
        assert checked.status == "ok"
        assert solved.result["x"] == pytest.approx(checked.result["x"], rel=1e-12)

    def test_derive_linear_nonmonic(self):
        # x^3/2 + x = q is x^3 + 2x = 2q
        report, code = run(Command("derive-linear", problem="1/2x^3+x"))
        assert code == 0
        assert report.result["b"] == [["8", "0", "27"], ["0", "27"], ["-3"], ["0"]]

    def test_solve_beyond_branch_point(self):
        report, code = run(Command("solve", problem="x^3-x", q="1"))
        assert code == 2
        assert report.status == "hit_branch_point"
        r = report.result
        assert r["x"] is None
        assert r["q_star"] == pytest.approx((4 / 27) ** 0.5, abs=1e-10)

    def test_check(self):
        report, code = run(Command("check", problem="x^2+x", q="2"))
        assert code == 0
        assert abs(report.result["diff"]) <= report.result["tol"]
        assert report.result["remark2"] is False

    def test_check_auto_relaxation(self):
        report, code = run(
            Command("check", problem="x^5+5x^3", q="1", weight="5q")
        )
        assert code == 0
        assert report.result["remark2"] is True

    @pytest.mark.parametrize("problem,q,weight", [("x^3+x", "0.5", "q"), ("x^4+2x", "-0.3", "q^2")])
    def test_check_rational_weight_vanishing_at_origin(self, problem, q, weight):
        # the rational pair has no sign rule, so w(0) = 0 is no reason to refuse
        report, code = run(Command("check", problem=problem, q=q, weight=weight, kind="corollary2"))
        assert code == 0
        assert report.status == "ok"
        assert report.result["remark2"] is False
        assert abs(report.result["diff"]) <= report.result["tol"]

    @pytest.mark.parametrize("verb", ["solve", "check"])
    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_q_usage_error(self, verb, q):
        report, code = run(Command(verb, problem="x^3+x", q=q))
        assert code == 1
        assert report.status == "usage_error"
        assert "finite" in report.errors[0]

    @pytest.mark.parametrize("q", ["0.01", "0.1", "0.2", "0.5", "1", "2"])
    def test_check_double_root_at_origin(self, q):
        # R = x(x+1)^2 has D(0) = 0: the reduced q-side integrand has an
        # integrable 1/sqrt singularity at the endpoint t = 0, where quad
        # places nodes ever closer but never evaluates
        report, code = run(Command("check", problem="x^3+2x^2+x", q=q))
        assert code == 0
        assert report.status == "ok"
        assert report.result["remark2"] is True
        assert abs(report.result["diff"]) <= report.result["tol"]

    @pytest.mark.parametrize("kind", ["theorem1", "corollary2"])
    @pytest.mark.parametrize("q", ["250620518.77099216", "1e20"])
    def test_check_large_q(self, q, kind):
        report, code = run(Command("check", problem="x^3+x", q=q, kind=kind))
        assert code == 0
        assert report.status == "ok"

    @pytest.mark.parametrize("q", ["1e20", "1e30"])
    def test_check_tolerance_relative_for_large_integrals(self, q):
        # the sides agree to 7e-14 relative at 1e20, and differ by 0.125 at 1e30
        report, code = run(Command("check", problem="x^2+x", q=q))
        assert (code, report.status) == (0, "ok")
        r = report.result
        assert r["tol"] == max(1e-8, 1e-10 * max(abs(r["lhs"]), abs(r["rhs"])))
        assert abs(r["diff"]) <= r["tol"]
        strict, code = run(Command("check", problem="x^2+x", q=q, tol_rel=1e-16))
        assert (code, strict.status) == (2, "identity_mismatch")
        assert abs(strict.result["diff"]) > strict.result["tol"] >= 1e-8

    @pytest.mark.parametrize("q, kind", [("1e130", "corollary2"), ("1e200", "theorem1"),
                                         ("1e200", "corollary2")])
    def test_check_underflowed_integral_refused(self, q, kind):
        # the rational q-side integrand is 0.0 at every node: a refusal, not
        # a mismatch against a right lhs
        report, code = run(Command("check", problem="x^5+x", q=q, kind=kind))
        assert (code, report.status) == (2, "domain_error")
        assert "underflowed" in report.errors[0]

    def test_check_smallest_subnormal_q(self):
        report, code = run(Command("check", problem="x^7+x", q="5e-324"))
        assert (code, report.status) == (0, "ok")
        assert report.result["lhs"] == report.result["rhs"] == 0.0

    def test_check_beyond_quadrature_reach_refused(self):
        # the q-side integrand's weight sits at t ~ 1, a share 1e-130 of
        # [0, q] from its end, nearer than any node reaches: a refusal, not
        # an ok between two wrong sums
        report, code = run(Command("check", problem="x^3+2x", q="1.445675032715203e+130",
                                   kind="corollary2"))
        assert code == 2
        assert report.status == "domain_error"

    @pytest.mark.parametrize("kind", ["theorem1", "corollary2"])
    def test_check_weight_at_the_ends_refused(self, kind):
        # at q = 1e50 the q-side integrand still carries weight at the
        # outermost nodes, so no sum is trusted
        report, code = run(Command("check", problem="x^3+x", q="1e50", kind=kind))
        assert (code, report.status) == (2, "domain_error")
        assert report.errors == ["q side, piece [0.0, 1e+50]: integrand not negligible"
                                 " at the ends of [a, b]"]

    @pytest.mark.parametrize("q", ["1e-20", "1e-14"])
    def test_check_tiny_q_matches_solve(self, q):
        checked, _ = run(Command("check", problem="x^7+x", q=q))
        solved, _ = run(Command("solve", problem="x^7+x", q=q))
        assert checked.status == solved.status == "ok"
        assert checked.result["x"] == solved.result["x"]

    @pytest.mark.parametrize("q", ["1e-20", "5e-324"])
    def test_solve_tiny_q(self, q):
        report, code = run(Command("solve", problem="x^7+x", q=q))
        assert code == 0
        assert report.status == "ok"
        assert report.result["x"] == float(q)

    def test_solve_multiple_root_away_from_origin(self):
        # the same R as above, D(0) = 0: solve answers next to the root,
        # the float that check's bisection also answers
        report, code = run(Command("solve", problem="x^3+2x^2+x", q="0.01"))
        assert (code, report.status) == (0, "ok")
        x = report.result["x"]
        assert x == 0.009806713608741848
        r = parse_polynomial("x^3+2x^2+x").R
        assert exactly_bracketed(r, 0.01, x)
        assert bisect_branch_root(r, 0.01) == x

    def test_check_beyond_branch_point(self):
        for kind in ("theorem1", "corollary2"):
            report, code = run(Command("check", problem="x^3-x", q="-1", kind=kind))
            assert code == 2
            assert report.status == "hit_branch_point"
            assert report.result["q_star"] == pytest.approx(-((4 / 27) ** 0.5), abs=1e-12)

    @pytest.mark.parametrize("problem, q, kind", [
        ("x^3-3x^2+x", "1", "corollary2"),
        ("x^4-2x^2+x", "1", "corollary2"),
    ])
    def test_check_former_hangs_refused(self, problem, q, kind):
        # two targets past q*
        t0 = time.perf_counter()
        report, code = run(Command("check", problem=problem, q=q, kind=kind))
        assert time.perf_counter() - t0 < 5.0
        assert code == 2
        assert report.status in ("domain_error", "hit_branch_point")

    @pytest.mark.parametrize("kind", ["theorem1", "corollary2"])
    def test_check_near_pole_split(self, kind):
        # D has a root pair at -0.14566 +- 0.00137i, just off [q, 0]: unsplit,
        # tanh-sinh ran all its levels, and corollary2 did not converge
        problem, q = "x^5-3x^4+2x^2-x", "-7.55021"
        t0 = time.perf_counter()
        report, code = run(Command("check", problem=problem, q=q, kind=kind))
        assert time.perf_counter() - t0 < 1.0
        assert (code, report.status) == (0, "ok")
        r = report.result
        assert abs(r["diff"]) <= r["tol"]
        assert r["x"] == bisect_branch_root(parse_polynomial(problem).R, float(q))

    @pytest.mark.parametrize("problem, q, kind", [
        ("x^5-3x^4-x^3+2x^2+3x", "1.92451", "theorem1"),
        ("x^3+2x^2-x", "2.09518", "theorem1"),
        ("x^3+2x^2-x", "2.09518", "corollary2"),
    ])
    def test_check_root_on_monotone_stretch(self, problem, q, kind):
        # R turns back soon after passing q: a bracket doubled out from 0
        # stepped past the local extremum, onto a root of another branch
        # (1.92451) or over every root (2.09518)
        report, code = run(Command("check", problem=problem, q=q, kind=kind))
        assert code == 0 and report.status == "ok"
        solved, _ = run(Command("solve", problem=problem, q=q))
        assert abs(report.result["x"] - solved.result["x"]) <= 1e-12

    @pytest.mark.parametrize("problem, q", [("x^5+5x^3", "0.5"), ("x^4-3x^3+3x^2-x", "1")])
    def test_check_divergent_identity_refused(self, problem, q):
        # ord_0 D = 2 with weight 1: both sides are divergent integrals
        report, code = run(Command("check", problem=problem, q=q))
        assert code == 2
        assert report.status == "domain_error"
        assert "not integrable" in report.errors[0]

    def test_series(self):
        report, code = run(Command("series", problem="x^2+x", order=6))
        assert code == 0
        r = report.result
        assert r["coeffs"] == ["1", "-1", "2", "-5", "14", "-42"]
        assert r["ode_residual_zero"] is True

    @pytest.mark.parametrize("problem, order", [("3x^4-2x^2+7x", 40),
                                                ("1/7x^5+3/5x^2+2/9x", 60)])
    def test_series_nonmonic_certified(self, problem, order):
        report, code = run(Command("series", problem=problem, order=order))
        assert code == 0
        assert report.result["ode_residual_zero"] is True

    def test_series_too_short_to_test_the_equation(self):
        # order 1 leaves no residual coefficient the equation can prove
        # zero: the series is answered, the residual left undecided
        report, code = run(Command("series", problem="x^3+x", order=1))
        assert code == 0
        assert report.status == "ok"
        assert report.result["coeffs"] == ["1"]
        assert report.result["ode_residual_zero"] is None
        assert "ode_residual_orders" not in report.result

    def test_series_residual_nonzero_exit_2(self, monkeypatch):
        monkeypatch.setattr(cli, "series_ode_residual", lambda ode, series: [1])
        report, code = run(Command("series", problem="x^3+x", timing=False))
        assert (report.status, code) == ("residual_nonzero", 2)
        assert report.errors == ["series does not satisfy the derived equation"]

    def test_series_order_limit(self):
        for order in (1001, 10**9):
            report, code = run(Command("series", problem="x^3+x", order=order))
            assert code == 1
            assert report.status == "usage_error"
            assert "exceeds the limit 1000" in report.errors[0]
        report, code = run(Command("series", problem="x^5+x", order=1000))
        assert code == 0
        assert report.status == "ok"
        assert len(report.result["coeffs"]) == 1000

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([-3, -2, -1, 1, 2, 3]),
           st.lists(st.integers(-3, 3), max_size=5),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_solve_and_check_agree(self, c1, middle, q):
        # monic R of degree 2-7 with R'(0) != 0; solve and check take x from
        # the same certified root finder, whatever their other work
        problem = "".join(f"{c:+d}*x^{k}" for k, c in enumerate([c1, *middle, 1], 1) if c)
        reports = {}
        for verb, kind in (("solve", "theorem1"), ("check", "theorem1"),
                           ("check", "corollary2")):
            t0 = time.perf_counter()
            reports[verb, kind], _ = run(Command(verb, problem=problem, q=repr(q), kind=kind))
            assert time.perf_counter() - t0 < 5.0
        solved = reports.pop(("solve", "theorem1"))
        for report in reports.values():
            if solved.status == report.status == "ok":
                assert report.result["x"] == solved.result["x"]

    def test_domain_error_exit_2(self):
        report, code = run(Command("solve", problem="x^5+5x^3", q="1"))
        assert code == 2
        assert report.status == "domain_error"
        assert report.errors

    def test_parse_error_exit_1(self):
        report, code = run(Command("discriminant", problem="x^2+1"))
        assert code == 1
        assert report.status == "usage_error"
        assert "parse error" in report.errors[0]

    @pytest.mark.parametrize("verb", ["discriminant", "derive-abel", "derive-linear",
                                      "solve", "check", "series"])
    def test_missing_polynomial_exit_1(self, verb):
        report, code = run(Command(verb, q="1", timing=False))
        assert code == 1
        assert report.status == "usage_error"
        assert report.errors == [f"{verb} requires a polynomial"]
        assert report.input == ""

    @pytest.mark.parametrize("verb", ["solve", "check"])
    def test_missing_q_exit_1(self, verb):
        report, code = run(Command(verb, problem="x^3+x", timing=False))
        assert code == 1
        assert report.status == "usage_error"
        assert report.errors == [f"{verb} requires --q"]

    def test_unknown_verb_exit_1(self):
        _, code = run(Command("frobnicate", problem="x^2+x"))
        assert code == 1


class TestDemos:
    @pytest.mark.parametrize("name", DEMO_NAMES)
    def test_all_demos_pass(self, name):
        report, code = run(Command("demo", demo=name, timing=False))
        assert code == 0, report.errors
        assert report.result["passed"] is True
        assert report.result["checks"]

    def test_failed_demo_exit_2(self, monkeypatch):
        monkeypatch.setitem(cli.DEMOS, "cardano", lambda: [{"name": "root", "ok": False}])
        report, code = run(Command("demo", demo="cardano", timing=False))
        assert (report.status, code) == ("demo_failed", 2)
        assert report.errors == ["failed checks: root"]
        assert report.result["passed"] is False

    def test_unknown_demo(self):
        _, code = run(Command("demo", demo="nope"))
        assert code == 1


_JSON_CHARS = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t \ud800é€😀'),
                        st.characters())
_JSON_VALUES = st.recursive(
    st.one_of(st.text(_JSON_CHARS), st.booleans(), st.none(), st.integers(),
              st.sampled_from([10 ** 400, -2 ** 1000]), st.floats(),
              st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308])),
    lambda values: st.one_of(st.lists(values), st.lists(values).map(tuple),
                             st.dictionaries(st.text(_JSON_CHARS), values)),
    max_leaves=30)


def _report_dict(report):
    d = {"verb": report.verb, "input": report.input, "result": report.result,
         "status": report.status, "errors": report.errors}
    if report.timing_ms is not None:
        d["timing_ms"] = report.timing_ms
    return d


class TestReportFormats:
    def test_json_round_trip(self):
        report, _ = run(Command("derive-linear", problem="x^3+x"))
        again = Report(**json.loads(report.to_json()))
        assert again == report

    def test_json_is_strict(self):
        report, _ = run(Command("solve", problem="x^3-x", q="1"))
        json.loads(report.to_json())

    @settings(max_examples=300, deadline=None)
    @given(st.text(_JSON_CHARS), _JSON_VALUES, _JSON_VALUES,
           st.one_of(st.none(), st.floats()))
    def test_json_is_json_dumps_indent_2(self, text, result, errors, timing_ms):
        # to_json writes the report without json's pure-Python indent
        # encoder; its bytes are that encoder's all the same
        report = Report(text, text[::-1], result, text.upper(), errors, timing_ms)
        assert report.to_json() == json.dumps(_report_dict(report), indent=2)

    @pytest.mark.parametrize("cmd,status", [
        *((Command("demo", demo=name), "ok") for name in DEMO_NAMES),
        (Command("solve", problem="x^3-x", q="0.1"), "ok"),
        (Command("solve", problem="x^3-x", q="nan"), "usage_error"),
        (Command("solve", problem="x^5+5x^3", q="1"), "domain_error"),
        (Command("solve", problem="x^3+3x^2-2x", q="100"), "hit_branch_point"),
        (Command("check", problem="x^2+x", q="1e30", tol_rel=1e-16), "identity_mismatch"),
    ], ids=lambda v: v if isinstance(v, str) else v.demo or v.verb)
    def test_json_of_reports_is_json_dumps_indent_2(self, cmd, status):
        report, _ = run(cmd)
        assert report.status == status
        assert report.to_json() == json.dumps(_report_dict(report), indent=2)

    def test_latex_format_uses_display(self):
        report, _ = run(Command("derive-linear", problem="x^3+x", fmt="latex"))
        assert format_report(report, "latex") == r"(27q^{2}+4)x''+27qx'-3x=0"

    def test_latex_falls_back_to_text(self):
        report, _ = run(Command("discriminant", problem="x^3+x"))
        out = format_report(report, "latex")
        assert "script_d" in out

    def test_text_format(self):
        report, _ = run(Command("discriminant", problem="x^3+x", timing=False))
        out = format_report(report, "text")
        assert "status: ok" in out
        assert "timing_ms" not in out

    def test_text_format_nests_lists_of_dicts(self):
        # remark5's checks hold booleans only, so the whole report is fixed
        report, _ = run(Command("demo", demo="remark5", timing=False))
        assert format_report(report, "text") == "\n".join([
            "verb: demo",
            "input: remark5",
            "status: ok",
            "demo: remark5",
            "checks:",
            "  -",
            "    name: nonhomogeneous_s1",
            "    ok: true",
            "  -",
            "    name: nonhomogeneous_s2",
            "    ok: true",
            "  -",
            "    name: s0_reduces_to_homogeneous",
            "    ok: true",
            "passed: true",
        ])


class TestMain:
    def test_exit_codes(self, capsys):
        assert main(["discriminant", "x^2+x", "--no-timing"]) == 0
        assert main(["discriminant", "x^2+1"]) == 1
        assert main(["solve", "x^3-x", "--q", "1"]) == 2
        capsys.readouterr()

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x^2+x"])  # missing required --q
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_usage_error_says_what_went_wrong(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "x^2+x"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rootode solve")
        assert "error: the following arguments are required: --q" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "x^3+1" + "0" * 400 + "x", "--q", "0.5"],
        ["check", "x^3+1" + "0" * 400 + "x", "--q", "0.5"],
    ])
    def test_beyond_float_range_is_a_domain_error(self, capsys, argv):
        assert main(argv + ["--no-timing"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "domain_error"
        assert "float range" in report["errors"][0]

    @pytest.mark.parametrize("argv", [
        ["solve", "x^3+x^2", "--q", "0.1"],
        ["series", "x^3+x^2", "--order", "5"],
    ])
    def test_singular_origin_is_a_domain_error(self, capsys, argv):
        # R'(0) = 0 is input outside the domain, not a malformed command
        assert main(argv + ["--no-timing"]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "domain_error"

    def test_solve_needs_no_floats_of_w(self, capsys):
        # the same R at q > 0, where no branch point is isolated: W has
        # integers beyond 1.8e308, but the tangent 1/R'(x) does not use W
        assert main(["solve", "x^12+1" + "0" * 30 + "x", "--q", "0.5", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["x"] == 5e-31

    def test_branch_point_isolated_without_floats_of_d(self, capsys):
        # coefficients within range, but D has integers beyond 1.8e308: the
        # isolator forms no float of D, as for every root it isolates
        text = "x^12+1" + "0" * 30 + "x"
        assert main(["solve", text, "--q", "-0.5", "--no-timing"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["x"] == -5e-31
        assert exactly_bracketed(parse_polynomial(text).R, -0.5, result["x"])
        assert -3.91e32 < result["q_star"] < -3.90e32

    def test_coefficient_beyond_float_range_in_the_isolator(self, capsys):
        # D's branch point, about 3.8e479, is a root beyond the float range
        assert main(["check", "x^3-1" + "0" * 320 + "x", "--q", "1", "--no-timing"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "domain_error"
        assert "float range" in report["errors"][0]

    @pytest.mark.parametrize("verb", ["solve", "check"])
    @pytest.mark.parametrize("option,value", [
        ("--tol-abs", "nan"), ("--tol-abs", "-1e-9"), ("--tol-abs", "inf"),
        ("--tol-rel", "nan"), ("--tol-rel", "-1"), ("--tol-rel", "-inf"),
    ])
    def test_bad_tolerance_is_a_usage_error(self, capsys, verb, option, value):
        argv = [verb, "x^3+x", "--q", "1", option, value, "--no-timing"]
        if verb == "solve":
            # the tolerances decide check's answer alone; solve has no such flags
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
            return
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "usage_error"
        assert report["errors"] == [f"{option} must be finite and nonnegative,"
                                    f" got {float(value)}"]

    @pytest.mark.parametrize("argv", [["solve", "x^3+x", "--q", "1"],
                                      ["discriminant", "x^3+x"], ["series", "x^3+x"]])
    def test_tolerance_flags_belong_to_check(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol-abs", "1e-9", "--no-timing"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --tol-abs 1e-9" in capsys.readouterr().err

    def test_degree_limit_answers_at_once(self, capsys):
        assert parse_polynomial(f"x^{MAX_DEGREE}+x").n == MAX_DEGREE
        for argv in (["derive-linear", f"x^{MAX_DEGREE + 1}+x"],
                     ["series", "x^1000000000000+x"],
                     ["check", "x^3+x", "--q", "0.5", "--weight", f"q^{MAX_DEGREE + 1}"],
                     ["check", "x^3+x", "--q", "0.5", "--weight", "x^1000000000000+1"]):
            t0 = time.perf_counter()
            assert main(argv + ["--no-timing"]) == 1
            assert time.perf_counter() - t0 < 1.0
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "usage_error"
            assert f"exceeds the limit {MAX_DEGREE}" in report["errors"][0]

    def test_leading_minus_is_a_polynomial(self, capsys):
        # "-3x^3+..." answers as it does after "--", and so does a target
        # such as "-1e-3" that is not a plain negative number
        assert main(["series", "-3x^3+x^2-5/4x", "--order", "5", "--no-timing"]) == 0
        direct = capsys.readouterr().out
        assert main(["series", "--order", "5", "--no-timing", "--", "-3x^3+x^2-5/4x"]) == 0
        assert capsys.readouterr().out == direct
        assert json.loads(direct)["result"]["coeffs"][0] == "-4/5"
        assert main(["solve", "x^3+x", "--q", "-1e-3", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_closed_pipe_ends_quietly(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["discriminant", "x^3+x", "--no-timing"]) == 0

    def test_stdout_is_json(self, capsys):
        code = main(["derive-linear", "x^3+x"])
        out = capsys.readouterr().out
        assert code == 0
        parsed = json.loads(out)
        assert parsed["verb"] == "derive-linear"
        assert "timing_ms" in parsed

    def test_no_timing_is_deterministic(self, capsys):
        main(["series", "x^3+x", "--order", "8", "--no-timing"])
        first = capsys.readouterr().out
        main(["series", "x^3+x", "--order", "8", "--no-timing"])
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize("text,order,digest", [
    # the rational and non-monic cases of test_series.py's defining equation,
    # x^5 +- x at the series workload's top order, and dense degree 2-4 R
    ("2x^4-x^2+3x", 10, "99d7a571d7da928c1622f86c3f2b7bc595faf98156b1cd0ca99b18a4d5f1614e"),
    ("x^5+x", 200, "48042f77fe46d9843095d8ca896ed3dde6e486d8c76ae2440e7f136b249ba217"),
    ("x^5-x", 200, "a6dd6ae44c445edf0110e1eb612d95f38a0ba80c59f2052f7cb350efc7b2eb57"),
    ("-3x^3+x^2-5/4x", 150, "c703a667c40526fd845b2744e824a61539a9710212766a4f40cdadbed8633a86"),
    ("1/7x^5+3/5x^2+2/9x", 200, "abe77b8f57af925042746191c73d979346e1e2a22df6cd676abd5d5348aa8f22"),
    ("x^2-5/3x", 20, "e82cebfaa44070f3c5d5cd3de771b841355156b8669755d433dd2ce570761fe4"),
    ("x^2+x", 40, "dcfde437dc08658b693b7012d3ee526b35856199420c06de125adce51e2dc73a"),
    ("x^3-2x^2+4x", 30, "dae2d3a85e51b17a24ce430434a63a682316c65547dcfcc220d2e0a34e54fd4a"),
    ("x^3+x^2-x", 70, "7aa1d450266a566cc564ca0676a0f32e55e56a4c70967a24d95863deffae2f5b"),
    ("x^4+2x^3-x^2-2x", 40, "13e47cebfb14d0410255dad7f22b637cd050fda25d949afea2a0d486fd2bf8fd"),
    ("x^4-x^3+x^2+x", 60, "55a8e72b15187c1fd7bec88aec85dddf6069a2b38d8251dc8f4086fe3f5802aa"),
])
def test_series_output_pinned(text, order, digest):
    # sha256 of the --no-timing JSON: any byte change in the series or
    # the residual shows here
    report, code = run(Command("series", problem=text, order=order, timing=False))
    assert code == 0
    assert hashlib.sha256(format_report(report, "json").encode()).hexdigest() == digest


@pytest.mark.parametrize("kind,problem,q,weight,digest", [
    # PINNED (test_numeric.py) under both kinds
    ("theorem1", "x^3+3x^2-2x", "-0.173396", "2-q",
     "695eec1ceb20dc7ef78bef4d5c5cab0df76119e7cd829e171e6ff4b045763dc2"),
    ("corollary2", "x^3+3x^2-2x", "-0.173396", "2-q",
     "22dcc5a07b9d38f13839e63a97c8ad59113863a304e7bfc69ecbcb60763eb5c4"),
    ("theorem1", "x^3+3x^2+2x", "-0.297301", "2+q",
     "76c64fa30fc880ae9eabd9f4a00b57216a13fe8850d3dda785e773ecd5da87b6"),
    ("corollary2", "x^3+3x^2+2x", "-0.297301", "3-q",
     "868b4cb79274c2a9aa12140cd75ff12569e67bebe2549d97b0cc4d7a035d30bc"),
    ("theorem1", "x^3+x^2-3x", "2.79931", "3",
     "ed3705ba0279349e5004f5d396da5da3bf3f6da45029425bc6078da5c3913ecb"),
    ("corollary2", "x^3+x^2-3x", "2.79931", "3-q",
     "5b620352c8f036d998eb12daa3c7d99bd3e67d05f9fdf57e26a4e1f37c7cd9bd"),
    ("theorem1", "x^3+x^2-x", "0.383107", "1",
     "fd9d97e65c4375a65f2c0f7516532f4f84319145db56183a946e043b0fbf55ff"),
    ("corollary2", "x^3+x^2-x", "0.383107", "1-q",
     "2a965533e1e9ab15c2b4692496d9728e7fa614b143c9f6a54a828c5c313d8cb0"),
    ("theorem1", "x^4-3x^3-3x^2-2x", "1.37682", "1+q",
     "8b26f85dbbdcbcb18549caa5b1c7d13930ef9bd4a58c3a512dd0d4ffc53651a0"),
    ("corollary2", "x^4-3x^3-3x^2-2x", "1.37682", "3",
     "c81b9745a927f43c08dc123e543db2342cd34aaca2103f2b7b402869a43c482d"),
    ("theorem1", "x^4-2x^3-3x", "-3.00222", "1+q",
     "1ca2d033dea3926b85c4bbd7ee17f32cc16d48e7be6391bfe6e7123f4c50d82b"),
    ("corollary2", "x^4-2x^3-3x", "-3.00222", "2",
     "a6611b78f1bc6466a9395d8fb0c0f05dc41d96132659c51c6537c0203f2b0713"),
    ("theorem1", "x^4+3x^3-3x^2-3x", "-1.3277", "1-q",
     "34a3a277527de55deb5a376f5c7bc17e780631028a9730a7d9bbc060624ea76f"),
    ("corollary2", "x^4+3x^3-3x^2-3x", "-1.3277", "2",
     "f33114d0bd4ab8ca347dd97b10a4e8b9f56f2d3c6353132daae3bb16eabdc421"),
    ("theorem1", "x^5-x^4+2x^3+x^2-3x", "-0.804108", "2-2q",
     "f203b66c204447b4655cbd9cfcc633434fc7546171f2e09d3664891bf90fc3d7"),
    ("corollary2", "x^5-x^4+2x^3+x^2-3x", "-0.804108", "1+2q",
     "e3eb3a247757c9da018c15095361586c7226e29b27454277e94d22e7589dffe7"),
    ("theorem1", "x^5+3x^4-x^3+2x", "9.66179", "1",
     "004c3d79067ad2723102579b2ebfa3030983117e3ed88035f61c0e4a7c52e17d"),
    ("corollary2", "x^5+3x^4-x^3+2x", "9.66179", "3-2q",
     "24b34f32f89afaf313bd111c2c0da10847fe1ab54bae35aabd432375e3940be0"),
    ("theorem1", "x^5-3x^4-x^3-2x^2+3x", "-32.8047", "3+q",
     "de5630cdd9fe56d360a601f6eecc450d02ff72df800b95f76760e5eb14dd4e18"),
    ("corollary2", "x^5-3x^4-x^3-2x^2+3x", "-32.8047", "3+q",
     "21f162beb8a86597055103fe5b1d0546600546551cb5153d22c7aa6746dd5445"),
    # the near-pole split of the known sweep op
    ("theorem1", "x^5-3x^4+2x^2-x", "-7.55021", "3-q",
     "b051e7b3545502ed69f1b354cc15ddf0f4b991f1eb0bf102a234de64ed5b3712"),
    ("corollary2", "x^5-3x^4+2x^2-x", "-7.55021", "1+2q",
     "de2ff207b307b3bb0411ac69f44aa18763600343baffddc4a8841aed29576686"),
    # w(0) = 0: the Remark 2 sign rule
    ("theorem1", "x^3+x^2-x", "0.383107", "q",
     "319eb443ad4d613719da21521af1c70587bc4c57ee18b457cef51f9fecf8214f"),
    # D(0) = 0
    ("theorem1", "x^3+2x^2+x", "0.01", "1",
     "ebcac73f7a5d11c4609436cf35a9e74bf961d48c850c3fc78edc9d4ddf8c9681"),
    # w shares the root 2 with D: the x side keeps its own gcd
    ("theorem1", "x^3-3x", "1", "q-2",
     "98de83a8d9da18b675adc09d1f1ae2e58fe2c790959ed3113aae7a9f6f5b7f6e"),
    ("theorem1", "x^3-3x", "-1.5", "q-2",
     "b75629f715e547dd8e09b9f5a9bb98afc7e976bab51858515dee460385fb4053"),
    # every demo's checks
    ("demo", "babylonian", None, None,
     "9d23bd48e73a35243e250997483a6badc498b7d047ed0f3ba96582ffbdfdee92"),
    ("demo", "cardano", None, None,
     "6758f64d0ad4760dfe6722fd426ce1c723d8ff9425b246559c8fc14c647feee5"),
    ("demo", "quartic23", None, None,
     "8713affbbd8305b43d947ba18e6abcf13e90bcc350ba7218dcd0945b73e91fe2"),
    ("demo", "betti", None, None,
     "0c6386c06e830e93abf1bcfaa58c7774c0a1a33fd67eed7622bba52619e5c46c"),
    ("demo", "hypergeom", None, None,
     "83901ad98d091e1646db8162d3f9d06b888d555a52e976e1c3bcda2af13d5013"),
    ("demo", "remark5", None, None,
     "6ce0224eede5e2c93b4530330f07ec0aaffcf0877679c5952c72ddba4d3d0a58"),
])
def test_check_output_pinned(kind, problem, q, weight, digest):
    # sha256 of the --no-timing JSON: a change in the last bit of x, of
    # either integral or of their difference shows here
    if kind == "demo":
        cmd = Command("demo", demo=problem, timing=False)
    else:
        cmd = Command("check", problem=problem, q=q, kind=kind, weight=weight, timing=False)
    report, code = run(cmd)
    assert code == 0
    assert hashlib.sha256(format_report(report, "json").encode()).hexdigest() == digest


@pytest.mark.parametrize("cmd,status,text_digest,latex_digest,json_digest", [
    (Command("discriminant", problem="x^3+x", timing=False), "ok",
     "fdfacb351680d1c9f074e2333b7079816ab74dd93b91cca25886f02976de168e", None,
     "168633faf654821590ab156d36289f4a27e80b5574448d96610f966e59617839"),
    # the inhomogeneous term, and a rational non-monic R
    (Command("derive-abel", problem="x^3+x^2+x", timing=False), "ok",
     "c54d9f7abc6d98d902b376fa39157110b2e63a2372d08c9bbe280e09434d73b9",
     "5d7c093607d015026229e4ecec727bd2e2f2e25fc291c7cbb80b485575c7046a",
     "50e4c1721a92596662d831f9781fb18022f1477e9d0c89d1c159fedba35c2047"),
    (Command("derive-abel", problem="-3x^3+x^2-5/4x", timing=False), "ok",
     "75b542d7b2dfc6d87b249a80183cd6e8206390a4cc459f887c23cf87074c206f",
     "9fb64640194ab8389099d1f49e78234b78ff1fdc24da871f736c5313bd1d6b25",
     "9fb4885ca31666d8c87562c0b83ed13b24d807be34469648fb3f1721e9b9ef83"),
    (Command("derive-linear", problem="x^3+x^2+x", timing=False), "ok",
     "cc440297bef97fa96909013340a5103d717c32b364d6a9105e98f69d381be2b3",
     "1c8f756a0e3bf60fe03c27e16974905963cdc759ab9964866250ac2a703991b7",
     "cd63be715223b19cd84939dae4a01bd7abaa7f00ea73f07ce19aff63e74da9a6"),
    (Command("derive-linear", problem="2x^4-x^2+3x", timing=False), "ok",
     "867f8c5784668468387ee1d1a362a9ce9f87b3edee5ada7382ee216547209783",
     "2587350d586fcdd64fca64eb4a40a76d7ee62453f78bcba80dc5e443fa7c824d",
     "aa9be3124a4948bf4135157445e507380562b57a20765b19605b1b62a1c7aba0"),
    # the dense octic and nonic, and the two R of degree 13, of the CI
    # runtime job
    (Command("derive-abel", problem="x^8+3x^7-2x^5+x^3+5x", timing=False),
     "ok",
     "e80aba84475b3fdedaa9641a12a40c5b30d304f4406f74ed4aab5b5a7c46f543",
     "0507c2ec468d2f8946a5e16ab4ae10d5266808bfa62eb2d5a8f5d0ea8149c595",
     "89a0005dd1d23aeef306d55b408f6fe5617fa4f1b0a5548cc0e583f1a36d2d87"),
    (Command("derive-linear", problem="x^8+3x^7-2x^5+x^3+5x", timing=False),
     "ok",
     "a2770b4f3fcef2da49d25fa974eaa323397919b2f72eb608241acc43ed63252b",
     "62c6461cfb59d77bbac7a3e6789a47a1927a21a1f327bc9622d693c0a7615f90",
     "6a66fec482a7424ae22c8c0ea2bd4ee043dcd741bd3f34410065f65dd9ec4bce"),
    (Command("derive-abel", problem="x^9+2x^8-x^7+3x^5-x^2+4x", timing=False),
     "ok",
     "1aa9869371a69b5c8ba7193b98010a334a185f0f96760d2b779683adc3e78c53",
     "a05e6f76d5abfbb5c83d3541b8e93cee67611afd41950f17fb6a2a608aadf2dd",
     "32fe1d11bca08bd0ba2ff6af93f7d875d3a9c80f7ac84a0fb99d8aed0d9146eb"),
    (Command("derive-linear", problem="x^9+2x^8-x^7+3x^5-x^2+4x", timing=False),
     "ok",
     "e54b0a1d940fa4794cc4f6cddac18b2df218e59ec76deda93fdfd61ee02db6b3",
     "66842ace75134fbb690ef9c5e11dac5463827f710e30d355ce1ee94c9177bf70",
     "c2fae6f9f8a7141cb849191fa8ceb21f87e93b0703f93e70edf7c78c82c1bc89"),
    (Command("derive-abel", problem="x^13+2x^12-x^11+3x^9-x^7+x^5-x^2+4x", timing=False),
     "ok",
     "033d39d5147446d98bd338f4324d6d3c75480931508a3aa670b2d385fbe48d4d",
     "404197a73e67dec5485bba12003c3d2a4aa29e62401880ce135aab25a15d00fc",
     "50db260c1e93e19124bf81669b1d72df47b2391ddf9a1b63521e6b8852399313"),
    (Command("discriminant", problem="x^13+2x^12-x^11+3x^9-x^7+x^5-x^2+4x", timing=False),
     "ok",
     "07d2ecc1f43d643669d1c1da0bff9e6e81785ca3e22e53890f57553e72d9038d", None,
     "1d645fe4c33e98213f0f656d8368224b7e993778196787a27c911926465f8c43"),
    (Command("derive-abel", problem="-3/7x^13+5/2x^12-x^11+7/5x^8+3x^5-x^2+4/3x", timing=False),
     "ok",
     "a711eb31736bcabf11758c642db4cd8b0453b3b3b567afc06d57633eca18be77",
     "dd5e0aaf171e792a190b83fe1fa9f274effffe2bf3cdbd346f6e442265f466cd",
     "ddc8fbfce382f8b617ab6b47750c2451abe98eb4b00a0603956631f2adc7acc4"),
    (Command("discriminant", problem="-3/7x^13+5/2x^12-x^11+7/5x^8+3x^5-x^2+4/3x", timing=False),
     "ok",
     "6042c36196681640297ce9e374d21d2fc575a42eb71519301f3ee72e1bb5366b", None,
     "d747f7feb592e879ad626e4dc3123ec9f618b8a523443944817450b8c098a66a"),
    (Command("solve", problem="x^3+3x^2-2x", q="-0.173396", timing=False), "ok",
     "2de11c35c85dfc16e46ff3d777f677706e961394a59fce01efa307d7e47675ef", None,
     "931172de5d04eebeade7479c8f1422d28d2b4fd9324f357face3faf4c0b0a230"),
    (Command("solve", problem="x^3+3x^2-2x", q="100", timing=False), "hit_branch_point",
     "6b23fc114efeb0fc19f786d1b1866a3dbe86b08287f2a82a16c752aba27fc163", None,
     "1923304ecdff42b495273a7375454b81ba1e8d8db677a36e48a0d7757c776121"),
    (Command("check", problem="x^3+3x^2-2x", q="-0.173396", weight="2-q", timing=False), "ok",
     "8f520f69fe4666a54b7e6ee45251d8cbd533aeeaf3c6bc752e5f413d4b6a80cf", None,
     "695eec1ceb20dc7ef78bef4d5c5cab0df76119e7cd829e171e6ff4b045763dc2"),
    (Command("check", problem="x^3+3x^2-2x", q="100", kind="corollary2", timing=False),
     "hit_branch_point",
     "5919e81fbc6d15662d83d86feb5246584f4720827f83f938cf472a00502ef109", None,
     "e927206d8ce99b3453c70298a69b0419d250e94ecb3f0be49f15eb32079389ad"),
    (Command("check", problem="x^2+x", q="1e30", tol_rel=1e-16, timing=False),
     "identity_mismatch",
     "594dd0079177fb2dba85b4af05bd897fa0441436775321e4a396ac9373d346db", None,
     "754d0c8220d72f482c9859ffec850a5db3b34fd998fa58eecf2f5ed13158a0f3"),
    (Command("series", problem="x^3+x", order=8, timing=False), "ok",
     "1849a58ec7255563dcca8c4fd11fc0ef736cdcd1e2b854ed548a42986efc3449", None,
     "1460ac258438fd4cf44008b1d52cac9dcdb7a8cd3297b20cfeedd97925e53364"),
    # too short to test the equation: ode_residual_zero is none
    (Command("series", problem="x^3+x", order=1, timing=False), "ok",
     "5906b2237460c6c6dd1e1e8ef264bc85a8a900b9cfd133243d848443c0a3599d", None,
     "74706384760aba3cc59403c15d98b2aeea6a6679a38bd64703ca53cbe7946a7c"),
    (Command("series", problem="x^3+x^2", order=5, timing=False), "domain_error",
     "5657eae7e76fbfe074fa33b5842996488aea0ed089287145f93af0a2e5012500", None,
     "64aacbd28bc5113a9479161b03b394612d0372998761cbd134dd87a63c97e10d"),
    (Command("solve", problem="x^5+5x^3", q="1", timing=False), "domain_error",
     "d205bca4ace7f039a7cecaaeced6903494bd2513e66f404f4b9ef92a0e1a6313", None,
     "faa996f22c6d10d261843625505f78f73a5b94a287b2e5a6296c8097015bfe41"),
    (Command("discriminant", problem="x^2+1", timing=False), "usage_error",
     "3eda0093895a40bccbb64d00b781b6044e8f0b48aaf30026521c4495ab53633e", None,
     "eb3cb91f419131d1713dc96a786903ef181f819cb97e83789f1d34e9bc59e242"),
    (Command("solve", problem="x^3+x", timing=False), "usage_error",
     "a5c83f91aa0fad7b7516981cfd936f8d001b094d12ab3bd6d79c7141812d5d50", None,
     "3212d653b1574be62f464dfd271a26532adfd01ea0206afd7bf19fd0422e0f8a"),
    (Command("bogus", problem="x^3+x", timing=False), "usage_error",
     "2aa8aadb621252e26b696a1c098333e06c2f6415f5b25d7aad6bc60bd8f69cf9", None,
     "c4edec36411f49c33f43b7def9546fb76ecc80a35e42f61fecd4d205b9975df1"),
    (Command("demo", demo="babylonian", timing=False), "ok",
     "1eecebcba2caf62143eb4527757839e63bf00724c3b59122f741160864d6e760", None,
     "9d23bd48e73a35243e250997483a6badc498b7d047ed0f3ba96582ffbdfdee92"),
    (Command("demo", demo="cardano", timing=False), "ok",
     "67f0a3686b4cd64b4c75bab950249c03f553d873038a74ea7c9b2bbe7d92aaa8", None,
     "6758f64d0ad4760dfe6722fd426ce1c723d8ff9425b246559c8fc14c647feee5"),
    (Command("demo", demo="quartic23", timing=False), "ok",
     "5d482609fa9bfc9cec4cf4746acb397f7e03a84b14c08889fce00da17853fbd9", None,
     "8713affbbd8305b43d947ba18e6abcf13e90bcc350ba7218dcd0945b73e91fe2"),
    (Command("demo", demo="betti", timing=False), "ok",
     "4b6f451001b7e05c959440ddad5cf337072b2207f2fdaa804067b01c517591ac", None,
     "0c6386c06e830e93abf1bcfaa58c7774c0a1a33fd67eed7622bba52619e5c46c"),
    (Command("demo", demo="hypergeom", timing=False), "ok",
     "45a75a1b89441ce623f9c119b699d8336916c86bd7efd713458fdf0182440ccb", None,
     "83901ad98d091e1646db8162d3f9d06b888d555a52e976e1c3bcda2af13d5013"),
    (Command("demo", demo="remark5", timing=False), "ok",
     "dc783213aee663936996707b229288b3e544d16906585ee5a7b01cacbdbdcc4e", None,
     "6ce0224eede5e2c93b4530330f07ec0aaffcf0877679c5952c72ddba4d3d0a58"),
], ids=lambda v: v.demo or v.verb if isinstance(v, Command) else None)
def test_text_and_latex_output_pinned(cmd, status, text_digest, latex_digest, json_digest):
    # sha256 of the --no-timing text, latex and json forms; latex_digest
    # None means the report has no equation and latex falls back to the text
    report, _ = run(cmd)
    assert report.status == status
    assert hashlib.sha256(format_report(report, "json").encode()).hexdigest() == json_digest
    text = format_report(report, "text")
    assert hashlib.sha256(text.encode()).hexdigest() == text_digest
    latex = format_report(report, "latex")
    if latex_digest is None:
        assert latex == text
    else:
        assert hashlib.sha256(latex.encode()).hexdigest() == latex_digest
