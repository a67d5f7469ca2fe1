"""Command-line surface: parsing, report schema, exit codes, demos."""
import json
from fractions import Fraction

import pytest

from rootode.algebra import UPoly
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


class TestParsing:
    def test_trinomial_text(self):
        spec = parse_polynomial("x^3+x")
        assert spec.R == UPoly("x", (0, 1, 0, 1))

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

    def test_q_value(self):
        assert parse_q_value("3/4") == 0.75
        assert parse_q_value("0.5") == 0.5
        assert parse_q_value("-2") == -2.0
        with pytest.raises(ParseError):
            parse_q_value("two")
        for text in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ParseError):
                parse_q_value(text)


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

    @pytest.mark.parametrize("verb", ["solve", "check"])
    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_q_usage_error(self, verb, q):
        report, code = run(Command(verb, problem="x^3+x", q=q))
        assert code == 1
        assert report.status == "usage_error"
        assert "finite" in report.errors[0]

    @pytest.mark.parametrize("q", ["0.01", "0.1"])
    def test_check_double_root_at_origin(self, q):
        # R = x(x+1)^2 has D(0) = 0: the reduced q-side denominator vanishes
        # at the endpoint t = 0, which quad must step off, not divide by
        report, code = run(Command("check", problem="x^3+2x^2+x", q=q))
        assert code == 0
        assert report.status == "ok"
        assert report.result["remark2"] is True
        assert abs(report.result["diff"]) <= report.result["tol"]

    def test_series(self):
        report, code = run(Command("series", problem="x^2+x", order=6))
        assert code == 0
        r = report.result
        assert r["coeffs"] == ["1", "-1", "2", "-5", "14", "-42"]
        assert r["ode_residual_zero"] is True

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

    def test_unknown_demo(self):
        _, code = run(Command("demo", demo="nope"))
        assert code == 1


class TestReportFormats:
    def test_json_round_trip(self):
        report, _ = run(Command("derive-linear", problem="x^3+x"))
        again = Report.from_json(report.to_json())
        assert again == report

    def test_json_is_strict(self):
        report, _ = run(Command("solve", problem="x^3-x", q="1"))
        json.loads(report.to_json())

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
