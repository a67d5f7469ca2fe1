"""Command-line interface.

Verbs:

* ``discriminant`` — discriminant D, cofactor U and their sign-normalized
  variants for R(x) = q.
* ``derive-abel`` — the first-order equation x' = sum a_j(q) x^j.
* ``derive-linear`` — the linear equation of order at most n-1.
* ``solve`` — the branch root x(q) at a target q and its residual; a target
  at or past the first nonzero real root of D on its side is refused as
  ``hit_branch_point``.
* ``check`` — numerically verify the separated-variables integral identity;
  a target at or past the first nonzero real root of D on its side is
  refused as ``hit_branch_point``, and a divergent identity or a quadrature
  that does not converge by its finest level as ``domain_error``.
* ``series`` — exact branch series coefficients, certified against the
  linear equation when possible.
* ``demo`` — built-in end-to-end reproductions (babylonian, cardano,
  quartic23, betti, hypergeom, remark5), which live in ``rootode.demos``.

Reports serialize exact quantities as rational strings and round-trip
losslessly through JSON.  Exit codes: 0 success, 1 usage error, 2 domain
failure (branch point hit, identity out of tolerance, out-of-domain
input).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from ._memo import memoized
from .algebra import MAX_DEGREE, UPoly, _horner, _ratio
from .demos import DEMOS
from .derive import (
    ProblemSpec,
    build_integrands,
    factorize,
    linear_ode,
    abel_ode,
)
from .errors import DomainError, ParseError, RootodeError
from .numeric.quadrature import check_identity
from .numeric.series import lagrange_series, series_ode_residual
from .numeric.tracking import (
    bisect_branch_root,
    first_branch_point,
    past_branch_point,
)
from .render import (
    abel_coeff_arrays,
    coeff_strings,
    latex_abel,
    latex_linear,
    linear_coeff_arrays,
    text_abel,
    text_linear,
)

__all__ = [
    "Command",
    "Report",
    "parse_polynomial",
    "parse_weight",
    "parse_q_value",
    "run",
    "main",
    "DEMO_NAMES",
]

DEMO_NAMES = tuple(DEMOS)


# ---------------------------------------------------------------------------
# parsing

def _parse_terms(text: str, var: str) -> list[int | Fraction]:
    """The ascending coefficients of `c`, `c*x^k`, `x^k` terms joined by
    + and -.

    Coefficients are integers or fractions a/b, kept as an int unless b
    does not divide a; errors carry the offset into the original string.
    """
    n = len(text)

    def space(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def number(i: int) -> tuple[int, int]:
        end = i
        while end < n and text[end].isdecimal():
            end += 1
        if end == i:
            raise ParseError("expected digits", i)
        try:
            return int(text[i:end]), end
        except ValueError:  # decimal digits fail only beyond sys.get_int_max_str_digits()
            raise ParseError("number too long", i) from None

    powers: dict[int, int | Fraction] = {}
    i = space(0)
    if i == n:
        raise ParseError("empty polynomial", 0)
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = space(i + 1)
            if i == n:
                raise ParseError("dangling sign", n - 1)
        elif powers:
            raise ParseError(f"expected '+' or '-', found {text[i]!r}", i)
        c = sign
        if text[i].isdecimal():
            num, i = number(i)
            den = 1
            if i < n and text[i] == "/":
                den, end = number(i + 1)
                if den == 0:
                    raise ParseError("zero denominator", i + 1)
                i = end
            c = _ratio(num, den) * sign
            i = space(i)
            if i < n and text[i] == "*":
                i = space(i + 1)
                if i == n or not text[i].isalpha():
                    raise ParseError("expected variable after '*'", i)
        elif not text[i].isalpha():
            raise ParseError(f"unexpected character {text[i]!r}", i)
        k = 0
        if i < n and text[i].isalpha():
            if text[i] != var:
                raise ParseError(f"unexpected variable {text[i]!r} (expected {var!r})", i)
            k = 1
            i = space(i + 1)
            if i < n and text[i] == "^":
                k, i = number(space(i + 1))
        powers[k] = powers.get(k, 0) + c
        i = space(i)
    # checked before the coefficient list of a huge degree is allocated
    deg = max(powers)
    if deg > MAX_DEGREE:
        raise ParseError(f"degree {deg} exceeds the limit {MAX_DEGREE}", 0)
    return [powers.get(k, 0) for k in range(deg + 1)]


@memoized
def parse_polynomial(text: str) -> ProblemSpec:
    """Parse R from text such as "x^3+x" or "x^4-2x^3+2x^2-x".

    Enforces R(0) = 0 and degree >= 2.  The result depends on the text
    alone, so it is memoized; a text that fails to parse raises again.
    """
    poly = UPoly("x", _parse_terms(text, "x"))
    if poly.coefficient(0) != 0:
        raise ParseError("constant term must be zero (R(0) = 0)", 0)
    if poly.degree < 2:
        raise ParseError("degree must be at least 2", 0)
    return ProblemSpec(poly)


@memoized
def parse_weight(text: str) -> UPoly:
    """Parse a weight polynomial; the variable may be written x or q.
    Memoized, like ``parse_polynomial``."""
    var = next((ch for ch in text if ch.isalpha()), "q")
    if var not in ("x", "q"):
        raise ParseError(f"unexpected variable {var!r}", text.index(var))
    return UPoly("q", _parse_terms(text, var))


def parse_q_value(text: str) -> float:
    """A finite q target given as a rational string or a float literal.

    ``float``'s reading is correctly rounded, so it is float(Fraction(text)),
    or inf where that overflows, but for the sign of a zero: the rational
    is 0, and its float +0.0, exactly when no digit of the mantissa (the
    text before e/E) is nonzero, so "-0" is +0.0 and "-1e-400" is -0.0,
    and no power of ten is built.  Only a text that ``float`` cannot read,
    such as "3/4", takes the rational reading, where a rational beyond the
    float range is inf."""
    try:
        value = float(text)
    except ValueError:
        try:
            value = float(Fraction(text))
        except OverflowError:
            value = math.inf
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational or float: {text!r}", 0) from None
    else:
        mantissa = text.lower().partition("e")[0]
        if not value and not any(c.isdecimal() and int(c) for c in mantissa):
            value = 0.0
    if not math.isfinite(value):
        raise ParseError(f"q must be finite, got {text!r}", 0)
    return value


# ---------------------------------------------------------------------------
# command and report

@dataclass(frozen=True)
class Command:
    verb: str
    problem: str | None = None
    demo: str | None = None
    q: str | None = None
    order: int | None = None
    weight: str | None = None
    kind: str = "theorem1"
    fmt: str = "json"
    # read by check alone
    tol_abs: float | None = None
    tol_rel: float | None = None
    timing: bool = True


@dataclass
class Report:
    verb: str
    input: str
    result: dict
    status: str
    errors: list[str] = field(default_factory=list)
    timing_ms: float | None = None

    def to_json(self) -> str:
        """The bytes of ``json.dumps(d, indent=2)`` for the report's dict,
        written by ``_json_text`` rather than json's pure-Python indent
        encoder; ``timing_ms`` is left out when it is None."""
        d = {k: v for k, v in vars(self).items() if v is not None or k != "timing_ms"}
        return _json_text(d, "\n")


_quote = json.encoder.encode_basestring_ascii


def _json_text(v, newline: str) -> str:
    """v as ``json.dumps(v, indent=2)`` writes it, nested where each line
    starts with ``newline``; string keys only."""
    if isinstance(v, str):
        return _quote(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    inner = newline + "  "
    if isinstance(v, dict):
        items = [_quote(k) + ": " + _json_text(e, inner) for k, e in v.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json_text(e, inner) for e in v]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return json.dumps(v)


# ---------------------------------------------------------------------------
# verb handlers: each returns a result dict; "_status"/"_errors" override
# the default "ok"

def _h_discriminant(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    fact = factorize(spec)
    return {
        "n": spec.n,
        "D": coeff_strings(fact.D),
        "U": coeff_strings(fact.U),
        "script_d": coeff_strings(fact.script_d),
        "script_u": coeff_strings(fact.script_u),
        "disc_zero": fact.disc_zero,
    }


def _h_derive_abel(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    ode = abel_ode(spec)
    return {
        "n": spec.n,
        "D": coeff_strings(ode.D),
        "a": abel_coeff_arrays(ode),
        "latex": latex_abel(ode),
        "text": text_abel(ode),
    }


def _h_derive_linear(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    ode = linear_ode(spec)
    return {
        "order": ode.order,
        "b": linear_coeff_arrays(ode),
        "ambiguous": ode.ambiguous,
        "latex": latex_linear(ode),
        "text": text_linear(ode),
    }


def _q_star(d: UPoly, qv: float) -> float | None:
    """The first branch point, a root of D, on the side of q; None if there
    is none, or at q = 0."""
    return first_branch_point(d, 1 if qv > 0 else -1) if qv else None


def _target(cmd: Command) -> tuple[ProblemSpec, float]:
    """The problem of ``solve`` or ``check`` and its parsed target q."""
    spec = parse_polynomial(cmd.problem)
    if cmd.q is None:
        raise ValueError(f"{cmd.verb} requires --q")
    return spec, parse_q_value(cmd.q)


def _h_solve(cmd: Command) -> dict:
    spec, qv = _target(cmd)
    if spec.R.coefficient(1) == 0:
        raise DomainError("R'(0) = 0: the branch is not analytic at the origin")
    if not qv:
        # x(0) = 0 needs no floats of R, which may lie beyond their range
        return {"q": cmd.q, "x": 0.0, "residual": 0.0, "tracking_status": "ok", "q_star": None}
    q_star = _q_star(factorize(spec).D, qv)
    if past_branch_point(qv, q_star):
        return {"q": cmd.q, "x": None, "residual": None, "tracking_status": "hit_branch_point",
                "q_star": q_star, "_status": "hit_branch_point",
                "_errors": ["tracking stopped: hit_branch_point"]}
    x = bisect_branch_root(spec.R, qv)
    residual = abs(_horner(spec.R.float_coeffs(), x) - qv)
    return {"q": cmd.q, "x": x, "residual": residual, "tracking_status": "ok", "q_star": q_star}


def _h_check(cmd: Command) -> dict:
    spec, qv = _target(cmd)
    # a negative or non-finite tolerance is a ValueError, hence a usage_error
    for name, value in (("--tol-abs", cmd.tol_abs), ("--tol-rel", cmd.tol_rel)):
        if value is not None and not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    atol = 1e-8 if cmd.tol_abs is None else cmd.tol_abs
    rtol = 1e-10 if cmd.tol_rel is None else cmd.tol_rel
    weight = parse_weight(cmd.weight if cmd.weight is not None else "1")
    fact = factorize(spec)
    q_star = _q_star(fact.D, qv)
    if past_branch_point(qv, q_star):
        return {"kind": cmd.kind, "weight": str(weight), "q": cmd.q, "q_star": q_star,
                "_status": "hit_branch_point",
                "_errors": [f"q is at or past the branch point q* = {q_star!r}"]}
    ispec = build_integrands(fact, weight, cmd.kind)
    x = bisect_branch_root(spec.R, qv)
    rep = check_identity(ispec, x, qv)
    # absolute near 0, relative once the integrals are large
    tol = max(atol, rtol * max(abs(rep.lhs), abs(rep.rhs)))
    ok = abs(rep.diff) <= tol
    out = {
        "kind": cmd.kind,
        "weight": str(weight),
        "remark2": ispec.remark2,
        "q": cmd.q,
        "x": x,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "diff": rep.diff,
        "tol": tol,
    }
    if not ok:
        out["_status"] = "identity_mismatch"
        out["_errors"] = [f"|lhs - rhs| = {abs(rep.diff):.3e} exceeds {tol:.3e}"]
    return out


def _h_series(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    order = cmd.order if cmd.order is not None else 10
    s = lagrange_series(spec, order)
    out = {"order": order, "coeffs": [str(c) for c in s]}
    ode = linear_ode(spec)
    try:
        residual = series_ode_residual(ode, s)
    except ValueError:
        out["ode_residual_zero"] = None
    else:
        out["ode_residual_zero"] = all(c == 0 for c in residual)
        out["ode_residual_orders"] = len(residual)
        if not out["ode_residual_zero"]:
            out["_status"] = "residual_nonzero"
            out["_errors"] = ["series does not satisfy the derived equation"]
    return out


def _h_demo(cmd: Command) -> dict:
    if cmd.demo not in DEMOS:
        raise ValueError(f"unknown demo {cmd.demo!r}; choose from {', '.join(DEMO_NAMES)}")
    checks = DEMOS[cmd.demo]()
    failed = [c["name"] for c in checks if not c["ok"]]
    out = {"demo": cmd.demo, "checks": checks, "passed": not failed}
    if failed:
        out["_status"] = "demo_failed"
        out["_errors"] = [f"failed checks: {', '.join(failed)}"]
    return out


_DISPATCH = {
    "discriminant": _h_discriminant,
    "derive-abel": _h_derive_abel,
    "derive-linear": _h_derive_linear,
    "solve": _h_solve,
    "check": _h_check,
    "series": _h_series,
    "demo": _h_demo,
}


# ---------------------------------------------------------------------------
# driver

def run(cmd: Command) -> tuple[Report, int]:
    """Execute a command; returns the report and the process exit code: 0
    for status ok, 1 for usage_error and 2 for any other status."""
    t0 = time.perf_counter()
    try:
        if cmd.verb not in _DISPATCH:
            raise ValueError(f"unknown verb {cmd.verb!r}")
        if cmd.problem is None and cmd.verb != "demo":
            raise ValueError(f"{cmd.verb} requires a polynomial")
        result = _DISPATCH[cmd.verb](cmd)
        status = result.pop("_status", "ok")
        errors = result.pop("_errors", [])
    except ParseError as exc:
        result, status, errors = {}, "usage_error", [f"parse error: {exc}"]
    except ValueError as exc:
        result, status, errors = {}, "usage_error", [str(exc)]
    except RootodeError as exc:
        result, status, errors = {}, "domain_error", [str(exc)]
    timing_ms = round((time.perf_counter() - t0) * 1000.0, 3) if cmd.timing else None
    label = cmd.demo if cmd.verb == "demo" else (cmd.problem or "")
    report = Report(cmd.verb, label, result, status, errors, timing_ms)
    return report, {"ok": 0, "usage_error": 1}.get(status, 2)


def _text_lines(value, pad: str = "") -> list[str]:
    """A dict as "key: value" lines, a list as "- value" lines.  A nonempty
    dict, or a list that holds a dict or a list, goes below its "key:" or
    "-" line, two spaces further in; any other value stays on the line."""
    if isinstance(value, dict):
        pairs = [(f"{k}:", v) for k, v in value.items()]
    else:
        pairs = [("-", v) for v in value]
    lines = []
    for head, v in pairs:
        if isinstance(v, dict) and v or isinstance(v, list) and any(
                isinstance(e, (dict, list)) for e in v):
            lines += [pad + head] + _text_lines(v, pad + "  ")
        else:
            lines.append(f"{pad}{head} {_flat(v)}")
    return lines


def _flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_flat(e) for e in v) + "]"
    if isinstance(v, bool) or v is None:
        return str(v).lower()
    return str(v)


def format_report(report: Report, fmt: str) -> str:
    """The report as JSON; as text lines (``_text_lines``) under its verb,
    input, status and errors; or, in latex, as its equation alone where it
    has one and as the text otherwise."""
    if fmt == "json":
        return report.to_json()
    if fmt == "latex" and report.result.get("latex") is not None:
        return report.result["latex"]
    lines = [f"verb: {report.verb}", f"input: {report.input}", f"status: {report.status}"]
    lines += [f"error: {err}" for err in report.errors]
    lines += _text_lines({k: v for k, v in report.result.items() if k != "latex"})
    if report.timing_ms is not None:
        lines.append(f"timing_ms: {report.timing_ms}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1.

    The only single-dash option is -h, so any other argument that starts
    with one dash is a value: a polynomial such as "-3x^3+x" or a target
    such as "--q -1e5" needs no "--" in front of it.
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # every dest is a field of Command, and an option left out stays out of
    # the namespace, so Command's defaults are the only ones
    quiet = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False, argument_default=quiet)
    common.add_argument("--format", choices=("json", "text", "latex"), dest="fmt")
    common.add_argument("--no-timing", action="store_false", dest="timing")

    parser = _Parser(prog="rootode",
                     description="Differential equations satisfied by roots "
                                 "of R(x) = q, derived exactly and checked "
                                 "numerically.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, positional: str = "problem", **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], argument_default=quiet)
        p.add_argument(positional, **kw)
        return p

    for name in ("discriminant", "derive-abel", "derive-linear"):
        verb(name)
    verb("solve").add_argument("--q", required=True)
    p = verb("check")
    p.add_argument("--q", required=True)
    p.add_argument("--weight")
    p.add_argument("--kind", choices=("theorem1", "corollary2"))
    p.add_argument("--tol-abs", type=float)
    p.add_argument("--tol-rel", type=float)
    verb("series").add_argument("--order", type=int)
    verb("demo", "name", choices=DEMO_NAMES)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    cmd = Command(demo=args.pop("name", None), **args)
    report, code = run(cmd)
    try:
        print(format_report(report, cmd.fmt), flush=True)
    except BrokenPipeError:
        # the reader has gone (as in `rootode ... | head`): end quietly, with
        # stdout pointed at devnull so the interpreter's last flush is silent
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
    return code


if __name__ == "__main__":
    raise SystemExit(main())
