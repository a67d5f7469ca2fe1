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

def _parse_terms(text: str, var: str) -> dict[int, int | Fraction]:
    """Scan `c`, `c*x^k`, `x^k` terms joined by + and -.

    Coefficients are integers or fractions a/b, kept as an int unless b
    does not divide a; errors carry the offset into the original string.
    """
    i, n = 0, len(text)
    powers: dict[int, int | Fraction] = {}

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int() -> int:
        nonlocal i
        start = i
        while i < n and text[i].isdecimal():
            i += 1
        if i == start:
            raise ParseError("expected digits", start)
        try:
            return int(text[start:i])
        except ValueError:  # decimal digits fail only beyond sys.get_int_max_str_digits()
            raise ParseError("number too long", start) from None

    skip_ws()
    if i == n:
        raise ParseError("empty polynomial", 0)
    first = True
    while True:
        skip_ws()
        if i == n:
            break
        sign = 1
        if text[i] in "+-":
            if text[i] == "-":
                sign = -1
            i += 1
            skip_ws()
            if i == n:
                raise ParseError("dangling sign", i - 1)
        elif not first:
            raise ParseError(f"expected '+' or '-', found {text[i]!r}", i)
        first = False
        coeff = None
        if i < n and text[i].isdecimal():
            num = read_int()
            den = 1
            if i < n and text[i] == "/":
                i += 1
                dpos = i
                den = read_int()
                if den == 0:
                    raise ParseError("zero denominator", dpos)
            coeff = _ratio(num, den)
            skip_ws()
            if i < n and text[i] == "*":
                i += 1
                skip_ws()
                if i == n or not text[i].isalpha():
                    raise ParseError("expected variable after '*'", i)
        k = 0
        if i < n and text[i].isalpha():
            if text[i] != var:
                raise ParseError(
                    f"unexpected variable {text[i]!r} (expected {var!r})", i
                )
            i += 1
            k = 1
            skip_ws()
            if i < n and text[i] == "^":
                i += 1
                skip_ws()
                k = read_int()
        elif coeff is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        c = (coeff if coeff is not None else 1) * sign
        powers[k] = powers.get(k, 0) + c
    return powers


def _poly_from_powers(powers: dict[int, int | Fraction], var: str) -> UPoly:
    # checked before the coefficient list of a huge degree is allocated
    deg = max(powers, default=0)
    if deg > MAX_DEGREE:
        raise ParseError(f"degree {deg} exceeds the limit {MAX_DEGREE}", 0)
    return UPoly(var, [powers.get(k, 0) for k in range(deg + 1)])


@memoized
def parse_polynomial(text: str) -> ProblemSpec:
    """Parse R from text such as "x^3+x" or "x^4-2x^3+2x^2-x".

    Enforces R(0) = 0 and degree >= 2.  The result depends on the text
    alone, so it is memoized; a text that fails to parse raises again.
    """
    poly = _poly_from_powers(_parse_terms(text, "x"), "x")
    if poly.coefficient(0) != 0:
        raise ParseError("constant term must be zero (R(0) = 0)", 0)
    if poly.degree < 2:
        raise ParseError("degree must be at least 2", 0)
    return ProblemSpec(poly)


@memoized
def parse_weight(text: str) -> UPoly:
    """Parse a weight polynomial; the variable may be written x or q.
    Memoized, like ``parse_polynomial``."""
    var = next((ch for ch in text if ch.isalpha()), None)
    if var is None:
        return _poly_from_powers(_parse_terms(text, "q"), "q")
    if var not in ("x", "q"):
        raise ParseError(f"unexpected variable {var!r}", text.index(var))
    return _poly_from_powers(_parse_terms(text, var), var).retag("q")


def parse_q_value(text: str) -> float:
    """A finite q target given as a rational string or a float literal."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"not a rational or float: {text!r}", 0) from None
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
        encoder."""
        d = {
            "verb": self.verb,
            "input": self.input,
            "result": self.result,
            "status": self.status,
            "errors": self.errors,
        }
        if self.timing_ms is not None:
            d["timing_ms"] = self.timing_ms
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


def _h_solve(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    if cmd.q is None:
        raise ValueError("solve requires --q")
    qv = parse_q_value(cmd.q)
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
    spec = parse_polynomial(cmd.problem)
    if cmd.q is None:
        raise ValueError("check requires --q")
    qv = parse_q_value(cmd.q)
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
    """Execute a command; returns the report and the process exit code."""
    label = cmd.demo if cmd.verb == "demo" else (cmd.problem or "")
    t0 = time.perf_counter()

    def stamp() -> float | None:
        if not cmd.timing:
            return None
        return round((time.perf_counter() - t0) * 1000.0, 3)

    if cmd.verb not in _DISPATCH:
        return Report(cmd.verb, label, {}, "usage_error",
                      [f"unknown verb {cmd.verb!r}"], stamp()), 1
    try:
        result = _DISPATCH[cmd.verb](cmd)
    except ParseError as exc:
        return Report(cmd.verb, label, {}, "usage_error",
                      [f"parse error: {exc}"], stamp()), 1
    except ValueError as exc:
        return Report(cmd.verb, label, {}, "usage_error", [str(exc)], stamp()), 1
    except RootodeError as exc:
        return Report(cmd.verb, label, {}, "domain_error", [str(exc)], stamp()), 2
    status = result.pop("_status", "ok")
    errors = result.pop("_errors", [])
    report = Report(cmd.verb, label, result, status, errors, stamp())
    return report, 0 if status == "ok" else 2


def _text_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_flat(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(item)}")
    else:
        lines.append(f"{pad}{_flat(value)}")
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(e, (dict, list)) for e in v)
    return False


def _flat(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_flat(e) for e in v) + "]"
    if isinstance(v, bool) or v is None:
        return str(v).lower() if v is not None else "none"
    return str(v)


def format_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "latex":
        latex = report.result.get("latex")
        if latex is not None:
            return latex
        fmt = "text"
    lines = [f"verb: {report.verb}", f"input: {report.input}",
             f"status: {report.status}"]
    for err in report.errors:
        lines.append(f"error: {err}")
    body = dict(report.result)
    body.pop("latex", None)
    lines.extend(_text_lines(body))
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
