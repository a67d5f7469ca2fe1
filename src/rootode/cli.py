"""Command-line interface.

Verbs:

* ``discriminant`` — discriminant D, cofactor U and their sign-normalized
  variants for R(x) = q.
* ``derive-abel`` — the first-order equation x' = sum a_j(q) x^j.
* ``derive-linear`` — the linear equation of order n-1.
* ``solve`` — track the branch root to a target q and report the residual.
* ``check`` — numerically verify the separated-variables integral identity.
* ``series`` — exact branch series coefficients, certified against the
  linear equation when possible.
* ``demo`` — built-in end-to-end reproductions (babylonian, cardano,
  quartic23, betti, hypergeom, remark5).

Reports serialize exact quantities as rational strings and round-trip
losslessly through JSON.  Exit codes: 0 success, 1 usage error, 2 domain
failure (branch point hit, identity out of tolerance, out-of-domain
input).
"""
from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import UPoly
from .derive import (
    ProblemSpec,
    build_integrands,
    factorize,
    linear_ode,
    abel_ode,
    needs_remark2,
    trinomial,
)
from .errors import ParseError, RootodeError
from .numeric import (
    babylonian_root,
    bisect_branch_root,
    cardano_root,
    check_identity,
    lagrange_series,
    lhs_integrand,
    quad,
    quartic_real_roots,
    quartic_series_2f1_product,
    quartic_series_3f2,
    rhs_integrand,
    series_ode_residual,
    track_root,
    vieta_hyp_root,
)
from .render import (
    abel_coeff_arrays,
    coeff_strings,
    frac_str,
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

DEMO_NAMES = ("babylonian", "cardano", "quartic23", "betti", "hypergeom", "remark5")


# ---------------------------------------------------------------------------
# parsing

def _parse_terms(text: str, var: str) -> dict[int, Fraction]:
    """Scan `c`, `c*x^k`, `x^k` terms joined by + and -.

    Coefficients are integers or fractions a/b; errors carry the offset
    into the original string.
    """
    i, n = 0, len(text)
    powers: dict[int, Fraction] = {}

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_int() -> int:
        nonlocal i
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected digits", start)
        return int(text[start:i])

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
        if i < n and text[i].isdigit():
            num = read_int()
            den = 1
            if i < n and text[i] == "/":
                i += 1
                dpos = i
                den = read_int()
                if den == 0:
                    raise ParseError("zero denominator", dpos)
            coeff = Fraction(num, den)
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
        c = (coeff if coeff is not None else Fraction(1)) * sign
        powers[k] = powers.get(k, Fraction(0)) + c
    return powers


def _poly_from_powers(powers: dict[int, Fraction], var: str) -> UPoly:
    deg = max(powers, default=0)
    return UPoly(var, [powers.get(k, Fraction(0)) for k in range(deg + 1)])


def parse_polynomial(text: str) -> ProblemSpec:
    """Parse R from text such as "x^3+x" or "x^4-2x^3+2x^2-x".

    Enforces R(0) = 0 and degree >= 2.
    """
    poly = _poly_from_powers(_parse_terms(text, "x"), "x")
    if poly.coefficient(0) != 0:
        raise ParseError("constant term must be zero (R(0) = 0)", 0)
    if poly.degree < 2:
        raise ParseError("degree must be at least 2", 0)
    return ProblemSpec(poly)


def parse_weight(text: str) -> UPoly:
    """Parse a weight polynomial; the variable may be written x or q."""
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
        d = {
            "verb": self.verb,
            "input": self.input,
            "result": self.result,
            "status": self.status,
            "errors": self.errors,
        }
        if self.timing_ms is not None:
            d["timing_ms"] = self.timing_ms
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        d = json.loads(text)
        return cls(
            verb=d["verb"],
            input=d["input"],
            result=d["result"],
            status=d["status"],
            errors=list(d.get("errors", [])),
            timing_ms=d.get("timing_ms"),
        )


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
    ode = linear_ode(spec).normalized()
    return {
        "order": ode.order,
        "b": linear_coeff_arrays(ode),
        "ambiguous": ode.ambiguous,
        "latex": latex_linear(ode),
        "text": text_linear(ode),
    }


def _h_solve(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    if cmd.q is None:
        raise ValueError("solve requires --q")
    qv = parse_q_value(cmd.q)
    res = track_root(
        spec,
        qv,
        atol=cmd.tol_abs if cmd.tol_abs is not None else 1e-12,
        rtol=cmd.tol_rel if cmd.tol_rel is not None else 1e-10,
    )
    finite = math.isfinite(res.x)
    out = {
        "q": cmd.q,
        "x": res.x if finite else None,
        "residual": res.residual if finite else None,
        "steps": res.steps,
        "tracking_status": res.status,
        "q_star": res.q_star,
    }
    if res.status != "ok":
        out["_status"] = res.status
        out["_errors"] = [f"tracking stopped: {res.status}"]
    return out


def _h_check(cmd: Command) -> dict:
    spec = parse_polynomial(cmd.problem)
    if cmd.q is None:
        raise ValueError("check requires --q")
    qv = parse_q_value(cmd.q)
    weight = parse_weight(cmd.weight if cmd.weight is not None else "1")
    fact = factorize(spec)
    remark2 = needs_remark2(fact, weight) and cmd.kind == "theorem1"
    ispec = build_integrands(fact, weight, cmd.kind, remark2=remark2)
    x = bisect_branch_root(spec.R, qv)
    rep = check_identity(ispec, x, qv)
    tol = cmd.tol_abs if cmd.tol_abs is not None else 1e-8
    ok = abs(rep.diff) <= tol
    out = {
        "kind": cmd.kind,
        "weight": str(weight),
        "remark2": remark2,
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
    out = {"order": order, "coeffs": [frac_str(c) for c in s.coeffs]}
    if spec.is_monic():
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


# ---------------------------------------------------------------------------
# demos

def _check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def _demo_babylonian() -> list[dict]:
    spec = trinomial(2, 1)
    fact = factorize(spec)
    checks = [
        _check("discriminant_exact", fact.D == UPoly("q", (1, 4))),
        _check("cofactor_exact", fact.U == UPoly.one("x")),
    ]
    worst = 0.0
    for qv in (-0.2, -0.1, 0.5, 1.0, 2.0):
        res = track_root(spec, qv)
        worst = max(worst, abs(res.x - babylonian_root(1.0, qv)))
    checks.append(_check("tracked_vs_closed_form", worst <= 1e-9, max_diff=worst))
    qv = 2.0
    x = babylonian_root(1.0, qv)
    rad = check_identity(build_integrands(fact, UPoly.one("q")), x, qv)
    closed = (math.sqrt(1.0 + 4.0 * qv) - 1.0) / 2.0
    checks.append(
        _check(
            "radical_identity",
            abs(rad.diff) <= 1e-8 and abs(rad.rhs - closed) <= 1e-8,
            diff=rad.diff,
        )
    )
    rat = check_identity(
        build_integrands(fact, UPoly.one("q"), "corollary2"), x, qv
    )
    closed_log = 0.25 * math.log(1.0 + 4.0 * qv)
    checks.append(
        _check(
            "log_identity",
            abs(rat.diff) <= 1e-8 and abs(rat.rhs - closed_log) <= 1e-8,
            diff=rat.diff,
        )
    )
    return checks


def _demo_cardano() -> list[dict]:
    spec = trinomial(3, 1)
    fact = factorize(spec)
    checks = [
        _check("discriminant_exact", fact.script_d == UPoly("q", (4, 0, 27))),
        _check("cofactor_exact", fact.script_u == UPoly("x", (4, 0, 3))),
    ]
    worst = 0.0
    worst_sinh = 0.0
    for qv in (-2.0, -0.5, 0.5, 1.0, 2.0):
        res = track_root(spec, qv)
        worst = max(worst, abs(res.x - cardano_root(1.0, qv)))
        worst_sinh = max(worst_sinh, abs(cardano_root(1.0, qv) - vieta_hyp_root(1.0, qv)))
    checks.append(_check("tracked_vs_cardano", worst <= 1e-9, max_diff=worst))
    checks.append(
        _check("cardano_vs_sinh_form", worst_sinh <= 1e-12, max_diff=worst_sinh)
    )
    return checks


def _quartic23_spec() -> ProblemSpec:
    return ProblemSpec(UPoly("x", (0, -1, 2, -2, 1)))


def _demo_quartic23() -> list[dict]:
    spec = _quartic23_spec()
    fact = factorize(spec)
    # the positive-near-0 normalization; the signed discriminant is its negative
    d_expected = UPoly("q", (1, 4)) ** 2 * UPoly("q", (3, 16))
    u_expected = UPoly("x", (1, -2, 2)) ** 2 * UPoly("x", (3, -4, 4))
    checks = [
        _check("script_d_exact", fact.script_d == d_expected and fact.D == -d_expected),
        _check("script_u_exact", fact.script_u == u_expected and fact.U == -u_expected),
    ]

    def closed_roots(qv: float) -> list[float]:
        roots = []
        for s2 in (1.0, -1.0):
            inner = -1.0 + s2 * 2.0 * math.sqrt(1.0 + 4.0 * qv)
            if inner >= 0.0:
                for s1 in (1.0, -1.0):
                    roots.append(0.5 + s1 * 0.5 * math.sqrt(inner))
        return sorted(roots)

    worst_roots = 0.0
    worst_branch = 0.0
    for qv in (0.25, 0.75):
        cf = closed_roots(qv)
        ferrari = [
            y + 0.5 for y in quartic_real_roots(0.5, 0.0, -3.0 / 16.0 - qv)
        ]
        if len(cf) != len(ferrari):
            worst_roots = math.inf
        else:
            worst_roots = max(
                worst_roots, max(abs(a - b) for a, b in zip(cf, sorted(ferrari)))
            )
        branch = 0.5 - 0.5 * math.sqrt(-1.0 + 2.0 * math.sqrt(1.0 + 4.0 * qv))
        res = track_root(spec, qv)
        worst_branch = max(worst_branch, abs(res.x - branch))
    checks.append(_check("closed_roots_vs_ferrari", worst_roots <= 1e-10, max_diff=worst_roots))
    checks.append(_check("tracked_vs_closed_branch", worst_branch <= 1e-10, max_diff=worst_branch))

    ispec = build_integrands(fact, UPoly.const("q", -2))
    phi_f = lhs_integrand(ispec)
    psi_f = rhs_integrand(ispec)
    worst_arctan = 0.0
    for qv in (0.25, 0.75):
        x = 0.5 - 0.5 * math.sqrt(-1.0 + 2.0 * math.sqrt(1.0 + 4.0 * qv))
        phi = quad(phi_f, 0.0, x)
        psi = quad(psi_f, 0.0, qv)
        phi_closed = (
            2.0 * math.atan((2.0 * x - 1.0) / math.sqrt(4.0 * x * x - 4.0 * x + 3.0))
            + math.pi / 3.0
        )
        psi_closed = -math.atan(math.sqrt(16.0 * qv + 3.0)) + math.pi / 3.0
        worst_arctan = max(
            worst_arctan,
            abs(phi - phi_closed),
            abs(psi - psi_closed),
            abs(phi - psi),
        )
    checks.append(_check("arctan_identity", worst_arctan <= 1e-8, max_diff=worst_arctan))
    return checks


def _demo_betti() -> list[dict]:
    spec = ProblemSpec(UPoly("x", (0, 0, 0, 5, 0, 1)))
    fact = factorize(spec)
    d_expected = 5**5 * UPoly("q", (0, 0, 1)) * UPoly("q", (108, 0, 1))
    u_expected = (
        5**3
        * UPoly("x", (0, 0, 1))
        * UPoly("x", (5, 0, 1)) ** 2
        * UPoly("x", (12, 0, -8, 0, 4, 0, 1))
    )
    checks = [
        _check("script_d_exact", fact.script_d == d_expected),
        _check("script_u_exact", fact.script_u == u_expected),
    ]
    ispec = build_integrands(
        fact, UPoly("q", (0, 5)), surd=5, remark2=True
    )
    worst = 0.0
    for qv in (0.5, 1.0, 2.0):
        x = bisect_branch_root(spec.R, qv)
        rep = check_identity(ispec, x, qv)
        worst = max(worst, abs(rep.diff))
    checks.append(_check("elliptic_identity", worst <= 1e-8, max_diff=worst))
    return checks


def _demo_hypergeom() -> list[dict]:
    order = 12
    lag = lagrange_series(trinomial(4, 1), order)
    x1 = quartic_series_3f2(Fraction(1), order)
    x2 = quartic_series_2f1_product(Fraction(1), order)
    return [
        _check("series_3f2_equals_lagrange", x1.coeffs == lag.coeffs),
        _check("series_2f1_product_equals_lagrange", x2.coeffs == lag.coeffs),
    ]


def _demo_remark5() -> list[dict]:
    checks = []
    for s in (1, 2):
        ode = linear_ode(ProblemSpec(UPoly("x", (0, 1, s, 1)))).normalized()
        # (4p^3 + 27q^2 + 18pqs - p^2 s^2 - 4qs^3) at p = 1
        b2 = UPoly("q", (4 - s * s, 18 * s - 4 * s**3, 27))
        b1 = UPoly("q", (9 * s - 2 * s**3, 27))
        want = (
            ode.order == 2
            and ode.b == (UPoly("q", (-3,)), b1, b2)
            and ode.inhomogeneous == UPoly("q", (-s,))
        )
        checks.append(_check(f"nonhomogeneous_s{s}", want))
    reduced = linear_ode(trinomial(3, 1)).normalized()
    checks.append(
        _check(
            "s0_reduces_to_homogeneous",
            reduced.b == (UPoly("q", (-3,)), UPoly("q", (0, 27)), UPoly("q", (4, 0, 27)))
            and not reduced.inhomogeneous,
        )
    )
    return checks


_DEMOS = {
    "babylonian": _demo_babylonian,
    "cardano": _demo_cardano,
    "quartic23": _demo_quartic23,
    "betti": _demo_betti,
    "hypergeom": _demo_hypergeom,
    "remark5": _demo_remark5,
}


def _h_demo(cmd: Command) -> dict:
    if cmd.demo not in _DEMOS:
        raise ValueError(f"unknown demo {cmd.demo!r}; choose from {', '.join(DEMO_NAMES)}")
    checks = _DEMOS[cmd.demo]()
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
    """argparse exits with code 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage()
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text", "latex"),
                        default="json", dest="fmt")
    common.add_argument("--no-timing", action="store_true")
    common.add_argument("--tol-abs", type=float, default=None)
    common.add_argument("--tol-rel", type=float, default=None)

    parser = _Parser(prog="rootode",
                     description="Differential equations satisfied by roots "
                                 "of R(x) = q, derived exactly and checked "
                                 "numerically.")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("discriminant", "derive-abel", "derive-linear"):
        p = sub.add_parser(verb, parents=[common])
        p.add_argument("problem")

    p = sub.add_parser("solve", parents=[common])
    p.add_argument("problem")
    p.add_argument("--q", required=True)

    p = sub.add_parser("check", parents=[common])
    p.add_argument("problem")
    p.add_argument("--q", required=True)
    p.add_argument("--weight", default="1")
    p.add_argument("--kind", choices=("theorem1", "corollary2"),
                   default="theorem1")

    p = sub.add_parser("series", parents=[common])
    p.add_argument("problem")
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("demo", parents=[common])
    p.add_argument("name", choices=DEMO_NAMES)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    cmd = Command(
        verb=ns.verb,
        problem=getattr(ns, "problem", None),
        demo=getattr(ns, "name", None),
        q=getattr(ns, "q", None),
        order=getattr(ns, "order", None),
        weight=getattr(ns, "weight", None),
        kind=getattr(ns, "kind", "theorem1"),
        fmt=ns.fmt,
        tol_abs=ns.tol_abs,
        tol_rel=ns.tol_rel,
        timing=not ns.no_timing,
    )
    report, code = run(cmd)
    print(format_report(report, cmd.fmt))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
