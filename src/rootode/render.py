"""Deterministic text, LaTeX and JSON-friendly renderings of derived objects.

Exact quantities are serialized as decimal-free rational strings ("-3",
"27/4") and polynomials as arrays of such strings in ascending powers, so
a report can be parsed back without loss.  LaTeX output follows the
conventional display style: descending powers, descending derivative
order, primes for derivatives, integer coefficients after clearing
denominators.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import UPoly
from .derive import AbelODE, LinearODE

__all__ = [
    "frac_str",
    "coeff_strings",
    "poly_from_strings",
    "poly_latex",
    "latex_linear",
    "latex_abel",
    "text_linear",
    "text_abel",
    "linear_coeff_arrays",
    "abel_coeff_arrays",
]


def frac_str(c: Fraction) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def coeff_strings(p: UPoly) -> list[str]:
    """Ascending-power rational strings; the zero polynomial gives ["0"]."""
    if not p:
        return ["0"]
    return [frac_str(c) for c in p.coeffs]


def poly_from_strings(coeffs: list[str], var: str) -> UPoly:
    """Inverse of coeff_strings."""
    return UPoly(var, [Fraction(c) for c in coeffs])


def _latex_term(c: Fraction, var: str, k: int) -> str:
    if k == 0:
        return frac_str(abs(c))
    pw = var if k == 1 else f"{var}^{{{k}}}"
    a = abs(c)
    if a == 1:
        return pw
    if a.denominator == 1:
        return f"{a.numerator}{pw}"
    return f"\\frac{{{a.numerator}}}{{{a.denominator}}}{pw}"


def poly_latex(p: UPoly) -> str:
    """Descending-power LaTeX, e.g. 27q^{2}+4."""
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + _latex_term(c, p.var, k))
    return "".join(parts)


def _term_count(p: UPoly) -> int:
    return sum(1 for c in p.coeffs if c)


def _deriv_mark(k: int) -> str:
    return "x" + "'" * k


def _join(parts: list[str]) -> str:
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def latex_linear(ode: LinearODE) -> str:
    """Display such as (27q^{2}+4)x''+27qx'-3x=0, descending derivative
    order, nonzero inhomogeneous term last."""
    ode = ode.normalized()
    parts = []
    for k in range(ode.order, -1, -1):
        b = ode.b[k]
        if not b:
            continue
        if b.is_const():
            c = b.coefficient(0)
            coeff = "" if c == 1 else ("-" if c == -1 else frac_str(c))
        elif _term_count(b) > 1:
            coeff = f"({poly_latex(b)})"
        else:
            coeff = poly_latex(b)
        parts.append(coeff + _deriv_mark(k))
    if ode.inhomogeneous:
        parts.append(poly_latex(ode.inhomogeneous))
    return _join(parts) + "=0"


def _abel_term(num: UPoly, den: UPoly, j: int) -> str:
    sign = ""
    if _term_count(num) == 1 and num.lc < 0:
        sign, num = "-", -num
    power = "" if j == 0 else ("x" if j == 1 else f"x^{{{j}}}")
    return f"{sign}\\frac{{{poly_latex(num)}}}{{{poly_latex(den)}}}{power}"


def latex_abel(ode: AbelODE) -> str:
    """Display such as x'=\\frac{2}{4q+1}x+\\frac{1}{4q+1}."""
    parts = [_abel_term(*ode.coefficient(j), j)
             for j in range(ode.n - 1, -1, -1) if ode.W.coefficient(j)]
    return "x'=" + (_join(parts) if parts else "0")


def text_linear(ode: LinearODE) -> str:
    ode = ode.normalized()
    parts = []
    for k in range(ode.order, -1, -1):
        b = ode.b[k]
        if not b:
            continue
        if b.is_const():
            c = b.coefficient(0)
            coeff = "" if c == 1 else ("-" if c == -1 else frac_str(c) + "*")
        elif _term_count(b) > 1:
            coeff = f"({b})*"
        else:
            coeff = f"{b}*"
        parts.append(coeff + _deriv_mark(k))
    if ode.inhomogeneous:
        parts.append(str(ode.inhomogeneous))
    return " ".join(_join(parts).replace("+", " + ").replace("-", " - ").split()) + " = 0"


def text_abel(ode: AbelODE) -> str:
    parts = []
    for j in range(ode.n - 1, -1, -1):
        if not ode.W.coefficient(j):
            continue
        num, den = ode.coefficient(j)
        power = "" if j == 0 else ("*x" if j == 1 else f"*x^{j}")
        parts.append(f"(({num})/({den})){power}")
    return "x' = " + (" + ".join(parts) if parts else "0")


def linear_coeff_arrays(ode: LinearODE) -> list[list[str]]:
    """[b_order, ..., b_1, b_0, inhomogeneous], each in ascending powers."""
    ode = ode.normalized()
    return [coeff_strings(ode.b[k]) for k in range(ode.order, -1, -1)] + [
        coeff_strings(ode.inhomogeneous)
    ]


def abel_coeff_arrays(ode: AbelODE) -> list[dict]:
    """Per-power entries {"j", "num", "den"} in ascending x powers, with the
    numerator and denominator integer-scaled as a pair."""
    out = []
    for j in range(ode.n):
        num, den = ode.coefficient(j)
        out.append({"j": j, "num": coeff_strings(num), "den": coeff_strings(den)})
    return out
