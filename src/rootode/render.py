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

from .algebra import UPoly, _written
from .derive import AbelODE, LinearODE

__all__ = [
    "coeff_strings",
    "poly_latex",
    "latex_linear",
    "latex_abel",
    "text_linear",
    "text_abel",
    "linear_coeff_arrays",
    "abel_coeff_arrays",
]


def coeff_strings(p: UPoly) -> list[str]:
    """Ascending-power rational strings; the zero polynomial gives ["0"]."""
    if not p:
        return ["0"]
    return [str(c) for c in p.coeffs]


def _latex_number(a: Fraction) -> str:
    if a.denominator == 1:
        return str(a)
    return f"\\frac{{{a.numerator}}}{{{a.denominator}}}"


def poly_latex(p: UPoly) -> str:
    """Descending-power LaTeX, e.g. 27q^{2}+4."""
    return _written(p, _latex_number, "", "^{{{}}}")


def _term_count(p: UPoly) -> int:
    return sum(1 for c in p.coeffs if c)


def _join(parts: list[str]) -> str:
    """Signed parts as a sum: "+" goes before each part after the first
    that does not start with "-" (no printer here writes "+-")."""
    return "+".join(parts).replace("+-", "-")


# Text and LaTeX walk each equation alike and differ only in how they
# write a term: the polynomial printer, the product mark ("*" or none)
# and the exponent format of a power of x.

def _linear(ode: LinearODE, poly, mark: str) -> str:
    """The left side in descending derivative order: each nonzero b_k by
    poly, parenthesized when it has several terms and left out when it is
    1 or -1, then the nonzero inhomogeneous term."""
    parts = []
    for k in range(ode.order, -1, -1):
        if b := ode.b[k]:
            c = poly(b)
            if c in ("1", "-1"):
                c = c[:-1]
            else:
                c = (f"({c})" if _term_count(b) > 1 else c) + mark
            parts.append(c + "x" + "'" * k)
    if ode.inhomogeneous:
        parts.append(poly(ode.inhomogeneous))
    return _join(parts)


def latex_linear(ode: LinearODE) -> str:
    """Display such as (27q^{2}+4)x''+27qx'-3x=0, descending derivative
    order, nonzero inhomogeneous term last."""
    return _linear(ode, poly_latex, "") + "=0"


def text_linear(ode: LinearODE) -> str:
    """Text such as (27*q^2 + 4)*x'' + 27*q*x' - 3*x = 0, with spaces
    around each + and -."""
    return " ".join(_linear(ode, str, "*").replace("+", " + ").replace("-", " - ").split()) + " = 0"


def _abel(ode: AbelODE, poly, frac, mark: str, caret: str, join) -> str:
    """The right side over the nonzero a_j = num/den in descending j: each
    frac(num, text of den), den written by poly once per distinct den,
    then mark and x^j with caret.format(j) as its exponent, the parts put
    together by join; "0" if there are none."""
    parts, dens = [], {}
    for j in range(len(ode.a) - 1, -1, -1):
        num, den = ode.a[j]
        if num:
            if den not in dens:
                dens[den] = poly(den)
            power = "" if j == 0 else mark + ("x" if j == 1 else "x" + caret.format(j))
            parts.append(frac(num, dens[den]) + power)
    return join(parts) if parts else "0"


def _latex_frac(num: UPoly, den: str) -> str:
    sign = ""
    if _term_count(num) == 1 and num.lc < 0:
        sign, num = "-", -num
    return f"{sign}\\frac{{{poly_latex(num)}}}{{{den}}}"


def latex_abel(ode: AbelODE) -> str:
    """Display such as x'=\\frac{2}{4q+1}x+\\frac{1}{4q+1}."""
    return "x'=" + _abel(ode, poly_latex, _latex_frac, "", "^{{{}}}", _join)


def text_abel(ode: AbelODE) -> str:
    """Text such as x' = ((2)/(4*q+1))*x + ((1)/(4*q+1))."""
    return "x' = " + _abel(ode, str, "(({})/({}))".format, "*", "^{}", " + ".join)


def linear_coeff_arrays(ode: LinearODE) -> list[list[str]]:
    """[b_order, ..., b_1, b_0, inhomogeneous], each in ascending powers."""
    return [coeff_strings(ode.b[k]) for k in range(ode.order, -1, -1)] + [
        coeff_strings(ode.inhomogeneous)
    ]


def abel_coeff_arrays(ode: AbelODE) -> list[dict]:
    """Per-power entries {"j", "num", "den"} in ascending x powers, with the
    numerator and denominator integer-scaled as a pair."""
    return [{"j": j, "num": coeff_strings(num), "den": coeff_strings(den)}
            for j, (num, den) in enumerate(ode.a)]
