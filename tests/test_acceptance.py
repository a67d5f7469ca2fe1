"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as
they print.  Every stated tolerance is asserted; nothing is logged and
ignored.
"""
import math
import random
import time
from fractions import Fraction

from rootode.algebra import UPoly, compose_q
from rootode.cli import Command, run
from rootode.derive import (
    ProblemSpec,
    abel_ode,
    build_integrands,
    factorize,
    linear_ode,
    trinomial,
)
from rootode import (
    babylonian_root,
    bisect_branch_root,
    cardano_root,
    check_identity,
    first_branch_point,
    lagrange_series,
    quad,
    quartic_real_roots,
    quartic_series_2f1_product,
    quartic_series_3f2,
    quartic_w_root,
    series_ode_residual,
    vieta_trig_root,
)
from rootode.numeric.quadrature import lhs_integrand, rhs_integrand


def q_poly(*cs):
    return UPoly("q", cs)


def verdict(number: int, label: str, failures: list[str]):
    print(f"[{'FAIL' if failures else 'PASS'}] criterion {number}: {label}")
    assert not failures, "; ".join(failures)


def test_criterion_01_trinomial_linear_ode_table():
    expected = {
        3: ((q_poly(-3), q_poly(0, 27), q_poly(4, 0, 27)), "(4+27q^2)x''+27qx'-3x=0"),
        4: (
            (q_poly(-40), q_poly(0, 688), q_poly(0, 0, 1152), q_poly(27, 0, 0, 256)),
            "(27+256q^3)x'''+1152q^2x''+688qx'-40x=0",
        ),
        5: (
            (
                q_poly(-1155),
                q_poly(0, 31875),
                q_poly(0, 0, 73125),
                q_poly(0, 0, 0, 31250),
                q_poly(256, 0, 0, 0, 3125),
            ),
            "(256+3125q^4)x''''+...-1155x=0",
        ),
        6: (
            (
                q_poly(-57456),
                q_poly(0, 2307456),
                q_poly(0, 0, 6658200),
                q_poly(0, 0, 0, 4153680),
                q_poly(0, 0, 0, 0, 816480),
                q_poly(3125, 0, 0, 0, 0, 46656),
            ),
            "(3125+46656q^5)x'''''+...-57456x=0",
        ),
    }
    failures = []
    for n, (b, label) in expected.items():
        t0 = time.perf_counter()
        ode = linear_ode(trinomial(n, 1))
        elapsed = time.perf_counter() - t0
        if ode.b != b:
            failures.append(f"n={n}: coefficients differ from the display {label}")
        if ode.inhomogeneous:
            failures.append(f"n={n}: unexpected inhomogeneous term")
        if elapsed >= 1.0:
            failures.append(f"n={n}: derivation took {elapsed:.2f}s (limit 1s)")
    verdict(1, "trinomial linear-ODE table n=3..6 exact, < 1 s each", failures)


def test_criterion_02_first_order_forms():
    # a_j = W_j / D must equal the displayed num_j / den for every power x^j
    cases = {
        2: (q_poly(1, 4), (q_poly(1), q_poly(2)), "n=2 linear form differs"),
        3: (q_poly(4, 0, 27), (q_poly(4), q_poly(0, 9), q_poly(6)), "n=3 Riccati form differs"),
        4: (
            q_poly(27, 0, 0, 256),
            (q_poly(27), q_poly(0, 0, 64), q_poly(0, 48), q_poly(36)),
            "n=4 Abel form differs",
        ),
    }
    failures = []
    for n, (den, nums, label) in cases.items():
        ode = abel_ode(trinomial(n, 1))
        if len(ode.W) != n or not ode.W[n - 1] or any(
            ode.W[j] * den != num * ode.D for j, num in enumerate(nums)
        ):
            failures.append(label)
    verdict(2, "displayed first-order forms n=2,3,4 at p=1 exact", failures)


def test_criterion_03_factorization_property_suite():
    rng = random.Random(20260823)
    failures = []
    for i in range(200):
        n = rng.randint(2, 8)
        coeffs = [Fraction(0)]
        coeffs += [Fraction(rng.randint(-9, 9)) for _ in range(n - 1)]
        coeffs.append(Fraction(1))
        spec = ProblemSpec(UPoly("x", coeffs))
        fact = factorize(spec)
        rp = spec.rprime()
        if compose_q(fact.D, spec.R) != rp * rp * fact.U:
            failures.append(f"case {i}: division certificate fails for {spec.R}")
        if fact.U.degree != (n - 1) * (n - 2):
            failures.append(f"case {i}: deg U = {fact.U.degree} for {spec.R}")
        if fact.D.coefficient(0) != 0 and fact.U.coefficient(0) == 0:
            failures.append(f"case {i}: U(0) = 0 with disc(R) != 0 for {spec.R}")
    verdict(3, "200 random factorization certificates, zero failures", failures)


def test_criterion_04_exact_series_annihilation():
    failures = []
    for n in (3, 4, 5, 6):
        for p in (1, 2, Fraction(1, 2)):
            spec = trinomial(n, p)
            ode = linear_ode(spec)
            s = lagrange_series(spec, 2 * n + 6)
            residual = series_ode_residual(ode, s)
            if any(c != 0 for c in residual):
                failures.append(f"n={n}, p={p}: residual not identically zero")
    verdict(4, "linear ODE annihilates 2n+6 Lagrange terms exactly", failures)


def test_criterion_05_tracking_vs_closed_forms():
    rng = random.Random(515151)
    failures = []
    t0 = time.perf_counter()
    count = 0
    while count < 50:
        n = rng.choice((2, 3, 4))
        p = rng.choice((1, -1)) * rng.uniform(0.5, 2.0)
        spec = trinomial(n, Fraction(p).limit_denominator(64))
        p = float(spec.R.coefficient(1))
        d = abel_ode(spec).D
        hi = first_branch_point(d, 1)
        lo = first_branch_point(d, -1)
        hi = 0.8 * hi if hi is not None else 2.0
        lo = 0.8 * lo if lo is not None else -2.0
        q = rng.uniform(lo, hi)
        if abs(q) < 1e-3:
            continue
        count += 1
        c = spec.R.coefficient(1)
        problem = f"x^{n}{'+' if c > 0 else '-'}{abs(c)}x"
        res, _ = run(Command("solve", problem=problem, q=repr(q), timing=False))
        if res.status != "ok":
            failures.append(f"n={n}, p={p:.3f}, q={q:.3f}: status {res.status}")
            continue
        x = res.result["x"]
        if n == 2:
            oracle = babylonian_root(p, q)
        elif n == 3:
            # Cardano's radical form where it is real, its trigonometric
            # form in the casus irreducibilis
            if q * q / 4.0 + p**3 / 27.0 >= 0.0:
                oracle = cardano_root(p, q)
            else:
                oracle = vieta_trig_root(p, q)
        else:
            oracle = quartic_w_root(p, q)
            ferrari = quartic_real_roots(0.0, p, -q)
            if min(abs(x - r) for r in ferrari) > 1e-9:
                failures.append(f"n=4, p={p:.3f}, q={q:.3f}: no Ferrari root nearby")
        if abs(x - oracle) > 1e-9:
            failures.append(
                f"n={n}, p={p:.3f}, q={q:.3f}: |tracked-oracle| = {abs(x - oracle):.2e}"
            )
        poly_val = x**n + p * x - q
        if abs(poly_val) > 1e-10:
            failures.append(f"n={n}, p={p:.3f}, q={q:.3f}: |P(x)| = {abs(poly_val):.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"50 tracks took {elapsed:.1f}s (limit 10s)")
    verdict(5, "50 tracked roots vs closed-form oracles, < 10 s", failures)


def test_criterion_06_quartic_fixture():
    failures = []
    spec = ProblemSpec(UPoly("x", (0, -1, 2, -2, 1)))
    fact = factorize(spec)
    if fact.script_d != q_poly(1, 4) ** 2 * q_poly(3, 16):
        failures.append("sign-normalized discriminant is not (4q+1)^2(16q+3)")
    if fact.script_u != UPoly("x", (1, -2, 2)) ** 2 * UPoly("x", (3, -4, 4)):
        failures.append("sign-normalized cofactor is not (2x^2-2x+1)^2(4x^2-4x+3)")

    for qv in (0.25, 0.75):
        closed = []
        for s2 in (1.0, -1.0):
            inner = -1.0 + s2 * 2.0 * math.sqrt(1.0 + 4.0 * qv)
            if inner >= 0.0:
                closed += [0.5 + 0.5 * math.sqrt(inner), 0.5 - 0.5 * math.sqrt(inner)]
        closed.sort()
        ferrari = sorted(y + 0.5 for y in quartic_real_roots(0.5, 0.0, -3.0 / 16.0 - qv))
        if len(closed) != len(ferrari) or any(
            abs(a - b) > 1e-10 for a, b in zip(closed, ferrari)
        ):
            failures.append(f"q={qv}: closed-form roots disagree with Ferrari")
        branch = 0.5 - 0.5 * math.sqrt(-1.0 + 2.0 * math.sqrt(1.0 + 4.0 * qv))
        x = bisect_branch_root(spec.R, qv)
        if abs(x - branch) > 1e-10:
            failures.append(f"q={qv}: tracked branch off by {abs(x - branch):.2e}")

    ispec = build_integrands(fact, UPoly.const("q", -2))
    phi_f, psi_f = lhs_integrand(ispec), rhs_integrand(ispec)
    for qv in (0.25, 0.75):
        x = 0.5 - 0.5 * math.sqrt(-1.0 + 2.0 * math.sqrt(1.0 + 4.0 * qv))
        phi = quad(phi_f, 0.0, x)
        psi = quad(psi_f, 0.0, qv)
        phi_closed = (
            2.0 * math.atan((2.0 * x - 1.0) / math.sqrt(4.0 * x * x - 4.0 * x + 3.0))
            + math.pi / 3.0
        )
        psi_closed = -math.atan(math.sqrt(16.0 * qv + 3.0)) + math.pi / 3.0
        diff = max(abs(phi - phi_closed), abs(psi - psi_closed), abs(phi - psi))
        if diff > 1e-8:
            failures.append(f"q={qv}: arctan identity off by {diff:.2e}")
    verdict(6, "full-quartic fixture: factorization, roots, arctan identity", failures)


def test_criterion_07_degenerate_quintic():
    failures = []
    r = UPoly("x", (0, 0, 0, 5, 0, 1))
    fact = factorize(ProblemSpec(r))
    if fact.script_d != 5**5 * q_poly(0, 0, 1) * q_poly(108, 0, 1):
        failures.append("sign-normalized discriminant is not 5^5 q^2 (q^2+108)")
    if fact.script_u != 5**3 * UPoly("x", (0, 0, 1)) * UPoly("x", (5, 0, 1)) ** 2 * UPoly(
        "x", (12, 0, -8, 0, 4, 0, 1)
    ):
        failures.append("sign-normalized cofactor differs")
    ispec = build_integrands(fact, q_poly(0, 5), surd=5)
    for qv in (0.5, 1.0, 2.0):
        x = bisect_branch_root(r, qv)
        rep = check_identity(ispec, x, qv)
        if abs(rep.diff) > 1e-8:
            failures.append(f"q={qv}: integral identity off by {abs(rep.diff):.2e}")
    verdict(7, "degenerate quintic: exact factors, integral identity to 1e-8", failures)


def test_criterion_08_hypergeometric_equivalence():
    failures = []
    s = lagrange_series(trinomial(4, 1), 12)
    if quartic_series_3f2(1, 12) != s:
        failures.append("3F2 form differs from the Lagrange series")
    if quartic_series_2f1_product(1, 12) != s:
        failures.append("2F1-product form differs from the Lagrange series")
    verdict(8, "both hypergeometric closed forms match 12 series terms", failures)


def test_criterion_09_nonhomogeneous_cubic():
    failures = []
    for s in (1, 2):
        ode = linear_ode(ProblemSpec(UPoly("x", (0, 1, s, 1))))
        expected = (
            q_poly(-3),
            q_poly(9 * s - 2 * s**3, 27),
            q_poly(4 - s * s, 18 * s - 4 * s**3, 27),
        )
        if ode.b != expected or ode.inhomogeneous != q_poly(-s):
            failures.append(f"s={s}: displayed non-homogeneous form differs")
    reduced = linear_ode(trinomial(3, 1))
    if reduced.b != (q_poly(-3), q_poly(0, 27), q_poly(4, 0, 27)) or reduced.inhomogeneous:
        failures.append("s=0 does not reduce to the homogeneous cubic equation")
    verdict(9, "non-homogeneous cubic displays exact; s=0 reduces", failures)


def test_criterion_10_branch_point_detection():
    failures = []
    spec = trinomial(3, -1)
    q_star = math.sqrt(4.0 / 27.0)
    found = first_branch_point(abel_ode(spec).D, 1)
    if found is None or abs(found - q_star) > 1e-10:
        failures.append(f"reported q* = {found} instead of sqrt(4/27)")
    for q in (0.5, q_star + 1e-9, -0.5):
        res, _ = run(Command("solve", problem="x^3-x", q=repr(q), timing=False))
        if res.status != "hit_branch_point" and abs(q) > q_star:
            failures.append(f"q={q}: status {res.status}, expected refusal")
        if res.status == "hit_branch_point" and res.result["x"] is not None:
            failures.append(f"q={q}: refused but still returned x = {res.result['x']}")
    _, code = run(Command("solve", problem="x^3-x", q="1"))
    if code != 2:
        failures.append(f"CLI exit code {code} for tracking past the fold")
    verdict(10, "fold at sqrt(4/27) detected; no silent wrong roots", failures)
