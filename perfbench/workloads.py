"""Seeded input generators for the three benchmark workloads.

Each workload is a stream of cycles; every cycle has the same composition
(verbs, polynomial families, order and target strata), and only the
coefficients, targets and the order of ops inside the cycle come from the
seed.  A run measures whole cycles, so the mix of cheap and expensive ops
is identical on every run and every seed.

Polynomials are drawn per family from fixed pools without replacement and
the family is reshuffled once exhausted, so within a run no polynomial is
repeated in ``derive``; ``sweep`` reuses each of its polynomials on purpose.
The ``sweep`` pool (sweep_pool.json) was screened once against the program
so that only the named known failures fail.  This module does not import
rootode: the program sees only the generated text inputs.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Deadline per op, fixed per workload at several times the slowest correct
# op seen at the seed (derive: dense sextic ~9 s; sweep: ~140 ms, typically
# under 40 ms; series: order 200 ~4 s).  A timed-out op is a failed op whose
# latency is the deadline.
DEADLINE_S = {"derive": 90.0, "sweep": 1.0, "series": 45.0}

# Seconds one cycle spends in ops with the seed's program, at the reference
# speed of run.py (a 2-vCPU virtual machine, Python 3.11).  A run makes
# round(--seconds / CYCLE_S) whole cycles, so its ops, and with them its
# attempted and failed counts, depend on the seed alone.
CYCLE_S = {"derive": 25.0, "sweep": 8.5, "series": 6.5}

REFUSAL = ("domain_error", "hit_branch_point")


@dataclass(frozen=True)
class Op:
    verb: str
    problem: str
    q: str | None = None
    order: int | None = None
    weight: str | None = None
    kind: str = "theorem1"
    expect: tuple[str, ...] = ("ok",)

    @property
    def key(self) -> str:
        return f"{self.verb}|{self.problem}"


def poly_text(coeffs) -> str:
    """Ascending coefficients (ints or Fractions, c_0 = 0) as CLI text."""
    out = ""
    for k in range(len(coeffs) - 1, 0, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        body = ("" if mag == 1 else str(mag)) + ("x" if k == 1 else f"x^{k}")
        out += ("-" if c < 0 else "+") + body
    return out.lstrip("+")


def parse_text(text: str) -> list[Fraction]:
    """Inverse of poly_text for the inputs generated here."""
    powers: dict[int, Fraction] = {}
    for term in text.replace("-", "+-").split("+"):
        if not term:
            continue
        coef, _, power = term.partition("x")
        k = int(power[1:]) if power.startswith("^") else 1
        if coef in ("", "-"):
            coef += "1"
        powers[k] = Fraction(coef)
    return [powers.get(k, Fraction(0)) for k in range(max(powers) + 1)]


# ---------------------------------------------------------------------------
# derive: exact verbs on distinct polynomials

DERIVE_SEXTIC = "x^6+x^5+x^4+3x^3+2x^2+x"
# families per verb, and ops per family and cycle; every cycle also runs
# derive-linear on the sextic.  Twelve shapes of cheap ops spread their
# latencies evenly from 2 to 150 ms, so the percentiles do not sit on one
# narrow class whose latency jumps with the host's speed; 24 of each per
# cycle keep the median from moving with which ones a seed draws.
_SHAPES = tuple(f"tri{n}" for n in range(3, 9)) + tuple(f"dense{d}" for d in range(3, 9))
DERIVE_FAMILIES = {
    "discriminant": _SHAPES,
    "derive-abel": _SHAPES,
    "derive-linear": _SHAPES[:6] + ("dense3", "dense4", "dense5"),
}
DERIVE_PER_CYCLE = {"discriminant": 24, "derive-abel": 24, "derive-linear": 1}
# pools hold this many cycles' worth of distinct polynomials per family
DERIVE_POOL_CYCLES = 3
_POOL_SEED = 2006_09362
_DENSE_RANGE = {3: 7, 4: 3, 5: 3, 6: 2, 7: 2, 8: 2}


def horner(coeffs, t):
    """Value at t of the polynomial with ascending coefficients."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_roots(coeffs) -> list[complex]:
    """All complex roots of a polynomial (ascending real coefficients), by
    Durand-Kerner iteration in pure Python, so the benchmark process does
    not load numpy on top of what the program loads."""
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    c = [x / c[-1] for x in c]
    n = len(c) - 1
    radius = 1.0 + max((abs(x) for x in c[:-1]), default=0.0)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(1000):
        moved = 0.0
        for i in range(n):
            den = 1.0
            for j in range(n):
                if j != i:
                    den *= z[i] - z[j]
            step = horner(c, z[i]) / den
            z[i] -= step
            moved = max(moved, abs(step) / (1.0 + abs(z[i])))
        if moved < 1e-15:
            break
    return z


def _critical_values(coeffs) -> list[complex]:
    fc = [float(c) for c in coeffs]
    return [horner(fc, z) for z in poly_roots([k * c for k, c in enumerate(fc)][1:])]


def _generic(coeffs) -> bool:
    """D(0) != 0, i.e. R has no multiple root; the oracle's series checks need it."""
    return all(abs(v) > 1e-6 for v in _critical_values(coeffs))


def _draw_trinomial(rng: random.Random, n: int) -> str:
    p = Fraction(rng.randint(1, 16), rng.randint(1, 9)) * rng.choice((1, -1))
    return poly_text([0, p] + [0] * (n - 2) + [1])


def _draw_dense(rng: random.Random, d: int) -> str:
    m = _DENSE_RANGE[d]
    while True:
        a1 = rng.choice([c for c in range(-m, m + 1) if c])
        mid = [rng.randint(-m, m) for _ in range(d - 2)]
        coeffs = [0, a1] + mid + [1]
        if all(mid) and _generic(coeffs):  # dense: every power present
            return poly_text(coeffs)


def derive_pool() -> dict[tuple[str, str], list[str]]:
    """Fixed pools of distinct polynomials per (family, verb); the goldens
    cover exactly these inputs."""
    rng = random.Random(_POOL_SEED)
    pool = {}
    for fam in _SHAPES:
        verbs = [v for v, fams in DERIVE_FAMILIES.items() if fam in fams]
        need = sum(DERIVE_PER_CYCLE[v] for v in verbs) * DERIVE_POOL_CYCLES
        seen: list[str] = []
        while len(seen) < need:
            deg = int(fam[-1])
            text = _draw_trinomial(rng, deg) if fam.startswith("tri") else _draw_dense(rng, deg)
            if text not in seen:
                seen.append(text)
        for verb in verbs:
            take = DERIVE_PER_CYCLE[verb] * DERIVE_POOL_CYCLES
            pool[(fam, verb)], seen = seen[:take], seen[take:]
    return pool


class _Deck:
    """Draws without replacement, reshuffling once exhausted."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.left = list(items), rng, []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def derive_cycles(seed: int):
    rng = random.Random(seed)
    decks = {k: _Deck(v, rng) for k, v in derive_pool().items()}
    while True:
        cycle = [Op("derive-linear", DERIVE_SEXTIC)]
        for (fam, verb), deck in decks.items():
            cycle += [Op(verb, deck.draw()) for _ in range(DERIVE_PER_CYCLE[verb])]
        rng.shuffle(cycle)
        yield cycle


# ---------------------------------------------------------------------------
# sweep: solve and check at many targets on a few polynomials

SWEEP_DEGREES = (3, 4, 5)
SWEEP_PER_DEGREE = 6  # polynomials of each degree per cycle
SWEEP_INSIDE = 16   # targets inside the branch radius, per pooled polynomial
SWEEP_TARGETS = 8   # of them, drawn by the seed, per polynomial and cycle
SWEEP_PAST = 3      # targets past the first branch point (solve)
SWEEP_QMAX = 2.0    # |q| range on a side with no branch point
# sweep_pool.json holds this many screened polynomials per degree (four
# cycles' worth), drawn from candidates of a fixed seed; see make_sweep_pool.py
SWEEP_POOL_PER_DEGREE = 24
_SWEEP_POOL_SEED = 2006_09363
SWEEP_POOL_FILE = Path(__file__).resolve().parent / "sweep_pool.json"
# A non-real branch point closer than this share of |q| to [0, q] makes the
# adaptive quadrature of check --kind corollary2 run for seconds or hang (it
# stays under 0.1 s down to 6e-4 |q|); seeded targets keep clear of it.
SWEEP_MIN_POLE_GAP = 0.01
# Ops on which the program fails in a known way, sent at a fixed count per
# cycle, as (verb, kind, problem, q, expected status).  Whether a seeded input
# fails like these depends on the polynomial and the target, so the pooled
# inputs are screened against them (make_sweep_pool.py) and seeded past-q*
# targets go through solve only; every cycle then holds the same failures.
SWEEP_KNOWN_FAILURES = (
    # past q*: theorem1 refuses as it should, corollary2 hangs
    ("check", "theorem1", "x^3-3x^2+x", "1", REFUSAL),
    ("check", "corollary2", "x^3-3x^2+x", "1", REFUSAL),
    ("check", "theorem1", "x^4-2x^2+x", "1", REFUSAL),
    ("check", "corollary2", "x^4-2x^2+x", "1", REFUSAL),
    # inside the radius, a non-real branch point 1.8e-4 |q| from [0, q]:
    # theorem1 passes, corollary2 hangs
    ("check", "theorem1", "x^5-3x^4+2x^2-x", "-7.55021", ("ok",)),
    ("check", "corollary2", "x^5-3x^4+2x^2-x", "-7.55021", ("ok",)),
    # inside the radius, the bracket search steps over the root (see
    # steps_over_root): both kinds refuse
    ("check", "theorem1", "x^3+2x^2-x", "2.09518", ("ok",)),
    ("check", "corollary2", "x^3+2x^2-x", "2.09518", ("ok",)),
    # inside the radius at 0.85 q*: check of either kind hangs
    ("check", "theorem1", "x^5-3x^4-x^3+2x^2+3x", "1.92451", ("ok",)),
    # inside the radius, the last tracking step lands one ulp short of q:
    # solve stops with step_underflow
    ("solve", "theorem1", "x^5-x^3+x^2+x", "0.00702746", ("ok",)),
)


def branch_limits(coeffs) -> dict[int, float | None]:
    """First real root of D on each side of 0 (None if there is none).

    The real roots of D are the real critical values R(c), R'(c) = 0.
    Returns None for a polynomial whose critical values sit too near the
    real axis to classify reliably, or too near 0.
    """
    lim: dict[int, float | None] = {1: None, -1: None}
    for v in _critical_values(coeffs):
        scale = 1.0 + abs(v.real)
        if 1e-10 * scale < abs(v.imag) < 1e-4 * scale:
            return None
        if abs(v.imag) <= 1e-10 * scale:
            if abs(v.real) < 0.02:
                return None
            side = 1 if v.real > 0 else -1
            if lim[side] is None or abs(v.real) < abs(lim[side]):
                lim[side] = v.real
    return lim


def steps_over_root(coeffs, q: float) -> bool:
    """Whether stepping out from 0 by doubling (1e-6, 2e-6, 4e-6, ...) towards
    the side the branch leaves on meets no sign change of R - q.

    This is the bracket search that check starts from; on an R that turns
    back soon after passing q it can step over the whole stretch where R is
    past q, and check then refuses a target inside the branch radius.
    """
    fc = [float(c) for c in coeffs]
    x = math.copysign(1e-6, q * fc[1])
    for _ in range(200):
        if (horner(fc, x) - q) * q > 0:
            return False
        x *= 2.0
    return True


def well_posed(coeffs, q: float) -> bool:
    """A target inside the radius that falls in neither known failure class."""
    gap = SWEEP_MIN_POLE_GAP * abs(q)
    for v in _critical_values(coeffs):
        if abs(v.imag) > 1e-10 * (1.0 + abs(v.real)):
            near = min(max(v.real, min(0.0, q)), max(0.0, q))
            if abs(v - near) < gap:
                return False
    return not steps_over_root(coeffs, q)


def _draw_sweep_poly(rng: random.Random, deg: int):
    """A polynomial with a branch point on at least one side, and its inside
    targets (SWEEP_INSIDE, all well posed)."""
    while True:
        coeffs = [0, rng.choice((-3, -2, -1, 1, 2, 3))]
        coeffs += [rng.randint(-3, 3) for _ in range(deg - 2)] + [1]
        lim = branch_limits(coeffs)
        if lim is None or (lim[1] is None and lim[-1] is None):
            continue
        targets = []
        for _ in range(4 * SWEEP_INSIDE):
            side = rng.choice((1, -1))
            bound = abs(lim[side]) if lim[side] is not None else SWEEP_QMAX
            q = f"{side * rng.uniform(0.1, 0.85) * bound:.6g}"
            if well_posed(coeffs, float(Fraction(q))):
                targets.append(q)
                if len(targets) == SWEEP_INSIDE:
                    return poly_text(coeffs), lim, targets


def _weight(rng: random.Random) -> str:
    c0, c1 = rng.randint(1, 3), rng.randint(-2, 2)
    if c1 == 0:
        return str(c0)
    return f"{c0}{'+' if c1 > 0 else '-'}{'' if abs(c1) == 1 else abs(c1)}q"


def _checks(rng, problem, q, expect):
    return [Op("check", problem, q=q, weight=_weight(rng), kind=kind, expect=expect)
            for kind in ("theorem1", "corollary2")]


def sweep_candidates(deg: int):
    """Endless candidate pool entries of one degree, from a fixed seed: a
    polynomial with its inside targets (each with a weight per check kind),
    its past-q* targets and the infinite targets towards its branch points."""
    rng = random.Random(_SWEEP_POOL_SEED + deg)
    while True:
        problem, lim, targets = _draw_sweep_poly(rng, deg)
        sides = [s for s in (1, -1) if lim[s] is not None]
        past = [f"{lim[rng.choice(sides)] * rng.uniform(1.2, 2.5):.6g}"
                for _ in range(SWEEP_PAST)]
        yield {"problem": problem,
               "inside": [[q, _weight(rng), _weight(rng)] for q in targets],
               "past": past,
               "inf": [("inf", "-inf")[s < 0] for s in sides]}


def sweep_ops(entry: dict, inside=None) -> list[Op]:
    """The ops of one pool entry: solve and check of both kinds at each of
    the given inside targets (default: all of them), solve at every past-q*
    target."""
    p = entry["problem"]
    ops = []
    for q, w1, w2 in entry["inside"] if inside is None else inside:
        ops += [Op("solve", p, q=q), Op("check", p, q=q, weight=w1),
                Op("check", p, q=q, weight=w2, kind="corollary2")]
    return ops + [Op("solve", p, q=q, expect=("hit_branch_point",)) for q in entry["past"]]


def non_finite_ops(rng: random.Random, entry: dict, q: str) -> list[Op]:
    """solve and check of both kinds at a non-finite target."""
    p = entry["problem"]
    return [Op("solve", p, q=q, expect=("usage_error",))] + _checks(rng, p, q, ("usage_error",))


def sweep_cycles(seed: int):
    rng = random.Random(seed)
    pool = json.loads(SWEEP_POOL_FILE.read_text())
    decks = [_Deck(pool[str(d)], rng) for d in SWEEP_DEGREES]
    while True:
        entries = [deck.draw() for deck in decks for _ in range(SWEEP_PER_DEGREE)]
        cycle = [op for e in entries
                 for op in sweep_ops(e, rng.sample(e["inside"], SWEEP_TARGETS))]
        cycle += [Op(verb, problem, q=q, weight=_weight(rng) if verb == "check" else None,
                     kind=kind, expect=expect)
                  for verb, kind, problem, q, expect in SWEEP_KNOWN_FAILURES]
        # an infinite target points at a side with a branch point: solve then
        # refuses at once instead of hanging as it does on a side without one,
        # so every cycle holds the same number of hangs (the nan target's)
        cycle += non_finite_ops(rng, rng.choice(entries), "nan")
        entry = rng.choice(entries)
        cycle += non_finite_ops(rng, entry, rng.choice(entry["inf"]))
        rng.shuffle(cycle)
        yield cycle


# ---------------------------------------------------------------------------
# series: exact branch series at orders 20..200

# (count per cycle, degrees cycled through, order range).  Orders are spread
# evenly over the range, the same in every cycle: an op costs about the cube
# of its order, so orders drawn by the seed would move the cycle's cost and
# its percentiles; the seed picks the polynomials and the order of ops.  Every coefficient is nonzero and R'(0)
# is small, so the cost is set by degree and order rather than by sparsity
# or coefficient growth.
SERIES_SLOTS = (
    (41, (2, 2, 3, 3, 4), (20, 40)),
    (8, (3,), (50, 70)),
    (1, (5,), (200, 200)),
)


def _series_family(deg: int, order_hi: int) -> list[str]:
    """Distinct dense monic polynomials of one degree for one order stratum."""
    if deg == 5:
        return [poly_text([0, a, 0, 0, 0, 1]) for a in (1, -1)]
    if deg == 2:
        return [poly_text([0, Fraction(a, b) * s, 1]) for a in range(1, 7)
                for b in (1, 2, 3) for s in (1, -1) if math.gcd(a, b) == 1]
    # the few longer ops set p90, and an op's cost grows with the size of the
    # coefficients, so past order 40 they are all small
    lin = (1, -1) if order_hi > 40 else (1, -1, 2, -2)
    m = 5 if deg == 3 and order_hi <= 40 else 2
    mids = [c for c in range(-m, m + 1) if c]
    out = []
    for a in lin:
        for mid in itertools.product(mids, repeat=deg - 2):
            coeffs = [0, a, *mid, 1]
            if _generic(coeffs):
                out.append(poly_text(coeffs))
    return out


def series_cycles(seed: int):
    rng = random.Random(seed)
    decks = {}
    for count, degs, (lo, hi) in SERIES_SLOTS:
        for d in degs:
            decks[(d, hi)] = _Deck(_series_family(d, hi), rng)
    while True:
        cycle = []
        for count, degs, (lo, hi) in SERIES_SLOTS:
            for i in range(count):
                d = degs[i % len(degs)]
                order = lo + (hi - lo) * i // max(1, count - 1)
                cycle.append(Op("series", decks[(d, hi)].draw(), order=order))
        rng.shuffle(cycle)
        yield cycle


CYCLES = {"derive": derive_cycles, "sweep": sweep_cycles, "series": series_cycles}
