"""One bounded, process-wide memo for the work that depends on R alone.

The parsed R and weight, the discriminant, the first-order and linear
equations, the first branch point and the near-poles of D are fixed by
the text of R (or of the weight), while a caller such as a sweep over
targets asks for them again at every q; the certified branch root is
fixed by R and q, which ``solve`` and both ``check`` kinds ask for alike.
``memoized`` gives a function a result cache in the one shared LRU table
below, keyed by the function and its arguments (strings, frozen
``ProblemSpec``s, immutable ``UPoly``s, ints, floats).  Results are frozen
dataclasses, ``UPoly``s, floats or tuples of floats, so sharing them is
safe.  An
exception propagates and is not stored, so a certificate that fails raises
again on the next call.
"""
from __future__ import annotations

from functools import lru_cache, wraps

# A sweep cycle works on about 24 polynomials.  Each holds its parsed text,
# at most three exact derivations (factorize, abel_ode, linear_ode) and six
# Sturm isolations (D and R' on either side of 0, and the near-pole table of
# D' for check on either side), and the cycle's weight texts one parsed
# weight each; an entry is a few small polynomials or floats (a factorize
# result also keeps, for abel_ode, two integer lists of its frame).  Every
# target adds its certified root, a float.  Two sweep cycles use 587-616
# keys on seeds 1, 2, 3 and 1000, about half of them roots, each asked by
# solve and both check kinds within one cycle.  At 352 the entries of the
# named ops' polynomials, which recur in every cycle at shuffled places,
# are evicted and derived again, 21-30 misses more than a table of two
# cycles, which reads no faster; 1024 raised derive's peak RSS by 1.3 MB.
SIZE = 352


@lru_cache(maxsize=SIZE)
def _call(fn, *args):
    return fn(*args)


def memoized(fn):
    """``fn`` computing each result once while it stays in the table.
    The wrapper is a plain function that keeps fn's name, module and
    docstring, so tracers that wrap public functions still find it."""
    @wraps(fn)
    def cached(*args):
        return _call(fn, *args)
    return cached


def clear() -> None:
    """Empty the table, so the next call of every memoized function
    computes afresh."""
    _call.cache_clear()
