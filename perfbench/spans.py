"""Span recorder for the traced run, attached from outside the program.

``instrument`` rebinds every public function of each rootode module, in
every rootode module that holds a reference to it (``abel_ode`` is called
through ``rootode.derive``, ``rootode.numeric.tracking`` and ``rootode.cli``
alike), to a wrapper that records a span: name, start, end, the calling
span and the op it belongs to.  Self time is a span's duration minus the
time covered by its child spans.  Spans stay in memory and are written out
when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# module -> layer name used as the span prefix
LAYERS = {
    "rootode.algebra": "algebra",
    "rootode.derive": "derive",
    "rootode.render": "render",
    "rootode.numeric.tracking": "numeric.tracking",
    "rootode.numeric.quadrature": "numeric.quadrature",
    "rootode.numeric.closedform": "numeric.closedform",
    "rootode.numeric.series": "numeric.series",
}
CLI_SPANS = {
    "run": "cli.run",
    "parse_polynomial": "cli.parse",
    "parse_weight": "cli.parse",
    "parse_q_value": "cli.parse",
    "format_report": "cli.format_report",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, op, name, start, end)
        self.stack: list[list] = []        # [span id, seconds covered by children]
        self.stats: dict[str, list] = {}   # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.op = 0
        self.next_id = 1

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, self.next_id = self.next_id, self.next_id + 1
            parent = self.stack[-1][0] if self.stack else 0
            frame = [sid, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return after(out) if after else out
            finally:
                t1 = perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += t1 - t0
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += t1 - t0
                st[2] += t1 - t0 - frame[1]
                self.spans.append((sid, parent, self.op, name, t0, t1))
        return wrapper

    # -- hooks that read counts off results --------------------------------

    def _track_result(self, res):
        self.counts["numeric.tracking.rk_steps"] += res.steps
        self.counts["numeric.tracking.polish_iters"] += res.polish_iters
        return res

    def _counting_integrand(self, f):
        counts = self.counts

        def g(t):
            counts["numeric.quadrature.integrand_evals"] += 1
            return f(t)
        return g

    # -- reading the trace --------------------------------------------------

    def self_ms(self, prefix: str) -> float:
        return 1000.0 * sum(st[2] for name, st in self.stats.items()
                            if name == prefix or name.startswith(prefix + "."))

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def metric(self, name: str, ops: int) -> float:
        """A per-layer metric per op: '<span>.self_ms', '<span>.calls' or a count."""
        if name.endswith(".self_ms"):
            return self.self_ms(name[: -len(".self_ms")]) / ops
        if name.endswith(".calls"):
            return self.calls(name[: -len(".calls")]) / ops
        return self.counts[name] / ops

    def summary(self, ops: int) -> dict:
        rows = {
            name: {"calls": st[0], "total_ms": 1000 * st[1], "self_ms": 1000 * st[2],
                   "calls_per_op": st[0] / ops, "self_ms_per_op": 1000 * st[2] / ops}
            for name, st in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        }
        layers = sorted({n.rsplit(".", 1)[0] for n in self.stats})
        return {
            "ops": ops,
            "spans": rows,
            "layers_self_ms_per_op": {l: self.self_ms(l) / ops for l in layers},
            "counts_per_op": {k: v / ops for k, v in sorted(self.counts.items())},
            "spans_written": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _targets():
    """(span name, function, result hook) for every instrumented function."""
    out = []
    for modname, layer in LAYERS.items():
        mod = sys.modules[modname]
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == modname and not name.startswith("_"):
                out.append((f"{layer}.{name}", fn))
    cli = sys.modules["rootode.cli"]
    out += [(span, getattr(cli, name)) for name, span in CLI_SPANS.items()]
    return out


def instrument(tracer: Tracer):
    """Rebind every traced function everywhere rootode refers to it."""
    hooks = {
        "numeric.tracking.track_root": tracer._track_result,
        "numeric.quadrature.lhs_integrand": tracer._counting_integrand,
        "numeric.quadrature.rhs_integrand": tracer._counting_integrand,
    }
    modules = [m for name, m in sys.modules.items()
               if name == "rootode" or name.startswith("rootode.")]
    for span, fn in _targets():
        wrapper = tracer.wrap(span, fn, hooks.get(span))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
