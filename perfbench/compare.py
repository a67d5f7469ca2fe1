"""Compare two sets of benchmark runs, for example parent and change.

Make the runs, alternating which side goes first, with the same seeds on
both sides (each directory is a checkout holding BENCHMARK.json, perfbench/
and src/; the two perfbench/ trees must be identical):

    python3 perfbench/compare.py run --a ../parent --b . --pairs 10 --out cmp/

Print one row per workload and metric:

    python3 perfbench/compare.py report cmp/a.jsonl cmp/b.jsonl

Each row gives both sides' median and quartiles, the share of pairs the
change (b) wins, and a verdict:

* improved   - b wins at least 9/10 of the pairs (ties count for neither)
               and the medians differ by more than a's quartile spread;
* regressed  - b's median is worse than a's by more than the metric's bound,
               however noisy a's runs are;
* unresolved - in place of unchanged, when a's own spread is wider than the
               bound, unless every run of b reads better than every run of a;
* unchanged  - otherwise.

Per-layer metrics have no bound: they are improved or regressed by the
pair rule alone, unchanged when the medians differ by less than a's
spread, and unresolved otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SEED0 = 1000  # pair i runs seed SEED0 + i on both sides


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "perfbench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(root).as_posix().encode() + p.read_bytes())
    h.update((root / "BENCHMARK.json").read_bytes())
    return h.hexdigest()


def cmd_run(args) -> int:
    a, b = Path(args.a).resolve(), Path(args.b).resolve()
    if _tree_digest(a) != _tree_digest(b):
        print("the two checkouts run different benchmark code", file=sys.stderr)
        return 1
    bench = json.loads((b / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.pairs):
        seed = SEED0 + i
        sides = [("a", a), ("b", b)] if i % 2 == 0 else [("b", b), ("a", a)]
        for w in workloads:
            for label, root in sides:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                    cwd=root, capture_output=True, text=True, timeout=900, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                rec = {"workload": w, "seed": seed, "trace": args.trace, "result": result}
                with open(out / f"{label}.jsonl", "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"pair {i} {w} {label}: attempted {result['attempted']} "
                      f"failed {result['failed']} correct {result['correct']}", flush=True)
    return 0


def _load(path):
    runs: dict[str, dict[int, dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(a, b, pairs, higher_better, bound):
    """Verdict for b against a; a, b are value lists, pairs (a, b) tuples."""
    sign = 1.0 if higher_better else -1.0
    q1a, meda, q3a = _quartiles(a)
    _, medb, _ = _quartiles(b)
    spread = q3a - q1a
    gain = sign * (medb - meda)
    wins = sum(sign * (vb - va) > 0 for va, vb in pairs)
    losses = sum(sign * (vb - va) < 0 for va, vb in pairs)
    share = wins / len(pairs) if pairs else 0.0
    if pairs and share >= 0.9 and gain > spread:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > spread:
            return "regressed", share
        return ("unchanged" if abs(gain) <= spread else "unresolved"), share
    scale = abs(meda) or 1.0
    if -gain / scale > bound:
        return "regressed", share
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if spread / scale > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def cmd_report(args) -> int:
    bench = json.loads(BENCHMARK.read_text())
    specs = {s["name"]: s for s in bench["end_to_end"] + bench["per_layer"]}
    ra, rb = _load(args.a), _load(args.b)
    print(f"{'workload':8s} {'metric':46s} {'a median [q1, q3]':>30s} "
          f"{'b median [q1, q3]':>30s} {'b wins':>7s}  verdict")
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in ra or w not in rb:
            continue
        seeds = sorted(set(ra[w]) & set(rb[w]))
        for side, runs in (("a", ra[w]), ("b", rb[w])):
            bad = [s for s, r in runs.items() if not r["correct"]]
            if bad:
                print(f"{w:8s} {side}: outputs wrong on seeds {bad}")
        names = list(next(iter(rb[w].values()))["metrics"]) + ["failed"]
        for name in names:
            def value(r):
                return r["failed"] if name == "failed" else r["metrics"][name]["value"]
            spec = specs.get(name, {"better": "lower", "unit": "count"})
            a = [value(r) for r in ra[w].values()]
            b = [value(r) for r in rb[w].values()]
            pairs = [(value(ra[w][s]), value(rb[w][s])) for s in seeds]
            v, share = verdict(a, b, pairs, spec["better"] == "higher", spec.get("bound"))
            qa, qb = _quartiles(a), _quartiles(b)
            fa = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            fb = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            print(f"{w:8s} {name + ' (' + spec['unit'] + ')':46s} {fa:>30s} {fb:>30s} "
                  f"{share:7.2f}  {v}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs on two checkouts")
    r.add_argument("--a", required=True, help="checkout of the parent")
    r.add_argument("--b", required=True, help="checkout of the change")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="print the comparison table")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
