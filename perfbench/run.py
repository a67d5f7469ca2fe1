"""rootode benchmark: one workload, one seed, closed loop, single client.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 20 --trace 0

Each op is exactly what a CLI verb does after start-up:
``rootode.cli.run(Command(..., timing=False))`` and then
``format_report(report, "json")``, called in-process from one thread, the
next op issued when the previous one returns.  Interpreter start-up plus
importing rootode and building the parser is measured separately in fresh
processes as ``setup_s``.

The run executes a fixed number of whole cycles of the workload (see
workloads.py): as many as spend ``--seconds`` in ops at the reference speed
(``CYCLE_S``), and at least MIN_OPS ops, so a seed fixes every op of a run.
Every op runs under a fixed per-workload deadline; a timed-out op is a
failed op whose latency is the deadline.  Op times are reported at a fixed
reference speed of the host (see ``calibrate``); the raw times are printed
too.  Outputs are checked against oracle.py after
the timed loop.  The last line of stdout is the JSON result; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
tracing overhead against an untraced run of the same seed.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100
SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "import rootode.cli; rootode.cli.build_parser()")
WARMUP_PROBLEM = "x^2+7x"  # in no workload's input pool
# The host is a share of a machine whose speed drifts by up to half from one
# minute to the next, far more than any bound, so every op time is divided
# by the host's slowness around the op: the mean time of calibrate() over
# the samples taken within CAL_WINDOW_S of it, over CAL_REF_S, the kernel's
# time on an ordinary minute of a 2-vCPU virtual machine (Python 3.11).  A
# sample is taken after every op and, inside ops, every CAL_EVERY_S of CPU
# time.  The kernel is the benchmark's own code, so a change to the program
# does not move it.
CAL_REF_S = 150e-6
CAL_EVERY_S = 0.02
CAL_WINDOW_S = 0.5

sys.path.insert(0, str(HERE))
from workloads import CYCLE_S, CYCLES, DEADLINE_S, Op  # noqa: E402
import oracle  # noqa: E402


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in rootode eats it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Record:
    op: Op
    status: str          # report status, "timeout" or "exception"
    latency_s: float
    text: str = ""
    outcome: str = ""    # "ok", "timeout", "exception", "wrong_status", "wrong_answer"
    detail: str = ""
    start: float = 0.0   # perf_counter() when the op was issued
    ref_s: float = 0.0   # latency at the reference speed of the host


_CAL_COEFFS = [Fraction(k, 7) for k in range(1, 9)]
_CAL_POINTS = (Fraction(1, 3), Fraction(2, 5), Fraction(-3, 7))
_CAL_FLOATS = [0.1 * k for k in range(30)]


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel takes: Horner steps over Fractions
    and over floats, the arithmetic the program spends its time in.  The
    garbage collector is held off, so the time is the host's speed and not
    the size of the program's heap (or of the tracer's spans)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for t in _CAL_POINTS:
            v = Fraction(0)
            for c in _CAL_COEFFS:
                v = v * t + c
        for _ in range(40):
            v = 0.0
            for c in _CAL_FLOATS:
                v = v * 0.37 + c
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


# (start, seconds) of every calibrate() sample of the current run
_samples: list[tuple[float, float]] = []


def _sample(signum=None, frame=None):
    t0 = perf_counter()
    _samples.append((t0, calibrate()))


def run_op(cli, op: Op, deadline: float) -> Record:
    """One op; its latency leaves out the samples taken inside it."""
    n = len(_samples)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = perf_counter()
    try:
        report, _ = cli.run(cli.Command(
            verb=op.verb, problem=op.problem, q=op.q, order=op.order,
            weight=op.weight, kind=op.kind, timing=False))
        text = cli.format_report(report, "json")
        latency = perf_counter() - t0
    except OpTimeout:
        return Record(op, "timeout", deadline, start=t0)
    except Exception as exc:  # a crash of the verb is a failed op, not the end of the run
        return Record(op, "exception", perf_counter() - t0 - sum(s for _, s in _samples[n:]),
                      detail=repr(exc), start=t0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Record(op, report.status, latency - sum(s for _, s in _samples[n:]), text, start=t0)


def judge(rec: Record, golden: dict) -> None:
    """Classify one op; only an ok report whose content is wrong, or an ok
    where a refusal was due, is a wrong answer."""
    if rec.status in ("timeout", "exception"):
        rec.outcome = rec.status
    elif rec.status not in rec.op.expect:
        rec.outcome = "wrong_answer" if rec.status == "ok" else "wrong_status"
        rec.detail = f"status {rec.status}, expected {'/'.join(rec.op.expect)}"
    elif rec.status == "ok":
        try:
            why = oracle.check(rec.op, rec.text, json.loads(rec.text)["result"], golden)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            why = f"malformed result: {exc!r}"
        rec.outcome, rec.detail = ("wrong_answer", why) if why else ("ok", "")
    else:
        rec.outcome = "ok"


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, and the times come out in those steps
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                       check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def warm_up(cli):
    """One op of each kind, so lazy set-up is not charged to the first op."""
    for op in (Op("discriminant", WARMUP_PROBLEM), Op("solve", WARMUP_PROBLEM, q="1"),
               Op("check", WARMUP_PROBLEM, q="1"), Op("series", WARMUP_PROBLEM, order=8)):
        run_op(cli, op, 60.0)


def run_workload(cli, workload: str, seed: int, seconds: float, tracer=None):
    deadline = DEADLINE_S[workload]
    golden = json.loads((HERE / "golden.json").read_text()) if workload == "derive" else {}
    cycles = CYCLES[workload](seed)
    ops = next(cycles)
    n_cycles = max(math.ceil(MIN_OPS / len(ops)), round(seconds / CYCLE_S[workload]))
    for _ in range(n_cycles - 1):
        ops += next(cycles)
    records: list[Record] = []
    _samples.clear()
    signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, CAL_EVERY_S, CAL_EVERY_S)
    t_start = perf_counter()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = len(records) + 1
            records.append(run_op(cli, op, deadline))
            _sample()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    loop_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_t, cal_s = [t for t, _ in _samples], [s for _, s in _samples]
    for rec in records:
        judge(rec, golden)
        # a timeout lasts the deadline whatever the host's speed
        rec.ref_s = (rec.latency_s if rec.status == "timeout" else rec.latency_s
                     / slowness_near(cal_t, cal_s, rec.start, rec.start + rec.latency_s))
    return records, loop_s, peak_rss_mb, statistics.fmean(cal_s) / CAL_REF_S


def slowness_near(cal_t, cal_s, t0, t1) -> float:
    """The host's slowness around [t0, t1]: the mean time of the samples
    taken within CAL_WINDOW_S of it (at least the one right after the op),
    over CAL_REF_S."""
    i = bisect.bisect_left(cal_t, t0 - CAL_WINDOW_S)
    j = bisect.bisect_right(cal_t, t1 + CAL_WINDOW_S)
    return statistics.fmean(cal_s[i:j]) / CAL_REF_S


def end_to_end(records, peak_rss_mb, setup_s, attr="ref_s") -> dict:
    """The end-to-end metrics, from reference-speed times (attr "ref_s") or
    raw ones ("latency_s"); ops_per_s is per second spent in ops."""
    n = len(records)
    good = sum(r.outcome == "ok" for r in records)
    lat_ms = [1000.0 * getattr(r, attr) for r in records]
    cuts = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "ops_per_s": 1000.0 * good / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": cuts[8],
        "success_rate": good / n,
        "peak_rss_mb": peak_rss_mb,
    }


def print_outcomes(records, loop_s, slowness):
    n = len(records)
    failed = [r for r in records if r.outcome != "ok"]
    print(f"ops attempted {n} in {loop_s:.2f} s; latency samples {n}, "
          f"{n - int(0.9 * n)} beyond p90; host slowness {slowness:.4f} "
          f"(mean calibration kernel time over its reference time)")
    print(f"error_rate {len(failed) / n:.4f} ({len(failed)}/{n} failed)")
    print(f"returned_ms_per_op {returned_ms_per_op(records):.6f} (mean latency of ops "
          f"that did not time out, at the reference speed)")
    kinds: dict[str, list[Record]] = {}
    for r in failed:
        kinds.setdefault(r.outcome, []).append(r)
    for kind, rs in sorted(kinds.items()):
        ex = rs[0]
        print(f"  {kind:13s} {len(rs):5d}  e.g. {ex.op.verb} {ex.op.problem!r} "
              f"q={ex.op.q} kind={ex.op.kind}: {ex.detail or ex.status}")


def returned_ms_per_op(records) -> float:
    lat = [r.ref_s for r in records if r.outcome != "timeout"]
    return 1000.0 * sum(lat) / len(lat)


def print_table(metrics: dict, specs: list[dict]):
    for spec in specs:
        print(f"  {spec['name']:50s} {metrics[spec['name']]:14.6g} {spec['unit']}")


def result_line(records, metrics, specs) -> str:
    return json.dumps({
        "correct": not any(r.outcome == "wrong_answer" for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome != "ok" for r in records),
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    })


def untraced_ms_per_op(args) -> float:
    """returned_ms_per_op of an untraced run of the same seed, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=170, cwd=ROOT)
    line = next(l for l in proc.stdout.splitlines() if l.startswith("returned_ms_per_op "))
    return float(line.split()[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=tuple(CYCLES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rootode" / "__init__.py").is_file():
        print(f"rootode sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _alarm)

    if args.trace:
        base = untraced_ms_per_op(args)
    else:
        setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import rootode.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported rootode from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    warm_up(cli)
    tracer = None
    if args.trace:
        from spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    records, loop_s, rss, slowness = run_workload(cli, args.workload, args.seed,
                                                  args.seconds, tracer)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"deadline {DEADLINE_S[args.workload]} s")
    print_outcomes(records, loop_s, slowness)

    if args.trace:
        n = len(records)
        traced = returned_ms_per_op(records)
        overhead = 100.0 * (traced / base - 1.0)
        metrics = {s["name"]: tracer.metric(s["name"], n) for s in spec["per_layer"]
                   if s["name"] != "trace.overhead_pct"}
        metrics["trace.overhead_pct"] = overhead
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
        summary = tracer.summary(n) | {"metrics": metrics, "untraced_ms_per_op": base,
                                       "traced_ms_per_op": traced}
        (OUT / f"layers-{stem}.json").write_text(json.dumps(summary, indent=1))
        print(f"tracing overhead {overhead:.1f}% (ms per returned op: untraced {base:.4g}, "
              f"traced {traced:.4g}); {len(tracer.spans)} spans in {OUT}/spans-{stem}.jsonl")
        print("spans with the most self time, per op:")
        for name, row in list(summary["spans"].items())[:12]:
            print(f"  {name:50s} {row['self_ms_per_op']:14.6g} ms {row['calls_per_op']:12.4g} calls")
        print("per-layer metrics, per op:")
        print_table(metrics, spec["per_layer"])
        print(result_line(records, metrics, spec["per_layer"]))
    else:
        raw = end_to_end(records, rss, setup_s, attr="latency_s")
        print("end-to-end metrics, raw:")
        print_table(raw, spec["end_to_end"])
        metrics = end_to_end(records, rss, setup_s)
        print("end-to-end metrics, at the reference speed:")
        print_table(metrics, spec["end_to_end"])
        print(result_line(records, metrics, spec["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
