"""Regenerate sweep_pool.json: the screened polynomials and targets of sweep.

    python3 perfbench/make_sweep_pool.py

Candidates come from workloads.sweep_candidates (a fixed seed, so the file
depends only on the generator and the program it was screened with).  A
candidate is kept when, with this checkout's program, every one of its ops
gets its expected status and passes the oracle, and its non-finite targets
fail the way they do on every kept polynomial: solve at nan times out,
every other non-finite op fails at once.  The failure classes screened out
here are sent at a fixed count per cycle instead (SWEEP_KNOWN_FAILURES), so
every sweep run holds the same failures whatever its seed.

Run it only when the sweep generator changes; the pool is what every run of
every later version is measured on.
"""
from __future__ import annotations

import collections
import json
import random
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import rootode.cli as cli  # noqa: E402
from workloads import (DEADLINE_S, SWEEP_DEGREES, SWEEP_POOL_FILE,  # noqa: E402
                       SWEEP_POOL_PER_DEGREE, non_finite_ops, sweep_candidates, sweep_ops)


def screen(entry: dict) -> str:
    """'' when the entry is kept, otherwise why not."""
    rng = random.Random(0)
    for op in sweep_ops(entry):
        rec = run.run_op(cli, op, DEADLINE_S["sweep"])
        run.judge(rec, {})
        if rec.outcome != "ok":
            return f"{op.verb} {op.kind}: {rec.outcome} {rec.status}"
    for q in ["nan"] + entry["inf"]:
        for op in non_finite_ops(rng, entry, q):
            rec = run.run_op(cli, op, DEADLINE_S["sweep"])
            run.judge(rec, {})
            hang = op.verb == "solve" and q == "nan"
            if rec.outcome == "ok" or (rec.outcome == "timeout") != hang:
                return f"{op.verb} {op.kind} at {q}: {rec.outcome} {rec.status}"
    return ""


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    run.warm_up(cli)
    pool = {}
    for deg in SWEEP_DEGREES:
        kept, dropped = [], collections.Counter()
        for entry in sweep_candidates(deg):
            why = screen(entry)
            if why:
                dropped[why] += 1
                print(f"degree {deg}: dropped {entry['problem']}: {why}")
            else:
                kept.append(entry)
                if len(kept) == SWEEP_POOL_PER_DEGREE:
                    break
        pool[str(deg)] = kept
        print(f"degree {deg}: kept {len(kept)}, dropped {sum(dropped.values())}")
    SWEEP_POOL_FILE.write_text(json.dumps(pool, indent=0) + "\n")
    print(f"wrote {SWEEP_POOL_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
