"""Regenerate golden.json: digests of the --no-timing JSON of every derive input.

    python3 perfbench/make_golden.py

Run it only when an output change is intended; the goldens are the
contract the derive workload checks every op against.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import rootode.cli as cli  # noqa: E402
from oracle import digest  # noqa: E402
from workloads import DERIVE_SEXTIC, Op, derive_pool  # noqa: E402


def main() -> int:
    ops = {Op(verb, p) for (_, verb), polys in derive_pool().items() for p in polys}
    ops.add(Op("derive-linear", DERIVE_SEXTIC))
    golden = {}
    for op in sorted(ops, key=lambda o: o.key):
        report, _ = cli.run(cli.Command(verb=op.verb, problem=op.problem, timing=False))
        if report.status != "ok":
            print(f"{op.key}: status {report.status}", file=sys.stderr)
            return 1
        golden[op.key] = digest(cli.format_report(report, "json"))
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} goldens written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
