"""The repository benchmark: one command, three workloads, every output
checked.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 30 --trace 0

Run it from the repository root; the package is imported from ``src/``.

Workloads run closed loop: one client issues the next request when the
last returns, all through the in-process CLI entry
``spinor_ternary.cli_verify.main(argv)``.

- ``verify-catalog``: ``verify all`` with ``--jobs 1`` and ``--jobs nproc``;
- ``point-queries``: a seeded stream of ``classify`` and ``local`` queries;
- ``report-dump``: ``report all`` and a one-record report of the widest
  form, into an in-memory sink.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed request list untraced, then the same
list under the tracing shim, and reports the per-layer metrics with the
tracing overhead.  Human-readable lines come first on stdout; the last
line is one JSON object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

WORKLOADS = ("verify-catalog", "point-queries", "report-dump")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="spinor-ternary benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "spinor_ternary" / "__init__.py").is_file():
        print(f"error: no spinor_ternary package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
