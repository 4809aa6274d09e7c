"""Benchmark of hgdet, run from the root of a source checkout:

    python3 perfbench/run.py --workload witness-table --seed 20250808 \\
        --seconds 20 --trace 0 [--out result.json]

Each run measures one workload (see README.md) in a closed loop and prints
its metrics with units and sample counts.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0`` and the per-layer split with
``--trace 1``.  ``--out`` also writes the full result (environment, exact
counts and, when traced, every span) for compare.py.  The exit code is 0
when every answer passed its gate, 1 when one did not, and 2 when the
hgdet sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 20250808
#: Kept out of tuning, so that a claim can be checked on unseen inputs.
HELD_OUT_SEED = 7_160_411

WORKLOAD_NAMES = ("witness-table", "det-auto-sparse", "det-auto-rational",
                  "classify-r3d2")

DERIVED = {"exactla.eliminate_s": "derived: det_bareiss - integer_form",
           "kernels.ops": "computed: n^3/3 per prime",
           "kernels.bytes": "computed: 8 n^2 per prime"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seeds.add_argument("--held-out", action="store_true",
                       help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def report(result: dict) -> None:
    env = result["env"]
    print(f"# workload {result['workload']}  seed {env['seed']}  trace {result['trace']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    samples = result.get("samples", {})
    for name, m in result["metrics"].items():
        note = f"({samples[name]} samples)" if name in samples else DERIVED.get(name, "")
        print(f"{name:28} {m['value']:14.6g} {m['unit']:6} {note}")
    for name, m in result.get("named", {}).items():
        print(f"{name:28} {m['value']:14.6g} {m['unit']:6} ({m['samples']} samples, "
              "at reference speed)")
    for name, value in result.get("raw", {}).items():
        print(f"{'raw.' + name:28} {value:14.6g}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':28} {rate:14.6g} {'ratio':6} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print("# exact " + " ".join(f"{k}={v}" for k, v in result["exact"].items()))
    for err in result["errors"][:20]:
        print(f"# FAILED {err}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hgdet" / "__init__.py").is_file():
        print(f"run.py: hgdet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hgdet
    if not Path(hgdet.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported hgdet from {hgdet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    result = harness.run(WORKLOADS[args.workload](), args.seed, args.seconds,
                         bool(args.trace))
    report(result)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
