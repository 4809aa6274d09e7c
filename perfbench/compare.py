"""Compare two results written by ``run.py --out``:

    python3 perfbench/compare.py before.json after.json

Prints each metric of both runs with its relative change.  Flags runs made
on different kernel backends, whose timings differ by design and are not
comparable.  For two runs of one workload with the same seed it also
checks that the exact counts repeat.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """Returns (table lines, flagged problems)."""
    problems = []
    if a["workload"] != b["workload"]:
        problems.append(f"different workloads: {a['workload']} vs {b['workload']}")
    if a["env"]["kernel"] != b["env"]["kernel"]:
        problems.append(f"kernel backends differ: {a['env']['kernel']} vs "
                        f"{b['env']['kernel']}; timings are not comparable")
    for key in ("cores", "python", "numpy"):
        if a["env"][key] != b["env"][key]:
            problems.append(f"environments differ in {key}: "
                            f"{a['env'][key]} vs {b['env'][key]}")
    if a["workload"] == b["workload"] and a["env"]["seed"] == b["env"]["seed"]:
        for key in sorted(a["exact"].keys() & b["exact"].keys()):
            if a["exact"][key] != b["exact"][key]:
                problems.append(f"exact count {key} does not repeat: "
                                f"{a['exact'][key]} vs {b['exact'][key]}")
    for r in (a, b):
        if not r["correct"]:
            problems.append(f"run at commit {r['env']['commit']} failed its gate")
    lines = []
    for name in a["metrics"].keys() & b["metrics"].keys():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        lines.append(f"{name:28} {x:14.6g} {y:14.6g} {change:>8} "
                     f"{a['metrics'][name]['unit']}")
    return sorted(lines), problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    lines, problems = compare(a, b)
    for line in lines:
        print(line)
    for p in problems:
        print(f"FLAG {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
