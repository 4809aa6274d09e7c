"""Command-line surface.

Exit codes: 0 success, 1 property violation or inconsistency, 2 usage or
parse error, including an input file that cannot be read or an output file
that cannot be written, 3 resource cap exceeded, including a run out of
memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

from .determinant import basis_det, tensor_det
from .exactla import ReconstructionError
from .hypergraphs import (ResourceCapError, basis_from_partition, betti_numbers,
                          classify_partition, euler_characteristic,
                          read_hypergraph, read_partition)
from .reference import system_dimension
from .system import system_matrix, write_matrix
from .tensors import (BasisAssignment, ParseError, canonical_witness, read_tensor,
                      tensor_from_basis, write_basis)
from .verify import SUITES, _witness_table, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass
class RunReport:
    command: str
    digest: str
    backend: str
    outputs: dict[str, str] = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"input-digest: {self.digest}",
                 f"backend: {self.backend}"]
        lines += [f"{k}: {v}" for k, v in self.outputs.items()]
        lines.append(f"elapsed-ms: {self.elapsed_ms:.1f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {"command": self.command, "input_digest": self.digest,
                   "backend": self.backend, "outputs": self.outputs,
                   "elapsed_ms": round(self.elapsed_ms, 1)}
        return json.dumps(payload, indent=2, sort_keys=True)


#: A command's report, or None when it prints none, and its exit code.
Outcome = tuple[RunReport | None, int]


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_args(*parts) -> str:
    return hashlib.sha256(" ".join(map(str, parts)).encode()).hexdigest()


def _load_assignment(path: str):
    """A tensor file has header 'r d' and gives a TensorAssignment; a label
    file has header 'n r d' and gives a BasisAssignment."""
    with open(path) as fh:
        head = fh.readline().split()
        fh.seek(0)
        if len(head) == 2:
            return read_tensor(fh)
        if len(head) == 3:
            return basis_from_partition(read_partition(fh))
    raise ParseError(1, f"expected a 2- or 3-integer header, got {head}")


def cmd_det(args) -> Outcome:
    assignment = _load_assignment(args.file)
    det = basis_det if isinstance(assignment, BasisAssignment) else tensor_det
    value = det(assignment, backend=args.backend)
    report = RunReport(f"det {args.file}", _digest_file(args.file), args.backend)
    report.outputs["r"] = str(assignment.r)
    report.outputs["d"] = str(assignment.d)
    report.outputs["dimension"] = str(system_dimension(assignment.r, assignment.d))
    report.outputs["det"] = str(value)
    return report, EXIT_OK


def cmd_witness(args) -> Outcome:
    basis = canonical_witness(args.r, args.d)
    if args.out == "-":
        write_basis(basis, sys.stdout)
        return None, EXIT_OK
    with open(args.out, "w") as fh:
        write_basis(basis, fh)
    report = RunReport(f"witness {args.r} {args.d}", _digest_args(args.r, args.d),
                       "none")
    report.outputs["entries"] = str(len(basis.labels))
    report.outputs["written"] = args.out
    return report, EXIT_OK


def cmd_matrix(args) -> Outcome:
    assignment = _load_assignment(args.file)
    if isinstance(assignment, BasisAssignment):
        assignment = tensor_from_basis(assignment)
    sm = system_matrix(assignment)
    with open(args.out, "w") as fh:
        write_matrix(sm.matrix, fh)
    report = RunReport(f"matrix {args.file}", _digest_file(args.file), "none")
    report.outputs["dimension"] = str(sm.size)
    report.outputs["nnz"] = str(len(sm.matrix.entries))
    report.outputs["written"] = args.out
    return report, EXIT_OK


def cmd_table(args) -> Outcome:
    report = RunReport(f"table max-dim={args.max_dim}",
                       _digest_args("table", args.max_dim), args.backend)
    differ = False
    for (r, d), dim, value, known, verdict in _witness_table(args.max_dim, args.backend):
        report.outputs[f"({r},{d})"] = (f"dim={dim} skipped" if value is None else
                                        f"dim={dim} det={value} known={known} {verdict}")
        differ |= verdict == "DIFFER"
    return report, EXIT_VIOLATION if differ else EXIT_OK


def cmd_classify(args) -> Outcome:
    with open(args.file) as fh:
        partition = read_partition(fh)
    rep = classify_partition(partition, backend=args.backend)
    report = RunReport(f"classify {args.file}", _digest_file(args.file), args.backend)
    report.outputs["n r d"] = f"{rep.n} {rep.r} {rep.d}"
    report.outputs["det"] = str(rep.det)
    report.outputs["prehomogeneous"] = str(rep.prehomogeneous).lower()
    report.outputs["homogeneous"] = str(rep.homogeneous).lower()
    if rep.deficiency is not None:
        part, level, count, expected = rep.deficiency
        report.outputs["skeleton-violation"] = (
            f"part {part} has {count} of {expected} {level}-subsets")
    for i, b in enumerate(rep.betti, start=1):
        report.outputs[f"betti-part-{i}"] = " ".join(map(str, b.values))
    report.outputs["consistent"] = str(rep.consistent).lower()
    return report, EXIT_OK if rep.consistent else EXIT_VIOLATION


def cmd_betti(args) -> Outcome:
    with open(args.file) as fh:
        h = read_hypergraph(fh)
    b = betti_numbers(h)
    report = RunReport(f"betti {args.file}", _digest_file(args.file), "none")
    report.outputs["n r"] = f"{h.n} {h.r}"
    report.outputs["betti"] = " ".join(map(str, b.values))
    report.outputs["degrees"] = " ".join(str(k) for k in range(-1, h.r))
    report.outputs["euler-characteristic"] = str(euler_characteristic(h))
    return report, EXIT_OK


def cmd_verify(args) -> Outcome:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return None, EXIT_USAGE
    result = run_suite(args.suite, seed=args.seed, trials=args.trials)
    report = RunReport(f"verify {args.suite}",
                       _digest_args(args.suite, args.seed, args.trials), "auto")
    report.outputs["passed"] = str(result.passed).lower()
    report.outputs["checks"] = str(result.trials)
    for i, line in enumerate(result.details):
        report.outputs[f"detail-{i}"] = line
    for i, line in enumerate(result.failures):
        report.outputs[f"failure-{i}"] = line
    return report, EXIT_OK if result.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    # The commands that compute a determinant also take its backend.
    det_opts = argparse.ArgumentParser(add_help=False, parents=[common])
    det_opts.add_argument("--backend", choices=("bareiss", "multimodular", "auto"),
                          default="auto")

    parser = argparse.ArgumentParser(
        prog="hgdet",
        description="Exact subset determinants and hypergraph partition homology")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("det", parents=[det_opts],
                       help="determinant of a tensor or label file")
    p.add_argument("file")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("witness", parents=[common],
                       help="write the canonical witness assignment")
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("out", help="output path, or - for stdout")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("matrix", parents=[common],
                       help="dump the system matrix in coordinate format")
    p.add_argument("file")
    p.add_argument("out")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("table", parents=[det_opts],
                       help="tabulate witness determinants against known values")
    p.add_argument("--max-dim", type=int, default=5000)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("classify", parents=[det_opts],
                       help="classify a d-partition file")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("betti", parents=[common],
                       help="Betti numbers of a hypergraph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", help=f"one of {', '.join(sorted(SUITES))}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        print(f"error: --trials must be at least 1, got {trials}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        report, code = args.func(args)
        if report is not None:
            report.elapsed_ms = 1000 * (time.perf_counter() - t0)
            print(report.to_json() if args.format == "json" else report.to_text())
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"resource cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ReconstructionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
