"""Command-line front end: validate inputs, compile, verify, write the
Log / English / Picture file triple, and print the four run outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .compilers import compile_fruit
from .hamiltonian import FruitSpec, InputError, assemble_fruit
from .seo import write_english, write_log, write_picture
from .verify import DEFAULT_MAX_VERIFY_QUBITS, MAX_VERIFY_QUBITS, verify_compile


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as an InputError, after the usage line, so
    that run() can end it in a Message line like any other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="nandfruit",
        description=(
            "Compile the NAND-formula evolution operator exp(iH) into a "
            "sequence of elementary gates and verify it by dense simulation."
        ),
    )
    p.add_argument("--prefix", required=True,
                   help="prefix of the three output files")
    p.add_argument("--line-qubits", type=int, required=True,
                   help="qubits of the line block")
    p.add_argument("--tree-qubits", type=int, required=True,
                   help="qubits of the tree block")
    p.add_argument("--coupling", type=float, required=True,
                   help="coupling constant g")
    p.add_argument("--door", type=int, default=0,
                   help="line node the tree root is glued to")
    p.add_argument("--bands", default="",
                   help="NAND input bands, e.g. '0,1;3,3'")
    p.add_argument("--line-trots", type=int, default=1)
    p.add_argument("--line-order", type=int, default=2)
    p.add_argument("--tree-trots", type=int, default=1)
    p.add_argument("--meta-trots", type=int, default=1)
    p.add_argument("--meta-order", type=int, default=2)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the dense error computation")
    p.add_argument("--max-verify-qubits", type=int,
                   default=DEFAULT_MAX_VERIFY_QUBITS,
                   help="skip verification above this register size")
    return p


def write_outputs(program, report, spec: FruitSpec) -> None:
    """Write the English, Picture and Log files all-or-nothing.

    Files an earlier run left under these names are first renamed to
    temporary names in the same directory.  If any step fails, the new files
    are removed and the earlier ones renamed back, so the directory holds
    either the whole new triple or the earlier one.  The writers are given
    the final names, not temporary ones renamed afterwards, because
    perfbench/tracer.py reads each file back under the name its writer got.
    """
    prefix = spec.file_prefix
    writes = [
        (f"{prefix}_qfru_eng.txt", lambda path: write_english(program, path)),
        (f"{prefix}_qfru_pic.txt", lambda path: write_picture(program, path)),
        (f"{prefix}_qfru_log.txt", lambda path: write_log(report, spec, path)),
    ]
    moved: list[tuple[str, str]] = []
    started: list[str] = []
    try:
        for path, _ in writes:
            if os.path.isfile(path):
                aside = f"{path}.{os.getpid()}.old"
                os.replace(path, aside)
                moved.append((path, aside))
        for path, write in writes:
            started.append(path)
            write(path)
    except OSError:
        # every regular file at a started path was moved aside, so any
        # there now is a new, possibly partial, file of this run
        for path in started:
            if os.path.isfile(path):
                os.remove(path)
        for path, aside in moved:
            os.replace(aside, path)
        raise
    for _, aside in moved:
        os.remove(aside)


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:
        print(f"Message: {exc}")
        return 1
    except SystemExit as exc:  # --help, after printing the help
        return exc.code
    if args.max_verify_qubits < 0:
        print(f"Message: --max-verify-qubits must be >= 0, "
              f"got {args.max_verify_qubits}")
        return 1
    if args.max_verify_qubits > MAX_VERIFY_QUBITS:
        gib = 16 * 4 ** args.max_verify_qubits / 2 ** 30
        print(
            f"Message: --max-verify-qubits {args.max_verify_qubits} exceeds "
            f"{MAX_VERIFY_QUBITS}: one dense {args.max_verify_qubits}-qubit "
            f"unitary needs {gib:g} GiB"
        )
        return 1
    spec = FruitSpec(
        file_prefix=args.prefix,
        nb_line=args.line_qubits,
        nb_tree=args.tree_qubits,
        g=args.coupling,
        door=args.door,
        bands_text=args.bands,
        nt_line=args.line_trots,
        r_line=args.line_order,
        nt_tree=args.tree_trots,
        nt_meta=args.meta_trots,
        r_meta=args.meta_order,
    )
    try:
        program, report = compile_fruit(spec)
    except InputError as exc:
        print(f"Message: {exc}")
        return 1

    if args.no_verify:
        report.message = "verification skipped on request"
    elif report.num_qubits > args.max_verify_qubits:
        report.message = (
            f"verification skipped: {report.num_qubits} qubits exceeds the "
            f"{args.max_verify_qubits}-qubit dense-simulation cap"
        )
    else:
        _, blocks = assemble_fruit(spec)
        report.error = verify_compile(blocks.fruit, program)

    try:
        write_outputs(program, report, spec)
    except OSError as exc:
        print(f"Message: {exc}")
        return 1

    print(f"Number of Qubits: {report.num_qubits}")
    print(f"Number of Elementary Operations: {report.num_elementary_ops}")
    print(f"Error: {report.error!r}" if report.error is not None else "Error: skipped")
    print(f"Message: {report.message or 'OK'}")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
