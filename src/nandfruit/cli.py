"""Command-line front end: validate inputs, compile, verify, write the
Log / English / Picture file triple, and print the four run outputs.
"""

from __future__ import annotations

import argparse
import sys

from .compilers import compile_fruit
from .hamiltonian import FruitSpec, InputError, assemble_fruit
from .seo import write_english, write_log, write_picture
from .verify import DEFAULT_MAX_VERIFY_QUBITS, MAX_VERIFY_QUBITS, verify_compile


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        write_english(program, f"{spec.file_prefix}_qfru_eng.txt")
        write_picture(program, f"{spec.file_prefix}_qfru_pic.txt")
        write_log(report, spec, f"{spec.file_prefix}_qfru_log.txt")
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
