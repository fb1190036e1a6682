"""Special-purpose quantum compiler for the NAND-formula evolution operator.

Builds the line/tree/glue/oracle Hamiltonian, compiles exp(iH) into a
sequence of elementary gates via product formulas and Trotter's trick, and
verifies the result by dense simulation.
"""

from .compilers import (
    compile_fruit,
    compile_glue,
    compile_line,
    compile_oracle,
    compile_shift,
    compile_tree,
    conjugate_by_shift,
    pad_controls,
    suzuki,
    trotterize,
    two_state_rotation,
)
from .hamiltonian import (
    FruitHamiltonians,
    FruitLayout,
    FruitSpec,
    InputError,
    NandInputs,
    SparseSymmetric,
    assemble_fruit,
    build_line_hamiltonian,
    build_tree_hamiltonian,
    gray_code,
    num_qubits_required,
    parse_bands,
)
from .seo import (
    CompileReport,
    Gate,
    Loop,
    SeoProgram,
    SeoSyntaxError,
    count_elementary_ops,
    count_english_lines,
    expand,
    parse_english,
    write_english,
    write_log,
    write_picture,
)
from .verify import (
    expi_hermitian,
    frobenius_distance,
    program_unitary,
    spectral_norm,
    verify_compile,
)

__all__ = [
    "CompileReport", "FruitHamiltonians", "FruitLayout", "FruitSpec", "Gate",
    "InputError", "Loop", "NandInputs", "SeoProgram", "SeoSyntaxError",
    "SparseSymmetric", "assemble_fruit",
    "build_line_hamiltonian", "build_tree_hamiltonian", "compile_fruit",
    "compile_glue", "compile_line", "compile_oracle", "compile_shift",
    "compile_tree", "conjugate_by_shift", "count_elementary_ops",
    "count_english_lines", "expand", "expi_hermitian", "frobenius_distance",
    "gray_code",
    "num_qubits_required", "pad_controls", "parse_bands", "parse_english",
    "program_unitary", "spectral_norm", "suzuki", "trotterize",
    "two_state_rotation", "verify_compile", "write_english", "write_log",
    "write_picture",
]

__version__ = "0.1.0"
