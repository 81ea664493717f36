"""Exact verification, construction, and parameter scanning for block
designs and for weighted two-shell subsets of the binary Hamming cube
that are balanced against low-degree functions.

The names below load lazily: `import tightrel` imports no submodule, and
the first use of a name imports the one module that defines it.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "_base": "DesignParams FormatError tight_size",
    "analysis": """KageyamaReport ShellReport check_via_thm34 complement_lambda_t
        complementary_pair is_tight kageyama_constituents p_ell_formula p_ell_t_formula
        prop44_check""",
    "designs": """Design bits_of complement construct_paley_hadamard
        construct_witt_23 coverage_map derived design_text extend_pair
        is_regular_twise_balanced is_t_design lambda_count load_design mask_of residual
        save_design""",
    "feasibility": """FeasibleRow annotate_existence row_ruled_out rows_to_tsv scan_relative3
        scan_relative4 scan_tsv""",
    "hamming": """RelativeCandidate krawtchouk load_candidate relative_design_oracle
        save_candidate shell_moment""",
    "profiles": """LambdaSequence MultiplicityGraph conjecture2_scan lambda_sequence
        multiplicity_graph sequences_equal""",
    "screens": """NonexistenceVerdict admissibility_test brc_test driessen_test
        legendre_solvable symmetric_square_test""",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: tightrel.designs works after a bare import
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
