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
        complementary_pair is_regular_twise_balanced is_tight kageyama_constituents
        p_ell_formula p_ell_t_formula prop44_check""",
    "_design": "Design bits_of design_text load_design mask_of save_design",
    "constructions": """complement construct_paley_hadamard construct_witt_23 derived
        extend_pair residual""",
    "designs": "coverage_map is_t_design",
    "feasibility": """FeasibleRow annotate_existence rows_to_tsv scan_relative3 scan_relative4
        scan_tsv""",
    "hamming": "RelativeCandidate load_candidate relative_design_oracle save_candidate",
    "profiles": "LambdaSequence conjecture2_scan lambda_sequence",
    "screens": """NonexistenceVerdict admissibility_test brc_test driessen_test
        legendre_solvable nonexistence_test symmetric_square_test""",
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
