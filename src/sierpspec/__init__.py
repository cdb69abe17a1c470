"""Spectra of Sierpinski-type self-affine measures: construction, exact
orthogonality certification, completeness evidence, and Beurling/entropy/
Hausdorff dimension analysis.

The package imports no submodule (and so no numpy) until one of its names is
first read: ``sierpspec.q_sum`` imports ``sierpspec.verify`` then, and keeps
the value in the package namespace.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule it is read from
_SUBMODULE = {
    name: module
    for module, names in (
        ("lattice", (
            "LatticeError", "MatrixParams", "SymVec", "Vec", "a_adic_expansion",
            "enumerate_digit_sets", "mod_a_reduce", "reconstruct", "signed_expansion",
            "signed_value", "verify_residue_decomposition",
        )),
        ("fourier", (
            "ZeroSetWitness", "in_zero_set", "in_zero_set_sym", "mask", "mu_hat",
            "zero_set_1d",
        )),
        ("treemap", (
            "CanonicalMapping", "KickedMapping", "KickError", "SpectrumPoint",
            "SpectrumPrefix", "SquareOffsets", "TableOffsets", "enumerate_spectrum",
            "index_to_word", "lambda_of_index", "level_index_bound", "tau_eval",
            "validate_tree_mapping", "word_to_index",
        )),
        ("verify", (
            "OrthogonalityReport", "SamplingBox", "check_distinct_lines",
            "check_orthogonality", "check_projection_orthogonality", "gram_unitarity",
            "maximality_probe", "q_sum",
        )),
        ("dimension", (
            "Beatty", "DimensionEstimate", "Explicit", "Periodic", "beurling_dim_estimate",
            "count_in_ball", "entropy_dim_closed_form", "entropy_dim_monte_carlo",
            "formula_dim_1d", "formula_dim_2d", "geometric_scales", "lacunary_check",
            "support_hausdorff_dim",
        )),
        ("construct", (
            "IntermediateSpec", "build_intermediate_spectrum", "family_variants",
            "gamma_t_from_density", "pattern_lattice_points", "t_max",
        )),
    )
    for name in names
}

__all__ = list(_SUBMODULE)
# ``sierpspec.treemap`` and the rest import their submodule on first use too
_SUBMODULES = frozenset(_SUBMODULE.values())


def __getattr__(name):
    if name in _SUBMODULES:  # the import binds it in the package namespace
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
