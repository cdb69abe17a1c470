"""Spectra of Sierpinski-type self-affine measures: construction, exact
orthogonality certification, completeness evidence, and Beurling/entropy/
Hausdorff dimension analysis."""

from .lattice import (
    LatticeError,
    MatrixParams,
    SymVec,
    Vec,
    a_adic_expansion,
    enumerate_digit_sets,
    mod_a_reduce,
    reconstruct,
    signed_expansion,
    signed_value,
    verify_residue_decomposition,
)
from .fourier import (
    ZeroSetWitness,
    in_zero_set,
    in_zero_set_sym,
    mask,
    mu_hat,
    zero_set_1d,
)
from .treemap import (
    CanonicalMapping,
    KickedMapping,
    KickError,
    SpectrumPoint,
    SpectrumPrefix,
    SquareOffsets,
    TableOffsets,
    enumerate_spectrum,
    index_to_word,
    lambda_of_index,
    level_index_bound,
    tau_eval,
    validate_tree_mapping,
    word_to_index,
)
from .verify import (
    OrthogonalityReport,
    SamplingBox,
    check_distinct_lines,
    check_orthogonality,
    check_projection_orthogonality,
    gram_unitarity,
    maximality_probe,
    q_sum,
)
from .dimension import (
    Beatty,
    DimensionEstimate,
    Explicit,
    Periodic,
    beurling_dim_estimate,
    count_in_ball,
    entropy_dim_closed_form,
    entropy_dim_monte_carlo,
    formula_dim_1d,
    formula_dim_2d,
    geometric_scales,
    lacunary_check,
    support_hausdorff_dim,
)
from .construct import (
    IntermediateSpec,
    build_intermediate_spectrum,
    family_variants,
    gamma_t_from_density,
    pattern_lattice_points,
    t_max,
)

__version__ = "0.1.0"
