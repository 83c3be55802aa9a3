"""Exact-arithmetic checks on weight spectral sequences of semistable degenerations."""

from .errors import (
    ConventionViolation,
    DimensionMismatch,
    EngineError,
    InstanceInconsistency,
    InternalConsistencyError,
    InvalidComplex,
    InvalidForm,
    InvalidOperator,
    InvalidProfile,
    MutationNotApplicable,
    ParameterError,
    PreconditionError,
    SchemaError,
    ValidationGateError,
)
from .ratlin import (
    RatMatrix,
    Subspace,
    contains,
    image,
    intersect,
    kernel,
    signature,
    subspace_sum,
)
from .filtration import (
    Filtration,
    NilpotentOp,
    compare_shifted,
    monodromy_filtration,
    verify_monodromy_axioms,
)
from .strata import (
    SemistableDatum,
    StratumLevel,
    TransferMaps,
    load,
    save,
    to_weight_complex,
    validate,
)
from .specseq import (
    E1Summand,
    E2Page,
    WeightComplex,
    WmcVerdict,
    build_e1,
    build_e2,
    check_wmc,
    compare_monodromy_vs_weight,
    filtration_agreement,
    tensor_product,
    unit_page,
    weight_filtration_graded,
)
from .lefschetz import (
    DualTriple,
    ImDecomposition,
    PrimitiveDecomposition,
    check_e2_middle,
    check_hodge_index,
    check_image_dims,
    check_kernel_image_identity,
    check_lefschetz_isos,
    check_restricted_pairings,
    check_splitting_iso,
    dual_cohomology_iso,
    im_decompose,
    primitive_decompose,
    run_threefold_suite,
)
from .cli import analyze
from .instances import (
    blowup_point_datum,
    build_toy,
    gen_chain,
    gen_ngon,
    gen_smooth,
    load_toy,
    mutate,
    times_projective_plane,
    toy_names,
)

__version__ = "0.1.0"
