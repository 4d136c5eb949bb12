"""Numerical geometry of noncommutative ruled/rational surfaces: the marked
NS lattice, effective/nef/ample tests, section dimensions, blowdown search,
and an operator-identity checker."""

from .lattice import (
    BudgetExhausted,
    DivClass,
    InvariantViolation,
    K0Class,
    LatticeSignature,
    SignatureMismatch,
    anticanonical_class,
    basis_e,
    basis_f,
    basis_s,
    canonical_class,
    chi_line_bundle,
    chi_structure,
    div,
    intersect,
    k0_adjoint,
    k0_order_transfer,
    k0_serre_twist,
    line_bundle_class,
    mukai_pairing,
    point_class,
    render_div,
    zero_class,
)
from .marking import (
    MarkingGroup,
    QComponent,
    SurfaceData,
    blow_up,
    is_root_effective,
    isomonodromy_count,
    moduli_stack_dim,
    ord_q,
    validate,
)
from .weyl import (
    BlowdownError,
    ReductionTrace,
    elementary_transformation,
    find_blowdown,
    in_neg1_orbit,
    is_neg1_effective,
    is_neg1_irreducible,
    reduce_to_chamber,
    reflect,
    simple_roots,
)
from .cones import (
    effective_cert,
    effective_generators,
    is_ample,
    is_effective,
    is_nef,
    is_strongly_ample,
    minimal_section,
    nef_witness,
)
from .sections import (
    HomDims,
    UnclassifiedState,
    acyclic_globgen,
    dim_gamma,
    hilb_dim,
    hom_dims,
    leaf_dim_disjoint,
    rank1_bound,
)
from .presets import PRESETS, get_preset
from .opcases import CASES, Report, run_case

__version__ = "0.1.0"
