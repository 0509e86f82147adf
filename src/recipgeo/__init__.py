"""Numerical differential geometry of the reciprocal cost function."""

from .core import (
    Chart,
    ChartPoint,
    ScalarSummary,
    WeightVector,
    composition_residual,
    cost,
    cost_log,
    cost_ratio,
    harmonic_feature_map,
    log_curvature,
    log_to_qr,
    permutation_symmetry_check,
    qr_to_log,
    reciprocal_cost_1d,
    sample_log_points,
    transform,
)
from .hessian import (
    HessianDecomposition,
    SymMatrix,
    decompose,
    det_hessian_ratio,
    fd_hessian,
    hessian_log,
    hessian_ratio,
    pullback,
    radical_basis,
    rank,
    singular_S,
    singular_locus_value,
)
from .connection import (
    AffineStructure,
    ChristoffelTensor,
    affine_connection,
    christoffel_from_metric,
    curvature_from_christoffel,
    delta,
    lc_christoffel_st,
    lc_christoffel_xy,
    projective_obstruction,
    ricci_q,
    ricci_xy,
    z_xy,
)
from .geodesics import (
    GeodesicState,
    TangentConstraint,
    Trajectory,
    affine_geodesic_log,
    affine_geodesic_ratio,
    affine_trajectory,
    integrate_geodesic,
    lc_rhs_qr,
    lc_rhs_xy,
    qr_residual,
    tangent_constraints,
)
from .flows import (
    FlowSign,
    blowup_time,
    closed_form_S,
    cost_rate,
    flow_constant,
    gradient_field,
    integrate_flow,
)
from .infogeo import (
    OrderFit,
    bregman,
    bregman_order_check,
    fisher_info,
    itakura_saito,
    mean_function,
    mean_slope,
    symmetrized_is,
)
from .ode import StepResult, TerminationReason

__version__ = "0.1.0"
