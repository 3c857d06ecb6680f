"""Pointwise verification engine for real hypersurfaces in the complex quadric.

The package builds the linear model of the quadric tangent space (metric,
complex structure, conjugation circle), induces hypersurface data from a
unit normal and shape operator, evaluates every pointwise curvature identity
of the geometry, constructs the model hypersurfaces (the isotropic tube
family and principal-normal candidates), and certifies the two structural
results at desk scale: nonexistence for principal normals, and the tube
classification for isotropic ones.
"""

from .classification import (
    ClassificationResult,
    classify,
    principal_chain_residuals,
    principal_nonexistence_certificate,
    recover_radius,
)
from .errors import (
    AsymmetryError,
    ExcludedParameterError,
    HopfRequiredError,
    InvalidDimensionError,
    ModelValidationError,
    NonFiniteError,
    NonTangentError,
    NormalizationError,
    QuadricError,
)
from .hypersurface import (
    HypersurfaceData,
    alpha_gradient_residual,
    from_dict,
    hopf_identity_residual,
    induce_from_normal,
    induced_curvature,
    normal_component_residual,
    reeb_covariant_derivative,
    reeb_derivative_reduced,
    reeb_parallel_residual,
    reeb_shape_derivative,
    reeb_shape_residual,
    restrict_to_frame,
    ricci,
    ricci_contraction,
    shape_commutator_scale,
    structure_jacobi,
    to_dict,
)
from .models import (
    TubeModel,
    build_principal_candidate,
    build_tube,
    default_radius_grid,
    paired_curvature,
    perturbed_tube,
    random_hopf_data,
    reeb_parallel_principal_candidate,
    tube_jacobi_template,
    tube_shape_template,
)
from .report import Check, CheckReport, VERSION, render_json, report_to_json
from .spectra import SpectrumReport, match_spectrum, sym_eigen, sym_eigvals
from .tangent import (
    CanonicalAngle,
    TangentModel,
    ambient_curvature,
    ambient_jacobi,
    build_tangent_model,
    canonical_angle,
    isotropic_vector,
    principal_vector,
    rotate_conjugation,
)

__version__ = VERSION

__all__ = [
    "AsymmetryError",
    "CanonicalAngle",
    "Check",
    "CheckReport",
    "ClassificationResult",
    "ExcludedParameterError",
    "HopfRequiredError",
    "HypersurfaceData",
    "InvalidDimensionError",
    "ModelValidationError",
    "NonFiniteError",
    "NonTangentError",
    "NormalizationError",
    "QuadricError",
    "SpectrumReport",
    "TangentModel",
    "TubeModel",
    "VERSION",
    "alpha_gradient_residual",
    "ambient_curvature",
    "ambient_jacobi",
    "build_principal_candidate",
    "build_tangent_model",
    "build_tube",
    "canonical_angle",
    "classify",
    "default_radius_grid",
    "from_dict",
    "hopf_identity_residual",
    "induce_from_normal",
    "induced_curvature",
    "isotropic_vector",
    "match_spectrum",
    "normal_component_residual",
    "paired_curvature",
    "perturbed_tube",
    "principal_chain_residuals",
    "principal_nonexistence_certificate",
    "principal_vector",
    "random_hopf_data",
    "recover_radius",
    "reeb_covariant_derivative",
    "reeb_derivative_reduced",
    "reeb_parallel_principal_candidate",
    "reeb_parallel_residual",
    "reeb_shape_derivative",
    "reeb_shape_residual",
    "render_json",
    "report_to_json",
    "restrict_to_frame",
    "ricci",
    "ricci_contraction",
    "rotate_conjugation",
    "shape_commutator_scale",
    "structure_jacobi",
    "sym_eigen",
    "sym_eigvals",
    "to_dict",
    "tube_jacobi_template",
    "tube_shape_template",
]
