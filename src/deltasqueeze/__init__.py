"""Concentrated interactions on planar curve networks and their squeezed
regularizations: geometry, P1 assembly, sparse spectral solves, and the
experiment lab."""

from .geometry import (
    CircularArc,
    CuspBranch,
    CurveSegment,
    LineSegment,
    Network,
    SplineSegment,
    compute_beta,
)
from .potentials import (
    StrengthFunction,
    TubeProfile,
    constant_profile,
    effective_alpha,
    potential_from_alpha,
    scale_profile,
    separable_profile,
    tabulated_profile,
)
from .fem import (
    AssembledForm,
    Mesh,
    assemble_delta_term,
    assemble_magnetic_stiffness,
    assemble_mass,
    assemble_volume_potential,
    build_form,
    build_mesh,
    homogeneous_gauge,
    restrict,
)
from .spectral import (
    SpectralResult,
    fit_rate,
    lowest_eigs,
    resolvent_diff_norm,
)
from .oracles import (
    WedgeParams,
    cusp_operator_eigs,
    delta_point_eigenvalue,
    ring_delta_eigenvalues,
    squeezed_1d_eigenvalue,
    wedge_F,
    wedge_F_infimum,
)
from .lab import (
    run_convergence,
    run_cusp,
    run_spectrum,
    run_stargraph,
    run_wedge,
)

__version__ = "0.1.0"
