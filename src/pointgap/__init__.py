"""Point-gap topology of interacting non-Hermitian fermion models.

Exact diagonalization over symmetry sectors, determinant-phase winding
numbers, and skin-effect fragility diagnostics for a two-orbital dot and an
extended asymmetric-hopping chain, driven by a twist angle acting as a
periodic synthetic parameter.
"""

from .fock import (
    Constraint,
    ModeLayout,
    SectorBasis,
    apply_annihilate,
    apply_create,
    chain_layout,
    dot_layout,
    enumerate_sector,
)
from .models import (
    ChainParams,
    DotParams,
    chain_model,
    chain_sector_basis,
    deformation_params,
    dot_model,
    dot_sector_basis,
    one_body_model,
)
from .observables import (
    BoundarySensitivity,
    Occupations,
    boundary_sensitivity,
    occupation_profiles,
    product_state_profiles,
)
from .oracles import (
    CircleFlow,
    chain_first_order_eigenvalues,
    diagonal_flow_winding,
    dot_sector21_eigenvalues,
    dot_sector2m1_eigenvalues,
    eigenvalue_match,
)
from .spectral import (
    EigenSolution,
    SpectralError,
    SpectralFlow,
    SpectrumHitError,
    SpinSymmetryError,
    eigendecompose,
    logdet_phase,
    sweep_theta,
)
from .topology import (
    GapClosedError,
    SpinWindingResult,
    WindingResult,
    WindingUnresolvedError,
    many_body_winding,
    spin_winding,
)

__version__ = "0.1.0"
