"""Werner/isotropic state toolkit.

Constructs Werner and isotropic bipartite states on C^N (x) C^N, classifies
their nonlocality regions, builds SIC-POVMs (exact registry plus numerical
fiducial search), and decomposes every separable member of both families
into explicit uniform mixtures of product states over regular Bloch-space
simplexes, with brute-force verification of each construction.
"""

from .blochspace import (BlochVector, DensityMatrix, bloch_from_density,
                         density_from_bloch, min_eigenvalue, psd_radius_bounds,
                         su_generators)
from .decompose import (Decomposition, VerificationReport,
                        admissible_r_interval, contour_sample, decompose,
                        reconstruct, separable_decompose, verify_decomposition)
from .sicpovm import (Fiducial, FiducialSearchFailure, Provenance, SicPovm,
                      find_fiducial, frame_potential, frame_potential_minimum,
                      known_fiducial, obtain_sic, sic_from_fiducial,
                      wh_displacements, zauner_unitary)
from .simplex import (RegularSimplex, canonical_simplex, gram_identities,
                      orthogonal_extension, verify_simplex)
from .states import (NonlocalityClass, ParamSet, RegionRow, StateClass,
                     StateKind, classify, classify_isotropic, classify_werner,
                     convert_params, harmonic_number, isotropic_density,
                     max_entangled_projector, partial_transpose, region_table,
                     separable_interval, swap_operator, werner_density)

__version__ = "0.1.0"

__all__ = [
    "BlochVector", "DensityMatrix", "bloch_from_density",
    "density_from_bloch", "min_eigenvalue", "psd_radius_bounds",
    "su_generators",
    "RegularSimplex", "canonical_simplex",
    "verify_simplex", "gram_identities", "orthogonal_extension",
    "Fiducial", "FiducialSearchFailure", "Provenance", "SicPovm",
    "wh_displacements", "zauner_unitary", "sic_from_fiducial", "frame_potential",
    "frame_potential_minimum", "find_fiducial", "known_fiducial", "obtain_sic",
    "StateKind", "StateClass", "NonlocalityClass", "ParamSet", "RegionRow",
    "swap_operator", "max_entangled_projector", "werner_density",
    "isotropic_density", "convert_params", "classify", "classify_werner",
    "classify_isotropic", "partial_transpose", "region_table",
    "separable_interval", "harmonic_number",
    "Decomposition", "VerificationReport", "decompose", "reconstruct",
    "admissible_r_interval", "separable_decompose", "verify_decomposition",
    "contour_sample",
]
