"""Werner/isotropic state toolkit.

Constructs Werner and isotropic bipartite states on C^N (x) C^N, classifies
their nonlocality regions, builds SIC-POVMs (exact registry plus numerical
fiducial search), and decomposes every separable member of both families
into explicit uniform mixtures of product states over regular Bloch-space
simplexes, with brute-force verification of each construction.

Each exported name is imported from its module on first access (PEP 562),
so that importing the package, or its scalar math in ``params``, loads no
numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The module that defines each exported name.
_EXPORTS = {
    "blochspace": ("BlochVector", "DensityMatrix", "bloch_from_density",
                   "density_from_bloch", "min_eigenvalue", "su_generators"),
    "simplex": ("RegularSimplex", "canonical_simplex", "verify_simplex",
                "gram_identities", "orthogonal_extension"),
    "sicpovm": ("Fiducial", "FiducialSearchFailure", "Provenance", "SicPovm",
                "wh_displacements", "zauner_unitary", "sic_from_fiducial",
                "frame_potential", "frame_potential_minimum", "find_fiducial",
                "known_fiducial", "obtain_sic"),
    "params": ("psd_radius_bounds", "StateKind", "StateClass",
               "NonlocalityClass", "ParamSet", "RegionRow", "convert_params",
               "classify", "classify_werner", "classify_isotropic",
               "region_table", "separable_interval", "harmonic_number",
               "admissible_r_interval"),
    "states": ("swap_operator", "max_entangled_projector", "werner_density",
               "isotropic_density", "partial_transpose"),
    "decompose": ("Decomposition", "VerificationReport", "decompose",
                  "reconstruct", "separable_decompose", "verify_decomposition",
                  "contour_sample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package, on which ``decompose`` stays the function.

    Importing a submodule binds it on its package; for the module
    ``decompose``, that would shadow the function of the same name.
    """

    def __setattr__(self, name, value):
        if not (name == "decompose" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
