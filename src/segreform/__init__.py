"""Pointwise curvature toolkit for hermitian holomorphic bundles.

Represents the normalised curvature of a bundle at a point, computes Chern
and Segre forms, averages directional curvature over the projective fiber
(exactly, via unitary-invariant sphere moments, and by Monte Carlo), checks
the fiber-integration identities for the tautological bundle, and verifies
the Kobayashi-Luebke-type inequalities together with their equality cases.

The namespace is lazy (PEP 562): `import segreform` loads no numpy, and a
submodule loads on the first access to one of its public names.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # home module -> its public names
    "curvature": ("CurvatureTensor", "Kaehler11", "PreconditionError",
                  "TensorValidationError", "chern_forms", "direction_matrices",
                  "is_hermite_einstein", "is_projectively_flat", "load_tensor",
                  "mean_curvature", "project_to_he", "projectively_flat_tensor",
                  "random_curvature", "segre_forms", "strong_flat_tensor",
                  "tensor_from_dict", "tensor_to_dict"),
    "exterior": ("Form", "one_one_power", "wedge"),
    "inequalities": ("kl_classical", "kl_segre", "projective_flat_bound", "surface_compare"),
    "kahler": ("relative_eigenvalues",),
    "moments": ("DIRECTION_CHUNK", "direction_chunks", "moment_mc", "moment_wick",
                "phi_k_tensor"),
    "projective": ("gamma_profile", "identity_max", "identity_residuals",
                   "pushforward_exact", "pushforward_mc"),
    "symfun": ("elem_sym",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
