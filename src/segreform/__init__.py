"""Pointwise curvature toolkit for hermitian holomorphic bundles.

Represents the normalised curvature of a bundle at a point, computes Chern
and Segre forms, averages directional curvature over the projective fiber
(exactly, via unitary-invariant sphere moments, and by Monte Carlo), checks
the fiber-integration identities for the tautological bundle, and verifies
the Kobayashi-Luebke-type inequalities together with their equality cases.
"""

__version__ = "0.1.0"

from .curvature import (CurvatureTensor, Kaehler11, PreconditionError,
                        TensorValidationError, chern_forms, direction_matrices,
                        is_hermite_einstein, is_projectively_flat, load_tensor,
                        mean_curvature, project_to_he,
                        projectively_flat_tensor, random_curvature, segre_forms,
                        strong_flat_tensor, tensor_from_dict, tensor_to_dict)
from .exterior import Form, one_one_power, top_pairing, wedge
from .inequalities import (kl_classical, kl_segre, projective_flat_bound,
                           surface_compare)
from .kahler import relative_eigenvalues
from .moments import (DIRECTION_CHUNK, MomentSpec, direction_chunks, moment_diagonal,
                      moment_mc, moment_wick, phi_k_tensor, sample_directions)
from .projective import gamma_profile, identity_residuals, pushforward_segre
from .symfun import elem_sym, newton_convert

__all__ = [
    "CurvatureTensor", "Kaehler11", "PreconditionError",
    "TensorValidationError", "chern_forms", "direction_matrices",
    "is_hermite_einstein", "is_projectively_flat", "load_tensor",
    "mean_curvature", "project_to_he", "projectively_flat_tensor",
    "random_curvature", "segre_forms", "strong_flat_tensor",
    "tensor_from_dict", "tensor_to_dict",
    "Form", "one_one_power", "top_pairing", "wedge",
    "kl_classical", "kl_segre", "projective_flat_bound", "surface_compare",
    "relative_eigenvalues",
    "DIRECTION_CHUNK", "MomentSpec", "direction_chunks", "moment_diagonal",
    "moment_mc", "moment_wick", "phi_k_tensor", "sample_directions",
    "gamma_profile", "identity_residuals", "pushforward_segre",
    "elem_sym", "newton_convert",
    "__version__",
]
