"""Mean-field thermodynamics of Potts, cubic and O(N)-nematic spin models.

Free-energy profiles, mean-field-equation branches, first-order transition
location, hypercubic infrared integrals, forbidden-band certificates, and a
complete-graph Monte Carlo sampler for validating the large-deviation rate
function.
"""

from .models import (ModelSpec, potts, cubic, nematic, potts_phi, scalar_phi,
                     phi_full_scale, ising_theta, legendre_entropy)
from .lattice import IdEstimate, compute_id
from .solver import (BranchPoint, BranchSet, TransitionPoint, solve_branches,
                     find_transition, barrier_height)
from .certification import Certificate, allowed_bands, compute_DJ, certify

__version__ = "0.1.0"

__all__ = [
    "ModelSpec", "potts", "cubic", "nematic",
    "potts_phi", "scalar_phi", "phi_full_scale",
    "ising_theta", "legendre_entropy",
    "IdEstimate", "compute_id",
    "BranchPoint", "BranchSet", "TransitionPoint", "solve_branches",
    "find_transition", "barrier_height",
    "Certificate", "allowed_bands", "compute_DJ", "certify",
]
