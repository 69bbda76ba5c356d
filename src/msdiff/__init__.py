"""msdiff: multicomponent diffusion via inter-species force balances.

Flux-force inversion on the zero-sum subspace, spectral well-posedness
certificates, thermodynamic-factor models, and a 1-D finite-volume
reaction-diffusion simulator with entropy and positivity diagnostics.
"""
from . import errors
from .mixture import Composition, DrivingForce, FluxSet, MixtureSpec
from .mskernel import (SpectrumReport, diffusion_operator_spectrum, solve_fluxes_invariant,
                       solve_fluxes_reduced, spectrum)
from .solver import (Checkpoint, Field, Grid1D, NO_REACTIONS, Reaction,
                     ReactionNetwork, SimConfig, Trajectory, face_fluxes,
                     simulate, stable_dt)
from .thermo import IDEAL, ThermoModel, convexity_check, driving_force
from .verify import (CrossDiffusionEvent, EntropyLedger, TernaryReport,
                     detect_uphill, entropy_ledger, filtration_oracle,
                     ternary_closed_forms)

__version__ = "0.1.0"
