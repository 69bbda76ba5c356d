"""msdiff: multicomponent diffusion via inter-species force balances.

Flux-force inversion on the zero-sum subspace, spectral well-posedness
certificates, thermodynamic-factor models, and a 1-D finite-volume
reaction-diffusion simulator with entropy and positivity diagnostics.
"""
from . import errors
from .mixture import (Composition, DrivingForce, FluxSet, MixtureSpec,
                      SpecIssue, mole_fractions, validate_spec)
from .mskernel import (SpectrumReport, assemble_A, assemble_A_sym, assemble_B,
                       diffusion_operator_spectrum, fick_limit_D,
                       solve_fluxes_invariant, solve_fluxes_reduced,
                       spectral_gap_delta, spectrum)
from .solver import (Checkpoint, Field, Grid1D, NO_REACTIONS, Reaction,
                     ReactionNetwork, SimConfig, Trajectory, face_fluxes,
                     simulate, stable_dt, step)
from .thermo import (IDEAL, ThermoModel, chemical_potentials, convexity_check,
                     driving_force, gamma_matrix, gibbs_density,
                     ln_activity_coeffs)
from .verify import (CrossDiffusionEvent, EntropyLedger, TernaryReport,
                     detect_uphill, entropy_ledger, filtration_oracle,
                     ternary_closed_forms)

__version__ = "0.1.0"
