"""Activity-coefficient models, the thermodynamic-factor matrix, and
Gibbs-energy diagnostics.

All chemical potentials are expressed in RT units with the pure-species
reference potential gauged to zero; only gradients enter the dynamics.
The nonideal family is the multicomponent two-suffix Margules model,

    g_excess = sum_{j<k} A_jk x_j x_k,
    ln gamma_i = sum_j A_ij x_j - g_excess,

which reduces to the classical binary closed form ln gamma_1 = A x_2^2.
Functions accept either a :class:`~msdiff.mixture.Composition` or a plain
mole-fraction array; arrays may be batched along leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DegenerateComposition
from .linalg import simplex_basis
from .mixture import Composition, DrivingForce

#: Compositions with any fraction below this floor are degenerate for
#: quantities involving ln(x) or 1/x; :mod:`msdiff.mskernel` floors at it
#: (then renormalizes) to keep A irreducible at simplex boundaries.
X_FLOOR = 1e-12


@dataclass(frozen=True)
class ThermoModel:
    """Ideal or two-suffix Margules activity model.

    ``amat`` is the symmetric, zero-diagonal interaction matrix; ``None``
    means ideal (identical to Margules with a zero matrix).
    """
    amat: np.ndarray | None = None

    def __post_init__(self):
        if self.amat is not None:
            a = np.array(self.amat, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"interaction matrix must be square, got {a.shape}")
            if not np.array_equal(a, a.T):
                raise ValueError("interaction matrix must be symmetric")
            if np.any(np.diag(a) != 0):
                raise ValueError("interaction matrix must have zero diagonal")
            a.setflags(write=False)
            object.__setattr__(self, "amat", a)

    @classmethod
    def ideal(cls) -> "ThermoModel":
        return cls()

    @classmethod
    def margules(cls, amat) -> "ThermoModel":
        return cls(amat=amat)

    @property
    def is_ideal(self) -> bool:
        return self.amat is None

    def interactions(self, n: int) -> np.ndarray:
        """Interaction matrix, materialized as zeros for the ideal case."""
        if self.amat is None:
            return np.zeros((n, n))
        if self.amat.shape[0] != n:
            raise ValueError(
                f"interaction matrix is {self.amat.shape[0]}x{self.amat.shape[0]}, "
                f"mixture has {n} species")
        return self.amat


IDEAL = ThermoModel.ideal()


def _as_x(x) -> np.ndarray:
    if isinstance(x, Composition):
        return x.x
    return np.asarray(x, dtype=float)


def ln_activity_coeffs(model: ThermoModel, x) -> np.ndarray:
    """ln gamma_i for every species; zeros for the ideal model."""
    x = _as_x(x)
    if model.is_ideal:
        return np.zeros_like(x)
    a = model.interactions(x.shape[-1])
    ax = x @ a  # (A x)_i, valid batched since A is symmetric
    g_ex = 0.5 * np.sum(x * ax, axis=-1, keepdims=True)
    return ax - g_ex


def gamma_matrix(model: ThermoModel, x) -> np.ndarray:
    """Thermodynamic-factor matrix G_ij = delta_ij + x_i d(ln gamma_i)/dx_j.

    Converts mole-fraction gradients to driving forces.  Uses the analytic
    partials of the Margules family, treating x_1..x_n as independent
    coordinates.  Column sums equal 1 (Gibbs-Duhem).
    """
    x = _as_x(x)
    n = x.shape[-1]
    if np.any(x < X_FLOOR):
        raise DegenerateComposition(
            f"gamma_matrix needs an interior composition (floor {X_FLOOR:g})")
    if model.is_ideal:
        return np.broadcast_to(np.eye(n), x.shape + (n,)).copy()
    return _margules_gamma(x, model.interactions(n))


def _margules_gamma(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Two-suffix Gamma for interactions ``a``, batched; no domain check."""
    # d(ln gamma_i)/dx_j = A_ij - (A x)_j
    return np.eye(a.shape[0]) + x[..., :, None] * (a - (x @ a)[..., None, :])


def driving_force(model: ThermoModel, x, grad_x) -> DrivingForce:
    """Driving forces d = Gamma . grad_x for a single composition.

    ``grad_x`` must sum to zero (gradients of fractions summing to 1).
    """
    g = np.asarray(grad_x, dtype=float)
    scale = np.max(np.abs(g)) if g.size else 0.0
    if scale and abs(g.sum()) > 1e-10 * scale:
        raise ValueError(f"grad_x must sum to zero, got {g.sum()!r}")
    d = gamma_matrix(model, x) @ g
    d -= d.mean()  # exact zero sum; correction is at roundoff level
    return DrivingForce(d=d)


def gibbs_density(model: ThermoModel, c) -> float:
    """Gibbs free energy per volume in RT units: G = sum_i c_i ln(gamma_i x_i).

    Zero concentrations contribute 0 (the c ln c limit); negative entries
    raise ``DegenerateComposition``.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c < 0):
        raise DegenerateComposition(f"concentrations must be nonnegative: {c}")
    total = c.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise DegenerateComposition("total concentration must be positive")
    x = c / total
    lng = ln_activity_coeffs(model, x)
    return float(np.sum(c * lng) + np.sum(xlogy(c, x)))


def chemical_potentials(model: ThermoModel, x) -> np.ndarray:
    """mu_i in RT units: ln(gamma_i x_i).  Requires interior x."""
    x = _as_x(x)
    if np.any(x < X_FLOOR):
        raise DegenerateComposition("chemical potential diverges at the boundary")
    return ln_activity_coeffs(model, x) + np.log(x)


def convexity_check(model: ThermoModel, x) -> float:
    """Smallest eigenvalue of the symmetrized X^{-1} Gamma form on the
    zero-sum subspace.

    A positive return certifies strong convexity of the Gibbs energy at
    this composition; a negative value signals the phase-splitting regime.
    """
    x = _as_x(x)
    if np.any(x < X_FLOOR):
        raise DegenerateComposition("convexity check needs an interior composition")
    n = x.shape[-1]
    m = gamma_matrix(model, x) / x[..., :, None]
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    p = simplex_basis(n)
    reduced = p.T @ sym @ p
    return float(np.linalg.eigvalsh(reduced)[..., 0].min()) if reduced.ndim > 2 \
        else float(np.linalg.eigvalsh(reduced)[0])
