"""Activity-coefficient models, the thermodynamic-factor matrix, and the
convexity of the Gibbs energy; the step kernel's chemical potentials.

All chemical potentials are expressed in RT units with the pure-species
reference potential gauged to zero; only gradients enter the dynamics.
The nonideal family is the multicomponent two-suffix Margules model,

    g_excess = sum_{j<k} A_jk x_j x_k,
    ln gamma_i = sum_j A_ij x_j - g_excess,

which reduces to the classical binary closed form ln gamma_1 = A x_2^2.
Its Gamma = I + diag(x) A - x (A x)^T is affine in x, so the simulator
applies it without forming it (:func:`_gamma_dot`); the diffusion
operator's spectrum uses A itself, in the X^{1/2} pencil of
:func:`msdiff.mskernel._operator_eigenvalues`.  ``convexity_check`` solves
its form with ``mixture._eigvalsh``, which rejects the inf or NaN that a
huge finite A can leave in it.

The per-state functions here and in ``mskernel`` and ``verify`` take a
:class:`~msdiff.mixture.Composition` or an array through one checked
conversion, :func:`_as_x`: Composition's shape, (..., n) with n >= 2 (else
``ValueError``); every x_i finite and >= 0, or >= X_FLOOR where ln x or
1/x is taken (``driving_force``, ``convexity_check``); and every row
summing to 1 within SUM_TOL + n X_FLOOR, so that floored rows pass, with
no exception.  Each function checks x once and builds Gamma by the
unchecked :func:`_gamma`, which has no public entry: ``driving_force``
applies it.  The functions are batched over the leading axes, one state
being the batch of shape (), and a row that fails a check raises for the
whole call.  The thermo functions resolve the model once, at entry, by
``ThermoModel.interactions`` (``None`` for ideal thermo).  The step kernel
resolves it once per run and reaches no check: it calls the unchecked
``floor_composition``, :func:`_ln_gamma_x` for mu and :func:`_gamma_dot`,
and its checkpoints take the Gibbs energy V = h sum c mu from the
kernel's mu.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateComposition
from .mixture import (SUM_TOL, Composition, DrivingForce, _check_zero_sum, _eigvalsh,
                      _first_true, _frozen_array, _pair_matrix, _unbatch, simplex_basis)

#: Compositions with any fraction below this floor (or a NaN or inf) are
#: degenerate for quantities involving ln(x) or 1/x.  floor_composition
#: raises entries to it, without renormalizing, to keep A irreducible at
#: simplex boundaries; its finite output passes the domain check.
X_FLOOR = 1e-12


@dataclass(frozen=True)
class ThermoModel:
    """Ideal or two-suffix Margules activity model.

    ``amat`` is the interaction matrix: square, symmetric, finite and
    zero on the diagonal, else ``ValueError``.  ``None`` means ideal
    (identical to Margules with a zero matrix).
    """
    amat: np.ndarray | None = None

    def __post_init__(self):
        if self.amat is not None:
            a = _pair_matrix(_frozen_array(self.amat), "amat")
            if not np.all(np.isfinite(a)):
                raise ValueError("amat entries must be finite")
            if np.any(np.diag(a) != 0):
                raise ValueError("amat must have zero diagonal")
            object.__setattr__(self, "amat", a)

    @classmethod
    def margules(cls, amat) -> "ThermoModel":
        return cls(amat=amat)

    def interactions(self, n: int) -> np.ndarray | None:
        """The Margules matrix, checked against ``n`` species; ``None`` if ideal."""
        if self.amat is not None and self.amat.shape[0] != n:
            raise ValueError(
                f"interaction matrix is {self.amat.shape[0]}x{self.amat.shape[0]}, "
                f"mixture has {n} species")
        return self.amat


IDEAL = ThermoModel()


def _as_x(x, what: str, lo: float = 0.0) -> np.ndarray:
    """The one mole-fraction conversion: ``x`` (a Composition or an array)
    as an array if it has Composition's shape, (..., n) with n >= 2, else
    ``ValueError`` naming ``what``, and if every entry is finite and >=
    ``lo``, else ``DegenerateComposition`` naming ``what``; ``lo`` is 0,
    Composition's rule, or X_FLOOR where ln x or 1/x is taken.  Every row
    must also sum to 1 within SUM_TOL + n X_FLOOR, so that floored rows
    pass, else ``ValueError`` naming the first bad sum; a sum that
    overflows is inf and fails."""
    x = x.x if isinstance(x, Composition) else np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise ValueError(f"{what} needs x shaped (..., n) with n >= 2 species, "
                         f"got shape {x.shape}")
    if not np.all((x >= lo) & (x < np.inf)):
        raise DegenerateComposition(f"{what} needs {'an interior' if lo else 'a'} composition "
                                    f"(every x_i finite and >= {lo:g})")
    with np.errstate(over="ignore"):
        total = x.sum(axis=-1)
    bad = np.abs(total - 1.0) > SUM_TOL + x.shape[-1] * X_FLOOR
    if np.any(bad):
        raise ValueError(f"mole fractions must sum to 1, got {float(total[_first_true(bad)])!r}")
    return x


def floor_composition(x: np.ndarray) -> np.ndarray:
    """Raise entries below X_FLOOR to X_FLOOR.  Unchecked (NaN stays NaN): the
    floor of arrays that :func:`_as_x` or the step kernel has checked."""
    return np.maximum(x, X_FLOOR)


def _gamma(x: np.ndarray, a: np.ndarray | None) -> np.ndarray:
    """Thermodynamic-factor matrix G_ij = delta_ij + x_i d(ln gamma_i)/dx_j
    for the resolved interactions ``a`` (``None``: ideal), batched; no check.

    Converts mole-fraction gradients to driving forces.  Uses the analytic
    partials of the Margules family, treating x_1..x_n as independent
    coordinates.  Column sums equal 1 (Gibbs-Duhem)."""
    n = x.shape[-1]
    if a is None:
        return np.broadcast_to(np.eye(n), x.shape + (n,)).copy()
    # d(ln gamma_i)/dx_j = A_ij - (A x)_j
    return np.eye(n) + x[..., :, None] * (a - (x @ a)[..., None, :])


def _gamma_dot(x: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gamma(x) d = d + x * (A d - <A x, d>) for the symmetric
    interactions ``a``; batched, Gamma not formed.  Here and in
    :func:`_ln_gamma_x` a row sum is a product with an all-ones column,
    cheaper than ``np.sum`` on short rows."""
    return d + x * (d @ a - ((x @ a) * d) @ np.ones((x.shape[-1], 1)))


def driving_force(model: ThermoModel, x, grad_x) -> DrivingForce:
    """Driving forces d = Gamma . grad_x, per row of ``x`` and ``grad_x``
    (both shaped (..., n); their batch shapes broadcast).

    Every row of ``grad_x`` must be finite and sum to zero (gradients of
    fractions summing to 1); the first row that does not raises
    ``ValueError``.
    """
    g = np.asarray(grad_x, dtype=float)
    _check_zero_sum(g, "grad_x", rtol=1e-10)
    x = _as_x(x, "driving_force", X_FLOOR)
    d = (_gamma(x, model.interactions(x.shape[-1])) @ g[..., None])[..., 0]
    d -= d.mean(axis=-1, keepdims=True)  # exact zero sum; roundoff-level correction
    return DrivingForce(d=d)


def _ln_gamma_x(x: np.ndarray, a: np.ndarray | None) -> np.ndarray:
    """mu_i = ln(gamma_i x_i) in RT units for the resolved symmetric ``a``
    (``None``: ideal), batched; no check."""
    mu = np.log(x)
    if a is not None:
        ax = x @ a  # (A x)_i, valid batched since A is symmetric
        mu += ax - 0.5 * ((x * ax) @ np.ones((x.shape[-1], 1)))
    return mu


def convexity_check(model: ThermoModel, x) -> float | np.ndarray:
    """Smallest eigenvalue of the symmetrized X^{-1} Gamma form on the
    zero-sum subspace, per row: a float for one composition, an array of
    the batch shape for a stack.

    A positive value certifies strong convexity of the Gibbs energy at
    that composition; a negative value signals the phase-splitting regime.
    """
    x = _as_x(x, "convexity_check", X_FLOOR)
    p = simplex_basis(x.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # a huge amat: _eigvalsh rejects inf or NaN
        m = _gamma(x, model.interactions(x.shape[-1])) / x[..., :, None]
        sym = 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)  # overflows only where m does
        return _unbatch(_eigvalsh(p.T @ sym @ p)[..., 0])
