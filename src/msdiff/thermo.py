"""Activity-coefficient models, the thermodynamic-factor matrix, chemical
potentials, and the convexity of the Gibbs energy.

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

The per-state functions take a :class:`~msdiff.mixture.Composition` or an
array shaped (..., n) through one checked conversion, :func:`_as_x`: every
x_i finite and >= 0 (``ln_activity_coeffs``), or >= X_FLOOR where ln x or
1/x is taken (``gamma_matrix``, ``chemical_potentials``, ``driving_force``,
``convexity_check``), and every row summing to 1 within SUM_TOL + n X_FLOOR,
so that floored rows pass.  ``gamma_matrix`` and ``ln_activity_coeffs``
alone skip the row sum: they treat x_1..x_n as independent coordinates, so
the rows of a finite difference stay valid.  The functions are batched
over the leading axes, one state being the batch of shape (), and a row
that fails a check raises for the whole call; each resolves the model
once, at entry, by ``ThermoModel.interactions`` (``None`` for ideal
thermo).  The step kernel resolves it once per run and reaches no check:
it calls the unchecked ``floor_composition`` and :func:`_ln_gamma_x`, and
its checkpoints take the Gibbs energy V = h sum c mu from the kernel's mu.
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


def _as_x(x, what: str, lo: float = 0.0, simplex: bool = True) -> np.ndarray:
    """The one mole-fraction conversion: ``x`` (a Composition or an array)
    as an array if every entry is finite and >= ``lo``, else
    ``DegenerateComposition`` naming ``what``; ``lo`` is 0, Composition's
    rule, or X_FLOOR where ln x or 1/x is taken.  With ``simplex`` (all but
    the independent-coordinate callers) every row must also sum to 1 within
    SUM_TOL + n X_FLOOR, so that floored rows pass, else ``ValueError``
    naming the first bad sum; a sum that overflows is inf and fails."""
    x = x.x if isinstance(x, Composition) else np.asarray(x, dtype=float)
    if not np.all((x >= lo) & (x < np.inf)):
        raise DegenerateComposition(f"{what} needs {'an interior' if lo else 'a'} composition "
                                    f"(every x_i finite and >= {lo:g})")
    if simplex:
        rows = np.atleast_1d(x)
        with np.errstate(over="ignore"):
            total = rows.sum(axis=-1)
        bad = np.abs(total - 1.0) > SUM_TOL + rows.shape[-1] * X_FLOOR
        if np.any(bad):
            raise ValueError(f"mole fractions must sum to 1, got {float(total[_first_true(bad)])!r}")
    return x


def floor_composition(x: np.ndarray) -> np.ndarray:
    """Raise entries below X_FLOOR to X_FLOOR.  Unchecked (NaN stays NaN): the
    floor of arrays that :func:`_as_x` or the step kernel has checked."""
    return np.maximum(x, X_FLOOR)


def ln_activity_coeffs(model: ThermoModel, x) -> np.ndarray:
    """ln gamma_i for every species; zeros for the ideal model."""
    x = _as_x(x, "ln_activity_coeffs", simplex=False)
    a = model.interactions(x.shape[-1])
    return np.zeros_like(x) if a is None else _ln_gamma(x, a)


def _ln_gamma(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Margules ln gamma_i for the symmetric ``a``, batched; no domain check."""
    ax = x @ a  # (A x)_i, valid batched since A is symmetric
    return ax - 0.5 * np.sum(x * ax, axis=-1, keepdims=True)


def gamma_matrix(model: ThermoModel, x) -> np.ndarray:
    """Thermodynamic-factor matrix G_ij = delta_ij + x_i d(ln gamma_i)/dx_j.

    Converts mole-fraction gradients to driving forces.  Uses the analytic
    partials of the Margules family, treating x_1..x_n as independent
    coordinates.  Column sums equal 1 (Gibbs-Duhem).
    """
    x = _as_x(x, "gamma_matrix", X_FLOOR, simplex=False)
    n = x.shape[-1]
    a = model.interactions(n)
    if a is None:
        return np.broadcast_to(np.eye(n), x.shape + (n,)).copy()
    # d(ln gamma_i)/dx_j = A_ij - (A x)_j
    return np.eye(n) + x[..., :, None] * (a - (x @ a)[..., None, :])


def _gamma_dot(x: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gamma(x) d = d + x * (A d - <A x, d>) for the symmetric
    interactions ``a``; batched, Gamma not formed."""
    return d + x * (d @ a - np.sum((x @ a) * d, axis=-1, keepdims=True))


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
    d = (gamma_matrix(model, x) @ g[..., None])[..., 0]
    d -= d.mean(axis=-1, keepdims=True)  # exact zero sum; roundoff-level correction
    return DrivingForce(d=d)


def chemical_potentials(model: ThermoModel, x) -> np.ndarray:
    """mu_i in RT units: ln(gamma_i x_i).  Requires interior x."""
    x = _as_x(x, "chemical_potentials", X_FLOOR)
    return _ln_gamma_x(x, model.interactions(x.shape[-1]))


def _ln_gamma_x(x: np.ndarray, a: np.ndarray | None) -> np.ndarray:
    """ln(gamma_i x_i) for the resolved ``a`` (``None``: ideal), batched; no check."""
    mu = np.log(x)
    if a is not None:
        mu += _ln_gamma(x, a)
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
        m = gamma_matrix(model, x) / x[..., :, None]
        sym = 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)  # overflows only where m does
        return _unbatch(_eigvalsh(p.T @ sym @ p)[..., 0])
