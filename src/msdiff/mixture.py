"""Core domain types: mixture definitions, compositions, forces, fluxes;
and the library's one symmetric eigensolve, :func:`_eigvalsh`."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EigSolverFailure

#: Tolerance on |sum(x) - 1| for a valid composition.
SUM_TOL = 1e-12

#: Concentrations below -CLAMP_REL * total are treated as genuine model
#: violations; anything in (-CLAMP_REL * total, 0) is numerical noise and
#: gets clamped to zero (every simulator step).
CLAMP_REL = 1e-10


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _pair_matrix(a, what: str) -> np.ndarray:
    """``a`` as a float array, if it is square (n >= 2) and symmetric; else
    ``ValueError`` naming ``what`` and the first asymmetric pair.  NaN
    equals NaN here, so a symmetric NaN is left to the caller's rules."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or len(a) < 2:
        raise ValueError(f"{what} must be square, at least 2x2, got shape {a.shape}")
    if not np.array_equal(a, a.T, equal_nan=True):
        i, j = np.argwhere((a != a.T) & ~(np.isnan(a) & np.isnan(a.T)))[0]
        raise ValueError(f"{what} must be symmetric: {what}[{i},{j}]={a[i, j].item()!r}"
                         f" != {what}[{j},{i}]={a[j, i].item()!r}")
    return a


def _inverse_diffusivities(dmat) -> np.ndarray:
    """1 / D_ij off the diagonal, 0 on it.  This is the one D rule and the
    one place 1/D is formed: ``dmat`` must be square and symmetric with
    positive, finite off-diagonal entries whose reciprocals are finite,
    else ``ValueError``.  The diagonal is not read."""
    d = _pair_matrix(dmat, "dmat")
    off = ~np.eye(d.shape[0], dtype=bool)
    d_off = d[off]
    with np.errstate(over="ignore", divide="ignore"):  # the rule rejects them
        inv_off = 1.0 / d_off
    if not (d_off.min() > 0 and d_off.max() < np.inf and inv_off.max() < np.inf):  # NaN fails
        raise ValueError("off-diagonal diffusivities must be positive and finite, "
                         "with finite reciprocals")
    inv = np.zeros_like(d)
    inv[off] = inv_off
    return inv


def _check_species(inv: np.ndarray, **arrays) -> None:
    """Each named array must hold one entry per species of ``inv`` (the
    :func:`_inverse_diffusivities` of dmat) along its last axis, else
    ``ValueError`` naming both species counts."""
    for what, a in arrays.items():
        if a.shape[-1:] != inv.shape[:1]:
            raise ValueError(f"{what} has {a.shape[-1] if a.ndim else 0} species, "
                             f"dmat has {inv.shape[0]} species")


@dataclass(frozen=True)
class MixtureSpec:
    """Species labels and the symmetric matrix of pairwise diffusivities
    (length^2/time).

    Needs at least 2 names and an (n, n) ``dmat`` with a zero diagonal
    that passes the D rule (:func:`_inverse_diffusivities`); anything else
    raises ``ValueError``.
    """
    names: tuple[str, ...]
    dmat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        object.__setattr__(self, "dmat", _frozen_array(self.dmat))
        n, d = self.n, self.dmat
        if n < 2:
            raise ValueError(f"need >= 2 species, got {n}")
        if d.shape != (n, n):
            raise ValueError(f"dmat shape {d.shape} does not match {n} species")
        if np.any(np.diag(d) != 0):
            raise ValueError("dmat diagonal is unused and must be 0")
        _inverse_diffusivities(d)

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Composition:
    """Mole-fraction vectors on the simplex plus the total molar
    concentration (mol/length^3).

    ``x`` is shaped (..., n): one composition, or a batch along leading
    axes.  ``c_tot`` is one value or an array that broadcasts against the
    batch shape; it is stored as a float for one composition and as an
    array of the batch shape otherwise (default 1).  Every row is checked.
    """
    x: np.ndarray
    c_tot: float | np.ndarray = 1.0

    def __post_init__(self):
        x = _frozen_array(self.x)
        if x.ndim < 1 or x.shape[-1] < 2:
            raise ValueError(f"x must be a vector of >= 2 fractions, got shape {x.shape}")
        c_tot = _frozen_array(np.broadcast_to(np.asarray(self.c_tot, dtype=float),
                                              x.shape[:-1]))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "c_tot", _unbatch(c_tot))
        bad = ~np.all((x >= 0) & (x < np.inf), axis=-1)
        if np.any(bad):
            raise ValueError(
                f"mole fractions must be finite and nonnegative: {x[_first_true(bad)]}")
        with np.errstate(over="ignore"):  # an overflowing sum fails below
            total = x.sum(axis=-1)
        bad = np.abs(total - 1.0) > SUM_TOL
        if np.any(bad):
            raise ValueError(
                f"mole fractions must sum to 1, got {total[_first_true(bad)].item()!r}")
        bad = ~((0 < c_tot) & (c_tot < np.inf))
        if np.any(bad):
            raise ValueError(f"c_tot must be positive and finite, got "
                             f"{c_tot[_first_true(bad)].item()!r}")


@lru_cache(maxsize=32)
def simplex_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace {v in R^n : sum(v) = 0}:
    the n x (n-1) matrix P with P.T @ P = I and ones(n) @ P = 0: the
    right singular vectors of ones((1, n)) past the first, C-ordered."""
    P = np.ascontiguousarray(np.linalg.svd(np.ones((1, n)))[2][1:].T)
    P.setflags(write=False)
    return P


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., m) of the symmetric (..., m, m) ``a``, from
    its lower triangle.  LAPACK solves each matrix on its own, so a matrix's
    eigenvalues have the same bits in any batch.  ``EigSolverFailure`` where
    the solve does not converge, or where ``a`` holds an inf or a NaN (for
    which LAPACK can return finite eigenvalues)."""
    if not np.isfinite(a).all():
        raise EigSolverFailure("symmetric eigensolve of a matrix with an inf or NaN entry")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc


def _first_true(mask) -> tuple:
    """Index of the first True entry of ``mask`` in row-major order;
    () for a 0-d mask."""
    return np.unravel_index(np.argmax(mask), np.shape(mask))


def _unbatch(a):
    """A 0-d result as a Python scalar; a batched one as it is."""
    return a.item() if np.ndim(a) == 0 else a


def _check_zero_sum(v: np.ndarray, what: str, rtol: float = 1e-12) -> None:
    """Every row of ``v`` must be finite and sum to zero within ``rtol``
    of its largest entry; the first row that is not raises ``ValueError``
    (a NaN or an infinite entry fails)."""
    scale = np.max(np.abs(v), axis=-1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf: the row fails below
        total = v.sum(axis=-1)
    bad = ~((np.abs(total) <= rtol * scale) & (scale < np.inf))
    if np.any(bad):
        k = _first_true(bad)
        raise ValueError(f"{what} must be finite and sum to zero: "
                         f"sum={total[k].item()!r}, max={scale[k].item()!r}")


@dataclass(frozen=True)
class DrivingForce:
    """Thermodynamic driving forces (1/length), shaped (..., n); each
    row sums to zero by Gibbs-Duhem."""
    d: np.ndarray

    def __post_init__(self):
        d = _frozen_array(self.d)
        object.__setattr__(self, "d", d)
        _check_zero_sum(d, "driving forces")


@dataclass(frozen=True)
class FluxSet:
    """Molar diffusive fluxes (mol/(length^2 time)), shaped (..., n);
    each row sums to zero."""
    J: np.ndarray

    def __post_init__(self):
        J = _frozen_array(self.J)
        object.__setattr__(self, "J", J)
        _check_zero_sum(J, "fluxes")
