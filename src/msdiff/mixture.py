"""Core domain types: mixture definitions, compositions, forces, fluxes."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import NegativeConcentration, NonPositiveTotal

#: Tolerance on |sum(x) - 1| for a valid composition.
SUM_TOL = 1e-12

#: Concentrations below -CLAMP_REL * total are treated as genuine model
#: violations; anything in (-CLAMP_REL * total, 0) is numerical noise and
#: gets clamped to zero.
CLAMP_REL = 1e-10


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpecIssue:
    """One violated mixture-spec invariant."""
    code: str
    detail: str


@dataclass(frozen=True)
class MixtureSpec:
    """Species labels and the symmetric matrix of pairwise diffusivities
    (length^2/time).

    The diagonal of ``dmat`` is unused and stored as 0.  Construction is
    lenient; use :func:`validate_spec` to collect invariant violations.
    """
    names: tuple[str, ...]
    dmat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(s) for s in self.names))
        object.__setattr__(self, "dmat", _frozen_array(self.dmat))

    @property
    def n(self) -> int:
        return len(self.names)


def validate_spec(spec: MixtureSpec) -> list[SpecIssue]:
    """Check every MixtureSpec invariant and return all violations.

    An empty list means the spec is valid.
    """
    issues: list[SpecIssue] = []
    n = spec.n
    d = spec.dmat
    if n < 2:
        issues.append(SpecIssue("BadDimension", f"need >= 2 species, got {n}"))
    if d.ndim != 2 or d.shape != (n, n):
        issues.append(SpecIssue(
            "BadDimension", f"dmat shape {d.shape} does not match {n} species"))
        return issues  # remaining checks assume a square matrix
    asym = np.argwhere(d != d.T)
    if asym.size:
        i, j = asym[0]
        issues.append(SpecIssue(
            "AsymmetricD", f"dmat[{i},{j}]={d[i, j]!r} != dmat[{j},{i}]={d[j, i]!r}"))
    off = ~np.eye(n, dtype=bool)
    if np.any(d[off] <= 0):
        issues.append(SpecIssue("NonPositiveD", "off-diagonal diffusivities must be > 0"))
    if not np.all(np.isfinite(d[off])):
        issues.append(SpecIssue("NonFiniteD", "off-diagonal diffusivities must be finite"))
    if np.any(np.diag(d) != 0):
        issues.append(SpecIssue("NonZeroDiagonal", "diagonal entries are unused; store 0"))
    return issues


@dataclass(frozen=True)
class Composition:
    """Mole-fraction vectors on the simplex plus the total molar
    concentration (mol/length^3).

    ``x`` is shaped (..., n): one composition, or a batch along leading
    axes.  ``c_tot`` is one value or an array that broadcasts against the
    batch shape; it is stored as a float for one composition and as an
    array of the batch shape otherwise.  Every row is checked.
    """
    x: np.ndarray
    c_tot: float | np.ndarray

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
        total = x.sum(axis=-1)
        bad = np.abs(total - 1.0) > SUM_TOL
        if np.any(bad):
            raise ValueError(
                f"mole fractions must sum to 1, got {total[_first_true(bad)]!r}")
        bad = ~((0 < c_tot) & (c_tot < np.inf))
        if np.any(bad):
            raise ValueError(f"c_tot must be positive and finite, got "
                             f"{c_tot[_first_true(bad)].item()!r}")

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def c(self) -> np.ndarray:
        """Species concentrations c_i = x_i * c_tot."""
        return self.x * np.asarray(self.c_tot)[..., None]


def mole_fractions(c) -> Composition:
    """Composition from a concentration vector.

    Tiny negative entries (within -1e-10 of the total) are clamped to
    zero; larger negatives raise ``NegativeConcentration``.
    """
    c = np.asarray(c, dtype=float)
    total = float(c.sum())
    if total <= 0:
        raise NonPositiveTotal(f"sum of concentrations is {total!r}")
    if np.any(c < -CLAMP_REL * total):
        bad = int(np.argmin(c))
        raise NegativeConcentration(f"c[{bad}]={c[bad]!r} with total {total!r}")
    c = np.clip(c, 0.0, None)
    total = float(c.sum())
    return Composition(x=c / total, c_tot=total)


@lru_cache(maxsize=32)
def simplex_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace {v in R^n : sum(v) = 0}:
    the n x (n-1) matrix P with P.T @ P = I and ones(n) @ P = 0."""
    P = scipy.linalg.null_space(np.ones((1, n)))
    P.setflags(write=False)
    return P


def _first_true(mask) -> tuple:
    """Index of the first True entry of ``mask`` in row-major order;
    () for a 0-d mask."""
    return np.unravel_index(np.argmax(mask), np.shape(mask))


def _unbatch(a):
    """A 0-d result as a Python scalar; a batched one as it is."""
    return a.item() if np.ndim(a) == 0 else a


def _check_zero_sum(v: np.ndarray, what: str) -> None:
    """Every row of ``v`` must sum to zero relative to its largest entry."""
    scale = np.max(np.abs(v), axis=-1, initial=0.0)
    total = v.sum(axis=-1)
    bad = np.abs(total) > 1e-12 * scale
    if np.any(bad):
        k = _first_true(bad)
        raise ValueError(f"{what} must sum to zero: sum={total[k]!r}, max={scale[k]!r}")


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
