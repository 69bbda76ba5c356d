"""Flux-force matrices, singular solves on the zero-sum subspace, and
spectral certificates.

The flux-force relations are solved as A J = c_tot d on
E = {v : sum(v) = 0}, where A has off-diagonal entries x_i / D_ij and
diagonal -s_i with s_i = sum_{k != i} x_k / D_ik.  A is quasi-positive,
has null vector x, range orthogonal to ones, and (after symmetrization
by X^{-1/2} A X^{1/2}) a real spectrum contained in (-inf, -delta] u {0}
with delta = min_{i != j} 1 / D_ij.

Two independent solve routes are provided: orthonormal projection onto
E (primary) and the reduced (n-1)x(n-1) system via the B matrix; the
tests add a third, the bordered matrix A - mu (x (x) e).

Compositions and forces are shaped (..., n) and every public per-state
function is batched over the leading axes, with the domain types of
:mod:`msdiff.mixture` batched the same way.  One state is the batch of
shape (), computed by the same code.  Every check runs per row (its own
norm, residual or pivot); a verdict comes back per row, and a row that
fails a hard check raises for the whole call, as its scalar call would.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateComposition, EigSolverFailure, NotConvex, SingularSystem
from .mixture import (Composition, DrivingForce, FluxSet, _first_true, _unbatch,
                      simplex_basis)
from .thermo import (ThermoModel, _as_x, convexity_check, floor_composition,
                     gamma_matrix)


def _inverse_diffusivities(dmat) -> np.ndarray:
    """1 / D_ij off the diagonal, 0 on it."""
    d = np.asarray(dmat, dtype=float)
    off = ~np.eye(d.shape[0], dtype=bool)
    inv = np.zeros_like(d)
    inv[off] = 1.0 / d[off]
    return inv


def assemble_A(x, dmat) -> np.ndarray:
    """Flux-force matrix A(x): off-diagonal x_i / D_ij, diagonal -s_i.

    The composition is floored first (:func:`msdiff.thermo.floor_composition`).
    """
    return _assemble_A(floor_composition(x), _inverse_diffusivities(dmat))


def _assemble_A(x: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """A(x) from the inverse diffusivities, batched over leading axes of
    ``x``; no floor."""
    return _with_diagonal(x[..., :, None] * inv, inv, x)


def _with_diagonal(a: np.ndarray, inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a`` with its diagonal set to -s_i = -sum_k x_k / D_ik."""
    idx = np.arange(inv.shape[0])
    a[..., idx, idx] = -np.einsum("ik,...k->...i", inv, x)
    return a


def assemble_A_sym(x, dmat) -> np.ndarray:
    """Symmetrized form A_S = X^{-1/2} A X^{1/2}: off-diagonal
    sqrt(x_i x_j) / D_ij, same diagonal as A.  Null vector sqrt(x)."""
    x = floor_composition(x)
    inv = _inverse_diffusivities(dmat)
    rx = np.sqrt(x)
    return _with_diagonal(rx[..., :, None] * rx[..., None, :] * inv, inv, x)


def assemble_B(x, dmat) -> np.ndarray:
    """Reduced (n-1)x(n-1) matrix B of the system B J' = -c_tot d'
    obtained by eliminating the last flux.

    B_ij = x_i (1/D_in - 1/D_ij) for i != j and
    B_ii = x_i / D_in + sum_{k != i} x_k / D_ik, with x_n = 1 - sum x_m.
    """
    x = _as_x(x)
    inv = _inverse_diffusivities(dmat)
    n = inv.shape[0]
    m = n - 1
    col_n = inv[:m, n - 1]
    b = x[..., :m, None] * (col_n[:, None] - inv[:m, :m])
    s = np.einsum("ik,...k->...i", inv, x)[..., :m]
    idx = np.arange(m)
    b[..., idx, idx] = x[..., :m] * col_n + s
    return b


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of A (descending, shaped (..., n)), the gap bound
    delta, and whether the spectral inclusion
    sigma(A) in (-inf, -delta] u {0} holds: a bool, or one per row."""
    eigenvalues: np.ndarray
    delta: float
    gap_ok: bool | np.ndarray


def spectral_gap_delta(dmat) -> float:
    """delta = min_{i != j} 1 / D_ij."""
    d = np.asarray(dmat, dtype=float)
    off = ~np.eye(d.shape[0], dtype=bool)
    return float(1.0 / d[off].max())


def spectrum(x, dmat) -> SpectrumReport:
    """Eigenvalues of A via the symmetric similar matrix A_S; each row's
    zero eigenvalue is tested against its own ||A_S||."""
    a_sym = assemble_A_sym(x, dmat)
    try:
        w = np.linalg.eigvalsh(a_sym)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    w = w[..., ::-1]  # descending
    delta = spectral_gap_delta(dmat)
    norm = np.linalg.norm(a_sym, axis=(-2, -1))
    gap_ok = ((np.abs(w[..., 0]) <= 1e-10 * norm)
              & (w[..., 1] <= -delta * (1.0 - 1e-10)))
    w.setflags(write=False)
    return SpectrumReport(eigenvalues=w, delta=delta, gap_ok=_unbatch(gap_ok))


def _reduce(m: np.ndarray) -> np.ndarray:
    """P^T m P for n x n matrices m (batched), P the zero-sum basis."""
    p = simplex_basis(m.shape[-1])
    return p.T @ m @ p


def _fluxes_projected(d, a, c_tot) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve of A J = c_tot d by projection onto the zero-sum
    subspace.  ``d`` shaped (..., n), ``a`` (..., n, n); ``c_tot`` scalar
    or (...).  Returns J and the reduced matrix K = P^T A P."""
    p = simplex_basis(d.shape[-1])
    k = _reduce(a)
    rhs = (np.asarray(c_tot)[..., None] * d) @ p
    y = _solve_reduced(k, rhs[..., None])[..., 0]
    return y @ p.T, k


def _solve_reduced(k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solve of K Y = B for reduced (n-1)x(n-1) systems.  For a
    binary mixture K is 1x1; dividing gives LAPACK's 1x1 result bit for
    bit without its per-system call cost."""
    if k.shape[-1] == 1:
        return b / k
    return np.linalg.solve(k, b)


def _as_d(d) -> np.ndarray:
    if isinstance(d, DrivingForce):
        return d.d
    return np.asarray(d, dtype=float)


def solve_fluxes_invariant(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from A J = c_tot d, solved on the zero-sum subspace.

    Verifies each row's residual of the singular system before returning.
    """
    dv = _as_d(d)
    a = assemble_A(comp, dmat)
    c_tot = np.asarray(comp.c_tot)
    j, _ = _fluxes_projected(dv, a, c_tot)
    resid = np.linalg.norm((a @ j[..., None])[..., 0] - c_tot[..., None] * dv, axis=-1)
    scale = (np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(j, axis=-1)
             + c_tot * np.linalg.norm(dv, axis=-1))
    bad = ~((scale == 0) | (resid <= 1e-10 * scale))  # NaN fails too
    if np.any(bad):
        k = _first_true(bad)
        raise SingularSystem(f"projected solve residual {resid[k]!r} (scale {scale[k]!r})")
    return FluxSet(J=j - j.mean(axis=-1, keepdims=True))


def solve_fluxes_reduced(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from the reduced system B J' = -c_tot d' by dense LU with
    partial pivoting, one LU per row; the last flux closes the zero sum."""
    x = _as_x(comp)
    dv = _as_d(d)
    b = assemble_B(x, dmat)
    try:
        lu, piv = scipy.linalg.lu_factor(b)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    pivot = np.min(np.abs(np.diagonal(lu, axis1=-2, axis2=-1)), axis=-1)
    if np.any(pivot < 1e-14 * np.linalg.norm(b, axis=(-2, -1))):
        raise SingularSystem("vanishing pivot in reduced-system LU")
    rhs = -np.asarray(comp.c_tot)[..., None] * dv[..., :-1]
    jr = scipy.linalg.lu_solve((lu, piv), rhs[..., None])[..., 0]
    return FluxSet(J=np.concatenate([jr, -jr.sum(axis=-1, keepdims=True)], axis=-1))


def fick_limit_D(x, dmat, i: int) -> float | np.ndarray:
    """Effective Fickian diffusivity D_i = 1 / sum_{j != i} x_j / D_ij,
    per row of ``x``.

    This is the coefficient of -grad c_i in the flux split
    J_i = -D_i grad c_i + c_i F_i; cross-effects vanish as x_i -> 0.
    """
    x = _as_x(x)
    inv = _inverse_diffusivities(dmat)
    s = x @ inv[i]
    if np.any(s == 0.0):
        raise DegenerateComposition(f"x[{i}] = 1: no partner species for diffusion")
    return _unbatch(1.0 / s)


def _diffusion_matrix_reduced(x, dmat, model: ThermoModel) -> np.ndarray:
    """Reduced representation of the effective diffusion operator on the
    zero-sum subspace: M = -(P^T A P)^{-1} (P^T Gamma P).

    The operator maps a concentration-gradient direction v in E to
    -J(v), where J solves A J = Gamma v (the c_tot factors cancel).
    Batched over leading axes of a floored ``x``.
    """
    k = _reduce(_assemble_A(x, _inverse_diffusivities(dmat)))
    return _operator_reduced(k, gamma_matrix(model, x))


def _operator_reduced(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """M = -K^{-1} (P^T Gamma P) from K = P^T A P, batched."""
    return -_solve_reduced(k, _reduce(g))


def diffusion_operator_spectrum(x, dmat, model: ThermoModel,
                                require_convex: bool = True) -> np.ndarray:
    """Eigenvalues (descending by real part) of the effective diffusion
    operator restricted to the zero-sum subspace, shaped (..., n-1).

    Positive eigenvalues certify normal ellipticity, i.e. parabolicity
    of the species equations at this state.  A row whose imaginary parts
    are at roundoff level comes back real; the array is complex only if
    some row is not.  With ``require_convex`` the strong-convexity
    certificate is checked first, per row, and ``NotConvex`` is raised
    when it fails on any row.
    """
    x = floor_composition(x)
    if require_convex:
        lam = np.asarray(convexity_check(model, x))
        if np.any(lam <= 0):
            raise NotConvex("Gibbs energy not strongly convex: lambda_min = "
                            f"{lam[_first_true(lam <= 0)].item()!r}")
    w = np.linalg.eigvals(_diffusion_matrix_reduced(x, dmat, model))
    w = np.take_along_axis(w, np.argsort(-w.real, axis=-1), axis=-1)
    real = (np.max(np.abs(w.imag), axis=-1)
            <= 1e-10 * np.maximum(np.max(np.abs(w.real), axis=-1), 1e-300))
    return w.real if np.all(real) else np.where(real[..., None], w.real, w)
