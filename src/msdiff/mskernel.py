"""Flux-force matrices, singular solves on the zero-sum subspace, and
spectral certificates.

The flux-force relations are solved as A J = c_tot d on
E = {v : sum(v) = 0}, where A has off-diagonal entries x_i / D_ij and
diagonal -s_i with s_i = sum_{k != i} x_k / D_ik.  A is quasi-positive,
has null vector x, range orthogonal to ones, and (after symmetrization
by X^{-1/2} A X^{1/2}) a real spectrum contained in (-inf, -delta] u {0}
with delta = min_{i != j} 1 / D_ij.

Two independent solve routes are provided: orthonormal projection onto
E (primary) and the reduced (n-1)x(n-1) system via the B matrix, solved
by Gaussian elimination with partial pivoting; the
tests add a third, the bordered matrix A - mu (x (x) e).

A(x) is linear in x, and so is its restriction K = P^T A P to E (P the
orthonormal zero-sum basis): K(x) = sum_k x_k T_k.  The tensor T
(:func:`_reduced_tensor`) depends on D alone, so the projected route and
the simulator's step kernel form K as one matrix product x @ T
(:func:`_reduced_A`), with no (n, n) A on the way; the step kernel's dt
bound and ``diffusion_operator_spectrum`` share one route from K to the
diffusion operator's real eigenvalues (:func:`_diffusion_matrix_reduced`).

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

from .errors import EigSolverFailure, NotConvex, SingularSystem
from .mixture import (Composition, DrivingForce, FluxSet, _first_true,
                      _inverse_diffusivities, _unbatch, simplex_basis)
from .thermo import (ThermoModel, _as_x, _gamma_tensor, _interior, _reduced_gamma,
                     convexity_check, floor_composition)


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
    inv = _inverse_diffusivities(dmat)
    return float(inv[~np.eye(len(inv), dtype=bool)].min())


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


def _reduced_tensor(inv: np.ndarray) -> np.ndarray:
    """T shaped (n, m*m), m = n - 1, from the inverse diffusivities: row k
    is T_k = P^T E_k P with (E_k)_ij = delta_ik / D_kj - delta_ij / D_ik,
    so that A(x) = sum_k x_k E_k and K(x) = P^T A(x) P = x @ T."""
    n = inv.shape[0]
    p = simplex_basis(n)
    t = p[:, :, None] * (inv @ p)[:, None, :] - np.einsum("ai,ak,aj->kij", p, inv, p)
    return t.reshape(n, -1)


def _reduced_A(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """K(x) = P^T A(x) P as x @ T (T from :func:`_reduced_tensor`),
    batched over leading axes of ``x``; no floor."""
    m = x.shape[-1] - 1
    return (x @ t).reshape(x.shape[:-1] + (m, m))


def _fluxes_projected(b: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Batched solve of A J = b by projection onto the zero-sum subspace:
    J = P K^{-1} P^T b, from K = P^T A P and the basis P
    (:func:`msdiff.mixture.simplex_basis`).  ``b`` shaped (..., n), ``k``
    (..., m, m), ``p`` (n, m).  P^T drops any mean of ``b``."""
    return _solve_reduced(k, (b @ p)[..., None])[..., 0] @ p.T


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
    x = floor_composition(comp)
    inv = _inverse_diffusivities(dmat)
    a = _assemble_A(x, inv)  # for the residual check
    c_tot = np.asarray(comp.c_tot)
    j = _fluxes_projected(c_tot[..., None] * dv, _reduced_A(x, _reduced_tensor(inv)),
                          simplex_basis(x.shape[-1]))
    resid = np.linalg.norm((a @ j[..., None])[..., 0] - c_tot[..., None] * dv, axis=-1)
    scale = (np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(j, axis=-1)
             + c_tot * np.linalg.norm(dv, axis=-1))
    bad = ~((scale == 0) | (resid <= 1e-10 * scale))  # NaN fails too
    if np.any(bad):
        k = _first_true(bad)
        raise SingularSystem(f"projected solve residual {resid[k]!r} (scale {scale[k]!r})")
    return FluxSet(J=j - j.mean(axis=-1, keepdims=True))


def solve_fluxes_reduced(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from the reduced system B J' = -c_tot d' by Gaussian
    elimination with partial pivoting, per row; the last flux closes the
    zero sum.  A non-finite system raises ``ValueError``; a pivot below
    1e-14 ||B|| in any row raises ``SingularSystem``."""
    x = _as_x(comp)
    dv = _as_d(d)
    b = assemble_B(x, dmat)
    rhs = -np.asarray(comp.c_tot)[..., None] * dv[..., :-1]
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(rhs))):
        raise ValueError("reduced system must be finite (NaN or inf in B or the forces)")
    jr, pivot = _gauss_solve(b, rhs)
    if np.any(pivot < 1e-14 * np.linalg.norm(b, axis=(-2, -1))):
        raise SingularSystem("vanishing pivot in the reduced-system elimination")
    return FluxSet(J=np.concatenate([jr, -jr.sum(axis=-1, keepdims=True)], axis=-1))


def _gauss_solve(b: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve b y = rhs by Gaussian elimination with partial pivoting, for
    b shaped (..., m, m) and rhs (..., m) with broadcasting batch shapes.
    Returns y and each system's smallest |pivot|.  As in LAPACK's getf2,
    the multipliers are scaled by the reciprocal pivot and the back
    substitution divides; a zero pivot leaves inf or NaN in its row, for
    the caller's pivot check to reject."""
    batch = np.broadcast_shapes(b.shape[:-2], rhs.shape[:-1])
    m = b.shape[-1]
    a = np.broadcast_to(b, batch + (m, m)).reshape(-1, m, m).copy()
    y = np.broadcast_to(rhs, batch + (m,)).reshape(-1, m).copy()
    r = np.arange(len(a))
    with np.errstate(all="ignore"):
        for k in range(m):
            p = k + np.argmax(np.abs(a[:, k:, k]), axis=-1)
            a[r, k], a[r, p] = a[r, p], a[r, k]  # fancy indexing copies
            y[r, k], y[r, p] = y[r, p], y[r, k]
            l = a[:, k + 1:, k] * (1.0 / a[:, k, k])[:, None]
            a[:, k + 1:, k + 1:] -= l[:, :, None] * a[:, k, None, k + 1:]
            y[:, k + 1:] -= l * y[:, k, None]
        for k in range(m - 1, -1, -1):
            y[:, k] /= a[:, k, k]
            y[:, :k] -= a[:, :k, k] * y[:, k, None]
    pivot = np.min(np.abs(np.diagonal(a, axis1=-2, axis2=-1)), axis=-1)
    return y.reshape(batch + (m,)), pivot.reshape(batch)


def _diffusion_matrix_reduced(k: np.ndarray, x: np.ndarray, xa=None, s=None) -> np.ndarray:
    """M = -K^{-1} P^T Gamma P, the effective diffusion operator on the
    zero-sum subspace: v in E maps to -J(v), where A J = Gamma v.  K = x @ T
    (:func:`_reduced_A`); on Margules thermo ``xa = x @ A`` and the per-run
    S (:func:`msdiff.thermo._gamma_tensor`) give P^T Gamma P, else Gamma = I.
    Batched; no floor or domain check."""
    g = np.eye(k.shape[-1]) if s is None else _reduced_gamma(x, xa, s)
    return -_solve_reduced(k, g)


def _real_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Unsorted eigenvalues of M, batched.  They are real (those of the pencil
    of the symmetric P^T X^{-1} Gamma P and definite -P^T X^{-1} A P), so the
    imaginary parts are roundoff and dropped; a 1x1 M is its own eigenvalue."""
    return m[..., 0] if m.shape[-1] == 1 else np.linalg.eigvals(m).real


def diffusion_operator_spectrum(x, dmat, model: ThermoModel,
                                require_convex: bool = True) -> np.ndarray:
    """Eigenvalues (descending) of the effective diffusion operator on the
    zero-sum subspace, a real float array shaped (..., n-1).

    Positive eigenvalues certify normal ellipticity, i.e. parabolicity
    of the species equations at this state.  ``x`` is floored; a NaN or
    inf raises ``DegenerateComposition``.  With ``require_convex`` the
    strong-convexity certificate is checked first, per row, and
    ``NotConvex`` is raised when it fails on any row.
    """
    x = _interior(floor_composition(x), "diffusion_operator_spectrum")
    if require_convex:
        lam = np.asarray(convexity_check(model, x))
        if np.any(lam <= 0):
            raise NotConvex("Gibbs energy not strongly convex: lambda_min = "
                            f"{lam[_first_true(lam <= 0)].item()!r}")
    k = _reduced_A(x, _reduced_tensor(_inverse_diffusivities(dmat)))
    xa = s = None
    if not model.is_ideal:
        a = model.interactions(x.shape[-1])
        xa, s = x @ a, _gamma_tensor(a)
    w = _real_eigenvalues(_diffusion_matrix_reduced(k, x, xa, s))
    return -np.sort(-w, axis=-1)
