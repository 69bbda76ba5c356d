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
tests add a third, the bordered matrix A - mu (x (x) e).  Both routes
share one eliminator (:func:`_eliminate`, Gaussian elimination with
partial pivoting run species-major across a whole batch) but solve
different systems, and the projected route still checks its residual
against the assembled A.  The eliminator takes one right-hand side per
system and one batch shape; each route broadcasts once, at entry, to the
batch of composition and forces together: the projected route its x, the
reduced route its B.

A(x) is linear in x, and so is its restriction K = P^T A P to E (P the
orthonormal zero-sum basis): K(x) = sum_k x_k T_k.  The tensor T
(:func:`_reduced_tensor`) depends on D alone, so the projected solve that
the projected route and the step kernel share (:func:`_fluxes_projected`)
forms K from x and T as one product x @ T, with no (n, n) A on the way.
The step kernel's dt bound and ``diffusion_operator_spectrum`` share one
route to the diffusion operator's real eigenvalues (:func:`_operator_eigenvalues`):
the symmetric definite pencil of the X^{1/2} symmetrization, from 1/D
and the Margules A at every n (at n = 2 its 1x1 closed form).  The
pencil's N is positive definite, so by Sylvester's law of inertia its
eigenvalues have the signs of G, congruent to the X^{-1} Gamma form on E:
``require_convex``'s strong-convexity verdict is the spectrum's own sign.

Compositions and forces are shaped (..., n) and every public per-state
function is batched over the leading axes; one state is the batch of
shape ().  A raw composition enters through ``thermo._as_x`` (finite and
>= 0, else ``DegenerateComposition``), forces through :func:`_as_d`
(``DrivingForce``'s rule: finite and summing to zero, else ``ValueError``).
Every check runs per row (its own norm, residual or pivot), and a row that
fails a hard check raises for the call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigSolverFailure, NotConvex, SingularSystem
from .mixture import (SUM_TOL, Composition, DrivingForce, FluxSet, _check_species,
                      _first_true, _inverse_diffusivities, _unbatch, simplex_basis)
from .thermo import X_FLOOR, ThermoModel, _as_x, floor_composition


def assemble_A(x, dmat) -> np.ndarray:
    """Flux-force matrix A(x): off-diagonal x_i / D_ij, diagonal -s_i.

    The composition is floored first (:func:`msdiff.thermo.floor_composition`).
    """
    x = floor_composition(_as_x(x, "assemble_A"))
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x)
    return _assemble_A(x, inv)


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
    x = floor_composition(_as_x(x, "assemble_A_sym"))
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x)
    rx = np.sqrt(x)
    return _with_diagonal(rx[..., :, None] * rx[..., None, :] * inv, inv, x)


def assemble_B(x, dmat) -> np.ndarray:
    """Reduced (n-1)x(n-1) matrix B of the system B J' = -c_tot d'
    obtained by eliminating the last flux.

    B_ij = x_i (1/D_in - 1/D_ij) for i != j and
    B_ii = x_i / D_in + sum_{k != i} x_k / D_ik, with x_n = 1 - sum x_m.
    """
    x = _as_x(x, "assemble_B")
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x)
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
    a_sym = assemble_A_sym(_as_x(x, "spectrum"), dmat)
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


def _fluxes_projected(x: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Batched solve of A(x) J = b on the zero-sum subspace: J = P K^{-1} P^T b,
    K = P^T A P = x @ T (:func:`_reduced_tensor`), P the cached ``simplex_basis``.
    ``x`` and ``b`` (..., n) of one batch shape; no floor.  P^T drops any mean of ``b``."""
    n = x.shape[-1]
    p = simplex_basis(n)
    k = (x @ t).reshape(x.shape[:-1] + (n - 1, n - 1))
    return _eliminate(k, b @ p)[0] @ p.T


def _as_d(d) -> np.ndarray:
    """The one force conversion: a DrivingForce's d.  A raw array is made a
    DrivingForce, so it meets that rule (every row finite and summing to
    zero) or raises ``ValueError``."""
    return (d if isinstance(d, DrivingForce) else DrivingForce(d)).d


def solve_fluxes_invariant(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from A J = c_tot d, solved on the zero-sum subspace.

    Verifies each row's residual of the singular system before returning.
    """
    dv = _as_d(d)
    x = floor_composition(comp.x)
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x, d=dv)
    a = _assemble_A(x, inv)  # for the residual check
    c_tot = np.asarray(comp.c_tot)
    rhs = c_tot[..., None] * dv  # the composition's batch, broadcast with the forces'
    j = _fluxes_projected(np.broadcast_to(x, rhs.shape), rhs, _reduced_tensor(inv))
    resid = np.linalg.norm((a @ j[..., None])[..., 0] - rhs, axis=-1)
    scale = (np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(j, axis=-1)
             + c_tot * np.linalg.norm(dv, axis=-1))
    bad = ~((scale == 0) | (resid <= 1e-10 * scale))  # NaN fails too
    if np.any(bad):
        k = _first_true(bad)
        raise SingularSystem(f"projected solve residual {resid[k].item()!r} "
                             f"(scale {scale[k].item()!r})")
    return FluxSet(J=j - j.mean(axis=-1, keepdims=True))


def solve_fluxes_reduced(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from the reduced system B J' = -c_tot d' by Gaussian
    elimination with partial pivoting, per row; the last flux closes the
    zero sum.  A pivot below 1e-14 ||B|| in any row raises
    ``SingularSystem``."""
    dv = _as_d(d)
    b = assemble_B(comp.x, dmat)
    _check_species(_inverse_diffusivities(dmat), d=dv)
    rhs = -np.asarray(comp.c_tot)[..., None] * dv[..., :-1]
    b = np.broadcast_to(b, rhs.shape[:-1] + b.shape[-2:])
    with np.errstate(divide="ignore", invalid="ignore"):  # the pivot check rejects them
        jr, pivots = _eliminate(b, rhs)
    if np.any(np.abs(pivots) < 1e-14 * np.linalg.norm(b, axis=(-2, -1))[..., None]):
        raise SingularSystem("vanishing pivot in the reduced-system elimination")
    return FluxSet(J=np.concatenate([jr, -jr.sum(axis=-1, keepdims=True)], axis=-1))


def _eliminate(b: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve b y = rhs by Gaussian elimination with partial pivoting, for
    b shaped (..., m, m) and rhs (..., m) of one batch shape (callers
    broadcast).  Returns y (..., m) and each system's pivots (..., m).  As
    in LAPACK's getf2, the multipliers are scaled by the reciprocal pivot
    and the back substitution divides; a zero pivot leaves inf or NaN (with
    numpy's warning) in its row, for the caller to reject.  A 1x1 system is
    one division, which gives LAPACK's 1x1 result bit for bit.

    The systems are eliminated together, species-major: the augmented
    matrices [b | rhs] as one (m, m+1, rows) array, so each step is a few
    array operations whatever the batch size.  Rows are swapped only in the
    systems whose pivot is not the first largest |entry| of its column,
    which gives the bits of swapping in every system."""
    m = b.shape[-1]
    if m == 1:
        return rhs / b[..., 0], b[..., 0]
    a = np.empty((m, m + 1, rhs.size // m))
    a[:, :m] = b.reshape(-1, m, m).transpose(1, 2, 0)
    a[:, m] = rhs.reshape(-1, m).T
    for k in range(m - 1):
        col = np.abs(a[k:, k])
        beats = col[1:] > col[0]
        if beats.any():
            f = np.flatnonzero(np.logical_or.reduce(beats, axis=0))
            p = k + np.argmax(col[:, f], axis=0)  # the first of equal maxima
            a[k, k:, f], a[p, k:, f] = a[p, k:, f], a[k, k:, f]  # fancy indexing copies
        l = a[k + 1:, k] * (1.0 / a[k, k])
        for i in range(k + 1, m):
            a[i, k + 1:] -= l[i - k - 1] * a[k, k + 1:]
    y = a[:, m]
    for k in range(m - 1, 0, -1):
        y[k] /= a[k, k]
        y[:k] -= a[:k, k] * y[k]
    y[0] /= a[0, 0]
    return y.T.reshape(rhs.shape), np.diagonal(a[:, :m]).reshape(rhs.shape)


def _operator_eigenvalues(x: np.ndarray, inv: np.ndarray, amat=None) -> np.ndarray:
    """Real eigenvalues of the diffusion operator per row of ``x`` (..., n),
    from the paper's symmetrization by X^{1/2}; ascending for n >= 3.

    With A_S = X^{-1/2} A X^{1/2} and Q an orthonormal basis of the
    complement of sqrt(x), the operator's eigenvalues are those of the
    symmetric definite pencil (G, N): N = -Q^T A_S Q >= delta and
    G = I + Q^T X^{1/2} A_m X^{1/2} Q for the Margules ``amat`` (G = I on
    ideal thermo).  At n = 2 both are scalars: with s = x_1 + x_2,
    N = s / D_12 and G = 1 - 2 a x_1 x_2 / s for a = A_m[0, 1], and the
    eigenvalue is G / N.  For n >= 3, Q is the first n-1 columns of one
    Householder reflector H = I - beta v v^T per row, mapping
    u = sqrt(x)/||sqrt(x)|| to -e_n (v = u + e_n, beta = 1 / (1 + u_n)).
    For a symmetric S with w = S v, H S H = S - v z^T - z v^T where
    z = beta w - beta^2 (v^T w) v / 2; for A_S, whose null vector is u,
    w = A_S e_n and v^T w = -s_n.  Then N = L L^T (Cholesky) and one
    ``eigvalsh`` of C = L^{-1} G L^{-T}; on ideal thermo, one ``eigvalsh``
    of N and the reciprocals.  Everything but ``eigvalsh`` runs
    species-major, (m, m, rows).  Batched; no floor or domain check."""
    n = x.shape[-1]
    if n == 2:
        s = x[..., 0] + x[..., 1]
        g = 1.0 if amat is None else 1.0 - 2.0 * amat[0, 1] * x[..., 0] * x[..., 1] / s
        return (g / (s * inv[0, 1]))[..., None]
    m = n - 1
    xs = np.ascontiguousarray(x.reshape(-1, n).T)
    r = np.sqrt(xs)
    u = r / np.sqrt(np.add.reduce(xs, axis=0))
    beta = 1.0 / (1.0 + u[m])
    s = inv @ xs  # s_i = sum_k x_k / D_ik
    z = beta * r[m] * inv[:m, m, None] * r[:m] + (0.5 * beta * beta * s[m]) * u[:m]
    rr = r[:m, None] * r[:m]
    idx = np.arange(m)
    big_n = u[:m, None] * z
    big_n += big_n.swapaxes(0, 1)
    big_n -= rr * inv[:m, :m, None]
    big_n[idx, idx] += s[:m]
    if amat is None:  # G = I: the eigenvalues are the reciprocals of N's
        lam = 1.0 / np.linalg.eigvalsh(np.moveaxis(big_n, -1, 0))[:, ::-1]
    else:
        v = u.copy()
        v[m] += 1.0
        w = r * (amat @ (r * v))  # the same update for S = X^{1/2} A_m X^{1/2}
        y = beta * w[:m] - (0.5 * beta * beta * np.add.reduce(v * w, axis=0)) * v[:m]
        g = np.multiply(rr, amat[:m, :m, None], out=rr)
        g -= v[:m, None] * y
        g -= y[:, None] * v[:m]
        g[idx, idx] += 1.0
        lo = _cholesky(big_n)
        c = _forward(lo, _forward(lo, g).swapaxes(0, 1))  # in place of g
        lam = np.linalg.eigvalsh(np.moveaxis(c, -1, 0))
    return lam.reshape(x.shape[:-1] + (m,))


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Cholesky factor L of the symmetric positive definite matrices ``a``,
    species-major (m, m, rows), in place: the lower triangle of ``a``
    becomes L's and is the only part read; the upper one is left as it is."""
    for j in range(a.shape[0]):
        a[j, j] = np.sqrt(a[j, j] - np.einsum("kf,kf->f", a[j, :j], a[j, :j]))
        a[j + 1:, j] = (a[j + 1:, j] - np.einsum("ikf,kf->if", a[j + 1:, :j], a[j, :j])) / a[j, j]
    return a


def _forward(lo: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} B by forward substitution, in place of ``b``: species-major,
    ``lo`` (m, m, rows) with L in its lower triangle and ``b`` (m, q, rows)."""
    for i in range(lo.shape[0]):
        b[i] -= np.einsum("kf,kqf->qf", lo[i, :i], b[:i])
        b[i] /= lo[i, i]
    return b


def diffusion_operator_spectrum(x, dmat, model: ThermoModel,
                                require_convex: bool = True) -> np.ndarray:
    """Eigenvalues (descending) of the effective diffusion operator on the
    zero-sum subspace, a real float array shaped (..., n-1).

    Positive eigenvalues certify normal ellipticity, i.e. parabolicity
    of the species equations at this state.  A NaN, inf or negative entry
    raises ``DegenerateComposition``; ``x`` is then floored, and a row whose
    given fractions do not sum to 1 within SUM_TOL + n X_FLOOR (so that
    floored rows pass) raises ``ValueError``.  With ``require_convex``, a row whose
    smallest eigenvalue is <= 0 raises ``NotConvex``: by Sylvester's law of
    inertia the pencil's eigenvalues have the signs of G, which is congruent
    to the X^{-1} Gamma form on the zero-sum subspace, so this is the
    strong-convexity verdict (the sign of ``thermo.convexity_check``).
    """
    raw = _as_x(x, "diffusion_operator_spectrum")
    x = floor_composition(raw)
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x)
    total = np.add.reduce(raw, axis=-1)
    bad = np.abs(total - 1.0) > SUM_TOL + x.shape[-1] * X_FLOOR
    if np.any(bad):
        raise ValueError(f"mole fractions must sum to 1, got {float(total[_first_true(bad)])!r}")
    lam = -np.sort(-_operator_eigenvalues(x, inv, model.interactions(x.shape[-1])), axis=-1)
    low = lam[..., -1]
    if require_convex and np.any(low <= 0):
        raise NotConvex("Gibbs energy not strongly convex: operator eigenvalue "
                        f"{low[_first_true(low <= 0)].item()!r} <= 0")
    return lam
