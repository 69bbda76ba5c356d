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
route to the diffusion operator's real eigenvalues at every n,
:func:`_operator_eigenvalues`: the symmetric definite pencil of the
X^{1/2} symmetrization, from 1/D and the Margules A (at n = 2 its 1x1
closed form; for n >= 3 one symmetric M per row from
:func:`_operator_matrix`, and ``mixture._eigvalsh``, the library's one
symmetric eigensolve, which ``spectrum`` and ``thermo.convexity_check``
share and which raises ``EigSolverFailure`` for an inf or NaN entry or
no convergence).  The pencil's N is positive definite, so by Sylvester's
law of inertia its eigenvalues have the signs of G, congruent to the
X^{-1} Gamma form on E: ``require_convex``'s strong-convexity verdict is
the spectrum's own sign.  The kernel reads only two numbers of each refresh,
the largest eigenvalue over the faces and the sign of the smallest, so
it passes back the anchor the route returns, each face's last exactly
solved M with its eigenvalues; by Weyl's inequality the route then
solves only the faces whose M moved far enough to hold either, and both
numbers keep the bits of the full spectrum.

Compositions and forces are shaped (..., n) and every public per-state
function is batched over the leading axes; one state is the batch of
shape ().  Each public function checks its inputs once, at entry: a raw
composition and D by :func:`_checked` (the ``thermo._as_x`` rule that
``thermo`` states, and the D rule), forces by :func:`_as_d` (``DrivingForce``'s
rule: finite and summing to zero, else ``ValueError``); it then calls only
private bodies.  A, A_S and B have no public entry: ``spectrum`` reports A's
eigenvalues and delta, and the two flux routes solve with A and B.  Every
check runs per row (its own norm, residual or pivot), and a row that fails
a hard check raises for the call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConvex, SingularSystem
from .mixture import (Composition, DrivingForce, FluxSet, _check_species, _eigvalsh,
                      _first_true, _inverse_diffusivities, _unbatch, simplex_basis)
from .thermo import ThermoModel, _as_x, floor_composition


def _checked(x, dmat, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The one entry check: ``x`` by ``_as_x`` under ``what``, the D rule, the
    species counts.  Returns the floored x and 1/D."""
    x = _as_x(x, what)
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x)
    return floor_composition(x), inv


def _assemble_A(x: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Flux-force matrix A(x) from the inverse diffusivities: off-diagonal
    x_i / D_ij, diagonal -s_i.  Batched over leading axes of ``x``; no floor."""
    return _with_diagonal(x[..., :, None] * inv, inv, x)


def _with_diagonal(a: np.ndarray, inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a`` with its diagonal set to -s_i = -sum_k x_k / D_ik."""
    idx = np.arange(inv.shape[0])
    a[..., idx, idx] = -np.einsum("ik,...k->...i", inv, x)
    return a


def _assemble_A_sym(x: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Symmetrized form A_S = X^{-1/2} A X^{1/2}: off-diagonal
    sqrt(x_i x_j) / D_ij, same diagonal as A, null vector sqrt(x); no floor."""
    rx = np.sqrt(x)
    return _with_diagonal(rx[..., :, None] * rx[..., None, :] * inv, inv, x)


def _assemble_B(x: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Reduced (n-1)x(n-1) matrix B of the system B J' = -c_tot d' obtained
    by eliminating the last flux: B_ij = x_i (1/D_in - 1/D_ij) for i != j and
    B_ii = x_i / D_in + sum_{k != i} x_k / D_ik.  From the inverse
    diffusivities; no floor."""
    m = inv.shape[0] - 1
    col_n = inv[:m, m]
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


def spectrum(x, dmat) -> SpectrumReport:
    """Eigenvalues of A via the symmetric similar matrix A_S, and
    delta = min_{i != j} 1 / D_ij; each row's zero eigenvalue is tested
    against its own scaled ||A_S|| (:func:`_norm`)."""
    x, inv = _checked(x, dmat, "spectrum")
    a_sym = _assemble_A_sym(x, inv)
    w = _eigvalsh(a_sym)[..., ::-1]  # descending
    delta = float(inv[~np.eye(len(inv), dtype=bool)].min())
    gap_ok = ((np.abs(w[..., 0]) <= 1e-10 * _norm(a_sym, (-2, -1)))
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


def _norm(v: np.ndarray, axis) -> np.ndarray:
    """The 2-norm of ``v`` over ``axis`` (Frobenius over two axes) as
    s ||v / s|| with s = max|v| (at least the smallest normal float): it
    overflows only where the norm does, while ``np.linalg.norm`` alone
    squares each entry.  NaN where ``v`` holds an inf or a NaN."""
    s = np.maximum(np.max(np.abs(v), axis=axis, keepdims=True), np.finfo(float).tiny)
    return s.squeeze(axis) * np.linalg.norm(v / s, axis=axis)


def solve_fluxes_invariant(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from A J = c_tot d, solved on the zero-sum subspace.

    Verifies each row's residual of the singular system before returning;
    a row whose J or residual scale overflows fails the check too.
    """
    dv = _as_d(d)
    x = floor_composition(comp.x)
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=x, d=dv)
    a = _assemble_A(x, inv)  # for the residual check
    c_tot = np.asarray(comp.c_tot)
    # the residual check rejects an overflow, or the NaN a zero pivot leaves
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rhs = c_tot[..., None] * dv  # the composition's batch, broadcast with the forces'
        j = _fluxes_projected(np.broadcast_to(x, rhs.shape), rhs, _reduced_tensor(inv))
        resid = _norm((a @ j[..., None])[..., 0] - rhs, -1)
        scale = _norm(a, (-2, -1)) * _norm(j, -1) + c_tot * _norm(dv, -1)
    bad = ~((scale < np.inf) & ((scale == 0) | (resid <= 1e-10 * scale)))  # NaN fails too
    if np.any(bad):
        k = _first_true(bad)
        raise SingularSystem(f"projected solve residual {resid[k].item()!r} "
                             f"(scale {scale[k].item()!r})")
    return FluxSet(J=j - j.mean(axis=-1, keepdims=True))


def solve_fluxes_reduced(comp: Composition, dmat, d) -> FluxSet:
    """Fluxes from the reduced system B J' = -c_tot d' by Gaussian
    elimination with partial pivoting, per row; the last flux closes the
    zero sum.  A pivot below 1e-14 ||B|| in any row, or a flux that
    overflows, raises ``SingularSystem``."""
    dv = _as_d(d)
    inv = _inverse_diffusivities(dmat)
    _check_species(inv, x=comp.x, d=dv)
    b = _assemble_B(comp.x, inv)
    # the pivot and finiteness checks below reject a zero pivot or an overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rhs = -np.asarray(comp.c_tot)[..., None] * dv[..., :-1]
        b = np.broadcast_to(b, rhs.shape[:-1] + b.shape[-2:])
        jr, pivots = _eliminate(b, rhs)
        j = np.concatenate([jr, -jr.sum(axis=-1, keepdims=True)], axis=-1)
    if np.any(np.abs(pivots) < 1e-14 * _norm(b, (-2, -1))[..., None]):
        raise SingularSystem("vanishing pivot in the reduced-system elimination")
    if not np.isfinite(j).all():
        raise SingularSystem(f"reduced-system flux {j[_first_true(~np.isfinite(j))].item()!r}"
                             " (overflow or an invalid operation)")
    return FluxSet(J=j)


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


def _operator_matrix(x: np.ndarray, inv: np.ndarray, amat=None) -> np.ndarray:
    """The symmetric M, species-major (m, m, rows) with m = n - 1, whose
    eigenvalues give the diffusion operator's on each row of ``x`` (..., n),
    n >= 3: C = L^{-1} G L^{-T} for the Margules ``amat`` (the operator's
    eigenvalues), N on ideal thermo (their reciprocals).

    With A_S = X^{-1/2} A X^{1/2} and Q an orthonormal basis of the
    complement of sqrt(x), the operator's eigenvalues are those of the
    symmetric definite pencil (G, N): N = -Q^T A_S Q >= delta and
    G = I + Q^T X^{1/2} A_m X^{1/2} Q (G = I on ideal thermo).  Q is the
    first n-1 columns of one Householder reflector H = I - beta v v^T per
    row, mapping u = sqrt(x)/||sqrt(x)|| to -e_n (v = u + e_n,
    beta = 1 / (1 + u_n)).  For a symmetric S with w = S v,
    H S H = S - v z^T - z v^T where z = beta w - beta^2 (v^T w) v / 2; for
    A_S, whose null vector is u, w = A_S e_n and v^T w = -s_n.  Then
    N = L L^T (Cholesky).  Everything runs species-major; C is symmetric
    up to rounding, and ``eigvalsh`` reads its lower triangle.  No floor or
    domain check."""
    n = x.shape[-1]
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
    if amat is None:
        return big_n
    v = u.copy()
    v[m] += 1.0
    w = r * (amat @ (r * v))  # the same update for S = X^{1/2} A_m X^{1/2}
    y = beta * w[:m] - (0.5 * beta * beta * np.add.reduce(v * w, axis=0)) * v[:m]
    g = np.multiply(rr, amat[:m, :m, None], out=rr)
    g -= v[:m, None] * y
    g -= y[:, None] * v[:m]
    g[idx, idx] += 1.0
    lo = _cholesky(big_n)
    return _forward(lo, _forward(lo, g).swapaxes(0, 1))  # in place of g


#: The slack, per unit of m^2 ||M||_2, that covers ``eigvalsh``'s own rounding
#: (backward stable: its eigenvalues are exact for M + E, ||E||_2 <= c m^2 eps ||M||_2)
#: and the rounding of the Frobenius distance in :func:`_operator_eigenvalues`'s screen.
_EIG_SLACK = 64 * np.finfo(float).eps


def _operator_eigenvalues(x: np.ndarray, inv: np.ndarray, amat=None, anchor=None):
    """Real eigenvalues of the diffusion operator per row of ``x`` (..., n),
    ascending and shaped (rows, n-1), from the paper's symmetrization by
    X^{1/2}, and the anchor for the next call.  No floor or domain check.

    At n = 2 the pencil of :func:`_operator_matrix` is 1x1: with
    s = x_1 + x_2, N = s / D_12 and G = 1 - 2 a x_1 x_2 / s for
    a = A_m[0, 1], and the eigenvalue is G / N; the anchor is ``None``.
    For n >= 3 ``_eigvalsh`` solves that function's M: the eigenvalues of
    C, or on ideal thermo the reciprocals of N's.  Without an ``anchor``
    every row is solved, and the anchor returned is (M, its eigenvalues).

    With the anchor of an earlier call on faces of the same shape
    (faces, n), the call screens and updates the anchor in place: it returns
    the eigenvalues (k, n-1) of the k faces that can hold the smallest or
    the largest over all faces, whose minimum and maximum have the bits of
    the full spectrum's.  delta_f = ||M_f - anchor_f||_F over the lower
    triangles that ``eigvalsh`` reads bounds ||M_f - anchor_f||_2, so by
    Weyl's inequality every eigenvalue of M_f lies within delta_f of the
    anchor's; widened by the slack
    tau_f >= _EIG_SLACK m^2 (||anchor_f||_2 + ||M_f||_2), that interval
    also holds what ``eigvalsh`` would return for M_f.  A face whose M_f has
    the anchor's bits keeps the anchor's eigenvalues, which ``eigvalsh``
    would return again.  Any other face is solved unless its interval
    certifies both verdicts: its smallest eigenvalue is above tau_f (so the
    sign that ``NotConvex`` reads is positive), and the extreme that sets
    lambda_max (C's largest, N's smallest) cannot reach the guaranteed bound
    of the faces whose intervals are nearest it.  The face that sets that
    bound, and every face with an eigenvalue <= 0, is solved or kept."""
    n = x.shape[-1]
    if n == 2:
        s = x[..., 0] + x[..., 1]
        g = 1.0 if amat is None else 1.0 - 2.0 * amat[0, 1] * x[..., 0] * x[..., 1] / s
        return (g / (s * inv[0, 1])).reshape(-1, 1), None
    mat = _operator_matrix(x, inv, amat)
    if anchor is None:
        eig = _eigvalsh(mat.transpose(2, 0, 1))
        anchor = mat, eig
    else:
        a_mat, eig = anchor
        m = n - 1
        same = ~np.logical_or.reduce(mat.view(np.int64) != a_mat.view(np.int64), axis=(0, 1))
        weight = np.tri(m) + np.tri(m, k=-1)  # the lower triangle, as eigvalsh reads it
        delta = np.sqrt(np.einsum("ij,ijf->f", weight, np.square(mat - a_mat)))
        lo, hi = eig[:, 0], eig[:, -1]
        tau = (_EIG_SLACK * m * m) * (2.0 * np.maximum(np.abs(lo), np.abs(hi)) + delta)
        reach = delta + tau
        top = -lo if amat is None else hi  # the extreme that sets lambda_max
        solve = ~same & ((top + reach >= (top - reach).max()) | ~(lo - reach > tau))
        faces = np.flatnonzero(solve)
        if faces.size:
            eig[faces] = _eigvalsh(mat[:, :, faces].transpose(2, 0, 1))
            a_mat[:, :, faces] = mat[:, :, faces]
        eig = eig[same | solve]
    return (1.0 / eig[:, ::-1] if amat is None else eig), anchor  # G = I: N's reciprocals


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
    of the species equations at this state.  ``x`` goes through
    ``thermo._as_x``, the per-state composition rule (an x without a species
    axis or with one species raises ``ValueError``; a NaN, inf or negative
    entry raises ``DegenerateComposition``; a row that does not sum to 1
    within SUM_TOL + n X_FLOOR, as floored rows do, raises ``ValueError``),
    and is then floored.  With ``require_convex``, a row whose
    smallest eigenvalue is <= 0 raises ``NotConvex``: by Sylvester's law of
    inertia the pencil's eigenvalues have the signs of G, which is congruent
    to the X^{-1} Gamma form on the zero-sum subspace, so this is the
    strong-convexity verdict (the sign of ``thermo.convexity_check``).  An
    operator matrix that overflows raises ``EigSolverFailure``.
    """
    x, inv = _checked(x, dmat, "diffusion_operator_spectrum")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: +-inf, or an M _eigvalsh rejects
        lam = _operator_eigenvalues(x, inv, model.interactions(x.shape[-1]))[0]
    lam = lam[:, ::-1].reshape(x.shape[:-1] + lam.shape[-1:])  # descending
    low = lam[..., -1]
    if require_convex and np.any(low <= 0):
        raise NotConvex("Gibbs energy not strongly convex: operator eigenvalue "
                        f"{low[_first_true(low <= 0)].item()!r} <= 0")
    return lam
