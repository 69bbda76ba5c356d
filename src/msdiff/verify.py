"""Independent oracles and global diagnostics: the entropy/Lyapunov
ledger, the binary filtration-equation reference solver, ternary
closed-form checks, cross-diffusion phenomenon detectors, and the
property sweep that ``msdiff verify`` prints, whose states are drawn in
closed form (:func:`_interior_samples`: one scaled Dirichlet draw per check)."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import mskernel, thermo  # the sweep calls attributes: wrappers see each call
from .errors import NonMonotoneFlux
from .mixture import Composition, MixtureSpec, _inverse_diffusivities, _unbatch
from .solver import Field, Grid1D, Trajectory, face_fluxes
from .thermo import IDEAL, ThermoModel, _as_x

#: Pointwise dissipation tolerance, relative to |V(0)|.
W_TOL_REL = 1e-10

#: Lyapunov-balance slack, relative to |V(0)| (explicit-stepping error).
LYAP_TOL_REL = 1e-6

#: detect_uphill: fluxes and gradients below this fraction of their maximum are 0.
UPHILL_REL_TOL = 1e-10

#: filtration_oracle's step: this fraction of its explicit stability limit.
ORACLE_CFL = 0.3


@dataclass
class EntropyLedger:
    """Entropy V, dissipation W, and the cumulative dissipation integral
    per checkpoint, with the Lyapunov-couple verdict.

    Invariants checked: W >= -1e-10 |V(0)| at every checkpoint, and
    V(t) + integral_0^t W ds <= V(0) + 1e-6 |V(0)|.
    """
    times: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray
    cumulative_dissipation: np.ndarray
    ok: bool
    violations: list[str] = dc_field(default_factory=list)

    @property
    def balance_defect(self) -> np.ndarray:
        """V(t) + integral W - V(0); nonpositive up to stepping error."""
        return self.entropy + self.cumulative_dissipation - self.entropy[0]


def entropy_ledger(trajectory: Trajectory, model: ThermoModel | None = None) -> EntropyLedger:
    """Build the Lyapunov ledger from a trajectory's checkpoints.

    Uses the V and W recorded per checkpoint together with the solver's
    per-step trapezoid integral of W (checkpoint-level quadrature would
    alias steep transients); reports every violated invariant with the
    first offending checkpoint.
    """
    t = trajectory.times
    v = np.array([cp.entropy for cp in trajectory.checkpoints])
    w = np.array([cp.dissipation for cp in trajectory.checkpoints])
    cum = np.array([cp.cumulative_dissipation for cp in trajectory.checkpoints])
    v0 = abs(v[0])
    violations: list[str] = []
    neg = np.nonzero(w < -W_TOL_REL * v0)[0]
    if neg.size:
        k = int(neg[0])
        violations.append(
            f"dissipation W = {float(w[k])!r} < 0 at checkpoint {k} (t = {float(t[k])!r})")
    excess = np.nonzero(v + cum > v[0] + LYAP_TOL_REL * v0)[0]
    if excess.size:
        k = int(excess[0])
        violations.append(
            f"Lyapunov balance violated at checkpoint {k} (t = {float(t[k])!r}): "
            f"V + int W - V0 = {float(v[k] + cum[k] - v[0])!r}")
    return EntropyLedger(times=t, entropy=v, dissipation=w,
                         cumulative_dissipation=cum,
                         ok=not violations, violations=violations)


def filtration_oracle(c0, model: ThermoModel | None, d12: float, grid: Grid1D,
                      t_end: float, c_tot: float | None = None) -> np.ndarray:
    """Scalar reference solver for the exact binary reduction
    d_t c = Lap(phi(c)) with zero-flux walls.

    For the ideal model phi(c) = d12 * c (heat equation); for the binary
    two-suffix model with interaction a the flux derivative is
    phi'(c) = d12 (1 - 2 a x (1 - x)) with x = c / c_tot.  Raises
    ``NonMonotoneFlux`` when phi' <= 0 on the traversed range, and
    ``ValueError`` for a non-finite ``c0``, a ``t_end`` not finite and
    nonnegative, or a ``d12`` or given ``c_tot`` not in (0, inf).
    """
    c = np.array(c0, dtype=float)
    if c.ndim != 1 or c.size != grid.ncells:
        raise ValueError(f"profile shape {c.shape} does not match grid {grid.ncells}")
    if not np.all(np.isfinite(c)):
        raise ValueError("c0 must be finite")
    if not 0.0 <= t_end < np.inf:
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end!r}")
    if not 0.0 < d12 < np.inf:
        raise ValueError(f"d12 must be in (0, inf), got {d12!r}")
    if c_tot is not None and not 0.0 < c_tot < np.inf:
        raise ValueError(f"c_tot must be in (0, inf), got {c_tot!r}")
    amat = (model or IDEAL).interactions(2)
    a = 0.0 if amat is None else float(amat[0, 1])
    if a != 0.0 and c_tot is None:
        raise ValueError("c_tot is required for the nonideal binary flux")
    ct = float(c_tot) if c_tot is not None else 1.0

    def phi(s):
        if a == 0.0:
            return d12 * s
        return d12 * (s - a * s**2 / ct + (2.0 * a / 3.0) * s**3 / ct**2)

    def phi_prime(s):
        if a == 0.0:
            return np.full_like(s, d12)
        x = s / ct
        return d12 * (1.0 - 2.0 * a * x * (1.0 - x))

    h = grid.h
    t = 0.0
    while t < t_end * (1.0 - 1e-12):
        dp = phi_prime(c)
        if np.any(dp <= 0):
            k = int(np.argmin(dp))
            raise NonMonotoneFlux(
                f"phi'({float(c[k])!r}) = {float(dp[k])!r} <= 0: chemical potential not "
                "increasing in concentration (phase-splitting regime)")
        dt = min(ORACLE_CFL * h * h / (2.0 * float(dp.max())), t_end - t)
        p = phi(c)
        lap = np.empty_like(c)
        lap[1:-1] = p[2:] - 2.0 * p[1:-1] + p[:-2]
        lap[0] = p[1] - p[0]      # zero-flux ghost: mirror edge value
        lap[-1] = p[-2] - p[-1]
        c = c + (dt / (h * h)) * lap
        t += dt
    return c


@dataclass(frozen=True)
class CrossDiffusionEvent:
    """One detected cross-diffusion occurrence at a face."""
    kind: str       # "uphill" (J aligned with grad c) or "osmotic" (J without grad)
    time: float
    face: int       # interior-face index, 0-based from the leftmost interior face
    species: int
    flux: float
    grad_c: float


def detect_uphill(obj, spec: MixtureSpec,
                  model: ThermoModel | None = None) -> list[CrossDiffusionEvent]:
    """Scan a field or trajectory for uphill diffusion (flux with a
    positive component along the species' own gradient) and osmotic
    diffusion (flux where the gradient vanishes).

    An empty report is a valid outcome; binary ideal systems always
    produce one.
    """
    if isinstance(obj, Trajectory):
        fields = [Field(c=cp.c, grid=obj.grid, time=cp.time) for cp in obj.checkpoints]
    else:
        fields = [obj]
    events: list[CrossDiffusionEvent] = []
    for fld in fields:
        jf = face_fluxes(fld, spec, model)[1:-1]
        grad = (fld.c[1:] - fld.c[:-1]) / fld.grid.h
        fscale = float(np.max(np.abs(jf)))
        gscale = float(np.max(np.abs(grad)))
        if fscale == 0.0:
            continue
        # masks over faces x species; row-major nonzero keeps scan order
        osmotic = ((np.abs(grad) <= UPHILL_REL_TOL * gscale)
                   & (np.abs(jf) > UPHILL_REL_TOL * fscale))
        uphill = ~osmotic & (jf * grad > UPHILL_REL_TOL * fscale * gscale)
        for face, sp in zip(*np.nonzero(osmotic | uphill)):
            events.append(CrossDiffusionEvent(
                "osmotic" if osmotic[face, sp] else "uphill", fld.time,
                int(face), int(sp), float(jf[face, sp]), float(grad[face, sp])))
    return events


@dataclass(frozen=True)
class TernaryReport:
    """Closed-form det/trace of the reduced ternary matrix and the
    sector certificate for its inverse's spectrum: scalars for one
    composition, arrays of the batch shape for a stack."""
    det_b: float | np.ndarray
    tr_b: float | np.ndarray
    matches_assembly: bool | np.ndarray
    sector_ok: bool | np.ndarray


def ternary_closed_forms(x, dmat) -> TernaryReport:
    """Closed forms for n = 3:

        det B = x1/(D12 D13) + x2/(D12 D23) + x3/(D13 D23)
        tr  B = (x1+x2)/D12 + (x1+x3)/D13 + (x2+x3)/D23

    compared against the assembled B to 1e-12 relative; sector_ok
    requires (tr B)^2 >= 3 det B and the eigenvalues of B^{-1} within
    angle pi/6 of the positive real axis.  Evaluated per row of ``x``
    shaped (..., 3).
    """
    x = _as_x(x, "ternary_closed_forms")
    d = np.asarray(dmat, dtype=float)
    _inverse_diffusivities(d)  # the D rule, before the closed forms divide by D
    if x.shape[-1:] != (3,) or d.shape != (3, 3):
        raise ValueError("ternary closed forms require exactly 3 species")
    d12, d13, d23 = d[0, 1], d[0, 2], d[1, 2]
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    det_cf = x1 / (d12 * d13) + x2 / (d12 * d23) + x3 / (d13 * d23)
    tr_cf = (x1 + x2) / d12 + (x1 + x3) / d13 + (x2 + x3) / d23
    b = mskernel.assemble_B(x, d)
    det_as = np.linalg.det(b)
    tr_as = np.trace(b, axis1=-2, axis2=-1)
    matches = ((np.abs(det_as - det_cf) <= 1e-12 * np.abs(det_cf))
               & (np.abs(tr_as - tr_cf) <= 1e-12 * np.abs(tr_cf)))
    # eigenvalues of B^{-1} have the same argument magnitudes as those of B
    eig = np.linalg.eigvals(b)
    sector = ((tr_cf**2 >= 3.0 * det_cf * (1.0 - 1e-12))
              & np.all(np.abs(np.angle(eig)) < np.pi / 6, axis=-1))
    return TernaryReport(det_b=_unbatch(det_cf), tr_b=_unbatch(tr_cf),
                         matches_assembly=_unbatch(matches),
                         sector_ok=_unbatch(sector))


#: Random states drawn per :func:`property_sweep` check.
VERIFY_SAMPLES = 200


def _interior_samples(rng, n: int, k: int) -> np.ndarray:
    """``k`` Dirichlet(1) compositions conditioned on every x_i >= 1e-3,
    shaped (k, n).  Dirichlet(1) is uniform on the simplex, so that law is
    uniform on the sub-simplex 1e-3 + (1 - 1e-3 n) Delta: one draw, scaled."""
    return 1e-3 + (1.0 - 1e-3 * n) * rng.dirichlet(np.ones(n), size=k)


def _paired_samples(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """VERIFY_SAMPLES compositions and VERIFY_SAMPLES standard-normal
    vectors made zero-sum, drawn in that order; both shaped (VERIFY_SAMPLES, n)."""
    x = _interior_samples(rng, n, VERIFY_SAMPLES)
    v = rng.standard_normal((VERIFY_SAMPLES, n))
    v -= v.mean(axis=1, keepdims=True)
    v[:, -1] = -v[:, :-1].sum(axis=1)  # rows sum to exactly 0, as driving_force requires
    return x, v


def _row(name: str, fails: int) -> tuple[str, str, str]:
    return (name, "PASS" if fails == 0 else "FAIL",
            f"{VERIFY_SAMPLES - fails}/{VERIFY_SAMPLES}")


def flux_routes(comp, dmat, d):
    """``(J_inv, J_red, agreement)`` by the invariant and reduced routes;
    agreement = max|J_inv - J_red| / max(max|J_inv|, 1e-300) per row."""
    ji = mskernel.solve_fluxes_invariant(comp, dmat, d).J
    jr = mskernel.solve_fluxes_reduced(comp, dmat, d).J
    scale = np.maximum(np.max(np.abs(ji), axis=-1), 1e-300)
    return ji, jr, np.max(np.abs(ji - jr), axis=-1) / scale


def property_sweep(spec: MixtureSpec, model: ThermoModel,
                   seed: int) -> list[tuple[str, str, str]]:
    """One ``(name, PASS|FAIL|XFAIL, detail)`` row per property check.
    Each check draws its VERIFY_SAMPLES states from the ``seed`` stream
    and makes one batched call per kernel function, a verdict per state."""
    rng = np.random.default_rng(seed)
    n, dmat = spec.n, spec.dmat
    rep = mskernel.spectrum(_interior_samples(rng, n, VERIFY_SAMPLES), dmat)
    rows = [_row("spectral-gap", VERIFY_SAMPLES - np.count_nonzero(rep.gap_ok))]

    x, d = _paired_samples(rng, n)
    agreement = flux_routes(Composition(x=x, c_tot=1.0), dmat, d)[2]
    rows.append(_row("flux-route-agreement", np.count_nonzero(agreement > 1e-10)))

    if n == 3:
        tern = ternary_closed_forms(_interior_samples(rng, 3, VERIFY_SAMPLES), dmat)
        rows.append(_row("ternary-closed-forms", np.count_nonzero(
            ~(tern.matches_assembly & tern.sector_ok))))

    x = _interior_samples(rng, n, VERIFY_SAMPLES)
    convex = thermo.convexity_check(model, x) > 0
    w = mskernel.diffusion_operator_spectrum(x[convex], dmat, model, require_convex=False)
    not_convex = VERIFY_SAMPLES - np.count_nonzero(convex)
    if not_convex:
        rows.append(("normal-ellipticity", "XFAIL", f"NotConvex at {not_convex}/"
                     f"{VERIFY_SAMPLES} states (phase-splitting thermo)"))
    else:
        rows.append(_row("normal-ellipticity", np.count_nonzero(np.min(w, axis=-1) <= 0)))

    # every state draws its gradient; only strongly convex states are checked
    x, g = _paired_samples(rng, n)
    convex = thermo.convexity_check(model, x) > 0
    comp = Composition(x=x[convex], c_tot=1.0)
    d = thermo.driving_force(model, comp, g[convex])
    jmu = mskernel.solve_fluxes_invariant(comp, dmat, d).J * (d.d / comp.x)
    rows.append(_row("pointwise-entropy", np.count_nonzero(
        -jmu.sum(axis=1) < -1e-12 * np.maximum(np.max(np.abs(jmu), axis=1), 1e-300))))
    return rows
