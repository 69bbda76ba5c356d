"""1-D finite-volume simulator for isobaric, isothermal multicomponent
reaction-diffusion with zero-flux boundaries.

The species equations dc/dt + div J = r are discretized on a uniform
grid; fluxes at interior faces come from the flux-force inversion in
:mod:`msdiff.mskernel` evaluated at arithmetic-mean face compositions,
and time stepping is explicit Euler with an adaptive step bounded by the
spectral radius of the effective diffusion operator.  ``simulate`` is the
one runner: it alone advances a state, and it owns the schedule of dt
refreshes and checkpoints (see its docstring).  ``face_fluxes`` (J) and
``stable_dt`` (the dt bound) are one-state queries over one kernel pass.

Inputs are validated on construction (``Grid1D``, ``Field``, ``Reaction``,
``ReactionNetwork``, ``SimConfig``) and by the kernel set-up (the species
counts of the field and a nonempty network, and ``cfl_safety`` in (0, 1])
at each of the three entry points.  The kernel owns a run's inputs; each
step is one kernel pass over plain arrays that evaluates the reaction
rates once, and a checkpoint keeps the array the kernel has just checked
and reads V and W from the kernel's state (its mu and dissipation).  Exact
zeros go through ``thermo.floor_composition``.  A non-finite rate or flux,
or a step that leaves a NaN or -inf in the state, raises ``NonFiniteState``
without numpy warnings; per-cell totals that drift apart raise
``IsobaricDrift``.

The kernel's set-up resolves a run's coefficients once: 1/D, the tensor T
of the reduced flux-force matrices and the Margules A (``None`` on ideal
thermo).  Each step then calls only unchecked helpers on those arrays: one
projected solve for all faces (:func:`msdiff.mskernel._fluxes_projected`,
K = x_f @ T) and Gamma applied to the forces without forming it; on the
pass's x_f, ``_Kernel.dt_bound`` makes one call at every n to
``diffusion_operator_spectrum``'s route to the spectrum (the X^{1/2}
pencil, :func:`msdiff.mskernel._operator_eigenvalues`).  The kernel keeps
the anchor that call returns (for n >= 3, the last matrix solved exactly
per face) and passes it back, so each later refresh screens the faces
against it by Weyl's inequality: ``eigvalsh`` runs only on the faces that
can hold the largest eigenvalue or an eigenvalue <= 0, and dt and the
``NotConvex`` verdict stay exact, bit for bit.  An all-ones
(n, n) matrix makes the row sums of c and x_f one product each, which
divide without a broadcast; per-step reductions call ``np.*.reduce``
directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import (IsobaricDrift, MaxStepsExceeded, NonFiniteState, NotConvex,
                     PositivityViolation)
from .mixture import CLAMP_REL, MixtureSpec, _first_true, _inverse_diffusivities
from .mskernel import _fluxes_projected, _operator_eigenvalues, _reduced_tensor
from .thermo import IDEAL, ThermoModel, _gamma_dot, _ln_gamma_x, floor_composition

#: Relative tolerance on per-cell total-concentration uniformity.
ISOBARIC_TOL = 1e-8

#: The dt bound is recomputed every this many steps.
DT_REFRESH_STEPS = 10

#: The numpy guard of simulate, stable_dt and face_fluxes: NonFiniteState reports overflow.
_fail_closed = np.errstate(over="ignore", invalid="ignore")


def _count(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, or an integral float.
    Anything else (a bool, a string, a fraction, inf) raises ``ValueError``."""
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating)) and value.is_integer()):
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{what} must be an integer, got {shown!r}")
    return int(value)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with zero-flux boundary faces; stores ``ncells``
    as an int (see :func:`_count`) and ``length`` as a float."""
    ncells: int
    length: float

    def __post_init__(self):
        object.__setattr__(self, "ncells", _count(self.ncells, "ncells"))
        object.__setattr__(self, "length", float(self.length))
        if self.ncells < 2:
            raise ValueError(f"need >= 2 cells, got {self.ncells}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"domain length must be positive and finite: {self.length!r}")
        if not self.h >= np.finfo(float).tiny:  # h = 0 would divide by zero
            raise ValueError(f"cell width length / ncells = {self.h!r} is zero or subnormal")
        if not self.h * self.h >= np.finfo(float).tiny:  # dt ~ h^2 would not advance t
            raise ValueError(f"cell width length / ncells = {self.h!r} has a square "
                             "that is zero or subnormal")

    @property
    def h(self) -> float:
        return self.length / self.ncells

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.ncells) + 0.5) * self.h


@dataclass(frozen=True)
class Field:
    """Per-cell concentration vectors at one instant; stores ``time`` as a
    float, which must be finite."""
    c: np.ndarray
    grid: Grid1D
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        if not np.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time!r}")
        c = np.array(self.c, dtype=float)
        if c.ndim != 2 or c.shape[0] != self.grid.ncells:
            raise ValueError(f"c must be (ncells, nspecies), got {c.shape}")
        if not np.all((c >= 0) & (c < np.inf)):
            raise ValueError("concentrations must be finite and nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):
            totals = c @ np.ones((c.shape[1], 1))
            if _uniform_total(totals) is None:
                rule = "positive and uniform"
                if np.add.reduce(totals, axis=None) < np.inf:
                    raise ValueError(f"per-cell total concentration must be {rule}")
                raise ValueError(f"the per-cell total concentrations sum to inf over "
                                 f"{c.shape[0]} cells: they must be {rule}, with a finite sum")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def nspecies(self) -> int:
        return self.c.shape[1]


@dataclass(frozen=True)
class Reaction:
    """One mass-action reaction: rate = k * prod_i c_i^reactants_i."""
    reactants: np.ndarray
    products: np.ndarray
    rate_constant: float

    def __post_init__(self):
        object.__setattr__(self, "rate_constant", float(self.rate_constant))
        r = np.array(self.reactants, dtype=float)
        p = np.array(self.products, dtype=float)
        if r.shape != p.shape or r.ndim != 1:
            raise ValueError("reactant/product stoichiometries must be equal-length vectors")
        if not np.all((0 <= r) & (r < np.inf) & (0 <= p) & (p < np.inf)):  # NaN fails
            raise ValueError("stoichiometric coefficients must be finite and nonnegative")
        if not 0 <= self.rate_constant < np.inf:
            raise ValueError("rate constant must be nonnegative and finite")
        if p.sum() != r.sum():
            raise ValueError(
                "reaction must conserve total moles (isobaric constraint): "
                f"{r} -> {p}")
        r.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "reactants", r)
        object.__setattr__(self, "products", p)


@dataclass(frozen=True)
class ReactionNetwork:
    """Mole-conserving mass-action network; the induced rate function is
    quasi-positive by construction.  All reactions need one species count."""
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        rxs = tuple(self.reactions)
        sizes = sorted({rx.reactants.size for rx in rxs})
        if len(sizes) > 1:
            raise ValueError(f"reactions must have one species count, got {sizes}")
        object.__setattr__(self, "reactions", rxs)
        object.__setattr__(self, "_k", np.array([rx.rate_constant for rx in rxs]))
        object.__setattr__(self, "_orders", np.array([rx.reactants for rx in rxs]))
        object.__setattr__(self, "_net", np.array([rx.products for rx in rxs]) - self._orders)

    @property
    def nspecies(self) -> int | None:
        """Species count of every reaction; None for the empty network."""
        return self._orders.shape[1] if self.reactions else None

    def rates(self, c: np.ndarray) -> np.ndarray:
        """Net production rates f(c), batched over leading axes; the last
        axis of ``c`` must hold the network's species (``ValueError``)."""
        c = np.asarray(c, dtype=float)
        if not self.reactions:
            return np.zeros_like(c)
        if c.shape[-1:] != self._orders.shape[1:]:
            raise ValueError(f"c has {c.shape[-1] if c.ndim else 0} species, "
                             f"reaction network has {self.nspecies} species")
        # species-major (n, reactions, rows): each reduction runs over axis 0,
        # in its sequential order
        cs = c.reshape(-1, c.shape[-1]).T[:, None]
        rate = self._k[:, None] * np.multiply.reduce(np.power(cs, self._orders.T[:, :, None]),
                                                     axis=0)
        return np.add.reduce(rate[:, :, None] * self._net[:, None], axis=0,
                             initial=0.0).reshape(c.shape)


NO_REACTIONS = ReactionNetwork(reactions=())


@dataclass(frozen=True)
class SimConfig:
    """Time-stepping and checkpointing controls.  The composition floor
    (``thermo.X_FLOOR``) and the dt refresh cadence are fixed.  Stores
    the times and ``cfl_safety`` as floats and ``max_steps`` as an int."""
    t_end: float
    cfl_safety: float = 0.4
    checkpoint_interval: float | None = None  # None: simulate takes a 50th of the span
    max_steps: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "cfl_safety", float(self.cfl_safety))
        if self.checkpoint_interval is not None:
            object.__setattr__(self, "checkpoint_interval", float(self.checkpoint_interval))
        object.__setattr__(self, "max_steps", _count(self.max_steps, "max_steps"))
        if not 0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        _check_cfl(self.cfl_safety)
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")
        if not (self.checkpoint_interval is None or 0 < self.checkpoint_interval < np.inf):
            raise ValueError("checkpoint_interval must be positive and finite")


class _State(NamedTuple):
    """What one step needs at concentrations ``c``."""
    c: np.ndarray
    c_tot: float             # per-cell total, uniform to ISOBARIC_TOL
    jf: np.ndarray           # fluxes at all ncells+1 faces, zero at the walls
    w: float                 # dissipation W = -sum_faces sum_i J_i dmu_i
    mu: np.ndarray           # per-cell chemical potentials ln(gamma_i x_i), floored x
    xf: np.ndarray           # floored face compositions, the spectrum's input
    f: np.ndarray | None     # finite reaction rates r(c); None without reactions


def _uniform_total(totals: np.ndarray) -> float | None:
    """Mean per-cell total concentration; None unless it is positive and
    finite (an overflow fails) and every cell is within ISOBARIC_TOL of it."""
    ref = float(np.add.reduce(totals, axis=None) / totals.size)  # the bits of totals.mean()
    if 0 < ref < np.inf and (np.maximum.reduce(np.abs(totals - ref), axis=None)
                             <= ISOBARIC_TOL * ref):
        return ref
    return None


def _check_cfl(cfl_safety: float) -> float:
    """``cfl_safety`` if it is in (0, 1], else ``ValueError``."""
    if not 0 < cfl_safety <= 1:
        raise ValueError("cfl_safety must be in (0, 1]")
    return cfl_safety


class _Kernel:
    """The step kernel, owner of a run's inputs: set up once, then one call per
    step computes face states, fluxes, W and rates; ``dt_bound`` bounds dt."""

    def __init__(self, spec: MixtureSpec, model: ThermoModel | None, field: Field,
                 reactions: ReactionNetwork = NO_REACTIONS,
                 cfl_safety: float = SimConfig.cfl_safety):
        for what, n in (("field", field.nspecies), ("reaction network", reactions.nspecies)):
            if n not in (None, spec.n):
                raise ValueError(f"{what} has {n} species, mixture has {spec.n} species")
        self.h, self.ones = field.grid.h, np.ones((spec.n, spec.n))
        self.reactions, self.cfl_safety = reactions, _check_cfl(cfl_safety)
        self.inv = _inverse_diffusivities(spec.dmat)
        self.t = _reduced_tensor(self.inv)
        # None on the ideal path, where Gamma = I is skipped
        self.amat = (model or IDEAL).interactions(spec.n)
        self.anchor = None  # n >= 3: the faces' last exact spectra (_operator_eigenvalues)

    def __call__(self, c: np.ndarray) -> _State:
        """Face compositions are floored arithmetic means, shared by the flux
        solve, Gamma and the spectrum; h cancels in W against the gradient."""
        totals = c @ self.ones
        c_tot = _uniform_total(totals[:, 0])
        if c_tot is None:
            raise IsobaricDrift("per-cell total concentrations are no longer positive "
                                f"and uniform to ISOBARIC_TOL = {ISOBARIC_TOL:g}")
        x = c / totals
        xf = 0.5 * (x[:-1] + x[1:])
        xf = floor_composition(xf / (xf @ self.ones))
        d = (x[1:] - x[:-1]) / self.h
        mu = _ln_gamma_x(floor_composition(x), self.amat)
        if self.amat is not None:
            d = _gamma_dot(xf, self.amat, d)
        j = _fluxes_projected(xf, 0.5 * (totals[:-1] + totals[1:]) * d, self.t)
        jf = np.zeros((c.shape[0] + 1, c.shape[1]))
        jf[1:-1] = j
        w = float(-np.add.reduce(j * (mu[1:] - mu[:-1]), axis=None))
        f = self.reactions.rates(c) if self.reactions.reactions else None
        if f is not None and not np.isfinite(f).all():
            cell, sp = _first_true(~np.isfinite(f))
            raise NonFiniteState(f"reaction rate f[{cell},{sp}] = {float(f[cell, sp])!r} "
                                 "(overflow or an invalid operation)")
        return _State(c=c, c_tot=c_tot, jf=jf, w=w, mu=mu, xf=xf, f=f)

    def dt_bound(self, st: _State) -> float:
        """cfl * h^2 / (2 lambda_max) from the spectrum at the faces of ``st``,
        capped so reactions change no concentration by more than 10% per step.
        For n >= 3, after the first refresh the spectrum is screened against
        the kernel's anchor: ``eigvalsh`` runs only on the faces that can hold
        its smallest or largest eigenvalue, and lambda_max and the
        ``NotConvex`` verdict keep the bits of the full spectrum."""
        lam, self.anchor = _operator_eigenvalues(st.xf, self.inv, self.amat, self.anchor)
        lam_min = float(lam.min())
        if lam_min <= 0:
            raise NotConvex(f"diffusion operator eigenvalue {lam_min!r} <= 0 at a face")
        dt = self.cfl_safety * self.h * self.h / (2.0 * float(lam.max()))
        if st.f is not None:
            neg, pos = st.f < 0, st.f > 0
            dt = min(dt, float(0.1 * np.min(st.c[neg] / -st.f[neg], initial=np.inf)),
                     float(np.min(0.1 * st.c_tot / st.f[pos], initial=np.inf)))
        return dt


@_fail_closed
def face_fluxes(field: Field, spec: MixtureSpec,
                model: ThermoModel | None = None) -> np.ndarray:
    """Fluxes at all ncells+1 faces; the two boundary faces carry zero
    flux (Neumann walls).  A flux that overflows, or an invalid operation,
    raises ``NonFiniteState``."""
    jf = _Kernel(spec, model, field)(field.c).jf
    if not np.isfinite(jf).all():
        face, sp = _first_true(~np.isfinite(jf))
        raise NonFiniteState(f"flux J[{face},{sp}] = {float(jf[face, sp])!r} at "
                             f"t = {field.time!r} (overflow or an invalid operation)")
    return jf


@_fail_closed
def stable_dt(field: Field, spec: MixtureSpec, model: ThermoModel | None = None,
              reactions: ReactionNetwork = NO_REACTIONS,
              cfl_safety: float = SimConfig.cfl_safety) -> float:
    """Explicit-Euler step bound: cfl * h^2 / (2 lambda_max) with
    lambda_max the largest diffusion-operator eigenvalue over all faces,
    further capped so reactions change no concentration by more than 10%
    per step.

    Raises ``NotConvex`` if the operator loses positivity at any face and
    ``NonFiniteState`` if a reaction rate is not finite.
    """
    kernel = _Kernel(spec, model, field, reactions, cfl_safety)
    return kernel.dt_bound(kernel(field.c))


def _advance(st: _State, dt: float, t: float, h: float) -> np.ndarray:
    """Concentrations after one explicit Euler step of length ``dt``
    from time ``t``."""
    rhs = (st.jf[:-1] - st.jf[1:]) / h
    if st.f is not None:
        rhs = rhs + st.f
    cn = st.c + dt * rhs
    lo = np.minimum.reduce(cn, axis=None)  # NaN if any entry is NaN
    if not lo >= -CLAMP_REL * st.c_tot:
        cell, sp = np.unravel_index(np.argmin(cn), cn.shape)  # the first NaN, if any
        if not np.isfinite(lo):
            raise NonFiniteState(f"c[{cell},{sp}] = {float(lo)!r} at t = {t + dt!r} "
                                 "(overflow or an invalid operation)")
        raise PositivityViolation(
            f"c[{cell},{sp}] = {cn[cell, sp].item()!r} at t = {t + dt!r} "
            "(CFL or model breach)")
    np.maximum(cn, 0.0, out=cn)
    return cn


@dataclass(frozen=True)
class Checkpoint:
    """Immutable trajectory snapshot with conserved-quantity and entropy
    diagnostics."""
    time: float
    c: np.ndarray
    masses: np.ndarray          # per-species global mass, sum_cells c * h
    entropy: float              # V = sum_cells G(c) h, RT units
    dissipation: float          # W = -sum_faces sum_i J_i dmu_i >= 0
    cumulative_dissipation: float  # int_0^t W ds, per-step trapezoid
    min_concentration: float


@dataclass
class Trajectory:
    """Checkpointed simulation history."""
    grid: Grid1D
    names: tuple[str, ...]
    checkpoints: list[Checkpoint] = dc_field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([cp.time for cp in self.checkpoints])

    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def _checkpoint(st: _State, t: float, h: float, cum_w: float) -> Checkpoint:
    """Snapshot of the kernel state ``st``: its c, which the kernel has
    checked and nothing writes again, is made read-only, not copied; W is
    its w, and V = h sum c mu, the Gibbs energy, uses its mu (ln(gamma x)
    at the floored x, so a zero concentration contributes 0)."""
    c = st.c
    c.setflags(write=False)
    return Checkpoint(
        time=t,
        c=c,
        masses=c.sum(axis=0) * h,
        entropy=float(h * np.add.reduce(c * st.mu, axis=None)),
        dissipation=st.w,
        cumulative_dissipation=cum_w,
        min_concentration=float(c.min()),
    )


@_fail_closed
def simulate(initial: Field, spec: MixtureSpec, model: ThermoModel | None = None,
             reactions: ReactionNetwork = NO_REACTIONS,
             config: SimConfig | None = None) -> Trajectory:
    """Run the explicit finite-volume scheme to ``config.t_end``.

    Validation happens at entry (``initial`` and ``config`` check
    themselves; the species counts of ``spec`` and ``initial`` must
    agree, and ``config.t_end`` must not precede ``initial.time``); the
    loop steps plain arrays and owns the schedule: it refreshes the dt
    bound before the first step and every DT_REFRESH_STEPS steps, and dt
    stops at each checkpoint, one per ``checkpoint_interval`` (None: a 50th
    of the span ``t_end - initial.time``) and the last at ``t_end``.  The
    state advances by the step the clock takes, fl(t + dt) - t, so the two
    agree at any t; the clock's tolerance is 1e-12 of the span.  Raises
    ``MaxStepsExceeded`` (before the first step when the checkpoints alone
    need more than ``max_steps`` steps, and at once when a step's dt is too
    small to advance t), ``PositivityViolation``, ``NonFiniteState``, or
    ``NotConvex``.
    """
    if config is None:
        raise ValueError("a SimConfig is required")
    t, interval = initial.time, config.checkpoint_interval
    if config.t_end < t:
        raise ValueError(f"t_end = {config.t_end!r} precedes the initial time {t!r}")
    span = config.t_end - t
    if interval is None:
        interval = span / 50
    tiny = 1e-12 * span  # the clock's tolerance, relative to the run's span
    # dt stops at every checkpoint, so k steps reach at most t + k * interval;
    # one interval of slack covers the roundoff of the running sums, and
    # comparing a float with the int max_steps is exact at any size; a zero
    # interval (a zero span's, or a 50th that underflowed) is left to the
    # loop, which then takes no step or one that cannot advance t
    if interval > 0 and (config.t_end - tiny - t) / interval > config.max_steps + 1:
        raise MaxStepsExceeded(
            f"t = {t!r} to t_end = {config.t_end!r} in steps of at most checkpoint_interval"
            f" = {interval!r} takes more than max_steps = {config.max_steps} steps")
    kernel = _Kernel(spec, model, initial, reactions, config.cfl_safety)
    st = kernel(initial.c)
    cum_w = 0.0
    traj = Trajectory(grid=initial.grid, names=spec.names)
    traj.checkpoints.append(_checkpoint(st, t, kernel.h, cum_w))

    next_cp = min(t + interval, config.t_end)
    steps = 0
    while t < config.t_end - tiny:
        if steps % DT_REFRESH_STEPS == 0:
            dt_bound = kernel.dt_bound(st)
        dt = min(dt_bound, next_cp - t)
        if t + dt == t:
            raise MaxStepsExceeded(f"dt = {dt!r} does not advance t = {t!r}, "
                                   f"so no number of steps reaches t_end = {config.t_end!r}")
        dt = (t + dt) - t  # the step the clock takes; exact by Sterbenz once dt <= t
        c, w = _advance(st, dt, t, kernel.h), st.w
        t += dt
        steps += 1
        st = kernel(c)
        cum_w += 0.5 * (w + st.w) * dt
        if steps > config.max_steps:
            raise MaxStepsExceeded(f"{steps} steps at t = {t!r}")
        if t >= next_cp - tiny:
            traj.checkpoints.append(_checkpoint(st, t, kernel.h, cum_w))
            next_cp = min(next_cp + interval, config.t_end)
    return traj
