"""1-D finite-volume simulator for isobaric, isothermal multicomponent
reaction-diffusion with zero-flux boundaries.

The species equations dc/dt + div J = r are discretized on a uniform
grid; fluxes at interior faces come from the flux-force inversion in
:mod:`msdiff.mskernel` evaluated at arithmetic-mean face compositions,
and time stepping is explicit Euler with an adaptive step bounded by the
spectral radius of the effective diffusion operator.

Inputs are validated on construction (``Grid1D``, ``Field``, ``Reaction``,
``SimConfig``), i.e. at :func:`simulate`/:func:`step` entry; the step loop
then makes one kernel pass per step over plain arrays and builds a
``Field`` only at checkpoints.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import MaxStepsExceeded, NotConvex, PositivityViolation
from .mixture import MixtureSpec
from .mskernel import (_assemble_A, _fluxes_projected, _inverse_diffusivities,
                       _operator_reduced, floor_composition)
from .thermo import (IDEAL, ThermoModel, _margules_gamma, gibbs_density,
                     ln_activity_coeffs)

#: Relative tolerance on per-cell total-concentration uniformity.
ISOBARIC_TOL = 1e-8

#: Negatives beyond -POSITIVITY_REL * c_tot are violations; smaller ones
#: are clamped to zero as arithmetic noise.
POSITIVITY_REL = 1e-10


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with zero-flux boundary faces."""
    ncells: int
    length: float

    def __post_init__(self):
        if self.ncells < 2:
            raise ValueError(f"need >= 2 cells, got {self.ncells}")
        if not 0 < self.length < np.inf:
            raise ValueError(f"domain length must be positive and finite: {self.length!r}")

    @property
    def h(self) -> float:
        return self.length / self.ncells

    @property
    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.ncells) + 0.5) * self.h


@dataclass(frozen=True)
class Field:
    """Per-cell concentration vectors at one instant."""
    c: np.ndarray
    grid: Grid1D
    time: float = 0.0

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 2 or c.shape[0] != self.grid.ncells:
            raise ValueError(f"c must be (ncells, nspecies), got {c.shape}")
        if not np.all((c >= 0) & (c < np.inf)):
            raise ValueError("concentrations must be finite and nonnegative")
        _uniform_total(c.sum(axis=1))
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def nspecies(self) -> int:
        return self.c.shape[1]

    @property
    def c_tot(self) -> float:
        """Per-cell total concentration (uniform by construction)."""
        return float(self.c.sum(axis=1).mean())


@dataclass(frozen=True)
class Reaction:
    """One mass-action reaction: rate = k * prod_i c_i^reactants_i."""
    reactants: np.ndarray
    products: np.ndarray
    rate_constant: float

    def __post_init__(self):
        r = np.array(self.reactants, dtype=float)
        p = np.array(self.products, dtype=float)
        if r.shape != p.shape or r.ndim != 1:
            raise ValueError("reactant/product stoichiometries must be equal-length vectors")
        if np.any(r < 0) or np.any(p < 0):
            raise ValueError("stoichiometric coefficients must be nonnegative")
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

    @property
    def net(self) -> np.ndarray:
        return self.products - self.reactants


@dataclass(frozen=True)
class ReactionNetwork:
    """Mole-conserving mass-action network; the induced rate function is
    quasi-positive by construction."""
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        object.__setattr__(self, "reactions", tuple(self.reactions))

    def rates(self, c: np.ndarray) -> np.ndarray:
        """Net production rates f(c), batched over leading axes."""
        c = np.asarray(c, dtype=float)
        f = np.zeros_like(c)
        for rx in self.reactions:
            rate = rx.rate_constant * np.prod(
                np.power(c, rx.reactants), axis=-1, keepdims=True)
            f = f + rate * rx.net
        return f


NO_REACTIONS = ReactionNetwork(reactions=())


@dataclass(frozen=True)
class SimConfig:
    """Time-stepping and checkpointing controls."""
    t_end: float
    cfl_safety: float = 0.4
    checkpoint_interval: float | None = None  # default t_end / 50
    max_steps: int = 10_000_000
    floor_eps: float = 1e-12
    dt_refresh_steps: int = 10  # dt bound recomputed every this many steps

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must be in (0, 1]")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")
        if self.dt_refresh_steps < 1:
            raise ValueError("dt_refresh_steps must be at least 1")
        if not 0 < self.cp_interval < np.inf:
            raise ValueError("checkpoint_interval must be positive and finite")
        if not 0 < self.floor_eps < np.inf:
            raise ValueError("floor_eps must be positive and finite")

    @property
    def cp_interval(self) -> float:
        if self.checkpoint_interval is None:
            return self.t_end / 50
        return self.checkpoint_interval


class _State(NamedTuple):
    """What one step needs at concentrations ``c``."""
    c: np.ndarray
    c_tot: float             # per-cell total, uniform to ISOBARIC_TOL
    jf: np.ndarray           # fluxes at all ncells+1 faces, zero at the walls
    w: float                 # dissipation W = -sum_faces sum_i J_i dmu_i
    lam: np.ndarray | None   # diffusion-operator eigenvalues at the faces


def _uniform_total(totals: np.ndarray) -> float:
    """Mean per-cell total concentration; raises ``ValueError`` unless it
    is positive and every cell is within ISOBARIC_TOL of it."""
    ref = float(totals.mean())
    if not (ref > 0 and np.max(np.abs(totals - ref)) <= ISOBARIC_TOL * ref):
        raise ValueError("per-cell total concentration must be positive and uniform")
    return ref


class _Kernel:
    """The step kernel: set up once per run, then one call per step computes
    face states, fluxes, W and, with ``bound``, the dt spectrum, each once."""

    def __init__(self, spec: MixtureSpec, model: ThermoModel | None, grid: Grid1D,
                 floor: float):
        model = model or spec.thermo or IDEAL
        self.model, self.h, self.floor = model, grid.h, floor
        self.inv = _inverse_diffusivities(spec.dmat)
        # None on the ideal path, where Gamma = I is skipped
        self.amat = None if model.is_ideal else model.interactions(spec.n)

    def __call__(self, c: np.ndarray, bound: bool = False) -> _State:
        """Face compositions are floored arithmetic means, shared by the flux
        solve, Gamma and the spectrum; h cancels in W against the gradient."""
        totals = c.sum(axis=1, keepdims=True)
        c_tot = _uniform_total(totals)
        x = c / totals
        xf = 0.5 * (x[:-1] + x[1:])
        xf = floor_composition(xf / xf.sum(axis=1, keepdims=True), self.floor)
        d = (x[1:] - x[:-1]) / self.h
        xm = np.maximum(x, self.floor)
        mu = np.log(xm)
        g = None
        if self.amat is not None:
            g = _margules_gamma(xf, self.amat)
            d = np.einsum("fij,fj->fi", g, d)
            mu += ln_activity_coeffs(self.model, xm)
        d -= d.mean(axis=1, keepdims=True)
        ctf = 0.5 * (totals[:-1, 0] + totals[1:, 0])
        j, k = _fluxes_projected(d, _assemble_A(xf, self.inv), ctf)
        jf = np.zeros((c.shape[0] + 1, c.shape[1]))
        jf[1:-1] = j
        w = float(-np.sum(j * (mu[1:] - mu[:-1])))
        lam = None
        if bound:
            m = _operator_reduced(k, np.eye(c.shape[1]) if g is None else g)
            # binary mixtures: M is 1x1 per face, its own eigenvalue
            lam = m[..., 0] if m.shape[-1] == 1 else np.linalg.eigvals(m).real
        return _State(c=c, c_tot=c_tot, jf=jf, w=w, lam=lam)

    def dt_bound(self, st: _State, reactions: ReactionNetwork,
                 cfl_safety: float) -> float:
        """cfl * h^2 / (2 lambda_max) from the spectrum in ``st``, capped
        so reactions change no concentration by more than 10% per step."""
        lam_min = float(st.lam.min())
        if lam_min <= 0:
            raise NotConvex(f"diffusion operator eigenvalue {lam_min!r} <= 0 at a face")
        dt = cfl_safety * self.h * self.h / (2.0 * float(st.lam.max()))
        if reactions.reactions:
            f = reactions.rates(st.c)
            consuming = f < 0
            if np.any(consuming):
                dt = min(dt, float(0.1 * np.min(st.c[consuming] / -f[consuming])))
            producing = f > 0
            if np.any(producing):
                dt = min(dt, float(0.1 * st.c_tot / np.max(f[producing])))
        return dt


def face_fluxes(field: Field, spec: MixtureSpec, model: ThermoModel | None = None,
                floor: float = 1e-12) -> np.ndarray:
    """Fluxes at all ncells+1 faces; the two boundary faces carry zero
    flux (Neumann walls)."""
    return _Kernel(spec, model, field.grid, floor)(field.c).jf


def stable_dt(field: Field, spec: MixtureSpec, model: ThermoModel | None = None,
              reactions: ReactionNetwork = NO_REACTIONS,
              cfl_safety: float = 0.4, floor: float = 1e-12) -> float:
    """Explicit-Euler step bound: cfl * h^2 / (2 lambda_max) with
    lambda_max the largest diffusion-operator eigenvalue over all faces,
    further capped so reactions change no concentration by more than 10%
    per step.

    Raises ``NotConvex`` if the operator loses positivity at any face.
    """
    kernel = _Kernel(spec, model, field.grid, floor)
    return kernel.dt_bound(kernel(field.c, bound=True), reactions, cfl_safety)


def step(field: Field, spec: MixtureSpec, model: ThermoModel | None = None,
         reactions: ReactionNetwork = NO_REACTIONS, dt: float = 0.0,
         floor: float = 1e-12) -> Field:
    """One explicit Euler update c += dt (div-free flux balance + r(c)).

    Per-cell totals are preserved exactly up to roundoff because fluxes
    sum to zero over species and reactions conserve moles.  Negatives
    beyond the noise threshold raise ``PositivityViolation``; tiny ones
    are clamped to zero.
    """
    kernel = _Kernel(spec, model, field.grid, floor)
    cn = _advance(kernel(field.c), reactions, dt, field.time, kernel.h)
    return Field(c=cn, grid=field.grid, time=field.time + dt)


def _advance(st: _State, reactions: ReactionNetwork, dt: float, t: float,
             h: float) -> np.ndarray:
    """Concentrations after one explicit Euler step of length ``dt``
    from time ``t``."""
    rhs = (st.jf[:-1] - st.jf[1:]) / h
    if reactions.reactions:
        rhs = rhs + reactions.rates(st.c)
    cn = st.c + dt * rhs
    if np.any(cn < -POSITIVITY_REL * st.c_tot):
        cell, sp = np.unravel_index(np.argmin(cn), cn.shape)
        raise PositivityViolation(
            f"c[{cell},{sp}] = {cn[cell, sp]!r} at t = {t + dt!r} "
            "(CFL or model breach)")
    np.clip(cn, 0.0, None, out=cn)
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
    c_tot0: float
    checkpoints: list[Checkpoint] = dc_field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([cp.time for cp in self.checkpoints])

    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


def _checkpoint(field: Field, model: ThermoModel, w: float,
                cum_w: float) -> Checkpoint:
    return Checkpoint(
        time=field.time,
        c=field.c,
        masses=field.c.sum(axis=0) * field.grid.h,
        entropy=gibbs_density(model, field.c) * field.grid.h,
        dissipation=w,
        cumulative_dissipation=cum_w,
        min_concentration=float(field.c.min()),
    )


def simulate(initial: Field, spec: MixtureSpec, model: ThermoModel | None = None,
             reactions: ReactionNetwork = NO_REACTIONS,
             config: SimConfig | None = None) -> Trajectory:
    """Run the explicit finite-volume scheme to ``config.t_end``.

    Validation happens at entry (``initial`` and ``config`` check
    themselves); the loop steps plain arrays and builds a ``Field`` only
    at checkpoints.  Exact zeros are handled through the composition
    floor.  Raises ``MaxStepsExceeded``, ``PositivityViolation``, or ``NotConvex``.
    """
    if config is None:
        raise ValueError("a SimConfig is required")
    grid = initial.grid
    kernel = _Kernel(spec, model, grid, config.floor_eps)
    model, refresh = kernel.model, config.dt_refresh_steps
    st = kernel(initial.c, bound=True)
    w, cum_w = st.w, 0.0
    traj = Trajectory(grid=grid, names=spec.names, c_tot0=initial.c_tot)
    traj.checkpoints.append(_checkpoint(initial, model, w, cum_w))

    t = initial.time
    interval = config.cp_interval
    next_cp = t + interval
    tiny = 1e-12 * config.t_end
    steps = 0
    while t < config.t_end - tiny:
        if steps % refresh == 0:
            dt_bound = kernel.dt_bound(st, reactions, config.cfl_safety)
        dt = min(dt_bound, config.t_end - t, next_cp - t)
        c = _advance(st, reactions, dt, t, kernel.h)
        t += dt
        steps += 1
        st = kernel(c, bound=steps % refresh == 0)
        cum_w += 0.5 * (w + st.w) * dt
        w = st.w
        if steps > config.max_steps:
            raise MaxStepsExceeded(f"{steps} steps at t = {t!r}")
        if t >= next_cp - tiny:
            traj.checkpoints.append(_checkpoint(Field(c, grid, t), model, w, cum_w))
            next_cp += interval
    if traj.checkpoints[-1].time < t - tiny:
        traj.checkpoints.append(_checkpoint(Field(st.c, grid, t), model, w, cum_w))
    return traj
