"""Batch front door: parse a JSON run configuration, dispatch to the
kernel/solver/verify layers, and emit machine-readable results.

Subcommands: ``spectrum``, ``fluxes``, ``simulate``, ``verify``.
Exit codes: 0 ok, 1 a ``verify`` check failed, 2 bad input (config error
or degenerate composition), 3 positivity violation, 4 convexity failure,
5 step limit, 6 numerical failure (any other ``MsDiffError``).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mskernel, thermo, verify
from .errors import (ConfigError, DegenerateComposition, MaxStepsExceeded,
                     MsDiffError, NegativeConcentration, NonPositiveTotal,
                     NotConvex, PositivityViolation)
from .mixture import Composition, MixtureSpec, validate_spec
from .solver import (Field, Grid1D, Reaction, ReactionNetwork, SimConfig,
                     simulate)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_CONVEXITY = 4
EXIT_STEP_LIMIT = 5
EXIT_NUMERICAL = 6

#: Exit code and stderr label per error class; main uses the nearest listed base.
ERROR_EXITS: dict[type[MsDiffError], tuple[int, str]] = {
    ConfigError: (EXIT_CONFIG, "config error"),
    DegenerateComposition: (EXIT_CONFIG, "degenerate composition"),
    NonPositiveTotal: (EXIT_CONFIG, "non-positive total"),
    NegativeConcentration: (EXIT_CONFIG, "negative concentration"),
    PositivityViolation: (EXIT_POSITIVITY, "positivity violation"),
    NotConvex: (EXIT_CONVEXITY, "convexity failure"),
    MaxStepsExceeded: (EXIT_STEP_LIMIT, "step limit"),
    MsDiffError: (EXIT_NUMERICAL, "numerical failure"),
}


def _fmt(v: float) -> str:
    """17 significant digits: bit-stable regression baselines."""
    return format(float(v), ".17g")


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key '{key}'")
    return d[key]


def _floats(value, ctx: str) -> np.ndarray:
    """``value`` as a float array; anything non-numeric is a ConfigError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _check_keys(d, allowed: set[str], ctx: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")


@dataclass
class RunConfig:
    """Fully parsed run configuration."""
    spec: MixtureSpec
    model: thermo.ThermoModel
    composition: Composition | None
    gradients: np.ndarray | None
    grid: Grid1D | None
    initial: Field | None
    reactions: ReactionNetwork
    sim: SimConfig | None
    seed: int


def _parse_mixture(obj) -> MixtureSpec:
    _check_keys(obj, {"names", "dmat"}, "mixture")
    try:
        spec = MixtureSpec(names=_require(obj, "names", "mixture"),
                           dmat=_require(obj, "dmat", "mixture"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mixture: {exc}") from exc
    issues = validate_spec(spec)
    if issues:
        raise ConfigError("mixture: " + "; ".join(
            f"{i.code}: {i.detail}" for i in issues))
    return spec


def _parse_thermo(obj, n: int) -> thermo.ThermoModel:
    if obj is None:
        return thermo.IDEAL
    _check_keys(obj, {"model", "amat"}, "thermo")
    kind = _require(obj, "model", "thermo")
    if kind == "ideal":
        _check_keys(obj, {"model"}, "thermo (ideal)")
        return thermo.IDEAL
    if kind == "margules":
        try:
            model = thermo.ThermoModel.margules(_require(obj, "amat", "thermo"))
            model.interactions(n)  # size check against the mixture
            return model
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"thermo: {exc}") from exc
    raise ConfigError(f"thermo: unknown model '{kind}'")


def _parse_composition(obj, n: int) -> Composition:
    _check_keys(obj, {"x", "c_tot"}, "composition")
    try:
        comp = Composition(x=_require(obj, "x", "composition"),
                           c_tot=obj.get("c_tot", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"composition: {exc}") from exc
    if comp.n != n:
        raise ConfigError(f"composition: {comp.n} fractions for {n} species")
    return comp


def _parse_grid(obj) -> Grid1D:
    _check_keys(obj, {"ncells", "length"}, "grid")
    try:
        return Grid1D(ncells=int(_require(obj, "ncells", "grid")),
                      length=float(_require(obj, "length", "grid")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _profile_x(obj, grid: Grid1D, n: int) -> np.ndarray:
    kind = _require(obj, "kind", "initial")
    s = (np.arange(grid.ncells) + 0.5) / grid.ncells
    if kind == "uniform":
        _check_keys(obj, {"kind", "c_tot", "x"}, "initial")
        x = np.tile(_floats(_require(obj, "x", "initial"), "initial.x"), (grid.ncells, 1))
    elif kind in ("step", "ramp"):
        _check_keys(obj, {"kind", "c_tot", "x_left", "x_right"}, "initial")
        xl = _floats(_require(obj, "x_left", "initial"), "initial.x_left")
        xr = _floats(_require(obj, "x_right", "initial"), "initial.x_right")
        if kind == "step":
            w = (s >= 0.5).astype(float)[:, None]
        else:
            w = s[:, None]
        x = (1.0 - w) * xl + w * xr
    elif kind == "cells":
        _check_keys(obj, {"kind", "c_tot", "x"}, "initial")
        x = _floats(_require(obj, "x", "initial"), "initial.x")
        if x.shape != (grid.ncells, n):
            raise ConfigError(f"initial: per-cell x shape {x.shape} must be "
                              f"({grid.ncells}, {n})")
    else:
        raise ConfigError(f"initial: unknown profile kind '{kind}'")
    if x.shape[-1] != n:
        raise ConfigError(f"initial: {x.shape[-1]} fractions for {n} species")
    sums = x.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-10:
        raise ConfigError("initial: mole fractions must sum to 1 in every cell")
    return x / sums[:, None]


def _parse_initial(obj, grid: Grid1D, n: int) -> Field:
    x = _profile_x(obj, grid, n)
    try:
        return Field(c=x * float(obj.get("c_tot", 1.0)), grid=grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial: {exc}") from exc


def _parse_reactions(items, names: tuple[str, ...]) -> ReactionNetwork:
    if not items:
        return ReactionNetwork(reactions=())
    index = {s: i for i, s in enumerate(names)}
    out = []
    for k, obj in enumerate(items):
        ctx = f"reactions[{k}]"
        _check_keys(obj, {"reactants", "products", "rate_constant"}, ctx)

        def stoich(side: str) -> np.ndarray:
            v = np.zeros(len(names))
            _check_keys(_require(obj, side, ctx), set(names), f"{ctx}.{side}")
            for name, coeff in obj[side].items():
                v[index[name]] = float(coeff)
            return v

        try:
            out.append(Reaction(reactants=stoich("reactants"),
                                products=stoich("products"),
                                rate_constant=float(_require(obj, "rate_constant", ctx))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    return ReactionNetwork(reactions=tuple(out))


def _parse_sim(obj) -> SimConfig:
    _check_keys(obj, {"t_end", "cfl_safety", "checkpoint_interval",
                      "max_steps"}, "sim")
    interval = obj.get("checkpoint_interval")
    try:
        return SimConfig(
            t_end=float(_require(obj, "t_end", "sim")),
            cfl_safety=float(obj.get("cfl_safety", 0.4)),
            checkpoint_interval=None if interval is None else float(interval),
            max_steps=int(obj.get("max_steps", 10_000_000)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Unknown keys anywhere are hard errors: silent key typos corrupt
    numerical studies.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    _check_keys(raw, {"mixture", "thermo", "composition", "gradients", "grid",
                      "initial", "reactions", "sim", "seed"}, "config")
    spec = _parse_mixture(_require(raw, "mixture", "config"))
    model = _parse_thermo(raw.get("thermo"), spec.n)
    comp = _parse_composition(raw["composition"], spec.n) if "composition" in raw else None
    grads = None
    if "gradients" in raw:
        grads = _floats(raw["gradients"], "gradients")
        if grads.shape != (spec.n,):
            raise ConfigError(f"gradients: expected {spec.n} entries")
        if abs(grads.sum()) > 1e-10 * max(np.max(np.abs(grads)), 1e-300):
            raise ConfigError("gradients: must sum to zero")
    grid = _parse_grid(raw["grid"]) if "grid" in raw else None
    initial = None
    if "initial" in raw:
        if grid is None:
            raise ConfigError("initial: requires a grid section")
        initial = _parse_initial(raw["initial"], grid, spec.n)
    reactions = _parse_reactions(raw.get("reactions", []), spec.names)
    sim = _parse_sim(raw["sim"]) if "sim" in raw else None
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    return RunConfig(spec=spec, model=model, composition=comp, gradients=grads,
                     grid=grid, initial=initial, reactions=reactions,
                     sim=sim, seed=seed)


def cmd_spectrum(cfg: RunConfig, out) -> int:
    if cfg.composition is None:
        raise ConfigError("spectrum: config needs a 'composition' section")
    rep = mskernel.spectrum(cfg.composition, cfg.spec.dmat)
    json.dump({"eigenvalues": [float(v) for v in rep.eigenvalues],
               "delta": rep.delta, "gap_ok": rep.gap_ok}, out, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def cmd_fluxes(cfg: RunConfig, out) -> int:
    if cfg.composition is None or cfg.gradients is None:
        raise ConfigError("fluxes: config needs 'composition' and 'gradients'")
    d = thermo.driving_force(cfg.model, cfg.composition, cfg.gradients)
    ji = mskernel.solve_fluxes_invariant(cfg.composition, cfg.spec.dmat, d).J
    jr = mskernel.solve_fluxes_reduced(cfg.composition, cfg.spec.dmat, d).J
    scale = max(float(np.max(np.abs(ji))), 1e-300)
    json.dump({"invariant": [float(v) for v in ji],
               "reduced": [float(v) for v in jr],
               "agreement": float(np.max(np.abs(ji - jr)) / scale)},
              out, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def _write_trajectory_csv(path: Path, traj, names) -> None:
    centers = traj.grid.cell_centers
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "cell_index", "cell_center", "species_name",
                    "concentration"])
        for cp in traj.checkpoints:
            for cell in range(traj.grid.ncells):
                for sp, name in enumerate(names):
                    w.writerow([_fmt(cp.time), cell, _fmt(centers[cell]),
                                name, _fmt(cp.c[cell, sp])])


def _write_ledger_csv(path: Path, traj, names) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "V", "W", "cumulative_W", "min_concentration"]
                   + [f"mass_{s}" for s in names])
        for cp in traj.checkpoints:
            w.writerow([_fmt(cp.time), _fmt(cp.entropy), _fmt(cp.dissipation),
                        _fmt(cp.cumulative_dissipation),
                        _fmt(cp.min_concentration)]
                       + [_fmt(m) for m in cp.masses])


def cmd_simulate(cfg: RunConfig, out, out_dir: Path) -> int:
    if cfg.initial is None or cfg.sim is None:
        raise ConfigError("simulate: config needs 'grid', 'initial' and 'sim'")
    traj = simulate(cfg.initial, cfg.spec, cfg.model, cfg.reactions, cfg.sim)
    out_dir.mkdir(parents=True, exist_ok=True)
    tpath = out_dir / "trajectory.csv"
    lpath = out_dir / "ledger.csv"
    _write_trajectory_csv(tpath, traj, cfg.spec.names)
    _write_ledger_csv(lpath, traj, cfg.spec.names)
    out.write(f"wrote {tpath}\nwrote {lpath}\n")
    return EXIT_OK


def _random_interior_x(rng, n: int) -> np.ndarray:
    while True:
        x = rng.dirichlet(np.ones(n))
        if x.min() >= 1e-3:
            return x


def cmd_verify(cfg: RunConfig, out, samples: int = 200) -> int:
    """Property sweep for the configured mixture; prints one pass/fail
    row per check."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.spec.n
    dmat = cfg.spec.dmat
    out.write(f"seed: {cfg.seed}\n")
    rows: list[tuple[str, str, str]] = []

    gap_fail = 0
    for _ in range(samples):
        if not mskernel.spectrum(_random_interior_x(rng, n), dmat).gap_ok:
            gap_fail += 1
    rows.append(("spectral-gap", "PASS" if gap_fail == 0 else "FAIL",
                 f"{samples - gap_fail}/{samples}"))

    route_fail = 0
    for _ in range(samples):
        comp = Composition(x=_random_interior_x(rng, n), c_tot=1.0)
        d = rng.standard_normal(n)
        d -= d.mean()
        ji = mskernel.solve_fluxes_invariant(comp, dmat, d).J
        jr = mskernel.solve_fluxes_reduced(comp, dmat, d).J
        if np.max(np.abs(ji - jr)) > 1e-10 * max(np.max(np.abs(ji)), 1e-300):
            route_fail += 1
    rows.append(("flux-route-agreement", "PASS" if route_fail == 0 else "FAIL",
                 f"{samples - route_fail}/{samples}"))

    if n == 3:
        tern_fail = 0
        for _ in range(samples):
            rep = verify.ternary_closed_forms(_random_interior_x(rng, 3), dmat)
            if not (rep.matches_assembly and rep.sector_ok):
                tern_fail += 1
        rows.append(("ternary-closed-forms", "PASS" if tern_fail == 0 else "FAIL",
                     f"{samples - tern_fail}/{samples}"))

    convex_fail = 0
    not_convex = 0
    for _ in range(samples):
        x = _random_interior_x(rng, n)
        try:
            w = mskernel.diffusion_operator_spectrum(x, dmat, cfg.model)
        except NotConvex:
            not_convex += 1
            continue
        if np.min(np.real(w)) <= 0:
            convex_fail += 1
    if not_convex:
        rows.append(("normal-ellipticity", "XFAIL",
                     f"NotConvex at {not_convex}/{samples} states "
                     "(phase-splitting thermo)"))
    else:
        rows.append(("normal-ellipticity", "PASS" if convex_fail == 0 else "FAIL",
                     f"{samples - convex_fail}/{samples}"))

    entropy_fail = 0
    for _ in range(samples):
        comp = Composition(x=_random_interior_x(rng, n), c_tot=1.0)
        try:
            lam = thermo.convexity_check(cfg.model, comp)
        except MsDiffError:
            continue
        if lam <= 0:
            continue
        g = rng.standard_normal(n)
        g -= g.mean()
        d = thermo.driving_force(cfg.model, comp, g)
        j = mskernel.solve_fluxes_invariant(comp, dmat, d).J
        mu_grad = d.d / comp.x
        if -float(j @ mu_grad) < -1e-12 * max(np.max(np.abs(j * mu_grad)), 1e-300):
            entropy_fail += 1
    rows.append(("pointwise-entropy", "PASS" if entropy_fail == 0 else "FAIL",
                 f"{samples - entropy_fail}/{samples}"))

    hard_fail = False
    for name, status, detail in rows:
        out.write(f"{status:5s} {name}: {detail}\n")
        hard_fail |= status == "FAIL"
    return EXIT_VERIFY_FAIL if hard_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msdiff",
        description="Multicomponent diffusion: spectra, fluxes, simulation, checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in [("spectrum", "print the flux-force spectrum report"),
                        ("fluxes", "solve the fluxes by both routes"),
                        ("simulate", "run the 1-D simulator, write CSVs"),
                        ("verify", "run the property suite for the mixture")]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's random seed")
    return ap


def main(argv=None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        if args.command == "fluxes":
            return cmd_fluxes(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, Path(args.out))
        return cmd_verify(cfg, out)
    except MsDiffError as exc:
        code, label = next(ERROR_EXITS[c] for c in type(exc).__mro__
                           if c in ERROR_EXITS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
