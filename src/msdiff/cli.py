"""Batch front door: parse a JSON run configuration, dispatch to the
kernel/solver/verify layers, and emit machine-readable results.

Subcommands: ``spectrum``, ``fluxes``, ``simulate``, ``verify`` (``property_sweep``'s rows).

Config sections ``mixture``, ``composition``, ``grid`` and ``sim`` are
built by :func:`_build` from their library constructors' fields, defaults
and checks; ``thermo``, ``initial`` and ``reactions`` have small parsers.

Exit codes: 0 ok, 1 a ``verify`` check failed, 2 bad input (config error,
degenerate composition, or an ``--out`` that cannot be made or written),
3 positivity violation, 4 convexity failure, 5 step limit, 6 numerical
failure (any other ``MsDiffError``).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import mskernel, thermo, verify
from .errors import (ConfigError, DegenerateComposition, MaxStepsExceeded,
                     MsDiffError, NegativeConcentration, NonPositiveTotal,
                     NotConvex, PositivityViolation)
from .mixture import Composition, MixtureSpec, _check_zero_sum
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


@contextmanager
def _config_errors(ctx: str):
    """The one place a library ``TypeError``, ``ValueError`` or ``OverflowError``
    becomes a ``ConfigError``, prefixed with ``ctx`` unless it starts with it."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(ctx) else f"{ctx}: {msg}") from exc


@contextmanager
def _out_errors():
    """An ``OSError`` making or writing ``--out`` is bad input: a ``ConfigError``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc


def _check_keys(d, allowed, ctx: str, required=()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")
    for key in required:
        if key not in d:
            raise ConfigError(f"{ctx}: missing required key '{key}'")


def _build(cls, obj, ctx: str):
    """``cls(**obj)`` for the config section ``ctx``.  Its keys are the
    fields of ``cls``, those without a default are required, and the
    defaults, coercions and range checks are the constructor's."""
    fields = dataclasses.fields(cls)
    _check_keys(obj, [f.name for f in fields], ctx,
                [f.name for f in fields if f.default is dataclasses.MISSING])
    with _config_errors(ctx):
        return cls(**obj)


def _variant(obj, tag: str, variants: dict, ctx: str, optional=()) -> str:
    """Key check of a section whose ``tag`` value picks one of
    ``variants`` (name -> its required keys); ``optional`` keys are
    allowed in every variant.  Returns the variant's name."""
    every = {tag, *optional, *(k for keys in variants.values() for k in keys)}
    _check_keys(obj, every, ctx, [tag])
    kind = obj[tag]
    if not (isinstance(kind, str) and kind in variants):
        raise ConfigError(f"{ctx}: unknown {tag} '{kind}'")
    _check_keys(obj, {tag, *optional, *variants[kind]}, ctx, variants[kind])
    return kind


#: Where a config holds text; every other value is a number, a list, an
#: object or null.
TEXT_VALUES = {("mixture", "names"), ("thermo", "model"), ("initial", "kind")}


def _check_numbers(obj, path=()) -> None:
    """Reject a JSON string or boolean wherever the config reads a number:
    ``float()`` and numpy would take ``"1"`` and ``true`` as numbers."""
    if path in TEXT_VALUES:
        return
    if isinstance(obj, (str, bool)):
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        raise ConfigError(f"{where.lstrip('.')}: expected a number, got {json.dumps(obj)}")
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        _check_numbers(value, (*path, key))


def _seed(value, ctx: str) -> int:
    """The seed rule of the config's ``seed`` and of ``verify --seed``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{ctx}: must be a nonnegative integer")
    return value


@dataclasses.dataclass
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


def _parse_thermo(obj, n: int) -> thermo.ThermoModel:
    if obj is None or _variant(obj, "model", {"ideal": (), "margules": ("amat",)},
                               "thermo") == "ideal":
        return thermo.IDEAL
    with _config_errors("thermo"):
        model = thermo.ThermoModel.margules(obj["amat"])
        model.interactions(n)  # size check against the mixture
    return model


#: Mole-fraction keys of each ``initial`` profile kind.
PROFILES = {"uniform": ("x",), "step": ("x_left", "x_right"),
            "ramp": ("x_left", "x_right"), "cells": ("x",)}


def _parse_initial(obj, grid: Grid1D, n: int) -> Field:
    kind = _variant(obj, "kind", PROFILES, "initial", optional=("c_tot",))
    with _config_errors("initial"):
        s = (np.arange(grid.ncells) + 0.5) / grid.ncells
        p = {k: np.asarray(obj[k], dtype=float) for k in PROFILES[kind]}
        if kind == "uniform":
            x = np.tile(p["x"], (grid.ncells, 1))
        elif kind == "cells":
            x = p["x"]
        else:
            w = (s >= 0.5).astype(float)[:, None] if kind == "step" else s[:, None]
            x = (1.0 - w) * p["x_left"] + w * p["x_right"]
        if x.shape != (grid.ncells, n):
            raise ConfigError(f"initial: mole fractions shaped {x.shape}, expected "
                              f"({grid.ncells}, {n}) for {n} species")
        sums = x.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise ConfigError("initial: mole fractions must sum to 1 in every cell")
        return Field(c=x / sums[:, None] * float(obj.get("c_tot", 1.0)), grid=grid)


def _parse_reactions(items, names: tuple[str, ...]) -> ReactionNetwork:
    """A list of mass-action reactions with stoichiometry by species name."""
    if not isinstance(items, list):
        raise ConfigError(f"reactions: expected a list, got {type(items).__name__}")
    keys = ("reactants", "products", "rate_constant")
    out = []
    for k, obj in enumerate(items):
        ctx = f"reactions[{k}]"
        _check_keys(obj, keys, ctx, keys)
        for side in keys[:2]:
            _check_keys(obj[side], names, f"{ctx}.{side}")
        with _config_errors(ctx):
            out.append(Reaction(rate_constant=obj["rate_constant"], **{
                side: [float(obj[side].get(s, 0.0)) for s in names]
                for side in keys[:2]}))
    return ReactionNetwork(reactions=tuple(out))


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Unknown keys anywhere are hard errors: silent key typos corrupt
    numerical studies.  So is a string or boolean where a number is read
    (:func:`_check_numbers`).
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    _check_keys(raw, {"mixture", "thermo", "composition", "gradients", "grid",
                      "initial", "reactions", "sim", "seed"}, "config", ["mixture"])
    spec = _build(MixtureSpec, raw["mixture"], "mixture")
    model = _parse_thermo(raw.get("thermo"), spec.n)
    comp = None
    if "composition" in raw:
        comp = _build(Composition, raw["composition"], "composition")
        if comp.x.shape != (spec.n,):  # one composition of the mixture's species
            raise ConfigError(f"composition: x shaped {comp.x.shape}, expected ({spec.n},)")
    grads = None
    if "gradients" in raw:
        with _config_errors("gradients"):
            grads = np.asarray(raw["gradients"], dtype=float)
            if grads.shape != (spec.n,):
                raise ConfigError(f"gradients: expected {spec.n} entries")
            _check_zero_sum(grads, "gradients", rtol=1e-10)
    grid = _build(Grid1D, raw["grid"], "grid") if "grid" in raw else None
    initial = None
    if "initial" in raw:
        if grid is None:
            raise ConfigError("initial: requires a grid section")
        initial = _parse_initial(raw["initial"], grid, spec.n)
    reactions = _parse_reactions(raw.get("reactions", []), spec.names)
    sim = _build(SimConfig, raw["sim"], "sim") if "sim" in raw else None
    seed = _seed(raw.get("seed", 0), "seed")
    _check_numbers(raw)  # last, so a misspelt key is named as unknown first
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
    ji, jr, agreement = verify.flux_routes(cfg.composition, cfg.spec.dmat, d)
    json.dump({"invariant": [float(v) for v in ji],
               "reduced": [float(v) for v in jr],
               "agreement": float(agreement)},
              out, sort_keys=True)
    out.write("\n")
    return EXIT_OK


def _csv_line(fields) -> str:
    """``fields`` as ``csv.writer`` writes one row, ``\\r\\n`` included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def _write_trajectory_csv(path: Path, traj, names) -> None:
    """The bytes ``csv.writer`` would write for one ``time, cell_index,
    cell_center, species_name, concentration`` row per checkpoint, cell
    and species, in that order.  The three middle fields are built once
    per run through ``csv`` (names keep its quoting); the time is
    formatted once per checkpoint, and each checkpoint is one write."""
    # "cell,center,name," with its line ending cut off
    heads = [_csv_line([cell, _fmt(x), name, ""])[:-2]
             for cell, x in enumerate(traj.grid.cell_centers) for name in names]
    with path.open("w", newline="") as fh:
        fh.write(_csv_line(["time", "cell_index", "cell_center", "species_name",
                            "concentration"]))
        for cp in traj.checkpoints:
            t = _fmt(cp.time) + ","
            fh.write("".join([f"{t}{head}{v:.17g}\r\n" for head, v
                              in zip(heads, cp.c.ravel().tolist(), strict=True)]))


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
    with _out_errors():  # before the run, so a bad --out costs none of it
        out_dir.mkdir(parents=True, exist_ok=True)
    traj = simulate(cfg.initial, cfg.spec, cfg.model, cfg.reactions, cfg.sim)
    writers = {out_dir / "trajectory.csv": _write_trajectory_csv,
               out_dir / "ledger.csv": _write_ledger_csv}
    with _out_errors():
        _write_together(writers, traj, cfg.spec.names)
    out.write("".join(f"wrote {path}\n" for path in writers))
    return EXIT_OK


def _write_together(writers: dict, traj, names) -> None:
    """Each ``path: write`` pair writes ``path``, first under a temporary
    name beside it; the files move into place only after every one is
    written, so a failed write leaves no new file beside a stale one.  On
    an ``OSError`` this run's files are removed and the error re-raised."""
    tmps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in writers}
    moved = []
    try:
        for path, write in writers.items():
            write(tmps[path], traj, names)
        for path, tmp in tmps.items():
            tmp.replace(path)
            moved.append(path)
    except OSError:
        for path in [*tmps.values(), *moved]:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        raise


def cmd_verify(cfg: RunConfig, out) -> int:
    """Print the seed and :func:`verify.property_sweep`'s rows; 1 on a FAIL."""
    out.write(f"seed: {cfg.seed}\n")
    rows = verify.property_sweep(cfg.spec, cfg.model, cfg.seed)
    out.write("".join(f"{status:5s} {name}: {detail}\n" for name, status, detail in rows))
    return EXIT_VERIFY_FAIL if any(row[1] == "FAIL" for row in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; each subcommand takes only the flags it reads."""
    ap = argparse.ArgumentParser(
        prog="msdiff",
        description="Multicomponent diffusion: spectra, fluxes, simulation, checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name, help=help_) for name, help_ in [
        ("spectrum", "print the flux-force spectrum report"),
        ("fluxes", "solve the fluxes by both routes"),
        ("simulate", "run the 1-D simulator, write CSVs"),
        ("verify", "run the property suite for the mixture")]}
    for p in cmds.values():
        p.add_argument("--config", required=True, help="path to a JSON run config")
    cmds["simulate"].add_argument("--out", default=".", help="output directory")
    cmds["verify"].add_argument("--seed", type=int, default=None,
                                help="override the config's random seed")
    return ap


#: Built once: ``main`` runs many times per process in tests and sweeps.
_PARSER = build_parser()


def main(argv=None, out=sys.stdout) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        if args.command == "fluxes":
            return cmd_fluxes(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, Path(args.out))
        if args.seed is not None:
            cfg.seed = _seed(args.seed, "--seed")
        return cmd_verify(cfg, out)
    except MsDiffError as exc:
        code, label = next(ERROR_EXITS[c] for c in type(exc).__mro__
                           if c in ERROR_EXITS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
