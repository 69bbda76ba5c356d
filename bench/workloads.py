"""Seeded workload generators, the timed operation of each workload, and
the output check that gates it.

Each generator takes the seed and a scratch directory, builds the inputs
(arrays for the library workloads, JSON configs for the CLI workloads)
and returns a :class:`Case`.  Sizes are keyword arguments so the tests can
run the same code on small problems; the benchmark uses the defaults.
Checks run outside the timed region and return a list of problems, empty
when the output is right.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import msdiff as md
import msdiff.cli

CFL = 0.4   # SimConfig's default cfl_safety, used to size step counts
MARGULES_CHECKPOINTS = 50    # checkpoint intervals of margules6_wide
STEPS_PER_CHECKPOINT = 4     # cli_dense_output: explicit steps per interval


@dataclass
class Case:
    params: dict                       # generated parameters, printed with the result
    run: Callable[[], object]          # the timed operation
    check: Callable[[object], list]    # problems with its output; empty when correct
    reset: Callable[[], None] = lambda: None   # untimed, before each run
    ncells: int = 0
    out_dir: Path | None = None


def _interior(rng, n: int) -> np.ndarray:
    """A composition bounded away from the simplex faces."""
    return 0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n


def _sym(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """Symmetric zero-diagonal matrix with entries uniform in [lo, hi]."""
    a = np.triu(rng.uniform(lo, hi, size=(n, n)), 1)
    return a + a.T


def _ramp(xl, xr, ncells: int) -> np.ndarray:
    s = ((np.arange(ncells) + 0.5) / ncells)[:, None]
    return (1.0 - s) * xl + s * xr


def _lambda_max(x, dmat, amat) -> float:
    """Largest eigenvalue, over the faces of profile x, of the effective
    diffusion operator on the zero-sum subspace, v -> -J with
    A(x) J = Gamma(x) v, for two-suffix Margules thermo (amat = 0 is
    ideal).  Computed here rather than by the library, so that the
    problem a workload poses depends on the seed alone.  A and Gamma map
    the subspace into itself; in the basis e_i - e_n the first n - 1 rows
    of a product give the coordinates of its columns."""
    xf = 0.5 * (x[:-1] + x[1:])
    n = xf.shape[1]
    idx = np.arange(n)
    inv = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    inv[off] = 1.0 / dmat[off]
    a = xf[:, :, None] * inv
    a[:, idx, idx] = -(xf @ inv)
    gamma = np.eye(n) + xf[:, :, None] * (amat - (xf @ amat)[:, None, :])

    def reduced(m):
        return m[:, :-1, :-1] - m[:, :-1, -1:]

    w = np.linalg.eigvals(-np.linalg.solve(reduced(a), reduced(gamma)))
    return float(w.real.max())


def binary_oracle_200(seed: int, workdir: Path, ncells: int = 200,
                      t_end: float = 0.1) -> Case:
    """Criterion 5's problem: ideal binary step, D12 = 1, default SimConfig.
    The seed draws the two plateau compositions; the step count does not
    depend on them, because the operator's eigenvalue is D12 for any x."""
    rng = np.random.default_rng(seed)
    xl, xr = rng.uniform(0.6, 0.8), rng.uniform(0.2, 0.4)
    grid = md.Grid1D(ncells=ncells, length=1.0)
    x0 = np.where(grid.cell_centers[:, None] < 0.5, [xl, 1.0 - xl], [xr, 1.0 - xr])
    initial = md.Field(c=x0, grid=grid)
    spec = md.MixtureSpec(names=("A", "B"), dmat=[[0.0, 1.0], [1.0, 0.0]])
    config = md.SimConfig(t_end=t_end)
    oracle = []

    def run():
        return md.simulate(initial, spec, config=config)

    def check(traj) -> list[str]:
        if not oracle:
            oracle.append(md.filtration_oracle(x0[:, 0], md.IDEAL, 1.0, grid, t_end))
        problems = list(md.entropy_ledger(traj).violations)
        err = float(np.max(np.abs(traj.final().c[:, 0] - oracle[0])))
        if not err <= 1e-3:
            problems.append(f"L-inf vs filtration oracle {err:.3e} > 1e-3 c_tot")
        return problems

    return Case(params={"ncells": ncells, "t_end": t_end, "D12": 1.0,
                        "x_left": [xl, 1.0 - xl], "x_right": [xr, 1.0 - xr]},
                run=run, check=check, ncells=ncells)


def margules6_wide(seed: int, workdir: Path, ncells: int = 640,
                   target_steps: int = 2000) -> Case:
    """n = 6 two-suffix Margules mixture with |A_ij| <= 1 (convex, see
    criterion 4), D_ij in [0.5, 5], ramp profile.  t_end is set from the
    initial spectral bound so that the run takes about ``target_steps``
    steps whatever the seed draws; the check confirms the run reached it
    through every checkpoint."""
    rng = np.random.default_rng(seed)
    n = 6
    dmat = _sym(rng, n, 0.5, 5.0)
    amat = _sym(rng, n, -1.0, 1.0)
    xl, xr = _interior(rng, n), _interior(rng, n)
    model = md.ThermoModel.margules(amat)
    grid = md.Grid1D(ncells=ncells, length=1.0)
    x0 = _ramp(xl, xr, ncells)
    t_end = target_steps * CFL * grid.h ** 2 / (2.0 * _lambda_max(x0, dmat, amat))
    initial = md.Field(c=x0, grid=grid)
    spec = md.MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    config = md.SimConfig(t_end=t_end,
                          checkpoint_interval=t_end / MARGULES_CHECKPOINTS)

    def run():
        return md.simulate(initial, spec, model, config=config)

    def check(traj) -> list[str]:
        problems = list(md.entropy_ledger(traj, model).violations)
        if len(traj.checkpoints) != MARGULES_CHECKPOINTS + 1:
            problems.append(f"{len(traj.checkpoints)} checkpoints, expected "
                            f"{MARGULES_CHECKPOINTS + 1}")
        t_last = traj.final().time
        if not abs(t_last - t_end) <= 1e-12 * t_end:
            problems.append(f"final time {t_last!r}, expected t_end = {t_end!r}")
        m0, m1 = traj.checkpoints[0].masses, traj.final().masses
        drift = float(np.max(np.abs(m1 - m0) / m0))
        if not drift <= 1e-12:
            problems.append(f"mass drift {drift:.3e} > 1e-12")
        cmin = min(cp.min_concentration for cp in traj.checkpoints)
        if not cmin >= 0:
            problems.append(f"negative concentration {cmin!r}")
        return problems

    return Case(params={"ncells": ncells, "n": n, "t_end": t_end,
                        "target_steps": target_steps, "dmat": dmat.tolist(),
                        "amat": amat.tolist(), "x_left": xl.tolist(),
                        "x_right": xr.tolist()},
                run=run, check=check, ncells=ncells)


def cli_dense_output(seed: int, workdir: Path, ncells: int = 100,
                     checkpoints: int = 1000) -> Case:
    """``msdiff simulate`` on an ideal ternary config with the reversible
    isomerizations A <-> B <-> C.  Each pair has one rate constant for
    both directions, so the network's equilibrium minimizes the Gibbs
    energy and the ledger's Lyapunov balance must hold.  The checkpoint
    interval is STEPS_PER_CHECKPOINT - 0.5 initial stable steps, so the
    interval clamps dt and each checkpoint takes STEPS_PER_CHECKPOINT
    steps."""
    rng = np.random.default_rng(seed)
    n, names = 3, ["A", "B", "C"]
    dmat = _sym(rng, n, 0.5, 2.0)
    xl, xr = _interior(rng, n), _interior(rng, n)
    k_ab, k_bc = rng.uniform(0.5, 2.0, size=2)
    h = 1.0 / ncells
    lam = _lambda_max(_ramp(xl, xr, ncells), dmat, np.zeros((n, n)))
    interval = (STEPS_PER_CHECKPOINT - 0.5) * CFL * h * h / (2.0 * lam)
    t_end = checkpoints * interval

    def isomerization(a, b, k):
        return {"reactants": {a: 1}, "products": {b: 1}, "rate_constant": k}

    config = {
        "mixture": {"names": names, "dmat": dmat.tolist()},
        "thermo": {"model": "ideal"},
        "grid": {"ncells": ncells, "length": 1.0},
        "initial": {"kind": "ramp", "c_tot": 1.0, "x_left": xl.tolist(),
                    "x_right": xr.tolist()},
        "reactions": [isomerization("A", "B", k_ab), isomerization("B", "A", k_ab),
                      isomerization("B", "C", k_bc), isomerization("C", "B", k_bc)],
        "sim": {"t_end": t_end, "cfl_safety": CFL,
                "checkpoint_interval": interval},
    }
    path = workdir / "cli_dense_output.json"
    path.write_text(json.dumps(config))
    md.cli.load_config(path)
    out_dir = workdir / "cli_out"
    argv = ["simulate", "--config", str(path), "--out", str(out_dir)]

    def run():
        return md.cli.main(argv, out=io.StringIO())

    def reset():
        shutil.rmtree(out_dir, ignore_errors=True)

    def check(code) -> list[str]:
        return check_simulate_output(code, out_dir, ncells, n, checkpoints, t_end)

    return Case(params={"ncells": ncells, "checkpoints": checkpoints,
                        "steps_per_checkpoint": STEPS_PER_CHECKPOINT,
                        "config": config},
                run=run, check=check, reset=reset, ncells=ncells, out_dir=out_dir)


def check_simulate_output(code, out_dir: Path, ncells: int, n: int,
                          checkpoints: int, t_end: float) -> list[str]:
    """Exit code; ledger and trajectory row counts and the last ledger
    time, so that the run is known to have reached t_end through every
    checkpoint; and the ledger's conservation, positivity and
    Lyapunov-balance columns."""
    if code != 0:
        return [f"exit code {code}"]
    with (out_dir / "ledger.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], np.array(rows[1:], dtype=float)
    col = {k: i for i, k in enumerate(head)}
    problems = []
    if len(body) != checkpoints + 1:
        problems.append(f"ledger has {len(body)} rows, expected {checkpoints + 1}")
    t_last = float(body[-1, col["time"]])
    if not abs(t_last - t_end) <= 1e-12 * t_end:
        problems.append(f"last ledger time {t_last!r}, expected t_end = {t_end!r}")
    with (out_dir / "trajectory.csv").open("rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if lines - 1 != (checkpoints + 1) * ncells * n:
        problems.append(f"trajectory has {lines - 1} rows, expected "
                        f"{checkpoints + 1} checkpoints x {ncells} cells x {n} species")
    moles = body[:, [i for k, i in col.items() if k.startswith("mass_")]].sum(axis=1)
    drift = float(np.max(np.abs(moles - moles[0])) / moles[0])
    if not drift <= 1e-10:
        problems.append(f"total moles drift {drift:.3e} > 1e-10")
    cmin = float(body[:, col["min_concentration"]].min())
    if not cmin >= 0:
        problems.append(f"min_concentration {cmin!r} < 0")
    v, cum_w = body[:, col["V"]], body[:, col["cumulative_W"]]
    excess = float(np.max(v + cum_w - v[0] - 1e-6 * abs(v[0])))
    if not excess <= 0:
        problems.append(f"V + cumulative_W exceeds V0 + 1e-6|V0| by {excess!r}")
    return problems


VERIFY_KINDS = ("ideal", "convex", "split")


def verify_sweep(seed: int, workdir: Path, mixtures: int = 30) -> Case:
    """``msdiff verify`` over generated mixtures: n = 2..6 and ideal,
    convex Margules (|A_ij| <= 1) or phase-splitting Margules thermo
    (A_ij in [1.2 n, 1.6 n], not convex at the equimolar point), each
    combination equally often."""
    rng = np.random.default_rng(seed)
    paths, kinds = [], []
    for k in range(mixtures):
        n, kind = 2 + k % 5, VERIFY_KINDS[k % 3]
        thermo = {"model": "ideal"}
        if kind == "convex":
            thermo = {"model": "margules", "amat": _sym(rng, n, -1.0, 1.0).tolist()}
        elif kind == "split":
            thermo = {"model": "margules",
                      "amat": _sym(rng, n, 1.2 * n, 1.6 * n).tolist()}
        config = {"mixture": {"names": [f"S{i}" for i in range(n)],
                              "dmat": _sym(rng, n, 0.5, 5.0).tolist()},
                  "thermo": thermo, "seed": int(rng.integers(2 ** 31))}
        path = workdir / f"verify_{k:02d}.json"
        path.write_text(json.dumps(config))
        md.cli.load_config(path)
        paths.append(path)
        kinds.append(kind)

    def run():
        results = []
        for path in paths:
            buf = io.StringIO()
            code = md.cli.main(["verify", "--config", str(path)], out=buf)
            results.append((code, buf.getvalue()))
        return results

    def check(results) -> list[str]:
        return check_verify_output(results, kinds)

    return Case(params={"mixtures": mixtures, "kinds": kinds},
                run=run, check=check)


def check_verify_output(results, kinds) -> list[str]:
    """Exit 0 and no FAIL row; XFAIL only on phase-splitting mixtures."""
    problems = [] if len(results) == len(kinds) else [
        f"{len(results)} reports for {len(kinds)} mixtures"]
    for k, ((code, text), kind) in enumerate(zip(results, kinds)):
        rows = [line.split(None, 1) for line in text.splitlines()[1:]]
        status = [r[0] for r in rows if r]
        if code != 0:
            problems.append(f"mixture {k}: exit code {code}")
        if not status or set(status) - {"PASS", "XFAIL", "FAIL"}:
            problems.append(f"mixture {k}: unreadable report {text!r}")
        if "FAIL" in status:
            problems.append(f"mixture {k}: FAIL row")
        if "XFAIL" in status and kind != "split":
            problems.append(f"mixture {k}: XFAIL on {kind} thermo")
    return problems


WORKLOADS = {
    "binary_oracle_200": binary_oracle_200,
    "margules6_wide": margules6_wide,
    "cli_dense_output": cli_dense_output,
    "verify_sweep": verify_sweep,
}
