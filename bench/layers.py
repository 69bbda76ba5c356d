"""Which msdiff callables the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are named after the modules.  A target is the module attribute a
caller looks up at call time, so a function bound under several modules
(``gamma_matrix`` is imported into ``solver`` and ``mskernel``) is
listed once per binding.
"""
from __future__ import annotations

import json
import math
from pathlib import Path


def _faces(x, *args, **kwargs) -> int:
    """Face solves in one ``_fluxes_projected`` call: its batch size."""
    return math.prod(x.shape[:-1])


LAYERS = [
    ("solver.simulate", ("msdiff.simulate", "msdiff.solver.simulate",
                         "msdiff.cli.simulate"), None),
    ("solver.face_fluxes", ("msdiff.solver.face_fluxes",), None),
    ("solver.advance", ("msdiff.solver._advance",), None),
    ("solver.stable_dt", ("msdiff.solver.stable_dt",), None),
    ("solver.checkpoint", ("msdiff.solver._checkpoint",), None),
    ("solver.dissipation", ("msdiff.solver._dissipation_from",), None),
    ("mskernel.diffusion_matrix", ("msdiff.solver._diffusion_matrix_reduced",
                                   "msdiff.mskernel._diffusion_matrix_reduced"), None),
    ("mskernel.fluxes_projected", ("msdiff.solver._fluxes_projected",
                                   "msdiff.mskernel._fluxes_projected"), _faces),
    ("thermo.gamma_matrix", ("msdiff.solver.gamma_matrix", "msdiff.mskernel.gamma_matrix",
                             "msdiff.thermo.gamma_matrix"), None),
    ("mskernel.spectrum", ("msdiff.mskernel.spectrum",), None),
    ("mskernel.solve_fluxes_invariant", ("msdiff.mskernel.solve_fluxes_invariant",), None),
    ("mskernel.solve_fluxes_reduced", ("msdiff.mskernel.solve_fluxes_reduced",), None),
    ("mskernel.diffusion_operator_spectrum",
     ("msdiff.mskernel.diffusion_operator_spectrum",), None),
    ("thermo.convexity_check", ("msdiff.thermo.convexity_check",
                                "msdiff.mskernel.convexity_check"), None),
    ("thermo.driving_force", ("msdiff.thermo.driving_force",), None),
    ("verify.ternary_closed_forms", ("msdiff.verify.ternary_closed_forms",), None),
    ("cli.load_config", ("msdiff.cli.load_config",), None),
    ("cli.cmd_verify", ("msdiff.cli.cmd_verify",), None),
    ("cli.write_csv", ("msdiff.cli._write_trajectory_csv",
                       "msdiff.cli._write_ledger_csv"), None),
]

#: The kernel entry points the verify sweep calls once per sample.
VERIFY_CALLS = ("mskernel.spectrum", "mskernel.solve_fluxes_invariant",
                "mskernel.solve_fluxes_reduced", "mskernel.diffusion_operator_spectrum",
                "thermo.convexity_check", "thermo.driving_force",
                "verify.ternary_closed_forms")

#: (name, unit) of every per-layer metric the traced run reports, as
#: BENCHMARK.json lists them.
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]]


def per_layer_metrics(summary, ncells: int, bytes_written: int) -> dict[str, float]:
    """Metrics of one traced repetition (all but ``trace.overhead``).
    A layer with no spans reads 0."""
    def get(name, attr):
        st = summary.get(name)
        return getattr(st, attr) if st is not None else 0

    steps = get("solver.advance", "calls")
    sim_s = get("solver.simulate", "total_s")
    solve_s = get("mskernel.fluxes_projected", "total_s")
    out = {
        "solver.steps": steps,
        "solver.dt_refreshes": get("solver.stable_dt", "calls"),
        "solver.checkpoints": get("solver.checkpoint", "calls"),
        "solver.ms_per_step": 1e3 * sim_s / steps if steps else 0.0,
        "solver.cell_steps_per_s": steps * ncells / sim_s if sim_s else 0.0,
        "mskernel.face_solves_per_s":
            get("mskernel.fluxes_projected", "work") / solve_s if solve_s else 0.0,
        "cli.bytes_written": bytes_written,
    }
    for name, _ in PER_LAYER:
        if name in out or name == "trace.overhead":
            continue
        layer, _, kind = name.rpartition(".")
        out[name] = get(layer, {"s": "total_s", "self_s": "self_s", "calls": "calls"}[kind])
    return out
