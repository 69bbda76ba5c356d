"""The narrative scripts in demos/ and the README's library quick start run
to completion against the public API, whose names one test pins."""
import re
import runpy
import types
from pathlib import Path

import pytest

import msdiff
from msdiff import errors

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    if path == README:  # its first python block, the library quick start
        code = re.search(r"```python\n(.*?)```", path.read_text(), re.S).group(1)
        exec(compile(code, str(path), "exec"), {"__name__": "__main__"})
    else:
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


#: The public names of ``msdiff`` (its submodules aside) and the exception
#: classes of ``msdiff.errors``: changing either is an API change.
PUBLIC_API = [
    "Checkpoint", "Composition", "CrossDiffusionEvent", "DrivingForce", "EntropyLedger",
    "Field", "FluxSet", "Grid1D", "IDEAL", "MixtureSpec", "NO_REACTIONS", "Reaction",
    "ReactionNetwork", "SimConfig", "SpectrumReport", "TernaryReport", "ThermoModel",
    "Trajectory", "convexity_check", "detect_uphill", "diffusion_operator_spectrum",
    "driving_force", "entropy_ledger", "face_fluxes", "filtration_oracle", "simulate",
    "solve_fluxes_invariant", "solve_fluxes_reduced", "spectrum", "stable_dt",
    "ternary_closed_forms",
]
ERRORS = [
    "ConfigError", "DegenerateComposition", "EigSolverFailure", "IsobaricDrift",
    "MaxStepsExceeded", "MsDiffError", "NonFiniteState", "NonMonotoneFlux", "NotConvex",
    "PositivityViolation", "SingularSystem",
]


def test_public_surface_is_pinned():
    names = sorted(n for n, v in vars(msdiff).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    classes = sorted(n for n, v in vars(errors).items()
                     if isinstance(v, type) and issubclass(v, Exception))
    assert (names, classes) == (PUBLIC_API, ERRORS)
