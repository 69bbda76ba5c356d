"""Command-line front door: config parsing, outputs, exit codes."""
import copy
import csv
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msdiff.cli
from msdiff import errors
from msdiff.cli import (EXIT_CONFIG, EXIT_CONVEXITY, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_POSITIVITY, EXIT_STEP_LIMIT,
                        _write_trajectory_csv, load_config, main)
from msdiff.errors import ConfigError, MsDiffError
from msdiff.mixture import Composition, MixtureSpec
from msdiff.solver import Checkpoint, Grid1D, SimConfig, Trajectory, simulate
from msdiff.thermo import X_FLOOR, driving_force
from msdiff.verify import VERIFY_SAMPLES, _paired_samples, flux_routes, property_sweep

CONFIGS = Path(__file__).parents[1] / "configs"


def _run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def _write(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


BASE = {
    "mixture": {"names": ["A", "B"], "dmat": [[0.0, 1.0], [1.0, 0.0]]},
    "composition": {"x": [0.5, 0.5], "c_tot": 2.0},
    "gradients": [0.15, -0.15],
}

#: A JSON integer literal beyond float range (401 digits).
BIG = 10 ** 400


class TestLoadConfig:
    def test_shipped_configs_parse(self):
        for p in sorted(CONFIGS.glob("*.json")):
            load_config(p)

    def test_unknown_top_level_key(self, tmp_path):
        cfg = dict(BASE, extra=1)
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_unknown_nested_key(self, tmp_path):
        cfg = {"mixture": {"names": ["A", "B"], "dmat": [[0, 1], [1, 0]],
                           "typo": True}}
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_invalid_mixture_reported_with_code(self, tmp_path):
        cfg = {"mixture": {"names": ["A", "B"], "dmat": [[0, 1], [2, 0]]}}
        with pytest.raises(ConfigError, match=r"^mixture: dmat must be symmetric: "
                           r"dmat\[0,1\]=1\.0 != dmat\[1,0\]=2\.0$"):
            load_config(_write(tmp_path, cfg))

    @pytest.mark.parametrize("dmat,err", [
        ([[0, 1, 2], [3, 0, 1], [2, 1, 0]],
         "mixture: dmat must be symmetric: dmat[0,1]=1.0 != dmat[1,0]=3.0"),
        ([[0, 1, 2], [1, 0, 1]], "mixture: dmat shape (2, 3) does not match 3 species"),
        ([[1, 1, 2], [1, 0, 1], [2, 1, 0]], "mixture: dmat diagonal is unused and must be 0"),
    ])
    def test_bad_dmat_exits_2_with_one_line(self, tmp_path, capsys, dmat, err):
        cfg = dict(BASE, mixture={"names": ["A", "B", "C"], "dmat": dmat},
                   composition={"x": [0.2, 0.3, 0.5]})
        assert _config_error(tmp_path, capsys, cfg) == f"config error: {err}\n"

    def test_gradients_must_balance(self, tmp_path):
        cfg = dict(BASE, gradients=[0.1, 0.0])
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("grads", [[np.nan, 0.1], [np.inf, -np.inf], [np.inf, 0.1]])
    def test_non_finite_gradients_exit_2(self, tmp_path, capsys, grads):
        code, out = _run(["fluxes", "--config", _write(tmp_path, dict(BASE, gradients=grads))])
        err = capsys.readouterr().err
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and err.startswith("config error: gradients must be finite")

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("command, path, err", [
        ("fluxes", ("composition", "x"), "composition: mole fractions must sum to 1, got inf"),
        ("fluxes", ("gradients",), "gradients must be finite and sum to zero: "
                                   "sum=inf, max=1e+308"),
        ("simulate", ("initial", "x_left"), "initial: mole fractions must sum to 1 in every cell"),
    ], ids=["composition", "gradients", "initial"])
    def test_overflowing_row_sum_exits_2(self, tmp_path, capsys, command, path, err):
        """A row of finite entries whose sum overflows fails its check."""
        cfg = json.loads((CONFIGS / "binary_ideal.json").read_text())
        _section(cfg, path[:-1])[path[-1]] = [1e308, 1e308]
        code, out = _run([command, "--config", _write(tmp_path, cfg),
                          *(["--out", str(tmp_path / "out")] if command == "simulate" else [])])
        assert (code, out) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == f"config error: {err}\n"

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)


#: Documented exit code of every MsDiffError class.
EXIT_OF = {
    errors.ConfigError: EXIT_CONFIG,
    errors.DegenerateComposition: EXIT_CONFIG,
    errors.PositivityViolation: EXIT_POSITIVITY,
    errors.NotConvex: EXIT_CONVEXITY,
    errors.MaxStepsExceeded: EXIT_STEP_LIMIT,
    errors.SingularSystem: EXIT_NUMERICAL,
    errors.EigSolverFailure: EXIT_NUMERICAL,
    errors.NonMonotoneFlux: EXIT_NUMERICAL,
    errors.NonFiniteState: EXIT_NUMERICAL,
    errors.IsobaricDrift: EXIT_NUMERICAL,
    MsDiffError: EXIT_NUMERICAL,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestErrorMap:
    def test_every_error_class_has_a_documented_code(self):
        assert set(_subclasses(MsDiffError)) == set(EXIT_OF) - {MsDiffError}

    @pytest.mark.parametrize("cls", list(EXIT_OF), ids=lambda c: c.__name__)
    def test_one_line_and_exit_code(self, cls, tmp_path, monkeypatch, capsys):
        def fail(path):
            raise cls("boom at x = [1, 0]")
        monkeypatch.setattr(msdiff.cli, "load_config", fail)
        code, out = _run(["spectrum", "--config", _write(tmp_path, BASE)])
        err = capsys.readouterr().err
        assert code == EXIT_OF[cls]
        assert out == ""
        assert err.count("\n") == 1 and "boom at x = [1, 0]" in err
        assert "Traceback" not in err

    def test_fluxes_at_pure_corner_exits_2(self, tmp_path, capsys):
        cfg = dict(BASE, composition={"x": [1.0, 0.0], "c_tot": 1.0})
        code, _ = _run(["fluxes", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1

    def test_fluxes_at_pure_corner_names_driving_force(self, tmp_path, capsys):
        # the error names the function fluxes calls, not one it calls in turn
        cfg = dict(BASE, composition={"x": [1.0, 0.0], "c_tot": 1.0})
        assert _run(["fluxes", "--config", _write(tmp_path, cfg)])[0] == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "degenerate composition: driving_force needs an interior composition "
            f"(every x_i finite and >= {X_FLOOR:g})\n")

    @pytest.mark.parametrize("section,value", [
        ("initial", {"kind": "uniform", "x": ["a", 0.5]}),
        ("initial", {"kind": "uniform", "x": {"A": 0.5}}),
        ("initial", {"kind": "step", "x_left": ["a", 0.5], "x_right": [0.5, 0.5]}),
        ("initial", {"kind": "ramp", "x_left": [0.5, 0.5], "x_right": [0.5, None]}),
        ("initial", {"kind": "cells", "x": [["a", 0.5]] * 16}),
        ("initial", {"kind": "cells", "x": [[0.5, 0.5], [1.0]] * 8}),
        ("gradients", ["a", 0.1]),
        ("gradients", [[0.1], -0.1]),
        ("composition", {"x": {"A": 0.5}}),
        ("composition", {"x": [0.5, 0.5], "c_tot": [1.0]}),
        ("grid", {"ncells": [16], "length": 1.0}),
        ("mixture", {"names": 3, "dmat": [[0.0, 1.0], [1.0, 0.0]]}),
        ("mixture", {"names": ["A", "B"], "dmat": [[0.0, "a"], ["a", 0.0]]}),
        ("mixture", {"names": ["A", "B"], "dmat": [[0.0, 1.0], [1.0]]}),
        ("reactions", [{"reactants": ["A"], "products": {"B": 1}, "rate_constant": 1.0}]),
        ("reactions", [{"reactants": {"A": 1}, "products": {"B": 1}, "rate_constant": [1]}]),
        ("thermo", {"model": "margules", "amat": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}),
        ("thermo", {"model": "ideal", "amat": [[0, 1], [1, 0]]}),
        ("thermo", {"model": "margules", "amat": {"A": 1}}),
        ("initial", 5),
        ("initial", {"kind": "step", "x_left": [0.5, 0.5], "x_right": [0.2, 0.3, 0.5]}),
        ("grid", {"ncells": BIG, "length": 1.0}),
        ("reactions", 5),
        ("reactions", {}),
        ("composition", {"x": [[0.5, 0.5], [0.3, 0.7]]}),
    ])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, section, value):
        cfg = json.loads(json.dumps(SIM))
        cfg["composition"] = BASE["composition"]
        cfg[section] = value
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


def _full_config(initial=None):
    """A valid config with every section."""
    cfg = dict(SIM, sim=dict(SIM["sim"], cfl_safety=0.4),
               composition=BASE["composition"], gradients=BASE["gradients"],
               thermo={"model": "margules", "amat": [[0.0, 0.5], [0.5, 0.0]]},
               reactions=[{"reactants": {"A": 1}, "products": {"B": 1},
                           "rate_constant": 1.0}])
    if initial is not None:
        cfg["initial"] = initial
    return json.loads(json.dumps(cfg))  # a deep copy


def _section(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _config_error(tmp_path, capsys, cfg) -> str:
    """stderr of ``msdiff spectrum`` on ``cfg``, which must exit 2 with
    one line and no output."""
    code, out = _run(["spectrum", "--config", _write(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


_STEP = {"kind": "step", "x_left": [0.7, 0.3], "x_right": [0.3, 0.7]}

#: case -> (the initial section, the path to the section, its name in
#: messages, its required keys)
SECTIONS = {
    "config": (None, (), "config", ["mixture"]),
    "mixture": (None, ("mixture",), "mixture", ["names", "dmat"]),
    "thermo": (None, ("thermo",), "thermo", ["model", "amat"]),
    "composition": (None, ("composition",), "composition", ["x"]),
    "grid": (None, ("grid",), "grid", ["ncells", "length"]),
    "initial-uniform": ({"kind": "uniform", "x": [0.5, 0.5]}, ("initial",), "initial",
                        ["kind", "x"]),
    "initial-step": (_STEP, ("initial",), "initial", ["kind", "x_left", "x_right"]),
    "initial-ramp": (dict(_STEP, kind="ramp"), ("initial",), "initial",
                     ["kind", "x_left", "x_right"]),
    "initial-cells": ({"kind": "cells", "x": [[0.5, 0.5]] * 16}, ("initial",), "initial",
                      ["kind", "x"]),
    "reactions": (None, ("reactions", 0), "reactions[0]",
                  ["reactants", "products", "rate_constant"]),
    "reactants": (None, ("reactions", 0, "reactants"), "reactions[0].reactants", []),
    "products": (None, ("reactions", 0, "products"), "reactions[0].products", []),
    "sim": (None, ("sim",), "sim", ["t_end"]),
}


#: Paths of values the config reads as numbers, one per kind of place.
NUMBER_PATHS = [
    ("sim", "t_end"), ("grid", "length"), ("initial", "c_tot"), ("gradients", 0),
    ("composition", "c_tot"), ("sim", "cfl_safety"), ("sim", "checkpoint_interval"),
    ("reactions", 0, "rate_constant"), ("reactions", 0, "reactants", "A"),
    ("thermo", "amat", 0, 1), ("mixture", "dmat", 0, 1), ("initial", "x_left", 0),
    ("composition", "x", 0),
]


def _path_id(path) -> str:
    return ".".join(map(str, path))


def _dotted(path) -> str:
    """``path`` as config errors name it, e.g. ``mixture.dmat[0][1]``."""
    return path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                             for k in path[1:])


class TestSchema:
    def test_full_config_is_valid(self, tmp_path):
        for initial, *_ in SECTIONS.values():
            load_config(_write(tmp_path, _full_config(initial)))

    @pytest.mark.parametrize("case", sorted(SECTIONS))
    def test_unknown_key_names_the_section(self, tmp_path, capsys, case):
        initial, path, ctx, _ = SECTIONS[case]
        cfg = _full_config(initial)
        _section(cfg, path)["bogus"] = 1
        err = _config_error(tmp_path, capsys, cfg)
        assert err.startswith(f"config error: {ctx}: unknown keys ['bogus']")

    @pytest.mark.parametrize("case,key", [(case, key) for case in sorted(SECTIONS)
                                          for key in SECTIONS[case][3]])
    def test_missing_required_key_is_named(self, tmp_path, capsys, case, key):
        initial, path, ctx, _ = SECTIONS[case]
        cfg = _full_config(initial)
        del _section(cfg, path)[key]
        err = _config_error(tmp_path, capsys, cfg)
        assert err == f"config error: {ctx}: missing required key '{key}'\n"

    def test_defaults_are_the_constructors(self, tmp_path):
        cfg = load_config(_write(tmp_path, dict(_full_config(), sim={"t_end": 0.5},
                                                composition={"x": [0.5, 0.5]})))
        assert cfg.sim == SimConfig(t_end=0.5)
        assert cfg.composition.c_tot == Composition(x=[0.5, 0.5]).c_tot

    def test_readme_table_lists_the_constructor_fields(self):
        rows = {}
        for line in (CONFIGS.parent / "README.md").read_text().splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 4:
                rows[cells[0].strip("`")] = cells[1:]
        for section, cls in [("mixture", MixtureSpec), ("composition", Composition),
                             ("grid", Grid1D), ("sim", SimConfig)]:
            required, optional, built_by = rows[section]
            fields = dataclasses.fields(cls)
            assert re.findall(r"`(\w+)`", required) == [
                f.name for f in fields if f.default is dataclasses.MISSING]
            assert re.findall(r"`(\w+)`", optional) == [
                f.name for f in fields if f.default is not dataclasses.MISSING]
            for f in fields:
                if f.default not in (dataclasses.MISSING, None):
                    assert f"`{f.name}` ({f.default:,})" in optional
            assert built_by.startswith(f"`{cls.__name__}`")

    @pytest.mark.parametrize("path", NUMBER_PATHS, ids=_path_id)
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, path):
        # float() of such a literal raises OverflowError, once a traceback
        cfg = _full_config()
        _section(cfg, path[:-1])[path[-1]] = BIG
        assert _config_error(tmp_path, capsys, cfg).startswith("config error: ")

    @pytest.mark.parametrize("path", NUMBER_PATHS, ids=_path_id)
    def test_string_number_exits_2_naming_its_place(self, tmp_path, capsys, path):
        # the string of a valid value: float() and numpy used to parse it
        cfg = _full_config()
        section = _section(cfg, path[:-1])
        section[path[-1]] = text = str(section[path[-1]])
        err = _config_error(tmp_path, capsys, cfg)
        assert err == f'config error: {_dotted(path)}: expected a number, got "{text}"\n'

    @pytest.mark.parametrize("path", [("reactions", 0, "reactants", "A"),
                                      ("reactions", 0, "rate_constant")], ids=_path_id)
    def test_boolean_number_exits_2(self, tmp_path, capsys, path):
        cfg = _full_config()
        _section(cfg, path[:-1])[path[-1]] = True  # float(True) is the valid 1.0
        err = _config_error(tmp_path, capsys, cfg)
        assert err == f"config error: {_dotted(path)}: expected a number, got true\n"


class TestParser:
    @pytest.mark.parametrize("command,flag", [
        ("spectrum", "--out"), ("spectrum", "--seed"), ("fluxes", "--out"),
        ("fluxes", "--seed"), ("simulate", "--seed"), ("verify", "--out")])
    def test_subcommand_rejects_flags_it_does_not_read(self, tmp_path, capsys,
                                                       command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", _write(tmp_path, BASE), flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_main_does_not_rebuild_the_parser(self, tmp_path, monkeypatch):
        def fail():
            raise AssertionError("parser rebuilt")
        monkeypatch.setattr(msdiff.cli, "build_parser", fail)
        assert _run(["spectrum", "--config", _write(tmp_path, BASE)])[0] == EXIT_OK


def test_import_loads_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency: importing msdiff and its CLI
    # after numpy adds no other third-party package to sys.modules
    src = str(Path(msdiff.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy\n"
         "top = lambda: {m.split('.')[0] for m in sys.modules}\n"
         "before = top()\n"
         "import msdiff, msdiff.cli\n"
         "print(sorted(top() - before - set(sys.stdlib_module_names) - {'msdiff'}))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert done.stdout == "[]\n"


class TestSpectrumCommand:
    def test_json_report(self, tmp_path):
        code, out = _run(["spectrum", "--config", _write(tmp_path, BASE)])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["gap_ok"] is True
        assert rep["delta"] == 1.0
        np.testing.assert_allclose(rep["eigenvalues"], [0.0, -1.0], atol=1e-12)

    def test_missing_composition(self, tmp_path):
        cfg = {"mixture": BASE["mixture"]}
        code, _ = _run(["spectrum", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_CONFIG


#: ``ternary_equal_d.json``'s D (50 off the diagonal) made extreme: every
#: D_ij = 1e300, or D_12 = 1e-300 with the rest left at 50.
EXTREME_DMAT = {
    "uniform-1e300": [[0.0, 1e300, 1e300], [1e300, 0.0, 1e300], [1e300, 1e300, 0.0]],
    "d12-1e-300": [[0.0, 1e-300, 50.0], [1e-300, 0.0, 50.0], [50.0, 50.0, 0.0]],
}


@pytest.mark.filterwarnings("error")  # a warning would be an extra stderr line
@pytest.mark.parametrize("case, command, code, err", [
    ("uniform-1e300", "spectrum", EXIT_OK, ""),
    ("uniform-1e300", "fluxes", EXIT_OK, ""),
    ("uniform-1e300", "verify", EXIT_OK, ""),
    ("d12-1e-300", "spectrum", EXIT_OK, ""),
    ("d12-1e-300", "fluxes", EXIT_NUMERICAL,
     "numerical failure: projected solve residual nan (scale nan)\n"),
    ("d12-1e-300", "verify", EXIT_NUMERICAL,
     "numerical failure: projected solve residual nan (scale nan)\n"),
], ids=[f"{case}-{command}" for case in EXTREME_DMAT
        for command in ("spectrum", "fluxes", "verify")])
def test_extreme_diffusivities_fail_closed_or_pass(tmp_path, capsys, case, command, code, err):
    """Diffusivities that pass the D rule at either end of the float range.
    At a uniform 1e300 the spectrum {0, -1e-300, -1e-300} meets its gap
    delta = 1e-300: the zero eigenvalue is tested against the scaled norm of
    A_S, whose squares would underflow, and the ternary closed forms take
    products of 1/D, whose products of D would overflow.  At D_12 = 1e-300
    the projected solve meets a zero pivot, and its residual check rejects
    the NaN left behind without a numpy warning."""
    cfg = json.loads((CONFIGS / "ternary_equal_d.json").read_text())
    cfg["mixture"]["dmat"] = EXTREME_DMAT[case]
    got, out = _run([command, "--config", _write(tmp_path, cfg)])
    assert (got, capsys.readouterr().err) == (code, err)
    if command == "verify" and code == EXIT_OK:
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == []


#: The values an extreme D_ij or Margules A_ij takes in the table below.
EXTREME_VALUES = {"dmat": (1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300),
                  "amat": (-1e300, -1e100, -30.0, 1e-300, 30.0, 1e100, 1e300)}


def _pair_sets(n: int, two: bool) -> list[tuple]:
    """Each off-diagonal pair, each two pairs if ``two``, and all pairs, once
    each: at n = 2 the one pair is also all pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    sets = ([(p,) for p in pairs] + (list(itertools.combinations(pairs, 2)) if two else [])
            + [tuple(pairs)])
    return list(dict.fromkeys(sets))


def _extreme_configs(cfg: dict, matrix: str):
    """(label, config) per case: ``cfg`` with the pairs of each pair set of
    ``matrix`` set to each extreme value.  An ideal config gets a Margules A
    that is zero off those pairs."""
    n = len(cfg["mixture"]["names"])
    for pairs in _pair_sets(n, two=matrix == "dmat"):
        for value in EXTREME_VALUES[matrix]:
            case = copy.deepcopy(cfg)
            if matrix == "dmat":
                m = case["mixture"]["dmat"]
            else:
                if case.get("thermo", {}).get("model") != "margules":
                    case["thermo"] = {"model": "margules", "amat": [[0.0] * n] * n}
                m = case["thermo"]["amat"] = [list(row) for row in case["thermo"]["amat"]]
            for i, j in pairs:
                m[i][j] = m[j][i] = value
            yield f"{matrix} {pairs} = {value!r}", case


@pytest.mark.filterwarnings("error")  # a numpy warning escapes as an exception
@pytest.mark.parametrize("matrix", ["dmat", "amat"])
@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_extreme_matrices_fail_closed_or_pass(tmp_path, capsys, name, matrix):
    """Every shipped config with whole D or Margules A pairs at either end of
    the float range, through ``spectrum``, ``fluxes`` (where the config has
    gradients) and ``verify``: each run returns an exit code in 0-6, prints
    one stderr line on exits 2-6 and none on 0 or 1, raises nothing (a numpy
    warning included), and prints no ``np.float64`` repr.  A verify FAIL row
    is not flagged: the gap verdict at a 1e300 spread of D is beyond double
    precision."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    commands = ["spectrum"] + (["fluxes"] if "gradients" in cfg else []) + ["verify"]
    flagged = []
    for label, case in _extreme_configs(cfg, matrix):
        path = _write(tmp_path, case)
        for command in commands:
            try:
                code, out = _run([command, "--config", path])
            except Exception as exc:  # noqa: BLE001 - any escape is flagged
                code, out = f"raised {exc!r}", ""
            err = capsys.readouterr().err
            lines = err.splitlines()
            if code not in range(7) or len(lines) != (code >= 2) or "np.float64" in out + err:
                flagged.append(f"{label} {command}: exit {code}, stderr {lines}")
    assert flagged == []


class TestFluxesCommand:
    def test_routes_agree_in_output(self, tmp_path):
        code, out = _run(["fluxes", "--config", _write(tmp_path, BASE)])
        assert code == EXIT_OK
        rep = json.loads(out)
        np.testing.assert_allclose(rep["invariant"], [-0.3, 0.3], rtol=1e-12)
        assert rep["agreement"] < 1e-10

    def test_bad_config_exit(self, tmp_path):
        cfg = {"mixture": BASE["mixture"], "composition": BASE["composition"]}
        code, _ = _run(["fluxes", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("path", sorted(p.name for p in CONFIGS.glob("*.json")
                                            if "gradients" in json.loads(p.read_text())))
    def test_flux_routes_are_the_printed_bits(self, path):
        cfg = load_config(CONFIGS / path)
        d = driving_force(cfg.model, cfg.composition, cfg.gradients)
        ji, jr, agreement = flux_routes(cfg.composition, cfg.spec.dmat, d)
        assert _run(["fluxes", "--config", str(CONFIGS / path)]) == (EXIT_OK, json.dumps(
            {"agreement": float(agreement), "invariant": ji.tolist(),
             "reduced": jr.tolist()}) + "\n")

    @pytest.mark.parametrize("key, value, err", [
        ("composition", {"x": [0.3, 0.3, 0.5], "c_tot": 1.0},
         "config error: composition: mole fractions must sum to 1, got 1.1\n"),
        ("gradients", [1.0, 1.0, 1.0],
         "config error: gradients must be finite and sum to zero: sum=3.0, max=1.0\n")])
    def test_bad_input_message_prints_plain_floats(self, tmp_path, capsys, key, value, err):
        cfg = dict(json.loads((CONFIGS / "ternary_osmotic.json").read_text()), **{key: value})
        assert _run(["fluxes", "--config", _write(tmp_path, cfg)]) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == err

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_representable_fluxes_at_huge_total_exit_0(self, tmp_path, capsys):
        """At c_tot = 1e308 the binary's J = [-3e307, 3e307] is representable,
        though its squared entries overflow: the residual check's norms are
        scaled by max|v|, so both routes print it and agree."""
        cfg = json.loads((CONFIGS / "binary_ideal.json").read_text())
        cfg["composition"]["c_tot"] = 1e308
        code, out = _run(["fluxes", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        (line,) = out.splitlines()
        got = json.loads(line)
        assert got["agreement"] <= 1e-10 and got["invariant"] == [-3e307, 3e307]

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("path, err", [
        ("ternary_equal_d.json", "projected solve residual nan (scale nan)"),
    ], ids=["ternary_equal_d"])
    def test_overflowing_fluxes_exit_6(self, tmp_path, capsys, path, err):
        """At c_tot = 1e308 the ternary's solve overflows."""
        cfg = json.loads((CONFIGS / path).read_text())
        cfg["composition"]["c_tot"] = 1e308
        assert _run(["fluxes", "--config", _write(tmp_path, cfg)]) == (EXIT_NUMERICAL, "")
        assert capsys.readouterr().err == f"numerical failure: {err}\n"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flux_routes_batch_is_its_rows(self, n):
        rng = np.random.default_rng(n)
        x, d = _paired_samples(rng, n)
        dmat = rng.uniform(0.5, 5.0, (n, n))
        dmat = dmat + dmat.T
        np.fill_diagonal(dmat, 0.0)
        ji, jr, agreement = flux_routes(Composition(x=x, c_tot=1.0), dmat, d)
        assert agreement.shape == (VERIFY_SAMPLES,)
        for k in range(VERIFY_SAMPLES):
            one = flux_routes(Composition(x=x[k], c_tot=1.0), dmat, d[k])
            # the batching contract: rows to 1e-13 relative (stacked solves
            # differ from unstacked ones in the last bits)
            for row, single in zip((ji[k], jr[k]), one[:2]):
                np.testing.assert_allclose(row, single, rtol=1e-13,
                                           atol=1e-13 * np.max(np.abs(single)))
            # the agreement of each row is that row's own, bit for bit
            assert agreement[k] == (np.max(np.abs(ji[k] - jr[k]))
                                    / max(np.max(np.abs(ji[k])), 1e-300))
            assert one[2] < 1e-10 and agreement[k] < 1e-10


SIM = {
    "mixture": {"names": ["A", "B"], "dmat": [[0.0, 1.0], [1.0, 0.0]]},
    "grid": {"ncells": 16, "length": 1.0},
    "initial": {"kind": "step", "x_left": [0.7, 0.3], "x_right": [0.3, 0.7],
                "c_tot": 1.0},
    "sim": {"t_end": 0.004, "checkpoint_interval": 0.002},
}


class TestSimulateCommand:
    def test_writes_csv_pair(self, tmp_path):
        cfgp = _write(tmp_path, SIM)
        code, _ = _run(["simulate", "--config", cfgp, "--out", str(tmp_path)])
        assert code == EXIT_OK
        with (tmp_path / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "cell_index", "cell_center", "species_name",
                           "concentration"]
        # 3 checkpoints x 16 cells x 2 species
        assert len(rows) == 1 + 3 * 16 * 2
        assert rows[1][3] == "A"
        with (tmp_path / "ledger.csv").open() as fh:
            lrows = list(csv.reader(fh))
        assert lrows[0] == ["time", "V", "W", "cumulative_W",
                            "min_concentration", "mass_A", "mass_B"]
        assert len(lrows) == 4
        masses = np.array([float(r[5]) for r in lrows[1:]])
        np.testing.assert_allclose(masses, masses[0], rtol=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = _write(tmp_path, SIM)
        outs = []
        for name in ("r1", "r2"):
            d = tmp_path / name
            code, _ = _run(["simulate", "--config", cfgp, "--out", str(d)])
            assert code == EXIT_OK
            outs.append((d / "trajectory.csv").read_bytes()
                        + (d / "ledger.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_step_limit_exit(self, tmp_path):
        cfg = json.loads(json.dumps(SIM))
        cfg["sim"]["max_steps"] = 2
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_STEP_LIMIT

    def test_unreachable_checkpoints_exit_before_stepping(self, tmp_path, capsys,
                                                          monkeypatch):
        # dt stops at every checkpoint: 2e298 intervals cannot fit in 1e5 steps
        def no_step(*args):
            raise AssertionError("stepped")
        monkeypatch.setattr(msdiff.solver, "_advance", no_step)
        cfg = json.loads((CONFIGS / "binary_ideal.json").read_text())
        cfg["sim"].update(checkpoint_interval=1e-300, max_steps=10 ** 5)
        out = tmp_path / "out"
        assert _run(["simulate", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == (EXIT_STEP_LIMIT, "")
        assert capsys.readouterr().err == (
            "step limit: t = 0.0 to t_end = 0.02 in steps of at most checkpoint_interval"
            " = 1e-300 takes more than max_steps = 100000 steps\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("coef", [float("inf"), float("nan")])
    def test_non_finite_stoichiometry_is_config_error(self, tmp_path, capsys, coef):
        # json reads Infinity and NaN; equal sums pass mole conservation
        cfg = json.loads((CONFIGS / "reaction_ab.json").read_text())
        for rx in cfg["reactions"]:
            rx["reactants"] = {k: coef for k in rx["reactants"]}
            rx["products"] = {k: coef for k in rx["products"]}
        assert _run(["simulate", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path)]) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == (
            "config error: reactions[0]: stoichiometric coefficients must be finite"
            " and nonnegative\n")

    def test_convexity_exit(self, tmp_path):
        cfg = json.loads(json.dumps(SIM))
        cfg["initial"] = {"kind": "uniform", "x": [0.5, 0.5], "c_tot": 1.0}
        cfg["thermo"] = {"model": "margules", "amat": [[0.0, 4.0], [4.0, 0.0]]}
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_CONVEXITY

    @pytest.mark.parametrize("key,value", [
        ("t_end", float("nan")), ("t_end", float("inf")),
        ("dt_refresh_steps", 0), ("checkpoint_interval", -0.001),
        ("checkpoint_interval", 0.0), ("checkpoint_interval", float("nan")),
        ("floor_eps", 0.0), ("floor_eps", float("nan")),
        ("max_steps", [3]),
    ])
    def test_bad_sim_value_is_config_error(self, tmp_path, key, value):
        cfg = json.loads(json.dumps(SIM))
        cfg["sim"][key] = value
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "ncells", 16.7), ("grid", "ncells", True),
        ("grid", "ncells", "16"), ("grid", "ncells", float("inf")),
        ("sim", "max_steps", 2.9), ("sim", "max_steps", True),
        ("sim", "max_steps", 1e400),
    ])
    def test_non_integer_count_is_config_error(self, tmp_path, section, key, value):
        # int() used to truncate 16.7 to 16 cells and True to 1 step
        cfg = json.loads(json.dumps(SIM))
        cfg[section][key] = value
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "trajectory.csv").exists()

    def test_integral_float_count_is_accepted(self, tmp_path):
        cfg = json.loads(json.dumps(SIM))
        cfg["grid"]["ncells"] = 16.0
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path)])
        assert code == EXIT_OK
        with (tmp_path / "trajectory.csv").open() as fh:
            assert len(list(csv.reader(fh))) == 1 + 3 * 16 * 2

    @pytest.mark.parametrize("initial", [
        {"kind": "uniform", "x": [0.5, 0.5], "c_tot": float("inf")},
        {"kind": "uniform", "x": [float("nan"), 0.5], "c_tot": 1.0},
        {"kind": "uniform", "x": [1.5, -0.5], "c_tot": 1.0},
    ])
    def test_bad_initial_field_is_config_error(self, tmp_path, initial):
        cfg = json.loads(json.dumps(SIM))
        cfg["initial"] = initial
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg)])
        assert code == EXIT_CONFIG

    def test_exact_zeros_run(self, tmp_path):
        cfg = json.loads(json.dumps(SIM))
        cfg["initial"] = {"kind": "step", "x_left": [1.0, 0.0],
                          "x_right": [0.0, 1.0], "c_tot": 1.0}
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path / "zeros")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys, out):
        def run(*args, **kwargs):
            raise AssertionError("simulate ran although --out is unusable")
        monkeypatch.setattr(msdiff.cli, "simulate", run)
        (tmp_path / "file").write_text("")
        code, stdout = _run(["simulate", "--config", _write(tmp_path, SIM),
                             "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and err.startswith("config error: --out: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("blocked", ["trajectory.csv", "ledger.csv"])
    def test_unwritable_csv_exits_2(self, tmp_path, capsys, blocked):
        (tmp_path / "out" / blocked).mkdir(parents=True)  # a directory in its place
        code, stdout = _run(["simulate", "--config", _write(tmp_path, SIM),
                             "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and err.startswith("config error: --out: ")
        assert blocked in err
        # neither this run's other CSV nor a temporary file is left behind
        assert [p.name for p in (tmp_path / "out").iterdir()] == [blocked]

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_overflowing_reaction_exits_6(self, tmp_path, capsys):
        """Rates overflow to inf at the first kernel call: a numerical
        failure, not a ValueError traceback."""
        cfg = json.loads(json.dumps(SIM))
        cfg["initial"]["c_tot"] = 1000.0
        cfg["reactions"] = [{"reactants": {"A": 2}, "products": {"B": 2},
                             "rate_constant": 1e303}]
        code, stdout = _run(["simulate", "--config", _write(tmp_path, cfg),
                             "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert (code, stdout) == (EXIT_NUMERICAL, "")
        assert err == ("numerical failure: reaction rate f[0,0] = -inf "
                       "(overflow or an invalid operation)\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("section, key, value, err", [
        ("grid", "length", 5e-324, "grid: cell width length / ncells = 0.0 is zero or subnormal"),
        ("initial", "x_left", [float("inf"), 0.3], "initial: x_left must be finite"),
        ("grid", "length", 1e-200, "grid: cell width length / ncells = 6.25e-202 has a square "
                                   "that is zero or subnormal"),
        ("initial", "c_tot", 1.2e307, "initial: the per-cell total concentrations sum to inf "
                                      "over 16 cells: they must be positive and uniform, with a "
                                      "finite sum"),
    ])
    def test_degenerate_grid_or_profile_exits_2(self, tmp_path, capsys, section, key,
                                                value, err):
        cfg = json.loads(json.dumps(SIM))
        cfg[section][key] = value
        code, stdout = _run(["simulate", "--config", _write(tmp_path, cfg),
                             "--out", str(tmp_path / "out")])
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("initial, err", [
        ({"kind": "step", "x_left": 0.5, "x_right": [0.3, 0.7]},
         "x_left is shaped (), expected (2,)"),
        ({"kind": "step", "x_left": [[0.7, 0.3]], "x_right": [0.3, 0.7]},
         "x_left is shaped (1, 2), expected (2,)"),
        ({"kind": "ramp", "x_left": [0.7, 0.3], "x_right": [0.2, 0.3, 0.5]},
         "x_right is shaped (3,), expected (2,)"),
        ({"kind": "uniform", "x": [[0.5, 0.5]]}, "x is shaped (1, 2), expected (2,)"),
        ({"kind": "cells", "x": [[0.5, 0.5]] * 15}, "x is shaped (15, 2), expected (16, 2)"),
    ], ids=["scalar-end", "row-end", "long-end", "uniform-row", "cells-short"])
    def test_misshaped_profile_exits_2(self, tmp_path, capsys, initial, err):
        """Each profile array must have its kind's shape, (n,) or (ncells, n);
        a scalar or a 1 x n row is not broadcast."""
        cfg = json.loads(json.dumps(SIM))
        cfg["initial"] = initial
        code, stdout = _run(["simulate", "--config", _write(tmp_path, cfg),
                             "--out", str(tmp_path / "out")])
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == f"config error: initial: {err}\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_amat_exits_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SIM))
        cfg["thermo"] = {"model": "margules", "amat": [[0.0, "INF"], ["INF", 0.0]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"INF"', "1e999"))  # JSON overflows to inf
        code, stdout = _run(["simulate", "--config", str(path),
                             "--out", str(tmp_path / "out")])
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == "config error: thermo: amat entries must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_reactions_parse_by_name(self, tmp_path):
        cfg = json.loads(json.dumps(SIM))
        cfg["reactions"] = [{"reactants": {"A": 1}, "products": {"B": 1},
                             "rate_constant": 1.0}]
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path / "rx")])
        assert code == EXIT_OK


def _reference_trajectory_csv(path: Path, traj, names) -> None:
    """The per-row ``csv.writer`` loop whose bytes the trajectory writer keeps."""
    def fmt(v):
        return format(float(v), ".17g")

    centers = traj.grid.cell_centers
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "cell_index", "cell_center", "species_name",
                    "concentration"])
        for cp in traj.checkpoints:
            for cell in range(traj.grid.ncells):
                for sp, name in enumerate(names):
                    w.writerow([fmt(cp.time), cell, fmt(centers[cell]),
                                name, fmt(cp.c[cell, sp])])


class TestTrajectoryWriter:
    @staticmethod
    def _assert_reference_bytes(tmp_path, traj, names):
        _write_trajectory_csv(tmp_path / "new.csv", traj, names)
        _reference_trajectory_csv(tmp_path / "ref.csv", traj, names)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("name", ["binary_ideal", "reaction_ab", "ternary_osmotic"])
    def test_shipped_config_trajectory(self, tmp_path, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        traj = simulate(cfg.initial, cfg.spec, cfg.model, cfg.reactions, cfg.sim)
        self._assert_reference_bytes(tmp_path, traj, cfg.spec.names)

    def test_quoted_names_and_edge_values(self, tmp_path):
        # names csv must quote, and values whose repr differs from .17g
        names = ("a,b", 'q"uote', "new\nline", "\u00e9")
        values = [-0.0, 5e-324, 1e300, 0.1, 1.0]
        grid = Grid1D(ncells=5, length=1.0)
        traj = Trajectory(grid=grid, names=names, checkpoints=[
            Checkpoint(time=t, c=np.roll(np.resize(values, 20), k).reshape(5, 4),
                       masses=np.zeros(4), entropy=0.0, dissipation=0.0,
                       cumulative_dissipation=0.0, min_concentration=0.0)
            for k, t in enumerate(values)])
        self._assert_reference_bytes(tmp_path, traj, names)


#: ``msdiff verify --seed S`` on each shipped config: (exit code, stdout),
#: with the states drawn in closed form (verify._interior_samples).  Only the
#: margules_spinodal seed-7 count differs from the former rejection sampler's (140).
PINNED_VERIFY = {
    ('binary_ideal.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('binary_margules.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('margules_spinodal.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'XFAIL normal-ellipticity: NotConvex at 138/200 states (phase-splitting thermo)\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('reaction_ab.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('ternary_equal_d.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  ternary-closed-forms: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('ternary_osmotic.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  ternary-closed-forms: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('binary_ideal.json', 7): (0, (
        'seed: 7\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('margules_spinodal.json', 7): (0, (
        'seed: 7\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'XFAIL normal-ellipticity: NotConvex at 152/200 states (phase-splitting thermo)\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('reaction_ab.json', 7): (0, (
        'seed: 7\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('ternary_equal_d.json', 7): (0, (
        'seed: 7\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  ternary-closed-forms: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('ternary_osmotic.json', 7): (0, (
        'seed: 7\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  ternary-closed-forms: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('quaternary_margules.json', 0): (0, (
        'seed: 0\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    ('quaternary_margules.json', 7): (0, (
        'seed: 7\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n')),
    # a seed whose centred normals alone leave a row sum of 2.2e-16 against
    # a row max of 1.5e-6, past driving_force's zero-sum rule
    **{(name, 18463): (0, (
        'seed: 18463\n'
        'PASS  spectral-gap: 200/200\n'
        'PASS  flux-route-agreement: 200/200\n'
        'PASS  normal-ellipticity: 200/200\n'
        'PASS  pointwise-entropy: 200/200\n'))
       for name in ('binary_ideal.json', 'binary_margules.json', 'reaction_ab.json')},
}


class TestVerifyCommand:
    def test_binary_ideal_all_pass(self, tmp_path):
        code, out = _run(["verify", "--config", _write(tmp_path, BASE)])
        assert code == EXIT_OK
        assert "FAIL" not in out.replace("XFAIL", "")
        for check in ("spectral-gap", "flux-route-agreement",
                      "normal-ellipticity", "pointwise-entropy"):
            assert check in out

    def test_ternary_gets_closed_form_row(self):
        code, out = _run(["verify", "--config",
                          str(CONFIGS / "ternary_osmotic.json")])
        assert code == EXIT_OK
        assert "ternary-closed-forms" in out

    def test_spinodal_thermo_is_xfail_not_fail(self):
        code, out = _run(["verify", "--config",
                          str(CONFIGS / "margules_spinodal.json")])
        assert code == EXIT_OK
        assert "XFAIL normal-ellipticity" in out

    @pytest.mark.filterwarnings("error")  # a warning would be an extra stderr line
    @pytest.mark.parametrize("name, a, code, err", [
        ("binary_margules.json", 1e308, EXIT_OK, ""),
        ("quaternary_margules.json", 1e308, EXIT_OK, ""),
        ("quaternary_margules.json", -1e308, EXIT_NUMERICAL,
         "numerical failure: symmetric eigensolve of a matrix with an inf or NaN entry\n"),
    ], ids=["binary", "quaternary", "quaternary-negative"])
    def test_huge_finite_amat_fails_closed(self, tmp_path, capsys, name, a, code, err):
        """Every off-diagonal A_ij = +-1e308 passes ThermoModel's rule.  At
        +1e308 the convexity form stays finite (0.5 m + 0.5 m^T) and every
        state is phase-splitting, so the pointwise-entropy check has no state
        to check: XFAIL with the count checked, not a PASS over an empty
        batch.  At -1e308 the operator matrix overflows and its eigensolve
        fails closed."""
        cfg = json.loads((CONFIGS / name).read_text())
        n = len(cfg["mixture"]["names"])
        cfg["thermo"]["amat"] = (a * (1.0 - np.eye(n))).tolist()
        got, out = _run(["verify", "--config", _write(tmp_path, cfg)])
        assert (got, capsys.readouterr().err) == (code, err)
        xfail = ["XFAIL normal-ellipticity: NotConvex at 200/200 states (phase-splitting thermo)",
                 "XFAIL pointwise-entropy: 0/200 states checked, none strongly convex "
                 "(phase-splitting thermo)"]
        assert (out.splitlines()[-2:] == xfail) is (code == EXIT_OK)

    @pytest.mark.parametrize("seed", [True, 7.0, -1, "7"])
    def test_non_integer_seed_is_config_error(self, tmp_path, seed):
        code, _ = _run(["verify", "--config", _write(tmp_path, {**BASE, "seed": seed})])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("name,seed", sorted(PINNED_VERIFY))
    def test_shipped_config_output_is_pinned(self, name, seed):
        assert _run(["verify", "--config", str(CONFIGS / name),
                     "--seed", str(seed)]) == PINNED_VERIFY[name, seed]

    @pytest.mark.parametrize("name,seed", sorted(PINNED_VERIFY))
    def test_property_sweep_rows_are_the_pinned_output(self, name, seed):
        cfg = load_config(CONFIGS / name)
        rows = property_sweep(cfg.spec, cfg.model, seed)
        printed = f"seed: {seed}\n" + "".join(f"{status:5s} {check}: {detail}\n"
                                              for check, status, detail in rows)
        assert printed == PINNED_VERIFY[name, seed][1]

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, seed):
        # the flag used to bypass the config's seed rule into a numpy traceback
        code, out = _run(["verify", "--config", _write(tmp_path, BASE), "--seed", seed])
        err = capsys.readouterr().err
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error: --seed: must be a nonnegative integer\n"

    def test_zero_seed_flag_runs(self, tmp_path):
        code, out = _run(["verify", "--config", _write(tmp_path, BASE), "--seed", "0"])
        assert code == EXIT_OK and out.startswith("seed: 0\n")

    def test_seed_override_changes_banner(self, tmp_path):
        cfgp = _write(tmp_path, BASE)
        _, out = _run(["verify", "--config", cfgp, "--seed", "7"])
        assert out.startswith("seed: 7\n")
