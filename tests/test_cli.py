"""Command-line front door: config parsing, outputs, exit codes."""
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import msdiff.cli
from msdiff import errors
from msdiff.cli import (EXIT_CONFIG, EXIT_CONVEXITY, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_POSITIVITY, EXIT_STEP_LIMIT, load_config, main)
from msdiff.errors import ConfigError, MsDiffError

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
        with pytest.raises(ConfigError, match="AsymmetricD"):
            load_config(_write(tmp_path, cfg))

    def test_gradients_must_balance(self, tmp_path):
        cfg = dict(BASE, gradients=[0.1, 0.0])
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)


#: Documented exit code of every MsDiffError class.
EXIT_OF = {
    errors.ConfigError: EXIT_CONFIG,
    errors.DegenerateComposition: EXIT_CONFIG,
    errors.NonPositiveTotal: EXIT_CONFIG,
    errors.NegativeConcentration: EXIT_CONFIG,
    errors.PositivityViolation: EXIT_POSITIVITY,
    errors.NotConvex: EXIT_CONVEXITY,
    errors.MaxStepsExceeded: EXIT_STEP_LIMIT,
    errors.SingularSystem: EXIT_NUMERICAL,
    errors.EigSolverFailure: EXIT_NUMERICAL,
    errors.NonMonotoneFlux: EXIT_NUMERICAL,
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
    ])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, section, value):
        cfg = json.loads(json.dumps(SIM))
        cfg["composition"] = BASE["composition"]
        cfg[section] = value
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


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

    def test_reactions_parse_by_name(self, tmp_path):
        cfg = json.loads(json.dumps(SIM))
        cfg["reactions"] = [{"reactants": {"A": 1}, "products": {"B": 1},
                             "rate_constant": 1.0}]
        code, _ = _run(["simulate", "--config", _write(tmp_path, cfg),
                        "--out", str(tmp_path / "rx")])
        assert code == EXIT_OK


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

    def test_seed_override_changes_banner(self, tmp_path):
        cfgp = _write(tmp_path, BASE)
        _, out = _run(["verify", "--config", cfgp, "--seed", "7"])
        assert out.startswith("seed: 7\n")
