"""Tests of the benchmark's own code: generators, output checks, the span
arithmetic and the traced layers.  Run with ``python3 -m pytest bench``."""
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Small versions of each workload: same generator code, seconds to run.
SMALL = {
    "binary_oracle_200": {"ncells": 40, "t_end": 0.01},
    "margules6_wide": {"ncells": 24, "target_steps": 40},
    "cli_dense_output": {"ncells": 12, "checkpoints": 10},
    "verify_sweep": {"mixtures": 6},
}


def _case(name, seed, tmp_path, tag=""):
    d = tmp_path / f"{name}-{seed}{tag}"
    d.mkdir()
    return workloads.WORKLOADS[name](seed, d, **SMALL[name]), d


def _inputs(case, d):
    """Everything a generator produced: its parameters and its files."""
    files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    return json.dumps(case.params), files


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic(name, tmp_path):
    a = _inputs(*_case(name, 7, tmp_path))
    b = _inputs(*_case(name, 7, tmp_path, tag="-again"))
    c = _inputs(*_case(name, 8, tmp_path))
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes_its_check(name, tmp_path):
    case, _ = _case(name, 3, tmp_path)
    case.reset()
    assert case.check(case.run()) == []


def _shifted_final(traj, dc):
    final = traj.checkpoints[-1]
    traj.checkpoints[-1] = replace(final, c=final.c + dc, masses=final.masses + dc)
    return traj


def test_binary_check_rejects_wrong_profile(tmp_path):
    case, _ = _case("binary_oracle_200", 3, tmp_path)
    traj = _shifted_final(case.run(), np.array([0.01, -0.01]))
    assert any("filtration oracle" in p for p in case.check(traj))


def test_margules_check_rejects_mass_drift(tmp_path):
    case, _ = _case("margules6_wide", 3, tmp_path)
    traj = _shifted_final(case.run(), np.full(6, 1e-9))
    assert any("mass drift" in p for p in case.check(traj))


def test_margules_check_rejects_unfinished_run(tmp_path):
    case, _ = _case("margules6_wide", 3, tmp_path)
    traj = case.run()
    del traj.checkpoints[-1]
    problems = case.check(traj)
    assert any("checkpoints, expected" in p for p in problems)
    assert any("final time" in p for p in problems)


def test_lambda_max_matches_library_spectrum():
    """The generators size t_end without the library's eigenvalue code;
    at this commit the two must agree."""
    import msdiff as md
    rng = np.random.default_rng(5)
    for n in (2, 3, 6):
        dmat, amat = workloads._sym(rng, n, 0.5, 5.0), workloads._sym(rng, n, -1.0, 1.0)
        x = workloads._ramp(workloads._interior(rng, n), workloads._interior(rng, n), 9)
        xf = 0.5 * (x[:-1] + x[1:])
        model = md.ThermoModel.margules(amat)
        ref = max(float(np.max(np.real(md.diffusion_operator_spectrum(xk, dmat, model))))
                  for xk in xf)
        assert workloads._lambda_max(x, dmat, amat) == pytest.approx(ref, rel=1e-12)


def test_cli_check_rejects_corrupted_files(tmp_path):
    case, _ = _case("cli_dense_output", 3, tmp_path)
    case.reset()
    code = case.run()
    traj = case.out_dir / "trajectory.csv"
    lines = traj.read_text().splitlines(keepends=True)
    traj.write_text("".join(lines[:-1]))
    assert any("trajectory has" in p for p in case.check(code))
    ledger = case.out_dir / "ledger.csv"
    rows = ledger.read_text().splitlines()
    ledger.write_text("\n".join(rows[:-1]) + "\n")
    problems = case.check(code)
    assert any("ledger has" in p for p in problems)
    assert any("last ledger time" in p for p in problems)
    head = rows[0].split(",")
    last = rows[-1].split(",")
    k = head.index("min_concentration")
    last[k] = "-1e-3"
    ledger.write_text("\n".join(rows[:-1] + [",".join(last)]) + "\n")
    assert any("min_concentration" in p for p in case.check(code))
    assert case.check(3) == ["exit code 3"]


def test_verify_check_rejects_fail_and_misplaced_xfail():
    ok = (0, "seed: 1\nPASS  spectral-gap: 200/200\n")
    fail = (1, "seed: 1\nFAIL  spectral-gap: 199/200\n")
    xfail = (0, "seed: 1\nXFAIL normal-ellipticity: NotConvex at 3/200 states\n")
    check = workloads.check_verify_output
    assert check([ok, xfail], ["ideal", "split"]) == []
    assert len(check([fail], ["ideal"])) == 2      # exit code and FAIL row
    assert check([xfail], ["convex"]) == ["mixture 0: XFAIL on convex thermo"]
    assert check([(0, "seed: 1\n")], ["ideal"]) != []


def test_self_time_on_synthetic_nested_call():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    calls = {}

    def leaf():
        return 1

    def middle():
        return calls["leaf"]() + calls["leaf"]()

    def outer():
        return calls["middle"]() + calls["leaf"]()

    for name, fn in (("leaf", leaf), ("middle", middle), ("outer", outer)):
        calls[name] = tracer.wrap(name, fn)
    assert calls["outer"]() == 3
    # clock reads: outer 0, middle 1, leaf 2-3, leaf 4-5, middle end 6,
    # leaf 7-8, outer end 9
    s = tracer.summary()
    assert (s["outer"].total_s, s["outer"].self_s) == (9.0, 3.0)
    assert (s["middle"].total_s, s["middle"].self_s) == (5.0, 3.0)
    assert (s["leaf"].calls, s["leaf"].total_s, s["leaf"].self_s) == (3, 3.0, 3.0)


def test_recursive_span_counts_inclusive_time_once():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    box = {}

    def rec(k):
        return box["f"](k - 1) if k else 0

    box["f"] = tracer.wrap("rec", rec)
    box["f"](2)
    st = tracer.summary()["rec"]
    assert (st.calls, st.total_s, st.self_s) == (3, 5.0, 5.0)


def test_absent_target_is_reported_not_raised():
    tracer = spans.Tracer()
    table = [("gone", ("msdiff.solver.no_such_function", "no_such_module.f"), None),
             ("here", ("msdiff.solver.stable_dt",), None)]
    import msdiff.solver
    original = msdiff.solver.stable_dt
    with tracer.installed(table):
        assert tracer.absent == ["gone"]
        assert msdiff.solver.stable_dt is not original
    assert msdiff.solver.stable_dt is original


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_layers_exist_at_this_commit():
    tracer = spans.Tracer()
    with tracer.installed(layers.LAYERS):
        assert tracer.absent == []
