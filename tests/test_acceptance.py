"""End-to-end acceptance suite.

One test per release criterion; each prints a single PASS line with the
sweep size so a `pytest -s` run doubles as the release report.  All
sweeps are seeded and deterministic.
"""
from pathlib import Path

import numpy as np
import pytest

from msdiff import (IDEAL, Composition, Field, Grid1D, MixtureSpec, Reaction,
                    ReactionNetwork, SimConfig, ThermoModel, detect_uphill,
                    diffusion_operator_spectrum, driving_force, entropy_ledger,
                    face_fluxes, filtration_oracle, simulate, solve_fluxes_invariant,
                    solve_fluxes_reduced, spectrum, stable_dt, ternary_closed_forms)
from msdiff.cli import load_config
from msdiff.mixture import simplex_basis
from msdiff.solver import _advance, _Kernel
from msdiff.thermo import floor_composition
from test_mskernel import a_matrix  # A and Gamma by their private bodies
from test_thermo import gamma_of

CONFIGS = Path(__file__).parents[1] / "configs"


def _interior_x(rng, n, xmin=1e-3):
    x = rng.dirichlet(np.ones(n))
    while x.min() < xmin:
        x = rng.dirichlet(np.ones(n))
    return x


def _random_dmat(rng, n, lo=0.1, hi=10.0):
    d = rng.uniform(lo, hi, size=(n, n))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def _instances(seed, count, nmin=2, nmax=6):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(nmin, nmax + 1))
        yield rng, _interior_x(rng, n), _random_dmat(rng, n)


def test_criterion_1_spectral_inclusion():
    failures = 0
    for rng, x, dmat in _instances(1001, 1000):
        a = a_matrix(floor_composition(x), dmat)
        w = np.linalg.eigvals(a)
        delta = spectrum(x, dmat).delta
        real_ok = np.max(np.abs(w.imag)) <= 1e-10 * max(np.max(np.abs(w.real)), 1e-300)
        wr = np.sort(w.real)[::-1]
        zero_simple = abs(wr[0]) <= 1e-10 and wr[1] < -1e-10
        gap_ok = np.all(wr[1:] <= -delta + 1e-10 * delta)
        if not (real_ok and zero_simple and gap_ok):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 1 PASS: spectral inclusion on 1000/1000 instances")


def test_criterion_2_cross_route_flux_agreement():
    failures = 0
    for rng, x, dmat in _instances(1002, 1000):
        n = x.size
        comp = Composition(x=x, c_tot=rng.uniform(0.5, 2.0))
        d = rng.standard_normal(n)
        d -= d.mean()
        ji = solve_fluxes_invariant(comp, dmat, d).J
        jr = solve_fluxes_reduced(comp, dmat, d).J
        if np.max(np.abs(ji - jr)) > 1e-10 * max(np.max(np.abs(ji)), 1e-300):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 2 PASS: flux routes agree to 1e-10 on 1000/1000 instances")


def test_criterion_3_ternary_closed_forms():
    failures = 0
    for rng, x, dmat in _instances(1003, 1000, nmin=3, nmax=3):
        rep = ternary_closed_forms(x, dmat)
        if not (rep.matches_assembly and rep.sector_ok):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 3 PASS: ternary det/trace/sector on 1000/1000 instances")


def test_criterion_4_normal_ellipticity():
    rng = np.random.default_rng(1004)
    worst = np.inf
    for k in range(500):
        n = int(rng.integers(2, 7))
        x = _interior_x(rng, n)
        dmat = _random_dmat(rng, n)
        if k % 2 == 0:
            model = IDEAL
        else:
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            a = 0.5 * (a + a.T)
            np.fill_diagonal(a, 0.0)
            model = ThermoModel.margules(a)
        w = diffusion_operator_spectrum(x, dmat, model)
        worst = min(worst, float(np.min(np.real(w))))
    assert worst >= 1e-12
    print(f"\nACCEPTANCE 4 PASS: diffusion spectrum positive on 500/500 states "
          f"(min eigenvalue {worst:.3e})")


def _binary_sim_vs_oracle(ncells, a=0.0):
    """L-inf distance of the binary step run from the filtration oracle,
    on ideal thermo or, for a != 0, Margules thermo with interaction a."""
    d12, length, c_tot = 1.0, 1.0, 1.0
    grid = Grid1D(ncells=ncells, length=length)
    x0 = np.where(grid.cell_centers[:, None] < 0.5 * length,
                  [0.7, 0.3], [0.3, 0.7])
    fld = Field(c=c_tot * x0, grid=grid)
    spec = MixtureSpec(names=("A", "B"), dmat=[[0.0, d12], [d12, 0.0]])
    model = IDEAL if a == 0.0 else ThermoModel.margules([[0.0, a], [a, 0.0]])
    t_end = 0.1 * length**2 / d12
    traj = simulate(fld, spec, model, config=SimConfig(t_end=t_end))
    oracle = filtration_oracle(c_tot * x0[:, 0], model, d12, grid, t_end, c_tot)
    return float(np.max(np.abs(traj.final().c[:, 0] - oracle))), c_tot


def test_criterion_5_binary_oracle_equivalence():
    err_coarse, c_tot = _binary_sim_vs_oracle(200)
    assert err_coarse <= 1e-3 * c_tot
    err_fine, _ = _binary_sim_vs_oracle(400)
    ratio = err_coarse / err_fine
    assert ratio >= 1.8
    print(f"\nACCEPTANCE 5 PASS: filtration-oracle L-inf {err_coarse:.3e} "
          f"at 200 cells, refinement ratio {ratio:.2f}")


@pytest.mark.parametrize("a", [1.5, 1.9])
def test_criterion_5_nonideal_binary_oracle(a):
    """Criterion 5's form on Margules thermo, where the n = 2 spectrum's
    closed form sets dt: L-inf <= 1e-3 c_tot at 200 cells and a ratio
    >= 1.8 from 100 to 200 cells.  a = 1.9 is near the spinodal a = 2,
    where phi' = 1 - 2 a x (1 - x) falls to 0.05."""
    err_fine, c_tot = _binary_sim_vs_oracle(200, a)
    assert err_fine <= 1e-3 * c_tot
    err_coarse, _ = _binary_sim_vs_oracle(100, a)
    ratio = err_coarse / err_fine
    assert ratio >= 1.8
    print(f"\nACCEPTANCE 5 PASS (Margules a = {a}): filtration-oracle L-inf "
          f"{err_fine:.3e} at 200 cells, refinement ratio {ratio:.2f}")


def _mode_decay_error(n, margules, cfl, ncells=40, delta=1e-3):
    """Relative error, against exp(-1), of the amplitude of the slowest
    cosine mode along the operator's fastest eigenvector at a uniform
    state, after t = 1 / (mu lambda_1).  The linearized operator is
    M = -(P^T A P)^{-1} P^T Gamma P at x_bar, with top eigenvalue mu and
    eigenvector w; the mode cos(pi (i + 1/2) / N) P w has the Neumann
    Laplacian eigenvalue lambda_1 = (2 - 2 cos(pi / N)) / h^2."""
    rng = np.random.default_rng(500 + 10 * n + margules)
    dmat = _random_dmat(rng, n, 0.5, 2.0)
    amat = _random_dmat(rng, n, -0.5, 0.5) if margules else None  # symmetric, zero diagonal
    model = ThermoModel.margules(amat) if margules else IDEAL
    xbar = 0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n
    p = simplex_basis(n)
    m = -np.linalg.solve(p.T @ a_matrix(xbar, dmat) @ p,
                         p.T @ gamma_of(model, xbar) @ p)
    eig, vecs = np.linalg.eig(m)
    top = int(np.argmax(eig.real))
    mu = float(eig[top].real)
    assert mu == pytest.approx(diffusion_operator_spectrum(xbar, dmat, model)[0], rel=1e-12)
    v = p @ vecs[:, top].real
    v /= np.linalg.norm(v)
    grid = Grid1D(ncells=ncells, length=1.0)
    mode = np.cos(np.pi * (np.arange(ncells) + 0.5) / ncells)
    lam1 = (2.0 - 2.0 * np.cos(np.pi / ncells)) / grid.h**2
    t_end = 1.0 / (mu * lam1)
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    fld = Field(c=xbar + delta * mode[:, None] * v, grid=grid)
    final = simulate(fld, spec, model, config=SimConfig(
        t_end=t_end, cfl_safety=cfl, checkpoint_interval=t_end)).final().c
    amplitude = mode @ (final - xbar) @ v / (mode @ mode)
    return abs(amplitude / delta - np.exp(-1.0)) / np.exp(-1.0)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("margules", [False, True])
def test_criterion_5_mode_decay_oracle(n, margules):
    """Criterion 5's form for n >= 3, where no scalar oracle exists: the
    slowest eigenmode of the linearized operator decays like
    exp(-mu lambda_1 t), to 1e-3 at cfl 0.4, and the error (explicit
    Euler's, first order in dt) halves with cfl: a ratio >= 1.8."""
    err = _mode_decay_error(n, margules, cfl=0.4)
    assert err <= 1e-3
    ratio = err / _mode_decay_error(n, margules, cfl=0.2)
    assert ratio >= 1.8
    print(f"\nACCEPTANCE 5 PASS (mode decay, n = {n}, "
          f"{'Margules' if margules else 'ideal'}): relative error {err:.3e}, "
          f"cfl refinement ratio {ratio:.2f}")


def _face_flux_error(n, margules, ncells, seed=7):
    """Relative L-inf error of the kernel's interior face fluxes on the
    nonuniform state x(s) = (1 - w) x_L + w x_R, w = (1 - cos pi s) / 2,
    against the public route at the exact face state: A J = c_tot Gamma x'
    solved by ``solve_fluxes_invariant`` at x(s_f), x'(s_f)."""
    rng = np.random.default_rng(seed)
    dmat = _random_dmat(rng, n, 0.5, 2.0)
    model = ThermoModel.margules(_random_dmat(rng, n, -1.0, 1.0)) if margules else IDEAL
    x_l, x_r = (0.7 * rng.dirichlet(np.ones(n)) + 0.3 / n for _ in range(2))

    def profile(s):
        w = 0.5 * (1.0 - np.cos(np.pi * s))[:, None]
        return (1.0 - w) * x_l + w * x_r, 0.5 * np.pi * np.sin(np.pi * s)[:, None] * (x_r - x_l)

    grid = Grid1D(ncells=ncells, length=1.0)
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    j = face_fluxes(Field(c=profile(grid.cell_centers)[0], grid=grid), spec, model)[1:-1]
    x_f, grad_f = profile(grid.h * np.arange(1, ncells))
    ref = solve_fluxes_invariant(Composition(x=x_f), dmat,
                                 driving_force(model, x_f, grad_f)).J
    return np.max(np.abs(j - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("margules", [False, True])
def test_face_flux_consistency_oracle(n, margules):
    """The step kernel's face fluxes for n >= 3 on a nonlinear state, on
    ideal and Margules thermo: within 2e-3 of the per-state route at 20
    cells, and second order in h (a ratio >= 3.6 per halving)."""
    err = [_face_flux_error(n, margules, ncells) for ncells in (20, 40, 80, 160)]
    assert err[0] <= 2e-3
    ratios = [coarse / fine for coarse, fine in zip(err, err[1:])]
    assert min(ratios) >= 3.6
    print(f"\nFACE-FLUX ORACLE PASS (n = {n}, {'Margules' if margules else 'ideal'}): "
          f"relative error {err[0]:.3e} at 20 cells, {err[-1]:.3e} at 160, "
          f"ratios {', '.join(f'{r:.2f}' for r in ratios)}")


def _time_error(cfl, ncells=100, t_end=0.02, t0=0.0):
    """L-inf error at the end of the ideal binary ramp x_A = 0.3 -> 0.7
    (D12 = 1, c_tot = 1), run from time ``t0`` for ``t_end``, against the
    exact solution of the semi-discrete system.  With constant D12 that
    system is linear, dc_A/dt = D12 L c_A with L the cell-centred Neumann
    Laplacian, so one ``eigh`` of L solves it exactly and the run's error
    is explicit Euler's time error alone."""
    grid = Grid1D(ncells=ncells, length=1.0)
    s = grid.cell_centers / grid.length
    x_a = (1.0 - s) * 0.3 + s * 0.7
    lap = np.diag(np.full(ncells - 1, 1.0), -1) + np.diag(np.full(ncells - 1, 1.0), 1)
    lap -= np.diag(lap.sum(axis=1))  # zero row sums: the Neumann walls
    w, v = np.linalg.eigh(lap / grid.h**2)
    spec = MixtureSpec(names=("A", "B"), dmat=[[0.0, 1.0], [1.0, 0.0]])
    fld = Field(c=np.stack([x_a, 1.0 - x_a], axis=1), grid=grid, time=t0)
    config = SimConfig(t_end=t0 + t_end, cfl_safety=cfl)
    final = simulate(fld, spec, config=config).final()
    # the clock ends within 1e-12 of the span; the difference is exact
    exact = v @ (np.exp(w * (final.time - t0)) * (v.T @ x_a))
    return float(np.max(np.abs(final.c[:, 0] - exact)))


def test_time_error_oracle():
    """The simulator's error is first order in dt against an exact
    solution: each halving of cfl from 0.8 to 0.05 halves the L-inf error,
    a ratio >= 1.9 (2.00 measured)."""
    err = [_time_error(cfl) for cfl in (0.8, 0.4, 0.2, 0.1, 0.05)]
    ratios = [coarse / fine for coarse, fine in zip(err, err[1:])]
    assert min(ratios) >= 1.9
    print(f"\nTIME-ERROR ORACLE PASS: L-inf {err[0]:.3e} at cfl 0.8, {err[-1]:.3e} "
          f"at cfl 0.05, ratios {', '.join(f'{r:.3f}' for r in ratios)}")


def test_time_error_oracle_late_start():
    """The state advances by the step the clock takes: from t0 = 1e10, where
    the clock's spacing is 1.9e-6 and a step about 2e-5, the time error stays
    within 1.5x of the run from t0 = 0 (0.95x measured; 184x when the state
    advanced by dt but the clock by fl(t + dt) - t)."""
    err0, late = _time_error(0.4), _time_error(0.4, t0=1e10)
    assert late <= 1.5 * err0
    print(f"\nLATE-START TIME ERROR: L-inf {err0:.3e} from t0 = 0, {late:.3e} from t0 = 1e10")


def test_criterion_6_conservation_and_bounds():
    rng = np.random.default_rng(1006)
    checked = 0
    for n in (2, 3, 4):
        dmat = _random_dmat(rng, n, lo=0.5, hi=5.0)
        spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
        grid = Grid1D(ncells=30, length=1.0)
        x = rng.dirichlet(np.ones(n), size=30)
        x = 0.8 * x + 0.2 / n
        c_tot0 = 1.5
        fld = Field(c=c_tot0 * x, grid=grid)
        dt = stable_dt(fld, spec)
        kernel, c = _Kernel(spec, None, fld), fld.c  # simulate's loop at a fixed dt
        mass = c.sum(axis=0)
        for k in range(150):
            c = _advance(kernel(c), dt, k * dt, kernel.h)
            new_mass = c.sum(axis=0)
            assert np.max(np.abs(new_mass - mass) / mass) <= 1e-12
            assert np.min(c) >= 0.0
            assert np.max(c) <= c_tot0 * (1 + 1e-8)
            assert np.max(np.abs(c.sum(axis=1) - c_tot0)) <= 1e-8 * c_tot0
            mass = new_mass
            checked += 1
    print(f"\nACCEPTANCE 6 PASS: mass/bounds/isobaric drift over {checked} steps "
          "(n = 2, 3, 4)")


def _shipped_trajectories():
    out = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(path)
        if cfg.sim is None:
            continue
        traj = simulate(cfg.initial, cfg.spec, cfg.model, cfg.reactions, cfg.sim)
        out.append((path.name, cfg, traj))
    return out


def test_criterion_7_lyapunov_couple():
    runs = _shipped_trajectories()
    assert runs, "no shipped simulation configs found"
    for name, cfg, traj in runs:
        led = entropy_ledger(traj, cfg.model)
        assert led.ok, f"{name}: {led.violations}"
    # balance slack shrinks when the step size is reduced
    cfg = load_config(CONFIGS / "binary_ideal.json")
    defects = []
    for cfl in (0.4, 0.1):
        sim = SimConfig(t_end=cfg.sim.t_end, cfl_safety=cfl,
                        checkpoint_interval=cfg.sim.checkpoint_interval)
        traj = simulate(cfg.initial, cfg.spec, cfg.model, cfg.reactions, sim)
        defects.append(float(np.max(np.abs(entropy_ledger(traj).balance_defect))))
    assert defects[1] < defects[0]
    print(f"\nACCEPTANCE 7 PASS: entropy ledger ok on {len(runs)} shipped "
          f"trajectories; |defect| {defects[0]:.2e} -> {defects[1]:.2e} under "
          "dt refinement")


def test_criterion_8_osmotic_diffusion_report():
    cfg = load_config(CONFIGS / "ternary_osmotic.json")
    events = detect_uphill(cfg.initial, cfg.spec, cfg.model)
    osmotic = [e for e in events if e.kind == "osmotic"]
    assert osmotic
    assert all(e.species == 1 for e in osmotic)
    ctrl = load_config(CONFIGS / "ternary_equal_d.json")
    assert detect_uphill(ctrl.initial, ctrl.spec, ctrl.model) == []
    print(f"\nACCEPTANCE 8 PASS: {len(osmotic)} osmotic events with unequal "
          "diffusivities, none in the equal-diffusivity control")


def _random_network(rng, n):
    reactions = []
    for _ in range(int(rng.integers(1, 3))):
        i, j = rng.choice(n, size=2, replace=False)
        r = np.zeros(n)
        p = np.zeros(n)
        r[i] = 1.0
        p[j] = 1.0
        reactions.append(Reaction(reactants=r, products=p,
                                  rate_constant=float(rng.uniform(0.5, 4.0))))
    return ReactionNetwork(reactions=tuple(reactions))


def test_criterion_9_positivity_with_reactions():
    rng = np.random.default_rng(1009)
    count = 0
    for n in (2, 3, 4):
        spec_names = tuple(f"S{i}" for i in range(n))
        for _ in range(7):
            dmat = _random_dmat(rng, n, lo=0.5, hi=5.0)
            spec = MixtureSpec(names=spec_names, dmat=dmat)
            grid = Grid1D(ncells=24, length=1.0)
            x = rng.dirichlet(np.ones(n), size=24)
            x = 0.9 * x + 0.1 / n       # strictly positive initial data
            fld = Field(c=x, grid=grid)
            net = _random_network(rng, n)
            traj = simulate(fld, spec, reactions=net,
                            config=SimConfig(t_end=0.02))
            assert traj.final().min_concentration >= 0.0
            count += 1
    assert count >= 20
    print(f"\nACCEPTANCE 9 PASS: no positivity violation across {count} "
          "reacting trajectories (n = 2, 3, 4)")
