"""End-to-end acceptance suite.

One test per release criterion; each prints a single PASS line with the
sweep size so a `pytest -s` run doubles as the release report.  All
sweeps are seeded and deterministic.
"""
from pathlib import Path

import numpy as np

from msdiff import (IDEAL, Composition, Field, Grid1D, MixtureSpec, Reaction,
                    ReactionNetwork, SimConfig, ThermoModel, detect_uphill,
                    diffusion_operator_spectrum, entropy_ledger,
                    filtration_oracle, simulate, solve_fluxes_invariant,
                    solve_fluxes_reduced, spectral_gap_delta, stable_dt, step,
                    ternary_closed_forms)
from msdiff.cli import load_config
from msdiff.mskernel import assemble_A
from msdiff.thermo import floor_composition

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
        a = assemble_A(floor_composition(x), dmat)
        w = np.linalg.eigvals(a)
        delta = spectral_gap_delta(dmat)
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


def _binary_sim_vs_oracle(ncells):
    d12, length, c_tot = 1.0, 1.0, 1.0
    grid = Grid1D(ncells=ncells, length=length)
    x0 = np.where(grid.cell_centers[:, None] < 0.5 * length,
                  [0.7, 0.3], [0.3, 0.7])
    fld = Field(c=c_tot * x0, grid=grid)
    spec = MixtureSpec(names=("A", "B"), dmat=[[0.0, d12], [d12, 0.0]])
    t_end = 0.1 * length**2 / d12
    traj = simulate(fld, spec, config=SimConfig(t_end=t_end))
    oracle = filtration_oracle(c_tot * x0[:, 0], IDEAL, d12, grid, t_end)
    return float(np.max(np.abs(traj.final().c[:, 0] - oracle))), c_tot


def test_criterion_5_binary_oracle_equivalence():
    err_coarse, c_tot = _binary_sim_vs_oracle(200)
    assert err_coarse <= 1e-3 * c_tot
    err_fine, _ = _binary_sim_vs_oracle(400)
    ratio = err_coarse / err_fine
    assert ratio >= 1.8
    print(f"\nACCEPTANCE 5 PASS: filtration-oracle L-inf {err_coarse:.3e} "
          f"at 200 cells, refinement ratio {ratio:.2f}")


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
        mass = fld.c.sum(axis=0)
        for _ in range(150):
            fld = step(fld, spec, dt=dt)
            new_mass = fld.c.sum(axis=0)
            assert np.max(np.abs(new_mass - mass) / mass) <= 1e-12
            assert np.min(fld.c) >= 0.0
            assert np.max(fld.c) <= c_tot0 * (1 + 1e-8)
            assert np.max(np.abs(fld.c.sum(axis=1) - c_tot0)) <= 1e-8 * c_tot0
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
