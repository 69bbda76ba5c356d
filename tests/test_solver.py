"""Finite-volume reaction-diffusion stepping: fluxes, dt control,
conservation, positivity."""
import numpy as np
import pytest

from msdiff import (Composition, Field, Grid1D, IDEAL, MixtureSpec, NO_REACTIONS,
                    Reaction, ReactionNetwork, SimConfig, ThermoModel,
                    chemical_potentials, diffusion_operator_spectrum,
                    driving_force, face_fluxes, simulate,
                    solve_fluxes_invariant, stable_dt, step)
from msdiff.errors import (MaxStepsExceeded, NotConvex, PositivityViolation)
from msdiff.solver import _Kernel

BINARY = MixtureSpec(names=("A", "B"), dmat=[[0.0, 1.0], [1.0, 0.0]])


def _binary_step_field(ncells=40, length=1.0, c_tot=1.0,
                       left=(0.7, 0.3), right=(0.3, 0.7)):
    grid = Grid1D(ncells=ncells, length=length)
    c = np.empty((ncells, 2))
    c[: ncells // 2] = np.multiply(left, c_tot)
    c[ncells // 2:] = np.multiply(right, c_tot)
    return Field(c=c, grid=grid)


def _random_mixture(rng, n):
    d = rng.uniform(0.5, 5.0, size=(n, n))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    names = tuple(f"S{i}" for i in range(n))
    return MixtureSpec(names=names, dmat=d)


class TestGridAndField:
    def test_grid_spacing(self):
        g = Grid1D(ncells=4, length=2.0)
        assert g.h == 0.5
        np.testing.assert_allclose(g.cell_centers, [0.25, 0.75, 1.25, 1.75])

    def test_field_rejects_nonuniform_totals(self):
        g = Grid1D(ncells=2, length=1.0)
        with pytest.raises(ValueError):
            Field(c=[[0.5, 0.5], [0.5, 0.6]], grid=g)

    def test_field_rejects_negative(self):
        g = Grid1D(ncells=2, length=1.0)
        with pytest.raises(ValueError):
            Field(c=[[1.1, -0.1], [0.5, 0.5]], grid=g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_field_rejects_nonfinite(self, bad):
        g = Grid1D(ncells=2, length=1.0)
        with pytest.raises(ValueError, match="finite"):
            Field(c=[[0.5, 0.5], [bad, 0.5]], grid=g)

    def test_field_rejects_zero_total(self):
        with pytest.raises(ValueError):
            Field(c=np.zeros((2, 2)), grid=Grid1D(ncells=2, length=1.0))

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0])
    def test_grid_rejects_bad_length(self, length):
        with pytest.raises(ValueError):
            Grid1D(ncells=4, length=length)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"t_end": np.nan}, {"t_end": np.inf}, {"t_end": 0.0},
        {"dt_refresh_steps": 0}, {"dt_refresh_steps": -3},
        {"checkpoint_interval": -0.01}, {"checkpoint_interval": 0.0},
        {"checkpoint_interval": np.nan}, {"checkpoint_interval": np.inf},
        {"floor_eps": 0.0}, {"floor_eps": -1e-12}, {"floor_eps": np.nan},
        {"floor_eps": np.inf},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_rejects_bad_value(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**{"t_end": 0.1, **kwargs})

    def test_default_checkpoint_interval(self):
        assert SimConfig(t_end=0.1).cp_interval == pytest.approx(0.002)
        assert SimConfig(t_end=0.1, checkpoint_interval=0.03).cp_interval == 0.03


class TestFaceFluxes:
    def test_boundary_faces_zero(self):
        fld = _binary_step_field()
        jf = face_fluxes(fld, BINARY)
        assert np.array_equal(jf[0], [0.0, 0.0])
        assert np.array_equal(jf[-1], [0.0, 0.0])

    def test_two_cell_binary_value(self):
        # step 0.7/0.3 -> 0.3/0.7 over one face: J_1 = D12 c_tot 0.4 / h
        grid = Grid1D(ncells=2, length=1.0)
        fld = Field(c=[[0.7, 0.3], [0.3, 0.7]], grid=grid)
        jf = face_fluxes(fld, BINARY)
        expect = 1.0 * 1.0 * 0.4 / grid.h
        np.testing.assert_allclose(jf[1], [expect, -expect], rtol=1e-12)

    def test_species_sum_is_zero(self):
        rng = np.random.default_rng(83)
        spec = _random_mixture(rng, 4)
        grid = Grid1D(ncells=16, length=1.0)
        x = rng.dirichlet(np.ones(4), size=16)
        fld = Field(c=2.0 * x, grid=grid)
        jf = face_fluxes(fld, spec)
        np.testing.assert_allclose(jf.sum(axis=1), 0.0, atol=1e-12)

    def test_uniform_field_has_no_flux(self):
        grid = Grid1D(ncells=8, length=1.0)
        fld = Field(c=np.tile([0.2, 0.3, 0.5], (8, 1)), grid=grid)
        spec = MixtureSpec(names=("A", "B", "C"),
                           dmat=[[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert np.max(np.abs(face_fluxes(fld, spec))) < 1e-14


class TestStableDt:
    def test_ideal_equal_diffusivity_bound(self):
        d = 2.0
        spec = MixtureSpec(names=("A", "B"), dmat=[[0, d], [d, 0]])
        fld = _binary_step_field(ncells=10)
        dt = stable_dt(fld, spec, cfl_safety=0.4)
        h = fld.grid.h
        assert dt == pytest.approx(0.4 * h * h / (2 * d), rel=1e-12)

    def test_quadratic_in_h(self):
        dt_coarse = stable_dt(_binary_step_field(ncells=10), BINARY)
        dt_fine = stable_dt(_binary_step_field(ncells=20), BINARY)
        assert dt_coarse / dt_fine == pytest.approx(4.0, rel=1e-10)

    def test_reaction_cap(self):
        grid = Grid1D(ncells=4, length=1.0)
        c = np.tile([0.4, 0.6], (4, 1))
        fld = Field(c=c, grid=grid)
        k = 1e6
        net = ReactionNetwork(reactions=(
            Reaction(reactants=[1, 0], products=[0, 1], rate_constant=k),))
        dt = stable_dt(fld, BINARY, reactions=net)
        # consuming cap: 0.1 * c_A / (k c_A) = 0.1 / k
        assert dt == pytest.approx(0.1 / k, rel=1e-12)

    def test_nonconvex_state_raises(self):
        model = ThermoModel.margules([[0, 4.0], [4.0, 0]])
        fld = _binary_step_field(ncells=8, left=(0.55, 0.45), right=(0.45, 0.55))
        with pytest.raises(NotConvex):
            stable_dt(fld, BINARY, model=model)


class TestStep:
    def test_uniform_is_fixed_point(self):
        grid = Grid1D(ncells=6, length=1.0)
        fld = Field(c=np.tile([0.8, 1.2], (6, 1)), grid=grid)
        nxt = step(fld, BINARY, dt=1e-3)
        np.testing.assert_allclose(nxt.c, fld.c, atol=1e-15)

    def test_mass_and_total_conserved(self):
        rng = np.random.default_rng(89)
        spec = _random_mixture(rng, 3)
        grid = Grid1D(ncells=20, length=1.0)
        x = rng.dirichlet(np.ones(3), size=20)
        fld = Field(c=1.5 * x, grid=grid)
        dt = stable_dt(fld, spec)
        for _ in range(25):
            nxt = step(fld, spec, dt=dt)
            np.testing.assert_allclose(nxt.c.sum(axis=0), fld.c.sum(axis=0),
                                       rtol=1e-13)
            np.testing.assert_allclose(nxt.c.sum(axis=1), 1.5, rtol=1e-12)
            fld = nxt

    def test_step_relaxes_toward_mean(self):
        fld = _binary_step_field(ncells=10)
        dt = stable_dt(fld, BINARY)
        for _ in range(200):
            fld = step(fld, BINARY, dt=dt)
        spread = fld.c[:, 0].max() - fld.c[:, 0].min()
        assert spread < 0.4 * 0.8  # initial spread was 0.4

    def test_oversized_step_breaks_positivity(self):
        fld = _binary_step_field(ncells=10, left=(0.999, 0.001),
                                 right=(0.001, 0.999))
        dt = 200 * stable_dt(fld, BINARY)
        with pytest.raises(PositivityViolation):
            step(fld, BINARY, dt=dt)


class TestReactions:
    @pytest.mark.parametrize("k", [-1.0, np.nan, np.inf])
    def test_rate_constant_must_be_finite_nonnegative(self, k):
        with pytest.raises(ValueError):
            Reaction(reactants=[1, 0], products=[0, 1], rate_constant=k)

    def test_mole_conservation_enforced(self):
        with pytest.raises(ValueError):
            Reaction(reactants=[2, 0], products=[0, 1], rate_constant=1.0)

    def test_mass_action_rate(self):
        rx = Reaction(reactants=[1, 1, 0], products=[0, 0, 2], rate_constant=3.0)
        net = ReactionNetwork(reactions=(rx,))
        f = net.rates(np.array([2.0, 0.5, 0.1]))
        np.testing.assert_allclose(f, [-3.0, -3.0, 6.0], rtol=1e-14)

    def test_isomerization_equilibrium(self):
        # A <-> B with k_f/k_b = 4 equilibrates at x_A = 0.2
        kf, kb = 4.0, 1.0
        net = ReactionNetwork(reactions=(
            Reaction(reactants=[1, 0], products=[0, 1], rate_constant=kf),
            Reaction(reactants=[0, 1], products=[1, 0], rate_constant=kb),
        ))
        fld = _binary_step_field(ncells=10)
        cfg = SimConfig(t_end=4.0, checkpoint_interval=1.0)
        traj = simulate(fld, BINARY, reactions=net, config=cfg)
        final = traj.final()
        xa = final.c[:, 0] / final.c.sum(axis=1)
        np.testing.assert_allclose(xa, kb / (kf + kb), atol=1e-6)
        # total concentration never drifts
        np.testing.assert_allclose(final.c.sum(axis=1), 1.0, rtol=1e-10)


class TestSimulate:
    def test_uniform_state_is_stationary(self):
        grid = Grid1D(ncells=6, length=1.0)
        fld = Field(c=np.tile([0.4, 0.6], (6, 1)), grid=grid)
        traj = simulate(fld, BINARY, config=SimConfig(t_end=0.05))
        for cp in traj.checkpoints:
            np.testing.assert_allclose(cp.c, fld.c, atol=1e-13)
            assert cp.dissipation == pytest.approx(0.0, abs=1e-14)

    def test_checkpoint_times_and_masses(self):
        fld = _binary_step_field(ncells=20)
        cfg = SimConfig(t_end=0.02, checkpoint_interval=0.005)
        traj = simulate(fld, BINARY, config=cfg)
        np.testing.assert_allclose(traj.times, [0, 0.005, 0.01, 0.015, 0.02],
                                   atol=1e-12)
        m0 = traj.checkpoints[0].masses
        for cp in traj.checkpoints[1:]:
            np.testing.assert_allclose(cp.masses, m0, rtol=1e-12)

    def test_entropy_monotone_decreasing(self):
        fld = _binary_step_field(ncells=30)
        traj = simulate(fld, BINARY, config=SimConfig(t_end=0.1))
        v = np.array([cp.entropy for cp in traj.checkpoints])
        assert np.all(np.diff(v) < 1e-14)

    def test_checkpoints_count_from_initial_time(self):
        fld = _binary_step_field(ncells=10)
        later = Field(c=fld.c, grid=fld.grid, time=0.05)
        traj = simulate(later, BINARY, config=SimConfig(t_end=0.1, checkpoint_interval=0.02))
        np.testing.assert_allclose(traj.times, [0.05, 0.07, 0.09, 0.1], atol=1e-12)

    def test_max_steps_guard(self):
        fld = _binary_step_field(ncells=40)
        cfg = SimConfig(t_end=1.0, max_steps=3)
        with pytest.raises(MaxStepsExceeded):
            simulate(fld, BINARY, config=cfg)

    def test_positivity_preserved_on_random_quaternary(self):
        rng = np.random.default_rng(97)
        spec = _random_mixture(rng, 4)
        grid = Grid1D(ncells=16, length=1.0)
        x = rng.dirichlet(np.ones(4), size=16)
        x = 0.9 * x + 0.1 / 4  # keep away from the boundary
        fld = Field(c=x, grid=grid)
        traj = simulate(fld, spec, config=SimConfig(t_end=0.05))
        assert traj.final().min_concentration >= 0.0

    def test_no_reactions_constant_is_default(self):
        assert NO_REACTIONS.reactions == ()

    @pytest.mark.parametrize("model", [IDEAL, ThermoModel.margules([[0, 1.5], [1.5, 0]])],
                             ids=["ideal", "margules"])
    def test_exact_zeros_run_to_t_end(self, model):
        # two adjacent pure cells: the face between them sits on the floor
        grid = Grid1D(ncells=6, length=1.0)
        c = [[1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.2, 0.8], [0.0, 1.0]]
        traj = simulate(Field(c=c, grid=grid), BINARY, model,
                        config=SimConfig(t_end=0.01))
        assert traj.final().time == pytest.approx(0.01, rel=1e-12)
        assert traj.final().min_concentration >= 0.0
        np.testing.assert_allclose(traj.final().masses, traj.checkpoints[0].masses,
                                   rtol=1e-12)


def _random_state(rng, n, ncells=12):
    spec = _random_mixture(rng, n)
    grid = Grid1D(ncells=ncells, length=1.0)
    x = 0.8 * rng.dirichlet(np.ones(n), size=ncells) + 0.2 / n
    return spec, Field(c=1.7 * x, grid=grid)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("thermo", ["ideal", "margules"])
def test_kernel_matches_per_face_public_route(n, thermo):
    """Fluxes, W and the dt bound of the step kernel against the
    single-composition public API, face by face."""
    rng = np.random.default_rng(1000 + 10 * n + (thermo == "margules"))
    spec, fld = _random_state(rng, n)
    model = IDEAL
    if thermo == "margules":
        a = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
        model = ThermoModel.margules(a + a.T)
    st = _Kernel(spec, model, fld.grid, 1e-12)(fld.c)

    c = fld.c
    x = c / c.sum(axis=1, keepdims=True)
    h = fld.grid.h
    mu = np.array([chemical_potentials(model, xi) for xi in x])
    ref_j, ref_w, lam_max = [], 0.0, 0.0
    for f in range(fld.grid.ncells - 1):
        xf = 0.5 * (x[f] + x[f + 1])
        comp = Composition(x=xf / xf.sum(), c_tot=0.5 * (c[f].sum() + c[f + 1].sum()))
        d = driving_force(model, comp, (x[f + 1] - x[f]) / h)
        j = solve_fluxes_invariant(comp, spec.dmat, d).J
        ref_j.append(j)
        ref_w -= float(j @ (mu[f + 1] - mu[f]))
        lam_max = max(lam_max, float(np.max(np.real(
            diffusion_operator_spectrum(comp, spec.dmat, model)))))
    ref_j = np.array(ref_j)

    jf = face_fluxes(fld, spec, model)
    assert np.array_equal(jf[1:-1], st.jf[1:-1])
    assert not jf[0].any() and not jf[-1].any()
    np.testing.assert_allclose(jf[1:-1], ref_j, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref_j)))
    assert st.w == pytest.approx(ref_w, rel=1e-12)
    assert stable_dt(fld, spec, model, cfl_safety=0.3) == pytest.approx(
        0.3 * h * h / (2.0 * lam_max), rel=1e-12)
