"""Entropy ledger, scalar reference solver, cross-diffusion detectors,
and ternary closed forms."""
import numpy as np
import pytest

from msdiff import (IDEAL, Field, Grid1D, MixtureSpec, SimConfig, ThermoModel,
                    detect_uphill, entropy_ledger, filtration_oracle, mskernel,
                    simulate, ternary_closed_forms, thermo, verify)
from msdiff.errors import NonMonotoneFlux
from msdiff.mixture import SUM_TOL
from msdiff.solver import Checkpoint, Trajectory

BINARY = MixtureSpec(names=("A", "B"), dmat=[[0.0, 1.0], [1.0, 0.0]])


def _binary_step_trajectory(ncells=40, t_end=0.05):
    grid = Grid1D(ncells=ncells, length=1.0)
    c = np.where(grid.cell_centers[:, None] < 0.5, [0.7, 0.3], [0.3, 0.7])
    fld = Field(c=c, grid=grid)
    return simulate(fld, BINARY, config=SimConfig(t_end=t_end))


class TestEntropyLedger:
    def test_uniform_trajectory(self):
        grid = Grid1D(ncells=8, length=1.0)
        fld = Field(c=np.tile([0.4, 0.6], (8, 1)), grid=grid)
        traj = simulate(fld, BINARY, config=SimConfig(t_end=0.02))
        led = entropy_ledger(traj)
        assert led.ok
        np.testing.assert_allclose(led.dissipation, 0.0, atol=1e-14)
        np.testing.assert_allclose(led.entropy, led.entropy[0], rtol=1e-13)

    def test_relaxation_satisfies_lyapunov_couple(self):
        traj = _binary_step_trajectory()
        led = entropy_ledger(traj)
        assert led.ok, led.violations
        assert np.all(led.dissipation >= 0.0)
        assert np.all(np.diff(led.entropy) < 0)
        # explicit stepping over-dissipates: the defect is nonpositive
        assert np.all(led.balance_defect <= 1e-12)

    def test_reversed_time_is_flagged(self):
        traj = _binary_step_trajectory()
        rev = Trajectory(grid=traj.grid, names=traj.names,
                         checkpoints=list(reversed(traj.checkpoints)))
        led = entropy_ledger(rev)
        assert not led.ok
        assert any("Lyapunov" in v for v in led.violations)

    @staticmethod
    def _ledger_with_w(w1):
        """Ledger of three checkpoints with V = -2 throughout, W = 0
        except W = ``w1`` at checkpoint 1 (t = 0.25)."""
        grid = Grid1D(ncells=2, length=1.0)
        c = np.full((2, 2), 0.5)
        cps = [Checkpoint(time=t, c=c, masses=c.sum(axis=0) * grid.h, entropy=-2.0,
                          dissipation=w, cumulative_dissipation=0.0,
                          min_concentration=0.5)
               for t, w in [(0.0, 0.0), (0.25, w1), (0.5, 0.0)]]
        return entropy_ledger(Trajectory(grid=grid, names=("A", "B"), checkpoints=cps))

    def test_negative_dissipation_is_flagged(self):
        led = self._ledger_with_w(-2e-10 * 2.0)  # twice the tolerance
        assert not led.ok
        assert led.violations == [
            f"dissipation W = {-4e-10!r} < 0 at checkpoint 1 (t = 0.25)"]

    def test_negative_dissipation_within_tolerance_passes(self):
        led = self._ledger_with_w(-0.5e-10 * 2.0)
        assert led.ok and led.violations == []

    def test_defect_shrinks_with_smaller_steps(self):
        grid = Grid1D(ncells=30, length=1.0)
        c = np.where(grid.cell_centers[:, None] < 0.5, [0.7, 0.3], [0.3, 0.7])
        fld = Field(c=c, grid=grid)
        defects = []
        for cfl in (0.4, 0.1):
            traj = simulate(fld, BINARY,
                            config=SimConfig(t_end=0.05, cfl_safety=cfl))
            defects.append(np.abs(entropy_ledger(traj).balance_defect).max())
        assert defects[1] < 0.5 * defects[0]


class TestFiltrationOracle:
    def test_ideal_matches_cosine_mode(self):
        # single-mode heat solution: c = m + a cos(pi y / L) e^{-D pi^2 t / L^2}
        grid = Grid1D(ncells=100, length=1.0)
        d12 = 2.0
        amp, mean = 0.2, 0.5
        c0 = mean + amp * np.cos(np.pi * grid.cell_centers)
        t_end = 1.0 / (d12 * np.pi**2)  # one e-fold
        out = filtration_oracle(c0, IDEAL, d12, grid, t_end)
        exact = mean + amp * np.cos(np.pi * grid.cell_centers) * np.exp(-1.0)
        assert np.max(np.abs(out - exact)) < 1e-3

    def test_conserves_mass(self):
        grid = Grid1D(ncells=50, length=1.0)
        rng = np.random.default_rng(101)
        c0 = rng.uniform(0.2, 0.8, size=50)
        out = filtration_oracle(c0, IDEAL, 1.0, grid, 0.01)
        assert out.sum() == pytest.approx(c0.sum(), rel=1e-12)

    def test_nonideal_slows_interdiffusion(self):
        grid = Grid1D(ncells=40, length=1.0)
        c0 = np.where(grid.cell_centers < 0.5, 0.65, 0.35)
        ideal = filtration_oracle(c0, IDEAL, 1.0, grid, 0.02)
        model = ThermoModel.margules([[0, 1.5], [1.5, 0]])
        slow = filtration_oracle(c0, model, 1.0, grid, 0.02, c_tot=1.0)
        # positive interaction reduces the thermodynamic factor near x=1/2
        assert (slow.max() - slow.min()) > (ideal.max() - ideal.min())

    def test_spinodal_regime_raises(self):
        grid = Grid1D(ncells=20, length=1.0)
        c0 = np.full(20, 0.5)
        model = ThermoModel.margules([[0, 2.1], [2.1, 0]])
        with pytest.raises(NonMonotoneFlux):
            filtration_oracle(c0, model, 1.0, grid, 0.01, c_tot=1.0)

    def test_spinodal_message_prints_plain_floats(self):
        grid = Grid1D(ncells=20, length=1.0)
        model = ThermoModel.margules([[0, 2.1], [2.1, 0]])
        with pytest.raises(NonMonotoneFlux, match=r"^phi'\(0\.5\) = -0\.05\d* <= 0"):
            filtration_oracle(np.full(20, 0.5), model, 1.0, grid, 0.01, c_tot=1.0)

    @pytest.mark.parametrize("kwargs,err", [
        ({"t_end": np.inf}, "t_end"), ({"t_end": np.nan}, "t_end"),
        ({"t_end": -1.0}, "t_end"), ({"d12": np.nan}, "d12"),
        ({"d12": -1.0}, "d12"), ({"d12": 0.0}, "d12"), ({"d12": np.inf}, "d12"),
        ({"c_tot": 0.0}, "c_tot"), ({"c_tot": -1.0}, "c_tot"),
        ({"c_tot": np.inf}, "c_tot"), ({"c_tot": np.nan}, "c_tot"),
        ({"c0": np.r_[np.nan, np.full(19, 0.5)]}, "c0"),
        ({"c0": np.r_[np.full(19, 0.5), np.inf]}, "c0")])
    @pytest.mark.parametrize("model", [IDEAL, ThermoModel.margules([[0, 1.5], [1.5, 0]])])
    def test_bad_input_fails_closed(self, kwargs, err, model):
        # t_end = inf used to loop forever, NaN to return c0 or an all-NaN profile
        args = {"c0": np.linspace(0.3, 0.7, 20), "model": model, "d12": 1.0,
                "grid": Grid1D(ncells=20, length=1.0), "t_end": 0.01, "c_tot": 1.0}
        with pytest.raises(ValueError, match=f"^{err} must be"):
            filtration_oracle(**{**args, **kwargs})

    def test_matches_full_solver_on_binary(self):
        traj = _binary_step_trajectory(ncells=60, t_end=0.03)
        grid = traj.grid
        c0 = traj.checkpoints[0].c[:, 0]
        oracle = filtration_oracle(c0, IDEAL, 1.0, grid, 0.03)
        assert np.max(np.abs(traj.final().c[:, 0] - oracle)) < 5e-4


class TestDetectUphill:
    OSMOTIC_D = np.array([[0.0, 83.3, 68.0], [83.3, 0.0, 16.8],
                          [68.0, 16.8, 0.0]])
    TERNARY = MixtureSpec(names=("A", "B", "C"), dmat=OSMOTIC_D)

    def _ramp_field(self, dmat_unused=None, ncells=24):
        grid = Grid1D(ncells=ncells, length=1.0)
        t = grid.cell_centers / grid.length
        x = np.stack([0.2 + 0.2 * t, np.full(ncells, 0.4), 0.4 - 0.2 * t],
                     axis=1)
        return Field(c=x, grid=grid)

    def test_flat_species_moves_with_unequal_diffusivities(self):
        events = detect_uphill(self._ramp_field(), self.TERNARY)
        kinds = {e.kind for e in events}
        assert "osmotic" in kinds
        assert all(e.species == 1 for e in events if e.kind == "osmotic")

    def test_control_equal_diffusivities_is_clean(self):
        d = np.full((3, 3), 50.0)
        np.fill_diagonal(d, 0.0)
        spec = MixtureSpec(names=("A", "B", "C"), dmat=d)
        assert detect_uphill(self._ramp_field(), spec) == []

    def test_binary_ideal_never_reports(self):
        traj = _binary_step_trajectory(ncells=20, t_end=0.02)
        assert detect_uphill(traj, BINARY) == []

    def test_trajectory_scan_collects_times(self):
        grid = Grid1D(ncells=16, length=1.0)
        t = grid.cell_centers / grid.length
        x = np.stack([0.2 + 0.2 * t, np.full(16, 0.4), 0.4 - 0.2 * t], axis=1)
        traj = simulate(Field(c=x, grid=grid), self.TERNARY,
                        config=SimConfig(t_end=1e-4))
        events = detect_uphill(traj, self.TERNARY)
        assert any(e.time == 0.0 for e in events)

    def test_trajectory_event_list_is_exact(self):
        # the flat middle species moves osmotically at t = 0, then uphill
        # from both walls inwards; kind, face and species in scan order
        grid = Grid1D(ncells=16, length=1.0)
        t = grid.cell_centers / grid.length
        x = np.stack([0.2 + 0.2 * t, np.full(16, 0.4), 0.4 - 0.2 * t], axis=1)
        traj = simulate(Field(c=x, grid=grid), self.TERNARY,
                        config=SimConfig(t_end=1e-4, checkpoint_interval=2.5e-5))
        faces_by_checkpoint = [
            ("osmotic", range(15)),
            ("uphill", [0, 1, 2, 12, 13, 14]),
            ("uphill", [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]),
            ("uphill", [0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14]),
            ("uphill", [0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14]),
        ]
        expected = [(cp.time, kind, face, 1)
                    for cp, (kind, faces) in zip(traj.checkpoints, faces_by_checkpoint)
                    for face in faces]
        events = detect_uphill(traj, self.TERNARY)
        assert [(e.time, e.kind, e.face, e.species) for e in events] == expected


class TestTernaryClosedForms:
    def test_symmetric_unit_case(self):
        d = np.ones((3, 3))
        np.fill_diagonal(d, 0.0)
        rep = ternary_closed_forms([1 / 3, 1 / 3, 1 / 3], d)
        assert rep.det_b == pytest.approx(1.0, rel=1e-14)
        assert rep.tr_b == pytest.approx(2.0, rel=1e-14)
        assert rep.matches_assembly and rep.sector_ok

    def test_sweep_matches_and_certified(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            x = rng.dirichlet(np.ones(3))
            while x.min() < 1e-3:
                x = rng.dirichlet(np.ones(3))
            d = rng.uniform(0.1, 10.0, size=(3, 3))
            d = 0.5 * (d + d.T)
            np.fill_diagonal(d, 0.0)
            rep = ternary_closed_forms(x, d)
            assert rep.matches_assembly
            assert rep.sector_ok
            assert rep.det_b > 0 and rep.tr_b > 0

    def test_discriminant_inequality(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            x = rng.dirichlet(np.ones(3))
            d = rng.uniform(0.1, 10.0, size=(3, 3))
            d = 0.5 * (d + d.T)
            np.fill_diagonal(d, 0.0)
            rep = ternary_closed_forms(x, d)
            assert rep.tr_b**2 >= 3.0 * rep.det_b * (1 - 1e-12)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            ternary_closed_forms([0.5, 0.5], np.zeros((2, 2)))


class TestPropertySweep:
    def test_reaches_every_traced_kernel_attribute(self, monkeypatch):
        # the sweep looks its kernel calls up as module attributes, so a
        # wrapper set on the attribute (as a tracer sets one) sees them all
        calls = {}
        targets = [(mskernel, "spectrum"), (mskernel, "solve_fluxes_invariant"),
                   (mskernel, "solve_fluxes_reduced"),
                   (mskernel, "diffusion_operator_spectrum"),
                   (thermo, "convexity_check"), (thermo, "driving_force"),
                   (verify, "ternary_closed_forms")]
        for module, name in targets:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        spec = MixtureSpec(names=("A", "B", "C"),
                           dmat=[[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]])
        rows = verify.property_sweep(spec, IDEAL, 0)
        assert [row[:2] for row in rows] == [
            ("spectral-gap", "PASS"), ("flux-route-agreement", "PASS"),
            ("ternary-closed-forms", "PASS"), ("normal-ellipticity", "PASS"),
            ("pointwise-entropy", "PASS")]
        assert calls == {"spectrum": 1, "solve_fluxes_invariant": 2,
                         "solve_fluxes_reduced": 1, "diffusion_operator_spectrum": 1,
                         "convexity_check": 2, "driving_force": 1,
                         "ternary_closed_forms": 1}


def _rejection_samples(rng, n, k):
    """The rejection sampler verify once ran: Dirichlet(1) draws, each kept
    only if every entry is >= 1e-3; the reference law for the closed form."""
    x = np.empty((0, n))
    while len(x) < k:
        draw = rng.dirichlet(np.ones(n), size=k - len(x))
        x = np.concatenate([x, draw[draw.min(axis=1) >= 1e-3]])
    return x


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                         - np.searchsorted(b, grid, side="right") / b.size))


class TestSamplers:
    """The sweep's draws: Dirichlet(1) conditioned on x_i >= 1e-3, which is
    uniform on the sub-simplex 1e-3 + (1 - 1e-3 n) Delta."""
    DRAWS = 20_000
    SEEDS = range(20)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_interior_samples_law(self, n):
        scale = 1.0 - 1e-3 * n
        # min of a uniform point on the simplex is Beta(1, n - 1) / n
        mean = 1e-3 + scale / n**2
        sd = scale * np.sqrt((n - 1) / (n + 1)) / n**2
        for seed in self.SEEDS:
            x = verify._interior_samples(np.random.default_rng(seed), n, self.DRAWS)
            assert x.shape == (self.DRAWS, n)
            assert x.min() >= 1e-3
            assert np.max(np.abs(x.sum(axis=1) - 1.0)) <= SUM_TOL
            z = (x.min(axis=1).mean() - mean) / (sd / np.sqrt(self.DRAWS))
            assert abs(z) < 4.0, (seed, z)

    @pytest.mark.parametrize("n", [2, 6])
    def test_interior_samples_match_rejection_law(self, n):
        # two-sample KS at alpha ~ 1e-3: c(alpha) sqrt(2 / DRAWS)
        crit = 1.95 * np.sqrt(2.0 / self.DRAWS)
        for seed in range(3):
            x = verify._interior_samples(np.random.default_rng(seed), n, self.DRAWS)
            ref = _rejection_samples(np.random.default_rng(1000 + seed), n, self.DRAWS)
            for a, b in ((x.min(axis=1), ref.min(axis=1)), (x[:, 0], ref[:, 0])):
                assert _ks_statistic(a, b) < crit

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_paired_gradients_sum_to_exactly_zero(self, n):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            for _ in range(self.DRAWS // verify.VERIFY_SAMPLES):
                x, v = verify._paired_samples(rng, n)
                assert x.shape == v.shape == (verify.VERIFY_SAMPLES, n)
                assert x.min() >= 1e-3
                # exactly: driving_force's zero-sum rule
                assert np.all(v.sum(axis=1) == 0.0)
