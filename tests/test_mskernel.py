"""Flux-force assembly, spectral certificates, and the three solve routes."""
import numpy as np
import pytest

from msdiff import (IDEAL, Composition, FluxSet, ThermoModel, assemble_A,
                    assemble_A_sym, assemble_B, diffusion_operator_spectrum,
                    fick_limit_D, mole_fractions, solve_fluxes_invariant,
                    solve_fluxes_reduced, spectral_gap_delta, spectrum)
from msdiff.errors import DegenerateComposition, NotConvex
from msdiff.linalg import simplex_basis
from msdiff.mskernel import (_diffusion_matrix_reduced, _solve_reduced,
                             floor_composition)


def solve_fluxes_bordered(comp, dmat, d, mu=None):
    """Oracle route: solve (A - mu x (x) e) J = c_tot d, which is
    invertible for 0 < mu < delta.  Default mu = delta / 2."""
    x = floor_composition(comp)
    if mu is None:
        mu = 0.5 * spectral_gap_delta(dmat)
    a_mu = assemble_A(x, dmat) - mu * np.outer(x, np.ones_like(x))
    j = np.linalg.solve(a_mu, comp.c_tot * np.asarray(d, dtype=float))
    return FluxSet(J=j - j.mean())


def _random_instance(rng, nmin=2, nmax=6, xmin=1e-3):
    n = int(rng.integers(nmin, nmax + 1))
    x = rng.dirichlet(np.ones(n))
    while x.min() < xmin:
        x = rng.dirichlet(np.ones(n))
    d = rng.uniform(0.1, 10.0, size=(n, n))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return x, d


def _random_zero_sum(rng, n):
    v = rng.standard_normal(n)
    return v - v.mean()


class TestAssembly:
    def test_binary_equimolar_matrix(self):
        a = assemble_A([0.5, 0.5], [[0, 1], [1, 0]])
        np.testing.assert_allclose(a, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)

    def test_null_vector_and_zero_column_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, d = _random_instance(rng)
            a = assemble_A(x, d)
            np.testing.assert_allclose(a @ x, 0.0, atol=1e-14)
            np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-14)

    def test_quasi_positive_off_diagonal(self):
        rng = np.random.default_rng(13)
        x, d = _random_instance(rng, nmin=4, nmax=4)
        a = assemble_A(x, d)
        off = a[~np.eye(4, dtype=bool)]
        assert np.all(off > 0)

    def test_symmetrized_is_similar(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x, d = _random_instance(rng)
            xs = floor_composition(x)
            a = assemble_A(xs, d)
            a_sym = assemble_A_sym(xs, d)
            rx = np.sqrt(xs)
            np.testing.assert_allclose(a_sym, a / rx[:, None] * rx[None, :],
                                       atol=1e-13)
            np.testing.assert_allclose(a_sym, a_sym.T, atol=1e-14)

    def test_reduced_matrix_equivalence(self):
        # eliminating the last flux from A J = c d must reproduce B
        rng = np.random.default_rng(29)
        for _ in range(50):
            x, d = _random_instance(rng)
            n = x.size
            a = assemble_A(x, d)
            b = assemble_B(x, d)
            v = _random_zero_sum(rng, n)
            lhs_full = (a @ v)[:-1]
            np.testing.assert_allclose(-b @ v[:-1], lhs_full,
                                       atol=1e-12 * max(1.0, np.abs(lhs_full).max()))


class TestSpectrum:
    def test_binary_example(self):
        rep = spectrum([0.5, 0.5], [[0, 2], [2, 0]])
        np.testing.assert_allclose(rep.eigenvalues, [0.0, -0.5], atol=1e-14)
        assert rep.delta == 0.5
        assert rep.gap_ok

    def test_delta_formula(self):
        d = np.array([[0, 2.0, 0.5], [2.0, 0, 4.0], [0.5, 4.0, 0]])
        assert spectral_gap_delta(d) == 0.25

    def test_gap_certified_on_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            x, d = _random_instance(rng)
            rep = spectrum(x, d)
            assert rep.gap_ok
            assert rep.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)

    def test_matches_general_eigensolver(self):
        # similarity claim: eig(A) computed directly agrees with eig(A_S)
        rng = np.random.default_rng(43)
        for _ in range(50):
            x, d = _random_instance(rng)
            rep = spectrum(x, d)
            w = np.sort(np.linalg.eigvals(assemble_A(floor_composition(x), d)).real)[::-1]
            np.testing.assert_allclose(rep.eigenvalues, w,
                                       atol=1e-9 * max(1.0, abs(w[-1])))


class TestFluxRoutes:
    def test_binary_example_all_routes(self):
        comp = Composition(x=[0.5, 0.5], c_tot=2.0)
        dmat = [[0, 2], [2, 0]]
        d = [0.15, -0.15]
        expect = [-0.6, 0.6]
        for solver in (solve_fluxes_invariant, solve_fluxes_reduced,
                       solve_fluxes_bordered):
            np.testing.assert_allclose(solver(comp, dmat, d).J, expect,
                                       rtol=1e-12)

    def test_routes_agree_on_sweep(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            x, dmat = _random_instance(rng)
            n = x.size
            comp = Composition(x=x, c_tot=rng.uniform(0.5, 3.0))
            d = 0.3 * _random_zero_sum(rng, n)
            j1 = solve_fluxes_invariant(comp, dmat, d).J
            j2 = solve_fluxes_reduced(comp, dmat, d).J
            j3 = solve_fluxes_bordered(comp, dmat, d).J
            scale = max(1.0, np.abs(j1).max())
            np.testing.assert_allclose(j2, j1, atol=1e-10 * scale)
            np.testing.assert_allclose(j3, j1, atol=1e-10 * scale)

    def test_bordered_insensitive_to_mu(self):
        rng = np.random.default_rng(53)
        x, dmat = _random_instance(rng, nmin=4, nmax=4)
        comp = Composition(x=x, c_tot=1.0)
        d = 0.2 * _random_zero_sum(rng, 4)
        delta = spectral_gap_delta(dmat)
        ref = solve_fluxes_bordered(comp, dmat, d, mu=0.5 * delta).J
        for frac in (0.1, 0.9):
            j = solve_fluxes_bordered(comp, dmat, d, mu=frac * delta).J
            np.testing.assert_allclose(j, ref, atol=1e-10)

    def test_osmotic_diffusion_ternary(self):
        # a species with zero driving force still carries flux when the
        # pair diffusivities are unequal
        dmat = np.array([[0, 83.3, 68.0], [83.3, 0, 16.8], [68.0, 16.8, 0]])
        comp = Composition(x=[0.3, 0.4, 0.3], c_tot=1.0)
        d = np.array([0.01, 0.0, -0.01])
        j = solve_fluxes_invariant(comp, dmat, d).J
        assert abs(j[1]) > 1e-3 * np.abs(j).max()

    def test_no_osmotic_flux_with_equal_diffusivities(self):
        dmat = np.full((3, 3), 50.0)
        np.fill_diagonal(dmat, 0.0)
        comp = Composition(x=[0.3, 0.4, 0.3], c_tot=1.0)
        j = solve_fluxes_invariant(comp, dmat, [0.01, 0.0, -0.01]).J
        assert abs(j[1]) < 1e-14


class TestFickLimit:
    def test_binary_formula(self):
        d = fick_limit_D([0.3, 0.7], [[0, 5], [5, 0]], 0)
        assert d == pytest.approx(5.0 / 0.7, rel=1e-14)

    def test_equal_diffusivities(self):
        dmat = np.full((4, 4), 2.5)
        np.fill_diagonal(dmat, 0.0)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        for i in range(4):
            assert fick_limit_D(x, dmat, i) == pytest.approx(
                2.5 / (1 - x[i]), rel=1e-14)

    def test_pure_species_degenerate(self):
        with pytest.raises(DegenerateComposition):
            fick_limit_D([1.0, 0.0], [[0, 1], [1, 0]], 0)

    def test_trace_species_flux_converges_to_ficks_law(self):
        # as x_i -> 0 the species decouples: J_i -> -D_i c grad c_i
        rng = np.random.default_rng(59)
        dmat = rng.uniform(0.5, 5.0, size=(4, 4))
        dmat = 0.5 * (dmat + dmat.T)
        np.fill_diagonal(dmat, 0.0)
        g = 0.02
        errs = []
        for eps in (1e-3, 1e-5, 1e-7):
            x = np.array([eps, *((1 - eps) / 3,) * 3])
            comp = Composition(x=x, c_tot=2.0)
            grad = np.array([g, -g / 3, -g / 3, -g / 3])
            j = solve_fluxes_invariant(comp, dmat, grad).J
            fick = -fick_limit_D(x, dmat, 0) * comp.c_tot * g
            errs.append(abs(j[0] - fick) / abs(fick))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-5


class TestDiffusionOperator:
    def test_equal_diffusivity_ternary(self):
        dmat = np.full((3, 3), 2.0)
        np.fill_diagonal(dmat, 0.0)
        w = diffusion_operator_spectrum([1 / 3, 1 / 3, 1 / 3], dmat, IDEAL)
        np.testing.assert_allclose(w, [2.0, 2.0], rtol=1e-12)

    def test_positive_on_ideal_sweep(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            x, dmat = _random_instance(rng)
            w = diffusion_operator_spectrum(x, dmat, IDEAL)
            assert np.all(w.real > 0)

    def test_independent_pseudoinverse_route(self):
        # alternate construction through the symmetrized pseudoinverse:
        # D = -X^{1/2} pinv(A_S) X^{-1/2} Gamma restricted to the subspace
        rng = np.random.default_rng(67)
        for _ in range(50):
            x, dmat = _random_instance(rng)
            n = x.size
            amat = rng.uniform(-1, 1, size=(n, n))
            amat = 0.5 * (amat + amat.T)
            np.fill_diagonal(amat, 0.0)
            model = ThermoModel.margules(amat)
            xs = floor_composition(x)
            from msdiff.thermo import gamma_matrix
            rx = np.sqrt(xs)
            dfull = -(rx[:, None] * np.linalg.pinv(assemble_A_sym(xs, dmat))
                      / rx[None, :]) @ gamma_matrix(model, xs)
            p = simplex_basis(n)
            w_ind = np.linalg.eigvals(p.T @ dfull @ p)
            w_ind = w_ind[np.argsort(-w_ind.real)]
            w = diffusion_operator_spectrum(xs, dmat, model,
                                            require_convex=False)
            np.testing.assert_allclose(np.sort(w.real), np.sort(w_ind.real),
                                       atol=1e-8 * max(1.0, np.abs(w_ind).max()))
            np.testing.assert_allclose(np.sort(np.asarray(w).imag),
                                       np.sort(w_ind.imag), atol=1e-8)

    def test_onsager_symmetry_weighted_inner_product(self):
        # the force-to-flux map is self-adjoint in the X^{-1} metric
        rng = np.random.default_rng(71)
        for _ in range(50):
            x, dmat = _random_instance(rng)
            n = x.size
            comp = Composition(x=x, c_tot=1.0)
            v = _random_zero_sum(rng, n)
            u = _random_zero_sum(rng, n)
            jv = solve_fluxes_invariant(comp, dmat, v).J
            ju = solve_fluxes_invariant(comp, dmat, u).J
            lhs = float(u @ (jv / x))
            rhs = float(v @ (ju / x))
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))

    def test_spinodal_flip(self):
        dmat = [[0.0, 1.0], [1.0, 0.0]]
        x = np.array([0.5, 0.5])
        below = ThermoModel.margules([[0, 1.9], [1.9, 0]])
        w = diffusion_operator_spectrum(x, dmat, below)
        assert w[0] == pytest.approx(0.05, rel=1e-10)
        above = ThermoModel.margules([[0, 2.1], [2.1, 0]])
        with pytest.raises(NotConvex):
            diffusion_operator_spectrum(x, dmat, above)
        w = diffusion_operator_spectrum(x, dmat, above, require_convex=False)
        assert w[0] == pytest.approx(-0.05, rel=1e-10)

    def test_scalar_reduced_solve_is_lapack_bit_for_bit(self):
        # binary mixtures divide instead of calling LAPACK per face
        rng = np.random.default_rng(79)
        k = rng.uniform(0.1, 10.0, size=(500, 1, 1)) * rng.choice([-1.0, 1.0], size=(500, 1, 1))
        b = rng.standard_normal((500, 1, 1))
        assert np.array_equal(_solve_reduced(k, b), np.linalg.solve(k, b))

    def test_reduced_matrix_consistent_with_flux_solve(self):
        rng = np.random.default_rng(73)
        x, dmat = _random_instance(rng, nmin=3, nmax=3)
        xs = floor_composition(x)
        m = _diffusion_matrix_reduced(xs, dmat, IDEAL)
        p = simplex_basis(3)
        v = _random_zero_sum(rng, 3)
        comp = Composition(x=xs / xs.sum(), c_tot=1.0)
        j = solve_fluxes_invariant(comp, dmat, v).J
        np.testing.assert_allclose(-(p @ m @ (p.T @ v)), j, atol=1e-11)


def test_mole_fractions_integration():
    comp = mole_fractions([0.6, 1.4])
    rep = spectrum(comp.x, [[0, 1], [1, 0]])
    assert rep.gap_ok
