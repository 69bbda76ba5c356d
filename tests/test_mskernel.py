"""Flux-force assembly, spectral certificates, and the three solve routes."""
import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msdiff import (IDEAL, Composition, Field, FluxSet, Grid1D, MixtureSpec, ThermoModel,
                    convexity_check, diffusion_operator_spectrum, driving_force,
                    solve_fluxes_invariant, solve_fluxes_reduced, spectrum,
                    ternary_closed_forms)
import msdiff.solver
from msdiff import mskernel
from msdiff.errors import (DegenerateComposition, EigSolverFailure, NotConvex,
                           SingularSystem)
from msdiff.mixture import _inverse_diffusivities, _unbatch, simplex_basis
from msdiff.mskernel import (_assemble_A, _assemble_A_sym, _assemble_B, _eliminate,
                             _operator_eigenvalues, _reduced_tensor)
from msdiff.solver import _Kernel
from msdiff.thermo import X_FLOOR, _as_x, floor_composition
from test_thermo import gamma_of  # Gamma by its private body, kept with its tests


def a_matrix(x, dmat) -> np.ndarray:
    """A at the floored ``x``, by the library's private body."""
    return _assemble_A(floor_composition(np.asarray(x, dtype=float)),
                       _inverse_diffusivities(dmat))


def a_sym_matrix(x, dmat) -> np.ndarray:
    """A_S = X^{-1/2} A X^{1/2} at the floored ``x``, by the private body."""
    return _assemble_A_sym(floor_composition(np.asarray(x, dtype=float)),
                           _inverse_diffusivities(dmat))


def b_matrix(x, dmat) -> np.ndarray:
    """The reduced matrix B at ``x`` (no floor), by the private body."""
    return _assemble_B(np.asarray(x, dtype=float), _inverse_diffusivities(dmat))


def delta_reference(dmat) -> float:
    """delta = min_{i != j} 1 / D_ij, in plain numpy."""
    d = np.asarray(dmat, dtype=float)
    return float(np.min(1.0 / d[~np.eye(len(d), dtype=bool)]))


def solve_fluxes_bordered(comp, dmat, d, mu=None):
    """Oracle route: solve (A - mu x (x) e) J = c_tot d, which is
    invertible for 0 < mu < delta.  Default mu = delta / 2."""
    x = floor_composition(comp.x)
    if mu is None:
        mu = 0.5 * delta_reference(dmat)
    a_mu = a_matrix(x, dmat) - mu * np.outer(x, np.ones_like(x))
    j = np.linalg.solve(a_mu, comp.c_tot * np.asarray(d, dtype=float))
    return FluxSet(J=j - j.mean())


def fick_limit_D(x, dmat, i: int) -> float | np.ndarray:
    """Effective Fickian diffusivity D_i = 1 / sum_{j != i} x_j / D_ij,
    per row of ``x``.

    This is the coefficient of -grad c_i in the flux split
    J_i = -D_i grad c_i + c_i F_i; cross-effects vanish as x_i -> 0.
    """
    x = _as_x(x, "fick_limit_D")
    inv = _inverse_diffusivities(dmat)
    s = x @ inv[i]
    if np.any(s == 0.0):
        raise DegenerateComposition(f"x[{i}] = 1: no partner species for diffusion")
    return _unbatch(1.0 / s)


def _solve_one(b, rhs):
    """``_eliminate`` of ``b`` (..., m, m) and ``rhs`` (..., m): the
    solution and each system's smallest |pivot|."""
    y, pivots = _eliminate(b, rhs)
    return y, np.abs(pivots).min(axis=-1)


def gauss_reference(b, rhs):
    """Reference for the reduced route: partial-pivot elimination of one
    system in scalar loops, with the arithmetic of ``_eliminate`` (the
    multipliers scaled by the reciprocal pivot, division in the back
    substitution).  Returns the solution and the smallest |pivot|."""
    a = [list(map(float, row)) for row in b]
    y = list(map(float, rhs))
    m = len(y)
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(a[i][k]))  # first of equal maxima
        a[k], a[p] = a[p], a[k]
        y[k], y[p] = y[p], y[k]
        inv = 1.0 / a[k][k]
        for i in range(k + 1, m):
            l = a[i][k] * inv
            for j in range(k + 1, m):
                a[i][j] -= l * a[k][j]
            y[i] -= l * y[k]
    for k in range(m - 1, -1, -1):
        y[k] /= a[k][k]
        for i in range(k):
            y[i] -= a[i][k] * y[k]
    return np.array(y), min(abs(a[k][k]) for k in range(m))


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
        a = a_matrix([0.5, 0.5], [[0, 1], [1, 0]])
        np.testing.assert_allclose(a, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)

    def test_null_vector_and_zero_column_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, d = _random_instance(rng)
            a = a_matrix(x, d)
            np.testing.assert_allclose(a @ x, 0.0, atol=1e-14)
            np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-14)

    def test_quasi_positive_off_diagonal(self):
        rng = np.random.default_rng(13)
        x, d = _random_instance(rng, nmin=4, nmax=4)
        a = a_matrix(x, d)
        off = a[~np.eye(4, dtype=bool)]
        assert np.all(off > 0)

    def test_symmetrized_is_similar(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x, d = _random_instance(rng)
            xs = floor_composition(x)
            a = a_matrix(xs, d)
            a_sym = a_sym_matrix(xs, d)
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
            a = a_matrix(x, d)
            b = b_matrix(x, d)
            v = _random_zero_sum(rng, n)
            lhs_full = (a @ v)[:-1]
            np.testing.assert_allclose(-b @ v[:-1], lhs_full,
                                       atol=1e-12 * max(1.0, np.abs(lhs_full).max()))


#: Every public function that takes a raw dmat, called on a ternary
#: state with dmat ``d``.
RAW_DMAT_CALLS = {
    "spectrum": spectrum,
    "diffusion_operator_spectrum": lambda x, d: diffusion_operator_spectrum(x, d, IDEAL),
    "solve_fluxes_invariant": lambda x, d: solve_fluxes_invariant(
        Composition(x=x, c_tot=1.0), d, [0.1, 0.0, -0.1]),
    "solve_fluxes_reduced": lambda x, d: solve_fluxes_reduced(
        Composition(x=x, c_tot=1.0), d, [0.1, 0.0, -0.1]),
    "ternary_closed_forms": ternary_closed_forms,
}


@pytest.mark.filterwarnings("error")  # no divide-by-zero warning on the way
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan, 1e-310])
@pytest.mark.parametrize("call", sorted(RAW_DMAT_CALLS))
def test_raw_dmat_must_be_positive_and_finite(call, value):
    # D = 0 used to give NaN eigenvalues from spectrum, with warnings
    d = np.array([[0.0, value, 1.0], [value, 0.0, 2.0], [1.0, 2.0, 0.0]])
    with pytest.raises(ValueError, match="diffusivities must be positive and finite"):
        RAW_DMAT_CALLS[call]([0.2, 0.3, 0.5], d)


#: dmat -> the message it must raise; the asymmetric one once gave
#: fluxes, a positive operator spectrum and eigvalsh of half of A_S.
BAD_SHAPE_DMAT = {
    "asymmetric": ([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                   r"dmat must be symmetric: dmat\[0,1\]=1\.0 != dmat\[1,0\]=3\.0"),
    "non-square": ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],
                   r"dmat must be square, at least 2x2, got shape \(2, 3\)"),
    "vector": ([1.0, 2.0, 3.0], r"dmat must be square, at least 2x2, got shape \(3,\)"),
    "1x1": ([[1.0]], r"dmat must be square, at least 2x2, got shape \(1, 1\)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_SHAPE_DMAT))
@pytest.mark.parametrize("call", sorted(RAW_DMAT_CALLS))
def test_raw_dmat_must_be_square_and_symmetric(call, case):
    d, match = BAD_SHAPE_DMAT[case]
    with pytest.raises(ValueError, match=match):
        RAW_DMAT_CALLS[call]([0.2, 0.3, 0.5], d)


#: Every public kernel function that takes a composition (and forces),
#: called with composition ``x``, dmat ``d`` and forces ``f``.
SPECIES_CALLS = {
    "spectrum": lambda x, d, f: spectrum(x, d),
    "solve_fluxes_invariant": lambda x, d, f: solve_fluxes_invariant(
        Composition(x=x, c_tot=1.0), d, f),
    "solve_fluxes_reduced": lambda x, d, f: solve_fluxes_reduced(
        Composition(x=x, c_tot=1.0), d, f),
    "diffusion_operator_spectrum": lambda x, d, f: diffusion_operator_spectrum(x, d, IDEAL),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, bad", [(c, "x") for c in sorted(SPECIES_CALLS)]
                         + [("solve_fluxes_invariant", "d"), ("solve_fluxes_reduced", "d")])
def test_species_counts_must_match_dmat(call, bad):
    """A composition or force with another species count than D raises one
    ValueError naming both counts, not numpy's broadcast or matmul message."""
    x = np.array([[0.2, 0.3, 0.5]] * 2)
    if bad == "x":  # a ternary composition, binary D and forces
        dmat, d = [[0, 1], [1, 0]], np.array([[0.1, -0.1]] * 2)
        msg = "x has 3 species, dmat has 2 species"
    else:  # a ternary composition and D, forces on four species
        dmat, d = [[0, 1, 2], [1, 0, 3], [2, 3, 0]], np.array([[0.1, 0.0, 0.0, -0.1]] * 2)
        msg = "d has 4 species, dmat has 3 species"
    with pytest.raises(ValueError, match=f"^{msg}$"):
        SPECIES_CALLS[call](x, dmat, d)


#: Every public per-state entry on a ternary batch ``x`` (with its
#: Composition ``comp``), dmat ``d``, zero-sum rows ``g`` and Margules
#: ``model``, and the (composition, D) checks it needs: (_as_x calls,
#: D-rule calls).
PER_STATE_CHECKS = {
    "spectrum": (lambda x, comp, d, g, model: spectrum(x, d), (1, 1)),
    "solve_fluxes_invariant": (
        lambda x, comp, d, g, model: solve_fluxes_invariant(comp, d, g), (0, 1)),
    "solve_fluxes_reduced": (
        lambda x, comp, d, g, model: solve_fluxes_reduced(comp, d, g), (0, 1)),
    "diffusion_operator_spectrum": (
        lambda x, comp, d, g, model: diffusion_operator_spectrum(x, d, model), (1, 1)),
    "driving_force": (lambda x, comp, d, g, model: driving_force(model, x, g), (1, 0)),
    "convexity_check": (lambda x, comp, d, g, model: convexity_check(model, x), (1, 0)),
    "ternary_closed_forms": (lambda x, comp, d, g, model: ternary_closed_forms(x, d), (1, 1)),
}


@pytest.mark.parametrize("call", sorted(PER_STATE_CHECKS))
def test_each_entry_checks_its_inputs_once(monkeypatch, call):
    """A public per-state function checks its composition and D once, at
    its entry, and computes through private bodies: no call reaches the
    composition conversion or the D rule a second time through another
    public function.  Every module's binding of the two checks is spied."""
    x = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
    comp = Composition(x=x, c_tot=1.0)
    dmat = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    g = np.array([[0.1, 0.2, -0.3], [-0.2, 0.0, 0.2]])
    model = ThermoModel.margules(0.5 * (np.ones((3, 3)) - np.eye(3)))
    counts = {"_as_x": 0, "_inverse_diffusivities": 0}
    checks = {"_as_x": _as_x, "_inverse_diffusivities": _inverse_diffusivities}
    for name, check in checks.items():
        def spy(*args, _name=name, _check=check, **kwargs):
            counts[_name] += 1
            return _check(*args, **kwargs)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "msdiff"]:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, spy)
    fn, expected = PER_STATE_CHECKS[call]
    fn(x, comp, dmat, g, model)
    assert (counts["_as_x"], counts["_inverse_diffusivities"]) == expected


class TestSpectrum:
    def test_binary_example(self):
        rep = spectrum([0.5, 0.5], [[0, 2], [2, 0]])
        np.testing.assert_allclose(rep.eigenvalues, [0.0, -0.5], atol=1e-14)
        assert rep.delta == 0.5
        assert rep.gap_ok

    def test_delta_formula(self):
        d = np.array([[0, 2.0, 0.5], [2.0, 0, 4.0], [0.5, 4.0, 0]])
        assert spectrum([0.2, 0.3, 0.5], d).delta == 0.25

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
            w = np.sort(np.linalg.eigvals(a_matrix(floor_composition(x), d)).real)[::-1]
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
        delta = delta_reference(dmat)
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

    def test_residual_failure_prints_plain_floats(self, monkeypatch):
        # no valid input fails the residual, so the solve is replaced by a
        # wrong zero-sum J; the message prints floats, not numpy reprs
        monkeypatch.setattr(mskernel, "_fluxes_projected",
                            lambda x, b, t: np.array([1.0, -1.0, 0.0]))
        with pytest.raises(SingularSystem, match=r"^projected solve residual [0-9.e+-]+ "
                                                 r"\(scale [0-9.e+-]+\)$"):
            solve_fluxes_invariant(Composition(x=[0.3, 0.4, 0.3]),
                                   [[0, 1, 2], [1, 0, 3], [2, 3, 0]], [0.01, 0.0, -0.01])

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
            rx = np.sqrt(xs)
            dfull = -(rx[:, None] * np.linalg.pinv(a_sym_matrix(xs, dmat))
                      / rx[None, :]) @ gamma_of(model, xs)
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

    @pytest.mark.parametrize("thermo", ["ideal", "margules"])
    @pytest.mark.parametrize("x", [[0.2, 0.3], [0.2, 0.3, 0.1]])
    def test_fractions_off_the_simplex_are_rejected(self, thermo, x):
        """A row whose fractions do not sum to 1 has no route-independent
        spectrum (there the pencil and M = -K^{-1} P^T Gamma P give
        different eigenvalues), so it raises ``ValueError`` naming its sum,
        batched or not; floored rows, which sum to 1 + k X_FLOOR, pass."""
        n = len(x)
        off = np.ones((n, n)) - np.eye(n)
        dmat = 1.3 * off
        model = IDEAL if thermo == "ideal" else ThermoModel.margules(1.5 * off / (n - 1))
        good = np.full(n, 1.0 / n)
        for rows in (np.array(x), np.array([good, x])):
            with pytest.raises(ValueError, match=re.escape(f"sum to 1, got {sum(x)!r}")):
                diffusion_operator_spectrum(rows, dmat, model)
        corners = floor_composition(np.eye(n))
        assert np.all(corners.sum(axis=-1) > 1.0)
        assert np.all(diffusion_operator_spectrum(corners, dmat, model) > 0)
        assert np.all(diffusion_operator_spectrum(np.eye(n), dmat, model) > 0)

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
        # binary mixtures divide instead of calling LAPACK per face; the
        # one pivot is K itself
        rng = np.random.default_rng(79)
        k = rng.uniform(0.1, 10.0, size=(500, 1, 1)) * rng.choice([-1.0, 1.0], size=(500, 1, 1))
        b = rng.standard_normal((500, 1))
        y, pivots = _eliminate(k, b)
        assert np.array_equal(y, np.linalg.solve(k, b[..., None])[..., 0])
        assert np.array_equal(pivots, k[..., 0])


def _sym(v, n):
    """Symmetric (n, n) matrix with zero diagonal from its n(n-1)/2 upper entries."""
    out = np.zeros((n, n))
    out[np.triu_indices(n, 1)] = v
    return out + out.T


@st.composite
def operator_states(draw):
    """(x, dmat, model): 1..8 rows of n = 2..6 species, each interior or
    with 1..n-1 species at X_FLOOR; D_ij in [0.1, 10]; ideal thermo or
    Margules with |A_ij| <= 3, so that non-convex rows occur."""
    n = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 8))
    npair = n * (n - 1) // 2
    w = draw(hnp.arrays(float, (rows, n), elements=st.floats(0.05, 1.0)))
    floored = draw(hnp.arrays(bool, (rows, n)))
    floored[floored.all(axis=1), 0] = False
    w[floored] = 0.0
    dmat = _sym(draw(hnp.arrays(float, npair, elements=st.floats(0.1, 10.0))), n)
    model = IDEAL
    if draw(st.booleans()):
        model = ThermoModel.margules(_sym(draw(hnp.arrays(
            float, npair, elements=st.floats(-3.0, 3.0))), n))
    return floor_composition(w / w.sum(axis=1, keepdims=True)), dmat, model


@settings(max_examples=200, deadline=None)
@given(state=operator_states())
def test_operator_spectrum_is_real(state):
    """The diffusion operator's spectrum is real, convex or not and with
    floored species: the public spectrum is a descending float array, and
    the eigenvalues of M = -(P^T A P)^{-1} P^T Gamma P, formed here from
    the assembled A and Gamma, have imaginary parts at roundoff."""
    x, dmat, model = state
    w = diffusion_operator_spectrum(x, dmat, model, require_convex=False)
    assert w.dtype == np.float64 and w.shape == x.shape[:-1] + (x.shape[-1] - 1,)
    assert np.all(np.diff(w, axis=-1) <= 0)
    p = simplex_basis(x.shape[-1])
    ev = np.linalg.eigvals(-np.linalg.solve(p.T @ a_matrix(x, dmat) @ p,
                                            p.T @ gamma_of(model, x) @ p))
    assert np.all(np.max(np.abs(ev.imag), axis=-1)
                  <= 1e-10 * np.max(np.abs(ev.real), axis=-1))


@settings(max_examples=300, deadline=None)
@given(state=operator_states())
def test_not_convex_is_the_sign_of_convexity_check(state):
    """With ``require_convex``, the spectrum raises NotConvex exactly where
    convexity_check <= 0, per row and for the batch, and otherwise returns
    the ``require_convex=False`` eigenvalues bit for bit.  Rows within 1e-3
    of zero are dropped: on floored rows convexity_check's 1/x = 1e12
    leaves it about four digits, so its sign decides nothing there."""
    x, dmat, model = state
    lam_min = np.asarray(convexity_check(model, x))
    x, lam_min = x[np.abs(lam_min) > 1e-3], lam_min[np.abs(lam_min) > 1e-3]
    cases = [(x[i], lam_min[i] > 0) for i in range(len(x))]
    if cases:
        cases.append((x, np.all(lam_min > 0)))
    for rows, convex in cases:
        free = diffusion_operator_spectrum(rows, dmat, model, require_convex=False)
        if convex:
            assert np.array_equal(diffusion_operator_spectrum(rows, dmat, model), free)
        else:
            with pytest.raises(NotConvex, match="operator eigenvalue"):
                diffusion_operator_spectrum(rows, dmat, model)


def _pencil_spectrum(x, dmat, model):
    """Ascending operator eigenvalues per row of ``x`` from the symmetric
    definite pencil (Q^T X^{-1/2} Gamma X^{1/2} Q, -Q^T A_S Q), with
    A_S = X^{-1/2} A X^{1/2} and Q a Householder basis of the complement
    of sqrt(x).  The X^{1/2} scaling keeps floored species well
    conditioned (an X^{-1} weighting would not)."""
    out = []
    for xi in x:
        r = np.sqrt(xi)
        v = r / np.linalg.norm(r)
        v[0] += np.copysign(1.0, v[0])
        q = (np.eye(xi.size) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]
        h = q.T @ (gamma_of(model, xi) * (r[None, :] / r[:, None])) @ q
        li = np.linalg.inv(np.linalg.cholesky(-(q.T @ a_sym_matrix(xi, dmat) @ q)))
        c = li @ h @ li.T
        out.append(np.linalg.eigvalsh(0.5 * (c + c.T)))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("thermo", ["ideal", "margules"])
def test_spectrum_accurate_on_floored_faces(n, thermo):
    """The public spectrum and the step kernel's refresh spectrum agree
    with the X^{1/2} pencil to 1e-8 of each face's largest eigenvalue, on
    a field of pure-species cells (faces with n-1 or n-2 floored species)
    and mixtures with one species absent."""
    rng = np.random.default_rng(500 + 10 * n + (thermo == "margules"))
    dmat = _sym(rng.uniform(0.1, 10.0, n * (n - 1) // 2), n)
    model = IDEAL
    if thermo == "margules":
        model = ThermoModel.margules(_sym(rng.uniform(-3.0, 3.0, n * (n - 1) // 2), n))
    mixed = rng.dirichlet(np.ones(n), size=4)
    mixed[np.arange(4), rng.integers(0, n, 4)] = 0.0
    mixed /= mixed.sum(axis=1, keepdims=True)
    pure = np.repeat(np.eye(n), 2, axis=0)
    c = 1.3 * np.concatenate([pure, mixed, pure[::-1]])
    fld = Field(c=c, grid=Grid1D(ncells=len(c), length=1.0))
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    x = fld.c / fld.c.sum(axis=1, keepdims=True)
    xf = 0.5 * (x[:-1] + x[1:])
    xf = floor_composition(xf / xf.sum(axis=1, keepdims=True))
    ref = _pencil_spectrum(xf, dmat, model)
    scale = 1e-8 * np.max(np.abs(ref), axis=-1, keepdims=True)
    w = diffusion_operator_spectrum(xf, dmat, model, require_convex=False)
    assert np.all(np.abs(w - ref[:, ::-1]) <= scale)
    kernel = _Kernel(spec, model, fld)
    lam = _operator_eigenvalues(kernel(fld.c).xf, kernel.inv, kernel.amat)[0]
    assert np.all(np.abs(np.sort(lam, axis=-1) - ref) <= scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("thermo", ["ideal", "margules"])
def test_kernel_refresh_spectrum_is_the_public_spectrum(monkeypatch, n, thermo):
    """The step kernel's refresh and ``diffusion_operator_spectrum`` take one
    route, ``_operator_eigenvalues``, on the kernel's own face compositions
    (interior and floored): a cold kernel's refresh returns the public
    spectrum's bits at every n, once each face's eigenvalues are sorted.  For
    n >= 3 both calls build one matrix M per face (``_operator_matrix``) with
    the same bits, whose ``eigvalsh`` is that spectrum.  ``dt_bound`` takes
    the pass's x_f; the pass takes no spectrum."""
    rng = np.random.default_rng(600 + 10 * n + (thermo == "margules"))
    dmat = _sym(rng.uniform(0.1, 10.0, n * (n - 1) // 2), n)
    model = IDEAL
    if thermo == "margules":
        model = ThermoModel.margules(_sym(rng.uniform(-0.3, 0.3, n * (n - 1) // 2), n))
    c = rng.dirichlet(np.ones(n), size=30)
    c[rng.random(c.shape) < 0.2] = 0.0
    c[c.sum(axis=1) == 0, 0] = 1.0
    c = 0.8 * c / c.sum(axis=1, keepdims=True)
    fld = Field(c=c, grid=Grid1D(ncells=len(c), length=1.0))
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    seen, mats = [], []
    eigenvalues, matrix = mskernel._operator_eigenvalues, mskernel._operator_matrix

    def spy(x, *args):
        lam, anchor = eigenvalues(x, *args)
        seen.append((x, lam.copy()))
        return lam, anchor

    for module in (msdiff.solver, mskernel):
        monkeypatch.setattr(module, "_operator_eigenvalues", spy)
    monkeypatch.setattr(mskernel, "_operator_matrix",
                        lambda *args: mats.append(matrix(*args).copy()) or mats[-1])
    kernel = _Kernel(spec, model, fld)
    st = kernel(fld.c)
    assert seen == []
    kernel.dt_bound(st)
    w = diffusion_operator_spectrum(st.xf, dmat, model, require_convex=False)
    ((xf, got), (_, public)) = seen
    assert xf is st.xf and np.any(xf == X_FLOOR)
    assert got.shape == (len(c) - 1, n - 1) and np.array_equal(got, public)
    assert np.array_equal(np.sort(got, axis=-1), np.sort(w, axis=-1))
    if n == 2:
        assert mats == []
        return
    mat, mat_public = mats
    assert mat.shape == (n - 1, n - 1, len(c) - 1) and np.array_equal(mat, mat_public)
    lam = np.linalg.eigvalsh(np.moveaxis(mat, -1, 0))
    if thermo == "ideal":
        lam = 1.0 / lam
    assert np.array_equal(np.sort(lam, axis=-1), np.sort(w, axis=-1))


def _warm_cold_states(rng, n, thermo):
    """The compositions (cells, n) of a sequence of states for one kernel:
    a step profile whose plateaus (faces with equal M) frame cells with
    absent species (floored faces), then perturbations of a few cells or of
    all, from 1e-14 to 3e-1 relative.  On "spinodal" thermo the sequence then
    moves the middle cells into the A_01 pair's spinodal in small steps, so
    that a face loses convexity while its largest eigenvalue stays below the
    maximum, and back out."""
    x = np.repeat(rng.dirichlet(np.ones(n), size=2) * 0.9 + 0.1 / n, [10, 12], axis=0)
    x[9:13] = rng.dirichlet(np.ones(n), size=4)
    x[9:13][np.arange(4), rng.integers(0, 2 if thermo == "spinodal" else n, 4)] = 0.0
    if thermo == "spinodal":
        x[:, :2] *= 0.1
    states = [x]
    for k, scale in enumerate([1e-14, 1e-10, 1e-6, 0.0, 1e-3, 1e-8, 3e-1, 1e-12, 1e-4]):
        cells = rng.random(len(x)) < (0.3 if k % 2 else 1.0)
        x = x.copy()
        x[cells] *= 1.0 + scale * rng.uniform(-1.0, 1.0, (cells.sum(), n))
        states.append(x)
    if thermo == "spinodal":  # in steps of 0.01 across the spinodal, then back
        for p in np.linspace(0.3, 0.45, 16):
            inside = x.copy()
            inside[8:14] = (1.0 - 2.0 * p) / (n - 2)
            inside[8:14, :2] = p
            states.append(inside)
        states.append(x)
    return [x / x.sum(axis=1, keepdims=True) for x in states]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("thermo", ["ideal", "margules", "spinodal"])
def test_screened_refresh_is_the_full_refresh(monkeypatch, n, thermo):
    """A warm kernel screens each refresh against its anchors, a cold one
    solves every face: on every state of a sequence their ``dt_bound`` has
    the same bits, and so has cfl h^2 / (2 max) of ``diffusion_operator_spectrum``;
    where one raises ``NotConvex`` (spinodal thermo: |A_01| = 3, the rest
    |A_ij| <= 0.3), so does the other, with the same message.  The warm
    kernel sends fewer faces to ``eigvalsh`` than there are."""
    rng = np.random.default_rng(700 + 10 * n + len(thermo))
    dmat = _sym(rng.uniform(0.1, 10.0, n * (n - 1) // 2), n)
    model = IDEAL
    if thermo != "ideal":
        amat = _sym(rng.uniform(-0.3, 0.3, n * (n - 1) // 2), n)
        if thermo == "spinodal":
            amat[0, 1] = amat[1, 0] = 3.0
        model = ThermoModel.margules(amat)
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    states = _warm_cold_states(rng, n, thermo)
    grid = Grid1D(ncells=len(states[0]), length=1.0)
    warm = _Kernel(spec, model, Field(c=states[0], grid=grid))
    solved = []
    eigvalsh = mskernel._eigvalsh
    monkeypatch.setattr(mskernel, "_eigvalsh",
                        lambda mat: solved.append(mat.shape[0]) or eigvalsh(mat))
    verdicts, warm_solved = [], []
    for x in states:
        got = []
        for kernel in (warm, _Kernel(spec, model, Field(c=x, grid=grid))):
            st = kernel(x)
            solved.clear()
            try:
                got.append(kernel.dt_bound(st))
            except NotConvex as exc:
                got.append(str(exc))
            if kernel is warm:
                warm_solved.append(sum(solved))
        assert type(got[0]) is type(got[1]) and got[0] == got[1]
        lam = diffusion_operator_spectrum(st.xf, dmat, model, require_convex=False)
        if isinstance(got[0], str):
            assert got[0] == f"diffusion operator eigenvalue {float(lam.min())!r} <= 0 at a face"
        else:
            assert got[0] == warm.cfl_safety * warm.h * warm.h / (2.0 * float(lam.max()))
        verdicts.append(isinstance(got[0], str))
    assert verdicts[-1] is False and any(verdicts) is (thermo == "spinodal")
    assert warm_solved[0] == len(states[0]) - 1 and min(warm_solved[1:]) < len(states[0]) - 1


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("call", ["spectrum", "convexity_check", "diffusion_operator_spectrum",
                                  "dt_bound"])
def test_every_eigensolve_fails_closed(monkeypatch, n, call):
    """Every symmetric eigensolve is ``mixture._eigvalsh``: where LAPACK's
    does not converge, each spectrum raises ``EigSolverFailure``, not
    numpy's ``LinAlgError``."""
    rng = np.random.default_rng(800 + n)
    dmat = _sym(rng.uniform(0.1, 10.0, n * (n - 1) // 2), n)
    model = ThermoModel.margules(_sym(rng.uniform(-0.3, 0.3, n * (n - 1) // 2), n))
    x = rng.dirichlet(np.ones(n), size=12)
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    kernel = _Kernel(spec, model, Field(c=x, grid=Grid1D(ncells=len(x), length=1.0)))
    st = kernel(x)
    calls = {"spectrum": lambda: spectrum(x, dmat),
             "convexity_check": lambda: convexity_check(model, x),
             "diffusion_operator_spectrum": lambda: diffusion_operator_spectrum(x, dmat, model),
             "dt_bound": lambda: kernel.dt_bound(st)}

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigSolverFailure, match="^Eigenvalues did not converge$"):
        calls[call]()


@pytest.mark.parametrize("thermo", ["ideal", "margules"])
def test_anchor_is_the_matrix_solved(thermo):
    """Without an anchor, ``_operator_eigenvalues`` returns as its anchor the
    M that ``_operator_matrix`` builds, bit for bit, with M's eigenvalues;
    the eigenvalues it returns are ascending, one row per row of x (N's
    reciprocals on ideal thermo)."""
    n = 5
    rng = np.random.default_rng(900 + len(thermo))
    dmat = _sym(rng.uniform(0.1, 10.0, n * (n - 1) // 2), n)
    amat = _sym(rng.uniform(-0.3, 0.3, n * (n - 1) // 2), n) if thermo == "margules" else None
    x = floor_composition(rng.dirichlet(np.ones(n), size=(3, 4)))
    inv = _inverse_diffusivities(dmat)
    lam, (mat, eig) = _operator_eigenvalues(x, inv, amat)
    ref = mskernel._operator_matrix(x, inv, amat)
    assert mat.shape == ref.shape == (n - 1, n - 1, 12)
    assert np.array_equal(mat.view(np.int64), ref.view(np.int64))
    assert np.array_equal(eig, np.linalg.eigvalsh(np.moveaxis(ref, -1, 0)))
    assert lam.shape == (12, n - 1) and np.all(np.diff(lam, axis=-1) >= 0)
    assert np.array_equal(lam, eig if thermo == "margules" else 1.0 / eig[:, ::-1])


class TestReducedElimination:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_reference_and_lapack(self, m):
        rng = np.random.default_rng(100 + m)
        # general matrices, so that rows are swapped, and the B of random mixtures
        b = [rng.standard_normal((60, m, m))]
        for _ in range(60):
            x, dmat = _random_instance(rng, nmin=m + 1, nmax=m + 1)
            b.append(b_matrix(x, dmat)[None])
        b = np.concatenate(b)
        rhs = rng.standard_normal((len(b), m))
        y, pivot = _solve_one(b, rhs)
        assert y.shape == rhs.shape and pivot.shape == (len(b),)
        for k in range(len(b)):
            y_ref, pivot_ref = gauss_reference(b[k], rhs[k])
            assert np.array_equal(y[k], y_ref)
            assert pivot[k] == pivot_ref
        y_np = np.linalg.solve(b, rhs[..., None])[..., 0]
        scale = np.linalg.cond(b) * np.max(np.abs(y_np), axis=-1)
        assert np.all(np.max(np.abs(y - y_np), axis=-1) <= 1e-13 * scale)

    def test_leading_axes_broadcast(self):
        """Every leading axis is a batch axis; the caller broadcasts the
        operands to one batch shape."""
        rng = np.random.default_rng(107)
        b = rng.standard_normal((2, 3, 4, 4))
        rhs = rng.standard_normal((3, 4))
        y, pivot = _solve_one(b, np.broadcast_to(rhs, (2, 3, 4)))
        assert y.shape == (2, 3, 4) and pivot.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                y_ref, pivot_ref = gauss_reference(b[i, j], rhs[j])
                assert np.array_equal(y[i, j], y_ref) and pivot[i, j] == pivot_ref

    @pytest.mark.parametrize("singular", [[[1.0, 2.0], [2.0, 4.0]],
                                          [[1.0, 1.0], [1.0, 1.0 + 1e-15]],
                                          [[0.0, 0.0], [0.0, 1.0]]])
    def test_vanishing_pivot_raises(self, monkeypatch, singular):
        # no valid composition makes B singular, so B is replaced: the
        # scalar call gets the singular B, the batched call a regular and
        # the singular one; a zero first pivot leaves NaN in the later ones,
        # and every pivot is checked, not only the smallest
        x = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
        d = [0.1, 0.2, -0.3]
        dmat = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        regular = b_matrix(x[0], dmat)
        monkeypatch.setattr(mskernel, "_assemble_B", lambda x, inv: np.array(
            [regular, singular] if np.ndim(x) == 2 else singular))
        for rows in (x, x[1]):
            with pytest.raises(SingularSystem):
                solve_fluxes_reduced(Composition(x=rows, c_tot=1.0), dmat, d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0])
    def test_non_finite_force_raises(self, bad):
        """Both flux routes hold raw forces to DrivingForce's rule (finite,
        each row summing to zero) and raise one ValueError, before any solve
        or residual check; a non-zero-sum row once gave fluxes from the
        reduced route and SingularSystem from the invariant one."""
        x = np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
        d = np.array([[0.1, 0.2, -0.3], [bad, 0.2, -0.3]])
        dmat = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        for call in ("solve_fluxes_invariant", "solve_fluxes_reduced"):
            for rows in (slice(None), 1):  # batched and scalar
                with pytest.raises(ValueError, match="^driving forces must be finite "
                                                     "and sum to zero: "):
                    SPECIES_CALLS[call](x[rows], dmat, d[rows])

    def test_non_finite_matrix_raises(self):
        # D_12 = 0 (not validated here) makes B = [[inf]], which an
        # elimination would turn into J = 0 without a word
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            solve_fluxes_reduced(Composition(x=[0.5, 0.5], c_tot=1.0),
                                 [[0.0, 0.0], [0.0, 0.0]], [0.1, -0.1])

    @pytest.mark.filterwarnings("error")
    def test_pivot_test_scales_an_overflowing_norm(self):
        """At D_12 = D_13 = 1e-300 the entries of B are about 1e300, so the
        squares of a plain Frobenius norm overflow: the pivot test then read
        inf, warned, and rejected every pivot of a system the projected
        route solves.  Scaled by max|B| (``_norm``), both routes agree."""
        comp = Composition(x=[0.3, 0.4, 0.3], c_tot=1.0)
        dmat = [[0, 1e-300, 1e-300], [1e-300, 0, 50], [1e-300, 50, 0]]
        d = [0.2, 0.0, -0.2]
        ji = solve_fluxes_invariant(comp, dmat, d).J
        np.testing.assert_allclose(solve_fluxes_reduced(comp, dmat, d).J, ji,
                                   rtol=0, atol=1e-10 * np.abs(ji).max())

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_batch_of_pivoting_and_non_pivoting_systems(self, m):
        """Diagonally dominant systems never swap rows; their row
        permutations swap at the first step.  Interleaved in one batch,
        both give the reference's bits, so swapping only where the pivot
        is not already the largest loses nothing."""
        rng = np.random.default_rng(200 + m)
        dominant = rng.uniform(-1.0, 1.0, size=(40, m, m))
        dominant[:, np.arange(m), np.arange(m)] = rng.choice([-1.0, 1.0], (40, m)) * (
            m + rng.uniform(0.0, 1.0, (40, m)))
        perms = [rng.permutation(m) for _ in range(40)]
        perms = [np.roll(q, 1) if q[0] == 0 else q for q in perms]
        b = np.stack([dominant[k // 2] if k % 2 == 0 else dominant[k // 2][perms[k // 2]]
                      for k in range(80)])
        swaps_first = np.argmax(np.abs(b[:, :, 0]), axis=1) != 0
        assert np.array_equal(swaps_first, np.arange(80) % 2 == 1)
        rhs = rng.standard_normal((80, m))
        y, pivot = _solve_one(b, rhs)
        for k in range(80):
            y_ref, pivot_ref = gauss_reference(b[k], rhs[k])
            assert np.array_equal(y[k], y_ref) and pivot[k] == pivot_ref
        y_np = np.linalg.solve(b, rhs[..., None])[..., 0]
        scale = np.linalg.cond(b) * np.max(np.abs(y_np), axis=-1)
        assert np.all(np.max(np.abs(y - y_np), axis=-1) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flux_routes_broadcast_at_entry(self, n):
        """Both flux routes broadcast composition and force batches at
        entry and give what the call with both operands broadcast by hand
        gives: the same bits for a composition stack against one force.
        Otherwise the matrices are assembled on the composition's own batch
        shape, whose matmul and einsum differ from the hand-broadcast
        stack's in the last bits (as in test_batching): 1e-13 of max|J|."""
        rng = np.random.default_rng(300 + n)
        _, dmat = _random_instance(rng, nmin=n, nmax=n)
        x = floor_composition(rng.dirichlet(np.ones(n), size=(4, 3)))
        d = rng.standard_normal((4, 3, n))
        d[..., -1] = -d[..., :-1].sum(axis=-1)
        for route in (solve_fluxes_invariant, solve_fluxes_reduced):
            for xs, ds in ((x, d[0, 0]), (x[0, 0], d), (x[0], d[:, :1])):
                shape = np.broadcast_shapes(xs.shape, ds.shape)
                j = route(Composition(x=xs, c_tot=2.0), dmat, ds).J
                ref = route(Composition(x=np.broadcast_to(xs, shape), c_tot=2.0), dmat,
                            np.broadcast_to(ds, shape)).J
                assert j.shape == shape
                if xs.shape == shape:
                    assert np.array_equal(j, ref)
                else:
                    assert np.max(np.abs(j - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_pivoting_is_exercised_on_floored_reduced_matrices(self):
        """Reduced flux-force matrices K = P^T A P with D in [0.1, 10] and
        every pattern of floored species: eliminating without pivoting
        grows some entries more than 1e3-fold, and the pivoted solve keeps
        the reference's bits on the worst of them and LAPACK's accuracy on
        all."""
        n, m = 6, 5
        rng = np.random.default_rng(1)
        patterns = np.array([p for p in itertools.product([False, True], repeat=n)
                             if not all(p)])
        k = []
        for _ in range(20):
            t = _reduced_tensor(_inverse_diffusivities(
                _sym(rng.uniform(0.1, 10.0, n * (n - 1) // 2), n)))
            w = rng.dirichlet(np.ones(n), size=(len(patterns), 3))
            w[np.repeat(patterns[:, None, :], 3, axis=1)] = 0.0
            x = floor_composition(w / w.sum(-1, keepdims=True))
            k.append((x @ t).reshape(x.shape[:-1] + (m, m)))
        k = np.concatenate(k).reshape(-1, m, m)
        growth = _growth_without_pivoting(k)
        assert growth.max() > 1e3
        rhs = rng.standard_normal((len(k), m))
        y, pivot = _solve_one(k, rhs)
        for i in np.argsort(growth)[-10:]:
            y_ref, pivot_ref = gauss_reference(k[i], rhs[i])
            assert np.array_equal(y[i], y_ref) and pivot[i] == pivot_ref
        y_np = np.linalg.solve(k, rhs[..., None])[..., 0]
        scale = np.linalg.cond(k) * np.max(np.abs(y_np), axis=-1)
        assert np.all(np.max(np.abs(y - y_np), axis=-1) <= 1e-13 * scale)


def _growth_without_pivoting(k):
    """Largest |entry| met while eliminating each system of ``k`` without
    row swaps, relative to the system's largest |entry|."""
    a = k.copy()
    m = a.shape[-1]
    scale = np.max(np.abs(a), axis=(-2, -1))
    big = scale.copy()
    with np.errstate(all="ignore"):
        for j in range(m - 1):
            a[:, j + 1:, j + 1:] -= (a[:, j + 1:, j, None] / a[:, j, None, j, None]
                                     * a[:, j, None, j + 1:])
            big = np.fmax(big, np.max(np.abs(a[:, j + 1:, j + 1:]), axis=(-2, -1)))
    return big / scale


def test_mole_fractions_integration():
    comp = Composition(x=[0.3, 0.7], c_tot=2.0)
    rep = spectrum(comp.x, [[0, 1], [1, 0]])
    assert rep.gap_ok
