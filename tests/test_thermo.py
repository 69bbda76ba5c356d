"""Activity models, thermodynamic factors, and Gibbs diagnostics."""
import re

import numpy as np
import pytest

from msdiff import (IDEAL, ThermoModel, convexity_check, diffusion_operator_spectrum,
                    driving_force, spectrum, ternary_closed_forms)
from msdiff.errors import DegenerateComposition
from msdiff.mixture import simplex_basis
from msdiff.thermo import X_FLOOR, _gamma, _ln_gamma_x, floor_composition


def mu_reference(model, x) -> np.ndarray:
    """Reference chemical potentials in RT units per row of ``x``, in plain
    numpy: mu_i = ln x_i + (A x)_i - x.A.x / 2, the two-suffix Margules
    form (the A terms vanish on ideal thermo)."""
    x = np.asarray(x, dtype=float)
    mu = np.log(x)
    if model.amat is not None:
        a = model.amat
        mu += (np.einsum("ij,...j->...i", a, x)
               - 0.5 * np.einsum("...i,ij,...j->...", x, a, x)[..., None])
    return mu


def gibbs_density(model, c) -> float:
    """Reference Gibbs free energy per volume in RT units, G = sum_i c_i mu_i
    summed over every row, with :func:`mu_reference` at x = c / c_tot
    raised to X_FLOOR (so a zero concentration contributes 0)."""
    c = np.asarray(c, dtype=float)
    x = np.maximum(c / c.sum(axis=-1, keepdims=True), X_FLOOR)
    return float(np.sum(c * mu_reference(model, x)))


def _random_interior_x(rng, n, xmin=1e-3):
    x = rng.dirichlet(np.ones(n))
    while x.min() < xmin:
        x = rng.dirichlet(np.ones(n))
    return x


def _random_amat(rng, n, amax=2.0):
    a = rng.uniform(-amax, amax, size=(n, n))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return a


class TestLnActivityCoeffs:
    """ln gamma_i = mu_i - ln x_i of the step kernel's ``_ln_gamma_x``."""

    def test_ideal_is_zero(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(_ln_gamma_x(x, None) - np.log(x), np.zeros(3))

    def test_binary_closed_form(self):
        # two-suffix binary: ln gamma_1 = A x2^2, ln gamma_2 = A x1^2
        a = 1.0
        x = np.array([0.25, 0.75])
        lng = _ln_gamma_x(x, np.array([[0, a], [a, 0]])) - np.log(x)
        np.testing.assert_allclose(lng, [a * 0.75**2, a * 0.25**2], rtol=1e-14)

    def test_pure_corner_reference(self):
        x = np.array([1.0, 0.0])
        with np.errstate(divide="ignore"):  # ln x_2 = -inf; mu_1 = ln gamma_1 at x_1 = 1
            mu = _ln_gamma_x(x, np.array([[0, 2.0], [2.0, 0]]))
        assert mu[0] == pytest.approx(0.0, abs=1e-15)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        a = _random_amat(rng, 4)
        xs = np.array([_random_interior_x(rng, 4) for _ in range(16)])
        batched = _ln_gamma_x(xs, a)
        for k in range(16):
            np.testing.assert_allclose(batched[k], _ln_gamma_x(xs[k], a), atol=1e-15)


def gamma_of(model, x) -> np.ndarray:
    """Gamma at ``x``, by the private body that driving_force applies."""
    x = np.asarray(x, dtype=float)
    return _gamma(x, model.interactions(x.shape[-1]))


class TestGammaMatrix:
    def test_ideal_is_identity(self):
        g = gamma_of(IDEAL, [0.3, 0.3, 0.4])
        assert np.array_equal(g, np.eye(3))

    def test_binary_symmetric_point(self):
        a = 1.0
        model = ThermoModel.margules([[0, a], [a, 0]])
        g = gamma_of(model, [0.5, 0.5])
        # 1 - 2 A x1 x2 acting within the zero-sum subspace
        np.testing.assert_allclose(g, [[0.75, 0.25], [0.25, 0.75]], rtol=1e-14)

    def test_column_sums_are_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            model = ThermoModel.margules(_random_amat(rng, n))
            g = gamma_of(model, _random_interior_x(rng, n))
            np.testing.assert_allclose(g.sum(axis=0), np.ones(n), atol=1e-10)

    def test_matches_finite_difference_jacobian(self):
        # independent construction: FD of ln gamma_i = mu_i - ln x_i of the
        # plain-numpy reference, in raw coordinates
        rng = np.random.default_rng(19)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 6))
            model = ThermoModel.margules(_random_amat(rng, n))
            x = _random_interior_x(rng, n, xmin=1e-2)
            g = gamma_of(model, x)
            fd = np.eye(n).astype(float)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                dlng = ((mu_reference(model, x + e) - np.log(x + e))
                        - (mu_reference(model, x - e) - np.log(x - e))) / (2 * h)
                fd[:, j] += x * dlng
            np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_boundary_rejected(self):
        # Gamma's public route, driving_force, holds x to the interior
        with pytest.raises(DegenerateComposition):
            driving_force(IDEAL, [1.0, 0.0], [0.1, -0.1])


class TestDrivingForce:
    def test_ideal_passthrough(self):
        d = driving_force(IDEAL, [0.4, 0.6], [0.1, -0.1])
        np.testing.assert_allclose(d.d, [0.1, -0.1], atol=1e-15)

    def test_nonideal_scales_gradient(self):
        model = ThermoModel.margules([[0, 1.0], [1.0, 0]])
        d = driving_force(model, [0.5, 0.5], [0.1, -0.1])
        np.testing.assert_allclose(d.d, [0.05, -0.05], rtol=1e-13)

    def test_unbalanced_gradient_rejected(self):
        with pytest.raises(ValueError):
            driving_force(IDEAL, [0.5, 0.5], [0.1, 0.0])


class TestGibbsDensity:
    """The reference G(c) above: its closed forms, and Gibbs-Duhem."""

    def test_equimolar_ideal(self):
        val = gibbs_density(IDEAL, [1.0, 1.0])
        assert val == pytest.approx(2.0 * np.log(0.5), rel=1e-14)

    def test_pure_corner_is_zero(self):
        assert gibbs_density(IDEAL, [2.0, 0.0]) == 0.0

    def test_gradient_is_chemical_potential(self):
        # dG/dc_i = mu_i = ln(gamma_i x_i), checked by central differences
        rng = np.random.default_rng(23)
        h = 1e-6
        for model in (IDEAL, ThermoModel.margules(_random_amat(rng, 3))):
            c = np.array([1.0, 2.0, 3.0])
            mu = mu_reference(model, c / c.sum())
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (gibbs_density(model, c + e) - gibbs_density(model, c - e)) / (2 * h)
                assert fd == pytest.approx(mu[i], abs=1e-6)


class TestConvexity:
    def test_ideal_equimolar_binary(self):
        assert convexity_check(IDEAL, [0.5, 0.5]) == pytest.approx(2.0, rel=1e-12)

    def test_ideal_lower_bound(self):
        # ideal form v . X^{-1} v on the zero-sum subspace is >= 1/max(x)
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = _random_interior_x(rng, n)
            lam = convexity_check(IDEAL, x)
            assert lam >= 1.0 / x.max() - 1e-10

    def test_spinodal_crossing(self):
        below = ThermoModel.margules([[0, 1.9], [1.9, 0]])
        above = ThermoModel.margules([[0, 2.1], [2.1, 0]])
        assert convexity_check(below, [0.5, 0.5]) > 0
        assert convexity_check(above, [0.5, 0.5]) < 0

    def test_weighted_factor_symmetric_on_subspace(self):
        # X^{-1} Gamma restricted to the zero-sum subspace is symmetric
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            model = ThermoModel.margules(_random_amat(rng, n))
            x = _random_interior_x(rng, n)
            m = gamma_of(model, x) / x[:, None]
            p = simplex_basis(n)
            red = p.T @ m @ p
            np.testing.assert_allclose(red, red.T, atol=1e-9 * np.abs(red).max())


class TestModelValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ThermoModel.margules([[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            ThermoModel.margules([[1, 0], [0, 1]])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="amat entries must be finite"):
            ThermoModel.margules([[0, value], [value, 0]])

    @pytest.mark.parametrize("amat,match", [
        ([[0, 1], [2, 0]], r"amat must be symmetric: amat\[0,1\]=1\.0 != amat\[1,0\]=2\.0"),
        ([[0, 1, 1], [1, 0, 1]], r"amat must be square, at least 2x2, got shape \(2, 3\)"),
        ([[0]], r"amat must be square, at least 2x2, got shape \(1, 1\)"),
    ])
    def test_pair_matrix_rule_names_amat(self, amat, match):
        with pytest.raises(ValueError, match=match):
            ThermoModel.margules(amat)

    def test_stored_read_only(self):
        amat = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = ThermoModel.margules(amat)
        amat[0, 1] = 5.0
        assert model.amat[0, 1] == 1.0 and not model.amat.flags.writeable

    def test_dimension_mismatch(self):
        model = ThermoModel.margules([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            model.interactions(3)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_ideal_interactions_are_none(self, n):
        # the resolved matrix of ideal thermo, at any species count
        assert IDEAL.interactions(n) is None


def _vertices_and_edge_midpoints(n):
    eye = np.eye(n)
    yield from eye
    for i in range(n):
        for j in range(i + 1, n):
            yield 0.5 * (eye[i] + eye[j])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_floor_output_is_accepted_at_simplex_boundary(n):
    """Every vertex and edge midpoint, once floored, is inside the domain
    of the checked functions; a NaN entry never is."""
    rng = np.random.default_rng(200 + n)
    d = rng.uniform(0.5, 5.0, size=(n, n))
    dmat = 0.5 * (d + d.T)
    np.fill_diagonal(dmat, 0.0)
    checks = (lambda x: driving_force(IDEAL, x, np.zeros(n)),
              lambda x: convexity_check(IDEAL, x),
              lambda x: diffusion_operator_spectrum(x, dmat, IDEAL))
    states = list(_vertices_and_edge_midpoints(n))
    assert len(states) == n + n * (n - 1) // 2
    for x in states:
        xf = floor_composition(x)
        assert xf.min() >= X_FLOOR
        for check in checks[:2]:
            check(xf)
        assert np.all(np.real(diffusion_operator_spectrum(x, dmat, IDEAL)) > 0)
        bad = x.copy()
        bad[0] = np.nan
        for check in checks:
            with pytest.raises(DegenerateComposition):
                check(bad)


#: Every public function that takes a composition, called with model, x and dmat.
_DOMAIN_CHECKED = {
    "convexity_check": lambda model, x, dmat: convexity_check(model, x),
    "driving_force": lambda model, x, dmat: driving_force(model, x, np.zeros(np.shape(x))),
    "diffusion_operator_spectrum": lambda model, x, dmat: diffusion_operator_spectrum(
        x, dmat, model, require_convex=False),
    "spectrum": lambda model, x, dmat: spectrum(x, dmat),
    "ternary_closed_forms": lambda model, x, dmat: ternary_closed_forms(x, dmat),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("thermo", ["ideal", "margules"])
@pytest.mark.parametrize("name", sorted(_DOMAIN_CHECKED))
def test_infinite_fraction_is_degenerate(n, thermo, name):
    """A +inf fraction fails the domain check like a NaN or a negative
    one, with DegenerateComposition naming the function: no 1.0
    certificate, NaN matrix, or LinAlgError, and no floor that lifts -0.2
    to X_FLOOR (the rows otherwise sum to 1).  Every entry also holds x to
    the simplex: finite rows of [1e308] * n (whose sum overflows) and of
    sum 1.1 raise one ValueError naming the sum, with no numpy warning (the
    suite turns warnings into errors).  Every entry holds x to
    Composition's shape: a scalar, or one species, raises one ValueError
    naming the function, not an IndexError or a result."""
    off = np.ones((n, n)) - np.eye(n)
    model = IDEAL if thermo == "ideal" else ThermoModel.margules(0.5 * off)
    for x in (1.0, [1.0]):
        msg = re.escape(f"{name} needs x shaped (..., n) with n >= 2 species, "
                        f"got shape {np.shape(x)}")
        with pytest.raises(ValueError, match=f"^{msg}$"):
            _DOMAIN_CHECKED[name](model, x, off)
    for bad in (np.inf, np.nan, -0.2):
        x = np.full(n, 1.2 / (n - 1))
        x[0] = bad
        with pytest.raises(DegenerateComposition, match=f"^{name} needs "):
            _DOMAIN_CHECKED[name](model, x, off)
    for x in (np.full(n, 1e308), np.full(n, 1.1 / n)):
        msg = re.escape(f"mole fractions must sum to 1, got {sum(x.tolist())!r}")  # inf, or 1.1
        with pytest.raises(ValueError, match=f"^{msg}$"):
            _DOMAIN_CHECKED[name](model, x, off)
