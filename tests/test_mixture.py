"""Composition arithmetic and mixture-spec validation."""
import numpy as np
import pytest

from msdiff import (IDEAL, Composition, DrivingForce, FluxSet, MixtureSpec,
                    driving_force, mole_fractions)
from msdiff.errors import NegativeConcentration, NonPositiveTotal


class TestMoleFractions:
    def test_symmetric_pair(self):
        comp = mole_fractions([1.0, 1.0])
        assert np.array_equal(comp.x, [0.5, 0.5])
        assert comp.c_tot == 2.0

    def test_single_species_corner(self):
        comp = mole_fractions([2.0, 0.0, 0.0])
        assert np.array_equal(comp.x, [1.0, 0.0, 0.0])
        assert comp.c_tot == 2.0

    def test_direct_division(self):
        comp = mole_fractions([1.0, 2.0, 3.0])
        np.testing.assert_allclose(comp.x, [1 / 6, 1 / 3, 1 / 2], rtol=1e-15)
        assert comp.c_tot == 6.0

    def test_tiny_negative_clamped(self):
        comp = mole_fractions([1.0, -1e-12, 1.0])
        assert comp.x[1] == 0.0
        assert comp.c_tot == 2.0

    def test_large_negative_rejected(self):
        with pytest.raises(NegativeConcentration, match=r"^c\[1\]=-0\.001 with total 0\.999$"):
            mole_fractions([1.0, -1e-3])

    def test_zero_total_rejected(self):
        with pytest.raises(NonPositiveTotal):
            mole_fractions([0.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = rng.uniform(0.1, 5.0, size=rng.integers(2, 7))
            alpha = 10.0 ** rng.uniform(-6, 6)
            x0 = mole_fractions(c).x
            x1 = mole_fractions(alpha * c).x
            np.testing.assert_allclose(x1, x0, atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.uniform(0.0, 3.0, size=4)
            c[0] = max(c[0], 0.1)
            comp = mole_fractions(c)
            np.testing.assert_allclose(comp.x * comp.c_tot, c, rtol=1e-14)


class TestCompositionInvariants:
    def test_valid(self):
        Composition(x=[0.25, 0.75], c_tot=2.0)

    def test_default_total_is_one(self):
        # the CLI's composition section takes this default
        assert Composition(x=[0.25, 0.75]).c_tot == 1.0

    def test_sum_off_one(self):
        with pytest.raises(ValueError, match=r"^mole fractions must sum to 1, got 1\.1$"):
            Composition(x=[0.3, 0.3, 0.5], c_tot=1.0)
        with pytest.raises(ValueError,
                           match=r"^mole fractions must sum to 1, got 0\.8999999999999999$"):
            Composition(x=[0.3, 0.6], c_tot=1.0)

    def test_negative_fraction(self):
        with pytest.raises(ValueError):
            Composition(x=[-0.1, 1.1], c_tot=1.0)

    def test_nonpositive_total(self):
        with pytest.raises(ValueError):
            Composition(x=[0.5, 0.5], c_tot=0.0)

    @pytest.mark.parametrize("x,c_tot", [
        ([np.nan, np.nan], 1.0), ([np.nan, 1.0], 1.0), ([np.inf, 0.5], 1.0),
        ([0.5, 0.5], np.nan), ([0.5, 0.5], np.inf),
    ])
    def test_non_finite_rejected(self, x, c_tot):
        with pytest.raises(ValueError):
            Composition(x=x, c_tot=c_tot)


class TestValidateSpec:
    """MixtureSpec checks itself: each rule raises ``ValueError`` at
    construction, at the first violation."""

    def test_ok(self):
        spec = MixtureSpec(names=("A", "B"), dmat=[[0, 1], [1, 0]])
        assert spec.n == 2 and not spec.dmat.flags.writeable

    def test_asymmetric(self):
        with pytest.raises(ValueError,
                           match=r"dmat must be symmetric: dmat\[0,1\]=1\.0 != dmat\[1,0\]=2\.0"):
            MixtureSpec(names=("A", "B"), dmat=[[0, 1], [2, 0]])

    def test_nonpositive(self):
        with pytest.raises(ValueError, match="diffusivities must be positive and finite"):
            MixtureSpec(names=("A", "B"), dmat=[[0, -1], [-1, 0]])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite(self, value):
        with pytest.raises(ValueError, match="diffusivities must be positive and finite"):
            MixtureSpec(names=("A", "B"), dmat=[[0, value], [value, 0]])

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match=r"dmat shape \(2, 2\) does not match 3 species"):
            MixtureSpec(names=("A", "B", "C"), dmat=[[0, 1], [1, 0]])

    @pytest.mark.parametrize("dmat", [[0, 1], [[0, 1, 2], [1, 0, 1]], [[[0, 1], [1, 0]]]])
    def test_dmat_must_be_n_by_n(self, dmat):
        with pytest.raises(ValueError, match="does not match 2 species"):
            MixtureSpec(names=("A", "B"), dmat=dmat)

    @pytest.mark.parametrize("names", [(), ("A",)])
    def test_fewer_than_two_species(self, names):
        with pytest.raises(ValueError, match=f"need >= 2 species, got {len(names)}"):
            MixtureSpec(names=names, dmat=np.zeros((len(names), len(names))))

    @pytest.mark.parametrize("diag", [1.0, np.nan])
    def test_nonzero_diagonal(self, diag):
        with pytest.raises(ValueError, match="dmat diagonal is unused and must be 0"):
            MixtureSpec(names=("A", "B"), dmat=[[diag, 1], [1, 0]])

    def test_rejects_at_the_first_violation(self):
        # asymmetric and nonpositive: one error, not a list
        with pytest.raises(ValueError, match="dmat must be symmetric") as info:
            MixtureSpec(names=("A", "B"), dmat=[[0, -1], [2, 0]])
        assert "positive" not in str(info.value)

    def test_motivating_asymmetric_ternary(self):
        # the matrix that once gave fluxes, a spectrum and a full simulation
        with pytest.raises(ValueError, match=r"dmat\[0,1\]=1\.0 != dmat\[1,0\]=3\.0"):
            MixtureSpec(names=("A", "B", "C"), dmat=[[0, 1, 2], [3, 0, 1], [2, 1, 0]])


class TestZeroSumVectors:
    def test_driving_force_accepts_balanced(self):
        DrivingForce(d=[0.4, -0.1, -0.3])

    def test_driving_force_rejects_unbalanced(self):
        with pytest.raises(ValueError, match=r"^driving forces must be finite and sum to "
                                             r"zero: sum=0\.30000000000000004, max=0\.4$"):
            DrivingForce(d=[0.4, -0.1, 0.0])

    def test_flux_set_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            FluxSet(J=[1.0, 0.5])

    def test_zero_vectors_allowed(self):
        DrivingForce(d=[0.0, 0.0])
        FluxSet(J=[0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # NaN or inf makes the sum test itself NaN or inf; the row must fail
        v = np.array([[0.4, -0.1, -0.3], [bad, 0.1, -0.1]])
        for make in (lambda a: DrivingForce(d=a), lambda a: FluxSet(J=a),
                     lambda a: driving_force(IDEAL, [0.2, 0.3, 0.5], a)):
            make(v[0])
            for rows in (v, v[1]):  # batched and scalar
                with pytest.raises(ValueError, match="finite"):
                    make(rows)
