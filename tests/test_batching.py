"""Property tests of the batching contract: every public per-state
function run on a stack of states equals the stack of its scalar calls,
row by row, with verdicts exact and values to 1e-13 relative (stacked
matmul differs from the unstacked one in the last bits for n >= 4)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msdiff import (Composition, DrivingForce, FluxSet, ThermoModel,
                    chemical_potentials, convexity_check,
                    diffusion_operator_spectrum, driving_force, fick_limit_D,
                    gamma_matrix, solve_fluxes_invariant, solve_fluxes_reduced,
                    spectrum, ternary_closed_forms)
from msdiff.mixture import simplex_basis

SETTINGS = settings(max_examples=40, deadline=None)


def _sym(off, n):
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = off
    return m + m.T


@st.composite
def stacks(draw, n=None, a_max=1.0):
    """(x, g, dmat, model): k interior compositions and zero-sum
    gradients shaped (k, n), a symmetric D and a Margules model.  The
    gradients are built in the zero-sum basis from coordinates that are
    0 or at least 1e-6 in size, so that rounding (or a subnormal) cannot
    leave one of them off the subspace relative to its own size."""
    n = draw(st.integers(2, 6)) if n is None else n
    k = draw(st.integers(1, 5))
    npair = n * (n - 1) // 2
    w = draw(hnp.arrays(float, (k, n), elements=st.floats(1e-3, 1.0)))
    z = draw(hnp.arrays(float, (k, n - 1), elements=st.one_of(
        st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))))
    dmat = _sym(draw(hnp.arrays(float, npair, elements=st.floats(0.1, 10.0))), n)
    amat = _sym(draw(hnp.arrays(float, npair, elements=st.floats(-a_max, a_max))), n)
    return (w / w.sum(axis=1, keepdims=True), z @ simplex_basis(n).T,
            dmat, ThermoModel.margules(amat))


def _spectrum(x, g, dmat, model):
    rep = spectrum(x, dmat)
    return {"eigenvalues": rep.eigenvalues, "gap_ok": rep.gap_ok}


def _invariant(x, g, dmat, model):
    return {"J": solve_fluxes_invariant(Composition(x=x, c_tot=2.0), dmat, g).J}


def _reduced(x, g, dmat, model):
    return {"J": solve_fluxes_reduced(Composition(x=x, c_tot=2.0), dmat, g).J}


def _convexity(x, g, dmat, model):
    lam = convexity_check(model, x)
    return {"lambda_min": lam, "convex": np.asarray(lam) > 0}


def _driving_force(x, g, dmat, model):
    return {"d": driving_force(model, x, g).d}


def _gamma(x, g, dmat, model):
    return {"gamma": gamma_matrix(model, x)}


def _operator(x, g, dmat, model):
    return {"w": diffusion_operator_spectrum(x, dmat, model, require_convex=False)}


def _operator_convex(x, g, dmat, model):
    return {"w": diffusion_operator_spectrum(x, dmat, model)}


def _mu(x, g, dmat, model):
    return {"mu": chemical_potentials(model, x)}


def _fick(x, g, dmat, model):
    return {"D_0": fick_limit_D(x, dmat, 0)}


def _ternary(x, g, dmat, model):
    rep = ternary_closed_forms(x, dmat)
    return {"det_b": rep.det_b, "tr_b": rep.tr_b,
            "matches_assembly": rep.matches_assembly, "sector_ok": rep.sector_ok}


def _convexity_scale(x, g, dmat, model):
    """Size of the matrix whose smallest eigenvalue convexity_check is."""
    return np.max(np.abs(gamma_matrix(model, x) / x[..., :, None]))


def _force_scale(x, g, dmat, model):
    return np.max(np.abs(gamma_matrix(model, x))) * np.max(np.abs(g))


#: case -> (function of (x, g, dmat, model) returning named fields, the
#: fields compared exactly, the scale of the values (None: their largest))
CASES = {
    "spectrum": (_spectrum, {"gap_ok"}, None),
    "solve_fluxes_invariant": (_invariant, set(), None),
    "solve_fluxes_reduced": (_reduced, set(), None),
    "convexity_check": (_convexity, {"convex"}, _convexity_scale),
    "driving_force": (_driving_force, set(), _force_scale),
    "gamma_matrix": (_gamma, set(), None),
    "diffusion_operator_spectrum": (_operator, set(), None),
    "diffusion_operator_spectrum_convex": (_operator_convex, set(), None),
    "chemical_potentials": (_mu, set(), None),
    "fick_limit_D": (_fick, set(), None),
}
TERNARY = (_ternary, {"matches_assembly", "sector_ok"}, None)


def _close(batched, scalar, scale=None):
    """Equal NaN pattern, other entries within 1e-13 of ``scale`` (by
    default the largest scalar entry)."""
    b, s = np.asarray(batched), np.asarray(scalar)
    assert b.shape == s.shape
    nan = np.isnan(s)
    assert np.array_equal(np.isnan(b), nan)
    if scale is None:
        scale = np.max(np.abs(s[~nan]), initial=0.0)
    assert np.all(np.abs(b - s)[~nan] <= 1e-13 * scale)


def _rows_agree(case, x, g, dmat, model):
    """The batched call of ``case`` (fn, exact, scale) equals the stack
    of scalar calls; if it raises, some row's scalar call raises the
    same error class."""
    fn, exact, scale = case
    try:
        batched = fn(x, g, dmat, model)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        raised = []
        for r in range(len(x)):
            try:
                fn(x[r], g[r], dmat, model)
            except Exception as row_exc:  # noqa: BLE001
                raised.append(type(row_exc))
        assert type(exc) in raised, (exc, raised)
        return
    for r in range(len(x)):
        for key, value in fn(x[r], g[r], dmat, model).items():
            if key in exact:
                assert np.asarray(batched[key])[r] == value
            else:
                _close(np.asarray(batched[key])[r], value,
                       scale and scale(x[r], g[r], dmat, model))


@pytest.mark.parametrize("case", sorted(CASES))
@SETTINGS
@given(data=stacks(a_max=3.0))
def test_batched_equals_stacked_scalar_calls(case, data):
    # |A_ij| <= 3 makes some rows non-convex: they must not affect the
    # others, and with require_convex the batch raises NotConvex as the
    # non-convex row's scalar call does
    _rows_agree(CASES[case], *data)


@SETTINGS
@given(data=stacks(n=3))
def test_ternary_closed_forms_batched(data):
    _rows_agree(TERNARY, *data)


@pytest.mark.parametrize("case", sorted(CASES))
@SETTINGS
@given(data=stacks(a_max=3.0), where=st.sampled_from(["x", "g"]),
       row=st.integers(0, 4))
def test_nan_row_stays_in_its_row(case, data, where, row):
    x, g, dmat, model = data
    row %= len(x)
    x, g = x.copy(), g.copy()
    (x if where == "x" else g)[row] = np.nan
    if where == "x" and case.startswith("solve_fluxes"):
        with pytest.raises(ValueError):  # Composition rejects it per row
            CASES[case][0](x, g, dmat, model)
        return
    _rows_agree(CASES[case], x, g, dmat, model)


@SETTINGS
@given(data=stacks())
def test_leading_axes_are_all_batch_axes(data):
    x, g, dmat, model = data
    for fn, exact, _ in CASES.values():
        flat = fn(x, g, dmat, model)
        nested = fn(x[None, :, None], g[None, :, None], dmat, model)
        for key, value in flat.items():
            if key in exact:
                assert np.array_equal(np.asarray(nested[key])[0, :, 0], value)
            else:
                _close(np.asarray(nested[key])[0, :, 0], value)


@SETTINGS
@given(data=stacks())
def test_flux_routes_agree(data):
    x, g, dmat, _ = data
    comp = Composition(x=x, c_tot=1.5)
    ji = solve_fluxes_invariant(comp, dmat, g).J
    jr = solve_fluxes_reduced(comp, dmat, g).J
    scale = np.maximum(np.max(np.abs(ji), axis=1, keepdims=True), 1e-300)
    assert np.all(np.abs(ji - jr) <= 1e-10 * scale)


@SETTINGS
@given(data=stacks(a_max=3.0))
def test_gamma_columns_sum_to_one(data):
    x, _, _, model = data
    gam = gamma_matrix(model, x)
    np.testing.assert_allclose(gam.sum(axis=-2), 1.0,
                               atol=1e-12 * max(1.0, np.max(np.abs(gam))))


@SETTINGS
@given(data=stacks(), row=st.integers(0, 4),
       kind=st.sampled_from(["sum", "negative", "c_tot", "force", "flux"]))
def test_validators_check_every_row(data, row, kind):
    x, g, _, _ = data
    row %= len(x)
    x, g, c_tot = x.copy(), g.copy(), np.ones(len(x))
    if kind == "sum":
        x[row] *= 1.01
    elif kind == "negative":
        x[row, 0] = -x[row, 0]
    elif kind == "c_tot":
        c_tot[row] = -1.0
    else:
        g[row, 0] += 1.0
    with pytest.raises(ValueError):
        if kind == "force":
            DrivingForce(d=g)
        elif kind == "flux":
            FluxSet(J=g)
        else:
            Composition(x=x, c_tot=c_tot)
    # the same batch without the bad row is accepted
    keep = np.arange(len(x)) != row
    Composition(x=x[keep], c_tot=c_tot[keep])
    DrivingForce(d=g[keep])
    FluxSet(J=g[keep])
