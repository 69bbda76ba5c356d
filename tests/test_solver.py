"""Finite-volume reaction-diffusion stepping: fluxes, dt control,
conservation, positivity."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import msdiff.solver
import msdiff.verify
from msdiff import (Composition, Field, Grid1D, IDEAL, MixtureSpec, NO_REACTIONS,
                    Reaction, ReactionNetwork, SimConfig, ThermoModel,
                    diffusion_operator_spectrum, driving_force, face_fluxes,
                    simulate, solve_fluxes_invariant, stable_dt)
from msdiff.errors import (IsobaricDrift, MaxStepsExceeded, MsDiffError,
                           NonFiniteState, NotConvex, PositivityViolation)
from msdiff.mixture import CLAMP_REL, _inverse_diffusivities, simplex_basis
from msdiff.mskernel import _assemble_A, _eliminate, _operator_eigenvalues, _reduced_tensor
from msdiff.solver import DT_REFRESH_STEPS, ISOBARIC_TOL, _advance, _Kernel, _State
from msdiff.thermo import _gamma_dot, _ln_gamma_x, floor_composition
from test_thermo import gamma_of, gibbs_density, mu_reference  # reference G and mu; Gamma

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

    @pytest.mark.parametrize("c", [[[1e308, 1e308]] * 2, [[1e308, 5e307]] * 2],
                             ids=["total", "mean"])
    def test_field_rejects_an_overflowing_total(self, c):
        # the row sums, or only their mean, overflow to inf, which would pass
        # inf <= ISOBARIC_TOL * inf; the suite turns a numpy warning into a failure
        with pytest.raises(ValueError, match="positive and uniform"):
            Field(c=c, grid=Grid1D(ncells=2, length=1.0))

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf, "x"])
    def test_field_time_must_be_finite(self, time):
        fld = _binary_step_field(ncells=10)
        with pytest.raises(ValueError):
            Field(c=fld.c, grid=fld.grid, time=time)

    @pytest.mark.parametrize("time", [1, np.float32(0.5), np.int64(-2)])
    def test_field_stores_time_as_a_float(self, time):
        fld = _binary_step_field(ncells=10)
        assert type(Field(c=fld.c, grid=fld.grid, time=time).time) is float

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, 5e-324, 4e-308, 1e-200])
    def test_grid_rejects_bad_length(self, length):
        # 5e-324 / 4 is 0 and 4e-308 / 4 subnormal: a cell width that divides
        # by zero or loses its digits; (1e-200 / 4)^2 underflows to 0, so
        # dt ~ h^2 could not advance t
        with pytest.raises(ValueError):
            Grid1D(ncells=4, length=length)

    @pytest.mark.parametrize("ncells", [16.7, True, np.bool_(True), "16", np.inf,
                                        np.nan, None, [16], np.float64(2.5)])
    def test_grid_rejects_non_integer_ncells(self, ncells):
        # 16.7 used to give 17 cell centres with h = 1/16.7
        with pytest.raises(ValueError, match="ncells must be an integer") as exc:
            Grid1D(ncells=ncells, length=1.0)
        if type(ncells) is np.float64:  # a plain number, not np.float64(2.5)
            assert str(exc.value) == "ncells must be an integer, got 2.5"

    @pytest.mark.parametrize("ncells", [16, np.int64(16), np.int32(16), 16.0,
                                        np.float64(16.0)])
    def test_grid_stores_an_int_and_a_float(self, ncells):
        g = Grid1D(ncells=ncells, length=1)
        assert (type(g.ncells), type(g.length)) == (int, float)
        assert (g.ncells, g.h, len(g.cell_centers)) == (16, 1 / 16, 16)

    def test_grid_length_beyond_float_range_fails_at_construction(self):
        with pytest.raises(OverflowError):
            Grid1D(ncells=4, length=10 ** 400)


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
        # floor_eps and dt_refresh_steps are no longer fields: the floor is
        # thermo.X_FLOOR and the dt refresh cadence a solver constant
        removed = {"floor_eps", "dt_refresh_steps"} & kwargs.keys()
        with pytest.raises(TypeError if removed else ValueError):
            SimConfig(**{"t_end": 0.1, **kwargs})

    @pytest.mark.parametrize("max_steps", [2.9, True, np.bool_(False), "3", np.inf,
                                           np.nan, [3], np.float64(2.5)])
    def test_rejects_non_integer_max_steps(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be an integer") as exc:
            SimConfig(t_end=1, max_steps=max_steps)
        if type(max_steps) is np.float64:  # a plain number, not np.float64(2.5)
            assert str(exc.value) == "max_steps must be an integer, got 2.5"

    def test_stores_floats_and_an_int(self):
        cfg = SimConfig(t_end=1, cfl_safety=np.float32(0.5),
                        checkpoint_interval=np.int64(1), max_steps=np.int64(7))
        assert ([type(v) for v in (cfg.t_end, cfg.cfl_safety, cfg.checkpoint_interval,
                                   cfg.max_steps)] == [float, float, float, int])
        assert SimConfig(t_end=1, max_steps=5.0).max_steps == 5

    @pytest.mark.parametrize("key", ["t_end", "cfl_safety", "checkpoint_interval"])
    def test_value_beyond_float_range_fails_at_construction(self, key):
        with pytest.raises(OverflowError):
            SimConfig(**{"t_end": 1.0, key: 10 ** 400})

    def test_default_checkpoint_interval(self):
        fld = _binary_step_field(ncells=10)
        times = simulate(fld, BINARY, config=SimConfig(t_end=0.1)).times
        np.testing.assert_allclose(times, np.linspace(0.0, 0.1, 51), rtol=1e-12)
        cfg = SimConfig(t_end=0.1, checkpoint_interval=0.03)
        np.testing.assert_allclose(simulate(fld, BINARY, config=cfg).times,
                                   [0.0, 0.03, 0.06, 0.09, 0.1], rtol=1e-12)


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

    @pytest.mark.filterwarnings("error")  # the entry raises; numpy need not warn
    @pytest.mark.parametrize("entry", [face_fluxes, msdiff.verify.detect_uphill],
                             ids=["face_fluxes", "detect_uphill"])
    def test_overflowing_flux_raises_non_finite_state(self, entry):
        """c_tot dx/h = 1e300 * 0.8 / 1e-150 overflows at the middle face:
        face_fluxes returned [inf, -inf] there, and detect_uphill []."""
        c = 1e300 * np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        fld = Field(c=c, grid=Grid1D(ncells=4, length=4e-150))
        with pytest.raises(NonFiniteState, match=re.escape(
                "flux J[2,0] = inf at t = 0.0 (overflow or an invalid operation)")):
            entry(fld, BINARY)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cfl", [-1.0, 0.0, np.nan, np.inf, 5.0])
    @pytest.mark.parametrize("entry", [
        lambda fld, cfl: stable_dt(fld, BINARY, cfl_safety=cfl),
        lambda fld, cfl: _Kernel(BINARY, None, fld, cfl_safety=cfl),
        lambda fld, cfl: simulate(fld, BINARY, config=SimConfig(t_end=0.01, cfl_safety=cfl)),
    ], ids=["stable_dt", "kernel", "simulate"])
    def test_cfl_safety_outside_unit_interval_rejected(self, entry, cfl):
        """stable_dt used to return -0.0078, 0.0, nan and 0.039 for these."""
        with pytest.raises(ValueError, match=re.escape("cfl_safety must be in (0, 1]")):
            entry(_binary_step_field(ncells=8), cfl)


class TestStep:
    """One explicit Euler step is one kernel pass and ``_advance``, as in
    ``simulate``'s loop; a kernel holds no state, so one serves every step."""

    def test_uniform_is_fixed_point(self):
        grid = Grid1D(ncells=6, length=1.0)
        fld = Field(c=np.tile([0.8, 1.2], (6, 1)), grid=grid)
        kernel = _Kernel(BINARY, None, fld)
        c = _advance(kernel(fld.c), 1e-3, 0.0, kernel.h)
        np.testing.assert_allclose(c, fld.c, atol=1e-15)

    def test_mass_and_total_conserved(self):
        rng = np.random.default_rng(89)
        spec = _random_mixture(rng, 3)
        grid = Grid1D(ncells=20, length=1.0)
        x = rng.dirichlet(np.ones(3), size=20)
        fld = Field(c=1.5 * x, grid=grid)
        dt = stable_dt(fld, spec)
        kernel, c = _Kernel(spec, None, fld), fld.c
        for k in range(25):
            nxt = _advance(kernel(c), dt, k * dt, kernel.h)
            np.testing.assert_allclose(nxt.sum(axis=0), c.sum(axis=0), rtol=1e-13)
            np.testing.assert_allclose(nxt.sum(axis=1), 1.5, rtol=1e-12)
            c = nxt

    def test_step_relaxes_toward_mean(self):
        fld = _binary_step_field(ncells=10)
        dt = stable_dt(fld, BINARY)
        kernel, c = _Kernel(BINARY, None, fld), fld.c
        for k in range(200):
            c = _advance(kernel(c), dt, k * dt, kernel.h)
        spread = c[:, 0].max() - c[:, 0].min()
        assert spread < 0.4 * 0.8  # initial spread was 0.4

    def test_oversized_step_breaks_positivity(self):
        fld = _binary_step_field(ncells=10, left=(0.999, 0.001),
                                 right=(0.001, 0.999))
        dt = 200 * stable_dt(fld, BINARY)
        kernel = _Kernel(BINARY, None, fld)
        with pytest.raises(PositivityViolation, match=r"^c\[\d+,\d+\] = -[0-9.e+-]+ at "
                                                      r"t = [0-9.e+-]+ \(CFL or model breach\)$"):
            _advance(kernel(fld.c), dt, 0.0, kernel.h)


    @pytest.mark.parametrize("bad, first", [(np.nan, "c[1,0] = nan"),
                                            (-np.inf, "c[2,0] = -inf")])
    def test_non_finite_step_raises_non_finite_state(self, bad, first):
        c = np.full((3, 2), 0.5)
        jf = np.zeros((4, 2))
        jf[2] = [bad, 0.0]  # the face between cells 1 and 2
        st = _State(c=c, c_tot=1.0, jf=jf, w=0.0, mu=np.log(c), xf=None, f=None)
        with pytest.raises(NonFiniteState, match=re.escape(first)):
            _advance(st, 0.1, 0.0, 1.0)

    def test_isobaric_drift_raises_a_typed_error(self):
        """Totals that drift apart inside the kernel raise IsobaricDrift
        (exit 6), not the ValueError of a Field built from bad input."""
        fld = _binary_step_field(ncells=4)
        kernel = _Kernel(BINARY, None, fld)
        c = fld.c.copy()
        c[2] *= 1.0 + 0.1 * ISOBARIC_TOL
        kernel(c)
        c[2] *= 1.0 + 10 * ISOBARIC_TOL
        with pytest.raises(IsobaricDrift, match="ISOBARIC_TOL"):
            kernel(c)
        assert issubclass(IsobaricDrift, MsDiffError) and not issubclass(IsobaricDrift, ValueError)


def _sym(off, n):
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = off
    return m + m.T


@st.composite
def face_stacks(draw):
    """(x, d, dmat, amat): floored face compositions and forces shaped
    (..., n) (one face, a row of faces, or a 2-D stack), n = 2..6, where
    a drawn fraction is exactly 0 about a third of the time before the
    floor; a symmetric D and Margules interactions with |A_ij| <= 3."""
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from([(), (5,), (2, 3)])) + (n,)
    npair = n * (n - 1) // 2
    w = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))))
    w = np.where(w.sum(axis=-1, keepdims=True) > 0, w, 1.0)
    d = draw(hnp.arrays(float, shape, elements=st.floats(-10.0, 10.0)))
    dmat = _sym(draw(hnp.arrays(float, npair, elements=st.floats(0.1, 10.0))), n)
    amat = _sym(draw(hnp.arrays(float, npair, elements=st.floats(-3.0, 3.0))), n)
    return floor_composition(w / w.sum(axis=-1, keepdims=True)), d, dmat, amat


def _assert_close(got, ref, scale):
    """|got - ref| <= 1e-13 scale, per face, in the Frobenius norm."""
    axes = tuple(range(scale.ndim, got.ndim))
    err = np.sqrt(np.sum((got - ref) ** 2, axis=axes))
    assert np.all(err <= 1e-13 * scale), float(np.max(err / scale))


@pytest.mark.parametrize("thermo", ["ideal", "margules"])
@settings(max_examples=60, deadline=None)
@given(data=face_stacks())
def test_kernel_one_product_forms(thermo, data):
    """The step kernel's per-run tensor forms against the matrices they
    replace, face by face, to 1e-13 of the norm of the matrix formed
    (A, or ||Gamma|| ||d||): K(x) = x @ T is P^T A(x) P; Gamma d applied
    directly is Gamma @ d (the Margules form at A = 0 on ideal thermo)."""
    x, d, dmat, amat = data
    n = x.shape[-1]
    p = simplex_basis(n)
    inv = _inverse_diffusivities(dmat)
    a_full = _assemble_A(x, inv)
    k = (x @ _reduced_tensor(inv)).reshape(x.shape[:-1] + (n - 1, n - 1))
    _assert_close(k, p.T @ a_full @ p, np.linalg.norm(a_full, axis=(-2, -1)))

    model = ThermoModel.margules(amat) if thermo == "margules" else IDEAL
    a = amat if thermo == "margules" else np.zeros((n, n))
    g = gamma_of(model, x)
    gd_ref = (g @ d[..., None])[..., 0]
    _assert_close(_gamma_dot(x, a, d), gd_ref,
                  np.linalg.norm(g, axis=(-2, -1)) * np.linalg.norm(d, axis=-1))


@st.composite
def step_problems(draw):
    """(field, spec, model, reactions): n = 2..6 species on 2..12 cells
    with random interior compositions and D; ideal or two-suffix
    Margules thermo with |A_ij| < 1 / (n - 1), so that ||A|| < 1 and the
    Gibbs energy is convex; none or up to three mole-conserving
    mass-action reactions of one or two reactants."""
    n = draw(st.integers(2, 6))
    ncells = draw(st.integers(2, 12))
    npair = n * (n - 1) // 2
    w = draw(hnp.arrays(float, (ncells, n), elements=st.floats(0.2, 1.0)))
    c_tot = draw(st.floats(0.5, 2.0))
    dmat = _sym(draw(hnp.arrays(float, npair, elements=st.floats(0.1, 10.0))), n)
    a_max = 0.99 / (n - 1)
    model = draw(st.sampled_from([IDEAL, None]))
    if model is None:
        model = ThermoModel.margules(_sym(draw(hnp.arrays(
            float, npair, elements=st.floats(-a_max, a_max))), n))
    reactions = []
    for _ in range(draw(st.integers(0, 3))):
        order = draw(st.integers(1, 2))
        species = st.lists(st.integers(0, n - 1), min_size=order, max_size=order)
        reactions.append(Reaction(
            reactants=np.bincount(draw(species), minlength=n),
            products=np.bincount(draw(species), minlength=n),
            rate_constant=draw(st.floats(0.1, 10.0))))
    field = Field(c=c_tot * w / w.sum(axis=1, keepdims=True),
                  grid=Grid1D(ncells=ncells, length=draw(st.floats(0.5, 2.0))))
    spec = MixtureSpec(names=tuple(f"S{i}" for i in range(n)), dmat=dmat)
    return field, spec, model, ReactionNetwork(reactions=tuple(reactions))


@settings(max_examples=100, deadline=None)
@given(problem=step_problems())
def test_single_step_conserves_totals_and_masses(problem):
    field, spec, model, reactions = problem
    dt = 0.5 * stable_dt(field, spec, model, reactions)
    kernel = _Kernel(spec, model, field, reactions)
    new = _advance(kernel(field.c), dt, field.time, kernel.h)
    cells0, cells1 = field.c.sum(axis=1), new.sum(axis=1)
    assert np.all(np.abs(cells1 - cells0) <= 1e-12 * cells0)
    assert abs(new.sum() - field.c.sum()) <= 1e-12 * field.c.sum()
    if not reactions.reactions:
        mass0, mass1 = field.c.sum(axis=0), new.sum(axis=0)
        assert np.all(np.abs(mass1 - mass0) <= 1e-12 * mass0)


def _reference_rates(net, c):
    """f(c) as one loop over the reactions, each adding its mass-action
    rate times its net stoichiometry; ``ReactionNetwork.rates`` must give
    the same bits."""
    c = np.asarray(c, dtype=float)
    f = np.zeros_like(c)
    for rx in net.reactions:
        rate = rx.rate_constant * np.prod(
            np.power(c, rx.reactants), axis=-1, keepdims=True)
        f = f + rate * (rx.products - rx.reactants)
    return f


_MAGNITUDES = st.one_of(st.just(0.0), st.floats(-300, 5).map(lambda e: 10.0 ** e))


@st.composite
def rate_problems(draw):
    """(network, c): n = 2..6 species, 1..12 reactions with coefficients
    0..3 (products a permutation of the reactants, so moles balance),
    rate constants and concentrations exactly 0 or from 1e-300 to 1e5,
    and c one vector or a batch along one or two leading axes."""
    n = draw(st.integers(2, 6))
    reactions = []
    for _ in range(draw(st.integers(1, 12))):
        r = draw(hnp.arrays(float, n, elements=st.integers(0, 3)))
        reactions.append(Reaction(reactants=r, products=r[draw(st.permutations(range(n)))],
                                  rate_constant=draw(_MAGNITUDES)))
    shape = draw(st.sampled_from([(), (3,), (2, 4)])) + (n,)
    return ReactionNetwork(reactions=tuple(reactions)), draw(
        hnp.arrays(float, shape, elements=_MAGNITUDES))


@settings(max_examples=150, deadline=None)
@given(problem=rate_problems())
def test_rates_match_per_reaction_loop_bit_for_bit(problem):
    net, c = problem
    f, ref = net.rates(c), _reference_rates(net, c)
    assert np.array_equal(f, ref)
    assert np.array_equal(np.signbit(f), np.signbit(ref))  # -0.0 too


@pytest.mark.parametrize("batch", [(100,), (4, 25), (2, 3, 5)])
def test_rates_match_per_reaction_loop_on_run_sized_batches(batch):
    """``ReactionNetwork.rates`` reduces species-major over axis 0; on batches
    the size of a run's cells it gives the per-reaction loop's bits too,
    signed zeros included: 70 draws of n = 2..6 species and 1..12 reactions,
    with rate constants and concentrations exactly 0 or from 1e-300 to 1e5."""
    rng = np.random.default_rng(410 + len(batch))

    def magnitudes(size):
        return np.where(rng.random(size) < 0.2, 0.0, 10.0 ** rng.uniform(-300, 5, size))

    for _ in range(70):
        n = rng.integers(2, 7)
        reactions = []
        for _ in range(rng.integers(1, 13)):
            r = rng.integers(0, 4, n).astype(float)
            reactions.append(Reaction(reactants=r, products=rng.permutation(r),
                                      rate_constant=magnitudes(()).item()))
        net, c = ReactionNetwork(reactions=tuple(reactions)), magnitudes(batch + (n,))
        f, ref = net.rates(c), _reference_rates(net, c)
        assert f.shape == c.shape and np.array_equal(f, ref)
        assert np.array_equal(np.signbit(f), np.signbit(ref))


def _operator_reduced(k, g):
    """M = -K^{-1} G from K = P^T A P and G = P^T Gamma P, batched; one
    solve per column of G."""
    g = np.broadcast_to(g, k.shape)
    return -np.stack([_eliminate(k, g[..., c])[0] for c in range(g.shape[-1])], axis=-1)


@st.composite
def binary_operator_states(draw):
    """(x, d12, a): 1..8 binary rows, each interior or with one species at
    X_FLOOR; D_12 in [0.1, 10]; a Margules a with |a| <= 3, so that
    G = 1 - 2 a x_1 x_2 / s takes both signs."""
    w = draw(hnp.arrays(float, (draw(st.integers(1, 8)), 2),
                        elements=st.one_of(st.just(0.0), st.floats(0.05, 1.0))))
    w[w.sum(axis=1) == 0, 0] = 1.0
    x = floor_composition(w / w.sum(axis=1, keepdims=True))
    return x, draw(st.floats(0.1, 10.0)), draw(st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(state=binary_operator_states(), ideal=st.booleans())
def test_binary_operator_eigenvalue_is_the_reduced_operator(state, ideal):
    """At n = 2 the pencil's closed form G / N is M = -K^{-1} P^T Gamma P,
    formed here from the assembled A and Gamma, to 1e-13 of the scale of
    its terms, (1 + 2 |a| x_1 x_2 / s) D_12 / s with s = x_1 + x_2.  A
    floored row sums to s = 1 + X_FLOOR, where P^T Gamma P (whose
    Gibbs-Duhem form assumes s = 1) and G differ by
    (s - 1)(a s / 2 - 2 a x_1 x_2 / s), so the two eigenvalues by at most
    |a| |s - 1| D_12; the bound adds that term, which is zero on rows
    that sum to 1."""
    x, d12, a = state
    dmat = np.array([[0.0, d12], [d12, 0.0]])
    inv = _inverse_diffusivities(dmat)
    model = IDEAL if ideal else ThermoModel.margules([[0.0, a], [a, 0.0]])
    a = 0.0 if ideal else a
    lam = _operator_eigenvalues(x, inv, model.amat)[0]
    p = simplex_basis(2)
    ref = _operator_reduced(p.T @ _assemble_A(x, inv) @ p, p.T @ gamma_of(model, x) @ p)
    assert lam.shape == ref.shape[:-1] == x.shape[:-1] + (1,)
    s = x.sum(axis=-1)
    scale = (1.0 + 2.0 * abs(a) * x[:, 0] * x[:, 1] / s) * d12 / s
    err = np.abs(lam[:, 0] - ref[:, 0, 0])
    bound = 1e-13 * scale + abs(a) * np.abs(s - 1.0) * d12
    assert np.all(err <= bound), float(np.max(err / scale))


def _reference_call(kernel, c):
    """One step-kernel call as species-axis ``sum`` reductions, a per-call
    basis and ``ndarray`` reduction methods: ``_Kernel.__call__`` must give
    the same bits at n = 2, and agree to roundoff otherwise."""
    totals = c.sum(axis=1, keepdims=True)
    c_tot = float(totals.sum() / totals.size)
    assert c_tot > 0 and np.abs(totals - c_tot).max() <= ISOBARIC_TOL * c_tot
    x = c / totals
    xf = 0.5 * (x[:-1] + x[1:])
    xf = floor_composition(xf / xf.sum(axis=1, keepdims=True))
    d = (x[1:] - x[:-1]) / kernel.h
    mu = _ln_gamma_x(floor_composition(x), kernel.amat)
    if kernel.amat is not None:
        d = _gamma_dot(xf, kernel.amat, d)
    m = c.shape[1] - 1
    k = (xf @ kernel.t).reshape(xf.shape[:-1] + (m, m))
    p = simplex_basis(c.shape[1])
    rhs = (0.5 * (totals[:-1, 0] + totals[1:, 0])[..., None] * d) @ p
    j = _eliminate(k, rhs)[0] @ p.T
    jf = np.zeros((c.shape[0] + 1, c.shape[1]))
    jf[1:-1] = j
    w = float(-(j * (mu[1:] - mu[:-1])).sum())
    f = kernel.reactions.rates(c) if kernel.reactions.reactions else None
    return _State(c=c, c_tot=c_tot, jf=jf, w=w, mu=mu, xf=xf, f=f)


def _reference_spectrum(kernel, xf):
    """Eigenvalues of the operator M = -K^{-1} P^T Gamma P at the faces
    ``xf``, in place of the kernel's X^{1/2} pencil."""
    m = xf.shape[-1] - 1
    k = (xf @ kernel.t).reshape(xf.shape[:-1] + (m, m))
    p = simplex_basis(xf.shape[-1])
    g = np.eye(m)
    if kernel.amat is not None:
        g = p.T @ gamma_of(ThermoModel(kernel.amat), xf) @ p
    mm = _operator_reduced(k, g)
    return mm[..., 0] if m == 1 else np.linalg.eigvals(mm).real


def _reference_advance(st, dt, t, h):
    """One explicit Euler update with the ``ndarray.min`` reduction, for
    states that stay nonnegative within the clamp."""
    rhs = (st.jf[:-1] - st.jf[1:]) / h
    if st.f is not None:
        rhs = rhs + st.f
    cn = st.c + dt * rhs
    assert cn.min() >= -CLAMP_REL * st.c_tot
    np.maximum(cn, 0.0, out=cn)
    return cn


@settings(max_examples=100, deadline=None)
@given(problem=step_problems())
def test_kernel_matches_reference_arithmetic(problem):
    """The kernel's per-run ones matrix, basis and direct reductions leave
    every bit of the state and the update unchanged at n = 2; at n >= 3
    only the row sums may round differently.  The spectrum comes from the
    X^{1/2} pencil, the reference's from M, so at every n they agree to
    roundoff."""
    field, spec, model, reactions = problem
    kernel = _Kernel(spec, model, field, reactions)
    got, ref = kernel(field.c), _reference_call(kernel, field.c)
    dt = 0.5 * stable_dt(field, spec, model, reactions)
    cn, cn_ref = _advance(got, dt, 0.0, kernel.h), _reference_advance(ref, dt, 0.0, kernel.h)
    assert got.c is field.c
    assert (got.f is None) == (not reactions.reactions)
    # lam has no order per face: the reference's is LAPACK eigvals'
    lam = _operator_eigenvalues(got.xf, kernel.inv, kernel.amat)[0]
    lam_ref = _reference_spectrum(kernel, ref.xf)
    _assert_close(np.sort(lam, axis=-1), np.sort(lam_ref, axis=-1), np.max(np.abs(lam_ref)))
    if spec.n == 2:
        assert got.c_tot == ref.c_tot and got.w == ref.w
        for a, b in [(got.jf, ref.jf), (got.mu, ref.mu), (got.xf, ref.xf), (got.f, ref.f),
                     (cn, cn_ref)]:
            assert a is b is None or np.array_equal(a, b)
        return
    assert got.c_tot == pytest.approx(ref.c_tot, rel=1e-15)
    _assert_close(got.xf, ref.xf, np.max(ref.xf))
    _assert_close(got.jf, ref.jf, np.max(np.abs(ref.jf)))
    mu = _ln_gamma_x(floor_composition(field.c / field.c.sum(axis=1, keepdims=True)),
                     kernel.amat)
    assert abs(got.w - ref.w) <= 1e-12 * np.sum(np.abs(ref.jf[1:-1] * np.diff(mu, axis=0)))
    if got.f is not None:
        _assert_close(got.f, ref.f, np.max(np.abs(ref.f)))
    _assert_close(cn, cn_ref, np.max(cn_ref))


def test_kernel_step_count_matches_reference_at_n6(monkeypatch):
    """A Margules n = 6 run with the reference kernel and update takes the
    same number of steps and checkpoints and ends at roundoff distance."""
    rng = np.random.default_rng(61)
    spec, fld = _random_state(rng, 6, ncells=24)
    a = np.triu(rng.uniform(-0.15, 0.15, size=(6, 6)), 1)
    model = ThermoModel.margules(a + a.T)
    config = SimConfig(t_end=2e-2, checkpoint_interval=4e-3)
    steps = []

    def run():
        advance = msdiff.solver._advance

        def counted(*args):
            steps[-1] += 1
            return advance(*args)
        steps.append(0)
        with monkeypatch.context() as m:
            m.setattr(msdiff.solver, "_advance", counted)
            return simulate(fld, spec, model, config=config)
    got = run()
    kernel = _Kernel(spec, model, fld)
    monkeypatch.setattr(_Kernel, "__call__", _reference_call)
    monkeypatch.setattr(msdiff.solver, "_operator_eigenvalues",
                        lambda xf, *_: (_reference_spectrum(kernel, xf), None))
    monkeypatch.setattr(msdiff.solver, "_advance", _reference_advance)
    ref = run()
    assert steps[0] == steps[1] > 10 * DT_REFRESH_STEPS
    assert len(got.checkpoints) == len(ref.checkpoints) == 6
    for cp, cp_ref in zip(got.checkpoints, ref.checkpoints):
        assert cp.time == pytest.approx(cp_ref.time, rel=1e-14)
        _assert_close(cp.c, cp_ref.c, np.max(cp_ref.c))


class TestReactions:
    def test_rates_check_the_species_count(self):
        net = ReactionNetwork(reactions=(Reaction([1, 0], [0, 1], 1.0),))
        with pytest.raises(ValueError, match=re.escape(
                "c has 3 species, reaction network has 2 species")):
            net.rates(np.ones((3, 3)))

    def test_network_rejects_mixed_species_counts(self):
        with pytest.raises(ValueError, match=re.escape("one species count, got [2, 3]")):
            ReactionNetwork(reactions=(Reaction([1, 0], [0, 1], 1.0),
                                       Reaction([1, 0, 0], [0, 0, 1], 1.0)))

    def test_empty_network_rates_are_zeros_like_c(self):
        f = NO_REACTIONS.rates(np.ones((2, 3, 4)))
        assert f.shape == (2, 3, 4) and not f.any()

    @pytest.mark.parametrize("entry", [
        lambda fld, net: simulate(fld, BINARY, reactions=net, config=SimConfig(t_end=0.01)),
        lambda fld, net: stable_dt(fld, BINARY, reactions=net),
    ], ids=["simulate", "stable_dt"])
    def test_network_species_count_checked_at_entry(self, entry):
        net = ReactionNetwork(reactions=(Reaction([1, 0, 0], [0, 1, 0], 1.0),))
        with pytest.raises(ValueError, match=re.escape(
                "reaction network has 3 species, mixture has 2 species")):
            entry(_binary_step_field(ncells=8), net)

    @pytest.mark.filterwarnings("error")  # the entry raises; numpy need not warn
    @pytest.mark.parametrize("entry", [
        lambda fld, spec, net: stable_dt(fld, spec, reactions=net),
        lambda fld, spec, net: simulate(fld, spec, reactions=net, config=SimConfig(t_end=1e-3)),
    ], ids=["stable_dt", "simulate"])
    @pytest.mark.parametrize("reactants, products, first", [
        ([2, 0], [0, 2], "f[0,0] = -inf"),           # the rate overflows
        ([0, 2, 0], [0, 0, 2], "f[0,0] = nan"),      # inf times a zero net coefficient
    ], ids=["inf", "nan"])
    def test_overflowing_rates_raise_non_finite_state(self, entry, reactants, products,
                                                      first):
        n = len(reactants)
        spec = MixtureSpec(names=("A", "B", "C")[:n], dmat=1.0 - np.eye(n))
        fld = Field(c=np.full((4, n), 500.0), grid=Grid1D(ncells=4, length=1.0))
        net = ReactionNetwork(reactions=(Reaction(reactants, products, 1e303),))
        with pytest.raises(NonFiniteState, match=re.escape(
                f"reaction rate {first} (overflow or an invalid operation)")):
            entry(fld, spec, net)

    def test_rates_evaluated_once_per_kernel_call(self, monkeypatch):
        """One evaluation per step (and one at the start) serves both the
        dt bound and the update."""
        calls = {"rates": 0, "advance": 0}
        rates, advance = ReactionNetwork.rates, msdiff.solver._advance

        def count(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(ReactionNetwork, "rates", count("rates", rates))
        monkeypatch.setattr(msdiff.solver, "_advance", count("advance", advance))
        net = ReactionNetwork(reactions=(Reaction([1, 0], [0, 1], 2.0),
                                         Reaction([0, 1], [1, 0], 1.0)))
        simulate(_binary_step_field(ncells=10), BINARY, reactions=net,
                 config=SimConfig(t_end=0.05))
        assert calls["advance"] > 2 * DT_REFRESH_STEPS
        assert calls["rates"] == calls["advance"] + 1

    @pytest.mark.parametrize("k", [-1.0, np.nan, np.inf])
    def test_rate_constant_must_be_finite_nonnegative(self, k):
        with pytest.raises(ValueError):
            Reaction(reactants=[1, 0], products=[0, 1], rate_constant=k)

    @pytest.mark.parametrize("coef", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("where", ["reactants", "products", "both"])
    def test_stoichiometry_must_be_finite_nonnegative(self, coef, where):
        # "both" keeps the sums equal, so mole conservation cannot catch it
        sides = {"reactants": [1.0, 0.0], "products": [0.0, 1.0]}
        for side in sides if where == "both" else [where]:
            sides[side] = [coef, 1.0]
        with pytest.raises(ValueError, match="^stoichiometric coefficients must be finite"):
            Reaction(rate_constant=1.0, **sides)

    def test_rate_constant_is_stored_as_a_float(self):
        assert type(Reaction([1, 0], [0, 1], rate_constant=2).rate_constant) is float
        with pytest.raises(OverflowError):
            Reaction(reactants=[1, 0], products=[0, 1], rate_constant=10 ** 400)

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
    @pytest.mark.filterwarnings("error")  # simulate raises; numpy need not warn
    def test_overflowing_rates_raise_non_finite_state(self):
        """Rates overflow to inf at the first kernel call: a typed error
        before any step, not the isobaric ValueError."""
        rx = ReactionNetwork(reactions=(Reaction(
            reactants=[2, 0], products=[0, 2], rate_constant=1e303),))
        with pytest.raises(NonFiniteState, match=re.escape(
                "reaction rate f[0,0] = -inf (overflow or an invalid operation)")):
            simulate(_binary_step_field(ncells=8, c_tot=1000.0), BINARY,
                     reactions=rx, config=SimConfig(t_end=0.01))

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

    @pytest.mark.parametrize("amat", [None, [[0.0, 0.3, -0.4], [0.3, 0.0, 0.2],
                                             [-0.4, 0.2, 0.0]]])
    def test_checkpoint_entropy_is_gibbs_density(self, amat):
        """Checkpoint V is h sum c mu from the kernel's mu; it is the
        reference G(c) of the tests, written from the ideal and Margules
        formulas, at the checkpoint's c to 1e-14, on ideal and Margules
        thermo, with one species absent from one cell at t = 0."""
        spec = MixtureSpec(names=("A", "B", "C"), dmat=[[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        model = IDEAL if amat is None else ThermoModel.margules(amat)
        c = np.random.default_rng(41).dirichlet(np.ones(3), size=8)
        c[3] = [0.6, 0.0, 0.4]
        grid = Grid1D(ncells=8, length=1.0)
        traj = simulate(Field(c=c, grid=grid), spec, model,
                        config=SimConfig(t_end=1e-2, checkpoint_interval=2.5e-3))
        assert len(traj.checkpoints) == 5 and traj.checkpoints[0].c[3, 1] == 0.0
        for cp in traj.checkpoints:
            assert cp.entropy == pytest.approx(gibbs_density(model, cp.c) * grid.h, rel=1e-14)

    def test_checkpoints_keep_read_only_states_and_build_no_field(self, monkeypatch):
        fld = _binary_step_field(ncells=10)

        def no_field(self):
            raise AssertionError("simulate re-validated a state as a Field")
        monkeypatch.setattr(Field, "__post_init__", no_field)
        traj = simulate(fld, BINARY, config=SimConfig(t_end=0.01, checkpoint_interval=0.004))
        np.testing.assert_allclose(traj.times, [0, 0.004, 0.008, 0.01], atol=1e-15)
        assert len({id(cp.c) for cp in traj.checkpoints}) == 4
        for cp in traj.checkpoints:
            assert not cp.c.flags.writeable
            np.testing.assert_array_equal(cp.masses, cp.c.sum(axis=0) * fld.grid.h)

    def test_step_loop_reaches_no_input_check(self, monkeypatch):
        """The kernel steps arrays it has checked: a run never reaches the
        composition conversion of the public functions."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the step loop reached a public input check")
        for module in (msdiff.thermo, msdiff.mskernel, msdiff.verify):
            monkeypatch.setattr(module, "_as_x", forbidden)
        resolved = []  # the model is resolved once, at the kernel's set-up
        checked = ThermoModel.interactions
        monkeypatch.setattr(ThermoModel, "interactions",
                            lambda self, n: resolved.append(n) or checked(self, n))
        spec = MixtureSpec(names=("A", "B", "C"), dmat=[[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        model = ThermoModel.margules(0.5 * (np.ones((3, 3)) - np.eye(3)))
        c = np.tile([0.2, 0.3, 0.5], (8, 1))
        c[:4] = [0.6, 0.4, 0.0]  # an exact zero goes through the floor
        traj = simulate(Field(c=c, grid=Grid1D(ncells=8, length=1.0)), spec, model,
                        ReactionNetwork(reactions=(Reaction([1, 0, 0], [0, 1, 0], 1.0),)),
                        SimConfig(t_end=1e-2, checkpoint_interval=5e-3))
        assert len(traj.checkpoints) == 3
        assert resolved == [3]
        with pytest.raises(AssertionError, match="public input check"):
            driving_force(model, c[4], np.zeros(3))  # the spies are in place

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

    def test_clock_tolerance_follows_the_span(self):
        # a run of span 1 from t = 1e13 once ended before its first step:
        # its clock tolerance was 1e-12 t_end = 10, not 1e-12 of the span
        fld = _binary_step_field(ncells=10)
        late = Field(c=fld.c, grid=fld.grid, time=1e13)
        traj = simulate(late, BINARY, config=SimConfig(t_end=1e13 + 1))
        assert traj.times[0] == 1e13 and traj.times[-1] == 1e13 + 1
        assert np.abs(traj.final().c - fld.c).max() > 0.01

    def test_step_that_cannot_advance_the_clock_fails_at_once(self):
        # at 100 cells dt ~ 2e-5 is below half the float spacing at 1e13
        # (~2e-3), so t + dt == t and no number of steps reaches t_end
        fld = _binary_step_field(ncells=100)
        late = Field(c=fld.c, grid=fld.grid, time=1e13)
        with pytest.raises(MaxStepsExceeded, match=r"^dt = [0-9.e+-]+ does not advance "
                                                   r"t = 10000000000000\.0, "):
            simulate(late, BINARY, config=SimConfig(t_end=1e13 + 1, max_steps=1000))

    def test_max_steps_guard(self):
        fld = _binary_step_field(ncells=40)
        cfg = SimConfig(t_end=1.0, max_steps=3)
        with pytest.raises(MaxStepsExceeded):
            simulate(fld, BINARY, config=cfg)

    def test_step_limit_reached_in_the_loop(self):
        # one checkpoint interval, but the dt bound needs thousands of steps
        fld = _binary_step_field(ncells=40)
        cfg = SimConfig(t_end=1.0, checkpoint_interval=1.0, max_steps=3)
        with pytest.raises(MaxStepsExceeded, match="^4 steps at t = "):
            simulate(fld, BINARY, config=cfg)

    @pytest.mark.parametrize("max_steps, interval", [(8, 0.01), (10 ** 5, 1e-300),
                                                     (10 ** 7, 1e-300)])
    def test_unreachable_checkpoints_fail_before_the_first_step(self, monkeypatch,
                                                                 max_steps, interval):
        # dt stops at every checkpoint: t_end / interval steps at least
        def no_step(*args):
            raise AssertionError("stepped")
        monkeypatch.setattr(msdiff.solver, "_advance", no_step)
        cfg = SimConfig(t_end=0.1, checkpoint_interval=interval, max_steps=max_steps)
        with pytest.raises(MaxStepsExceeded, match=f"more than max_steps = {max_steps} "):
            simulate(_binary_step_field(ncells=2), BINARY, config=cfg)

    @pytest.mark.parametrize("max_steps", [10, 10 ** 400])
    def test_checkpoint_limited_run_ends_at_max_steps(self, max_steps):
        # two cells: the dt bound (0.05) exceeds the interval, so each of the
        # 10 intervals takes one step, and max_steps = 10 is enough
        cfg = SimConfig(t_end=0.1, checkpoint_interval=0.01, max_steps=max_steps)
        traj = simulate(_binary_step_field(ncells=2), BINARY, config=cfg)
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 0.1, 11), atol=1e-15)

    @pytest.mark.parametrize("time", [2.0, 1.0 + 1e-9])
    def test_t_end_before_initial_time_rejected(self, time):
        fld = _binary_step_field(ncells=10)
        later = Field(c=fld.c, grid=fld.grid, time=time)
        with pytest.raises(ValueError, match="precedes the initial time"):
            simulate(later, BINARY, config=SimConfig(t_end=1.0))

    def test_t_end_at_initial_time_is_one_checkpoint(self):
        # the default interval is then zero, and the step-count check must
        # not divide by it
        fld = _binary_step_field(ncells=10)
        later = Field(c=fld.c, grid=fld.grid, time=1.0)
        assert simulate(later, BINARY, config=SimConfig(t_end=1.0)).times.tolist() == [1.0]
        cfg = SimConfig(t_end=1.0, checkpoint_interval=0.1)
        assert simulate(later, BINARY, config=cfg).times.tolist() == [1.0]

    def test_default_interval_is_a_share_of_the_span(self):
        # from t = 0.5 the default interval is (0.55 - 0.5) / 50, not 0.55 / 50
        fld = _binary_step_field(ncells=10)
        later = Field(c=fld.c, grid=fld.grid, time=0.5)
        times = simulate(later, BINARY, config=SimConfig(t_end=0.55)).times
        np.testing.assert_allclose(times, np.linspace(0.5, 0.55, 51), rtol=1e-12)

    def test_a_default_interval_that_underflows_fails_closed(self):
        # span / 50 rounds to zero: the run cannot reach its first checkpoint
        fld = _binary_step_field(ncells=10)
        with pytest.raises(MaxStepsExceeded, match=r"^dt = 0\.0 does not advance t = 0\.0"):
            simulate(fld, BINARY, config=SimConfig(t_end=1e-322))

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("thermo", ["ideal", "margules"])
    def test_one_spectrum_per_dt_bound(self, monkeypatch, n, thermo):
        # 20 steps of one interval each: the bound is taken before the first
        # step and every DT_REFRESH_STEPS steps, with one spectrum each time
        # at every n, and no spectrum is taken after the last step
        rng = np.random.default_rng(940 + 10 * n + (thermo == "margules"))
        spec, fld = _random_state(rng, n, ncells=10)
        model = IDEAL
        if thermo == "margules":
            a = np.triu(rng.uniform(-0.15, 0.15, size=(n, n)), 1)
            model = ThermoModel.margules(a + a.T)
        calls = []
        eigenvalues, dt_bound = msdiff.solver._operator_eigenvalues, _Kernel.dt_bound
        monkeypatch.setattr(msdiff.solver, "_operator_eigenvalues",
                            lambda *a: calls.append("spectrum") or eigenvalues(*a))
        monkeypatch.setattr(_Kernel, "dt_bound",
                            lambda self, st: calls.append("bound") or dt_bound(self, st))
        cfg = SimConfig(t_end=2e-3, checkpoint_interval=1e-4)
        traj = simulate(fld, spec, model, config=cfg)
        assert len(traj.checkpoints) == 21
        assert calls == ["bound", "spectrum"] * -(-20 // DT_REFRESH_STEPS)

    @pytest.mark.parametrize("cfl", [pytest.param(1.0, marks=pytest.mark.xfail(
        strict=True, raises=PositivityViolation,
        reason="dt is refreshed every DT_REFRESH_STEPS steps and goes stale while "
               "lambda_max rises")), 0.4])
    def test_positivity_while_lambda_max_rises_between_refreshes(self, cfl):
        """A reaction A <-> B drives x_A from 0.97 toward 0.5, where the binary
        Margules G = 1 + 6 x_A x_B (a = -3) is largest, so lambda_max rises
        between two dt refreshes.  At cfl_safety = 1 a dt taken before the
        rise breaks positivity at t = 0.006; at 0.4 the run reaches t_end."""
        spec = MixtureSpec(names=("A", "B"), dmat=[[0.0, 1.0], [1.0, 0.0]])
        model = ThermoModel.margules([[0.0, -3.0], [-3.0, 0.0]])
        xa = 0.97 + 0.01 * np.random.default_rng(0).standard_normal(20)
        fld = Field(c=np.stack([xa, 1.0 - xa], axis=1), grid=Grid1D(ncells=20, length=1.0))
        net = ReactionNetwork(reactions=(Reaction([1, 0], [0, 1], 100.0),
                                         Reaction([0, 1], [1, 0], 100.0)))
        traj = simulate(fld, spec, model, net, config=SimConfig(t_end=0.05, cfl_safety=cfl))
        assert traj.final().time == 0.05

    def test_positivity_preserved_on_random_quaternary(self):
        rng = np.random.default_rng(97)
        spec = _random_mixture(rng, 4)
        grid = Grid1D(ncells=16, length=1.0)
        x = rng.dirichlet(np.ones(4), size=16)
        x = 0.9 * x + 0.1 / 4  # keep away from the boundary
        fld = Field(c=x, grid=grid)
        traj = simulate(fld, spec, config=SimConfig(t_end=0.05))
        assert traj.final().min_concentration >= 0.0

    @pytest.mark.parametrize("entry", [
        lambda fld, spec: simulate(fld, spec, config=SimConfig(t_end=0.01)),
        lambda fld, spec: face_fluxes(fld, spec),
        lambda fld, spec: stable_dt(fld, spec),
    ], ids=["simulate", "face_fluxes", "stable_dt"])
    def test_species_count_mismatch_rejected_at_entry(self, entry):
        spec = _random_mixture(np.random.default_rng(5), 3)
        with pytest.raises(ValueError, match="3 species"):
            entry(_binary_step_field(ncells=8), spec)

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
    st = _Kernel(spec, model, fld)(fld.c)

    c = fld.c
    x = c / c.sum(axis=1, keepdims=True)
    h = fld.grid.h
    mu = mu_reference(model, x)
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
