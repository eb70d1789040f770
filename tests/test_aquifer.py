import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from pcesobol import aquifer as aq, lhs
from pcesobol.aquifer import (
    BoundarySegment,
    CrossSectionModel,
    Layer,
    ModelParameters,
    solver,
)
from aquifer_reference import dispersion_tensor, rotate_tensor

SECONDS_PER_YEAR = 3.15576e7


def slab_model(
    nx=200,
    nz=4,
    length=1000.0,
    height=40.0,
    k=1e-5,
    phi=0.1,
    head_left=10.0,
    head_right=0.0,
    d_m=0.0,
    layers=None,
    segments=None,
    zones=None,
):
    """Single-layer (or custom) strip with fixed heads for 1-D oracles."""
    if layers is None:
        layers = (
            Layer(
                name="A",
                top=height,
                bottom=0.0,
                phi_nominal=phi,
                kx_nominal=k,
                phi_range=(0.999 * phi, 1.001 * phi),
                kx_range=(k, k),
            ),
        )
    mean = 0.5 * (head_left + head_right)
    gradient = (head_right - head_left) / length
    if zones is None:
        zones = {
            1: {
                "label": "ends",
                "mean_head": mean,
                "gradient": {"nominal": gradient, "range": (-1.0, 1.0)},
            }
        }
    if segments is None:
        segments = (
            BoundarySegment("left", "left", (0.0, height), 1, "left"),
            BoundarySegment("right", "right", (0.0, height), 1, "right"),
        )
    return CrossSectionModel(
        length=length,
        height=height,
        dx=length / nx,
        dz=height / nz,
        layers=layers,
        segments=segments,
        zones=zones,
        property_ranges={
            "anisotropy_k": {"nominal": 1.0, "range": (0.01, 1.0)},
            "euler_angle": {"nominal": 0.0, "range": (-30.0, 30.0)},
            "dispersivity_l": {"nominal": 1e-9, "range": (5.0, 25.0)},
            "anisotropy_a": {"nominal": 1.0, "range": (0.01, 1.0)},
        },
        tz_x=(0.4 * length, 0.6 * length),
        tz_z=(0.0, height),
        d_m=d_m,
    )


def plain_params(model, phi=0.1, alpha_l=0.0, alpha_a=1.0, a_k=1.0, theta=0.0):
    n = len(model.layers)
    return ModelParameters(
        phi=np.full(n, phi),
        anisotropy_k=np.full(n, a_k),
        theta_deg=np.full(n, theta),
        alpha_l=np.full(n, alpha_l),
        anisotropy_a=np.full(n, alpha_a),
        gradients={},
    )


class TestPetrofacies:
    def test_d4_anchor_values(self):
        d4 = aq.default_model().layer_named("D4")
        assert d4.kx_from_phi(0.0905) == pytest.approx(1.65e-5, rel=1e-12)
        assert d4.kx_from_phi(0.0237) == pytest.approx(1.6408e-7, rel=1e-12)
        assert d4.kx_from_phi(0.1573) == pytest.approx(3.1521e-3, rel=1e-12)

    def test_midpoint_is_geometric_mean(self):
        d4 = aq.default_model().layer_named("D4")
        mid = 0.5 * (0.0237 + 0.0905)
        expected = np.sqrt(1.6408e-7 * 1.65e-5)
        assert d4.kx_from_phi(mid) == pytest.approx(expected, rel=1e-12)

    def test_out_of_bounds_rejected(self):
        d4 = aq.default_model().layer_named("D4")
        with pytest.raises(ValueError):
            d4.kx_from_phi(0.01)

    def test_monotone_over_every_layer(self):
        for lay in aq.default_model().layers:
            phis = np.linspace(lay.phi_range[0], lay.phi_range[1], 41)
            ks = lay.kx_from_phi(phis)
            assert np.all(np.diff(ks) >= 0), lay.name


def cell_conductivity(kx, kz, theta):
    """The solver's per-cell conductivity tensors, shape (nz, nx, 2, 2), on a
    stack of one-row layers, grid row i carrying entry i of the given
    principal values and angles, and each row's kx as the solver reads it
    from the petrofacies map."""
    kx, kz, theta = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (kx, kz, theta))
    n = kx.size
    layers = tuple(  # listed top first; grid rows count from the bottom
        Layer(f"L{i}", float(i + 1), float(i), 0.1, k, (0.0999, 0.1001), (k, k))
        for i, k in reversed(list(enumerate(kx)))
    )
    model = slab_model(nx=3, nz=n, length=3.0, height=float(n), layers=layers)
    params = plain_params(model)
    params.anisotropy_k = (kz / kx)[::-1]
    params.theta_deg = theta[::-1]
    kxx, kzz, kxz = solver._conductivity(model, params)
    kx_used = np.array([lay.kx_from_phi(0.1) for lay in reversed(layers)])
    cells = np.stack([np.stack([kxx, kxz], -1), np.stack([kxz, kzz], -1)], -1)
    return cells, kx_used


def assert_cells_match_rotation(kx, kz, theta):
    cells, kx_used = cell_conductivity(kx, kz, theta)
    a_k, theta = (np.broadcast_to(v, kx_used.shape) for v in (np.divide(kz, kx), theta))
    for row, (k, a, t) in enumerate(zip(kx_used, a_k, theta)):
        oracle = rotate_tensor(k, k * a, t)
        assert np.allclose(cells[row], oracle, rtol=1e-14, atol=0.0)
    return cells


class TestRotateTensor:
    """The solver's per-cell conductivity tensors against ``rotate_tensor``."""

    def test_zero_angle(self):
        assert np.allclose(rotate_tensor(2.0, 0.5, 0.0), np.diag([2.0, 0.5]))
        cells = assert_cells_match_rotation(2.0, 0.5, 0.0)
        assert np.allclose(cells, np.diag([2.0, 0.5]))

    def test_ninety_degrees_swaps(self):
        assert np.allclose(
            rotate_tensor(2.0, 0.5, 90.0), np.diag([0.5, 2.0]), atol=1e-12
        )
        cells = assert_cells_match_rotation(2.0, 0.5, 90.0)
        assert np.allclose(cells, np.diag([0.5, 2.0]), atol=1e-12)

    def test_thirty_degree_xx_component(self):
        k = rotate_tensor(1.0, 0.1, 30.0)
        assert k[0, 0] == pytest.approx(0.775)
        assert k[0, 1] == pytest.approx(k[1, 0])
        cells = assert_cells_match_rotation(1.0, 0.1, 30.0)
        assert np.allclose(cells[..., 0, 0], 0.775)
        assert np.array_equal(cells[..., 0, 1], cells[..., 1, 0])

    def test_eigenvalues_and_determinant_preserved(self):
        rng = np.random.default_rng(4)
        draws = [(*rng.uniform(0.1, 5.0, 2), rng.uniform(-90, 90)) for _ in range(20)]
        for a, b, t in draws:
            k = rotate_tensor(a, b, t)
            eig = np.sort(np.linalg.eigvalsh(k))
            assert np.allclose(eig, np.sort([a, b]))
            assert np.linalg.det(k) == pytest.approx(a * b)
        kx, kz, theta = np.array(draws).T
        cells = assert_cells_match_rotation(kx, kz, theta)
        for row, (a, b) in enumerate(zip(kx, kz)):
            for cell in cells[row]:
                assert np.allclose(np.sort(np.linalg.eigvalsh(cell)), np.sort([a, b]))
                assert np.linalg.det(cell) == pytest.approx(a * b)


def cell_dispersion(qx, qz, phi, alpha_l, alpha_t, d_m):
    """The solver's per-cell dispersion tensors, shape (nz, nx, 2, 2), for
    cell flux densities ``qx``, ``qz`` of shape (4, 5)."""
    model = slab_model(nx=5, nz=4, length=5.0, height=4.0, d_m=d_m)
    params = plain_params(model, phi=phi, alpha_l=alpha_l, alpha_a=alpha_t / alpha_l)
    dxx, dzz, dxz = solver._dispersion(model, params, qx, qz)
    return np.stack([np.stack([dxx, dxz], -1), np.stack([dxz, dzz], -1)], -1)


def assert_cells_match_dispersion(qx, qz, phi, alpha_l, alpha_t, d_m):
    qx, qz = np.broadcast_to(qx, (4, 5)), np.broadcast_to(qz, (4, 5))
    cells = cell_dispersion(qx, qz, phi, alpha_l, alpha_t, d_m)
    for i, j in np.ndindex(4, 5):
        oracle = dispersion_tensor((qx[i, j], qz[i, j]), phi, alpha_l, alpha_t, d_m)
        assert np.allclose(cells[i, j], oracle, rtol=1e-13, atol=0.0)
    return cells


class TestDispersionTensor:
    """The solver's per-cell dispersion tensors against ``dispersion_tensor``."""

    def test_zero_flux_reduces_to_molecular(self):
        out = dispersion_tensor(np.zeros(2), 0.2, 15.0, 1.5, 2.3e-9)
        assert np.allclose(out, 0.2 * 2.3e-9 * np.eye(2))
        cells = assert_cells_match_dispersion(0.0, 0.0, 0.2, 15.0, 1.5, 2.3e-9)
        assert np.allclose(cells, 0.2 * 2.3e-9 * np.eye(2), rtol=1e-14, atol=0.0)

    def test_axis_aligned_flux(self):
        out = dispersion_tensor(np.array([1.0, 0.0]), 0.2, 15.0, 1.5, 0.0)
        assert np.allclose(out, np.diag([15.0, 1.5]))
        cells = assert_cells_match_dispersion(1.0, 0.0, 0.2, 15.0, 1.5, 0.0)
        assert np.allclose(cells, np.diag([15.0, 1.5]))

    def test_eigenvalues_for_random_flux(self):
        rng = np.random.default_rng(5)
        phi, al, at, dm = 0.15, 12.0, 2.0, 2.3e-9
        for _ in range(20):
            q = rng.normal(size=2)
            out = dispersion_tensor(q, phi, al, at, dm)
            norm = np.hypot(*q)
            eig = np.sort(np.linalg.eigvalsh(out))
            expected = np.sort([al * norm + phi * dm, at * norm + phi * dm])
            assert np.allclose(eig, expected)
        qx, qz = rng.normal(size=(2, 4, 5))
        cells = assert_cells_match_dispersion(qx, qz, phi, al, at, dm)
        norm = np.hypot(qx, qz)
        for (i, j), cell in zip(np.ndindex(4, 5), cells.reshape(-1, 2, 2)):
            expected = [at * norm[i, j] + phi * dm, al * norm[i, j] + phi * dm]
            assert np.allclose(np.sort(np.linalg.eigvalsh(cell)), expected)


class TestFlowSolver:
    def test_homogeneous_slab_linear_head(self):
        model = slab_model()
        flow = aq.solve_flow(model, plain_params(model))
        x = model.x_centers()
        exact = 10.0 + (0.0 - 10.0) * x / model.length
        assert np.max(np.abs(flow.head - exact[None, :])) < 1e-10

    def test_two_layer_series_column_flux(self):
        # vertical flow through two stacked layers: series-resistor oracle
        k1, k2, d1, d2 = 2e-5, 5e-7, 30.0, 10.0
        h_top, h_bot = 8.0, 3.0
        layers = (
            Layer("up", d1 + d2, d1, 0.1, k2, (0.0999, 0.1001), (k2, k2)),
            Layer("low", d1, 0.0, 0.1, k1, (0.0999, 0.1001), (k1, k1)),
        )
        zones = {
            1: {"label": "t", "mean_head": h_top,
                "gradient": {"nominal": 0.0, "range": (-1.0, 1.0)}},
            2: {"label": "b", "mean_head": h_bot,
                "gradient": {"nominal": 0.0, "range": (-1.0, 1.0)}},
        }
        segments = (
            BoundarySegment("top", "top", (0.0, 100.0), 1, "top"),
            BoundarySegment("bottom", "bottom", (0.0, 100.0), 2, "bottom"),
        )
        model = slab_model(
            nx=5, nz=40, length=100.0, height=d1 + d2,
            layers=layers, segments=segments, zones=zones,
        )
        flow = aq.solve_flow(model, plain_params(model))
        q_exact = (h_top - h_bot) / (d1 / k1 + d2 / k2)
        interface_row = int(d1 / model.dz)
        q_num = -flow.flux_z[interface_row, :] / model.dx
        assert np.max(np.abs(q_num - q_exact)) < 1e-8 * q_exact

    def test_equal_heads_mean_zero_flow(self):
        model = slab_model(head_left=5.0, head_right=5.0)
        flow = aq.solve_flow(model, plain_params(model))
        assert np.max(np.abs(flow.flux_x)) < 1e-18
        assert np.max(np.abs(flow.flux_z)) < 1e-18
        budget = aq.outflow_budget(flow, model)
        assert budget.outflow_total < 1e-16

    def test_mass_balance_on_nominal_model(self):
        model = aq.default_model()
        mp = ModelParameters.from_vector(model, aq.nominal_parameters(model))
        flow = aq.solve_flow(model, mp)
        budget = aq.outflow_budget(flow, model)
        assert budget.imbalance < 1e-8
        assert sum(budget.fractions.values()) == pytest.approx(1.0, abs=1e-8)


class TestMleSolver:
    def test_plug_flow_travel_time(self):
        model = slab_model(nx=500, phi=0.25, head_left=10.0, head_right=0.0, d_m=0.0)
        params = plain_params(model, phi=0.25, alpha_l=0.0)
        flow = aq.solve_flow(model, params)
        mle = aq.solve_mle(model, flow, params)
        q = 1e-5 * 10.0 / model.length
        x = model.x_centers()
        exact = 0.25 * (model.length - x) / q / SECONDS_PER_YEAR
        sel = x < 0.8 * model.length
        rel = np.abs(mle.e_years[0, sel] - exact[sel]) / exact[sel]
        assert np.max(rel) < 0.01
        # the response is the unweighted mean over the target zone's cells
        in_tz = (x >= model.tz_x[0]) & (x <= model.tz_x[1])
        assert mle.response == pytest.approx(exact[in_tz].mean(), rel=0.01)

    def test_pure_diffusion_parabola(self):
        model = slab_model(nx=400, phi=0.3, head_left=5.0, head_right=5.0, d_m=2.3e-9)
        params = plain_params(model, phi=0.3, alpha_l=0.0)
        flow = aq.solve_flow(model, params)
        mle = aq.solve_mle(model, flow, params)
        x = model.x_centers()
        # -d/dx( (phi Dm) dE/dx ) = phi  =>  E = x (L - x) / (2 Dm)
        exact = x * (model.length - x) / (2.0 * 2.3e-9) / SECONDS_PER_YEAR
        rel = np.abs(mle.e_years[1] - exact) / exact.max()
        assert np.max(rel) < 0.01

    def test_target_zone_without_cell_centre_refused(self):
        # 200 x 4 cells of 5 m: x-centres at 2.5, 7.5, ..., none in [1, 2]
        model = slab_model()
        with pytest.raises(ValueError, match=r"target zone .* no cell centre"):
            dataclasses.replace(model, tz_x=(1.0, 2.0))

    def test_nominal_run_in_band(self):
        model = aq.default_model()
        mp = ModelParameters.from_vector(model, aq.nominal_parameters(model))
        flow = aq.solve_flow(model, mp)
        mle = aq.solve_mle(model, flow, mp)
        assert 40_000.0 <= mle.response <= 200_000.0
        # everywhere over the target zone, not just on average
        assert mle.e_years[model.tz_mask()].min() > 40_000.0
        assert np.all(mle.e_years >= 0.0)


class TestEvaluate:
    def test_deterministic(self):
        params = aq.nominal_parameters(aq.default_model())
        assert aq.evaluate(params) == aq.evaluate(params)

    def test_rejects_out_of_range(self):
        params = aq.nominal_parameters(aq.default_model())
        params[0] = 1.0  # porosity far above its table range
        with pytest.raises(ValueError):
            aq.evaluate(params)

    def test_monotone_in_d4_petrofacies(self):
        model = aq.default_model()
        names = aq.parameter_names(model)
        j = names.index("phi:D4")
        d4 = model.layer_named("D4")
        responses = []
        for phi in np.linspace(d4.phi_range[0], d4.phi_range[1], 4):
            params = aq.nominal_parameters(model)
            params[j] = phi
            responses.append(aq.evaluate(params, model))
        assert np.all(np.diff(responses) <= 1e-9 * np.abs(responses[:-1]))

    def test_grid_self_convergence(self):
        model = aq.default_model()
        params = aq.nominal_parameters(model)
        coarse = aq.evaluate(params, model)
        fine = aq.evaluate(params, model.refined(2))
        assert abs(fine - coarse) / coarse < 0.15


@pytest.fixture(scope="module")
def screening_solves():
    """Flow and lifetime solves of rows 0, 1 and 68 of the screening design,
    with the two-point operator each solve factored.  Row 68 takes the
    coupled fallback."""
    model = aq.default_model()
    points = lhs(500, aq.random_vector(model), 42).points
    operator, captured = solver._operator, []

    def capture(*args):
        parts = operator(*args)
        captured.append(parts[0])
        return parts

    solves = {}
    solver._operator = capture
    try:
        for row in (0, 1, 68):
            captured.clear()
            mp = ModelParameters.from_vector(model, points[row])
            flow = aq.solve_flow(model, mp)
            mle = aq.solve_mle(model, flow, mp)
            solves[row] = (flow, mle, list(captured))
    finally:
        solver._operator = operator
    return solves


class TestTwoPointOperator:
    """The properties that let the two-point operators be factored without
    pivoting: M-matrices, diagonally dominant by column."""

    @pytest.mark.parametrize("row", [0, 1, 68])
    @pytest.mark.parametrize("solve", [0, 1], ids=["flow", "lifetime"])
    def test_m_matrix_dominant_by_column(self, screening_solves, row, solve):
        a_main = screening_solves[row][2][solve].tocsc()
        diag = a_main.diagonal()
        off = (a_main - sp.diags(diag)).tocsc()
        assert np.all(diag > 0.0)
        assert np.all(off.data <= 0.0)
        col_off = np.asarray(abs(off).sum(axis=0)).ravel()
        assert np.all(diag - col_off >= -1e-12 * diag)

    def test_solves_record_iterations_and_fallback(self, screening_solves):
        for flow, mle, _ in screening_solves.values():
            assert flow.residual <= 1e-10 and mle.residual <= 1e-10
        flow, mle, _ = screening_solves[0]
        assert not flow.coupled_fallback and not mle.coupled_fallback
        assert flow.iterations > 0  # the rotated tensor needs corrections
        flow, mle, _ = screening_solves[68]
        assert flow.coupled_fallback or mle.coupled_fallback


class TestParameterPlumbing:
    def test_vector_layout(self):
        model = aq.default_model()
        names = aq.parameter_names(model)
        assert len(names) == 78
        assert names[0] == "phi:K3"
        assert names[4] == "Aa:K3"
        assert names[-3:] == ("gradH:1", "gradH:2", "gradH:3")

    def test_random_vector_matches_tables(self):
        model = aq.default_model()
        rv = aq.random_vector(model)
        assert rv.m == 78
        by_name = dict(zip(rv.names, rv.marginals))
        assert (by_name["phi:D4"].a, by_name["phi:D4"].b) == (0.0237, 0.1573)
        assert (by_name["AK:T"].a, by_name["AK:T"].b) == (0.01, 1.0)
        assert (by_name["theta:C2"].a, by_name["theta:C2"].b) == (-30.0, 30.0)
        assert (by_name["aL:L1a"].a, by_name["aL:L1a"].b) == (5.0, 25.0)
        assert (by_name["gradH:2"].a, by_name["gradH:2"].b) == (0.0024, 0.0036)

    def test_nominal_vector_in_support(self):
        model = aq.default_model()
        rv = aq.random_vector(model)
        assert bool(np.all(rv.in_support(aq.nominal_parameters(model))))

    def test_layers_tile_and_tz_inside_c2(self):
        model = aq.default_model()
        assert model.layers[0].top == model.height
        assert model.layers[-1].bottom == 0.0
        c2 = model.layer_named("C2")
        assert c2.bottom <= model.tz_z[0] and model.tz_z[1] <= c2.top

    def test_wrong_vector_size(self):
        model = aq.default_model()
        with pytest.raises(ValueError):
            ModelParameters.from_vector(model, np.zeros(10))

    @pytest.mark.parametrize("refine", [1, 2])
    def test_parameter_table_pinned(self, refine):
        """Names, marginals and nominal vector hash as they did before the
        vector's layout was read from one table."""
        model = aq.default_model()
        if refine > 1:
            model = model.refined(refine)
        rv = aq.random_vector(model)
        digest = hashlib.sha256()
        digest.update(repr(aq.parameter_names(model)).encode())
        digest.update(repr(rv.names).encode())
        for marg in rv.marginals:
            digest.update(f"{marg.kind} {marg.a.hex()} {marg.b.hex()};".encode())
        nominal = aq.nominal_parameters(model)
        assert nominal.dtype == np.float64
        digest.update(nominal.tobytes())
        assert digest.hexdigest() == (
            "4f2138511727550034dfaf0a377ea5537ae918ac59257959bf94948c7a8f25fc"
        )

    def test_from_vector_reads_each_property_where_it_is_tabulated(self):
        model = aq.default_model()
        mp = ModelParameters.from_vector(model, aq.nominal_parameters(model))
        assert np.array_equal(mp.phi, [lay.phi_nominal for lay in model.layers])
        for field, key in (("anisotropy_k", "anisotropy_k"),
                           ("theta_deg", "euler_angle"),
                           ("alpha_l", "dispersivity_l"),
                           ("anisotropy_a", "anisotropy_a")):
            values = getattr(mp, field)
            assert values.shape == (len(model.layers),)
            assert np.all(values == model.property_ranges[key]["nominal"]), field
        assert mp.gradients == {
            zone: spec["gradient"]["nominal"] for zone, spec in model.zones.items()
        }

    def test_validate_names_the_input_above_its_range(self):
        model = aq.default_model()
        params = aq.nominal_parameters(model)
        j = aq.parameter_names(model).index("aL:C2")
        upper = aq.random_vector(model).marginals[j].b
        params[j] = np.nextafter(upper, np.inf)
        with pytest.raises(ValueError, match=r"aL:C2 = 25\.000000000000004 .*\[5\.0, 25\.0\]"):
            aq.validate_parameters(model, params)
        params[j] = upper
        aq.validate_parameters(model, params)

    def test_validate_rejects_nan_and_wrong_size(self):
        model = aq.default_model()
        params = aq.nominal_parameters(model)
        params[-1] = np.nan
        with pytest.raises(ValueError, match="gradH:3 = nan"):
            aq.validate_parameters(model, params)
        with pytest.raises(ValueError, match="77 entries, expected 78"):
            aq.validate_parameters(model, aq.nominal_parameters(model)[:-1])

    def test_nominal_boundary_heads_match_tables(self):
        model = aq.default_model()
        by_name = {s.name: s for s in model.segments}
        z = np.array([600.0])
        assert model.segment_heads(by_name["right-oxfordian"], z)[0] == 305.0
        assert model.segment_heads(by_name["left-oxfordian"], z)[0] == 230.0
        assert model.segment_heads(by_name["right-dogger"], z)[0] == 295.0
        assert model.segment_heads(by_name["left-dogger"], z)[0] == 275.0
        top = by_name["top"]
        xs = np.array([0.0, 25000.0])
        assert np.allclose(model.segment_heads(top, xs), [225.0, 310.0])
