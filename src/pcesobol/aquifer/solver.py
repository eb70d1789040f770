"""Finite-volume flow and mean-lifetime-expectancy solvers.

Cell-centered two-point flux discretization on the regular grid, with
harmonic-mean face transmissivities for the diagonal tensor part.  The
rotation- and dispersion-induced off-diagonal terms are built as a
separate sparse correction operator (corner-interpolated tangential
gradients, sign-consistent minimum face coefficients) and handled by
deferred correction: Richardson iterations preconditioned with the
factorized two-point matrix, falling back to one direct solve of the
coupled operator if the iteration stalls.  Either way the returned field
satisfies the full discrete system to a relative residual of 1e-10, and
records how many corrections ran and whether the fallback fired.

The two-point operator is factored by SuperLU in symmetric mode: minimum
degree ordering on the pattern of A^T + A and no pivoting, which leaves
about 40% less fill than COLAMD with partial pivoting, so both the
factorization and each of the iteration's triangular solves are cheaper.
Skipping the pivots is safe because both two-point operators (flow is
the symmetric one) are M-matrices that are diagonally dominant by column:
in the column of each of its two cells, an interior face adds ``t + u`` to
the diagonal and ``-(t + u)`` to the other cell's row, where ``t >= 0`` is
the face transmissivity and ``u >= 0`` the upwinded rate out of the cell.
So every off-diagonal entry is nonpositive and every column sums to its
nonnegative boundary term.
The coupled operator has neither property (the cross terms carry either
sign), so its fallback factorization keeps COLAMD and partial pivoting.

Both solves share one assembly, ``_operator``: interior faces couple their
two cells by a diffusive transmissivity plus an upwinded advective rate
(zero for flow), prescribed-head boundary cells add a diagonal term, and
the off-diagonal tensor entry of each cell gives the correction operator.
The per-cell tensors come from ``_conductivity`` and ``_dispersion``.
What depends on the grid alone is computed once per model and cached in
``_Geometry``, including the boundary map: each prescribed-head segment's
boundary cells, face coordinates, half-cell geometry, and the slot and
outward sign of its boundary face flux.

The lifetime solver discretizes  div(q_r E) - div(D~ grad E) = phi  with
q_r the reversed Darcy flux and D~ the effective macro-dispersion tensor
(the porosity-diffusion product; at q = 0 it reduces to phi*D_m*I).
Advection is first-order upwind on the conservative face rates of the flow
solution, which keeps the scheme stable across the seven orders of
magnitude of conductivity contrast.  E = 0 is imposed on every
prescribed-head boundary segment; all other boundaries carry zero total
flux.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .model import (
    CrossSectionModel,
    ModelParameters,
    default_model,
    validate_parameters,
)

_REL_RESIDUAL = 1e-10
_MAX_DEFERRED = 40


class ConvergenceError(RuntimeError):
    """The linear solve did not reach the required residual."""


@dataclass
class FlowField:
    """Heads and conservative face fluxes of a steady flow solution.

    ``flux_x`` has shape (nz, nx+1) and ``flux_z`` (nz+1, nx); entries are
    volumetric rates per unit width (m^2/s), positive in +x / +z.  Rates on
    no-flow boundary faces are exactly zero.  ``residual``, ``iterations``
    and ``coupled_fallback`` describe the linear solve (see
    ``_solve_linear``).
    """

    head: np.ndarray
    flux_x: np.ndarray
    flux_z: np.ndarray
    residual: float
    iterations: int
    coupled_fallback: bool


@dataclass
class MleField:
    """Mean lifetime expectancy per cell (years) and the target-zone scalar,
    with the same linear-solve record as ``FlowField``."""

    e_years: np.ndarray
    response: float
    residual: float
    iterations: int
    coupled_fallback: bool


# -- geometry-only sparse operators, cached per model -------------------------

_GEOMETRY_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _incidence(m: int) -> sp.dia_matrix:
    """(m, m-1) cell-face incidence of a row of m cells: face j leaves cell j
    (+1) and enters cell j+1 (-1)."""
    return sp.diags([np.ones(m - 1), -np.ones(m - 1)], [0, -1], shape=(m, m - 1))


def _difference(m: int, step: float) -> sp.csr_matrix:
    """(m, m) cell-centred derivative along a row of m cells: central
    differences inside, one-sided at the two ends."""
    c = 1.0 / (2 * step)
    d = sp.diags([np.full(m - 1, -c), np.full(m - 1, c)], [-1, 1], format="lil")
    d[0, :2] = [-1.0 / step, 1.0 / step]
    d[m - 1, m - 2:] = [-1.0 / step, 1.0 / step]
    return d.tocsr()


class _Geometry:
    """Index bookkeeping, constant sparse operators and the boundary map
    for one grid."""

    def __init__(self, model: CrossSectionModel):
        nz, nx = model.nz, model.nx
        self.nz, self.nx = nz, nx
        self.n = nz * nx
        self.dx, self.dz = model.dx, model.dz
        idx = np.arange(self.n).reshape(nz, nx)
        self.idx = idx

        # interior faces: x-faces between (i,j) and (i,j+1), z-faces between
        # (i,j) and (i+1,j)
        self.xf_left = idx[:, :-1].ravel()
        self.xf_right = idx[:, 1:].ravel()
        self.zf_low = idx[:-1, :].ravel()
        self.zf_high = idx[1:, :].ravel()

        # divergence of face rates: + out of the low cell, - into the high one
        ix, iz = sp.identity(nx), sp.identity(nz)
        self.div_x = sp.kron(iz, _incidence(nx), format="csr")
        self.div_z = sp.kron(_incidence(nz), ix, format="csr")
        # tangential gradient at a face: mean of its two cells' gradients
        grad_z = sp.kron(_difference(nz, self.dz), ix, format="csr")
        grad_x = sp.kron(iz, _difference(nx, self.dx), format="csr")
        self.face_tang_x = (0.5 * abs(self.div_x).T).tocsr() @ grad_z  # d/dz at x-faces
        self.face_tang_z = (0.5 * abs(self.div_z).T).tocsr() @ grad_x  # d/dx at z-faces
        self._boundary_map(model)

    def _boundary_map(self, model: CrossSectionModel) -> None:
        """One entry per (prescribed-head segment, boundary cell), in segment
        order; ``segment_slices[k]`` selects segment k's entries.

        ``bnd_slot`` indexes the boundary face in the face-flux vector
        ``[flux_x.ravel(), flux_z.ravel()]`` and ``bnd_out`` is +1 where a
        positive rate there leaves the domain, -1 where it enters.  The
        half-cell transmissivity of an entry is the tensor's normal entry
        times ``bnd_length / bnd_half``, applied as two operations: one
        premultiplied factor would round differently.
        """
        nz, nx = self.nz, self.nx
        x, z = model.x_centers(), model.z_centers()
        n_fx = nz * (nx + 1)
        cells, coords, slots = [], [], []
        for segment in model.segments:
            lo, hi = segment.span
            if segment.side in ("left", "right"):
                rows = np.nonzero((z >= lo) & (z <= hi))[0]
                col = nx - 1 if segment.side == "right" else 0
                cells.append(self.idx[rows, col])
                coords.append(z[rows])
                slots.append(rows * (nx + 1) + (nx if segment.side == "right" else 0))
            else:
                cols = np.nonzero((x >= lo) & (x <= hi))[0]
                row = nz - 1 if segment.side == "top" else 0
                cells.append(self.idx[row, cols])
                coords.append(x[cols])
                slots.append(n_fx + (nz * nx if segment.side == "top" else 0) + cols)
        ends = list(accumulate((c.size for c in cells), initial=0))
        self.segment_slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        side = np.repeat([s.side for s in model.segments], np.diff(ends))
        self.bnd_cells = np.concatenate(cells)
        self.bnd_coords = np.concatenate(coords)
        self.bnd_slot = np.concatenate(slots)
        self.bnd_out = np.where((side == "right") | (side == "top"), 1.0, -1.0)
        self.bnd_normal_x = (side == "left") | (side == "right")
        self.bnd_length = np.where(self.bnd_normal_x, self.dz, self.dx)
        self.bnd_half = np.where(self.bnd_normal_x, self.dx / 2.0, self.dz / 2.0)

    def boundary_t(self, cxx, czz) -> np.ndarray:
        """Half-cell transmissivity of each boundary entry for a cell tensor
        with diagonal ``(cxx, czz)``."""
        cells = self.bnd_cells
        normal = np.where(self.bnd_normal_x, cxx.ravel()[cells], czz.ravel()[cells])
        return normal * self.bnd_length / self.bnd_half

    def boundary_outflow(self, flow: FlowField) -> np.ndarray:
        """Outward rate through each boundary entry's face."""
        faces = np.concatenate([flow.flux_x.ravel(), flow.flux_z.ravel()])
        return self.bnd_out * faces[self.bnd_slot]


def _geometry(model: CrossSectionModel) -> _Geometry:
    geo = _GEOMETRY_CACHE.get(model)
    if geo is None:
        geo = _Geometry(model)
        _GEOMETRY_CACHE[model] = geo
    return geo


def _harmonic(a, b):
    s = a + b
    return np.where(s > 0.0, 2.0 * a * b / np.where(s > 0.0, s, 1.0), 0.0)


def _cell_property(model, per_layer) -> np.ndarray:
    """One value per layer, broadcast to the (nz, nx) grid."""
    by_row = np.asarray(per_layer, dtype=float)[model.layer_index_by_row()]
    return by_row[:, None] * np.ones((1, model.nx))


def _conductivity(model: CrossSectionModel, params: ModelParameters):
    """Per-cell conductivity tensor ``(kxx, kzz, kxz)``, each (nz, nx).

    Each layer's principal values ``(kx, kz)`` come from its petrofacies map
    and anisotropy ratio; the tensor is ``R^T diag(kx, kz) R`` for the
    layer's Euler angle.
    """
    kx = np.array([lay.kx_from_phi(p) for lay, p in zip(model.layers, params.phi)])
    kz = kx * params.anisotropy_k
    t_rad = np.deg2rad(params.theta_deg)
    c2, s2 = np.cos(t_rad) ** 2, np.sin(t_rad) ** 2
    cs = np.cos(t_rad) * np.sin(t_rad)
    return (
        _cell_property(model, c2 * kx + s2 * kz),
        _cell_property(model, s2 * kx + c2 * kz),
        _cell_property(model, cs * (kx - kz)),
    )


def _dispersion(model: CrossSectionModel, params: ModelParameters, qx, qz):
    """Per-cell macro-dispersion tensor ``(dxx, dzz, dxz)`` for the cell
    flux densities ``(qx, qz)``, each (nz, nx).

    The porosity-dispersion product
    ``(alpha_l - alpha_t) q (x) q / |q| + alpha_t |q| I + phi d_m I``;
    at q = 0 this reduces to the molecular part ``phi d_m I``.
    """
    phi = _cell_property(model, params.phi)
    alpha_l = _cell_property(model, params.alpha_l)
    alpha_t = alpha_l * _cell_property(model, params.anisotropy_a)
    qn = np.hypot(qx, qz)
    safe = np.where(qn > 0.0, qn, 1.0)
    d_mol = phi * model.d_m
    dxx = (alpha_l - alpha_t) * qx * qx / safe + alpha_t * qn + d_mol
    dzz = (alpha_l - alpha_t) * qz * qz / safe + alpha_t * qn + d_mol
    dxz = (alpha_l - alpha_t) * qx * qz / safe
    return dxx, dzz, dxz


def _face_cross_coef(left, right):
    """Off-diagonal tensor coefficient at a face.

    Sign-consistent minimum magnitude of the two cell values: like the
    harmonic mean of the diagonal entries, a face into a medium with a
    vanishing coefficient transmits nothing.  Arithmetic averaging instead
    drives spurious cross fluxes (and lifetime undershoots) at sharp
    material interfaces.
    """
    same_sign = left * right > 0.0
    mag = np.minimum(np.abs(left), np.abs(right))
    return np.where(same_sign, np.sign(left) * mag, 0.0)


def _operator(geo: _Geometry, transmissivity, rate, bnd_diag, cross_field):
    """Assemble one solve's two-point operator and off-diagonal correction.

    ``transmissivity`` and ``rate`` are (x-faces, z-faces) pairs over the
    interior faces: the diffusive coupling, and the advective rate from the
    low to the high cell, upwinded (flow passes zero rates).  ``bnd_diag``
    is each boundary entry's diagonal term and ``cross_field`` the (nz, nx)
    off-diagonal tensor entry.  Returns ``(a_main, cross, cross_flux)``:
    ``cross`` is the correction operator and ``cross_flux`` the pair of
    operators giving its x- and z-face rates from a cell vector, both None
    when the field vanishes.
    """
    rows, cols, vals = [], [], []
    faces = ((geo.xf_left, geo.xf_right), (geo.zf_low, geo.zf_high))
    for (low, high), t, r in zip(faces, transmissivity, rate):
        up = np.clip(r, 0.0, None)      # from low to high
        down = np.clip(-r, 0.0, None)   # from high to low
        rows += [low, low, high, high]
        cols += [low, high, high, low]
        vals += [t + up, -(t + down), t + down, -(t + up)]
    rows.append(geo.bnd_cells)
    cols.append(geo.bnd_cells)
    vals.append(bnd_diag)
    a_main = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geo.n, geo.n),
    )
    if not np.any(cross_field != 0.0):
        return a_main, None, None
    # face rate of the off-diagonal term: -coef * tangential gradient * face length
    coef_x = _face_cross_coef(cross_field[:, :-1], cross_field[:, 1:]).ravel()
    coef_z = _face_cross_coef(cross_field[:-1, :], cross_field[1:, :]).ravel()
    flux_x = sp.diags(-coef_x * geo.dz) @ geo.face_tang_x
    flux_z = sp.diags(-coef_z * geo.dx) @ geo.face_tang_z
    cross = (geo.div_x @ flux_x + geo.div_z @ flux_z).tocsr()
    return a_main, cross, (flux_x, flux_z)


def _solve_linear(a_main, cross, b, context: str):
    """Deferred-correction solve of (a_main + cross) x = b.

    Richardson iterations preconditioned with the factorized two-point
    operator; one direct coupled solve as fallback.  Returns
    ``(x, residual, iterations, coupled_fallback)``, where ``iterations``
    counts the Richardson corrections applied.  Raises if even the fallback
    leaves a residual above tolerance.
    """
    lu = splu(
        a_main.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0, False
    x = lu.solve(b)
    if cross is None or cross.nnz == 0:
        resid = float(np.linalg.norm(b - a_main @ x)) / b_norm
        if not np.isfinite(resid) or resid > _REL_RESIDUAL:
            raise ConvergenceError(f"{context}: direct solve residual {resid:.2e}")
        return x, resid, 0, False

    full = (a_main + cross).tocsr()
    resid = first = np.inf
    for it in range(_MAX_DEFERRED):
        r = b - full @ x
        resid = float(np.linalg.norm(r)) / b_norm
        if resid <= _REL_RESIDUAL:
            return x, resid, it, False
        if it == 0:
            first = resid
        elif not np.isfinite(resid) or resid > 10.0 * first:
            break  # diverging: go straight to the coupled solve
        x = x + lu.solve(r)
    else:
        it = _MAX_DEFERRED  # every pass applied its correction
    # stalled: factor the coupled operator once
    x = splu(full.tocsc()).solve(b)
    resid = float(np.linalg.norm(b - full @ x)) / b_norm
    if not np.isfinite(resid) or resid > _REL_RESIDUAL:
        raise ConvergenceError(f"{context}: coupled solve residual {resid:.2e}")
    return x, resid, it, True


def solve_flow(model: CrossSectionModel, params: ModelParameters) -> FlowField:
    """Steady saturated flow under the prescribed-head boundary conditions.

    Zone gradients from ``params`` rescale the boundary heads about each
    segment's fixed mean head.
    """
    geo = _geometry(model)
    nz, nx, n = geo.nz, geo.nx, geo.n
    kxx, kzz, kxz = _conductivity(model, params)

    # two-point transmissivities
    tx = _harmonic(kxx[:, :-1], kxx[:, 1:]).ravel() * geo.dz / geo.dx
    tz = _harmonic(kzz[:-1, :], kzz[1:, :]).ravel() * geo.dx / geo.dz
    if np.any(tx < 0.0) or np.any(tz < 0.0) or np.any(kxx <= 0) or np.any(kzz <= 0):
        raise RuntimeError("non-SPD assembly: negative transmissivity")

    t_b = geo.boundary_t(kxx, kzz)
    heads = np.empty(geo.bnd_cells.size)
    for segment, sl in zip(model.segments, geo.segment_slices):
        heads[sl] = model.segment_heads(
            segment, geo.bnd_coords[sl], params.gradients.get(segment.zone)
        )
    b = np.zeros(n)
    np.add.at(b, geo.bnd_cells, t_b * heads)

    a_main, cross, cross_flux = _operator(geo, (tx, tz), (0.0, 0.0), t_b, kxz)
    if np.any(a_main.diagonal() <= 0.0):
        raise RuntimeError("non-SPD assembly: nonpositive diagonal")

    h_vec, resid, iterations, fallback = _solve_linear(a_main, cross, b, "flow")
    head = h_vec.reshape(nz, nx)

    # conservative face rates (m^2/s per unit width), + in +x / +z, laid
    # out as the face-flux vector the boundary map indexes
    n_fx = nz * (nx + 1)
    faces = np.zeros(n_fx + (nz + 1) * nx)
    flux_x = faces[:n_fx].reshape(nz, nx + 1)
    flux_z = faces[n_fx:].reshape(nz + 1, nx)
    flux_x[:, 1:-1] = (tx.reshape(nz, nx - 1)) * (head[:, :-1] - head[:, 1:])
    flux_z[1:-1, :] = (tz.reshape(nz - 1, nx)) * (head[:-1, :] - head[1:, :])
    if cross_flux is not None:
        flux_x[:, 1:-1] += (cross_flux[0] @ h_vec).reshape(nz, nx - 1)
        flux_z[1:-1, :] += (cross_flux[1] @ h_vec).reshape(nz - 1, nx)
    faces[geo.bnd_slot] = geo.bnd_out * (t_b * (h_vec[geo.bnd_cells] - heads))

    return FlowField(
        head=head,
        flux_x=flux_x,
        flux_z=flux_z,
        residual=resid,
        iterations=iterations,
        coupled_fallback=fallback,
    )


@dataclass
class OutflowBudget:
    """Boundary in/outflow totals and per-group outflow fractions."""

    fractions: dict
    outflow: dict
    inflow_total: float
    outflow_total: float
    imbalance: float


def outflow_budget(flow: FlowField, model: CrossSectionModel) -> OutflowBudget:
    """Integrate boundary fluxes per segment group.

    Fractions are shares of the total outflowing rate and sum to one; the
    imbalance is |total in - total out| relative to the total in.
    """
    geo = _geometry(model)
    signed_out = geo.boundary_outflow(flow)
    out_by_group: dict = {}
    total_in = total_out = 0.0
    for segment, sl in zip(model.segments, geo.segment_slices):
        out = float(np.sum(np.clip(signed_out[sl], 0.0, None)))
        inn = float(np.sum(np.clip(-signed_out[sl], 0.0, None)))
        out_by_group[segment.group] = out_by_group.get(segment.group, 0.0) + out
        total_out += out
        total_in += inn
    scale = max(total_in, total_out)
    imbalance = abs(total_in - total_out) / scale if scale > 0 else 0.0
    fractions = {
        g: (v / total_out if total_out > 0 else 0.0) for g, v in out_by_group.items()
    }
    return OutflowBudget(fractions, out_by_group, total_in, total_out, imbalance)


def solve_mle(
    model: CrossSectionModel, flow: FlowField, params: ModelParameters
) -> MleField:
    """Steady mean lifetime expectancy on a converged flow field.

    Solves ``div(q_r E) - div(D~ grad E) = phi`` with the reversed
    conservative face rates ``q_r`` and E = 0 on prescribed-head segments.
    The result is reported in years.
    """
    geo = _geometry(model)
    nz, nx = geo.nz, geo.nx

    # cell-centered flux densities from the conservative face rates
    qx = 0.5 * (flow.flux_x[:, :-1] + flow.flux_x[:, 1:]) / geo.dz
    qz = 0.5 * (flow.flux_z[:-1, :] + flow.flux_z[1:, :]) / geo.dx
    dxx, dzz, dxz = _dispersion(model, params, qx, qz)

    tdx = _harmonic(dxx[:, :-1], dxx[:, 1:]).ravel() * geo.dz / geo.dx
    tdz = _harmonic(dzz[:-1, :], dzz[1:, :]).ravel() * geo.dx / geo.dz
    # reversed advective rates on interior faces
    adv_x = -flow.flux_x[:, 1:-1].ravel()
    adv_z = -flow.flux_z[1:-1, :].ravel()
    # the reversed rate leaves where the flow enters
    bnd_diag = geo.boundary_t(dxx, dzz) + np.clip(
        -geo.boundary_outflow(flow), 0.0, None
    )
    a_main, cross, _ = _operator(geo, (tdx, tdz), (adv_x, adv_z), bnd_diag, dxz)

    phi = _cell_property(model, params.phi)
    b = (phi * geo.dx * geo.dz).ravel()
    e_vec, resid, iterations, fallback = _solve_linear(a_main, cross, b, "lifetime")

    e_max = float(np.max(e_vec))
    if float(np.min(e_vec)) < -1e-6 * max(e_max, 1.0):
        raise RuntimeError(
            "negative lifetime beyond tolerance: discretization violation"
        )
    e_years = np.clip(e_vec, 0.0, None).reshape(nz, nx) / model.seconds_per_year
    response = float(e_years[model.tz_mask()].mean())
    return MleField(
        e_years=e_years,
        response=response,
        residual=resid,
        iterations=iterations,
        coupled_fallback=fallback,
    )


def evaluate(params, model: CrossSectionModel | None = None) -> float:
    """Scalar target-zone lifetime (years) for one 78-entry parameter vector.

    Deterministic: identical parameters give the identical response for a
    fixed build configuration.
    """
    if model is None:
        model = default_model()
    validate_parameters(model, params)
    mp = ModelParameters.from_vector(model, params)
    flow = solve_flow(model, mp)
    mle = solve_mle(model, flow, mp)
    return mle.response


def write_fields(path, model: CrossSectionModel, flow: FlowField, mle: MleField):
    """Write the fields to CSV, one ``x,z,head,mle_years`` row per cell."""
    xx, zz = np.meshgrid(model.x_centers(), model.z_centers())
    columns = [xx.ravel(), zz.ravel(), flow.head.ravel(), mle.e_years.ravel()]
    with open(path, "w") as fh:
        fh.write("x,z,head,mle_years\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.10g", delimiter=",")
