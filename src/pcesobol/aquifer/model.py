"""Cross-section geometry, petrofacies maps and the 78-entry parameter vector.

The model is a stack of horizontal homogeneous layers on a regular
cell-centered grid.  Each layer carries five uncertain properties
(porosity via the petrofacies map, conductivity anisotropy, tensor
orientation, longitudinal dispersivity, dispersivity anisotropy); three
boundary hydraulic gradients complete the parameter vector.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import yaml

from ..probability import Marginal, RandomVector

# (short name, yaml key) of the per-layer uncertain properties, in the
# order they appear inside each layer's block of the parameter vector
LAYER_PROPERTIES = (
    ("phi", None),
    ("AK", "anisotropy_k"),
    ("theta", "euler_angle"),
    ("aL", "dispersivity_l"),
    ("Aa", "anisotropy_a"),
)


@dataclass(frozen=True)
class Layer:
    """One homogeneous layer with its petrofacies anchors."""

    name: str
    top: float
    bottom: float
    phi_nominal: float
    kx_nominal: float
    phi_range: tuple
    kx_range: tuple

    def __post_init__(self):
        if not self.bottom < self.top:
            raise ValueError(f"layer {self.name}: bottom must lie below top")
        lo, hi = self.phi_range
        if not (0 < lo < hi):
            raise ValueError(f"layer {self.name}: bad porosity range")
        if not (lo <= self.phi_nominal <= hi):
            raise ValueError(f"layer {self.name}: nominal porosity outside range")
        klo, khi = self.kx_range
        if not (0 < klo <= self.kx_nominal <= khi):
            raise ValueError(f"layer {self.name}: conductivity anchors not monotone")

    def kx_from_phi(self, phi):
        """Longitudinal conductivity from porosity.

        Piecewise log-linear through the three anchors
        (phi_min, Kx_min), (phi_nominal, Kx_nominal), (phi_max, Kx_max),
        so halfway between anchors the conductivity is the geometric mean
        of the bracketing values.
        """
        phi = np.asarray(phi, dtype=float)
        lo, hi = self.phi_range
        if np.any((phi < lo) | (phi > hi)):
            raise ValueError(
                f"layer {self.name}: porosity outside [{lo}, {hi}]"
            )
        xs = np.array([lo, self.phi_nominal, hi])
        ys = np.log10([self.kx_range[0], self.kx_nominal, self.kx_range[1]])
        return 10.0 ** np.interp(phi, xs, ys)


@dataclass(frozen=True)
class BoundarySegment:
    """A prescribed-head segment on one side of the domain."""

    name: str
    side: str          # left | right | top | bottom
    span: tuple        # z-range for side segments, x-range for top/bottom
    zone: int
    group: str

    def __post_init__(self):
        if self.side not in ("left", "right", "top", "bottom"):
            raise ValueError(f"unknown boundary side {self.side!r}")


@dataclass(frozen=True, eq=False)
class CrossSectionModel:
    """Geometry, grid, anchors and boundary conditions of the cross-section.

    Instances hash by identity so solver-side geometry caches can key on
    the model object.
    """

    length: float
    height: float
    dx: float
    dz: float
    layers: tuple
    segments: tuple
    zones: dict            # zone id -> {mean_head, gradient nominal, range}
    property_ranges: dict  # property key -> {nominal, range}
    tz_x: tuple
    tz_z: tuple
    d_m: float
    seconds_per_year: float = 3.15576e7

    def __post_init__(self):
        tops = [lay.top for lay in self.layers]
        bottoms = [lay.bottom for lay in self.layers]
        if tops[0] != self.height or bottoms[-1] != 0.0:
            raise ValueError("layer stack must span the full height")
        for upper, lower in zip(self.layers[:-1], self.layers[1:]):
            if upper.bottom != lower.top:
                raise ValueError(
                    f"layers {upper.name}/{lower.name} do not tile the height"
                )
        c2 = self.layer_named("C2", required=False)
        if c2 is not None:
            if not (c2.bottom <= self.tz_z[0] and self.tz_z[1] <= c2.top):
                raise ValueError("target zone must lie inside layer C2")
        if not self.tz_mask().any():
            raise ValueError(
                f"target zone x={self.tz_x}, z={self.tz_z} contains no cell centre"
            )

    # -- grid ---------------------------------------------------------------

    @property
    def nx(self) -> int:
        return int(round(self.length / self.dx))

    @property
    def nz(self) -> int:
        return int(round(self.height / self.dz))

    def x_centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    def z_centers(self) -> np.ndarray:
        return (np.arange(self.nz) + 0.5) * self.dz

    def layer_index_by_row(self) -> np.ndarray:
        """Layer index (into self.layers) of each grid row, bottom row first."""
        z = self.z_centers()
        idx = np.full(self.nz, -1, dtype=int)
        for k, lay in enumerate(self.layers):
            sel = (z > lay.bottom) & (z < lay.top)
            idx[sel] = k
        if np.any(idx < 0):
            raise ValueError("grid rows must fall wholly inside layers")
        return idx

    def layer_named(self, name: str, required: bool = True):
        for lay in self.layers:
            if lay.name == name:
                return lay
        if required:
            raise KeyError(f"no layer named {name!r}")
        return None

    def tz_mask(self) -> np.ndarray:
        """Boolean (nz, nx) mask of cells whose centers lie in the target zone."""
        x = self.x_centers()
        z = self.z_centers()
        in_x = (x >= self.tz_x[0]) & (x <= self.tz_x[1])
        in_z = (z >= self.tz_z[0]) & (z <= self.tz_z[1])
        return np.outer(in_z, in_x)

    def refined(self, factor: int = 2) -> "CrossSectionModel":
        """Same model on a grid refined by an integer factor."""
        return CrossSectionModel(
            self.length, self.height, self.dx / factor, self.dz / factor,
            self.layers, self.segments, self.zones, self.property_ranges,
            self.tz_x, self.tz_z, self.d_m, self.seconds_per_year,
        )

    def segment_heads(
        self, segment: BoundarySegment, coords, gradient=None
    ) -> np.ndarray:
        """Prescribed head along a segment at face-center coordinates.

        Side segments carry the zone's mean head offset by +/- g*L/2; the
        top segment is linear in x about the mean head.  ``gradient``
        defaults to the zone's nominal one; rescaling it never changes the
        segment's mean head.
        """
        zone = self.zones[segment.zone]
        mean = zone["mean_head"]
        if gradient is None:
            gradient = zone["gradient"]["nominal"]
        coords = np.asarray(coords, dtype=float)
        half = gradient * self.length / 2.0
        if segment.side == "right":
            return np.full_like(coords, mean + half)
        if segment.side == "left":
            return np.full_like(coords, mean - half)
        return mean + gradient * (coords - self.length / 2.0)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "CrossSectionModel":
        layers = tuple(
            Layer(
                name=str(entry["name"]),
                top=float(entry["top"]),
                bottom=float(entry["bottom"]),
                phi_nominal=float(entry["phi_nominal"]),
                kx_nominal=float(entry["kx_nominal"]),
                phi_range=tuple(map(float, entry["phi_range"])),
                kx_range=tuple(map(float, entry["kx_range"])),
            )
            for entry in data["layers"]
        )
        segments = tuple(
            BoundarySegment(
                name=str(entry["name"]),
                side=str(entry["side"]),
                span=tuple(map(float, entry["span"])),
                zone=int(entry["zone"]),
                group=str(entry["group"]),
            )
            for entry in data.get("boundary_conditions", [])
        )
        zones = {
            int(k): {
                "label": v.get("label", str(k)),
                "mean_head": float(v["mean_head"]),
                "gradient": {
                    "nominal": float(v["gradient"]["nominal"]),
                    "range": tuple(map(float, v["gradient"]["range"])),
                },
            }
            for k, v in data.get("zones", {}).items()
        }
        ranges = {
            k: {
                "nominal": float(v["nominal"]),
                "range": tuple(map(float, v["range"])),
            }
            for k, v in data.get("layer_property_ranges", {}).items()
        }
        return cls(
            length=float(data["domain"]["length"]),
            height=float(data["domain"]["height"]),
            dx=float(data["grid"]["dx"]),
            dz=float(data["grid"]["dz"]),
            layers=layers,
            segments=segments,
            zones=zones,
            property_ranges=ranges,
            tz_x=tuple(map(float, data["target_zone"]["x"])),
            tz_z=tuple(map(float, data["target_zone"]["z"])),
            d_m=float(data["molecular_diffusion"]),
            seconds_per_year=float(data.get("seconds_per_year", 3.15576e7)),
        )


@lru_cache(maxsize=1)
def default_model() -> CrossSectionModel:
    """The bundled 15-layer cross-section at 100 m x 10 m resolution."""
    ref = importlib.resources.files("pcesobol.aquifer") / "cross_section.yaml"
    return CrossSectionModel.from_dict(yaml.safe_load(ref.read_text()))


# -- the 78-entry parameter vector -------------------------------------------


def parameter_names(model: CrossSectionModel) -> tuple:
    """Names of the full parameter vector: 5 per layer plus zone gradients."""
    names = []
    for lay in model.layers:
        for short, _ in LAYER_PROPERTIES:
            names.append(f"{short}:{lay.name}")
    for zone in sorted(model.zones):
        names.append(f"gradH:{zone}")
    return tuple(names)


def random_vector(model: CrossSectionModel) -> RandomVector:
    """Independent uniform marginals over the tabulated uncertainty ranges."""
    margs = []
    for lay in model.layers:
        for short, key in LAYER_PROPERTIES:
            if short == "phi":
                lo, hi = lay.phi_range
            else:
                lo, hi = model.property_ranges[key]["range"]
            margs.append(Marginal.uniform(lo, hi))
    for zone in sorted(model.zones):
        lo, hi = model.zones[zone]["gradient"]["range"]
        margs.append(Marginal.uniform(lo, hi))
    return RandomVector(parameter_names(model), tuple(margs))


def nominal_parameters(model: CrossSectionModel) -> np.ndarray:
    """The nominal parameter vector (anchor porosities, default properties)."""
    vals = []
    for lay in model.layers:
        for short, key in LAYER_PROPERTIES:
            if short == "phi":
                vals.append(lay.phi_nominal)
            else:
                vals.append(model.property_ranges[key]["nominal"])
    for zone in sorted(model.zones):
        vals.append(model.zones[zone]["gradient"]["nominal"])
    return np.array(vals)


@dataclass
class ModelParameters:
    """Per-layer property arrays plus zone gradients, ready for the solver."""

    phi: np.ndarray
    anisotropy_k: np.ndarray
    theta_deg: np.ndarray
    alpha_l: np.ndarray
    anisotropy_a: np.ndarray
    gradients: dict  # zone id -> hydraulic gradient

    @classmethod
    def from_vector(cls, model: CrossSectionModel, params) -> "ModelParameters":
        params = np.asarray(params, dtype=float).ravel()
        n_lay = len(model.layers)
        n_zone = len(model.zones)
        expected = n_lay * len(LAYER_PROPERTIES) + n_zone
        if params.size != expected:
            raise ValueError(
                f"parameter vector has {params.size} entries, expected {expected}"
            )
        block = params[: n_lay * len(LAYER_PROPERTIES)].reshape(
            n_lay, len(LAYER_PROPERTIES)
        )
        grads = dict(zip(sorted(model.zones), params[-n_zone:])) if n_zone else {}
        return cls(
            phi=block[:, 0].copy(),
            anisotropy_k=block[:, 1].copy(),
            theta_deg=block[:, 2].copy(),
            alpha_l=block[:, 3].copy(),
            anisotropy_a=block[:, 4].copy(),
            gradients=grads,
        )


def validate_parameters(model: CrossSectionModel, params) -> None:
    """Reject parameter vectors outside the tabulated uncertainty ranges."""
    rv = random_vector(model)
    ok = rv.in_support(np.atleast_2d(np.asarray(params, dtype=float)))
    if not bool(np.all(ok)):
        raise ValueError("parameter vector outside the uncertainty ranges")
