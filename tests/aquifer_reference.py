"""Scalar reference forms of the aquifer solver's per-cell tensors.

The solver builds its conductivity and dispersion tensors vectorized over
the grid (``solver._conductivity``, ``solver._dispersion``); these
one-tensor-at-a-time forms are the oracles the tests check them against.
"""

import numpy as np


def rotate_tensor(kx: float, kz: float, theta_deg: float) -> np.ndarray:
    """Conductivity tensor in global coordinates, R^T diag(kx, kz) R."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    kxx = c * c * kx + s * s * kz
    kzz = s * s * kx + c * c * kz
    kxz = c * s * (kx - kz)
    return np.array([[kxx, kxz], [kxz, kzz]])


def dispersion_tensor(q, phi, alpha_l, alpha_t, d_m) -> np.ndarray:
    """Effective macro-dispersion tensor for one flux vector.

    Returns the porosity-dispersion product
    ``(alpha_l - alpha_t) q (x) q / |q| + alpha_t |q| I + phi d_m I``;
    at q = 0 this reduces to the molecular part ``phi d_m I``.
    """
    q = np.asarray(q, dtype=float)
    out = phi * d_m * np.eye(2)
    norm = float(np.hypot(q[0], q[1]))
    if norm > 0.0:
        out += (alpha_l - alpha_t) * np.outer(q, q) / norm
        out += alpha_t * norm * np.eye(2)
    return out
