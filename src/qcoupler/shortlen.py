"""Second-order short-length solution.

The propagator is expanded as I + iMz - M^2 z^2 / 2.  The state that
``build_input_state`` makes, of any input kind, is moved with the
formula of ``evolve_state``, each product taken on the degree-2 rows
F = [U V] and truncated at z^2, so the means and moments are exact
polynomials in z: G = F S^T, M = F G^T, N = conj(G J) F^T and
xi = F (xi; xi*), with S the input's antinormal covariance with its
column halves exchanged and G J the exchange of G's halves.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError
from .dynamics import BogoliubovTransform, build_drift_matrix
from .model import CouplerParams, GaussianState, N_MODES, _as_scalar

_ORDER = 2  # expansion valid through z^2


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of matrix polynomials with truncation at degree _ORDER.

    Coefficient arrays have shapes (3, a, b) and (3, b, c); matrix
    products are taken per power and summed along the diagonal
    p = q + (p - q).
    """
    out = np.zeros((_ORDER + 1, a.shape[1], b.shape[2]), dtype=complex)
    for p in range(_ORDER + 1):
        for q in range(p + 1):
            out[p] += a[q] @ b[p - q]
    return out


def _poly_eval(coeffs: np.ndarray, z: float) -> np.ndarray:
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def _rows_poly(params: CouplerParams) -> np.ndarray:
    """[U V] of I + iMz - M^2 z^2/2 as a degree-2 matrix polynomial, (3, 6, 12)."""
    gen = 1j * build_drift_matrix(params)
    return np.stack([np.eye(2 * N_MODES, dtype=complex), gen, 0.5 * (gen @ gen)])[:, :N_MODES]


def short_propagator(params: CouplerParams, z: float) -> BogoliubovTransform:
    """Bogoliubov transform accurate through z^2 (error is O(z^3))."""
    z = _as_scalar(z, "z")
    return BogoliubovTransform.from_rows(_poly_eval(_rows_poly(params), z), z)


def shortlen_polys(params: CouplerParams, s0: GaussianState) -> GaussianState:
    """The input state ``s0`` moved through the degree-2 rows as exact
    z-polynomials: a GaussianState stacked over the powers of z, so
    ``polys.B[p]`` is the z^p coefficient of B and ``polys.xi[p]`` of xi."""
    if s0.xi.shape != (N_MODES,):
        raise ValidationError(f"the short-length expansion takes one input state, "
                              f"got a stack of shape {s0.xi.shape[:-1]}")
    f = _rows_poly(params)
    g = f @ np.roll(s0.antinormal_covariance(), N_MODES, axis=-1).T
    m = _poly_mul(f, g.swapaxes(-1, -2))
    n = _poly_mul(np.roll(g, N_MODES, axis=-1).conj(), f.swapaxes(-1, -2))
    return GaussianState(xi=f @ np.concatenate([s0.xi, s0.xi.conj()]), N=n, M=m)


def shortlen_state(params: CouplerParams, s0: GaussianState, z: float) -> GaussianState:
    """The short-length state at length z, accurate through z^2:
    :func:`shortlen_polys` evaluated at z."""
    z = _as_scalar(z, "z")
    polys = shortlen_polys(params, s0)
    return GaussianState(*(_poly_eval(a, z) for a in (polys.xi, polys.N, polys.M)), z=z)
