"""Second-order short-length solution and its noise coefficients.

The propagator is expanded as I + iMz - M^2 z^2 / 2 and everything
downstream (mean amplitudes, noise functions) is kept as an exact
polynomial in z, truncated at degree two.  Inputs are restricted to the
cases the expansion is meant for: coherent radiation modes and phonons
that are coherent and/or chaotic; squeezed inputs are out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .dynamics import BogoliubovTransform, build_drift_matrix
from .model import GaussianState, N_MODES, ValidatedParams, noise_functions

_ORDER = 2  # expansion valid through z^2


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of matrix polynomials with truncation at degree _ORDER.

    Coefficient arrays have shape (degree+1, 6, 6); matrix products are
    taken per power and summed along the diagonal p = q + (p - q).
    """
    out = np.zeros((_ORDER + 1, N_MODES, N_MODES), dtype=complex)
    for p in range(_ORDER + 1):
        for q in range(p + 1):
            out[p] += a[q] @ b[p - q]
    return out


def _poly_eval(coeffs: np.ndarray, z: float) -> np.ndarray:
    out = np.zeros_like(coeffs[0])
    for p in range(coeffs.shape[0] - 1, -1, -1):
        out = out * z + coeffs[p]
    return out


def short_propagator_poly(params: ValidatedParams):
    """(U, V) blocks of I + iMz - M^2 z^2/2 as degree-2 matrix polynomials."""
    gen = 1j * build_drift_matrix(params).matrix
    powers = (np.eye(2 * N_MODES, dtype=complex), gen, 0.5 * (gen @ gen))
    u = np.zeros((_ORDER + 1, N_MODES, N_MODES), dtype=complex)
    v = np.zeros((_ORDER + 1, N_MODES, N_MODES), dtype=complex)
    for p, mat in enumerate(powers):
        u[p] = mat[0::2, 0::2]
        v[p] = mat[0::2, 1::2]
    return u, v


def short_propagator(params: ValidatedParams, z: float) -> BogoliubovTransform:
    """Bogoliubov transform accurate through z^2 (error is O(z^3))."""
    u, v = short_propagator_poly(params)
    return BogoliubovTransform(U=_poly_eval(u, z), V=_poly_eval(v, z), z=float(z))


def shortlen_mean_amplitudes(params: ValidatedParams, xi0, z: float) -> np.ndarray:
    """Coherent amplitudes after length z, to second order."""
    xi0 = np.asarray(xi0, dtype=complex)
    if xi0.shape != (N_MODES,):
        raise ValidationError(f"expected {N_MODES} amplitudes, got shape {xi0.shape}")
    t = short_propagator(params, z)
    return t.U @ xi0 + t.V @ xi0.conj()


def mean_amplitude_poly(params: ValidatedParams, xi0) -> np.ndarray:
    """Amplitudes as degree-2 polynomials, shape (3, 6)."""
    xi0 = np.asarray(xi0, dtype=complex)
    u, v = short_propagator_poly(params)
    return np.einsum("pjk,k->pj", u, xi0) + np.einsum("pjk,k->pj", v, xi0.conj())


@dataclass(frozen=True)
class ShortlenCoefficients:
    """Noise functions of the short-length state, all degree <= 2 in z.

    Shaped like the noise part of a GaussianState.  The ``order``
    attribute records the validity of the expansion.  ``C`` vanishes
    identically for the supported (unsqueezed) inputs.
    """

    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Dbar: np.ndarray
    z: float
    order: int = _ORDER


@dataclass(frozen=True)
class ShortlenNoisePolys:
    """Degree-2 polynomial coefficients of the noise functions.

    Shapes: B (3, 6) real, C (3, 6) complex, D and Dbar (3, 6, 6).
    """

    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Dbar: np.ndarray

    def at(self, z: float) -> ShortlenCoefficients:
        return ShortlenCoefficients(
            B=_poly_eval(self.B, z), C=_poly_eval(self.C, z),
            D=_poly_eval(self.D, z), Dbar=_poly_eval(self.Dbar, z),
            z=float(z),
        )


def shortlen_noise_polys(params: ValidatedParams, n_v1: float, n_v2: float) -> ShortlenNoisePolys:
    """Second moments of the short-length state as exact z-polynomials.

    Phonon modes start chaotic with ``n_v1``/``n_v2`` mean quanta and all
    other noise zero; the second moments are propagated through the
    degree-2 propagator and re-truncated at degree 2.
    """
    if n_v1 < 0 or n_v2 < 0:
        raise ValidationError("mean phonon numbers must be >= 0")
    u, v = short_propagator_poly(params)
    uc, vc = u.conj(), v.conj()
    ut = np.transpose(u, (0, 2, 1))
    vt = np.transpose(v, (0, 2, 1))

    n0 = np.zeros((_ORDER + 1, N_MODES, N_MODES), dtype=complex)
    n0[0] = np.diag([0.0, 0.0, n_v1, 0.0, 0.0, n_v2])
    n0_anti = n0.copy()
    n0_anti[0] += np.eye(N_MODES)

    n1 = _poly_mul(_poly_mul(uc, n0), ut) + _poly_mul(_poly_mul(vc, n0_anti), vt)
    m1 = _poly_mul(_poly_mul(u, n0_anti), vt) + _poly_mul(_poly_mul(v, n0), ut)

    return ShortlenNoisePolys(*noise_functions(n1, m1))


def shortlen_coefficients(params: ValidatedParams, n_v1: float, n_v2: float,
                          z: float) -> ShortlenCoefficients:
    """Short-length noise functions evaluated at length z."""
    return shortlen_noise_polys(params, n_v1, n_v2).at(z)


def shortlen_state(params: ValidatedParams, xi0, n_v1: float, n_v2: float,
                   z: float) -> GaussianState:
    """Full short-length Gaussian state (means plus noise) at length z."""
    coeffs = shortlen_coefficients(params, n_v1, n_v2, z)
    xi = shortlen_mean_amplitudes(params, xi0, z)
    return GaussianState(xi=xi, B=coeffs.B, C=coeffs.C, D=coeffs.D, Dbar=coeffs.Dbar)
