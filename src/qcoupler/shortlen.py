"""Second-order short-length solution and its noise coefficients.

The propagator is expanded as I + iMz - M^2 z^2 / 2 and everything
downstream (mean amplitudes, noise functions) is kept as an exact
polynomial in z, truncated at degree two.  Inputs are restricted to the
cases the expansion is meant for: coherent radiation modes and phonons
that are coherent and/or chaotic; squeezed inputs are out of scope here.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError
from .dynamics import BogoliubovTransform, build_drift_matrix
from .model import GaussianState, N_MODES, ValidatedParams

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
    powers = np.stack([np.eye(2 * N_MODES, dtype=complex), gen, 0.5 * (gen @ gen)])
    return powers[:, :N_MODES, :N_MODES], powers[:, :N_MODES, N_MODES:]


def short_propagator(params: ValidatedParams, z: float) -> BogoliubovTransform:
    """Bogoliubov transform accurate through z^2 (error is O(z^3))."""
    rows = _poly_eval(np.concatenate(short_propagator_poly(params), axis=-1), z)
    return BogoliubovTransform(rows, float(z))


def shortlen_mean_amplitudes(params: ValidatedParams, xi0, z: float) -> np.ndarray:
    """Coherent amplitudes after length z, to second order."""
    return _poly_eval(mean_amplitude_poly(params, xi0), z)


def mean_amplitude_poly(params: ValidatedParams, xi0) -> np.ndarray:
    """Amplitudes as degree-2 polynomials, shape (3, 6)."""
    xi0 = np.asarray(xi0, dtype=complex)
    if xi0.shape != (N_MODES,):
        raise ValidationError(f"expected {N_MODES} amplitudes, got shape {xi0.shape}")
    u, v = short_propagator_poly(params)
    return np.einsum("pjk,k->pj", u, xi0) + np.einsum("pjk,k->pj", v, xi0.conj())


def shortlen_noise_polys(params: ValidatedParams, n_v1: float, n_v2: float) -> GaussianState:
    """Second moments of the short-length state as exact z-polynomials.

    Phonon modes start chaotic with ``n_v1``/``n_v2`` mean quanta and all
    other noise zero; the second moments are propagated through the
    degree-2 propagator and re-truncated at degree 2.  The result is a
    GaussianState stacked over the power of z (N and M are (3, 6, 6)),
    with ``xi`` zero, so ``polys.B[p]`` is the z^p coefficient of B.
    ``C`` vanishes identically for the supported (unsqueezed) inputs.
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

    return GaussianState(xi=np.zeros((_ORDER + 1, N_MODES)), N=n1, M=m1)


def shortlen_coefficients(params: ValidatedParams, n_v1: float, n_v2: float,
                          z: float) -> GaussianState:
    """The noise of the short-length state at length z, accurate through
    z^2: :func:`shortlen_noise_polys` evaluated at z, with ``xi`` zero."""
    polys = shortlen_noise_polys(params, n_v1, n_v2)
    return GaussianState(xi=np.zeros(N_MODES), N=_poly_eval(polys.N, z),
                         M=_poly_eval(polys.M, z), z=z)


def shortlen_state(params: ValidatedParams, xi0, n_v1: float, n_v2: float,
                   z: float) -> GaussianState:
    """Full short-length Gaussian state (means plus noise) at length z."""
    coeffs = shortlen_coefficients(params, n_v1, n_v2, z)
    xi = shortlen_mean_amplitudes(params, xi0, z)
    return GaussianState(xi=xi, N=coeffs.N, M=coeffs.M)
