"""Closed-form propagator for matched-coupling configurations.

When the two guides carry equal-magnitude nonlinear couplings, the two
evanescent couplings have equal magnitude, and the coupling phases
satisfy one compatibility relation, the twelve operator equations
decouple into small blocks that can be solved in closed form.  The
result is used to validate the numerical matrix exponential.

Both guides' rows share seven factors of guide 1's rates.  All
trigonometric factors are evaluated as complex functions, so the
expressions stay valid when the internal rate ``r`` (and hence ``l``)
turns imaginary.
"""

from __future__ import annotations

import cmath

import numpy as np

from .exceptions import UnsupportedConfigurationError
from .dynamics import BogoliubovTransform
from .model import CouplerParams, EXCHANGE_PERMUTATION, N_MODES, _as_scalar

DEFAULT_CONDITION_TOL = 1e-12

# Below this |l z| the sin(lz/2)/l factor switches to its Taylor branch;
# the l -> 0 singularity is removable.
_SMALL_LZ = 1e-6


def conditions_satisfied(params: CouplerParams) -> bool:
    """True when the closed-form solution applies to these parameters.

    Requires |gS1| = |gS2|, |gA1| = |gA2|, |kappaS| = |kappaA| within
    ``DEFAULT_CONDITION_TOL`` (relative) and, for nonzero coupling, the
    phase compatibility relation

        (kappaA*/|kappaA|) (gA2/gA1) = -(kappaS/|kappaS|) (gS2*/gS1*).

    With both kappas zero the phase relation is vacuous and equal
    magnitudes suffice.  Amplitude ratios make the relation meaningless
    when gA1 or gS1 vanish while the guides are coupled; those cases
    report False and are left to the numerical route.
    """
    scale = max(abs(params.gS1), abs(params.gA1), abs(params.kappaS), 1.0)
    slack = DEFAULT_CONDITION_TOL * scale
    if abs(abs(params.gS1) - abs(params.gS2)) > slack:
        return False
    if abs(abs(params.gA1) - abs(params.gA2)) > slack:
        return False
    if abs(abs(params.kappaS) - abs(params.kappaA)) > slack:
        return False
    if abs(params.kappaS) <= slack:
        return True
    if abs(params.gA1) <= slack or abs(params.gS1) <= slack:
        return False
    # cross-multiplied form of the phase relation, stable near zeros
    lhs = params.kappaA.conjugate() * abs(params.kappaS) * params.gA2 * params.gS1.conjugate()
    rhs = -params.kappaS * abs(params.kappaA) * params.gS2.conjugate() * params.gA1
    return abs(lhs - rhs) <= DEFAULT_CONDITION_TOL * max(abs(lhs), abs(rhs), scale**3)


def _trig_factors(params: CouplerParams, z: float):
    """(kappa, sin kz, cos kz, sin(kz/2), cos(kz/2), cos(lz/2), sin(lz/2)/l)
    at length z, from guide 1's rates: kappa = |kappaS|,
    r^2 = |gS1|^2 - |gA1|^2 and l = sqrt(kappa^2 - 4 r^2).  The last
    factor's removable l -> 0 limit is taken by a series branch.
    """
    kappa = abs(params.kappaS)
    r_sq = abs(params.gS1) ** 2 - abs(params.gA1) ** 2
    l = cmath.sqrt(kappa**2 - 4.0 * r_sq)
    x = 0.5 * l * z
    if abs(l * z) < _SMALL_LZ:
        slol = 0.5 * z * (1.0 - x**2 / 6.0 + x**4 / 120.0)
    else:
        slol = cmath.sin(x) / l
    return (kappa, cmath.sin(kappa * z), cmath.cos(kappa * z), cmath.sin(0.5 * kappa * z),
            cmath.cos(0.5 * kappa * z), cmath.cos(x), slol)


def _unit_phase(x: complex) -> complex:
    return x / abs(x) if x != 0 else 1.0 + 0j


def _guide_rows(params: CouplerParams, factors):
    """U and V rows for the S, A, V modes of guide 1, as 3x6 blocks.

    Conjugates of l cancel identically because l is either real or
    purely imaginary: cos is even and sin(l*z)/l* = sin(lz)/l.
    """
    gs1, ga1 = params.gS1, params.gA1
    gs2, ga2 = params.gS2, params.gA2
    ps = _unit_phase(params.kappaS)
    pa = _unit_phase(params.kappaA)
    r_sq = abs(gs1) ** 2 - abs(ga1) ** 2
    if abs(r_sq) == 0.0:
        raise UnsupportedConfigurationError(
            "closed form is singular at |gS1| = |gA1|; use the numerical propagator"
        )
    k, shh, chh, sh, ch, cl, slol = factors
    ga_ratio = ga2 / ga1 if ga1 != 0 else 0j

    u = np.zeros((3, N_MODES), dtype=complex)
    v = np.zeros((3, N_MODES), dtype=complex)

    # Stokes row
    u[0, 0] = (-abs(ga1) ** 2 * chh + abs(gs1) ** 2 * (-k * sh * slol + ch * cl)) / r_sq
    v[0, 1] = ga1 * gs1 * (-chh - k * sh * slol + ch * cl) / r_sq
    u[0, 3] = 1j * ps.conjugate() * (
        -abs(ga1) ** 2 * shh + abs(gs1) ** 2 * (k * ch * slol + sh * cl)
    ) / r_sq
    v[0, 4] = 1j * ga1 * gs1 * pa * (shh - k * ch * slol - sh * cl) / r_sq
    v[0, 2] = 2j * gs1 * ch * slol
    v[0, 5] = -2.0 * ps.conjugate() * gs2 * sh * slol

    # anti-Stokes row
    v[1, 0] = ga1 * gs1 * (chh + k * sh * slol - ch * cl) / r_sq
    u[1, 2] = 2j * ga1 * ch * slol
    u[1, 1] = (abs(gs1) ** 2 * chh + abs(ga1) ** 2 * (k * sh * slol - ch * cl)) / r_sq
    u[1, 4] = 1j * pa.conjugate() * (
        abs(gs1) ** 2 * shh - abs(ga1) ** 2 * (k * ch * slol + sh * cl)
    ) / r_sq
    v[1, 3] = -1j * ga1 * gs1 * ps * (shh - k * ch * slol - sh * cl) / r_sq
    u[1, 5] = -2.0 * pa.conjugate() * ga2 * sh * slol

    # vibration row
    v[2, 0] = 2j * gs1 * ch * slol
    u[2, 1] = 2j * ga1.conjugate() * ch * slol
    u[2, 2] = k * sh * slol + ch * cl
    v[2, 3] = 2.0 * gs1 * ps * sh * slol
    u[2, 4] = -2.0 * ga1.conjugate() * pa.conjugate() * sh * slol
    u[2, 5] = -1j * pa.conjugate() * ga_ratio * (k * ch * slol - sh * cl)
    return u, v


def analytic_propagator(params: CouplerParams, z: float) -> BogoliubovTransform:
    """Closed-form Bogoliubov transform on the matched-coupling manifold.

    Guide-2 rows follow from the guide-exchange symmetry; creator rows
    from conjugation, as in the numerical propagator.

    Raises
    ------
    UnsupportedConfigurationError
        If the matched-coupling conditions fail, or
        if |gS1| = |gA1| makes the closed form singular.
    """
    z = _as_scalar(z, "z")
    if not conditions_satisfied(params):
        raise UnsupportedConfigurationError(
            "parameters violate the matched-coupling conditions of the closed form"
        )
    factors = _trig_factors(params, z)
    u1, v1 = _guide_rows(params, factors)
    # second guide: swap parameters, then relabel columns
    u2, v2 = _guide_rows(params.swapped(), factors)
    perm = np.asarray(EXCHANGE_PERMUTATION)
    return BogoliubovTransform.from_rows(np.block([[u1, v1], [u2[:, perm], v2[:, perm]]]), z)
