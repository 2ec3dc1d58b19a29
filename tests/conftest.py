"""Shared test helpers.

Provides quiet parameter construction, sweeps that assert their p(n)
truncation alarm, seeded random draws, the guide exchange of a state,
the generating function of an eigen spectrum (closed product form, its
jet by scalar loops, and the same jet through the moments' trace series),
small z-polynomial arithmetic (exact convolution, truncation at degree
4), and the generic short-length composition that the fixture-identity
tests and the acceptance suite both consume.
"""

import warnings

import numpy as np
import pytest
from hypothesis import Phase

import qcoupler.gaussian_stats as gaussian_stats
from qcoupler.cli import run_scenario
from qcoupler.exceptions import TruncationWarning
from qcoupler.model import (
    EXCHANGE_PERMUTATION,
    CouplerParams,
    GaussianState,
    InputSpec,
    _doubled_covariance,
    validate_params,
)
from qcoupler.presets import load_preset
from qcoupler.shortlen import mean_amplitude_poly, shortlen_noise_polys

ORDER = 4
# Hypothesis phases of the property tests: every phase but ``explain``, whose
# re-runs of a failing example's variations over evolved states multiply the
# time and memory a failure takes to report (4 s and 80 MB without it, 25 s
# and 350 MB with it, on a deliberately broken trace series).
PROPERTY_PHASES = tuple(p for p in Phase if p.name != "explain")
S1, A1, V1, S2, A2, V2 = range(6)


def quiet_params(**kwargs) -> CouplerParams:
    """Validated parameters with the regime warning suppressed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_params(CouplerParams(**kwargs))


# The p(n) selection of each preset whose tail beyond n_max exceeds the
# sweep's alarm level: fig7's S1A1 misses up to 64% of its distribution.
TRUNCATED_PN = {"fig7": "S1A1"}


def run_truncated(cfg, selection=None):
    """``run_scenario``, asserting its ``TruncationWarning`` for the named
    p(n) selection (and, as warnings are errors, no other warning)."""
    if selection is None:
        return run_scenario(cfg)
    with pytest.warns(TruncationWarning, match=rf"p\(n\) of {selection} is truncated"):
        return run_scenario(cfg)


def run_preset(name):
    """The preset's sweep, asserting the truncation alarm where it is due."""
    return run_truncated(load_preset(name), TRUNCATED_PN.get(name))


def random_couplings(rng, mag=3.0, kappa_mag=None):
    mags = rng.uniform(0.2, mag, 6)
    if kappa_mag is not None:
        mags[4:] = rng.uniform(0.2, kappa_mag, 2)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    vals = mags * phases
    return quiet_params(gS1=vals[0], gA1=vals[1], gS2=vals[2], gA2=vals[3],
                        kappaS=vals[4], kappaA=vals[5])


def random_inputs(rng, xi_mag=2.0, squeezed=True, thermal=True):
    specs = []
    for _ in range(6):
        xi = rng.uniform(0, xi_mag) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        r = rng.uniform(0, 0.8) if squeezed and rng.random() < 0.5 else 0.0
        theta = rng.uniform(-np.pi, np.pi)
        n_ch = rng.uniform(0, 1.0) if thermal and rng.random() < 0.5 else 0.0
        specs.append(InputSpec(xi=complex(xi), r=r, theta=theta, n_ch=n_ch))
    return tuple(specs)


def permute_state(state: GaussianState) -> GaussianState:
    """The same state with the two guides' modes exchanged."""
    p = np.asarray(EXCHANGE_PERMUTATION)
    ix = (..., p[:, None], p)
    return GaussianState(xi=state.xi[..., p], N=state.N[ix], M=state.M[ix], z=state.z)


# ---------------------------------------------------------------------------
# The generating function of an eigen spectrum: eigenvalues lam_i of a
# selection's doubled covariance and weights w_i of its doubled mean, as
# ``gaussian_stats._selection_spectrum`` returns them.

def doubled_block(state, sel):
    """The doubled covariance Gamma = [[n^T, m], [m*, n]] and the doubled
    mean y = (x, x*) of the selection's block."""
    x, n, m = gaussian_stats._selection_block(state, sel)
    return _doubled_covariance(n, m), np.concatenate([x, x.conj()], axis=-1)


def selection_spectrum(state, sel):
    """(lam, w) of the selection's doubled block."""
    return gaussian_stats._selection_spectrum(*doubled_block(state, sel))


def spectrum_g(lam, w, s):
    """G(s) = prod_i (1 + s lam_i)^(-1/2) exp(-(s/2) sum_i w_i / (1 + s lam_i))."""
    a = 1.0 + s * lam
    return np.prod(a, axis=-1) ** -0.5 * np.exp(-0.5 * s * np.sum(w / a, axis=-1))


def spectrum_jet(lam, w, s0, order):
    """The Taylor coefficients of G(s0 + t) of one spectrum by scalar loops:
    log-series coefficients, then the exponential recurrence with one dot
    product per order."""
    a = 1.0 + s0 * lam
    h = np.zeros(order + 1)
    h[0] = -0.5 * np.sum(np.log(a)) - 0.5 * s0 * np.sum(w / a)
    for n in range(1, order + 1):
        g_n = np.sum(w / a * (-lam / a) ** n)
        g_prev = np.sum(w / a * (-lam / a) ** (n - 1))
        h[n] = 0.5 * (-1.0) ** n * np.sum((lam / a) ** n) / n - 0.5 * (s0 * g_n + g_prev)
    f = np.zeros(order + 1)
    f[0] = np.exp(h[0])
    for n in range(1, order + 1):
        f[n] = np.dot(np.arange(1, n + 1) * h[1:n + 1], f[n - 1::-1]) / n
    return f


def unreduced_jet(gamma, y, mean_w, order):
    """The Taylor coefficients of G(s) at s = 0 through the moments' trace
    series, unreduced (scale 1, the route of a vacuum row)."""
    return gaussian_stats._series_exp(gaussian_stats._reduced_log_series(
        gamma, y, mean_w, np.ones_like(mean_w), order))


def trace_series_jet(lam, w, order):
    """``unreduced_jet`` of a stack of spectra: Gamma = diag(lam),
    y = sqrt(w) and <W> = (1/2) sum_i (lam_i + w_i)."""
    idx = np.arange(lam.shape[-1])
    gamma = np.zeros(lam.shape + lam.shape[-1:], dtype=complex)
    gamma[..., idx, idx] = lam
    return unreduced_jet(gamma, np.sqrt(w).astype(complex), 0.5 * np.sum(lam + w, axis=-1),
                         order)


def matched_coupling_params(rng, mag=3.0):
    """Random parameters satisfying the closed-form conditions exactly."""
    ms, ma, mk = rng.uniform(0.2, mag, 3)
    if abs(ms - ma) < 0.05:   # keep the internal rate away from zero
        ma += 0.1
    phi1, phi2, psi1, ch_s, ch_a = rng.uniform(-np.pi, np.pi, 5)
    g_s1 = ms * np.exp(1j * phi1)
    g_s2 = ms * np.exp(1j * phi2)
    g_a1 = ma * np.exp(1j * psi1)
    k_s = mk * np.exp(1j * ch_s)
    k_a = mk * np.exp(1j * ch_a)
    g_a2 = -(k_s / abs(k_s)) * (np.conj(g_s2) / np.conj(g_s1)) * (abs(k_a) / np.conj(k_a)) * g_a1
    return quiet_params(gS1=g_s1, gA1=g_a1, gS2=g_s2, gA2=g_a2, kappaS=k_s, kappaA=k_a)


# ---------------------------------------------------------------------------
# Degree-4 polynomial arithmetic over the expansion variable (z >= 0).

def pad(a):
    out = np.zeros(ORDER + 1, complex)
    a = np.atleast_1d(np.asarray(a, complex))
    out[: min(len(a), ORDER + 1)] = a[: ORDER + 1]
    return out


def pmul(a, b):
    a, b = pad(a), pad(b)
    out = np.zeros(ORDER + 1, complex)
    for p in range(ORDER + 1):
        out[p] = np.dot(a[: p + 1], b[p::-1])
    return out


def pconj(a):
    return np.conj(pad(a))


def preal(a):
    return 0.5 * (pad(a) + pconj(a))


def pabs(a):
    """|P(z)| as a truncated series, valid for z >= 0 near zero."""
    a = pad(a)
    sq = pmul(a, pconj(a))
    scale = max(1.0, float(np.abs(sq).max()))
    nz = np.nonzero(np.abs(sq) > 1e-13 * scale)[0]
    if len(nz) == 0:
        return np.zeros(ORDER + 1, complex)
    m = int(nz[0])
    assert m % 2 == 0, "squared magnitude must lead with an even power"
    q = np.real(sq[m:])
    s = np.zeros(len(q))
    s[0] = np.sqrt(q[0])
    for n in range(1, len(q)):
        s[n] = (q[n] - np.dot(s[1:n], s[n - 1:0:-1])) / (2.0 * s[0])
    out = np.zeros(ORDER + 1, complex)
    half = m // 2
    out[half: half + len(s)] = s[: ORDER + 1 - half]
    return out


class ShortlenComposition:
    """Statistics composed from the short-length expansion, as exact
    z-polynomials (degree 4, trustworthy through degree 2)."""

    def __init__(self, params, xi0, n1, n2):
        polys = shortlen_noise_polys(params, n1, n2)
        amp = mean_amplitude_poly(params, np.asarray(xi0, complex))
        self.B = {j: pad(polys.B[:, j]) for j in range(6)}
        self.C = {j: pad(polys.C[:, j]) for j in range(6)}
        self.D = {(j, k): pad(polys.D[:, j, k]) for j in range(6) for k in range(6)}
        self.Dbar = {(j, k): pad(polys.Dbar[:, j, k]) for j in range(6) for k in range(6)}
        self.xi = {j: pad(amp[:, j]) for j in range(6)}

    def var_w(self, j):
        b, c, x = self.B[j], self.C[j], self.xi[j]
        return (pmul(b, b) + pmul(c, pconj(c)) + 2 * pmul(b, pmul(x, pconj(x)))
                + 2 * preal(pmul(c, pmul(pconj(x), pconj(x)))))

    def cov(self, j, k):
        d, db = self.D[(j, k)], self.Dbar[(j, k)]
        xj, xk = self.xi[j], self.xi[k]
        return (pmul(d, pconj(d)) + pmul(db, pconj(db))
                + 2 * preal(pmul(d, pmul(pconj(xj), pconj(xk))))
                - 2 * preal(pmul(db, pmul(xj, pconj(xk)))))

    def var_w_compound(self, j, k):
        return self.var_w(j) + self.var_w(k) + 2 * self.cov(j, k)

    def squeeze_single(self, j):
        return 2 * (pad([0.5]) + self.B[j] - pabs(self.C[j]))

    def squeeze_compound(self, j, k):
        pair = self.C[j] + self.C[k] + 2 * self.D[(j, k)]
        return 2 * (pad([1.0]) + self.B[j] + self.B[k]
                    - 2 * preal(self.Dbar[(j, k)]) - pabs(pair))


def _cc(x):
    """x + c.c. of a scalar."""
    return 2.0 * np.real(x)


def shortlen_identity_records(params, xi, n1, n2):
    """Per-line comparison records for the short-length statistics.

    Each record is (label, composed polynomial, reference polynomial,
    paper_variant_or_None).  The reference is the published right-hand
    side where it composes consistently and the corrected closed form
    in the four places where the published line is internally
    inconsistent with its own coefficient set; there the published
    variant is attached so tests can document the discrepancy.
    """
    g1s, g1a = params.gS1, params.gA1
    g2s, g2a = params.gS2, params.gA2
    ks, ka = params.kappaS, params.kappaA
    x = np.asarray(xi, complex)

    records = []

    # --- all-coherent case (Brillouin), n1 = n2 = 0 inputs
    comp = ShortlenComposition(params, x, 0.0, 0.0)
    records += [
        ("22.1 varW_S1", comp.var_w(S1),
         pad([0, 0, 2 * abs(g1s) ** 2 * abs(x[S1]) ** 2]), None),
        ("22.2 varW_A1", comp.var_w(A1), pad([0, 0, 0]), None),
        ("22.3 varW_V1", comp.var_w(V1),
         pad([0, 0, 2 * abs(g1s) ** 2 * abs(x[V1]) ** 2]), None),
        ("23.1 varW_S1A1", comp.var_w_compound(S1, A1),
         pad([0, 0, 2 * abs(g1s) ** 2 * abs(x[S1]) ** 2
              - _cc(g1a * g1s * np.conj(x[S1]) * np.conj(x[A1]))]), None),
        ("23.2 varW_S1V1", comp.var_w_compound(S1, V1),
         pad([0, 2 * _cc(1j * g1s * np.conj(x[S1]) * np.conj(x[V1])),
              2 * (abs(g1s) ** 2 * (1 + 3 * abs(x[S1]) ** 2 + 3 * abs(x[V1]) ** 2)
                   + _cc(g1s * g1a * np.conj(x[A1]) * np.conj(x[S1]))
                   + _cc(g1s * ks * np.conj(x[S2]) * np.conj(x[V1])))]), None),
        ("23.3 varW_S1V2", comp.var_w_compound(S1, V2),
         pad([0, 0, 2 * abs(g1s) ** 2 * abs(x[S1]) ** 2
              + 2 * abs(g2s) ** 2 * abs(x[V2]) ** 2
              - _cc(g2s * np.conj(ks) * np.conj(x[S1]) * np.conj(x[V2]))]), None),
        ("24.1 lam_S1A1", comp.squeeze_compound(S1, A1),
         pad([2, 0, 2 * abs(g1s) * (abs(g1s) - abs(g1a))]), None),
        # published z^2 coefficient is |gS1|^2; composing (20) with (21)
        # and the exact 2 exp(-2|g|z) both give 2 |gS1|^2
        ("24.2 lam_S1V1", comp.squeeze_compound(S1, V1),
         pad([2, -4 * abs(g1s), 4 * abs(g1s) ** 2]),
         pad([2, -4 * abs(g1s), 2 * abs(g1s) ** 2])),
        ("24.3 lam_S1V2", comp.squeeze_compound(S1, V2),
         pad([2, 0, 2 * (abs(g1s) ** 2 + abs(g2s) ** 2) - 2 * abs(g2s) * abs(ks)]),
         None),
    ]

    # --- chaotic-phonon case (Raman): xi_V = 0, n1/n2 chaotic quanta
    xr = x.copy()
    xr[V1] = 0.0
    xr[V2] = 0.0
    comp = ShortlenComposition(params, xr, n1, n2)
    xs1, xa1 = xr[S1], xr[A1]
    var_v1_z2 = (2 * abs(g1s) ** 2 * n1 * (abs(xs1) ** 2 + n1 + 1)
                 + 2 * abs(g1a) ** 2 * n1 * (abs(xa1) ** 2 - n1)
                 + _cc(2 * np.conj(g1a) * np.conj(g1s) * xs1 * xa1 * n1))
    records += [
        ("26.1 varW_S1", comp.var_w(S1),
         pad([0, 0, 2 * abs(g1s) ** 2 * (n1 + 1) * abs(xs1) ** 2]), None),
        ("26.2 varW_A1", comp.var_w(A1),
         pad([0, 0, 2 * abs(g1a) ** 2 * n1 * abs(xa1) ** 2]), None),
        ("26.3 varW_V1", comp.var_w(V1), pad([n1 ** 2, 0, var_v1_z2]), None),
        ("26.4 varW_S1A1", comp.var_w_compound(S1, A1),
         pad([0, 0, 2 * abs(g1s) ** 2 * (n1 + 1) * abs(xs1) ** 2
              + 2 * abs(g1a) ** 2 * n1 * abs(xa1) ** 2
              - _cc(g1a * g1s * (2 * n1 + 1) * np.conj(xs1) * np.conj(xa1))]), None),
        # published lines carry only the n^2 constant of varW_V1 and drop
        # its z^2 part; the composition restores it
        ("26.5 varW_S1V1", comp.var_w_compound(S1, V1),
         pad([n1 ** 2, 0, var_v1_z2
              + 2 * abs(g1s) ** 2 * (3 * abs(xs1) ** 2 + n1 + 1) * (n1 + 1)
              + _cc(2 * g1a * g1s * (n1 + 1) * np.conj(xs1) * np.conj(xa1))]),
         pad([n1 ** 2, 0,
              2 * abs(g1s) ** 2 * (3 * abs(xs1) ** 2 + n1 + 1) * (n1 + 1)
              + _cc(2 * g1a * g1s * (n1 + 1) * np.conj(xs1) * np.conj(xa1))])),
        ("26.6 varW_A1V1", comp.var_w_compound(A1, V1),
         pad([n1 ** 2, 0, var_v1_z2
              + 2 * abs(g1a) ** 2 * n1 * (n1 - abs(xa1) ** 2)
              - _cc(2 * g1a * g1s * n1 * np.conj(xs1) * np.conj(xa1))]),
         pad([n1 ** 2, 0, 2 * abs(g1a) ** 2 * n1 * (n1 - abs(xa1) ** 2)
              - _cc(2 * g1a * g1s * n1 * np.conj(xs1) * np.conj(xa1))])),
        ("27.1 lam_S1A1", comp.squeeze_compound(S1, A1),
         pad([2, 0, 2 * (abs(g1s) ** 2 * (n1 + 1) + abs(g1a) ** 2 * n1
                         - abs(g1a) * abs(g1s) * (1 + 2 * n1))]), None),
        ("27.2 lam_S1V1", comp.squeeze_compound(S1, V1),
         pad([2 * (1 + n1), -4 * abs(g1s) * (n1 + 1),
              2 * (2 * abs(g1s) ** 2 * (n1 + 1) - abs(g1a) ** 2 * n1)]), None),
        ("27.3 lam_A1V1", comp.squeeze_compound(A1, V1),
         pad([2 * (1 + n1), -2 * _cc(1j * np.conj(g1a) * n1),
              2 * abs(g1s) ** 2 * (n1 + 1)]), None),
        ("27.4 lam_S1V2", comp.squeeze_compound(S1, V2),
         pad([2 * (1 + n2), 0,
              2 * (abs(g1s) ** 2 * (n1 + 1) + abs(g2s) ** 2 * (n2 + 1)
                   - abs(g2a) ** 2 * n2 - abs(g2s) * abs(ks) * (n2 + 1))]), None),
        # published coupling term is (gA2* kappaA n2 z^2 + c.c.); composing
        # (20) with the published coefficient Dbar_A1V2 = gA2* kappaA n2 z^2/2
        # gives half of that
        ("27.5 lam_A1V2", comp.squeeze_compound(A1, V2),
         pad([2 * (1 + n2), 0,
              2 * (abs(g2s) ** 2 * (n2 + 1) + abs(g1a) ** 2 * n1
                   - abs(g2a) ** 2 * n2) - _cc(np.conj(g2a) * ka * n2)]),
         pad([2 * (1 + n2), 0,
              2 * (abs(g2s) ** 2 * (n2 + 1) + abs(g1a) ** 2 * n1
                   - abs(g2a) ** 2 * n2) - 2 * _cc(np.conj(g2a) * ka * n2)])),
    ]
    return records
