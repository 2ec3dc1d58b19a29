"""Truncated Fock-space oracle: Hamiltonian, evolution, statistics."""

import functools
import math

import numpy as np
import pytest

from qcoupler import fock_oracle
from qcoupler.exceptions import TruncationError, ValidationError
from qcoupler.fock_oracle import (
    FockConfig,
    FockLevel,
    build_hamiltonian,
    evolve_fock,
    fock_statistics,
)
from qcoupler.model import CouplerParams, InputSpec, ModeId, VACUUM_INPUT


def _dense_product(cfg, steps):
    """The dense matrix of one-quantum ladder steps (mode, +-1) on distinct
    modes: a Kronecker product of (d, d) lowering matrices
    a|n> = sqrt(n)|n-1>, their transposes for raising steps, and
    identities."""
    factors = [np.eye(d) for d in cfg.dims]
    for mode, shift in steps:
        assert shift in (1, -1)
        pos = cfg.modes.index(mode)
        lower = np.diag(np.sqrt(np.arange(1.0, cfg.dims[pos])), k=1)
        factors[pos] = lower.T if shift > 0 else lower
    return functools.reduce(np.kron, factors)


def _dense_hamiltonian(cfg):
    """H over the coupling table, each term plus its dense adjoint; shares
    no code with the oracle's sliced products."""
    h = np.zeros((cfg.dimension, cfg.dimension), dtype=complex)
    for name, steps in fock_oracle._TERMS.items():
        g = complex(getattr(cfg.params, name))
        if g != 0:
            term = g * _dense_product(cfg, steps)
            h += term + term.conj().T
    return h


def _dense_exp(cfg, z):
    """exp(izH) as Q e^{iz Lambda} Q^H from the eigendecomposition of the
    Hermitian dense H: no Taylor series, unlike the oracle's."""
    lam, q = np.linalg.eigh(_dense_hamiltonian(cfg))
    return (q * np.exp(1j * z * lam)) @ q.conj().T


def _applied_hamiltonian(cfg):
    """The oracle's H as a dense matrix: its action on every basis vector."""
    return fock_oracle._apply(cfg, build_hamiltonian(cfg), np.eye(cfg.dimension)).T


def test_config_validation():
    params = CouplerParams(gS1=1)
    with pytest.raises(ValidationError):
        FockConfig(modes=(ModeId.S1, ModeId.A2), cutoffs=(4, 4), params=params)
    with pytest.raises(ValidationError):
        FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(40, 4), params=params)
    with pytest.raises(ValidationError):
        # coupling references modes outside the subsystem
        FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(4, 4),
                   params=CouplerParams(gS1=1, kappaS=2))
    # the largest admissible subsystem stays within the dimension budget
    big = FockConfig(modes=(ModeId.S1, ModeId.V1, ModeId.S2, ModeId.V2),
                     cutoffs=(16, 16, 16, 16), params=CouplerParams(gS1=1))
    assert big.dimension == 17**4 <= 200_000


@pytest.mark.parametrize("modes, couplings", [
    ((ModeId.S1, ModeId.S2), dict(kappaS=0.7j)),
    ((ModeId.A1,), {}),
    ((ModeId.V2, ModeId.A2), dict(gA2=0.3)),
], ids=["evanescent-stokes-pair", "uncoupled-mode", "anti-stokes-pair"])
def test_config_takes_any_closed_subsystem(modes, couplings):
    cfg = FockConfig(modes=modes, cutoffs=(3,) * len(modes), params=CouplerParams(**couplings))
    assert cfg.modes == tuple(sorted(modes)) and cfg.dimension == 4 ** len(modes)


@pytest.mark.parametrize("modes, cutoffs, couplings, match", [
    ((ModeId.S1,), (3,), dict(kappaS=0.7j), "coupling kappaS references modes outside"),
    ((ModeId.S1, ModeId.S1), (3, 3), {}, r"distinct and at least one, got \('S1', 'S1'\)"),
    ((), (), {}, r"distinct and at least one, got \(\)"),
    (tuple(ModeId)[:5], (16,) * 5, {}, "Hilbert dimension 1419857 exceeds 200000"),
], ids=["coupling-leaves", "duplicate-modes", "empty", "too-large"])
def test_config_rejects_what_is_not_a_closed_subsystem(modes, cutoffs, couplings, match):
    with pytest.raises(ValidationError, match=match):
        FockConfig(modes=modes, cutoffs=cutoffs, params=CouplerParams(**couplings))


def test_ladder_table_matches_its_formula_and_is_read_only():
    for d, k in [(1, 1), (5, 1), (5, 2), (17, 2)]:
        table = fock_oracle._ladder(d, k)
        ref = [math.sqrt(math.prod(range(m + 1, m + k + 1))) for m in range(d - k)]
        assert np.array_equal(table, ref) and table.shape == (max(d - k, 0),)
        assert fock_oracle._ladder(d, k) is table
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def test_per_mode_preparation_matches_the_joint_stack():
    """Each mode prepared on its own axis, against every squeeze and then
    every displacement acting on the whole (members, dimension) stack."""
    cfg = FockConfig(modes=(ModeId.S1, ModeId.A1, ModeId.V1), cutoffs=(12, 11, 12),
                     params=CouplerParams(gS1=0.3, gA1=0.6))
    specs = [InputSpec(xi=0.3j, r=0.3, theta=0.4), InputSpec(xi=-0.2, n_ch=0.3),
             InputSpec(r=0.2, theta=-1.1)]
    weights, index = np.ones(1), np.zeros(1, dtype=int)
    squeeze, displace = [], []
    for m, spec, d in zip(cfg.modes, specs, cfg.dims):
        w = fock_oracle._thermal_weights(spec.n_ch, d)
        weights = np.outer(weights, w).ravel()
        index = np.add.outer(index * d, np.arange(len(w))).ravel()
        squeeze += fock_oracle._generator(m, 2, 0.5 * spec.r * np.exp(1j * spec.theta))
        displace += fock_oracle._generator(m, 1, spec.xi)
    stack = np.eye(cfg.dimension, dtype=complex)[index]
    for terms in (squeeze, displace):
        stack = fock_oracle._exp_action(cfg, terms, 1.0, stack)
    ens = evolve_fock(cfg, specs, 0.0)
    assert len(weights) > 3 and np.array_equal(ens.weights, weights)
    assert np.max(np.abs(ens.vectors - stack)) <= 1e-13


def test_hamiltonian_zero_without_couplings():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(3, 3),
                     params=CouplerParams())
    assert build_hamiltonian(cfg) == ()
    assert not np.any(_applied_hamiltonian(cfg))


def test_hamiltonian_pair_creation_element():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(1, 1),
                     params=CouplerParams(gS1=1))
    h = _applied_hamiltonian(cfg)
    # lexicographic basis: |S1,V1> in {00, 01, 10, 11}
    assert h[3, 0] == pytest.approx(1.0)
    assert _dense_hamiltonian(cfg)[3, 0] == pytest.approx(1.0)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_hamiltonian_hermitian_random():
    params = CouplerParams(gS1=0.3 + 0.1j, gA1=0.5j, kappaS=0, kappaA=0)
    cfg = FockConfig(modes=(ModeId.S1, ModeId.A1, ModeId.V1),
                     cutoffs=(5, 5, 5), params=params)
    h = _applied_hamiltonian(cfg)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert np.max(np.abs(h - _dense_hamiltonian(cfg))) <= 1e-14


# (modes, cutoffs, couplings) of small 2-, 3- and 4-mode subsystems
SMALL_SUBSYSTEMS = [
    ((ModeId.S1, ModeId.V1), (6, 6), dict(gS1=0.3 + 0.2j)),
    ((ModeId.S1, ModeId.A1, ModeId.V1), (3, 3, 3), dict(gS1=0.3, gA1=0.5j)),
    ((ModeId.S1, ModeId.V1, ModeId.S2, ModeId.V2), (2, 2, 2, 2),
     dict(gS1=0.3, gS2=0.2 - 0.1j, kappaS=0.7j)),
    ((ModeId.A1, ModeId.V1, ModeId.A2, ModeId.V2), (2, 1, 2, 1),
     dict(gA1=0.3, gA2=-0.4j, kappaA=0.7)),
]


@pytest.mark.parametrize("modes,cutoffs,couplings", SMALL_SUBSYSTEMS)
def test_operator_action_and_norm_match_dense_view(modes, cutoffs, couplings):
    cfg = FockConfig(modes=modes, cutoffs=cutoffs, params=CouplerParams(**couplings))
    terms = build_hamiltonian(cfg)
    dense = _dense_hamiltonian(cfg)
    v = np.random.default_rng(3).normal(size=(3, cfg.dimension, 2)).view(complex)[..., 0]
    assert np.max(np.abs(fock_oracle._apply(cfg, terms, v) - v @ dense.T)) <= 1e-14
    assert fock_oracle._norm1(cfg, terms) == pytest.approx(
        np.max(np.sum(np.abs(dense), axis=0)), rel=1e-15)
    # the one-step lowerings the statistics read, once and chained
    for mode in cfg.modes:
        a = _dense_product(cfg, [(mode, -1)])
        lower = [(1.0, ((mode, -1),))]
        av = fock_oracle._apply(cfg, lower, v)
        assert np.max(np.abs(av - v @ a.T)) <= 1e-14
        assert np.max(np.abs(fock_oracle._apply(cfg, lower, av) - v @ (a @ a).T)) <= 1e-13
    # the one-mode generators that prepare the inputs, -i c a^+k + i c* a^k
    # for k = 1 (displacement) and k = 2 (squeeze)
    c = 0.4 - 0.3j
    for mode in cfg.modes:
        for k in (1, 2):
            raise_k = np.linalg.matrix_power(_dense_product(cfg, [(mode, 1)]), k)
            generator = -1j * c * raise_k + 1j * c.conjugate() * raise_k.T
            terms = [(-1j * c, ((mode, k),)), (1j * c.conjugate(), ((mode, -k),))]
            assert np.max(np.abs(fock_oracle._apply(cfg, terms, v) - v @ generator.T)) <= 1e-14
            assert fock_oracle._norm1(cfg, terms) == pytest.approx(
                np.max(np.sum(np.abs(generator), axis=0)), rel=1e-15)


@pytest.mark.parametrize("modes,cutoffs,couplings", SMALL_SUBSYSTEMS)
@pytest.mark.parametrize("z", [0.3, -7.0])
def test_exponential_matches_dense_expm(modes, cutoffs, couplings, z):
    """exp(izH) on every basis vector, against the dense eigendecomposition;
    |z| = 7 takes several scaled steps."""
    cfg = FockConfig(modes=modes, cutoffs=cutoffs, params=CouplerParams(**couplings))
    ref = _dense_exp(cfg, z)
    out = fock_oracle._exp_action(cfg, build_hamiltonian(cfg), z,
                                  np.eye(cfg.dimension, dtype=complex))
    assert np.max(np.abs(out - ref.T)) <= 1e-13


def test_thermal_ensemble_matches_dense_expm():
    """Each member of a thermal mixture is a basis vector evolved at once."""
    cfg = FockConfig(modes=(ModeId.A1, ModeId.V1), cutoffs=(10, 12),
                     params=CouplerParams(gA1=0.6 - 0.2j))
    z = 0.8
    ens = evolve_fock(cfg, [FockLevel(1), InputSpec(n_ch=0.3)], z)
    members = len(ens.weights)
    assert members > 5 and ens.vectors.shape == (members, cfg.dimension)
    ref = _dense_exp(cfg, z)
    # member l starts in |A1 = 1, V1 = l>
    columns = cfg.dims[1] + np.arange(members)
    assert np.max(np.abs(ens.vectors - ref[:, columns].T)) <= 1e-13


def test_evolution_z_zero_is_identity():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(6, 6),
                     params=CouplerParams(gS1=0.4))
    ens = evolve_fock(cfg, [InputSpec(xi=0.5), VACUUM_INPUT], 0.0)
    stats = fock_statistics(ens, (ModeId.S1,))
    # off by the truncation of the displacement only
    assert stats.mean_w == pytest.approx(0.25, abs=1e-6)


def test_two_mode_squeezing_mean_photon_number():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(10, 10),
                     params=CouplerParams(gS1=0.3))
    ens = evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 0.5)
    stats = fock_statistics(ens, (ModeId.S1,))
    assert stats.mean_w == pytest.approx(math.sinh(0.15) ** 2, abs=1e-5)


def test_beam_splitter_with_single_phonon():
    cfg = FockConfig(modes=(ModeId.A1, ModeId.V1), cutoffs=(4, 4),
                     params=CouplerParams(gA1=0.6))
    ens = evolve_fock(cfg, [VACUUM_INPUT, FockLevel(1)], 0.5)
    stats = fock_statistics(ens, (ModeId.A1,))
    assert stats.mean_w == pytest.approx(math.sin(0.3) ** 2, abs=1e-10)


def test_compound_squeeze_closed_form():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(12, 12),
                     params=CouplerParams(gS1=0.3))
    ens = evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 0.5)
    stats = fock_statistics(ens, (ModeId.S1, ModeId.V1))
    assert stats.lam == pytest.approx(2 * math.exp(-0.3), abs=2e-4)


def test_vacuum_statistics():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(4, 4),
                     params=CouplerParams())
    ens = evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 1.0)
    stats = fock_statistics(ens, (ModeId.S1,))
    assert stats.p_n[0] == pytest.approx(1.0)
    assert stats.lam == pytest.approx(1.0)


def test_coherent_input_stays_poisson_without_coupling():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(12, 2),
                     params=CouplerParams())
    ens = evolve_fock(cfg, [InputSpec(xi=0.5), VACUUM_INPUT], 0.7)
    stats = fock_statistics(ens, (ModeId.S1,))
    n = np.arange(len(stats.p_n))
    ref = np.exp(-0.25) * 0.25**n / np.array([math.factorial(int(k)) for k in n])
    assert np.allclose(stats.p_n, ref, atol=1e-10)


def test_thermal_input_is_geometric():
    cfg = FockConfig(modes=(ModeId.A1, ModeId.V1), cutoffs=(2, 14),
                     params=CouplerParams())
    ens = evolve_fock(cfg, [VACUUM_INPUT, InputSpec(n_ch=0.4)], 0.3)
    stats = fock_statistics(ens, (ModeId.V1,))
    q = 0.4 / 1.4
    ref = (1 - q) * q ** np.arange(len(stats.p_n))
    assert np.allclose(stats.p_n, ref / ref.sum(), atol=1e-8)


def test_conservation_in_oracle():
    params = CouplerParams(gS1=0.3, gA1=0.6)
    cfg = FockConfig(modes=(ModeId.S1, ModeId.A1, ModeId.V1),
                     cutoffs=(10, 10, 10), params=params)
    inputs = [InputSpec(xi=0.4j), InputSpec(xi=0.3), InputSpec(n_ch=0.2)]
    balances = []
    for z in (0.0, 0.3, 0.6, 1.0):
        ens = evolve_fock(cfg, inputs, z)
        n = {m: fock_statistics(ens, (m,)).mean_w for m in cfg.modes}
        balances.append(n[ModeId.V1] + n[ModeId.A1] - n[ModeId.S1])
    assert max(abs(b - balances[0]) for b in balances) < 1e-8


def test_norm_preserved():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(12, 12),
                     params=CouplerParams(gS1=0.5))
    ens = evolve_fock(cfg, [InputSpec(xi=0.5), VACUUM_INPUT], 1.0)
    for w, vec in zip(ens.weights, ens.vectors):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_truncation_error_raised():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(2, 2),
                     params=CouplerParams(gS1=1.5))
    with pytest.raises(TruncationError):
        evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 1.0)


def test_truncation_warning_below_hard_limit():
    import warnings as _warnings
    from qcoupler.exceptions import TruncationWarning
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(6, 6),
                     params=CouplerParams(gS1=1.0))
    with pytest.warns(TruncationWarning):
        ens = evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 0.4)
    assert 1e-6 < ens.leak < 1e-4
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 0.2)


@pytest.mark.parametrize("inputs, match", [
    # the first four inputs cannot be made: their specs reject themselves
    (lambda: [VACUUM_INPUT, InputSpec(n_ch=-0.3)], "n_ch must be >= 0, got -0.3"),
    (lambda: [VACUUM_INPUT, InputSpec(n_ch=math.nan)], "n_ch must be finite, got nan"),
    (lambda: [InputSpec(xi=math.inf), VACUUM_INPUT], r"xi must be finite, got \(inf\+0j\)"),
    (lambda: [FockLevel(1.5), VACUUM_INPUT], "a Fock level must be an integer >= 0, got 1.5"),
    (lambda: {ModeId.A1: VACUUM_INPUT}, r"per subsystem mode \(A1, V1\), got 1"),
    (lambda: [VACUUM_INPUT], r"per subsystem mode \(A1, V1\), got 1"),
    (lambda: [VACUUM_INPUT] * 3, r"per subsystem mode \(A1, V1\), got 3"),
    (lambda: [VACUUM_INPUT, None], "V1 input must be an InputSpec or a FockLevel, got None"),
    (lambda: [InputSpec(r=0.3, n_ch=0.2), VACUUM_INPUT], "A1 is both squeezed and chaotic"),
    (lambda: None, "inputs must be an iterable, got None"),
], ids=["negative-n_ch", "nan-n_ch", "inf-xi", "fractional-level",
        "dict-missing-mode", "too-few", "too-many", "none-entry", "squeezed-chaotic", "none"])
def test_bad_inputs_rejected(inputs, match):
    cfg = FockConfig(modes=(ModeId.A1, ModeId.V1), cutoffs=(4, 4),
                     params=CouplerParams(gA1=0.2))
    with pytest.raises(ValidationError, match=match):
        evolve_fock(cfg, inputs(), 0.1)


def test_inputs_normalized_as_for_the_gaussian_state():
    # an InputSpec stores a numeric string as its number, which the oracle
    # prepares as build_input_state builds it
    cfg = FockConfig(modes=(ModeId.A1, ModeId.V1), cutoffs=(4, 12),
                     params=CouplerParams(gA1=0.2))
    as_text = evolve_fock(cfg, [VACUUM_INPUT, InputSpec(n_ch="0.3")], 0.1)
    as_number = evolve_fock(cfg, [VACUUM_INPUT, InputSpec(n_ch=0.3)], 0.1)
    assert np.array_equal(as_text.vectors, as_number.vectors)


@pytest.mark.parametrize("z, match", [
    (math.inf, "z must be finite, got inf"),
    (math.nan, "z must be finite, got nan"),
    (1j, r"z is not a real scalar: 1j"),
], ids=["inf", "nan", "complex"])
def test_bad_length_rejected(z, match):
    cfg = FockConfig(modes=(ModeId.A1, ModeId.V1), cutoffs=(4, 4),
                     params=CouplerParams(gA1=0.2))
    with pytest.raises(ValidationError, match=match):
        evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], z)


@pytest.mark.parametrize("cutoffs", [(2.7, 3), (3, "3"), (3, None)])
def test_config_rejects_non_integral_cutoffs(cutoffs):
    with pytest.raises(ValidationError, match="a cutoff must be an integer in \\[1, 16\\]"):
        FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=cutoffs, params=CouplerParams(gS1=1))


def test_config_takes_numpy_integer_cutoffs():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=np.array([3, 4]),
                     params=CouplerParams(gS1=1))
    assert cfg.cutoffs == (3, 4) and all(type(c) is int for c in cfg.cutoffs)


def test_fock_level_holds_only_a_level():
    # a Fock input has no amplitude, squeezing or chaotic part to ignore
    assert FockLevel(1).n == 1
    with pytest.raises(TypeError):
        FockLevel(1, xi=0.7)
    with pytest.raises(TypeError):
        FockLevel(0, n_ch=0.5)
    level = FockLevel(np.int64(2))
    assert level.n == 2 and type(level.n) is int


def test_statistics_outside_subsystem_rejected():
    cfg = FockConfig(modes=(ModeId.S1, ModeId.V1), cutoffs=(4, 4),
                     params=CouplerParams(gS1=0.2))
    ens = evolve_fock(cfg, [VACUUM_INPUT, VACUUM_INPUT], 0.1)
    for sel in [(ModeId.A1,), (ModeId.S1, ModeId.A1)]:
        with pytest.raises(ValidationError, match=r"mode A1 is outside the subsystem \('S1', 'V1'\)"):
            fock_statistics(ens, sel)
