"""Drift matrix structure, propagator closed forms, state evolution."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qcoupler.cli import run_scenario
from qcoupler.dynamics import (
    BogoliubovTransform,
    build_drift_matrix,
    conservation_residual,
    EvolutionMatrix,
    evolve_state,
    expm,
    photon_number_balance,
    propagator,
    rk4_propagator,
    symplectic_check,
)
from qcoupler.exceptions import ValidationError
from qcoupler.model import (
    EXCHANGE_PERMUTATION,
    GaussianState,
    InputSpec,
    ScenarioConfig,
    VACUUM_INPUT,
    build_input_state,
)

from conftest import (
    PROPERTY_PHASES,
    growth_rate,
    permute_state,
    quiet_params,
    random_couplings,
    random_inputs,
)

S1, A1, V1, S2, A2, V2 = range(6)
# Positions of [U V] off the closed block over x = (S1^+, A1, V1, S2^+, A2, V2):
# row j's U entry k is off the block where exactly one of j, k is a Stokes mode
_STOKES_MODES = np.isin(np.arange(6), (S1, S2))
_OFF_BLOCK = np.hstack([_STOKES_MODES[:, None] != _STOKES_MODES,
                        _STOKES_MODES[:, None] == _STOKES_MODES])


def ann(j):      # doubled-basis row of the annihilator of mode j
    return j


def cre(j):
    return 6 + j


def test_drift_matrix_zero():
    m = build_drift_matrix(quiet_params()).matrix
    assert np.array_equal(m, np.zeros((12, 12)))


def test_drift_matrix_stokes_entries():
    m = build_drift_matrix(quiet_params(gS1=1)).matrix
    expected = np.zeros((12, 12), dtype=complex)
    expected[ann(S1), cre(V1)] = 1
    expected[cre(V1), ann(S1)] = -1
    expected[ann(V1), cre(S1)] = 1
    expected[cre(S1), ann(V1)] = -1
    assert np.array_equal(m, expected)


def test_drift_matrix_kappa_entries():
    m = build_drift_matrix(quiet_params(kappaS=-10)).matrix
    expected = np.zeros((12, 12), dtype=complex)
    expected[ann(S1), ann(S2)] = -10      # kappaS* with real kappa
    expected[ann(S2), ann(S1)] = -10
    expected[cre(S1), cre(S2)] = 10       # conjugate rows carry -kappaS
    expected[cre(S2), cre(S1)] = 10
    assert np.array_equal(m, expected)


def test_drift_matrix_sparsity_and_conjugation_structure():
    rng = np.random.default_rng(0)
    params = random_couplings(rng)
    m = build_drift_matrix(params).matrix
    # radiation rows couple only to their guide's phonon pair and the
    # like radiation mode of the other guide; phonon rows never cross guides
    allowed = np.zeros((12, 12), dtype=bool)
    for guide, (s, a, v) in enumerate([(S1, A1, V1), (S2, A2, V2)]):
        for rad in (s, a):
            for r in (ann(rad), cre(rad)):
                for c in (ann(v), cre(v)):
                    allowed[r, c] = allowed[c, r] = True
        other = [(S2, A2), (S1, A1)][guide]
        for pair in zip((s, a), other):
            for r, c in ((ann(pair[0]), ann(pair[1])), (cre(pair[0]), cre(pair[1]))):
                allowed[r, c] = allowed[c, r] = True
    assert np.all(m[~allowed] == 0)
    # creator rows are the negated conjugates of annihilator rows
    for j in range(6):
        for k in range(6):
            assert m[cre(j), cre(k)] == pytest.approx(-np.conj(m[ann(j), ann(k)]))
            assert m[cre(j), ann(k)] == pytest.approx(-np.conj(m[ann(j), cre(k)]))


def test_drift_matrix_block_form_over_annihilators_then_creators():
    # M = [[K, L], [-L*, -K*]] over (A; A^+), K Hermitian and L symmetric
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = random_couplings(rng)
        m = build_drift_matrix(params).matrix
        k, l = m[:6, :6], m[:6, 6:]
        assert np.array_equal(m[6:, :6], -l.conj()) and np.array_equal(m[6:, 6:], -k.conj())
        assert np.array_equal(k, k.conj().T) and np.array_equal(l, l.T)
        assert k[A1, V1] == params.gA1 and k[S1, S2] == np.conj(params.kappaS)
        assert l[S2, V2] == params.gS2


def test_transform_holds_its_block():
    assert [f.name for f in dataclasses.fields(BogoliubovTransform)] == ["block", "z"]
    block = np.arange(36, dtype=complex).reshape(6, 6) * (1 + 0.5j)    # owns its memory
    t = BogoliubovTransform(block, 0.5)
    # [U V] is T with its Stokes rows conjugated, each entry in U where its row
    # and column modes are both Stokes or both not, in V otherwise
    same = _STOKES_MODES[:, None] == _STOKES_MODES
    tilde = np.where(_STOKES_MODES[:, None], block.conj(), block)
    assert np.array_equal(t.U, np.where(same, tilde, 0))
    assert np.array_equal(t.V, np.where(same, 0, tilde))
    assert np.array_equal(t.rows, np.hstack([t.U, t.V]))
    assert not (t.rows.flags.writeable or t.U.flags.writeable or t.V.flags.writeable)
    # a writeable array is copied and stays the caller's
    assert block.flags.writeable and not np.shares_memory(t.block, block)
    block[0, 0] = -1.0
    assert t.block[0, 0] == 0.0
    # a read-only array whose memory no writeable array holds is taken over
    block.setflags(write=False)
    assert BogoliubovTransform(block, 0.5).block is block
    view = block[None]
    assert BogoliubovTransform(view, [0.5]).block is view
    # a read-only view of writeable memory is copied
    owner = np.zeros((6, 6), dtype=complex)
    ro = owner[:]
    ro.setflags(write=False)
    assert BogoliubovTransform(ro, 0.0).block is not ro
    for bad in (np.zeros((6, 12)), np.zeros(6), np.zeros((12, 12))):
        with pytest.raises(ValidationError):
            BogoliubovTransform(bad, 0.0)
    with pytest.raises(ValidationError):
        BogoliubovTransform(np.zeros((3, 6, 6)), 0.0)     # one z per transform
    with pytest.raises(ValidationError):
        EvolutionMatrix(np.zeros((6, 6)))


def test_malformed_transform_input_is_a_validation_error():
    t = propagator(build_drift_matrix(random_couplings(np.random.default_rng(9))),
                   np.linspace(0.0, 1.0, 5))
    for bad in (np.zeros((6, 12)), np.zeros((12, 6)), np.zeros((5, 12, 13))):
        with pytest.raises(ValidationError, match="expected array of shape"):
            BogoliubovTransform.from_doubled(bad, 0.0)
    for bad in (np.zeros((6, 6)), np.zeros(12)):
        with pytest.raises(ValidationError, match="expected array of shape"):
            BogoliubovTransform.from_rows(bad, 0.0)
    with pytest.raises(ValidationError):
        BogoliubovTransform.from_rows(t.rows, 0.0)            # one z per transform
    # S1 couples to A1^+ only: U[S1, A1] lies off the block, as does V[V1, V1]
    rows = np.array(t.rows)
    rows[3, S1, A1] = 1e-9
    with pytest.raises(ValidationError, match=f"off the closed block at z={t.z[3]}$"):
        BogoliubovTransform.from_rows(rows, t.z)
    rows[1, V1, 6 + V1] = 1e-300
    with pytest.raises(ValidationError, match=f"off the closed block at z={t.z[1]}$"):
        BogoliubovTransform.from_rows(rows, t.z)
    doubled = t.doubled()
    doubled[4, A2, S2] = np.nan
    with pytest.raises(ValidationError, match=f"off the closed block at z={t.z[4]}$"):
        BogoliubovTransform.from_doubled(doubled, t.z)


def test_doubled_round_trip():
    t = propagator(build_drift_matrix(random_couplings(np.random.default_rng(8))),
                   np.linspace(0.0, 1.0, 4))
    doubled = t.doubled()
    assert np.array_equal(doubled[..., 6:, :6], t.V.conj())
    assert np.array_equal(doubled[..., 6:, 6:], t.U.conj())
    assert np.array_equal(BogoliubovTransform.from_doubled(doubled, t.z).rows, t.rows)
    assert np.array_equal(BogoliubovTransform.from_doubled(doubled, t.z).block, t.block)


def test_propagator_zero_matrix_is_identity():
    t = propagator(build_drift_matrix(quiet_params()), 3.7)
    assert np.allclose(t.U, np.eye(6)) and np.allclose(t.V, 0)


def test_propagator_two_mode_squeezing_closed_form():
    g, z = 0.8, 0.7
    t = propagator(build_drift_matrix(quiet_params(gS1=g)), z)
    assert t.U[S1, S1] == pytest.approx(np.cosh(g * z), abs=1e-12)
    assert t.V[S1, V1] == pytest.approx(1j * np.sinh(g * z), abs=1e-12)
    assert t.U[V1, V1] == pytest.approx(np.cosh(g * z), abs=1e-12)
    assert t.V[V1, S1] == pytest.approx(1j * np.sinh(g * z), abs=1e-12)


def test_propagator_beam_splitter_closed_form():
    g, z = 0.5, 1.3
    t = propagator(build_drift_matrix(quiet_params(gA1=g)), z)
    assert t.U[A1, A1] == pytest.approx(np.cos(g * z), abs=1e-12)
    assert t.U[A1, V1] == pytest.approx(1j * np.sin(g * z), abs=1e-12)
    assert np.allclose(t.V[[A1, V1]], 0, atol=1e-14)


def test_symplectic_residual_random():
    # the identities cancel entries of size |U|, so the attainable floor
    # in doubles scales with |U|^2; demand it absolutely on bounded
    # transforms and relative to that scale on growing ones
    rng = np.random.default_rng(42)
    for _ in range(30):
        params = random_couplings(rng, mag=3.0)
        em = build_drift_matrix(params)
        for z in (0.1, 1.0, 5.0):
            t = propagator(em, z)
            residual = symplectic_check(t).residual
            scale = max(1.0, float(np.max(np.abs(t.U))) ** 2)
            assert residual < 1e-10 * scale
            if scale < 1e4:
                assert residual < 1e-10


def test_symplectic_residual_identity_and_hyperbolic():
    assert symplectic_check(BogoliubovTransform(np.eye(6), 0.0)).residual == 0.0
    t = propagator(build_drift_matrix(quiet_params(gS1=1.0)), 2.0)
    assert symplectic_check(t).residual < 1e-12     # cosh^2 - sinh^2 = 1


def test_semigroup_composition():
    rng = np.random.default_rng(7)
    for _ in range(10):
        em = build_drift_matrix(random_couplings(rng))
        z1, z2 = rng.uniform(0.1, 2.0, 2)
        direct = propagator(em, z1 + z2)
        # applying the z1 transform and then the z2 one: [U V] times the
        # doubled propagator of the first
        chained = propagator(em, z2).rows @ propagator(em, z1).doubled()
        assert np.max(np.abs(direct.U - chained[:, :6])) < 1e-9
        assert np.max(np.abs(direct.V - chained[:, 6:])) < 1e-9
        # and on the closed block, T(z1 + z2) = T(z2) T(z1)
        chained = propagator(em, z2).block @ propagator(em, z1).block
        assert np.max(np.abs(direct.block - chained)) < 1e-9


def test_evolve_state_semigroup_over_a_grid():
    """Evolving to z1 and then over a grid of z2 equals evolving to z1 + z2.
    The second leg starts from a state with cross-mode moments."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        em = build_drift_matrix(random_couplings(rng))
        s0 = build_input_state(random_inputs(rng))
        z1, z2 = rng.uniform(0.1, 1.0), np.linspace(0.0, 1.0, 7)
        chained = evolve_state(propagator(em, z2), evolve_state(propagator(em, z1), s0))
        direct = evolve_state(propagator(em, z1 + z2), s0)
        for name in ("xi", "B", "C", "D", "Dbar"):
            a, b = getattr(chained, name), getattr(direct, name)
            assert np.all(np.abs(a - b) <= 1e-11 * np.maximum(1.0, np.abs(b))), name


def test_waveguide_exchange_symmetry():
    rng = np.random.default_rng(3)
    perm = np.asarray(EXCHANGE_PERMUTATION)
    for _ in range(10):
        params = random_couplings(rng)
        t = propagator(build_drift_matrix(params), 1.3)
        t_swapped = propagator(build_drift_matrix(params.swapped()), 1.3)
        assert np.max(np.abs(t_swapped.U - t.U[np.ix_(perm, perm)])) < 1e-12
        assert np.max(np.abs(t_swapped.V - t.V[np.ix_(perm, perm)])) < 1e-12


def test_evolve_identity_keeps_state():
    rng = np.random.default_rng(1)
    s0 = build_input_state(random_inputs(rng))
    s1 = evolve_state(BogoliubovTransform(np.eye(6), 0.0), s0)
    assert np.allclose(s1.xi, s0.xi) and np.allclose(s1.B, s0.B)
    assert np.allclose(s1.C, s0.C)


def test_evolve_keeps_entries_beyond_half_the_double_range():
    # restoring N's and M's exact symmetries sums each entry with its
    # transpose's: 2 * 9e307 is beyond the double range, half of each is not
    inputs = [InputSpec(n_ch=9e307)] + [VACUUM_INPUT] * 5
    s = evolve_state(propagator(build_drift_matrix(quiet_params()), 0.0),
                     build_input_state(inputs))
    assert s.N[S1, S1] == 9e307 and np.isfinite(s.N).all()
    big = np.diag([1.6e308, 0.0, 0.0, 0.0, 0.0, 0.0])
    s = evolve_state(BogoliubovTransform(np.eye(6), 0.0),
                     GaussianState(xi=np.zeros(6), N=big, M=0.9 * big))
    assert s.N[S1, S1] == 1.6e308 and s.M[S1, S1] == 0.9 * 1.6e308


def test_evolve_stokes_vacuum_closed_form():
    g, z = 0.8, 0.6
    t = propagator(build_drift_matrix(quiet_params(gS1=g)), z)
    s = evolve_state(t, build_input_state([VACUUM_INPUT] * 6))
    sh, ch = np.sinh(g * z), np.cosh(g * z)
    assert s.B[S1] == pytest.approx(sh**2, abs=1e-12)
    assert s.D[S1, V1] == pytest.approx(1j * sh * ch, abs=1e-12)
    assert np.allclose(s.C, 0, atol=1e-14)


def test_evolve_coherent_amplitudes():
    g, z = 1.0, 0.4
    t = propagator(build_drift_matrix(quiet_params(gS1=g)), z)
    inputs = [VACUUM_INPUT] * 6
    inputs[S1] = InputSpec(xi=2j)
    s = evolve_state(t, build_input_state(inputs))
    assert s.xi[S1] == pytest.approx(2j * np.cosh(g * z), abs=1e-12)
    assert s.xi[V1] == pytest.approx(2 * np.sinh(g * z), abs=1e-12)
    assert abs(s.xi[S1]) ** 2 == pytest.approx(4 * np.cosh(g * z) ** 2)


def test_evolve_preserves_physicality():
    rng = np.random.default_rng(23)
    for _ in range(20):
        em = build_drift_matrix(random_couplings(rng))
        s0 = build_input_state(random_inputs(rng))
        s1 = evolve_state(propagator(em, rng.uniform(0.1, 2.0)), s0)
        scale = max(1.0, float(np.max(s1.B)))
        assert s1.min_covariance_eigenvalue() >= -1e-9 * scale
        assert np.allclose(s1.D, s1.D.T)
        assert np.allclose(s1.Dbar, s1.Dbar.conj().T)


def test_conservation_vacuum_and_coherent():
    rng = np.random.default_rng(9)
    for _ in range(5):
        em = build_drift_matrix(random_couplings(rng))
        s0 = build_input_state(random_inputs(rng, squeezed=False))
        traj = evolve_state(propagator(em, np.linspace(0, 2, 40)), s0)
        assert conservation_residual(traj) < 1e-9


def test_conservation_stokes_vacuum_is_exactly_balanced():
    em = build_drift_matrix(quiet_params(gS1=1.0))
    s0 = build_input_state([VACUUM_INPUT] * 6)
    for z in (0.5, 1.0, 2.0):
        s = evolve_state(propagator(em, z), s0)
        # sinh^2 gained on the phonon side cancels the Stokes gain
        assert photon_number_balance(s) == pytest.approx(0.0, abs=1e-10)


def test_conservation_zero_params_exact():
    em = build_drift_matrix(quiet_params())
    s0 = build_input_state([VACUUM_INPUT] * 6)
    traj = evolve_state(propagator(em, np.linspace(0, 1, 5)), s0)
    assert conservation_residual(traj) == 0.0


def test_expm_of_zero_is_exactly_identity():
    assert np.array_equal(expm(np.zeros((3, 12, 12), dtype=complex)),
                          np.broadcast_to(np.eye(12), (3, 12, 12)))


@pytest.mark.parametrize("t", [0.5, 4.0, 40.0])
def test_expm_jordan_block_closed_form(t):
    # defective: exp(t (lam I + N)) = e^(lam t) sum_k (t N)^k / k!, N the shift
    lam = -0.5 + 1j
    block = t * (lam * np.eye(12) + np.eye(12, k=1))
    ref = np.zeros((12, 12), dtype=complex)
    for i in range(12):
        for j in range(i, 12):
            ref[i, j] = np.exp(lam * t) * t ** (j - i) / math.factorial(j - i)
    out = expm(block[None])[0]
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(np.tril(out, -1) == 0.0)


@settings(max_examples=60, deadline=None, phases=PROPERTY_PHASES)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 50),
       top=st.floats(-3.0, 2.0), spread=st.floats(0.0, 4.0))
def test_expm_matches_scipy_on_mixed_norm_stacks(seed, count, top, spread):
    """Random complex 12x12 stacks with 1-norms up to 100, spread over up
    to four decades within a stack, so the number of squarings differs
    from matrix to matrix."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, 12, 12)) + 1j * rng.normal(size=(count, 12, 12))
    norms = 10.0 ** rng.uniform(top - spread, top, count)
    a *= (norms / np.max(np.sum(np.abs(a), axis=-2), axis=-1))[:, None, None]
    ref = scipy.linalg.expm(a)
    err = np.max(np.abs(expm(a) - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert np.max(err) <= 1e-13


def test_propagator_at_zero_is_identity():
    em = build_drift_matrix(random_couplings(np.random.default_rng(5)))
    for t in (propagator(em, 0.0), propagator(em, np.zeros(4))):
        assert np.array_equal(t.U, np.broadcast_to(np.eye(6), t.U.shape))
        assert np.array_equal(t.V, np.zeros_like(t.V))


def test_rk4_matches_matrix_exponential():
    params = quiet_params(gS1=1, gA1=2, kappaS=1, kappaA=-1, gS2=1, gA2=2)
    em = build_drift_matrix(params)
    t_rk = rk4_propagator(em, 1.0, h=1e-3)
    t_ex = propagator(em, 1.0)
    assert np.max(np.abs(t_rk.U - t_ex.U)) < 1e-10
    assert np.max(np.abs(t_rk.V - t_ex.V)) < 1e-10


# Couplings on and near exceptional points, where the generator is (close
# to) defective: kappa = 2r with r^2 = |gS|^2 - |gA|^2 merges eigenvalues
# of the guide pair, and |gS| = |gA| zeroes r.
EXCEPTIONAL_POINTS = {
    "kS=2": dict(gS1=1, gS2=1, kappaS=2),
    "kS=2+1e-9": dict(gS1=1, gS2=1, kappaS=2 + 1e-9),
    "kS=2+1e-6": dict(gS1=1, gS2=1, kappaS=2 + 1e-6),
    "gS=sqrt2,gA=1,k=+-2": dict(gS1=np.sqrt(2), gA1=1, gS2=np.sqrt(2), gA2=1,
                                kappaS=2, kappaA=-2),
    "gS=gA,k=0.5": dict(gS1=1, gA1=1, gS2=1, gA2=1, kappaS=0.5, kappaA=0.5),
    "gS=gA+1e-9,k=0.5": dict(gS1=1, gA1=1 + 1e-9, gS2=1, gA2=1 + 1e-9,
                             kappaS=0.5, kappaA=0.5),
}
EP_GRID = np.linspace(0.0, 5.0, 500)
# block edges of a 500-point grid (blocks of 23) and its ragged last block
EP_SAMPLES = (1, 22, 23, 261, 483, 499)


@pytest.mark.parametrize("couplings", EXCEPTIONAL_POINTS.values(), ids=EXCEPTIONAL_POINTS)
def test_propagator_matches_mpmath_near_exceptional_points(couplings):
    em = build_drift_matrix(quiet_params(**couplings))
    grid = propagator(em, EP_GRID)
    scalar = propagator(em, EP_GRID[-1])
    with mp.workdps(50):
        gen = mp.matrix((1j * em.matrix).tolist())
        refs = {i: np.array(mp.expm(gen * mp.mpf(EP_GRID[i])).tolist(), dtype=complex)
                for i in EP_SAMPLES}

    def rel_error(mat, ref):
        return np.max(np.abs(mat - ref)) / np.max(np.abs(ref))

    assert rel_error(scalar.doubled(), refs[len(EP_GRID) - 1]) <= 1e-13
    doubled = grid.doubled()
    for i, ref in refs.items():
        assert rel_error(doubled[i], ref) <= 1e-13, i
    assert symplectic_check(scalar).residual <= 1e-12
    assert symplectic_check(grid).residual <= 1e-12


@pytest.mark.filterwarnings("ignore::qcoupler.exceptions.ParameterRegimeWarning")
def test_scaled_symplectic_residual_stays_at_roundoff_as_the_gain_grows():
    # |gS| = |gA|, kappa = 0.5: max|U| reaches 24 at z = 5, and roundoff
    # alone takes the absolute violation to several 1e-13
    couplings = EXCEPTIONAL_POINTS["gS=gA,k=0.5"]
    cfg = ScenarioConfig(params=quiet_params(**couplings), z_max=5.0, z_steps=500)
    t = propagator(build_drift_matrix(cfg.params), cfg.z_grid())
    check = symplectic_check(t)
    assert 20.0 < np.max(np.abs(t.U)) < 30.0
    assert check.scaled < 1e-13 < check.residual
    meta = dict(run_scenario(cfg).metadata)
    assert meta["max_symplectic_residual"] == f"{check.residual:.6e}"
    assert meta["max_symplectic_residual_scaled"] == f"{check.scaled:.6e}"


def test_grid_arrays_are_views_of_one_allocation():
    em = build_drift_matrix(quiet_params(gS1=0.5, gA1=1.0, kappaS=0.3))
    t = propagator(em, np.linspace(0.0, 1.0, 50))
    # T is a read-only view of the one array the propagator wrote (56
    # points: 7 heads of 8 steps), taken over without a copy
    owner = t.block
    while owner.base is not None:
        owner = owner.base
    assert t.block.shape == (50, 6, 6) and not t.block.flags.writeable
    assert owner is not t.block and not owner.flags.writeable
    assert t.block.nbytes <= owner.nbytes < 2 * t.block.nbytes
    assert BogoliubovTransform(t.block, t.z).block is t.block
    # the derived rows vanish off the block and give T back exactly; only
    # the sign of a zero can differ, which the masked product does not keep
    assert np.all(t.rows[:, _OFF_BLOCK] == 0.0)
    assert np.array_equal(BogoliubovTransform.from_rows(t.rows, t.z).block, t.block)
    s = evolve_state(t, build_input_state(random_inputs(np.random.default_rng(4))))
    assert s.N.base is not None and s.N.base is s.M.base    # one array of two planes
    assert np.array_equal(s.z, t.z)
    # a state takes read-only arrays over, and copies writeable ones
    n = np.zeros((6, 6), dtype=complex)
    copied = GaussianState(xi=np.zeros(6), N=n, M=n)
    n[0, 0] = 1.0
    assert copied.N[0, 0] == 0.0 and not np.shares_memory(copied.N, n)
    n.setflags(write=False)
    assert GaussianState(xi=np.zeros(6), N=n, M=n).N is n


_stable_mags = st.tuples(st.floats(0.0, 1.0), st.floats(0.3, 1.0),
                         st.floats(0.0, 1.0), st.floats(0.3, 1.0),
                         st.floats(0.0, 1.5), st.floats(0.0, 1.5))
# evenly spaced grids whose last block is ragged (Z = 7, 50, 101) or full
# (Z = 2), and quadratically spaced ones, which take one exponential per point
_grids = st.one_of(
    st.builds(lambda start, span, n: np.linspace(start, start + span, n),
              st.floats(0.0, 1.0), st.floats(0.01, 2.0), st.sampled_from([2, 7, 50, 101])),
    st.builds(lambda start, span, n: start + span * np.linspace(0.0, 1.0, n) ** 2,
              st.floats(0.0, 1.0), st.floats(0.01, 2.0), st.integers(3, 12)),
)


@settings(max_examples=40, deadline=None, phases=PROPERTY_PHASES)
@given(mags=_stable_mags, phases=st.lists(st.floats(-3.1, 3.1), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1), zs=_grids)
def test_grid_route_equals_per_point_route(mags, phases, seed, zs):
    """The stacked transforms, state and residuals of a grid equal those of
    the lengths taken one at a time (scalar z), to 1e-13 max(1, max|U|^2)."""
    gs1, excess1, gs2, excess2, ks, ka = mags
    g = [m * np.exp(1j * p)
         for m, p in zip((gs1, gs1 + excess1, gs2, gs2 + excess2, ks, ka), phases)]
    em = build_drift_matrix(quiet_params(gS1=g[0], gA1=g[1], gS2=g[2], gA2=g[3],
                                         kappaS=g[4], kappaA=g[5]))
    assume(growth_rate(em) <= 1e-9)   # no gain
    s0 = build_input_state(random_inputs(np.random.default_rng(seed)))
    grid_t = propagator(em, zs)
    grid = evolve_state(grid_t, s0)
    point_t = [propagator(em, z) for z in zs]
    points = [evolve_state(t, s0) for t in point_t]
    tol = 1e-13 * max(1.0, float(np.max(np.abs(grid_t.U))) ** 2)
    for name in ("U", "V"):
        stacked = np.stack([getattr(t, name) for t in point_t])
        assert np.max(np.abs(getattr(grid_t, name) - stacked)) <= tol, name
    stacked = GaussianState(*(np.stack([getattr(p, f) for p in points]) for f in ("xi", "N", "M")),
                            z=zs)
    for name in ("xi", "N", "M"):
        assert np.max(np.abs(getattr(grid, name) - getattr(stacked, name))) <= tol, name
    grid_check, point_checks = symplectic_check(grid_t), [symplectic_check(t) for t in point_t]
    assert abs(grid_check.residual - max(c.residual for c in point_checks)) <= tol
    assert abs(grid_check.scaled - max(c.scaled for c in point_checks)) <= 1e-13
    assert abs(conservation_residual(grid) - conservation_residual(stacked)) <= tol


def test_permute_state_round_trip():
    rng = np.random.default_rng(2)
    s0 = build_input_state(random_inputs(rng))
    em = build_drift_matrix(random_couplings(rng))
    s = evolve_state(propagator(em, 0.7), s0)
    back = permute_state(permute_state(s))
    assert np.array_equal(back.D, s.D) and np.array_equal(back.xi, s.xi)


# (gS, gA) of one guide: |gA| = |gS|(1 + delta) with delta from 1e-9 to
# 1e-2 (near the exceptional point |gA| = |gS|), or |gA| < |gS| (gain)
_guide = st.tuples(
    st.floats(0.05, 1.0),
    st.one_of(st.floats(-9.0, -2.0).map(lambda e: 1.0 + 10.0**e), st.floats(0.0, 0.99)),
    st.floats(-3.1, 3.1), st.floats(-3.1, 3.1))
_kappa = st.tuples(st.floats(0.0, 1.5), st.floats(-3.1, 3.1))
# up to 50 points over z <= 50: evenly spaced (blocks of heads and steps)
# or uneven (one exponential per point)
_long_grids = st.one_of(
    st.builds(lambda span, n: np.linspace(0.0, span, n), st.floats(0.1, 50.0), st.integers(2, 50)),
    st.builds(lambda span, n: span * np.linspace(0.0, 1.0, n) ** 2,
              st.floats(0.1, 50.0), st.integers(3, 50)),
)

def _bogoliubov_violation(t):
    """Each transform's max-norm violation of U U^H - V V^H = I and
    U V^T = V U^T, written out over all twelve columns."""
    u, v = t.U, t.V
    first = u @ u.conj().swapaxes(-1, -2) - v @ v.conj().swapaxes(-1, -2) - np.eye(6)
    second = u @ v.swapaxes(-1, -2) - v @ u.swapaxes(-1, -2)
    return np.maximum(np.max(np.abs(first), axis=(-2, -1)), np.max(np.abs(second), axis=(-2, -1)))


@pytest.mark.filterwarnings("ignore::qcoupler.exceptions.ParameterRegimeWarning")
@settings(max_examples=60, deadline=None, phases=PROPERTY_PHASES)
@given(guides=st.tuples(_guide, _guide), kappas=st.tuples(_kappa, _kappa), zs=_long_grids,
       spot=st.tuples(st.integers(0, 49), st.integers(0, 35)))
def test_block_route_keeps_the_bogoliubov_identities(guides, kappas, zs, spot):
    """The propagator's rows vanish off the closed block; the check on the
    block agrees with both twelve-wide identities to 16 ulps of its scale,
    and rows with a 1e-9 entry off the block make no transform."""
    (gs1, r1, ps1, pa1), (gs2, r2, ps2, pa2) = guides
    (ks, pks), (ka, pka) = kappas
    em = build_drift_matrix(quiet_params(
        gS1=gs1 * np.exp(1j * ps1), gA1=gs1 * r1 * np.exp(1j * pa1),
        gS2=gs2 * np.exp(1j * ps2), gA2=gs2 * r2 * np.exp(1j * pa2),
        kappaS=ks * np.exp(1j * pks), kappaA=ka * np.exp(1j * pka)))
    t = propagator(em, zs)
    assert np.all(t.rows[:, _OFF_BLOCK] == 0.0)
    check = symplectic_check(t)
    scale = np.maximum(1.0, np.max(np.abs(t.U), axis=(-2, -1)) ** 2)
    eps = np.finfo(float).eps
    assert np.all(np.abs(check.each * scale - _bogoliubov_violation(t)) <= 16 * eps * scale)
    assert abs(check.residual - np.max(_bogoliubov_violation(t))) <= 16 * eps * np.max(scale)
    point, entry = spot[0] % zs.size, spot[1]
    rows = np.array(t.rows)
    rows[point][_OFF_BLOCK] += np.where(np.arange(36) == entry, 1e-9, 0.0)
    with pytest.raises(ValidationError, match=f"off the closed block at z={zs[point]}$"):
        BogoliubovTransform.from_rows(rows, t.z)


def test_drift_matrix_must_close_on_the_block():
    m = np.array(build_drift_matrix(quiet_params(gS1=1, kappaS=0.5)).matrix)
    assert np.array_equal(EvolutionMatrix(m).matrix, m)
    coupled = m.copy()
    coupled[ann(S1), ann(V1)] = 1e-3        # S1 to V1 leaves the block of S1^+ and V1
    unpaired = m.copy()
    unpaired[cre(S1), ann(V1)] = 0.0        # the conjugate block no longer mirrors the block
    for bad in (coupled, unpaired):
        with pytest.raises(ValidationError):
            EvolutionMatrix(bad)
