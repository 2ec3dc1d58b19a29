"""Drift matrix structure, propagator closed forms, state evolution."""

import mpmath as mp
import numpy as np
import pytest

from qcoupler.dynamics import (
    BogoliubovTransform,
    build_drift_matrix,
    conservation_residual,
    evolve_state,
    photon_number_balance,
    propagator,
    rk4_propagator,
    symplectic_residual,
)
from qcoupler.model import (
    EXCHANGE_PERMUTATION,
    InputSpec,
    VACUUM_INPUT,
    build_input_state,
    permute_state,
)

from conftest import quiet_params, random_couplings, random_inputs

S1, A1, V1, S2, A2, V2 = range(6)


def ann(j):      # doubled-basis row of the annihilator of mode j
    return 2 * j


def cre(j):
    return 2 * j + 1


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
            residual = symplectic_residual(t)
            scale = max(1.0, float(np.max(np.abs(t.U))) ** 2)
            assert residual < 1e-10 * scale
            if scale < 1e4:
                assert residual < 1e-10


def test_symplectic_residual_identity_and_hyperbolic():
    assert symplectic_residual(BogoliubovTransform.identity()) == 0.0
    t = propagator(build_drift_matrix(quiet_params(gS1=1.0)), 2.0)
    assert symplectic_residual(t) < 1e-12     # cosh^2 - sinh^2 = 1


def test_semigroup_composition():
    rng = np.random.default_rng(7)
    for _ in range(10):
        em = build_drift_matrix(random_couplings(rng))
        z1, z2 = rng.uniform(0.1, 2.0, 2)
        direct = propagator(em, z1 + z2)
        chained = propagator(em, z2).compose(propagator(em, z1))
        assert np.max(np.abs(direct.U - chained.U)) < 1e-9
        assert np.max(np.abs(direct.V - chained.V)) < 1e-9


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
    s1 = evolve_state(BogoliubovTransform.identity(), s0)
    assert np.allclose(s1.xi, s0.xi) and np.allclose(s1.B, s0.B)
    assert np.allclose(s1.C, s0.C)


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
        traj = [evolve_state(propagator(em, z), s0) for z in np.linspace(0, 2, 40)]
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
    traj = [evolve_state(propagator(em, z), s0) for z in np.linspace(0, 1, 5)]
    assert conservation_residual(traj) == 0.0


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
    assert symplectic_residual(scalar) <= 1e-12
    assert symplectic_residual(grid) <= 1e-12


def test_permute_state_round_trip():
    rng = np.random.default_rng(2)
    s0 = build_input_state(random_inputs(rng))
    em = build_drift_matrix(random_couplings(rng))
    s = evolve_state(propagator(em, 0.7), s0)
    back = permute_state(permute_state(s))
    assert np.array_equal(back.D, s.D) and np.array_equal(back.xi, s.xi)
