import numpy as np
import pytest

from pseudobath.dynamics import (
    NormExceededError,
    Trajectory,
    evolve,
    evolve_chunks,
    evolve_group,
    observables,
)
from pseudobath.model import BathModel, InitialState, LorentzPeak, SystemHamiltonian
from pseudobath.pseudomode import build_effective_hamiltonian


def scalar_setup(g, gamma, epsilon=0.0, e0=0.0):
    h = SystemHamiltonian(np.array([[e0]]))
    bath = BathModel(peaks=(LorentzPeak(g=g, gamma=gamma, epsilon=epsilon),))
    init = InitialState(psi=np.array([1.0 + 0.0j]), psi0=0.0)
    return h, bath, init


def rho_at(psi, init):
    """Reduced density matrix of the system amplitudes psi, through
    ``observables`` on a one-point trajectory."""
    psi = np.asarray(psi, dtype=complex)
    traj = Trajectory(times=np.array([0.0]), n=psi.size, k=0, vectors=psi[np.newaxis])
    return observables(traj, init.psi0)[1][0]


class TestEvolve:
    def test_pseudomodes_start_at_zero(self):
        h, bath, init = scalar_setup(0.5, 0.2)
        traj = evolve(h, bath, init, 1.0, 11)
        assert np.linalg.norm(traj.vectors[0, 1:2]) == 0.0
        np.testing.assert_array_equal(traj.states[0], init.psi)

    def test_decoupled_limit_constant(self):
        h, bath, init = scalar_setup(1e-12, 1.0)
        traj = evolve(h, bath, init, 1.0, 11)
        sys = traj.states
        assert np.abs(sys - sys[0]).max() < 1e-9

    def test_rabi_limit_tiny_width(self):
        # gamma -> 0: the system-pseudomode pair is a bare two-level rotation
        h, bath, init = scalar_setup(1.0, 1e-9)
        traj = evolve(h, bath, init, np.pi / 2, 2)
        assert abs(np.linalg.norm(traj.states[-1]) - abs(np.cos(np.pi / 2))) < 1e-4

    def test_matches_matrix_exponential(self):
        h, bath, init = scalar_setup(0.5, 0.2)
        traj = evolve(h, bath, init, 10.0, 11)
        rows = [0, 1, 5, 10]
        lam, v = np.linalg.eig(build_effective_hamiltonian(h, bath))
        c = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
        for t, vector in zip(traj.times[rows], traj.vectors[rows]):
            exact = v @ (np.exp(-1j * lam * t) * c)
            assert np.abs(vector - exact).max() < 1e-8

    def test_renormalized_initial_condition(self):
        h = SystemHamiltonian(np.array([[1.0]]))
        bath = BathModel(peaks=(LorentzPeak(0.5, 1.0, 0.0),), eta=1.0)
        init = InitialState(psi=np.array([1.0 + 0.0j]), psi0=0.0)
        scaled = evolve(h, bath, init, 1.0, 3)
        f = 1.0 / (1.0 + 0.5j)
        assert scaled.states[0, 0] == pytest.approx(f)

    def test_empty_bath_closed_evolution(self):
        h = SystemHamiltonian(np.array([[0.0, 0.4], [0.4, 1.0]]))
        init = InitialState(psi=np.array([0.6, 0.8j]), psi0=0.0)
        traj = evolve(h, BathModel(), init, 2.0, 5)
        assert traj.vectors.shape == (5, 2)
        assert traj.k == 0
        np.testing.assert_array_equal(traj.vectors[0], init.psi)
        np.testing.assert_array_equal(traj.states, traj.vectors)
        np.testing.assert_allclose(np.linalg.norm(traj.vectors, axis=1), 1.0, atol=1e-9)


def random_point(rng, n, k, eta):
    """A random (h, bath, init) triple with N levels and K peaks."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    peaks = tuple(
        LorentzPeak(g=rng.uniform(0.1, 0.8), gamma=rng.uniform(0.2, 1.5), epsilon=rng.uniform(-1, 1))
        for _ in range(k)
    )
    psi = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    psi /= np.linalg.norm(psi)
    init = InitialState(psi=psi[1:], psi0=psi[0])
    return SystemHamiltonian(0.5 * (x + x.conj().T)), BathModel(peaks=peaks, eta=eta), init


class TestGroup:
    """A group of points propagated as one stack gives each point the bits
    it has alone."""

    @pytest.mark.parametrize(
        "n, k, t_max, points", [(1, 2, 5.0, 201), (3, 1, 2.0, 37), (2, 0, 1.0, 2), (2, 3, 20.0, 5001)]
    )
    def test_group_matches_each_point_alone_bitwise(self, n, k, t_max, points):
        rng = np.random.default_rng(n * 100 + k)
        models = [random_point(rng, n, k, eta) for eta in (0.0, 0.3, 0.0, 1.0)]
        group = list(evolve_group(models, t_max, points))
        for p, (h, bath, init) in enumerate(models):
            alone = list(evolve_chunks(h, bath, init, t_max, points))
            assert len(alone) == len(group)  # 5001 points take two pieces
            for piece, own in zip(group, alone):
                assert piece[p].times.tobytes() == own.times.tobytes()
                assert piece[p].vectors.tobytes() == own.vectors.tobytes()

    def test_stacked_rows_match_each_point_bitwise(self):
        rng = np.random.default_rng(5)
        models = [random_point(rng, 2, 2, 0.0) for _ in range(3)]  # eta = 0: dilatable
        (piece,) = evolve_group(models, 4.0, 41)
        stacked = Trajectory(
            times=np.tile(piece[0].times, 3), n=2, k=2,
            vectors=np.concatenate([traj.vectors for traj in piece]),
        )
        excited, rho = observables(stacked, np.repeat([init.psi0 for _, _, init in models], 41))
        for p, ((_, _, init), traj) in enumerate(zip(models, piece)):
            own_excited, own_rho = observables(traj, init.psi0)
            assert excited[p * 41 : (p + 1) * 41].tobytes() == own_excited.tobytes()
            assert rho[p * 41 : (p + 1) * 41].tobytes() == own_rho.tobytes()

    def test_points_of_a_group_share_n_and_k(self):
        rng = np.random.default_rng(3)
        models = [random_point(rng, 2, 1, 0.0), random_point(rng, 2, 2, 0.0)]
        with pytest.raises(ValueError, match="N=2, K=2 in a group with N=2, K=1"):
            next(evolve_group(models, 1.0, 5))


class TestReducedDensity:
    def test_theorem_substitution(self):
        init = InitialState(psi=np.array([0.6]), psi0=0.8)
        rho = rho_at(np.array([0.6 + 0.0j]), init)
        np.testing.assert_allclose(rho, np.array([[0.64, 0.48], [0.48, 0.36]]), atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_full_decay_is_pure_ground(self):
        init = InitialState(psi=np.array([1.0, 0.0]), psi0=0.0)
        rho = rho_at(np.zeros(2, dtype=complex), init)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_initial_excited_state_rank_one(self):
        psi = np.array([0.6, 0.8j])
        init = InitialState(psi=psi, psi0=0.0)
        rho = rho_at(psi.astype(complex), init)
        assert rho[0, 0] == pytest.approx(0.0, abs=1e-15)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        np.testing.assert_allclose(eigs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_norm_overflow_rejected(self):
        init = InitialState(psi=np.array([1.0]), psi0=0.0)
        with pytest.raises(NormExceededError):
            rho_at(np.array([1.1 + 0.0j]), init)


class TestObservables:
    def test_initial_population(self):
        h, bath, init = scalar_setup(0.5, 0.2)
        traj = evolve(h, bath, init, 1.0, 5)
        excited, rho = observables(traj, init.psi0)
        assert excited[0] == pytest.approx(1.0)
        for e, ground in zip(excited, rho[:, 0, 0].real):
            assert e + ground == pytest.approx(1.0, abs=0.0)

    def test_closed_system_population_constant(self):
        h = SystemHamiltonian(np.array([[0.0, 0.4], [0.4, 1.0]]))
        init = InitialState(psi=np.array([1.0, 0.0], dtype=complex), psi0=0.0)
        traj = evolve(h, BathModel(), init, 10.0, 41)
        pops, _ = observables(traj, init.psi0)
        assert max(abs(p - 1.0) for p in pops) < 1e-9

    def test_dissipative_population_decays(self):
        h, bath, init = scalar_setup(0.5, 1.0)
        traj = evolve(h, bath, init, 20.0, 201)
        excited, _ = observables(traj, init.psi0)
        assert excited[-1] < 0.05

    def test_norm_non_increasing_when_dilatable(self):
        h, bath, init = scalar_setup(0.8, 0.5, epsilon=0.3)
        traj = evolve(h, bath, init, 10.0, 101)
        norms = np.linalg.norm(traj.vectors, axis=1)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_rho_invariants_along_trajectory(self):
        h, bath, init = scalar_setup(1.0, 0.4, epsilon=-0.7, e0=0.5)
        traj = evolve(h, bath, init, 10.0, 51)
        for m in observables(traj, init.psi0)[1]:
            assert np.abs(m - m.conj().T).max() < 1e-10
            assert abs(np.trace(m).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(m).min() > -1e-10

    def test_stack_matches_per_point_formula_bitwise(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = SystemHamiltonian(0.5 * (x + x.conj().T))
        bath = BathModel(
            peaks=(LorentzPeak(g=0.6, gamma=0.5, epsilon=0.2), LorentzPeak(g=0.3, gamma=1.1))
        )
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi *= 0.8 / np.linalg.norm(psi)
        init = InitialState(psi=psi, psi0=0.36 + 0.48j)
        traj = evolve(h, bath, init, 8.0, 97)
        excited, rho = observables(traj, init.psi0)
        assert rho.shape == (97, 4, 4)
        # the per-point formula written out with np.vdot and np.outer
        for e, m, psi in zip(excited, rho, traj.states):
            norm2 = float(np.vdot(psi, psi).real)
            assert e == norm2
            ref = np.zeros((4, 4), dtype=complex)
            ref[0, 0] = 1.0 - norm2
            ref[0, 1:] = init.psi0 * np.conj(psi)
            ref[1:, 0] = np.conj(ref[0, 1:])
            ref[1:, 1:] = np.outer(psi, np.conj(psi))
            np.testing.assert_array_equal(m, ref)

    def test_norm_overflow_names_first_point(self):
        vectors = np.array([[1.0], [0.5], [1.1], [1.2]], dtype=complex)
        traj = Trajectory(times=np.linspace(0.0, 3.0, 4), n=1, k=0, vectors=vectors)
        init = InitialState(psi=np.array([1.0]), psi0=0.0)
        with pytest.raises(NormExceededError, match=r"at t=2\.0 exceeds 1"):
            observables(traj, init.psi0)

    def test_norm_tolerance_is_rounding_only(self):
        # a norm of 1 + 1e-6 is a propagation failure, not rounding
        init = InitialState(psi=np.array([1.0]), psi0=0.0)
        traj = Trajectory(times=np.array([0.0]), n=1, k=0, vectors=np.array([[1.0 + 1e-6 + 0j]]))
        with pytest.raises(NormExceededError, match=r"^system norm 1\.000001000000 at t=0\.0"):
            observables(traj, init.psi0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_state_names_first_point(self, bad):
        # the first bad point decides the message, whichever kind it is
        vectors = np.array([[1.0], [0.5], [bad], [1.2]], dtype=complex)
        traj = Trajectory(times=np.linspace(0.0, 3.0, 4), n=1, k=0, vectors=vectors)
        init = InitialState(psi=np.array([1.0]), psi0=0.0)
        with np.errstate(all="ignore"), pytest.raises(
            NormExceededError, match=r"^system state at t=2\.0 is not finite"
        ):
            observables(traj, init.psi0)
