"""End-to-end acceptance suite.

Each test certifies one release criterion and emits a single summary line.
Criteria 1, 2 and 4 share one batch of randomly generated instances whose
trajectories are computed once (module-scoped fixture).
"""

import json
import time

import numpy as np
import pytest
from fourier_reference import correlation_by_quadrature

from pseudobath.cli import main as cli_main
from pseudobath.dynamics import evolve, observables
from pseudobath.linalg import hermitian_eigenvalues
from pseudobath.model import (
    BathModel,
    InitialState,
    LorentzPeak,
    SystemHamiltonian,
    lorentz_correlation,
)
from pseudobath.pseudomode import (
    block_stack,
    build_effective_hamiltonian,
    check_dilation_closed_form,
    dilation_threshold,
    optical_potential,
)
from pseudobath.volterra import (
    deviation_norms,
    solve_cutoff_family,
    solve_integro_differential,
)


def random_hermitian(rng, n, norm_cap=2.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (x + x.conj().T)
    scale = np.linalg.norm(h, 2)
    if scale > norm_cap:
        h *= norm_cap / scale
    return h


def random_peaks(rng, k, lo=0.1, hi=2.0):
    return tuple(
        LorentzPeak(
            g=float(rng.uniform(lo, hi)),
            gamma=float(rng.uniform(lo, hi)),
            epsilon=float(rng.uniform(-2.0, 2.0)),
        )
        for _ in range(k)
    )


def random_initial(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi *= rng.uniform(0.3, 0.95) / np.linalg.norm(psi)
    psi0 = np.sqrt(1.0 - np.vdot(psi, psi).real)
    return InitialState(psi=psi, psi0=psi0)


@pytest.fixture(scope="module")
def cross_solver_batch():
    """20 random instances solved along both routes over t in [0, 10]."""
    rng = np.random.default_rng(2024)
    t_max, steps = 10.0, 4000
    start = time.perf_counter()
    batch = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        h = SystemHamiltonian(random_hermitian(rng, n))
        peaks = random_peaks(rng, k)
        init = random_initial(rng, n)
        oracle = solve_integro_differential(
            h, BathModel(peaks=peaks), init.psi, t_max, steps, extrapolate=True
        )
        traj = evolve(h, BathModel(peaks=peaks), init, t_max, steps + 1)
        batch.append((h, peaks, init, traj, oracle))
    return batch, time.perf_counter() - start


def test_criterion_1_cross_solver_equivalence(cross_solver_batch):
    batch, elapsed = cross_solver_batch
    devs = [deviation_norms(traj, oracle)[0] for _, _, _, traj, oracle in batch]
    worst = max(devs)
    ok = worst < 1e-6 and elapsed < 60.0
    print(
        f"criterion 1 cross-solver equivalence: {'PASS' if ok else 'FAIL'} "
        f"(worst sup deviation {worst:.2e}, {elapsed:.1f}s for 20 instances)"
    )
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_2_density_matrix_properties(cross_solver_batch):
    batch, _ = cross_solver_batch
    worst_asym = worst_trace = 0.0
    worst_min_eig = np.inf
    worst_third = 0.0
    for _, _, init, traj, _ in batch:
        rhos = observables(traj, init)[1][::40]
        worst_asym = max(worst_asym, np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max())
        worst_trace = max(worst_trace, np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0).max())
        eigs = np.linalg.eigvalsh(rhos)  # ascending along the last axis
        worst_min_eig = min(worst_min_eig, eigs[:, 0].min())
        if eigs.shape[1] >= 3:
            worst_third = max(worst_third, eigs[:, -3].max())
    ok = (
        worst_asym < 1e-10
        and worst_trace < 1e-10
        and worst_min_eig > -1e-10
        and worst_third < 1e-10
    )
    print(
        f"criterion 2 density-matrix properties: {'PASS' if ok else 'FAIL'} "
        f"(asym {worst_asym:.1e}, trace {worst_trace:.1e}, "
        f"min eig {worst_min_eig:.1e}, third eig {worst_third:.1e})"
    )
    assert worst_asym < 1e-10
    assert worst_trace < 1e-10
    assert worst_min_eig > -1e-10
    assert worst_third < 1e-10


def test_criterion_3_optical_potential_structure():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        h = SystemHamiltonian(random_hermitian(rng, n))
        peaks = random_peaks(rng, k)
        bath = BathModel(peaks=peaks)
        v = optical_potential(build_effective_hamiltonian(h, bath))
        expected = np.diag(
            np.concatenate([np.zeros(n)] + [np.full(n, p.gamma / 2.0) for p in peaks])
        )
        worst = max(worst, float(np.abs(v - expected).max()))
        report = check_dilation_closed_form(h, bath)
        assert report["spectral_pass"] and report["closed_form_pass"]
    ok = worst <= 1e-15
    print(
        f"criterion 3 optical-potential structure: {'PASS' if ok else 'FAIL'} "
        f"(max entrywise deviation {worst:.1e}, all dilation checks pass)"
    )
    assert worst <= 1e-15


def test_criterion_4_norm_monotonicity(cross_solver_batch):
    batch, _ = cross_solver_batch
    worst_increase = -np.inf
    for h, peaks, _, traj, _ in batch:
        report = check_dilation_closed_form(h, BathModel(peaks=peaks))
        assert report["spectral_pass"]
        norms = np.linalg.norm(traj.vectors, axis=1)
        worst_increase = max(worst_increase, float(np.diff(norms).max()))
    rng = np.random.default_rng(99)
    count = 0
    for _ in range(1000):  # bounded: if no draw certifies, the test fails instead of hanging
        if count == 10:
            break
        n = int(rng.integers(1, 4))
        bath = BathModel(
            peaks=random_peaks(rng, int(rng.integers(1, 4))),
            eta=float(rng.uniform(0.5, 2.0)),
        )
        h0 = random_hermitian(rng, n)
        lift = dilation_threshold(bath) - np.linalg.eigvalsh(h0)[0] + 0.5
        h = SystemHamiltonian(h0 + lift * np.eye(n))
        report = check_dilation_closed_form(h, bath)
        if not report["spectral_pass"]:
            continue
        traj = evolve(h, bath, random_initial(rng, n), 10.0, 201)
        norms = np.linalg.norm(traj.vectors, axis=1)
        worst_increase = max(worst_increase, float(np.diff(norms).max()))
        count += 1
    assert count == 10, f"only {count} of 1000 lifted draws pass the spectral check"
    ok = worst_increase <= 1e-9
    print(
        f"criterion 4 norm monotonicity under dilation: {'PASS' if ok else 'FAIL'} "
        f"(largest single-step increase {worst_increase:.1e})"
    )
    assert worst_increase <= 1e-9


def test_criterion_5_dilation_criteria_agree():
    rng = np.random.default_rng(31)
    start = time.perf_counter()
    kept = agree = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, 4))
        eta = float(rng.uniform(0.0, 4.0))
        if k == 0 and eta == 0.0:
            k = 1
        bath = BathModel(peaks=random_peaks(rng, k, lo=0.1, hi=5.0), eta=eta)
        h = SystemHamiltonian(random_hermitian(rng, n, norm_cap=5.0))
        report = check_dilation_closed_form(h, bath)
        if abs(report["min_eigenvalue_V"]) <= 1e-6:
            continue
        kept += 1
        agree += report["closed_form_pass"] == report["spectral_pass"]
    elapsed = time.perf_counter() - start
    ok = kept > 0 and agree == kept and elapsed < 30.0
    print(
        f"criterion 5 dilation criteria equivalence: {'PASS' if ok else 'FAIL'} "
        f"({agree}/{kept} agreements, {elapsed:.1f}s)"
    )
    assert agree == kept
    assert elapsed < 30.0


def test_criterion_6_cutoff_convergence():
    h = SystemHamiltonian(np.array([[1.0]]))
    psi0 = np.array([1.0 + 0.0j])
    omegas = [20.0, 40.0, 80.0]
    t_max, steps = 5.0, 16000
    peak = LorentzPeak(g=0.5, gamma=1.0, epsilon=0.3)
    peak_sets = [(), (peak,)]
    start = time.perf_counter()
    all_ok = True
    summaries = []
    for eta in (0.25, 0.5, 1.0):
        for peaks in peak_sets:
            bath = BathModel(peaks=peaks, eta=eta)
            ref = solve_integro_differential(
                h, bath, psi0, t_max, steps, extrapolate=True
            )
            family = solve_cutoff_family(h, bath, omegas, psi0, t_max, steps)
            mask = ref.times >= 0.5
            devs = [
                float(np.linalg.norm(traj.states - ref.states, axis=1)[mask].max())
                for traj in family
            ]
            monotone = devs[0] > devs[1] > devs[2]
            halved = devs[2] < 0.5 * devs[0]
            all_ok = all_ok and monotone and halved
            summaries.append(f"eta={eta} devs={devs[0]:.1e}/{devs[1]:.1e}/{devs[2]:.1e}")
            assert monotone, (eta, bool(peaks), devs)
            assert halved, (eta, bool(peaks), devs)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6 cutoff convergence: {'PASS' if all_ok else 'FAIL'} "
        f"({'; '.join(summaries[:3])}; ..., {elapsed:.1f}s)"
    )


def test_criterion_7_block_spectrum_similarity():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        eta = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        h = SystemHamiltonian(random_hermitian(rng, n))
        bath = BathModel(peaks=random_peaks(rng, k), eta=eta)
        full = build_effective_hamiltonian(h, bath)
        ev_full = np.linalg.eigvals(full)
        blocks = block_stack(hermitian_eigenvalues(h.matrix), bath)
        ev_blocks = np.concatenate([np.linalg.eigvals(b) for b in blocks])
        order = lambda z: np.lexsort((z.imag, z.real))
        diff = np.abs(ev_full[order(ev_full)] - ev_blocks[order(ev_blocks)]).max()
        worst = max(worst, float(diff))
    ok = worst < 1e-8
    print(
        f"criterion 7 block-spectrum similarity: {'PASS' if ok else 'FAIL'} "
        f"(worst eigenvalue mismatch {worst:.1e} over 50 instances)"
    )
    assert worst < 1e-8


def test_criterion_8_fourier_consistency():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(3):
        peaks = tuple(
            LorentzPeak(
                g=float(rng.uniform(0.3, 1.2)),
                gamma=float(rng.uniform(0.5, 2.0)),
                epsilon=float(rng.uniform(-2.0, 2.0)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        bath = BathModel(peaks=peaks)
        for t in (0.0, 0.5, 1.0, 2.0):
            exact = lorentz_correlation(peaks, t)
            quad = correlation_by_quadrature(bath, t, 4.0e4, 4_000_000)
            worst = max(worst, abs(quad - exact))
    ok = worst < 1e-4
    print(
        f"criterion 8 Fourier consistency: {'PASS' if ok else 'FAIL'} "
        f"(worst quadrature error {worst:.1e})"
    )
    assert worst < 1e-4


def test_criterion_9_deterministic_cli(tmp_path):
    doc = {
        "system": {"n": 2, "matrix": [[[0.3, 0.0], [0.2, 0.1]], [[0.2, -0.1], [0.9, 0.0]]]},
        "bath": {
            "peaks": [{"g": 0.7, "gamma": 0.5, "epsilon": 0.2}],
            "eta": 0.8,
        },
        "initial": {"psi": [[0.6, 0.0], [0.0, 0.5]], "psi0": [0.624499799839840, 0.0]},
        "time": {"t_max": 5.0, "points": 101},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("trajectory.csv", "report.json")
    )
    print(f"criterion 9 deterministic CLI output: {'PASS' if identical else 'FAIL'}")
    assert identical
