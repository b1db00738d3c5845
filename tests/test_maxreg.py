import contextlib
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from scipy import integrate

from stabreg import _kernels, coupled, heat, maxreg
from stabreg import operators as ops
from stabreg.errors import DimensionError, UsageError
from stabreg.coupled import CoupledConfig
from stabreg.heat import HeatConfig
from stabreg.maxreg import ForcingSignal


def stable_heat_loop(n=32):
    cfg = HeatConfig(n=n, c2=16.0)
    law, _ = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
    return heat.closed_loop_heat(cfg, law)


@contextlib.contextmanager
def basis_warning(expected):
    """Require the warnings of an exactly defective eigenbasis if ``expected``
    (its adjoint fallback and its condition), else no warning at all."""
    if expected:
        with (pytest.warns(UserWarning, match="eigenvector basis condition"),
              pytest.warns(UserWarning, match="numerically defective")):
            yield
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield


# ---------------------------------------------------------------- forcing type

def test_forcing_validation():
    with pytest.raises(UsageError):
        ForcingSignal(np.ones((3, 2)), time_step=-0.1)
    with pytest.raises(UsageError):
        ForcingSignal(np.array([[np.inf]]), time_step=0.1)
    with pytest.raises(UsageError):
        ForcingSignal(np.ones((3, 2, 0)), time_step=0.1)
    f = maxreg.piecewise_random_forcing(4, 10.0, 100, seed=3)
    assert f.horizon == pytest.approx(10.0)
    assert f.n_cells == 100 and f.dim == 4
    # one forcing is stored as a batch of one
    assert f.count == 1 and f.values.shape == (100, 4, 1)
    assert ForcingSignal(np.ones((3, 2, 4), order="F"), 0.1).values.flags.c_contiguous


# ---------------------------------------------------------------- solution map

def test_solution_map_zero_forcing():
    a = np.diag([-1.0, -2.0])
    f = ForcingSignal(np.zeros((50, 2)), 0.1)
    _, y, _ = maxreg.solution_map(a, f)
    assert np.abs(y).max() == 0.0


def test_solution_map_scalar_closed_form():
    a = np.array([[-1.7]])
    f = maxreg.constant_forcing(np.ones(1), 5.0)
    t, y, _ = maxreg.solution_map(a, f, refine=500)
    exact = (1 - np.exp(-1.7 * t)) / 1.7
    assert np.abs(y[:, 0] - exact).max() <= 1e-10


def test_solution_map_single_mode_bounded_by_decay_envelope():
    cl = stable_heat_loop()
    m_fit, delta = ops.decay_estimate(cl.composed, np.linspace(0.5, 8.0, 12))
    modes = maxreg.mode_forcings(cl, 10.0)
    assert modes.values.shape == (1, cl.dim, cl.dim)
    f = ForcingSignal(modes.values[:, :, 0], 10.0)
    _, y, _ = maxreg.solution_map(cl, f, refine=400)
    sup = np.linalg.norm(y, axis=1).max()
    bound = max(m_fit, 1.0) / delta * np.linalg.norm(f.values)
    assert sup <= 1.05 * bound


def test_solution_map_rejects_batch():
    a = np.diag([-1.0, -2.0])
    batch = ForcingSignal(np.ones((10, 2, 3)), 0.1)
    with pytest.raises(DimensionError):
        maxreg.solution_map(a, batch)


def test_solution_map_linearity():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5)) - 3 * np.eye(5)
    f1 = ForcingSignal(rng.standard_normal((40, 5)), 0.05)
    f2 = ForcingSignal(rng.standard_normal((40, 5)), 0.05)
    alpha, beta = 1.3, -0.7
    combo = ForcingSignal(alpha * f1.values + beta * f2.values, 0.05)
    _, y1, _ = maxreg.solution_map(a, f1)
    _, y2, _ = maxreg.solution_map(a, f2)
    _, yc, _ = maxreg.solution_map(a, combo)
    assert np.abs(yc - (alpha * y1 + beta * y2)).max() <= 1e-10 * np.abs(yc).max()


def test_solution_map_ode_residual():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) - 2 * np.eye(4)
    f = ForcingSignal(rng.standard_normal((100, 4)), 1e-3)
    _, y, _ = maxreg.solution_map(a, f)
    h = f.time_step
    resid = 0.0
    for j in range(f.n_cells):
        lhs = (y[j + 1] - y[j]) / h
        rhs = a @ (0.5 * (y[j] + y[j + 1])) + f.values[j, :, 0]
        resid = max(resid, np.linalg.norm(lhs - rhs))
    scale = np.linalg.norm(y, axis=1).max() + np.linalg.norm(f.values, axis=1).max()
    assert resid <= 1e-6 * scale


# ---------------------------------------------------------------- constants

def scalar_oracle_constant():
    # A = -1, f = 1, p = 2, T = 1: closed-form quotient
    return (np.sqrt((1 - np.exp(-2.0)) / 2.0)
            + np.sqrt(1 - 2 * (1 - np.exp(-1.0)) + (1 - np.exp(-2.0)) / 2.0))


def test_maxreg_constant_scalar_oracle():
    a = np.array([[-1.0]])
    fs = [maxreg.constant_forcing(np.ones(1), 1.0)]
    c = maxreg.maxreg_constants_multi(a, [2.0], 1.0, fs)[0]
    assert c == pytest.approx(scalar_oracle_constant(), abs=1e-6)


def test_maxreg_constant_unstable_growth_ratio():
    a = np.array([[1.0]])
    c5, c10 = (maxreg.maxreg_constants_multi(a, [2.0], t, [maxreg.constant_forcing(np.ones(1), t)])[0]
               for t in (5.0, 10.0))
    assert c10 / c5 >= np.exp(5.0) / 2.0


def test_maxreg_constant_rejects_zero_forcing():
    a = np.array([[-1.0]])
    with pytest.raises(UsageError):
        maxreg.maxreg_constants_multi(a, [2.0], 1.0, [maxreg.constant_forcing(np.zeros(1), 1.0)])
    batch = ForcingSignal(np.array([[[1.0, 0.0, 2.0]]]), 1.0)      # column 1 is zero
    with pytest.raises(UsageError):
        maxreg.maxreg_constants_multi(a, [2.0], 1.0, [batch])


def test_maxreg_constant_horizon_mismatch():
    a = np.array([[-1.0]])
    with pytest.raises(UsageError):
        maxreg.maxreg_constants_multi(a, [2.0], 2.0, [maxreg.constant_forcing(np.ones(1), 1.0)])


def test_maxreg_monotone_in_horizon_extension_by_zero():
    a = np.array([[-0.8]])
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((50, 1))
    f_short = ForcingSignal(vals, 0.1)                     # T = 5
    f_long = ForcingSignal(np.vstack([vals, np.zeros((50, 1))]), 0.1)   # T = 10
    c_short = maxreg.maxreg_constants_multi(a, [2.0], 5.0, [f_short])[0]
    c_long = maxreg.maxreg_constants_multi(a, [2.0], 10.0, [f_long])[0]
    assert c_long >= c_short * (1 - 1e-9)


# ---------------------------------------------------------------- closed-form eigenmodes

def test_eigenmode_scalar_p2_explicit():
    lam, horizon = -1.7, 3.0
    a = np.array([[lam]])
    yt = np.expm1(2 * lam * horizon) / (2 * lam)        # int e^{2 lam t}
    ay = yt - 2 * np.expm1(lam * horizon) / lam + horizon   # int (e^{lam t} - 1)^2
    want = (math.sqrt(yt) + math.sqrt(ay)) / math.sqrt(horizon)
    got = maxreg.maxreg_constants_multi(a, [2.0], horizon, [maxreg.eigenmodes(a)])[0]
    assert got == pytest.approx(want, rel=1e-12)


def rotation_mode_integrals(a, b, horizon, p):
    """int |y_t|^p and int |A y|^p for a unit forcing of [[-a, b], [-b, -a]]:
    e^{tA} is e^{-at} times a rotation by bt, so |y_t| = e^{-at} and
    |A y|^2 = e^{-2at} - 2 e^{-at} cos(bt) + 1."""
    yt = -np.expm1(-p * a * horizon) / (p * a)
    if p == 2.0:
        rot = ((1 - np.exp((-a + 1j * b) * horizon)) / (a - 1j * b)).real
        return yt, yt - 2 * rot + horizon
    t = np.linspace(0.0, horizon, 400_001)      # dense Simpson rule
    g = (np.exp(-2 * a * t) - 2 * np.exp(-a * t) * np.cos(b * t) + 1) ** (p / 2)
    return yt, integrate.simpson(g, x=t)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
@pytest.mark.parametrize(("a", "b", "horizon"), [(0.5, 3.0, 10.0), (2.0, 30.0, 40.0)],
                         ids=["slow", "fast-past-transient"])
def test_eigenmode_rotation_block(a, b, horizon, p):
    modes = maxreg.eigenmodes(np.array([[-a, b], [-b, -a]]))
    # the pair -a +/- ib has one forcing, held once
    assert modes.swept.shape == (2, 0)
    assert np.allclose(modes.eigenvalues, [-a + 1j * b])
    yt, ay = rotation_mode_integrals(a, b, horizon, p)
    want = (yt ** (1 / p) + ay ** (1 / p)) / horizon ** (1 / p)
    got = maxreg._mode_quotients(modes, [p], horizon)[0]
    assert np.allclose(got, want, rtol=1e-12 if p == 2.0 else 1e-8, atol=0.0)


def test_eigenmode_unstable_scalar_overflow_safe():
    # e^{p lam T} = e^{960} overflows; the quotient e^{240} (...) does not
    lam, horizon, p = 6.0, 40.0, 4.0
    a = np.array([[lam]])
    got = maxreg.maxreg_constants_multi(a, [p], horizon, [maxreg.eigenmodes(a)])[0]
    # with x = e^{lam (t - T)} and eps = e^{-lam T}: |y_t| = x / eps and
    # |A y| = (x - eps) / eps; int x^k = -expm1(-k lam T) / (k lam)
    eps = math.exp(-lam * horizon)
    moments = [horizon] + [-math.expm1(-k * lam * horizon) / (k * lam) for k in (1, 2, 3, 4)]
    ay = sum(math.comb(4, k) * (-eps) ** (4 - k) * moments[k] for k in range(5))
    want = (moments[4] ** 0.25 + ay ** 0.25) / (eps * horizon ** 0.25)
    assert np.isfinite(got) and got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("shift", [-1.5, 0.0], ids=["stable", "growing"])
def test_eigenmodes_match_trajectory_oracle(shift):
    # a non-normal real matrix with complex pairs: <Re w, Im w> != 0
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 5)) + shift * np.eye(5)
    assert np.abs(np.linalg.eigvals(a).imag).max() > 0.5
    modes = maxreg.eigenmodes(a)
    assert modes.swept.shape == (5, 0) and np.abs(modes.gram[:, 1]).max() > 1e-2
    p_list = [1.5, 2.0, 4.0]
    got = maxreg.maxreg_constants_multi(a, p_list, 5.0, [modes])
    assert np.allclose(got, mode_oracle(a, p_list, 5.0), rtol=1e-10, atol=0.0)


def test_gauss_legendre_rule_matches_numpy():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert np.allclose(maxreg._GL_NODES, nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(maxreg._GL_WEIGHTS, weights, rtol=0.0, atol=1e-15)


def test_mode_quotients_memory_is_bounded():
    # the heat loop's 32 modes take about 1400 nodes each; evaluated all at
    # once they held 4.5 MB of temporaries
    modes = maxreg.eigenmodes(benchmark_loop("heat").composed)
    tracemalloc.start()
    try:
        maxreg._mode_quotients(modes, [1.5, 2.0, 4.0], 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_random_batch_horizon_memory_is_bounded():
    # each horizon of the heat benchmark's random batch (8 forcings on 125,
    # 250 or 500 cells): the nodal norms of y_t and Ay, the cell norms of f and
    # the kernel's stacks, at most 1.72 MiB; with a nodal copy of ||f||, an
    # (m, n, nb) temporary for its cell norms and 64-substep stacks T = 10
    # peaked at 2.89 MiB
    a = maxreg.operator_matrix(benchmark_loop("heat").composed)
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(a, t_grid, 8, 1234, 500)
    for t, fs in zip(t_grid, sets):
        tracemalloc.start()
        try:
            maxreg.maxreg_constants_multi(a, [1.5, 2.0, 4.0], t, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


def test_random_batch_horizon_memory_is_bounded_at_2d_sizes():
    # n = 225, the 15 x 15 square, on a synthetic stable loop: 8 forcings on
    # 50 cells over T = 4.  The sweep reads exp(A h) alone, so the peak is the
    # kernel's stack, its nodal outputs and a few n x n matrices; with the
    # augmented 2n x 2n exponential of E and P it was 17.00 MiB
    n, nb, m, horizon = 225, 8, 50, 4.0
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * -np.linspace(1.0, 2000.0, n)) @ q.T
    fs = [ForcingSignal(rng.standard_normal((m, n, nb)), horizon / m)]
    nodes = m * math.ceil(maxreg.QUAD_NODES / m) + 1
    tracemalloc.start()
    try:
        best = maxreg.maxreg_constants_multi(a, [1.5, 2.0, 4.0], horizon, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(best)) and np.all(best >= 1.0)
    assert peak <= _kernels.STACK_BYTES + 2 * nodes * nb * 8 + 6 * n * n * 8


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_mode_chunks_do_not_move_a_bit(model, monkeypatch):
    # every mode's nodes are summed in the same order, chunked or not
    modes = maxreg.eigenmodes(benchmark_loop(model).composed)
    chunked = maxreg._mode_quotients(modes, [1.5, 2.0, 4.0], 40.0)
    monkeypatch.setattr(maxreg, "_NODE_CHUNK", 10**9)
    assert np.array_equal(chunked, maxreg._mode_quotients(modes, [1.5, 2.0, 4.0], 40.0))


def test_eigen_residual_fallback_sweeps_that_mode(monkeypatch):
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    spectrum, bad = ops.spectrum, 5

    def corrupted(m):
        sp = spectrum(m)
        v = np.array(sp.right_vectors)
        v[:, bad] += 1e-3       # no longer an eigenvector for w[bad]
        return dataclasses.replace(sp, right_vectors=v)

    # the decomposition eigenmodes and mode_forcings read
    monkeypatch.setattr(ops, "spectrum", corrupted)
    modes = maxreg.eigenmodes(a)
    assert modes.eigenvalues.size == 15 and modes.swept.shape == (16, 1)
    calls = counting_kernel(monkeypatch)
    maxreg.maxreg_constants_multi(a, [2.0], 5.0, [modes])
    # exactly that mode's forcing, as mode_forcings builds it, is swept
    forcing = maxreg.mode_forcings(a, 5.0).values[0, :, bad]
    assert len(calls) == 1
    f_cells, refine = calls[0]
    assert f_cells.shape == (1, 16, 1) and refine == maxreg.QUAD_NODES
    assert np.array_equal(f_cells[0, :, 0], forcing)


def test_complex_operator_modes_take_the_kernel():
    # Re w evolves as Re(e^{lam t} w) only when conj(w) is an eigenvector too
    a = np.array([[-1.0 + 2.0j, 0.5], [0.0, -2.0 - 1.0j]])
    modes = maxreg.eigenmodes(a)
    assert modes.eigenvalues.size == 0 and modes.swept.shape == (2, 2)
    got = maxreg.maxreg_constants_multi(a, [1.5, 2.0], 4.0, [modes])
    want = maxreg.maxreg_constants_multi(a, [1.5, 2.0], 4.0, [maxreg.mode_forcings(a, 4.0)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shift", [-1.5, 0.0], ids=["stable", "growing"])
def test_conjugate_pair_dedup_is_lossless(shift):
    # the matrix of test_eigenmodes_match_trajectory_oracle, with both columns
    # of every pair held: each dropped column is its partner's forcing
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 5)) + shift * np.eye(5)
    sp = ops.spectrum(a)
    lam, vr = sp.eigenvalues, sp.right_vectors
    u, b = maxreg._mode_columns(vr)
    gram = np.stack([np.vecdot(u.T, u.T), np.vecdot(u.T, b.T), np.vecdot(b.T, b.T)], axis=1)
    both = maxreg.EigenModes(lam, gram, np.zeros((5, 0)))
    p_list = [1.5, 2.0, 4.0]
    quotients = maxreg._mode_quotients(both, p_list, 5.0)
    dropped = np.flatnonzero(lam.imag < 0)
    assert dropped.size >= 1
    for k in dropped:
        partner = int(np.flatnonzero(lam == lam[k].conj())[0])
        assert np.array_equal(u[:, k], u[:, partner])
        assert np.allclose(quotients[:, k], quotients[:, partner], rtol=1e-14, atol=0.0)
    held = maxreg.eigenmodes(a)
    assert np.array_equal(held.eigenvalues, lam[lam.imag >= 0])
    assert np.array_equal(maxreg.maxreg_constants_multi(a, p_list, 5.0, [held]),
                          maxreg.maxreg_constants_multi(a, p_list, 5.0, [both]))


def benchmark_loop(model):
    """The closed loop of the benchmark's heat or coupled report."""
    if model == "heat":
        return HeatConfig(n=32, c2=16.0).synthesize(targets=[-2.0])[0]
    return CoupledConfig(n=12).synthesize(use_interior=True)[0]


@pytest.mark.parametrize(("model", "held"), [("heat", 32), ("coupled", 13)])
def test_benchmark_loops_hold_one_mode_per_forcing(model, held):
    # heat has a real spectrum; coupled has 11 conjugate pairs and 2 real modes
    a = maxreg.operator_matrix(benchmark_loop(model).composed)
    modes = maxreg.eigenmodes(a)
    assert modes.eigenvalues.size == held and modes.swept.shape == (a.shape[0], 0)


def test_mode_forcings_follow_spectrum_order():
    # column K is Re w_K / ||Re w_K|| for spectrum's K-th right vector, the
    # order of spectrum.csv (decreasing real part)
    a = maxreg.operator_matrix(benchmark_loop("coupled").composed)
    sp = ops.spectrum(a)
    assert np.all(np.diff(sp.eigenvalues.real) <= 0)
    u = maxreg.mode_forcings(a, 1.0).values[0]
    for k in range(a.shape[0]):
        re = sp.right_vectors[:, k].real
        assert np.allclose(u[:, k], re / np.linalg.norm(re), rtol=0.0, atol=1e-15)


def test_lapack_eigenvectors_have_a_strong_real_part():
    # spectrum's phase rule leaves each unit eigenvector (from geev or heevr)
    # with its largest component real and positive, so sqrt(n) ||Re v|| >= 1
    # and _mode_columns can always normalize Re v
    rng = np.random.default_rng(7)
    mats = [maxreg.operator_matrix(benchmark_loop(m).composed) for m in ("heat", "coupled")]
    mats.append(np.array([[-1.0, 10.0], [0.0, -1.0]]))
    for n in (1, 2, 5, 17, 40):
        mats += [rng.standard_normal((n, n)),
                 rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                 np.triu(rng.standard_normal((n, n)))]
    mats += [m + m.conj().T for m in mats[-3:-1]]      # Hermitian: the eigh route
    for a in mats:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # the defective block
            v = ops.spectrum(a).right_vectors
        assert np.all(math.sqrt(a.shape[0]) * np.linalg.norm(v.real, axis=0) >= 1.0)


# ---------------------------------------------------------------- quadrature

def stacked(a):
    """(C, D) = ([A; A], [I; 0]): C (iw - A)^-1 + D = [iwR; AR]."""
    n = len(a)
    return np.vstack([a, a]), np.eye(2 * n, n)


def counting_kernel(monkeypatch):
    """Record the ``f_cells`` and ``refine`` of every kernel sweep."""
    calls = []
    sweep = _kernels.lti_norm_scan

    def counting(A, E, P, f_cells, refine):
        calls.append((np.array(f_cells), refine))
        return sweep(A, E, P, f_cells, refine)

    monkeypatch.setattr(_kernels, "lti_norm_scan", counting)
    return calls


def test_one_kernel_sweep_per_cell_structure(monkeypatch):
    calls = counting_kernel(monkeypatch)
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    modes = maxreg.eigenmodes(a)
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=2, seed=3, n_cells_max=200)
    for t, fs in zip(t_grid, sets):
        calls.clear()
        maxreg.maxreg_constants_multi(a, [1.5, 2.0], t, [*fs, modes])
        # the random forcings share one cell structure and take the one sweep;
        # the eigenmodes are evaluated in closed form
        cells = round(200 * t / t_grid[-1])
        assert [f.values.shape for f in fs] == [(cells, 16, 2)]
        assert modes.eigenvalues.shape == (16,) and modes.swept.shape == (16, 0)
        assert [(f.shape, refine) for f, refine in calls] == [
            ((cells, 16, 2), math.ceil(maxreg.QUAD_NODES / cells))]
    # shorter horizons take views of the longest horizon's random batch
    assert all(np.shares_memory(fs[0].values, sets[-1][0].values) for fs in sets)


@pytest.mark.parametrize(("t_grid", "n_cells", "counts", "widths"), [
    ([10, 20, 40], 500, [125, 250, 500], [0.08, 0.08, 0.08]),
    ([4, 8, 12], 100, [33, 67, 100], [4 / 33, 8 / 67, 0.12]),
], ids=["benchmark", "ci-tiny"])
def test_forcing_grid_cell_widths(t_grid, n_cells, counts, widths):
    # one cell width only where the cell counts are exact; the tiny grid's
    # horizons take 0.1212, 0.1194 and 0.12
    a = maxreg.operator_matrix(stable_heat_loop(8).composed)
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=2, seed=3, n_cells_max=n_cells)
    assert [fs[0].n_cells for fs in sets] == counts
    assert np.allclose([fs[0].time_step for fs in sets], widths, rtol=1e-15, atol=0.0)
    assert [fs[0].horizon for fs in sets] == pytest.approx(t_grid, rel=1e-15)
    assert all(np.array_equal(fs[0].values, sets[-1][0].values[:c])
               for fs, c in zip(sets, counts))


def test_forcing_count_zero_scans_the_eigenmodes_alone(monkeypatch):
    # the eigenmodes in closed form, and one kernel sweep for the whole scan:
    # the peak forcing, nb = 1 on 1/16-period cells over the longest horizon;
    # a normal loop's stacked gain is flat (sup = 1), so it takes none
    calls = counting_kernel(monkeypatch)
    t_grid = [5.0, 10.0, 20.0]
    for a in (maxreg.operator_matrix(stable_heat_loop(16).composed), np.diag([-1.0, -2.0, -3.0])):
        calls.clear()
        sets = maxreg.build_forcing_grid(a, t_grid, n_random=0, seed=3, n_cells_max=200)
        assert sets == [[], [], []]
        reports = maxreg.plateau_scan_multi(a, [1.5, 2.0, 4.0], t_grid, sets)
        sup, omega = maxreg._frequency_sup(a, *stacked(a))
        if sup <= 1.0 + 2e-9:
            assert len(a) == 3 and calls == []
        else:
            m = math.ceil(16.0 * 20.0 * abs(omega) / (2.0 * math.pi))
            assert [(f.shape, refine) for f, refine in calls] == [
                ((m, len(a), 1), math.ceil(maxreg.QUAD_NODES / m))]
        for rep in reports:
            assert all(np.isfinite(rep.c_estimates)) and min(rep.c_estimates) >= 1.0


def mode_oracle(a, p_list, horizon):
    """Largest eigenmode quotient per exponent, from ``mode_forcings`` and the
    trajectories y_t = e^{tA} u, A y = (e^{tA} - I) u by adaptive quadrature."""
    u = maxreg.mode_forcings(a, horizon).values[0]
    q = np.array(p_list)[:, None, None]
    rate = np.abs(np.linalg.eigvals(a).real)
    marks = sorted({min(horizon, k / r) for r in rate for k in (1.0, 10.0)} - {horizon})

    def powered(t):     # |y_t|^p and |A y|^p per exponent and forcing
        e = la.expm(t * a) @ u
        return np.linalg.norm(np.stack([e, e - u]), axis=1)[None] ** q

    integral = integrate.quad_vec(powered, 0.0, horizon, epsabs=0.0, epsrel=1e-13,
                                  points=marks, limit=2000)[0]
    norms = integral ** (1 / q)
    fq = np.linalg.norm(u, axis=0) * horizon ** (1 / q[:, :, 0])
    return ((norms[:, 0] + norms[:, 1]) / fq).max(axis=1)


def trajectory_reference(a, p_list, forcing_set):
    """The estimates from one trajectory per forcing (``solution_map``), with
    the nodal norms, the left-limit forcing and the trapezoid rule formed here."""
    best = np.zeros(len(p_list))
    for batch in forcing_set:
        refine = math.ceil(maxreg.QUAD_NODES / batch.n_cells)
        h = batch.time_step / refine
        # node k > 0 takes the cell ending there, node 0 the first cell
        cell = np.maximum(np.arange(batch.n_cells * refine + 1) - 1, 0) // refine
        for k in range(batch.count):
            one = ForcingSignal(batch.values[:, :, k], batch.time_step)
            _, y, _ = maxreg.solution_map(a, one, refine)
            ay = y @ a.T
            f = one.values[cell, :, 0]
            norms = [np.linalg.norm(v, axis=1) for v in (ay + f, ay, f)]
            for i, q in enumerate(p_list):
                yt, ayq, fq = (np.trapezoid(g ** q, dx=h) ** (1 / q) for g in norms)
                best[i] = max(best[i], (yt + ayq) / fq)
    return best


@pytest.mark.parametrize(("n_cells_max", "horizon"), [(50, 20.0), (250, 10.0)],
                         ids=["stops-at-level-1", "reaches-cap"])
def test_estimates_match_trajectory_quadrature(n_cells_max, horizon):
    # on stops-at-level-1 a sweep at half the density reads up to 0.4% off,
    # so the case shows a coarser quadrature reported in place of this one.
    # Random forcings are checked against one trajectory each, the eigenmodes
    # against adaptive quadrature of theirs.
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    t_grid = [horizon / 4, horizon / 2, horizon]
    fs = maxreg.build_forcing_grid(a, t_grid, n_random=2, seed=1234,
                                   n_cells_max=n_cells_max)[-1]
    p_list = [1.5, 2.0, 4.0]
    modes = maxreg.eigenmodes(a)
    got = maxreg.maxreg_constants_multi(a, p_list, horizon, [*fs, modes])
    oracle = mode_oracle(a, p_list, horizon)
    want = np.maximum(trajectory_reference(a, p_list, fs), oracle)
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    # the random forcings win every cell here, so the modes are checked alone too
    got_modes = maxreg.maxreg_constants_multi(a, p_list, horizon, [modes])
    assert np.allclose(got_modes, oracle, rtol=1e-10, atol=0.0)


def p2_ceiling(a):
    """sqrt(2) max ||[i w R; A R]||, R = (i w - A)^-1, on a dense w grid (real A,
    so w >= 0 suffices): the Plancherel bound on the p = 2 quotient, any T."""
    n = a.shape[0]
    w = np.linspace(0.0, 20.0, 20001)[:, None, None]
    r = np.linalg.inv(1j * w * np.eye(n) - a)
    g = np.concatenate([1j * w * r, a @ r], axis=1)
    return math.sqrt(2.0) * np.linalg.svd(g, compute_uv=False)[:, 0].max()


@pytest.mark.parametrize(("a", "ceiling"), [
    (np.array([[-1.0]]), math.sqrt(2.0)),
    (np.diag([-1.0, -10.0]), math.sqrt(2.0)),
    (np.array([[-1.0, 1.0], [0.0, -1.0]]), 1.90211),
    (np.array([[-1.0, 10.0], [0.0, -1.0]]), 10.14841),
], ids=["scalar", "diagonal", "block-s1", "block-s10"])
def test_p2_estimates_below_plancherel_ceiling(a, ceiling):
    # normal negative spectrum: ||G(iw)|| = 1 for every w; the 2x2 block peaks
    # at w = 1, a point of the dense grid, which the scan's C_upper meets.
    # Estimates may exceed the ceiling by quadrature error only (stated
    # tolerance 0.5%).  The block's eigenbasis is numerically singular, and
    # says so.
    ceiling_grid = p2_ceiling(a)
    assert ceiling_grid == pytest.approx(ceiling, rel=1e-5)
    t_grid = [5.0, 10.0, 20.0]
    with basis_warning(bool(np.triu(a, 1).any())):
        sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=1, n_cells_max=200)
        rep = maxreg.plateau_scan_multi(a, [2.0], t_grid, sets)[0]
    assert rep.c_upper == pytest.approx(ceiling_grid, rel=1e-12)
    assert max(rep.c_estimates) <= ceiling_grid * (1 + 5e-3)
    assert rep.verdict == "plateau"
    # the peak forcing brings the non-normal blocks within 5 % of the bound
    # by T = 20 (the random forcings and eigenmodes alone read 2.94 on s = 10)
    if np.triu(a, 1).any():
        assert rep.c_estimates[-1] >= 0.95 * ceiling_grid


# ROADMAP table B: C_upper = sqrt(2) sup_w ||[iwR; AR]|| of the benchmark loops
C_UPPER = {"heat": 2.32989841754, "coupled": 3.12905056433}

# C_estimate on the benchmark's [maxreg] grid (8 forcings, 500 cells, seed
# 1234, p = 1.5 / 2 / 4 by rows, T = 10 / 20 / 40 by columns).  The peak
# forcing's prefixes set every value, so they hold at any seed.
GOLDEN = {
    "heat": [[2.31254603291681, 2.3168002853892937, 2.3181212562917954],
             [2.30823171815326, 2.312651416759905, 2.3143048054533133],
             [2.3019938091259644, 2.306010088438692, 2.307675803975814]],
    "coupled": [[3.1044499554441076, 3.1089924110262794, 3.111311976256947],
                [3.0818617382434645, 3.086270927903303, 3.088416623647999],
                [3.03545442292124, 3.039122100925456, 3.040861149664627]],
}


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_benchmark_grid_estimates_golden(model):
    loop = benchmark_loop(model)
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(loop.composed, t_grid, 8, 1234, 500)
    reports = maxreg.plateau_scan_multi(loop.composed, [1.5, 2.0, 4.0], t_grid, sets)
    got = [rep.c_estimates for rep in reports]
    assert np.allclose(got, GOLDEN[model], rtol=1e-10, atol=0.0)
    # the prefixes of one sweep nest, so every row rises with T; at T = 40
    # p = 2 sits within 1.5 % under C_upper (table B's value)
    assert np.all(np.diff(got, axis=1) > 0.0)
    c_upper = reports[1].c_upper
    assert c_upper == pytest.approx(C_UPPER[model], rel=2e-9)
    assert 0.985 * c_upper <= got[1][-1] <= c_upper
    assert [rep.verdict for rep in reports] == ["plateau"] * 3
    assert np.isnan(reports[0].c_upper) and np.isnan(reports[2].c_upper)


def exact_p2_quotients(a, batch):
    """The p = 2 quotients of a piecewise-constant batch in closed form, one
    per forcing.

    On a cell of width tau, with z = A y_j + f_j: y'(s) = e^{As} z and
    Ay(s) = y'(s) - f_j, so the cell contributes z*Wz to the integral of
    |y'|^2 and z*Wz - 2 Re(f*Pz) + tau |f|^2 to that of |Ay|^2.  Here
    P = int_0^tau e^{As} ds and W = int_0^tau e^{A*s} e^{As} ds solves
    A*W + WA = E*E - I (Van Loan's block exponential for W cancels
    catastrophically on the benchmark loops).
    """
    tau = batch.time_step
    n = a.shape[0]
    e = la.expm(a * tau)
    p = la.solve(a, e - np.eye(n))
    w = la.solve_continuous_lyapunov(a.conj().T, e.conj().T @ e - np.eye(n))
    scale = np.abs(w).max()
    assert np.abs(w - w.conj().T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh((w + w.conj().T) / 2).min() >= -1e-12 * scale

    def dot(u, v):
        return np.einsum("ib,ib->b", u.conj(), v).real

    y = np.zeros((n, batch.count), dtype=np.result_type(a, float))
    yt2 = ay2 = f2 = 0.0
    for f in batch.values:
        z = a @ y + f
        zwz, ff = dot(z, w @ z), tau * dot(f, f)
        yt2 += zwz
        ay2 += zwz - 2.0 * dot(f, p @ z) + ff
        f2 += ff
        y = e @ y + p @ f
    return (np.sqrt(yt2) + np.sqrt(ay2)) / np.sqrt(f2)


# ROADMAP table A's exact p = 2 row: the GOLDEN forcings at T = 10 / 20 / 40
EXACT_P2 = {"heat": [1.253736, 1.251308, 1.249697],
            "coupled": [1.409110, 1.404246, 1.398841]}


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_benchmark_p2_estimates_against_exact_oracle(model):
    # the uniform trapezoid steps over the layer e^{As}(f_j - f_{j-1}) at each
    # cell opening and reads every forcing low: by 0.9 % to 2.6 % here
    a = maxreg.operator_matrix(benchmark_loop(model).composed)
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(a, t_grid, 8, 1234, 500)
    for t, (batch,), want in zip(t_grid, sets, EXACT_P2[model]):
        exact = exact_p2_quotients(a, batch)
        assert exact.max() == pytest.approx(want, abs=1e-6)
        swept = [maxreg.maxreg_constants_multi(
            a, [2.0], t, [ForcingSignal(batch.values[:, :, k:k + 1], batch.time_step)])[0]
            for k in range(batch.count)]
        assert np.all((0.965 * exact <= swept) & (swept <= exact))


# ---------------------------------------------------------------- plateau scans

@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_plateau_stable_scalar(p):
    a = np.array([[-1.0]])
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=1, n_cells_max=500)
    rep = maxreg.plateau_scan_multi(a, [p], t_grid, sets)[0]
    assert rep.verdict == "plateau"
    assert np.isfinite(rep.imag_axis_sup)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_growth_unstable_scalar(p):
    a = np.array([[0.5]])
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=1, n_cells_max=500)
    rep = maxreg.plateau_scan_multi(a, [p], t_grid, sets)[0]
    assert rep.verdict == "growth"
    assert np.isinf(rep.imag_axis_sup)


def test_plateau_scan_validates_grid():
    a = np.array([[-1.0]])
    with pytest.raises(UsageError):
        maxreg.plateau_scan_multi(a, [2.0], [10.0, 5.0, 20.0], [[], [], []])
    with pytest.raises(UsageError):
        maxreg.plateau_scan_multi(a, [2.0], [5.0, 10.0], [[], []])
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=1, seed=0, n_cells_max=10)
    with pytest.raises(UsageError):
        maxreg.plateau_scan_multi(a, [], t_grid, sets)


# ---------------------------------------------------------------- imaginary axis

def test_imaginary_axis_unstable_is_inf():
    open_loop = heat.build_heat_operator(HeatConfig(n=16, c2=16.0))
    assert maxreg.imaginary_axis_bound(open_loop) == np.inf
    # eigenvalues +/- i sit on the axis itself
    assert maxreg.imaginary_axis_bound(np.array([[0.0, 1.0], [-1.0, 0.0]])) == np.inf


@pytest.mark.parametrize(("a", "exact", "c_upper"), [
    *(pytest.param([[-1.0, s], [0.0, -1.0]], math.sqrt(s * s + 4.0) / 2.0, c, id=f"{s}")
      for s, c in ((0.0, math.sqrt(2.0)), (1.0, 1.9021130326), (10.0, 10.1484085026),
                   (100.0, 100.0149983753))),
    pytest.param([[-1.0]], 1.0, math.sqrt(2.0), id="scalar"),
    pytest.param(np.diag([-1.0, -10.0]), 1.0, math.sqrt(2.0), id="diag"),
])
def test_imaginary_axis_jordan_oracle(a, exact, c_upper, monkeypatch):
    # A = [[-1, s], [0, -1]]: sup_w ||iw R(iw, A)|| = sqrt(s^2 + 4) / 2 exactly,
    # and C_upper = sqrt(2) sup_w ||[iwR; AR]|| is sqrt((5 + sqrt 5) / 2) at
    # s = 1; for s != 0 the eigenbasis is numerically singular, and says so.
    # A normal loop reaches both suprema only as |w| -> inf: the start gain
    # ||D|| = 1 itself, which the level-set test certifies, and its flat
    # stacked gain builds no peak forcing, so its scan sweeps nothing
    a = np.array(a)
    calls = counting_kernel(monkeypatch)
    with basis_warning(a.shape == (2, 2) and a[0, 1] != 0.0):
        sup = maxreg.imaginary_axis_bound(a)
        rep = maxreg.plateau_scan_multi(a, [2.0], [1.0, 2.0, 4.0], [[], [], []])[0]
    assert abs(sup - exact) <= 2e-9 * exact
    assert abs(rep.c_upper - c_upper) <= 2e-9 * c_upper
    assert len(calls) == (0 if exact == 1.0 else 1)


def test_imaginary_axis_finite_iff_stable():
    cl = stable_heat_loop(n=16)
    assert np.isfinite(maxreg.imaginary_axis_bound(cl))


def frequency_loop(name):
    """The benchmark loops, six random stable 6 x 6 matrices and one complex
    stable 4 x 4 matrix (numpy seed 3, each shifted to spectral abscissa -1/2)."""
    if name in ("heat", "coupled"):
        return maxreg.operator_matrix(benchmark_loop(name).composed)
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((6, 6)) for _ in range(6)]
    mats.append(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    m = mats[-1 if name == "complex" else int(name[-1])]
    return m - (np.linalg.eigvals(m).real.max() + 0.5) * np.eye(len(m))


FREQUENCY_LOOPS = ["heat", "coupled", *(f"random{k}" for k in range(6)), "complex"]


def frequency_oracle(a, c, d):
    """sup_w ||C (iw - A)^-1 + D||_2 by a dense grid over both signs of w,
    refined by a bounded scalar search between the best point's neighbours."""
    from scipy.optimize import minimize_scalar

    eye = np.eye(len(a))

    def gain(w):
        return np.linalg.svd(c @ np.linalg.inv(1j * w * eye - a) + d, compute_uv=False)[0]
    half = np.logspace(-3.0, 4.0, 1500)
    grid = np.concatenate([-half[::-1], [0.0], half])
    vals = [gain(w) for w in grid]
    k = int(np.argmax(vals))
    res = minimize_scalar(lambda w: -gain(w), method="bounded", options={"xatol": 1e-12},
                          bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]))
    return max(vals[k], -res.fun, np.linalg.norm(d, 2))


def check_frequency_sup(a, c, d):
    sup, omega = maxreg._frequency_sup(a, c, d)
    exact = frequency_oracle(a, c, d)
    assert abs(sup - exact) <= 5e-9 * exact
    # the gain at the returned frequency is the supremum itself
    gain = np.linalg.norm(c @ np.linalg.inv(1j * omega * np.eye(len(a)) - a) + d, 2)
    assert gain == pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("name", FREQUENCY_LOOPS)
def test_frequency_sup_against_oracle(name):
    a = frequency_loop(name)
    check_frequency_sup(a, a, np.eye(len(a)))


@pytest.mark.parametrize("name", FREQUENCY_LOOPS)
def test_stacked_frequency_sup_against_oracle(name):
    # (C, D) = ([A; A], [I; 0]), the system of C_upper
    a = frequency_loop(name)
    check_frequency_sup(a, *stacked(a))


@pytest.mark.parametrize("a", [np.diag([-1.0, -2.0]), np.diag([-1.0, -2.0, -3.0]),
                               np.array([[-1.0]])], ids=["diag2", "diag3", "scalar"])
def test_frequency_sup_flat_stacked_gain(a):
    # a normal stable loop: ||[iwR; AR]|| = 1 at every w, so the level-set
    # test finds crossings of rounding size alone; no midpoint rises above
    # the tested level, so the solve stops at 1 within its 50 steps
    sup = maxreg._frequency_sup(a, *stacked(a))[0]
    assert abs(sup - 1.0) <= 2e-9


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_stacked_peak_balances(model):
    # at the peak of [iwR; AR] the two halves carry equal norms, so
    # sqrt(2) sup ||G|| is attained as T -> inf.  The level-set test fixes the
    # gain to 2e-9 but w* only to about its square root, so w* is refined
    # here (not in the library) before the balance is read
    from scipy.optimize import minimize_scalar

    a = frequency_loop(model)
    c, d = stacked(a)
    sup, omega = maxreg._frequency_sup(a, c, d)

    def gain(w):
        return np.linalg.svd(maxreg._response(a, c, d, w), compute_uv=False)[0]
    res = minimize_scalar(lambda w: -gain(w), method="bounded", options={"xatol": 1e-12},
                          bounds=sorted([omega * (1 - 1e-3), omega * (1 + 1e-3)]))
    assert -res.fun == pytest.approx(sup, rel=2e-9)
    v = np.linalg.svd(maxreg._response(a, c, d, res.x))[2][0].conj()
    r_v = np.linalg.solve(1j * res.x * np.eye(len(a)) - a, v)
    iw_rv, a_rv = np.linalg.norm(1j * res.x * r_v), np.linalg.norm(a @ r_v)
    assert abs(iw_rv - a_rv) / a_rv < 1e-6
    assert math.sqrt(2.0) * sup == pytest.approx(C_UPPER[model], rel=2e-9)


@pytest.mark.parametrize("name", [*FREQUENCY_LOOPS, *(f"block{s}" for s in (0, 1, 10, 100))])
def test_frequency_sup_of_iwR_equals_that_of_AR(name):
    # sup ||iw R|| and sup ||A R|| agree (the two peaks sit at different w),
    # so one solve serves both: D = I and D = 0 in the same routine
    block = name.startswith("block")
    a = np.array([[-1.0, float(name[5:])], [0.0, -1.0]]) if block else frequency_loop(name)
    op = ops.Operator(a)
    with basis_warning(block and a[0, 1] != 0.0):
        iw_r = maxreg._frequency_sup(op, a, np.eye(len(a)))[0]
        a_r = maxreg._frequency_sup(op, a, np.zeros_like(a))[0]
    assert abs(iw_r - a_r) <= 5e-9 * iw_r


def test_frequency_sup_flat_maximum_converges(monkeypatch):
    # the s = 1 block peaks flatly: the start set takes it within 10 steps,
    # one Hamiltonian (4 x 4) eigenvalue solve per step
    steps = []
    eigvals = np.linalg.eigvals

    def counted(h):
        steps.append(np.shape(h))
        return eigvals(h)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    with basis_warning(True):
        sup = maxreg.imaginary_axis_bound(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    assert abs(sup - math.sqrt(5.0) / 2.0) <= 2e-9 * sup
    assert 1 <= steps.count((4, 4)) <= 10


# ---------------------------------------------------------------- duality

def test_duality_self_adjoint_gap_small():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = -q @ np.diag(rng.uniform(0.5, 3.0, 4)) @ q.T
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=3, n_cells_max=400)
    gap = maxreg.duality_check(a, 2.0, t_grid, sets)
    assert gap <= 0.05


def test_duality_scalar_p4():
    a = np.array([[-1.0]])
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=3, n_cells_max=400)
    gap = maxreg.duality_check(a, 4.0, t_grid, sets)   # p' = 4/3, both plateau
    assert np.isfinite(gap)


def test_dual_exponent():
    assert maxreg.dual_exponent(2.0) == pytest.approx(2.0)
    assert maxreg.dual_exponent(4.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(UsageError):
        maxreg.dual_exponent(1.0)


# ---------------------------------------------------------------- lp norms

def test_lp_time_norm_overflow_safe():
    g = np.array([1e200, 2e200, 1.5e200])
    val = maxreg.lp_time_norm(g, 0.1, 4.0)
    assert np.isfinite(val) and val > 1e200 * 0.5


def test_lp_time_norm_trapezoid_exact_constant():
    g = np.full(101, 3.0)
    assert maxreg.lp_time_norm(g, 0.01, 2.0) == pytest.approx(3.0, rel=1e-12)


def test_lp_time_norm_is_the_trapezoid_rule():
    g = np.abs(np.random.default_rng(5).standard_normal((801, 3)))
    for p in (1.5, 2.0, 4.0):
        want = np.trapezoid(g ** p, dx=0.01, axis=0) ** (1.0 / p)
        assert np.allclose(maxreg.lp_time_norm(g, 0.01, p), want, rtol=1e-14, atol=0.0)
    assert maxreg.lp_time_norm(np.array([2.0]), 0.01, 2.0) == 0.0


def test_verdict_rule():
    assert maxreg._verdict([1.0, 1.01, 1.02]) == "plateau"          # settled
    assert maxreg._verdict([1.0, 10.0, 100.0]) == "growth"          # log step > 1
    assert maxreg._verdict([1.5, 1.3, 1.1]) == "plateau"            # nonincreasing
    assert maxreg._verdict([1.0, 1.3, 1.7]) == "indeterminate"


def test_report_rows_header_contract():
    assert maxreg.CSV_HEADER == "model,mode,p,T,C_estimate,imag_sup,verdict,C_upper"
    rep = maxreg.MaxRegReport(p=2.0, t_grid=(1.0, 2.0), c_estimates=(1.0, 1.1),
                              imag_axis_sup=3.0, verdict="plateau", c_upper=4.0)
    rows = maxreg.report_rows("heat", "spectral", [rep])
    assert len(rows) == 2 and rows[0][0] == "heat"
    assert rows[1] == ("heat", "spectral", 2.0, 2.0, 1.1, 3.0, "plateau", 4.0)


# ---------------------------------------------------------------- verify.csv rows

def regularity_scans(cl, p_grid, t_horizons, n_random, seed=0, n_cells=2000):
    """The regularity scan the CLI runs on a loop and writes verify.csv rows from."""
    sets = maxreg.build_forcing_grid(cl.composed, t_horizons, n_random, seed, n_cells)
    return maxreg.plateau_scan_multi(cl.composed, p_grid, t_horizons, sets)


@pytest.mark.parametrize("model, replaced", [("heat", 0), ("coupled", 1)])
def test_verify_rows_read_the_given_scan(model, replaced):
    if model == "heat":
        loop = stable_heat_loop(n=16)
    else:
        loop = CoupledConfig(n=12).synthesize(targets=[-2.0, -3.0])[0]
    scans = regularity_scans(loop, (1.5, 2.0), (2.0, 4.0, 8.0), n_random=3, seed=7,
                             n_cells=200)
    rows = maxreg.verify_rows(scans)
    assert rows[0] == ("imag_axis_sup", scans[0].imag_axis_sup, np.inf, "PASS")
    assert rows[1] == ("C_upper_p=2", scans[1].c_upper, max(scans[1].c_estimates), "PASS")
    assert [row[0] for row in rows[2:]] == ["plateau_p=1.5", "plateau_p=2"]
    for scan, row in zip(scans, rows[2:]):
        assert row[1:] == (scan.c_estimates[-1], 0.05,
                           "PASS" if scan.verdict == "plateau" else "FAIL")
    # a verdict the row function did not compute decides its row
    grown = list(scans)
    grown[replaced] = dataclasses.replace(scans[replaced], verdict="growth")
    failing = [row[0] for row in maxreg.verify_rows(grown) if row[3] == "FAIL"]
    assert failing == [f"plateau_p={scans[replaced].p:g}"]
    # and a p = 2 estimate above the bound by more than UPPER_RTOL fails its row
    low = dataclasses.replace(scans[1], c_upper=scans[1].c_estimates[-1] / 1.006)
    assert maxreg.verify_rows([scans[0], low])[1][3] == "FAIL"
    # with no p = 2 in the grid there is no bound row
    assert [row[0] for row in maxreg.verify_rows(scans[:1])] == ["imag_axis_sup", "plateau_p=1.5"]


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_verify_rows_fail_on_unstable_loop(model):
    if model == "heat":
        loop = heat.closed_loop_heat(HeatConfig(n=32, c2=16.0), None)
    else:       # fluid block unreachable and no interior feedback: open loop
        cfg = CoupledConfig(n=32, gamma_buoy=0.0, c2_f=16.0, c2_h=12.0)
        loop = coupled.compose_coupled_loop(cfg, None)
    scans = regularity_scans(loop, (2.0,), (5.0, 10.0, 20.0), n_random=4)
    rows = maxreg.verify_rows(scans)
    assert rows[0] == ("imag_axis_sup", np.inf, np.inf, "FAIL")
    assert rows[1][:2] == ("C_upper_p=2", np.inf) and rows[1][3] == "FAIL"
    assert rows[2][0] == "plateau_p=2" and rows[2][3] == "FAIL"
