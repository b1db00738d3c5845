import dataclasses
import math

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
    _, y = maxreg.solution_map(a, f)
    assert np.abs(y).max() == 0.0


def test_solution_map_scalar_closed_form():
    a = np.array([[-1.7]])
    f = maxreg.constant_forcing(np.ones(1), 5.0)
    t, y = maxreg.solution_map(a, f, refine=500)
    exact = (1 - np.exp(-1.7 * t)) / 1.7
    assert np.abs(y[:, 0] - exact).max() <= 1e-10


def test_solution_map_single_mode_bounded_by_decay_envelope():
    cl = stable_heat_loop()
    m_fit, delta = ops.decay_estimate(cl.composed, np.linspace(0.5, 8.0, 12))
    modes = maxreg.mode_forcings(cl, 10.0)
    assert modes.values.shape == (1, cl.dim, cl.dim)
    f = ForcingSignal(modes.values[:, :, 0], 10.0)
    _, y = maxreg.solution_map(cl, f, refine=400)
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
    _, y1 = maxreg.solution_map(a, f1)
    _, y2 = maxreg.solution_map(a, f2)
    _, yc = maxreg.solution_map(a, combo)
    assert np.abs(yc - (alpha * y1 + beta * y2)).max() <= 1e-10 * np.abs(yc).max()


def test_solution_map_ode_residual():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) - 2 * np.eye(4)
    f = ForcingSignal(rng.standard_normal((100, 4)), 1e-3)
    _, y = maxreg.solution_map(a, f)
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


def test_eigen_residual_fallback_sweeps_that_mode(monkeypatch):
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    eig, bad = la.eig, 5

    def corrupted(m):
        w, v = eig(m)
        v[:, bad] += 1e-3       # no longer an eigenvector for w[bad]
        return w, v

    monkeypatch.setattr(maxreg.la, "eig", corrupted)
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
    lam, vr = la.eig(a)
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


def test_lapack_eigenvectors_have_a_strong_real_part():
    # geev returns unit eigenvectors with their largest component real, so
    # sqrt(n) ||Re v|| >= 1 and _mode_columns can always normalize Re v
    rng = np.random.default_rng(7)
    mats = [maxreg.operator_matrix(benchmark_loop(m).composed) for m in ("heat", "coupled")]
    mats.append(np.array([[-1.0, 10.0], [0.0, -1.0]]))
    for n in (1, 2, 5, 17, 40):
        mats += [rng.standard_normal((n, n)),
                 rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                 np.triu(rng.standard_normal((n, n)))]
    for a in mats:
        v = la.eig(a)[1]
        assert np.all(math.sqrt(a.shape[0]) * np.linalg.norm(v.real, axis=0) >= 1.0)


# ---------------------------------------------------------------- quadrature

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


def test_forcing_count_zero_scans_the_eigenmodes_alone(monkeypatch):
    calls = counting_kernel(monkeypatch)
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=0, seed=3, n_cells_max=200)
    assert sets == [[], [], []]
    reports = maxreg.plateau_scan_multi(a, [1.5, 2.0, 4.0], t_grid, sets)
    assert calls == []
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
            _, y = maxreg.solution_map(a, one, refine)
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
    # at w = 1.  Estimates may exceed the ceiling by quadrature error only
    # (stated tolerance 0.5%).
    assert p2_ceiling(a) == pytest.approx(ceiling, rel=1e-5)
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=1, n_cells_max=200)
    for t, fs in zip(t_grid, sets):
        c = maxreg.maxreg_constants_multi(a, [2.0], t, [*fs, maxreg.eigenmodes(a)])[0]
        assert c <= ceiling * (1 + 5e-3)


# C_estimate on the benchmark's [maxreg] grid (8 forcings, 500 cells, seed
# 1234, p = 1.5 / 2 / 4 by rows, T = 10 / 20 / 40 by columns).  Heat p = 4,
# T = 10 is an eigenmode's closed-form value; the 8000-substep sweep of that
# mode read 1.3072453140218327.
GOLDEN = {
    "heat": [[1.2260024531951885, 1.2177596224695102, 1.2126036089599592],
             [1.2420418024490387, 1.2349607038453072, 1.2280378862392702],
             [1.3072446174207724, 1.2941456079279274, 1.2839291902751675]],
    "coupled": [[1.3731849384103814, 1.358806626623183, 1.3429660007175184],
                [1.3953404875888302, 1.3810904663279104, 1.3630413222729605],
                [1.4797920278536814, 1.4607604286764833, 1.4335593652779404]],
}


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_benchmark_grid_estimates_golden(model):
    loop = benchmark_loop(model)
    t_grid = [10.0, 20.0, 40.0]
    sets = maxreg.build_forcing_grid(loop.composed, t_grid, 8, 1234, 500)
    reports = maxreg.plateau_scan_multi(loop.composed, [1.5, 2.0, 4.0], t_grid, sets)
    got = [rep.c_estimates for rep in reports]
    assert np.allclose(got, GOLDEN[model], rtol=1e-10, atol=0.0)


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


def test_plateau_scan_workers_match_serial():
    a = np.diag([-1.0, -3.0])
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=4, seed=2, n_cells_max=400)
    serial = maxreg.plateau_scan_multi(a, [1.5, 2.0], t_grid, sets)
    threaded = maxreg.plateau_scan_multi(a, [1.5, 2.0], t_grid, sets, workers=3)
    for r1, r2 in zip(serial, threaded):
        assert r1.c_estimates == r2.c_estimates
        assert r1.verdict == r2.verdict


# ---------------------------------------------------------------- imaginary axis

def test_imaginary_axis_scalar():
    sup = maxreg.imaginary_axis_bound(np.array([[-1.0]]))
    assert 0.9 <= sup < 1.0


def test_imaginary_axis_diag():
    sup = maxreg.imaginary_axis_bound(np.diag([-1.0, -10.0]))
    assert sup < 1.0


def test_imaginary_axis_unstable_is_inf():
    open_loop = heat.build_heat_operator(HeatConfig(n=16, c2=16.0))
    assert maxreg.imaginary_axis_bound(open_loop) == np.inf
    # eigenvalues +/- i sit on the axis itself
    assert maxreg.imaginary_axis_bound(np.array([[0.0, 1.0], [-1.0, 0.0]])) == np.inf


@pytest.mark.parametrize("s", [0.0, 1.0, 10.0, 100.0])
def test_imaginary_axis_jordan_oracle(s):
    # A = [[-1, s], [0, -1]]: sup_w ||iw R(iw, A)|| = sqrt(s^2 + 4) / 2 exactly
    exact = math.sqrt(s * s + 4.0) / 2.0
    sup = maxreg.imaginary_axis_bound(np.array([[-1.0, s], [0.0, -1.0]]))
    assert 0.99 * exact <= sup <= exact * (1.0 + 1e-12)


def test_imaginary_axis_finite_iff_stable():
    cl = stable_heat_loop(n=16)
    assert np.isfinite(maxreg.imaginary_axis_bound(cl))


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


def test_verdict_rule():
    assert maxreg._verdict([1.0, 1.01, 1.02]) == "plateau"          # settled
    assert maxreg._verdict([1.0, 10.0, 100.0]) == "growth"          # log step > 1
    assert maxreg._verdict([1.5, 1.3, 1.1]) == "plateau"            # nonincreasing
    assert maxreg._verdict([1.0, 1.3, 1.7]) == "indeterminate"


def test_report_rows_header_contract():
    assert maxreg.CSV_HEADER == "model,mode,p,T,C_estimate,imag_sup,verdict"
    rep = maxreg.MaxRegReport(p=2.0, t_grid=(1.0, 2.0), c_estimates=(1.0, 1.1),
                              imag_axis_sup=3.0, verdict="plateau")
    rows = maxreg.report_rows("heat", "spectral", [rep])
    assert len(rows) == 2 and rows[0][0] == "heat"


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
    assert [row[0] for row in rows[1:]] == ["plateau_p=1.5", "plateau_p=2"]
    for scan, row in zip(scans, rows[1:]):
        assert row[1:] == (scan.c_estimates[-1], 0.05,
                           "PASS" if scan.verdict == "plateau" else "FAIL")
    # a verdict the row function did not compute decides its row
    grown = list(scans)
    grown[replaced] = dataclasses.replace(scans[replaced], verdict="growth")
    failing = [row[0] for row in maxreg.verify_rows(grown) if row[3] == "FAIL"]
    assert failing == [f"plateau_p={scans[replaced].p:g}"]


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
    assert rows[1][0] == "plateau_p=2" and rows[1][3] == "FAIL"
