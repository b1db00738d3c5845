import math

import numpy as np
import pytest

from stabreg import _kernels, heat, maxreg
from stabreg import operators as ops
from stabreg.errors import (
    SingularityError,
    UsageError,
)
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
    f = maxreg.piecewise_random_forcing(4, 10.0, 100, seed=3)
    assert f.horizon == pytest.approx(10.0)
    assert f.n_cells == 100 and f.dim == 4


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
    modes = maxreg.single_mode_forcings(cl, 10.0)
    f = modes[0]
    _, y = maxreg.solution_map(cl, f, refine=400)
    sup = np.linalg.norm(y, axis=1).max()
    bound = max(m_fit, 1.0) / delta * np.linalg.norm(f.values)
    assert sup <= 1.05 * bound


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
        rhs = a @ (0.5 * (y[j] + y[j + 1])) + f.values[j]
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


# ---------------------------------------------------------------- quadrature levels

def test_one_kernel_sweep_per_cell_structure(monkeypatch):
    calls = []
    sweep = _kernels.lti_norm_scan

    def counting(A, E, P, f_cells, refine):
        calls.append(refine)
        return sweep(A, E, P, f_cells, refine)

    monkeypatch.setattr(_kernels, "lti_norm_scan", counting)
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    t_grid = [5.0, 10.0, 20.0]
    sets = maxreg.build_forcing_grid(a, t_grid, n_random=2, seed=3, n_cells_max=200)
    for t, fs in zip(t_grid, sets):
        calls.clear()
        maxreg.maxreg_constants_multi(a, [1.5, 2.0], t, fs)
        # the random forcings share one cell structure, the eigenmodes another
        groups = {(f.n_cells, f.time_step) for f in fs}
        assert len(groups) == 2 and len(calls) == 2
        top = 2 ** maxreg.QUAD_MAX_DOUBLINGS
        assert sorted(calls) == sorted(math.ceil(maxreg.QUAD_NODES / c) * top
                                       for c, _ in groups)


def doubling_reference(a, p_list, forcings):
    """Independent sweeps per forcing and level, QUAD_RTOL stopping rule.

    Returns (estimates, level stopped at)."""
    prev = None
    for level in range(maxreg.QUAD_MAX_DOUBLINGS + 1):
        best = np.zeros(len(p_list))
        for f in forcings:
            refine = math.ceil(maxreg.QUAD_NODES / f.n_cells) * 2 ** level
            h = f.time_step / refine
            e, p = maxreg._propagator_pair(a, h)
            nyt, nay, nf = (x[:, 0] for x in
                            _kernels.lti_norm_scan(a, e, p, f.values[:, :, None], refine))
            for i, q in enumerate(p_list):
                num = maxreg.lp_time_norm(nyt, h, q) + maxreg.lp_time_norm(nay, h, q)
                best[i] = max(best[i], num / maxreg.lp_time_norm(nf, h, q))
        if prev is not None and np.all(np.abs(best - prev) <= maxreg.QUAD_RTOL * prev):
            return best, level
        prev = best
    return prev, level


@pytest.mark.parametrize(("n_cells_max", "horizon", "level"),
                         [(50, 20.0, 1), (250, 10.0, maxreg.QUAD_MAX_DOUBLINGS)],
                         ids=["stops-at-level-1", "reaches-cap"])
def test_levels_read_off_one_sweep_match_doubling_sweeps(n_cells_max, horizon, level):
    a = maxreg.operator_matrix(stable_heat_loop(16).composed)
    t_grid = [horizon / 4, horizon / 2, horizon]
    fs = maxreg.build_forcing_grid(a, t_grid, n_random=2, seed=1234,
                                   n_cells_max=n_cells_max)[-1]
    p_list = [1.5, 2.0, 4.0]
    expected, stopped = doubling_reference(a, p_list, fs)
    assert stopped == level
    got = maxreg.maxreg_constants_multi(a, p_list, horizon, fs)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


# C_estimate on the benchmark's [maxreg] grid (8 forcings, 500 cells, seed
# 1234, p = 1.5 / 2 / 4 by rows, T = 10 / 20 / 40 by columns).
GOLDEN = {
    "heat": [[1.2222857172970891, 1.2177596224695102, 1.2126036089599592],
             [1.237248429368248, 1.2349607038453072, 1.2280378862392702],
             [1.3072474037852395, 1.2941456079279274, 1.2839291902751675]],
    "coupled": [[1.3731849384103814, 1.358806626623183, 1.3429660007175184],
                [1.3953404875888302, 1.3810904663279104, 1.3630413222729605],
                [1.4797920278536814, 1.4607604286764833, 1.4335593652779404]],
}


@pytest.mark.parametrize("model", ["heat", "coupled"])
def test_benchmark_grid_estimates_golden(model):
    if model == "heat":
        loop = HeatConfig(n=32, c2=16.0).synthesize(targets=[-2.0])[0]
    else:
        loop = CoupledConfig(n=12).synthesize(use_interior=True)[0]
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


def test_imaginary_axis_unstable_raises():
    cfg = HeatConfig(n=16, c2=16.0)
    with pytest.raises(SingularityError) as err:
        maxreg.imaginary_axis_bound(heat.build_heat_operator(cfg))
    assert "t near" in str(err.value)


def test_imaginary_axis_grid_span_guard():
    with pytest.raises(UsageError):
        maxreg.imaginary_axis_bound(np.array([[-1.0]]), t_grid=np.logspace(-1, 1, 10))


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
