"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime-limited criteria time themselves; every tolerance is asserted exactly
as stated.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import time

import numpy as np
import pytest

from stabreg import cli, coupled, heat, maxreg
from stabreg import operators as ops
from stabreg.heat import HeatConfig


def note(num, name):
    print(f"[acceptance {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def heat_closed():
    cfg = HeatConfig(n=64, c2=16.0)
    law, info = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
    return cfg, heat.closed_loop_heat(cfg, law), info


@pytest.fixture(scope="module")
def coupled_closed():
    cfg = coupled.CoupledConfig(n=48, c2_f=16.0, c2_h=16.0, gamma_buoy=0.1,
                                theta_e_profile=0.5)
    f_law, j_law, info = coupled.synthesize_coupled_feedback(cfg, targets=[-2.0, -3.0])
    return cfg, coupled.compose_coupled_loop(cfg, f_law, j_law), info


def test_01_unstable_spectrum():
    t0 = time.perf_counter()
    cfg = HeatConfig(n=64, c2=16.0)
    sp = ops.spectrum(heat.build_heat_operator(cfg))
    elapsed = time.perf_counter() - t0
    assert sp.unstable_count == 1
    assert abs(sp.eigenvalues[0].real - (16.0 - np.pi**2)) <= 2e-2
    assert elapsed < 1.0, f"spectrum took {elapsed:.2f} s"
    note(1, "unstable spectrum, heat c=4 n=64")


def test_02_stabilization_exact_placement(heat_closed):
    cfg, cl, info = heat_closed
    evs = np.linalg.eigvals(cl.composed.entries)
    assert abs(np.max(evs.real) + 2.0) <= 1e-6
    open_spectrum = info["spectral"].eigenvalues
    expected = np.concatenate([[-2.0], open_spectrum[1:]])
    assert ops.match_spectra(evs, expected) <= 1e-6
    _, delta = ops.decay_estimate(cl.composed, np.linspace(1.0, 10.0, 19))
    assert delta >= 1.8
    note(2, "stabilization: abscissa -2 +- 1e-6, untouched tail, decay >= 1.8")


def test_03_maxreg_plateau_and_growth(heat_closed):
    cfg, cl, _ = heat_closed
    t0 = time.perf_counter()
    t_grid = [10.0, 20.0, 40.0]
    p_grid = [1.5, 2.0, 4.0]
    sets = maxreg.build_forcing_grid(cl, t_grid, n_random=32, seed=101, n_cells_max=2000)
    for rep in maxreg.plateau_scan_multi(cl, p_grid, t_grid, sets):
        c20, c40 = rep.c_estimates[1], rep.c_estimates[2]
        assert abs(c40 - c20) / c20 < 0.05, f"p={rep.p}: drift {abs(c40-c20)/c20:.3f}"
        assert rep.verdict == "plateau"
    open_op = heat.build_heat_operator(cfg)
    sets_o = maxreg.build_forcing_grid(open_op, t_grid, n_random=32, seed=101,
                                       n_cells_max=2000)
    for rep in maxreg.plateau_scan_multi(open_op, p_grid, t_grid, sets_o):
        logs = np.diff(np.log(rep.c_estimates))
        assert np.all(logs > 3.0)
        assert rep.verdict == "growth"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"scan took {elapsed:.1f} s"
    note(3, f"regularity plateau/growth scans ({elapsed:.1f} s)")


def test_04_resolvent_perturbation_identity(heat_closed, coupled_closed):
    rng = np.random.default_rng(77)
    for loop in (heat_closed[1], coupled_closed[1]):
        right = max(ops.spectral_abscissa(loop.drift_A),
                    float(np.max(np.linalg.eigvals(loop.feedback_part.entries).real)))
        for _ in range(20):
            lam = complex(right + 1.0 + 49.0 * rng.random(),
                          -50.0 + 100.0 * rng.random())
            assert ops.resolvent_perturbation_residual(loop, lam) <= 1e-8
    note(4, "resolvent perturbation identity at 20 random points, both models")


def test_05_adjoint_decomposition_with_advection():
    for n, b in ((64, 4.0), (48, 2.0)):
        cfg = HeatConfig(n=n, c2=16.0, advection_b=b)
        law, _ = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
        cl = heat.closed_loop_heat(cfg, law)
        assert cl.perturbation_Ao is not None
        assert np.abs(law.as_matrix).max() > 0
        assert ops.adjoint_decomposition_residual(cl) <= 1e-8
    note(5, "adjoint three-term decomposition, advection on")


def test_06_imaginary_axis_family(heat_closed, coupled_closed):
    # a normal loop's supremum is its limit 1 at |w| -> inf, exactly
    assert abs(maxreg.imaginary_axis_bound(np.diag([-1.0])) - 1.0) <= 1e-12
    for loop_matrix in (heat_closed[1].composed, coupled_closed[1].composed):
        sup = maxreg.imaginary_axis_bound(loop_matrix)
        assert np.isfinite(sup)
    cfg = HeatConfig(n=64, c2=16.0)
    law_loc, _ = heat.synthesize_heat_feedback(cfg, mode="localized", targets=[-2.0])
    cl_loc = heat.closed_loop_heat(cfg, law_loc)
    assert np.isfinite(maxreg.imaginary_axis_bound(cl_loc))
    note(6, "imaginary-axis family bounded on every stabilized loop")


def test_07_green_map_exponent_crossover():
    cfg = HeatConfig(c2=16.0, q=2.0)
    rows = heat.gamma_bound_scan([16, 32, 64, 128], [0.2, 0.75], cfg)
    low = [v for _, g, v in rows if g == 0.2]
    high = [v for _, g, v in rows if g == 0.75]
    assert max(low) / min(low) < 1.5
    assert max(high) / min(high) > 4.0
    note(7, "boundary-lifting exponent crossover at 1/(2q)")


def test_08_square_root_perturbation_bound():
    cfg = HeatConfig(c2=16.0, advection_b=5.0)
    rows = heat.h5_bound_scan([16, 32, 64, 128], cfg)
    vals = [v for _, v in rows]
    assert max(vals) / min(vals) < 1.3
    note(8, "first-order perturbation square-root bound grid-stable")


def test_09_coupled_stabilization_and_reachability(coupled_closed):
    cfg, cl, info = coupled_closed
    sp_open = info["spectral"]
    assert sp_open.unstable_count == 2
    alpha = ops.spectral_abscissa(cl.composed)
    lam_next = sp_open.eigenvalues[2].real
    assert lam_next < alpha < 0.0
    scale = max(np.abs(cl.composed.entries).max(), 1.0)
    assert np.abs(cl.feedback_part.entries + cl.interior_B.entries
                  - cl.composed.entries).max() <= 1e-12 * scale
    # interior control withheld and fluid block unreachable from the boundary
    cfg0 = coupled.CoupledConfig(n=32, gamma_buoy=0.0, c2_f=16.0, c2_h=12.0)
    cl0 = coupled.compose_coupled_loop(cfg0, None)
    rows = {name: (value, status)
            for name, value, _, status in coupled.verify_coupled_stabilization(cl0, cfg0)}
    assert rows["hautus_margins"][1] == "FAIL"
    assert rows["hautus_margins"][0] <= 1e-8
    note(9, "coupled loop stabilized; no-interior variant fails with zero margin")


def test_10_duality_verdicts_agree(heat_closed, coupled_closed):
    t_grid = [5.0, 10.0, 20.0]
    models = [("scalar stable", np.array([[-1.0]]), 4.0),
              ("scalar unstable", np.array([[0.5]]), 2.0),
              ("heat closed loop", heat_closed[1].composed.entries, 2.0),
              ("coupled closed loop", coupled_closed[1].composed.entries, 2.0)]
    for name, mat, p in models:
        sets = maxreg.build_forcing_grid(mat, t_grid, n_random=8, seed=13,
                                         n_cells_max=1000)
        gap = maxreg.duality_check(mat, p, t_grid, sets)   # raises on mismatch
        assert np.isfinite(gap)
    note(10, "duality: verdicts agree between operator at p and adjoint at p'")


def test_11_deterministic_verify(tmp_path):
    config = f"""
[model]
type = heat
n = 32
c2 = 16.0
omega = 0.2 0.4

[synthesis]
mode = spectral
targets = -2

[maxreg]
p_grid = 2
t_grid = 4 8 12
forcing_count = 6
n_cells = 400
seed = 123

[output]
dir = {tmp_path / 'runA'}
"""
    path = tmp_path / "verify.ini"
    path.write_text(config)
    assert cli.main(["verify", "--config", str(path)]) == 0
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "runB")]) == 0
    for name in ("verify.csv", "maxreg.csv"):
        a = (tmp_path / "runA" / name).read_bytes()
        b = (tmp_path / "runB" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    note(11, "repeated verify runs byte-identical at fixed seed")
