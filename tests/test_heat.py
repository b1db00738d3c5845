import dataclasses

import numpy as np
import pytest

from stabreg import heat, maxreg
from stabreg import operators as ops
from stabreg.errors import ConfigError, ResonanceError
from stabreg.heat import HeatConfig


def test_config_validation():
    with pytest.raises(ConfigError):
        HeatConfig(n=4)
    with pytest.raises(ConfigError):
        HeatConfig(omega=(0.5, 0.4))
    with pytest.raises(ConfigError):
        HeatConfig(q=1.0)
    with pytest.raises(ResonanceError):
        HeatConfig(c2=(np.pi * 1.0001) ** 2)
    HeatConfig(c2=(np.pi * 1.2) ** 2)   # safely away from resonance


def test_stencil_n3():
    cfg = HeatConfig(n=8, c2=0.0)
    m = heat.laplacian(3)
    assert np.array_equal(m, 16.0 * np.array([[-2.0, 1, 0], [1, -2, 1], [0, 1, -2]]))
    assert cfg.gamma == pytest.approx(0.25 - 0.01)


def test_heat_operator_unstable_mode():
    cfg = HeatConfig(n=64, c2=16.0)
    sp = ops.spectrum(heat.build_heat_operator(cfg))
    assert sp.unstable_count == 1
    assert abs(sp.eigenvalues[0].real - (16 - np.pi**2)) <= 2e-2


def test_heat_operator_advection_nonsymmetric_still_one_unstable():
    # advection shifts the spectrum: top eigenvalue ~ c^2 - b^2/4 - pi^2
    # (substitution y = e^{-bx/2} u), so one unstable mode survives for b = 4
    cfg = HeatConfig(n=64, c2=16.0, advection_b=4.0)
    m = heat.build_heat_operator(cfg).entries
    assert np.abs(m - m.T).max() > 1.0
    sp = ops.spectrum(heat.build_heat_operator(cfg))
    assert sp.unstable_count == 1
    assert abs(sp.eigenvalues[0].real - (16.0 - 4.0 - np.pi**2)) <= 0.05
    # at b = 5 the shift stabilizes the loop outright
    sp5 = ops.spectrum(heat.build_heat_operator(HeatConfig(n=64, c2=16.0, advection_b=5.0)))
    assert sp5.unstable_count == 0


def test_discrete_eigenvalues_match_formula():
    cfg = HeatConfig(n=24, c2=9.1)
    sp = ops.spectrum(heat.build_heat_operator(cfg))
    exact = np.sort(heat.fd_eigenvalues(cfg))[::-1]
    assert np.abs(sp.eigenvalues.real - exact).max() <= 1e-8


def test_grid_convergence_richardson():
    vals = {}
    for n in (16, 32, 64):
        sp = ops.spectrum(heat.build_heat_operator(HeatConfig(n=n, c2=16.0)))
        vals[n] = sp.eigenvalues[0].real
    ratio = (vals[16] - vals[32]) / (vals[32] - vals[64])
    assert abs(ratio - 4.0) <= 0.6


# ---------------------------------------------------------------- Dirichlet map

def test_dirichlet_linear_interpolant():
    cfg = HeatConfig(n=32, c2=0.0)
    d = heat.build_dirichlet_map(cfg)
    x = cfg.nodes()
    assert np.abs(d.entries[:, 0] - (1 - x)).max() <= 1e-12
    assert np.abs(d.entries[:, 1] - x).max() <= 1e-12
    assert np.abs(d.entries @ np.ones(2) - 1.0).max() <= 1e-12
    assert d.gamma == pytest.approx(0.24)


def test_dirichlet_trig_profile_second_order():
    for n in (32, 64):
        cfg = HeatConfig(n=n, c2=16.0)
        d = heat.build_dirichlet_map(cfg)
        x = cfg.nodes()
        exact = np.sin(4 * (1 - x)) / np.sin(4.0)
        assert np.abs(d.entries[:, 0] - exact).max() <= 5.0 * cfg.h**2


def test_dirichlet_interior_consistency():
    cfg = HeatConfig(n=48, c2=16.0)
    d = heat.build_dirichlet_map(cfg)
    elliptic = heat.laplacian(48) + 16.0 * np.eye(48)
    rhs = np.zeros((48, 2))
    rhs[0, 0] = -1 / cfg.h**2
    rhs[-1, 1] = -1 / cfg.h**2
    resid = np.abs(elliptic @ d.entries - rhs).max() / np.abs(rhs).max()
    assert resid <= 1e-10


def test_dirichlet_resonance_guard():
    cfg = HeatConfig.__new__(HeatConfig)   # bypass config guard to hit the solver guard
    object.__setattr__(cfg, "n", 32)
    object.__setattr__(cfg, "c2", (4 / (1 / 33) ** 2) * np.sin(np.pi / 66) ** 2)
    object.__setattr__(cfg, "omega", (0.2, 0.4))
    object.__setattr__(cfg, "q", 2.0)
    object.__setattr__(cfg, "epsilon", 0.01)
    with pytest.raises(ResonanceError):
        heat.build_dirichlet_map(cfg)


# ---------------------------------------------------------------- exponent scans

def test_gamma_scan_zero_exponent_grid_stable():
    cfg = HeatConfig(c2=16.0)
    rows = heat.gamma_bound_scan([16, 32, 64], [0.0], cfg)
    vals = [v for _, _, v in rows]
    assert max(vals) / min(vals) <= 1.05


def test_gamma_scan_threshold_crossover():
    cfg = HeatConfig(c2=16.0, q=2.0)
    rows = heat.gamma_bound_scan([16, 32, 64, 128], [0.2, 0.75], cfg)
    low = [v for _, g, v in rows if g == 0.2]
    high = [v for _, g, v in rows if g == 0.75]
    assert max(low) / min(low) < 1.5
    assert max(high) / min(high) > 4.0


def test_h5_square_root_bound():
    cfg = HeatConfig(c2=16.0, advection_b=5.0)
    rows = heat.h5_bound_scan([16, 32, 64, 128], cfg)
    vals = [v for _, v in rows]
    assert max(vals) / min(vals) < 1.3


# ---------------------------------------------------------------- closed loop

def test_closed_loop_zero_feedback():
    cfg = HeatConfig(n=32, c2=16.0)
    cl = heat.closed_loop_heat(cfg, None)
    assert np.array_equal(cl.composed.entries, heat.build_heat_operator(cfg).entries)
    assert cl.interior_B is None


def test_closed_loop_spectral_target():
    cfg = HeatConfig(n=64, c2=16.0)
    law, info = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = heat.closed_loop_heat(cfg, law)
    evs = np.linalg.eigvals(cl.composed.entries)
    assert abs(np.max(evs.real) + 2.0) <= 1e-6
    stable_open = info["spectral"].eigenvalues[1:]
    closed_rest = np.sort_complex(evs)[:-1]
    assert ops.match_spectra(np.sort_complex(stable_open), closed_rest) <= 1e-6


def test_closed_loop_localized_stable():
    cfg = HeatConfig(n=64, c2=16.0)
    law, _ = heat.synthesize_heat_feedback(cfg, mode="localized", targets=[-2.0])
    cl = heat.closed_loop_heat(cfg, law)
    assert ops.spectral_abscissa(cl.composed) < 0.0


# ---------------------------------------------------------------- verification

def test_verify_stabilized_passes():
    cfg = HeatConfig(n=32, c2=16.0)
    law, _ = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = heat.closed_loop_heat(cfg, law)
    rep = heat.verify_stabilization(cl, decay_margin=2.0, p_grid=(2.0,),
                                    t_horizons=(5.0, 10.0, 20.0), n_random=8)
    assert rep.passed
    assert rep.checks["decay_rate"][1] >= 1.8


def test_verify_open_loop_fails_with_growth():
    cfg = HeatConfig(n=32, c2=16.0)
    cl = heat.closed_loop_heat(cfg, None)
    rep = heat.verify_stabilization(cl, p_grid=(2.0,),
                                    t_horizons=(5.0, 10.0, 20.0), n_random=4)
    assert not rep.passed
    assert "spectral_abscissa" in rep.failing
    assert any(name.startswith("plateau") for name in rep.failing)
    assert rep.checks["imag_axis_sup"] == (False, np.inf, np.inf)


def test_verify_already_stable_with_zero_feedback():
    cfg = HeatConfig(n=32, c2=4.0)    # c^2 < pi^2: nothing to stabilize
    law, info = heat.synthesize_heat_feedback(cfg)
    assert np.abs(law.as_matrix).max() == 0.0
    cl = heat.closed_loop_heat(cfg, law)
    rep = heat.verify_stabilization(cl, p_grid=(2.0,),
                                    t_horizons=(5.0, 10.0, 20.0), n_random=4)
    assert rep.passed


def test_verify_scans_match_direct_scan():
    cfg = HeatConfig(n=16, c2=16.0)
    law, _ = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = heat.closed_loop_heat(cfg, law)
    p_grid, t_horizons = (1.5, 2.0), (2.0, 4.0, 8.0)
    rep = heat.verify_stabilization(cl, p_grid=p_grid, t_horizons=t_horizons,
                                    n_random=3, seed=7, n_cells=200)
    sets = maxreg.build_forcing_grid(cl, t_horizons, n_random=3, seed=7,
                                     n_cells_max=200)
    direct = maxreg.plateau_scan_multi(cl, p_grid, t_horizons, sets)
    np.testing.assert_equal([dataclasses.asdict(r) for r in rep.scans],
                            [dataclasses.asdict(r) for r in direct])
    assert rep.checks["imag_axis_sup"][1] == direct[0].imag_axis_sup


def test_map_norm_q_weighted():
    m = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert heat.map_norm_q(m, h=0.25, q=2.0) == pytest.approx(0.5 * 2.0, rel=1e-10)
    v4 = heat.map_norm_q(m, h=0.25, q=4.0)
    assert v4 > 0.0
