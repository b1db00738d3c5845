import tracemalloc

import numpy as np
import pytest

from stabreg import heat
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


def dense_stencils(n, c2, b):
    """Laplacian, first difference, c^2 I + b D1 and the heat operator as sums
    of np.diag arrays and identities."""
    h = 1.0 / (n + 1)
    ones = np.full(n - 1, 1.0)
    lap = (np.diag(ones, -1) + np.diag(np.full(n, -2.0)) + np.diag(ones, 1)) / h**2
    d1 = (np.diag(ones, 1) - np.diag(ones, -1)) / (2.0 * h)
    pert = c2 * np.eye(n) + b * d1
    return lap, d1, pert, lap + pert


@pytest.mark.parametrize("c2", [16.0, 0.0, -0.0, -3.0])
@pytest.mark.parametrize("b", [0.0, -0.0, 5.0, -2.0])
def test_stencils_keep_every_bit(c2, b):
    # signed zeros included: b * D1 leaves b * 0.0 off the band and c^2 I
    # leaves c^2 * 0.0, and a solver can branch on the sign of a zero
    for n in (8, 9):
        cfg = HeatConfig(n=n, c2=c2, advection_b=b)
        lap, d1, pert, full = dense_stencils(n, c2, b)
        gen, split_pert = heat.heat_split(cfg)
        assert heat.laplacian(n).tobytes() == lap.tobytes()
        assert heat.first_difference(n).tobytes() == d1.tobytes()
        assert gen.entries.tobytes() == lap.tobytes()
        assert split_pert.entries.tobytes() == pert.tobytes()
        assert heat.build_heat_operator(cfg).entries.tobytes() == full.tobytes()
        lift = heat.dirichlet_lift(lap + c2 * np.eye(n), -1.0 / cfg.h**2, "dense")
        assert heat.build_dirichlet_map(cfg).entries.tobytes() == lift.tobytes()


def test_heat_operator_is_written_once():
    # its one array and the Operator's frozen copy of it: 2 N^2 float64 and
    # the few hundred bytes of the objects; summing np.diag arrays, a dense
    # c^2 I and the split's two Operators took 4.13 N^2
    n = 512
    cfg = HeatConfig(n=n)
    tracemalloc.start()
    try:
        heat.build_heat_operator(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n + 4096


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


def test_gamma_scan_decomposes_once_per_grid(monkeypatch):
    # the translated operator reads the drift's decomposition
    calls = []
    fresh_spectrum = ops.spectrum
    monkeypatch.setattr(ops, "spectrum", lambda x: calls.append(x) or fresh_spectrum(x))
    rows = heat.gamma_bound_scan([16, 32], [0.2, 0.75], HeatConfig(c2=16.0, q=2.0))
    assert len(rows) == 4
    assert len(calls) == 2


def test_gamma_scan_threshold_crossover():
    cfg = HeatConfig(c2=16.0, q=2.0)
    rows = heat.gamma_bound_scan([16, 32, 64, 128], [0.2, 0.75], cfg)
    low = [v for _, g, v in rows if g == 0.2]
    high = [v for _, g, v in rows if g == 0.75]
    assert max(low) / min(low) < 1.5
    assert max(high) / min(high) > 4.0


def test_gamma_scan_matches_sine_basis_oracle():
    # (kI - M)^gamma = S diag((k - lam)^gamma) S^T in the orthonormal sine
    # basis S_jk = sqrt(2h) sin(j k pi h) of the advection-free drift M
    cfg = HeatConfig(c2=16.0, q=2.0)
    grids, gammas = [64, 128, 256], [0.2, 0.75]
    rows = heat.gamma_bound_scan(grids, gammas, cfg)
    assert [(n, g) for n, g, _ in rows] == [(n, g) for n in grids for g in gammas]
    for n, g, value in rows:
        sub = HeatConfig(n=n, c2=16.0, q=2.0)
        h = sub.h
        j = np.arange(1, n + 1)
        s = np.sqrt(2.0 * h) * np.sin(np.outer(j, j) * np.pi * h)
        lam = heat.fd_eigenvalues(sub)
        k = max(0.0, lam.max()) + 1.0
        power = (s * (k - lam) ** g) @ s.T
        d = heat.build_dirichlet_map(sub).entries
        exact = np.sqrt(h) * np.linalg.norm(power @ d, 2)
        assert abs(value - exact) <= 1e-10 * exact


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


@pytest.mark.parametrize("c2, want", [(16.0, [-24.3593]), (40.0, [-49.2243, -50.2243])],
                         ids=["one-unstable", "two-unstable"])
def test_default_targets_against_sine_formula(c2, want):
    # one unit apart, starting one below the first untouched mode: with nu
    # unstable modes, -|lambda_{nu+1}| - 1, ..., -|lambda_{nu+1}| - nu
    cfg = HeatConfig(n=32, c2=c2)
    lam = np.sort(heat.fd_eigenvalues(cfg))[::-1]
    nu = int(np.count_nonzero(lam > 0.0))
    got = heat.default_targets(cfg.operator.spectral)
    assert np.abs(got - (-abs(lam[nu]) - np.arange(1.0, nu + 1.0))).max() <= 1e-10
    assert got == pytest.approx(want, abs=1e-4)


# ---------------------------------------------------------------- verification

def test_verify_stabilized_passes():
    cfg = HeatConfig(n=32, c2=16.0)
    law, _ = heat.synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = heat.closed_loop_heat(cfg, law)
    rows = heat.verify_stabilization(cl)
    assert all(status == "PASS" for *_, status in rows)
    assert {name: value for name, value, *_ in rows}["decay_rate"] >= 1.8


def test_verify_open_loop_fails_with_growth():
    cfg = HeatConfig(n=32, c2=16.0)
    cl = heat.closed_loop_heat(cfg, None)
    rows = heat.verify_stabilization(cl)
    assert [name for name, *_, status in rows if status == "FAIL"] == [
        "spectral_abscissa", "decay_rate"]


def test_verify_already_stable_with_zero_feedback():
    cfg = HeatConfig(n=32, c2=4.0)    # c^2 < pi^2: nothing to stabilize
    law, info = heat.synthesize_heat_feedback(cfg)
    assert np.abs(law.as_matrix).max() == 0.0
    cl = heat.closed_loop_heat(cfg, law)
    rows = heat.verify_stabilization(cl)
    assert all(status == "PASS" for *_, status in rows)


def test_map_norm_q_weighted():
    m = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert heat.map_norm_q(m, h=0.25, q=2.0) == pytest.approx(0.5 * 2.0, rel=1e-10)
    v4 = heat.map_norm_q(m, h=0.25, q=4.0)
    assert v4 > 0.0
