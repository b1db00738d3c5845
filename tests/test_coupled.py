import numpy as np
import pytest
import scipy.linalg as la

from stabreg import coupled
from stabreg import operators as ops
from stabreg import synthesis as syn
from stabreg.coupled import CoupledConfig
from stabreg.errors import ConfigError, RankCheckFailure, ResonanceError


def test_config_validation():
    with pytest.raises(ConfigError):
        CoupledConfig(n=4)
    with pytest.raises(ConfigError):
        CoupledConfig(nu=-1.0)
    with pytest.raises(ConfigError):
        CoupledConfig(theta_e_profile=np.ones(3), n=48)
    with pytest.raises(ResonanceError):
        CoupledConfig(c2_h=(np.pi * 1.0001) ** 2, kappa=1.0)


def test_decoupled_limit_spectrum_union():
    cfg = CoupledConfig(n=24, gamma_buoy=0.0, theta_e_profile=0.0,
                        c2_f=16.0, c2_h=12.0)
    block = coupled.build_block_operator(cfg).entries
    ahat, pi0, _, _ = coupled.coupled_split(cfg)
    assert np.abs(pi0.entries).max() == 0.0
    fluid = block[:24, :24]
    thermal = block[24:, 24:]
    union = np.concatenate([la.eigvals(fluid), la.eigvals(thermal)])
    assert ops.match_spectra(la.eigvals(block), union) <= 1e-8


def test_small_coupling_perturbs_eigenvalues_gently():
    base = CoupledConfig(n=24, gamma_buoy=0.0, theta_e_profile=0.0)
    pert = CoupledConfig(n=24, gamma_buoy=0.1, theta_e_profile=0.1)
    e0 = la.eigvals(coupled.build_block_operator(base).entries)
    e1 = la.eigvals(coupled.build_block_operator(pert).entries)
    assert ops.match_spectra(e0, e1) <= 0.15


def test_two_unstable_modes():
    cfg = CoupledConfig(n=48, c2_f=16.0, c2_h=16.0, gamma_buoy=0.1,
                        theta_e_profile=0.5)
    sp = ops.spectrum(coupled.build_block_operator(cfg))
    assert sp.unstable_count == 2


# ---------------------------------------------------------------- thermal map

def test_thermal_map_fluid_rows_zero():
    cfg = CoupledConfig(n=24)
    d = coupled.build_thermal_dirichlet_map(cfg)
    assert np.abs(d.entries[:24]).max() == 0.0
    assert d.entries.shape == (48, 2)


def test_thermal_map_linear_interpolant():
    cfg = CoupledConfig(n=24, c2_h=0.0, kappa=2.5)
    d = coupled.build_thermal_dirichlet_map(cfg)
    x = cfg.nodes()
    assert np.abs(d.entries[24:, 0] - (1 - x)).max() <= 1e-12


def test_thermal_map_trig_profile():
    cfg = CoupledConfig(n=48, c2_h=16.0, kappa=1.0)
    d = coupled.build_thermal_dirichlet_map(cfg)
    x = cfg.nodes()
    exact = np.sin(4 * (1 - x)) / np.sin(4.0)
    assert np.abs(d.entries[48:, 0] - exact).max() <= 5.0 * cfg.h**2


# ---------------------------------------------------------------- composition

def reassembly(cl):
    """Scaled max |feedback_part() + interior_B - composed| of a coupled loop."""
    scale = max(np.abs(cl.composed.entries).max(), 1.0)
    return np.abs(cl.feedback_part() + cl.interior_B.entries
                  - cl.composed.entries).max() / scale


def test_compose_zero_laws_is_open_block():
    cfg = CoupledConfig(n=24)
    cl = coupled.compose_coupled_loop(cfg, None)
    open_block = coupled.build_block_operator(cfg)
    assert np.abs(cl.composed.entries - open_block.entries).max() <= 1e-14
    assert reassembly(cl) <= 1e-12


def test_compose_split_reassembly():
    cfg = CoupledConfig(n=32)
    f_law, j_law, _ = coupled.synthesize_coupled_feedback(cfg, targets=[-2.0, -3.0])
    cl = coupled.compose_coupled_loop(cfg, f_law, j_law)
    assert reassembly(cl) <= 1e-12
    manual = cl.feedback_part() + cl.interior_B.entries
    assert np.array_equal(manual, cl.composed.entries)


def test_interior_support_violation_rejected():
    cfg = CoupledConfig(n=24)
    bad_profiles = np.zeros((48, 1))
    bad_profiles[0] = 1.0    # fluid node outside the window
    law = syn.FeedbackLaw(mode="spectral", boundary_profiles=bad_profiles,
                          observation_rows=np.ones((1, 48)),
                          as_matrix=bad_profiles @ np.ones((1, 48)))
    with pytest.raises(ConfigError):
        coupled.compose_coupled_loop(cfg, None, law)


# ---------------------------------------------------------------- synthesis

def test_synthesized_pair_places_and_stabilizes():
    cfg = CoupledConfig(n=48, c2_f=16.0, c2_h=16.0)
    f_law, j_law, info = coupled.synthesize_coupled_feedback(cfg, targets=[-2.0, -3.0])
    assert ops.match_spectra(info["achieved"], [-2.0, -3.0]) <= 1e-6
    cl = coupled.compose_coupled_loop(cfg, f_law, j_law)
    alpha = ops.spectral_abscissa(cl.composed)
    sp = info["spectral"]
    lam_next = sp.eigenvalues[2].real
    assert lam_next < alpha < 0.0
    assert abs(alpha + 2.0) <= 1e-6


def test_spectral_separation_coupled():
    cfg = CoupledConfig(n=32, c2_f=16.0, c2_h=16.0)
    f_law, j_law, info = coupled.synthesize_coupled_feedback(cfg, targets=[-2.0, -3.0])
    cl = coupled.compose_coupled_loop(cfg, f_law, j_law)
    sp = info["spectral"]
    expected = np.concatenate([[-2.0, -3.0], sp.eigenvalues[2:]])
    assert ops.match_spectra(la.eigvals(cl.composed.entries), expected) <= 1e-6


@pytest.mark.parametrize("kwargs", [{}, {"targets": [-2.0, -3.0]}, {"use_interior": False}])
def test_real_model_gets_real_laws(kwargs):
    cfg = CoupledConfig(n=12)
    f_law, j_law, info = coupled.synthesize_coupled_feedback(cfg, **kwargs)
    assert ops.match_spectra(info["achieved"], info["targets"]) <= 1e-6
    cl = coupled.compose_coupled_loop(cfg, f_law, j_law)
    for m in (f_law.as_matrix, j_law.as_matrix, cl.composed.entries):
        assert m.dtype == np.float64


def test_synthesize_nothing_to_do():
    cfg = CoupledConfig(n=24, c2_f=2.0, c2_h=2.0)
    f_law, j_law, info = coupled.synthesize_coupled_feedback(cfg)
    assert np.abs(f_law.as_matrix).max() == 0.0
    assert np.abs(j_law.as_matrix).max() == 0.0


def test_boundary_only_unreachable_fluid_raises():
    cfg = CoupledConfig(n=32, gamma_buoy=0.0, c2_f=16.0, c2_h=12.0)
    with pytest.raises(RankCheckFailure):
        coupled.synthesize_coupled_feedback(cfg, targets=[-1.0, -2.0],
                                            use_interior=False)


# ---------------------------------------------------------------- verification

def test_verify_pass_with_pair():
    cfg = CoupledConfig(n=32, c2_f=16.0, c2_h=16.0)
    f_law, j_law, _ = coupled.synthesize_coupled_feedback(cfg, targets=[-2.0, -3.0])
    cl = coupled.compose_coupled_loop(cfg, f_law, j_law)
    rep = coupled.verify_coupled_stabilization(cl, cfg)
    assert rep.passed, rep.failing


def test_verify_fail_no_interior_zero_margin():
    cfg = CoupledConfig(n=32, gamma_buoy=0.0, c2_f=16.0, c2_h=12.0)
    cl = coupled.compose_coupled_loop(cfg, None)
    rep = coupled.verify_coupled_stabilization(cl, cfg)
    assert not rep.passed
    assert "hautus_margins" in rep.failing
    assert rep.checks["hautus_margins"][1] <= 1e-8


def test_adjoint_bound_scan_grid_stable():
    cfg = CoupledConfig(n=16)
    rows = coupled.adjoint_bound_scan([16, 32, 64], cfg, targets=[-2.0, -3.0])
    vals = [v for _, v in rows]
    assert max(vals) / min(vals) < 1.5


def test_window_keeps_edge_node_lost_to_rounding():
    # at n = 39 the node 0.25 is stored as 0.24999999999999997
    cfg = CoupledConfig(n=39)
    x = cfg.nodes()
    assert np.any((x < 0.25) & (x > 0.25 - 1e-12))
    assert coupled.fluid_window_mask(cfg).sum() == 9


def test_interior_profiles_orthonormal():
    cfg = CoupledConfig(n=48)
    cols = coupled.interior_control_profiles(cfg, 2)
    gram = cols.T @ (cfg.h * cols)
    assert np.abs(gram - np.eye(2)).max() <= 1e-10
    mask = coupled.fluid_window_mask(cfg)
    assert np.abs(cols[~mask]).max() == 0.0
