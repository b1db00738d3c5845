import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from stabreg import coupled
from stabreg import operators as ops
from stabreg import synthesis as syn
from stabreg.coupled import CoupledConfig
from stabreg.errors import ConfigError, RankCheckFailure, ResonanceError
from stabreg.heat import HeatConfig, first_difference, laplacian

# the adjoint grid of the grid-study benchmark
ADJOINT_GRID = [16, 32, 64, 128, 256]


def traced_peak(call):
    """(result, peak bytes that numpy and Python allocated during ``call``)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_config_validation():
    with pytest.raises(ConfigError):
        CoupledConfig(n=4)
    with pytest.raises(ConfigError):
        CoupledConfig(nu=-1.0)
    with pytest.raises(ConfigError):
        CoupledConfig(theta_e_profile=np.ones(3), n=48)
    with pytest.raises(ResonanceError):
        CoupledConfig(c2_h=(np.pi * 1.0001) ** 2, kappa=1.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(("config", "field"), [
    (HeatConfig, "c2"), (HeatConfig, "advection_b"),
    (CoupledConfig, "c2_h"), (CoupledConfig, "nu"), (CoupledConfig, "ye_advect"),
])
def test_non_finite_float_field_names_the_field(config, field, value):
    # built from the library, not the CLI: inf once overflowed int(round(c / pi))
    # in the resonance guard, and nan slipped through every range test
    with pytest.raises(ConfigError, match=f"^{field} = "):
        config(**{field: value})


@pytest.mark.parametrize(("config", "resonant"), [
    (HeatConfig, {"c2": (np.pi * 1.0001) ** 2}),
    (CoupledConfig, {"c2_h": 4.0 * (np.pi * 1.0001) ** 2, "kappa": 4.0}),
], ids=["heat", "coupled"])
def test_config_validation_shared_rules(config, resonant):
    # the grid-model rules both configs share: n >= 8, a window strictly
    # inside (0,1), 1 < q < inf, 0 < eps < 1/(2q) (0.25 is the open bound at
    # q = 2), and the continuum resonance test on sqrt(c2) or sqrt(c2_h/kappa)
    for bad in ({"n": 7}, {"omega": (0.5, 0.4)}, {"q": 1.0}, {"epsilon": 0.25}):
        with pytest.raises(ConfigError) as info:
            config(**bad)
        assert info.type is ConfigError
    with pytest.raises(ResonanceError):
        config(**resonant)
    config(n=8, epsilon=0.2499)


def dense_split(cfg):
    """The four split blocks as np.block of identities and diagonals."""
    n = cfg.n
    lap, d1, eye, zero = laplacian(n), first_difference(n), np.eye(n), np.zeros((n, n))
    ahat = np.block([[cfg.nu * lap + cfg.c2_f * eye, zero],
                     [zero, cfg.kappa * lap + cfg.c2_h * eye]])
    pi0 = np.block([[cfg.ye_advect * d1, cfg.gamma_buoy * eye],
                    [-np.diag(cfg.theta_vector()), cfg.ye_advect * d1]])
    gen = np.block([[cfg.nu * lap, zero], [zero, cfg.kappa * lap]])
    trans = np.block([[cfg.c2_f * eye, zero], [zero, cfg.c2_h * eye]])
    return ahat, pi0, gen, trans


@pytest.mark.parametrize("cfg", [
    CoupledConfig(n=12),
    CoupledConfig(n=17, ye_advect=-0.3, gamma_buoy=-0.2, c2_f=-1.0, c2_h=3.0,
                  theta_e_profile=np.r_[np.zeros(5), -np.ones(6), np.linspace(0.0, 1.0, 6)]),
], ids=["default", "negative"])
def test_blocks_built_in_place_keep_every_bit(cfg):
    # signed zeros included: c * eye leaves c * 0.0 off the diagonal and
    # -diag(theta) leaves -0.0, and the entries that follow read them
    dense = dense_split(cfg)
    for op, want in zip(coupled.coupled_split(cfg), dense):
        assert op.entries.tobytes() == want.tobytes(), op.label
    block = coupled.build_block_operator(cfg).entries
    assert block.tobytes() == (dense[0] + dense[1]).tobytes()


def test_block_operator_is_built_once():
    cfg = CoupledConfig(n=256)
    op, peak = traced_peak(lambda: coupled.build_block_operator(cfg))
    # the array itself and the Operator's read-only copy; the four split
    # blocks and their sum took 9.1 (2n)^2 float64
    assert peak <= 3 * op.entries.nbytes
    ahat, pi0, _, _ = coupled.coupled_split(cfg)
    assert np.array_equal(op.entries, ahat.entries + pi0.entries)


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
    """Scaled max |feedback_part + interior_B - composed| of a coupled loop."""
    scale = max(np.abs(cl.composed.entries).max(), 1.0)
    return np.abs(cl.feedback_part.entries + cl.interior_B.entries
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
    manual = cl.feedback_part.entries + cl.interior_B.entries
    assert np.array_equal(manual, cl.composed.entries)


def test_interior_support_violation_rejected():
    cfg = CoupledConfig(n=24)
    bad_profiles = np.zeros((48, 1))
    bad_profiles[0] = 1.0    # fluid node outside the window
    law = syn.FeedbackLaw(boundary_profiles=bad_profiles,
                          observation_rows=np.ones((1, 48)))
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
    rows = coupled.verify_coupled_stabilization(cl, cfg)
    assert all(status == "PASS" for *_, status in rows), rows


def test_verify_builds_no_split(monkeypatch):
    # the interior test reads the couplings block alone; with and without an
    # interior law the rows are those of the loop's own verification
    cfg = CoupledConfig(n=24)
    f_law, j_law, info = coupled.synthesize_coupled_feedback(cfg)
    loops = [coupled.compose_coupled_loop(cfg, f_law, j_law),
             coupled.compose_coupled_loop(cfg, f_law)]
    rows = [coupled.verify_coupled_stabilization(cl, cfg, info["reduced"]) for cl in loops]
    def refuse(cfg):
        raise AssertionError("coupled_split called")
    monkeypatch.setattr(coupled, "coupled_split", refuse)
    for cl, want in zip(loops, rows):
        assert repr(coupled.verify_coupled_stabilization(cl, cfg, info["reduced"])) == repr(want)
    # the Hautus row's threshold tells the two branches apart
    assert [r[1][0] for r in rows] == ["hautus_margins"] * 2
    assert [r[1][2] for r in rows] == [0.0, syn.RANK_TOL]


def test_verify_nothing_unstable_rows():
    # c^2 = 0 on both blocks: no unstable mode, so no Hautus row, and the
    # abscissa and decay rows are judged against 0
    cfg = CoupledConfig(n=12, c2_f=0.0, c2_h=0.0)
    assert cfg.operator.spectral.unstable_count == 0
    cl = coupled.compose_coupled_loop(cfg, None)
    rows = coupled.verify_coupled_stabilization(cl, cfg)
    assert [(name, status) for name, *_, status in rows] == [
        ("reassembly", "PASS"), ("abscissa_window", "PASS"), ("decay_rate", "PASS")]
    assert [threshold for _, _, threshold, _ in rows[1:]] == [0.0, 0.0]


def test_verify_all_unstable_open_loop_rows():
    # c^2 = 350 on both blocks: all 16 open-loop modes are unstable, so there
    # is no first untouched mode; a hand-composed interior term -400 I
    # stabilizes the loop, and both windows are judged against 0
    cfg = CoupledConfig(n=8, c2_f=350.0, c2_h=350.0)
    assert cfg.operator.spectral.unstable_count == 2 * cfg.n
    diffusion, couplings, _, _ = coupled.coupled_split(cfg)
    cl = ops.compose_closed_loop(diffusion, cfg.lifting, None,
                                 interior_B=couplings.entries - 400.0 * np.eye(2 * cfg.n))
    rows = coupled.verify_coupled_stabilization(cl, cfg)
    assert [(name, status) for name, *_, status in rows] == [
        ("reassembly", "PASS"), ("hautus_margins", "PASS"),
        ("abscissa_window", "PASS"), ("decay_rate", "PASS")]
    assert [threshold for _, _, threshold, _ in rows[2:]] == [0.0, 0.0]


def test_verify_fail_no_interior_zero_margin():
    cfg = CoupledConfig(n=32, gamma_buoy=0.0, c2_f=16.0, c2_h=12.0)
    cl = coupled.compose_coupled_loop(cfg, None)
    rows = {name: (value, status)
            for name, value, _, status in coupled.verify_coupled_stabilization(cl, cfg)}
    assert rows["hautus_margins"][1] == "FAIL"
    assert rows["hautus_margins"][0] <= 1e-8


def test_adjoint_bound_scan_grid_stable():
    cfg = CoupledConfig(n=16)
    rows = coupled.adjoint_bound_scan([16, 32, 64], cfg, targets=[-2.0, -3.0])
    vals = [v for _, v in rows]
    assert max(vals) / min(vals) < 1.5


def test_adjoint_bound_scan_matches_dense_norm():
    # the scan reads the norm from thin factors; the oracle forms the
    # 2n x 2n product and takes its SVD
    cfg = CoupledConfig(n=16)
    grids = [16, 32, 64]
    rows = coupled.adjoint_bound_scan(grids, cfg, targets=[-2.0, -3.0])
    assert [n for n, _ in rows] == grids
    for n, value in rows:
        sub = CoupledConfig(n=n)
        f_law, j_law, _ = coupled.synthesize_coupled_feedback(sub, targets=[-2.0, -3.0])
        cl = coupled.compose_coupled_loop(sub, f_law, j_law)
        power = ops.real_power(-cl.generator_A.entries, -(1.0 - sub.gamma)).entries
        term = cl.drift_A.entries @ cl.green.entries @ cl.feedback_matrix
        assert value == pytest.approx(np.linalg.norm(power @ term, 2), rel=1e-13)


def test_adjoint_bound_scan_composes_no_loop():
    # X and F come from the factors; composing the loop took 16.2 (2n)^2
    # float64 at the peak, reading them took 10.1, and with the interior law
    # held as its factors and the block's left basis from a real inverse it
    # takes 6.6
    n = 128
    _, peak = traced_peak(lambda: coupled.adjoint_bound_scan(
        [n], CoupledConfig(n=16), targets=[-2.0, -3.0]))
    assert peak <= 8 * 8 * (2 * n) ** 2


def test_adjoint_bound_scan_takes_a_profile_by_its_mean():
    prof = np.linspace(0.2, 0.8, 16)
    rows = coupled.adjoint_bound_scan([16, 24], CoupledConfig(n=16, theta_e_profile=prof),
                                      targets=[-2.0, -3.0])
    mean = CoupledConfig(n=16, theta_e_profile=float(np.mean(prof)))
    assert rows == coupled.adjoint_bound_scan([16, 24], mean, targets=[-2.0, -3.0])


@pytest.mark.parametrize("n", ADJOINT_GRID)
def test_interior_profiles_stay_in_the_window(n):
    # the support check that composing the loop made, which the adjoint scan
    # no longer makes, holds by construction at every n of its grid
    cfg = CoupledConfig(n=n)
    outside = ~coupled.fluid_window_mask(cfg)
    for k in (1, 2, 3):
        assert not coupled.interior_control_profiles(cfg, k)[outside].any()


def test_thermal_dirichlet_resonance_guard():
    # the first discrete resonance sqrt(c2_h / kappa) = 3.137... sits 4.5e-3
    # from pi, so the continuum guard lets it through and the solver must stop it
    n, kappa = 16, 1.5
    h = 1.0 / (n + 1)
    cfg = CoupledConfig.__new__(CoupledConfig)    # bypass the config guard
    for field, value in dataclasses.asdict(CoupledConfig(n=n, kappa=kappa)).items():
        object.__setattr__(cfg, field, value)
    object.__setattr__(cfg, "c2_h", kappa * (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2)
    with pytest.raises(ResonanceError, match="numerically singular"):
        coupled.build_thermal_dirichlet_map(cfg)


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
