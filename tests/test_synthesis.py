import numpy as np
import pytest
import scipy.linalg as la

from stabreg import operators as ops
from stabreg import synthesis as syn
from stabreg.coupled import CoupledConfig, synthesize_coupled_feedback
from stabreg.errors import RankCheckFailure, SynthesisError, UsageError
from stabreg.heat import (
    HeatConfig,
    build_dirichlet_map,
    build_heat_operator,
    closed_loop_heat,
    omega_mask_weights,
    synthesize_heat_feedback,
)
from stabreg.operators import GreenMap, Operator


def heat_setup(n=64, c2=16.0, mask=False):
    cfg = HeatConfig(n=n, c2=c2)
    op = build_heat_operator(cfg)
    d = build_dirichlet_map(cfg)
    sp = ops.spectrum(op)
    if mask:
        return cfg, op, d, sp, omega_mask_weights(cfg)
    return cfg, op, d, sp


# ---------------------------------------------------------------- projection

def test_projection_diag():
    sp = ops.spectrum(np.diag([1.0, -1.0]))
    p = syn.unstable_projection(sp)
    assert np.allclose(p.entries, np.diag([1.0, 0.0]))


def test_projection_heat_rank_one():
    _, op, _, sp = heat_setup()
    p = syn.unstable_projection(sp).entries
    assert np.linalg.matrix_rank(p, tol=1e-6) == 1
    assert np.linalg.norm(p @ p - p, 2) <= 1e-8
    a = op.entries
    assert np.linalg.norm(p @ a - a @ p, 2) <= 1e-6 * np.linalg.norm(a, 2)


def test_projection_heat_c7_rank_two():
    _, _, _, sp = heat_setup(c2=49.0)
    assert sp.unstable_count == 2
    p = syn.unstable_projection(sp).entries
    assert np.linalg.matrix_rank(p, tol=1e-6) == 2


def test_projection_nothing_to_stabilize():
    sp = ops.spectrum(np.diag([-1.0, -2.0]))
    p = syn.unstable_projection(sp)
    assert np.array_equal(p.entries, np.zeros((2, 2)))


# ---------------------------------------------------------------- reduce / rank

def test_reduce_scalar_margin_is_influence():
    lam1, b = 6.13, 0.37
    op = Operator(np.array([[lam1]]))
    green = GreenMap(np.array([[b / lam1]]), gamma=0.5)   # so that M G = b
    sp = ops.spectrum(op)
    rp = syn.reduce(sp, op, green)
    assert np.allclose(rp.lam, [lam1])
    assert np.allclose(rp.b_matrix, [[b]])
    assert rp.hautus_margins[0] == pytest.approx(abs(b), abs=1e-12)


def test_reduce_orthogonal_influence_margin_zero():
    op = Operator(np.diag([2.0, -1.0]))
    green = GreenMap(np.array([[0.0], [1.0]]), gamma=0.5)  # stable direction only
    sp = ops.spectrum(op)
    rp = syn.reduce(sp, op, green)
    assert rp.hautus_margins[0] <= 1e-12
    report = syn.rank_check(rp)
    assert not report.passed
    assert report.failing == (0,)


def test_reduce_heat_c7_two_inputs():
    _, op, d, sp = heat_setup(c2=49.0)
    rp = syn.reduce(sp, op, d)
    assert rp.n_unstable == 2
    assert np.all(rp.hautus_margins > 0.1)
    assert syn.rank_check(rp).passed


def test_rank_check_reports_failing_eigenvalue():
    rp = syn.ReducedPair(lam=np.array([1.0 + 0j, 2.0 + 0j]),
                         b_matrix=np.array([[0.5], [0.0]]),
                         hautus_margins=np.array([0.5, 0.0]),
                         clusters=((0,), (1,)))
    report = syn.rank_check(rp)
    assert not report.passed
    assert report.failing == (1,)
    assert "FAIL" in report.table()
    report_ok = syn.rank_check(syn.ReducedPair(
        lam=np.array([1.0 + 0j]), b_matrix=np.array([[0.5]]),
        hautus_margins=np.array([0.5]), clusters=((0,),)))
    assert report_ok.passed


def test_rank_check_window_gramian_oracle():
    # independent oracle: integral of sin^2(pi x) over the node-covered window
    cfg, op, d, sp, wts = heat_setup(mask=True)
    rp = syn.reduce(sp, op, d, omega_weights=wts)
    x = cfg.nodes()[wts > 0]
    a, b = x[0], x[-1]

    def primitive(t):
        return t / 2 - np.sin(2 * np.pi * t) / (4 * np.pi)

    exact = primitive(b) - primitive(a)
    expected = 2 * cfg.h * exact    # unit-norm discrete eigenvector carries 2h
    assert rp.obs_margins[0] == pytest.approx(expected, rel=0.02)
    assert rp.obs_margins[0] > 0
    assert syn.rank_check(rp).passed


def test_window_margin_monotone_in_mask():
    cfg = HeatConfig(n=64, c2=49.0)
    op = build_heat_operator(cfg)
    d = build_dirichlet_map(cfg)
    sp = ops.spectrum(op)
    small = HeatConfig(n=64, c2=49.0, omega=(0.25, 0.35))
    big = HeatConfig(n=64, c2=49.0, omega=(0.2, 0.45))
    w_small = omega_mask_weights(small)
    w_big = omega_mask_weights(big)
    # monotone weights: the larger window dominates nodewise
    w_big = np.maximum(w_big, w_small)
    m_small = syn.reduce(sp, op, d, omega_weights=w_small).obs_margins
    m_big = syn.reduce(sp, op, d, omega_weights=w_big).obs_margins
    assert np.all(m_big >= m_small - 1e-12)


def test_require_rank_raises_with_table():
    op = Operator(np.diag([2.0, -1.0]))
    green = GreenMap(np.array([[0.0], [1.0]]), gamma=0.5)
    rp = syn.reduce(ops.spectrum(op), op, green)
    with pytest.raises(RankCheckFailure) as err:
        syn.require_rank(rp)
    assert err.value.report is not None


# ---------------------------------------------------------------- choose_K

def test_choose_k_simple():
    assert syn.choose_K(ops.spectrum(np.diag([6.1, -1.0]))) == 1


def test_choose_k_multiplicity_two():
    assert syn.choose_K(ops.spectrum(np.diag([2.0, 2.0, -1.0]))) == 2


def test_choose_k_heat_always_one():
    for c2 in (16.0, 49.0):
        _, _, _, sp = heat_setup(n=48, c2=c2)
        assert syn.choose_K(sp) == 1


# ---------------------------------------------------------------- place_poles

def test_place_poles_scalar_examples():
    rp = syn.ReducedPair(lam=np.array([6.13 + 0j]), b_matrix=np.array([[1.0]]),
                         hautus_margins=np.array([1.0]), clusters=((0,),))
    gain = syn.place_poles(rp, [-2.0])
    assert gain[0, 0] == pytest.approx(8.13, abs=1e-10)
    rp2 = syn.ReducedPair(lam=np.array([1.0 + 0j]), b_matrix=np.array([[2.0]]),
                          hautus_margins=np.array([2.0]), clusters=((0,),))
    assert syn.place_poles(rp2, [-3.0])[0, 0] == pytest.approx(2.0, abs=1e-10)


def test_place_poles_heat_c7_targets():
    _, op, d, sp = heat_setup(c2=49.0)
    rp = syn.reduce(sp, op, d)
    gain = syn.place_poles(rp, [-1.0, -2.0])
    achieved = la.eigvals(rp.lambda_matrix - rp.b_matrix @ gain)
    assert ops.match_spectra(achieved, [-1.0, -2.0]) <= 1e-6


def test_place_poles_rejects_unstable_target():
    rp = syn.ReducedPair(lam=np.array([1.0 + 0j]), b_matrix=np.array([[1.0]]),
                         hautus_margins=np.array([1.0]), clusters=((0,),))
    for targets in ([0.5], [np.nan], [-np.inf]):
        with pytest.raises(UsageError):
            syn.place_poles(rp, targets)


def test_place_poles_rejects_uncontrollable():
    rp = syn.ReducedPair(lam=np.array([1.0 + 0j, 2.0 + 0j]),
                         b_matrix=np.array([[1.0], [0.0]]),
                         hautus_margins=np.array([1.0, 0.0]),
                         clusters=((0,), (1,)))
    with pytest.raises(SynthesisError):
        syn.place_poles(rp, [-1.0, -2.0])


def test_place_poles_conjugate_closure_enforced():
    rp = syn.ReducedPair(lam=np.array([1.0 + 5.0j, 1.0 - 5.0j]),
                         b_matrix=np.array([[1.0], [1.0]]),
                         hautus_margins=np.array([1.0, 1.0]),
                         clusters=((0,), (1,)))
    with pytest.raises(UsageError):
        syn.place_poles(rp, [-1.0 + 1.0j, -2.0])
    gain = syn.place_poles(rp, [-1.0 + 1.0j, -1.0 - 1.0j])
    achieved = la.eigvals(rp.lambda_matrix - rp.b_matrix @ gain)
    assert ops.match_spectra(achieved, [-1 + 1j, -1 - 1j]) <= 1e-6


def test_place_poles_complex_pair_from_real_matrix():
    m = np.array([[1.0, -5.0, 0.0], [5.0, 1.0, 0.0], [0.0, 0.0, -4.0]])
    green = GreenMap(np.array([[1.0], [0.4], [0.2]]), gamma=0.5)
    sp = ops.spectrum(m)
    rp = syn.reduce(sp, Operator(m), green)
    gain = syn.place_poles(rp, [-2.0 + 1.0j, -2.0 - 1.0j])
    law = syn.build_feedback(gain, sp, np.eye(1))
    assert np.isrealobj(law.as_matrix)
    closed = m @ (np.eye(3) - green.entries @ law.as_matrix)
    assert ops.match_spectra(np.linalg.eigvals(closed), [-2 + 1j, -2 - 1j, -4.0]) <= 1e-6


@pytest.mark.parametrize("targets", [[-1.0, -2.0], [-2.0, -2.0], [-2 + 1j, -2 - 1j]])
def test_place_poles_single_input_closed_form(targets):
    # diagonal Lambda, one input: k_i = prod_j (l_i - t_j) / (b_i prod_{j != i} (l_i - l_j))
    _, op, d, sp = heat_setup(c2=49.0)
    rp = syn.reduce(sp, op, d)
    b = rp.b_matrix[:, :1]
    gain = syn.place_poles(rp, targets, input_matrix=b)
    lam, t = rp.lam, np.asarray(targets)
    exact = np.array([np.prod(lam[i] - t) / (b[i, 0] * np.prod(np.delete(lam[i] - lam, i)))
                      for i in range(2)])
    assert np.abs(gain[0] - exact).max() <= 1e-10 * np.abs(exact).max()


@pytest.mark.parametrize("targets", [[-1.0, -2.0, -2.0], [-2.0, -2.0, -2.0]])
def test_place_poles_repeated_targets_on_wide_spectrum(targets):
    # three unstable modes near 90, 60 and 11, one input as synthesis uses it:
    # a repeated root moves by about sqrt(eps * cond) and misses an eigenvalue
    # check at 1e-6, so the gain is checked against the target polynomial,
    # p(Lambda - B K) = 0 (Cayley-Hamilton)
    _, op, d, sp = heat_setup(c2=100.0)
    rp = syn.reduce(sp, op, d)
    assert rp.n_unstable == 3
    b = rp.b_matrix[:, :1]
    gain = syn.place_poles(rp, targets, input_matrix=b)
    m = rp.lambda_matrix - b @ gain
    poly, scale = np.eye(3), 1.0
    for t in targets:
        poly = poly @ (m - t * np.eye(3))
        scale *= la.norm(m - t * np.eye(3), 2)
    assert la.norm(poly, 2) <= 1e-12 * scale


def test_place_poles_rejects_complex_reduced_pair():
    for lam in ([1.0 + 2.0j], [1.0 + 2.0j, 3.0 + 0j]):
        n = len(lam)
        rp = syn.ReducedPair(lam=np.array(lam), b_matrix=np.ones((n, 1)),
                             hautus_margins=np.ones(n), clusters=tuple((i,) for i in range(n)))
        with pytest.raises(UsageError):
            syn.place_poles(rp, [-1.0 - 0.5 * i for i in range(n)])


# ---------------------------------------------------------------- build_feedback

def test_build_feedback_spectral_exact_abscissa():
    cfg = HeatConfig(n=64, c2=16.0)
    law, info = synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = closed_loop_heat(cfg, law)
    evs = np.linalg.eigvals(cl.composed.entries)
    assert abs(np.max(evs.real) + 2.0) <= 1e-6


def test_build_feedback_zero_gain_is_open_loop():
    _, op, d, sp = heat_setup()
    law = syn.build_feedback(np.zeros((1, 1)), sp, np.eye(2)[:, :1])
    assert np.abs(law.as_matrix).max() == 0.0
    cl = closed_loop_heat(HeatConfig(n=64, c2=16.0), law)
    assert np.array_equal(cl.composed.entries, op.entries)


def test_build_feedback_localized_stabilizes():
    cfg = HeatConfig(n=64, c2=16.0)
    law, info = synthesize_heat_feedback(cfg, mode="localized", targets=[-2.0])
    cl = closed_loop_heat(cfg, law)
    assert np.max(np.linalg.eigvals(cl.composed.entries).real) < 0.0
    assert law.omega_weights is not None


def test_localized_observation_support():
    cfg = HeatConfig(n=64, c2=16.0)
    law, _ = synthesize_heat_feedback(cfg, mode="localized", targets=[-2.0])
    outside = omega_mask_weights(cfg) == 0
    assert np.all(law.observation_vectors[:, outside] == 0.0)


def test_localized_reads_unstable_coordinates_exactly():
    cfg, op, d, sp, wts = heat_setup(mask=True)
    gain = np.array([[3.7]])
    law = syn.build_feedback(gain, sp, np.eye(2)[:, :1], wts)
    phi1 = sp.right_vectors[:, 0].real
    obs = law.observation_rows @ phi1
    assert obs[0] == pytest.approx(3.7, rel=1e-10)


def test_localized_small_window_gramian_failure():
    cfg = HeatConfig(n=64, c2=16.0)
    sp = ops.spectrum(build_heat_operator(cfg))
    wts = np.zeros(cfg.n)      # an empty window
    with pytest.raises(SynthesisError):
        syn.build_feedback(np.array([[1.0]]), sp, np.eye(2)[:, :1], wts)


def test_feedback_scaling_consistency():
    _, op, d, sp = heat_setup()
    rp = syn.reduce(sp, op, d)
    profiles = np.eye(2)[:, :1]
    gain = syn.place_poles(rp, [-2.0], input_matrix=rp.b_matrix @ profiles)
    law1 = syn.build_feedback(gain, sp, profiles)
    law2 = syn.build_feedback(0.5 * gain, sp, 2.0 * profiles)
    scale = np.abs(law1.as_matrix).max()
    assert np.abs(law1.as_matrix - law2.as_matrix).max() <= 1e-12 * scale


def test_spectral_feedback_multiplicity_two_needs_two_columns():
    # diag(2, 2, -1) needs K = 2 channels: one green column fails the rank
    # check with its margin table, two place both targets exactly
    op = Operator(np.diag([2.0, 2.0, -1.0]))
    sp = ops.spectrum(op)
    one = GreenMap(np.array([[1.0], [1.0], [0.0]]), gamma=0.25)
    with pytest.raises(RankCheckFailure) as err:
        syn.spectral_feedback(sp, op, one, [-1.0, -2.0])
    assert err.value.report is not None
    assert err.value.report.failing == (0, 1)
    assert "FAIL" in err.value.report.table()
    two = GreenMap(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), gamma=0.25)
    law, interior_law, info = syn.spectral_feedback(sp, op, two, [-1.0, -2.0])
    assert law.boundary_profiles.shape == (2, 2)
    assert np.abs(interior_law.as_matrix).max() == 0.0
    closed = np.linalg.eigvals(op.entries @ (np.eye(3) - two.entries @ law.as_matrix))
    assert ops.match_spectra(closed, [-1.0, -2.0, -1.0]) <= 1e-8
    assert ops.match_spectra(info["achieved"], [-1.0, -2.0]) <= 1e-8


def test_spectral_feedback_interior_columns_enter_additively():
    # two unstable modes, one boundary channel and one interior column: the
    # interior law is added to the loop, so its column is placed sign flipped
    op = Operator(np.diag([1.0, 0.5, -2.0]))
    sp = ops.spectrum(op)
    green = GreenMap(np.array([[1.0], [1.0], [0.0]]), gamma=0.25)
    law, j_law, info = syn.spectral_feedback(sp, op, green, [-3.0, -4.0],
                                             interior=np.array([[1.0], [0.0], [0.0]]))
    assert np.abs(j_law.as_matrix).max() > 0.0
    closed = (op.entries @ (np.eye(3) - green.entries @ law.as_matrix)
              + j_law.as_matrix)
    assert ops.match_spectra(np.linalg.eigvals(closed), [-3.0, -4.0, -2.0]) <= 1e-8
    assert ops.match_spectra(info["achieved"], [-3.0, -4.0]) <= 1e-8


def test_feedback_channel_count_guard():
    sp = ops.spectrum(np.diag([2.0, 2.0, -1.0]))   # geometric multiplicity 2
    with pytest.raises(UsageError):
        syn.build_feedback(np.array([[1.0, 0.5]]), sp, np.eye(1))


def test_spectral_mode_separation_c7():
    cfg = HeatConfig(n=64, c2=49.0)
    law, info = synthesize_heat_feedback(cfg, targets=[-1.0, -2.0])
    cl = closed_loop_heat(cfg, law)
    closed = np.linalg.eigvals(cl.composed.entries)
    sp = info["spectral"]
    expected = np.concatenate([[-1.0, -2.0], sp.eigenvalues[2:]])
    assert ops.match_spectra(closed, expected) <= 1e-6


def test_feedback_factorization_invariant():
    _, op, d, sp = heat_setup()
    rp = syn.reduce(sp, op, d)
    gain = syn.place_poles(rp, [-2.0], input_matrix=rp.b_matrix @ np.eye(2)[:, :1])
    law = syn.build_feedback(gain, sp, np.eye(2)[:, :1])
    resid = np.abs(law.boundary_profiles @ law.observation_rows - law.as_matrix).max()
    assert resid <= 1e-12 * max(np.abs(law.as_matrix).max(), 1.0)


def test_row_imaginary_part_above_the_cast_of_the_product():
    # the product's imaginary part 1e-9 passes the real cast against scale 1
    # while the observation row keeps its 1e-7: the law holds both factors as
    # they are, and its matrix is the cast product
    sp = ops.spectrum(np.diag([1.0, -1.0]))
    law = syn.build_feedback(np.array([[1 + 1e-7j]]), sp, np.array([[0.01], [0.0]]))
    assert law.observation_rows[0, 0] == 1 + 1e-7j
    product = law.boundary_profiles @ law.observation_rows
    assert np.isrealobj(law.as_matrix)
    assert np.array_equal(law.as_matrix, product.real)


def test_law_forms_its_matrix_once_on_first_use():
    cfg = CoupledConfig(n=12)
    _, j_law, _ = synthesize_coupled_feedback(cfg)
    assert "as_matrix" not in vars(j_law)     # no state x state product yet
    mat = j_law.as_matrix
    assert mat is j_law.as_matrix and not mat.flags.writeable
    assert np.array_equal(mat, j_law.boundary_profiles @ j_law.observation_rows)


def test_zero_law_shapes():
    law = syn.FeedbackLaw.zero(2, 10)
    assert law.as_matrix.shape == (2, 10)
    assert np.abs(law.as_matrix).max() == 0.0
