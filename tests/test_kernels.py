import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from stabreg import _kernels, heat, maxreg
from stabreg import operators as ops


def _data(dtype, m=40, n=6, nb=5, h=0.05, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    f = rng.standard_normal((m, n, nb))
    if dtype == complex:
        a = a + 1j * 0.1 * rng.standard_normal((n, n))
        f = f + 1j * rng.standard_normal((m, n, nb))
    aug = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    aug[:n, :n] = a * h
    aug[:n, n:] = np.eye(n) * h
    ep = la.expm(aug)
    return a, ep[:n, :n], ep[:n, n:], f


def _oracle_states(a, f_cells, h, refine):
    """Nodal states, one step at a time, with the forcing as an extra state.

    On cell j the pair (y, 1) obeys d/dt (y, 1) = [[A, f_j], [0, 0]] (y, 1),
    so one (n+1) x (n+1) exponential advances it exactly by h.
    """
    m, n, nb = f_cells.shape
    ys = np.zeros((m * refine + 1, n, nb), dtype=complex)
    for b in range(nb):
        y = np.zeros(n, dtype=complex)
        k = 0
        for j in range(m):
            aug = np.zeros((n + 1, n + 1), dtype=complex)
            aug[:n, :n] = a * h
            aug[:n, n] = f_cells[j, :, b] * h
            step = la.expm(aug)
            for _ in range(refine):
                y = (step @ np.append(y, 1.0))[:n]
                k += 1
                ys[k, :, b] = y
    return ys


def _block(dtype, n=6):
    """Block length of the scan of an n x n ``_data`` loop at unbounded refine."""
    return _kernels.block_length(n, np.dtype(dtype), 10**9)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(("blocks", "rest", "m"), [(0, 1, 40), (0, 3, 40), (2, 11, 3), (4, 3, 1)],
                         ids=["1", "3", "refine-past-block", "one-cell-4-blocks"])
def test_norm_scan_matches_expm_oracle(dtype, blocks, rest, m):
    refine = blocks * _block(dtype) + rest
    a, e, p, f = _data(dtype, m=m)
    ys = _oracle_states(a, f, 0.05, refine)
    cell = np.maximum(np.arange(ys.shape[0]) - 1, 0) // refine   # left limit
    fn = f[cell]
    ay = np.einsum("ij,kjb->kib", a, ys)
    expected = [np.linalg.norm(x, axis=1) for x in (ay + fn, ay, f)]
    got = _kernels.lti_norm_scan(a, e, p, f, refine)
    assert len(got) == 3
    assert got[2].shape == (m, f.shape[2])      # per cell, not per node
    for x, y in zip(got, expected):
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_propagate_matches_expm_oracle(dtype):
    a, e, p, f = _data(dtype)
    y = _kernels.lti_propagate(e, p, f[:, :, 0], 2)
    assert y.dtype == np.result_type(e, p, f)
    assert np.allclose(y, _oracle_states(a, f[:, :, :1], 0.05, 2)[:, :, 0],
                       rtol=1e-12, atol=1e-12)


def test_propagate_matches_expm_reference():
    # scalar decay with constant forcing: y(t) = (1 - e^{-a t}) / a
    a = np.array([[-1.7]])
    h = 0.01
    e = la.expm(a * h)
    p = np.array([[(1.0 - np.exp(-1.7 * h)) / 1.7]])
    f = np.ones((200, 1))
    y = _kernels.lti_propagate(e, p, f, 1)
    t = np.arange(201) * h
    exact = (1.0 - np.exp(-1.7 * t)) / 1.7
    assert np.abs(y[:, 0] - exact).max() < 1e-12


def test_norm_scan_left_limit_convention():
    # node k > 0 carries the forcing of the cell that ends there
    a = np.zeros((1, 1))
    e = np.eye(1)
    p = np.eye(1) * 0.5
    f = np.array([[[1.0]], [[3.0]]])   # two cells, values 1 then 3
    nyt, nay, nf_cells = _kernels.lti_norm_scan(a, e, p, f, 1)
    assert nf_cells.tolist() == [[1.0], [3.0]]
    assert nyt.tolist() == [[1.0], [1.0], [3.0]]   # A = 0 so y_t = f
    # ||f||_p from the cell norms is lp_time_norm on the left-limit nodes,
    # which nyt holds when A = 0
    m, n, nb, refine, h = 37, 3, 4, 5, 0.01
    f = np.random.default_rng(8).standard_normal((m, n, nb))
    nyt, _, nf_cells = _kernels.lti_norm_scan(np.zeros((n, n)), np.eye(n), h * np.eye(n), f, refine)
    assert np.array_equal(nyt, np.concatenate([nf_cells[:1], np.repeat(nf_cells, refine, axis=0)]))
    for q in (1.5, 2.0, 4.0):
        assert np.allclose(maxreg._cell_lp_norm(nf_cells, h, refine, q),
                           maxreg.lp_time_norm(nyt, h, q), rtol=1e-14, atol=0.0)


def test_norm_scan_derivative_decays_to_the_last_digit():
    # the tiny heat loop (n = 16, c2 = 16, default target, abscissa -23.03)
    # under the one-cell forcing f = 1: y_t(t) = e^{tA} f, down to 2.1e-48 at
    # t = 5, where a sweep that re-derives y_t as Ay + f reads rounding noise
    a = maxreg.operator_matrix(heat.HeatConfig(n=16, c2=16.0).synthesize()[0].composed)
    refine, h = 50, 0.1
    f = np.ones((1, 16, 1))
    nyt, nay, _ = _kernels.lti_norm_scan(a, ops.expm(a * h), None, f, refine)
    lam, v = np.linalg.eig(a)
    c = np.linalg.solve(v, f[0])
    t = np.arange(refine + 1) * h
    exact = np.linalg.norm((v[None] * np.exp(np.outer(t, lam))[:, None, :]) @ c, axis=1)
    assert exact[-1, 0] < 1e-47
    assert np.allclose(nyt, exact, rtol=1e-9, atol=0.0)
    assert nay[-1, 0] == pytest.approx(4.0, rel=1e-12)     # Ay = y_t - f -> -f, |1| = 4


def test_norm_scan_memory_is_its_outputs():
    # the sweep holds block temporaries only, never a trajectory
    m, n, nb, refine = 1, 32, 32, 8000
    a, e, p, f = _data(float, m=m, n=n, nb=nb, h=1e-3)
    tracemalloc.start()
    try:
        out = _kernels.lti_norm_scan(a, e, p, f, refine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(x.nbytes for x in out)
    assert outputs == (2 * (m * refine + 1) + m) * nb * 8   # nodal y_t, Ay; cell f
    assert peak <= 1.5 * outputs


@pytest.mark.parametrize("dtype", [float, complex])
def test_block_length_keeps_the_stacks_in_budget(dtype):
    item = np.dtype(dtype).itemsize
    assert _block(dtype, n=32) == _kernels.BLOCK
    for n in (90, 225, 529, 2000):
        b = _block(dtype, n)
        assert 1 <= b <= _kernels.BLOCK
        assert b == 1 or b * n * n * item <= _kernels.STACK_BYTES
        assert b == _kernels.BLOCK or (b + 1) * n * n * item > _kernels.STACK_BYTES
    assert _block(dtype, n=225) == {8: 20, 16: 10}[item]
    assert _kernels.block_length(6, np.dtype(dtype), 5) == 5


def test_norm_scan_memory_is_bounded_at_2d_sizes():
    # n = 225, the 15 x 15 square: the stack takes b = 20 substeps within
    # STACK_BYTES where a full block of 32 would take 13 MB; the sweep reads
    # E alone, so the rest is its outputs and n x nb working arrays
    m, n, nb, refine = 2, 225, 2, 64
    rng = np.random.default_rng(3)
    a = rng.standard_normal((n, n)) / n - 2.0 * np.eye(n)
    e = la.expm(a * 1e-3)
    p = la.solve(a, e - np.eye(n))
    f = rng.standard_normal((m, n, nb))
    tracemalloc.start()
    try:
        out = _kernels.lti_norm_scan(a, e, p, f, refine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(x.nbytes for x in out) + _kernels.STACK_BYTES + 6 * n * n * 8
    assert all(np.all(np.isfinite(x)) for x in out)
