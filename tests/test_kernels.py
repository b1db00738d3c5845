import math
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


def _stack(a, offsets):
    """The kernel's (n, q, n) stack: the transposes of e^{A s} at ``offsets``."""
    return np.ascontiguousarray(np.stack([la.expm(a * s).T for s in offsets], axis=1))


def _oracle_nodes(a, f_cells, tau, offsets):
    """y' and Ay at t_j + s for every cell j and offset s, shape
    (2, m, nb, q, n): the states from the augmented exponentials of
    ``_oracle_states``, then y' = Ay + f_j."""
    ys = _oracle_states(a, f_cells, tau, 1)
    m, n, nb = f_cells.shape
    out = np.zeros((2, m, nb, len(offsets), n), dtype=complex)
    for j in range(m):
        for b in range(nb):
            for i, s in enumerate(offsets):
                aug = np.zeros((n + 1, n + 1), dtype=complex)
                aug[:n, :n] = a * s
                aug[:n, n] = f_cells[j, :, b] * s
                ay = a @ (la.expm(aug) @ np.append(ys[j, :, b], 1.0))[:n]
                out[:, j, b, i] = ay + f_cells[j, :, b], ay
    return out


def _one_chunk(stack, weights=None):
    """A stack handed to the kernel whole, with unit weights by default."""
    return iter([(stack, np.ones(stack.shape[1]) if weights is None else weights)])


def _reduced(nodes, weights, exps):
    """The kernel's (scale, sums) from node norms of shape (2, m, nb, q)."""
    top = nodes.max(axis=3)
    sums = np.stack([((nodes / top[..., None]) ** p) @ weights for p in exps], axis=2)
    return top.transpose(1, 0, 2), sums.transpose(1, 0, 2, 3)


EXPS = [1.5, 2.0, 4.0]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(("q", "m", "nb", "columns", "cells"), [
    (1, 40, 5, 5, 40), (3, 40, 5, 5, 40), (11, 3, 5, 5, 2), (4, 1, 8, 2, 1)],
    ids=["1", "3", "refine-past-block", "one-cell-4-blocks"])
def test_norm_scan_matches_expm_oracle(dtype, q, m, nb, columns, cells, monkeypatch):
    # q node offsets in (0, tau], the last one at tau, handed over in chunks
    # of two nodes, which the kernel merges by their scales; the budget set
    # so that a tile of a two-node chunk holds ``cells`` cells of ``columns``
    # forcings: the last tile of refine-past-block is partial, and
    # one-cell-4-blocks sweeps its one cell in four column blocks
    tau = 0.05
    rng = np.random.default_rng(1)
    a, _, _, f = _data(dtype, m=m, nb=nb)
    offsets = tau * np.append(np.sort(rng.uniform(0.0, 1.0, q - 1)), 1.0)
    weights = rng.uniform(0.5, 1.5, q)
    stack = _stack(a, offsets)
    monkeypatch.setattr(_kernels, "TILE_BYTES", 2 * a.shape[0] * stack.itemsize * columns * cells)
    chunks = ((stack[:, i:i + 2], weights[i:i + 2]) for i in range(0, q, 2))
    scale, sums = _kernels.lti_norm_scan(chunks, la.expm(a * tau), EXPS, f)
    want = _reduced(np.linalg.norm(_oracle_nodes(a, f, tau, offsets), axis=-1), weights, EXPS)
    assert np.allclose(scale, want[0], rtol=1e-12, atol=1e-12)
    assert np.allclose(sums, want[1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_norm_scan_split_sweeps_the_repeated_cells(dtype):
    # a cell swept as 3 equal sub-cells is the cell repeated three times: no
    # jump is added inside a cell, where the repeated cells add zero jumps
    a, _, _, f = _data(dtype, m=7, nb=3)
    stack = _stack(a, [0.01, 0.02])
    e = la.expm(a * 0.02)
    split = _kernels.lti_norm_scan(_one_chunk(stack), e, EXPS, f, 3)
    repeated = _kernels.lti_norm_scan(_one_chunk(stack), e, EXPS, np.repeat(f, 3, axis=0))
    assert all(np.array_equal(x, y) for x, y in zip(split, repeated))


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
    # A = 0, so y' = f_j on cell j and Ay = 0: every node of a cell reads that
    # cell's value (up to the rounding of the jumps f_{j+1} - f_j that carry
    # y' across openings); solution_map's node k > 0 carries the cell ending
    # there, and its sub-cells of one cell add no jumps, so exactly
    n, nb, m = 3, 4, 37
    f = np.random.default_rng(8).standard_normal((m, n, nb))
    stack = np.broadcast_to(np.eye(n)[:, None], (n, 5, n))
    scale, sums = _kernels.lti_norm_scan(_one_chunk(stack, np.full(5, 0.2)), np.eye(n), [2.0], f)
    assert np.allclose(scale[:, 0], np.linalg.norm(f, axis=1), rtol=1e-13, atol=1e-13)
    assert np.allclose(sums[:, 0, 0], 1.0, rtol=1e-13, atol=0.0)
    assert scale[:, 1].max() <= 1e-14
    one = maxreg.ForcingSignal(np.array([[1.0], [3.0]]), 1.0)       # two cells, 1 then 3
    for refine in (1, 3):
        nyt = maxreg.solution_map(np.zeros((1, 1)), one, refine)[2]
        assert nyt.tolist() == [1.0] * (refine + 1) + [3.0] * refine


def test_norm_scan_derivative_decays_to_the_last_digit():
    # the tiny heat loop (n = 16, c2 = 16, default target, abscissa -23.03)
    # under the one-cell forcing f = 1: y_t(t) = e^{tA} f, down to 2.1e-48 at
    # t = 5, where a sweep that re-derives y_t as Ay + f reads rounding noise;
    # one node per sweep, so that its scale is |y_t| there
    a = maxreg.operator_matrix(heat.HeatConfig(n=16, c2=16.0).synthesize()[0].composed)
    t = np.arange(1, 51) * 0.1
    f = np.ones((1, 16, 1))
    e = ops.expm(a * 5.0)
    g = np.array([_kernels.lti_norm_scan(_one_chunk(_stack(a, [s])), e, [2.0], f)[0][0, :, 0]
                  for s in t])
    lam, v = np.linalg.eig(a)
    c = np.linalg.solve(v, f[0])
    exact = np.linalg.norm((v[None] * np.exp(np.outer(t, lam))[:, None, :]) @ c, axis=1)[:, 0]
    assert exact[-1] < 1e-47
    assert np.allclose(g[:, 0], exact, rtol=1e-9, atol=0.0)
    assert g[-1, 1] == pytest.approx(4.0, rel=1e-12)     # Ay = y_t - f -> -f, |1| = 4


def test_norm_scan_memory_is_its_outputs():
    # the sweep holds one tile's product and its norms, never a trajectory:
    # one cell of 32 forcings at 200 nodes, swept in column blocks
    n, nb, q = 32, 32, 200
    a, _, _, f = _data(float, m=1, n=n, nb=nb)
    stack = _stack(a, np.linspace(1e-3, 1.0, q))
    e = la.expm(a)
    width = _kernels.TILE_BYTES // (q * n * 8)
    tracemalloc.start()
    try:
        scale, sums = _kernels.lti_norm_scan(_one_chunk(stack), e, EXPS, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scale.shape == (1, 2, nb) and sums.shape == (1, 2, 3, nb)
    assert peak <= _kernels.TILE_BYTES + 4 * (2 * width * q * 8) + 4 * n * nb * 8


@pytest.mark.parametrize("dtype", [float, complex])
def test_tiles_keep_the_products_in_budget(dtype, monkeypatch):
    # each tile's product (k cells of w forcings at q nodes) within
    # TILE_BYTES, or one cell of one forcing; every cell and forcing once.
    # Each tile takes the norms of its product twice, y' then Ay
    item = np.dtype(dtype).itemsize
    shapes, norms = [], _kernels.sq_norms
    monkeypatch.setattr(_kernels, "sq_norms", lambda z: shapes.append(z.shape) or norms(z))
    for n, q, nb, m in ((32, 84, 8, 3), (32, 84, 1, 30), (24, 72, 13, 2), (225, 78, 8, 2),
                        (529, 90, 2, 2)):
        shapes.clear()
        stack = np.zeros((n, q, n), dtype=dtype)
        _kernels.lti_norm_scan(_one_chunk(stack), np.eye(n), [2.0], np.ones((m, n, nb)))
        tiles = shapes[::2]
        assert all(k * w * q * n * item <= _kernels.TILE_BYTES or k == w == 1
                   for k, w, _, _ in tiles)
        assert sum(k * w for k, w, _, _ in tiles) == m * nb


def test_norm_scan_memory_is_bounded_at_2d_sizes():
    # n = 225, the 15 x 15 square, on a stiff synthetic loop (spectrum down to
    # -2000): a cell of width 0.064 takes 90 nodes, a 36 MB stack that the
    # kernel draws from maxreg's chunks within STACK_BYTES, built inside the
    # traced region; the rest is one tile, a few n x n matrices (expm's
    # temporaries and e^{A tau}) and the per-cell sums
    m, n, nb, tau = 2, 225, 2, 0.064
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * -np.linspace(1.0, 2000.0, n)) @ q.T
    e = la.expm(a * tau)
    f = rng.standard_normal((m, n, nb))
    tracemalloc.start()
    try:
        scale, sums = _kernels.lti_norm_scan(maxreg._node_panels(a, tau), e, EXPS, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.shape[1] for s, _ in maxreg._node_panels(a, tau)) == 90
    assert peak <= _kernels.STACK_BYTES + _kernels.TILE_BYTES + 8 * n * n * 8
    assert np.all(np.isfinite(scale)) and np.all(np.isfinite(sums))
