import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from stabreg import _kernels


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


B = _kernels.BLOCK


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(("refine", "m"), [(1, 40), (3, 40), (2 * B + 11, 3), (4 * B + 3, 1)],
                         ids=["1", "3", "refine-past-block", "one-cell-4-blocks"])
def test_norm_scan_matches_expm_oracle(dtype, refine, m):
    a, e, p, f = _data(dtype, m=m)
    ys = _oracle_states(a, f, 0.05, refine)
    cell = np.maximum(np.arange(ys.shape[0]) - 1, 0) // refine   # left limit
    fn = f[cell]
    ay = np.einsum("ij,kjb->kib", a, ys)
    expected = [np.linalg.norm(x, axis=1) for x in (ay + fn, ay, fn)]
    got = _kernels.lti_norm_scan(a, e, p, f, refine)
    assert len(got) == 3
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
    nyt, nay, nf = _kernels.lti_norm_scan(a, e, p, f, 1)
    assert nf[0] == 1.0 and nf[1] == 1.0 and nf[2] == 3.0
    assert nyt[1] == 1.0 and nyt[2] == 3.0   # A = 0 so y_t = f


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
    assert outputs == 3 * (m * refine + 1) * nb * 8
    assert peak <= 1.5 * outputs
