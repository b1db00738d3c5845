"""Hot time-stepping kernels.

The exponential integrator advances ``y_{k+1} = E y_k + P f(cell)`` where
``E = exp(A h)`` and ``P = int_0^h exp(A s) ds``; the per-cell forcing is
constant, so the recurrence is exact at the nodes.  The one step loop,
``_blocks``, takes up to ``BLOCK`` substeps of a cell per Python iteration:
with the stacks ``E^i`` and ``P_i = sum_{l<i} E^l P`` (i = 1..BLOCK), the
states of a block are ``y_{k+i} = E^i y_k + P_i f``, so a whole block of
(output-mapped) states is one stacked matrix product, and the next block
starts from ``E^L y_k + P_L f``.  Temporaries are O(BLOCK * n * (n + nb)); no
trajectory is held beyond what a caller stores.  Operands are promoted to
their common dtype, so a complex forcing or operator runs the whole loop in
complex arithmetic.
"""

import numpy as np

__all__ = ["lti_propagate", "lti_norm_scan"]

# Substeps per block of the step loop.
BLOCK = 64


def _blocks(C, E, P, f_cells, refine):
    """The step loop: yields (k, j, Z) per block of at most BLOCK substeps.

    ``f_cells`` has shape (m, n, nb) and ``C`` maps states to outputs.  The
    block covers nodes k+1 .. k+L of cell j, and Z[i] = C y_{k+1+i} has
    shape (L, C.shape[0], nb).  Z is one buffer, overwritten by the next block.
    """
    m, n, nb = f_cells.shape
    r = C.shape[0]
    b = min(BLOCK, refine)
    lengths = {b, refine % b or b}
    ce = np.empty((b, r, n), dtype=E.dtype)      # C E^i
    cp = np.empty((b, r, n), dtype=E.dtype)      # C P_i
    jumps = {}                                   # L -> (E^L, P_L)
    e_i, p_i = E, P
    for i in range(1, b + 1):
        ce[i - 1], cp[i - 1] = C @ e_i, C @ p_i
        if i in lengths:
            jumps[i] = (e_i, p_i)
        e_i, p_i = E @ e_i, E @ p_i + P
    ce, cp = ce.reshape(b * r, n), cp.reshape(b * r, n)
    y = np.zeros((n, nb), dtype=E.dtype)
    buf = np.empty((b * r, nb), dtype=E.dtype)
    k = 0
    for j in range(m):
        fj = f_cells[j]
        cpf = (cp @ fj).reshape(b, r, nb)
        for start in range(0, refine, b):
            L = min(b, refine - start)
            z = np.matmul(ce[:L * r], y, out=buf[:L * r]).reshape(L, r, nb)
            z += cpf[:L]
            yield k, j, z
            e_l, p_l = jumps[L]
            y = e_l @ y + p_l @ fj
            k += L


def _col_norms(z):
    """2-norms along axis 1 of an (L, r, nb) block, as (L, nb) floats."""
    if np.iscomplexobj(z):
        return np.sqrt(np.einsum("lrb,lrb->lb", z.real, z.real)
                       + np.einsum("lrb,lrb->lb", z.imag, z.imag))
    return np.sqrt(np.einsum("lrb,lrb->lb", z, z))


def _common(*arrays):
    dt = np.result_type(*arrays)
    return [np.asarray(x, dtype=dt) for x in arrays]


def lti_propagate(E, P, f_cells, refine):
    """Trajectory of one forcing: returns Y with shape (m*refine + 1, n)."""
    E, P, f_cells = _common(E, P, f_cells)
    m, n = f_cells.shape
    Y = np.zeros((m * refine + 1, n), dtype=E.dtype)
    for k, _, z in _blocks(np.eye(n, dtype=E.dtype), E, P, f_cells[:, :, None], refine):
        Y[k + 1:k + 1 + len(z)] = z[:, :, 0]
    return Y


def lti_norm_scan(A, E, P, f_cells, refine):
    """Nodal 2-norms of y_t = Ay + f, Ay and f for a batch of forcings.

    ``f_cells`` has shape (m, n, nb); the forcing value attached to node k > 0
    is the one of the cell ending at that node (left limit), node 0 uses the
    first cell.  Returns three float arrays (nyt, nay, nf) of shape
    (m*refine + 1, nb).
    """
    A, E, P, f_cells = _common(A, E, P, f_cells)
    m, n, nb = f_cells.shape
    nyt = np.zeros((m * refine + 1, nb))
    nay = np.zeros((m * refine + 1, nb))
    nf = np.zeros((m * refine + 1, nb))
    nf_cells = np.linalg.norm(f_cells, axis=1)
    nf[0] = nyt[0] = nf_cells[0]
    nf[1:].reshape(m, refine, nb)[:] = nf_cells[:, None, :]
    for k, j, ay in _blocks(A, E, P, f_cells, refine):
        rows = slice(k + 1, k + 1 + len(ay))
        nay[rows] = _col_norms(ay)
        ay += f_cells[j]
        nyt[rows] = _col_norms(ay)
    return nyt, nay, nf
