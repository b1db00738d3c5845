"""Hot time-stepping kernels.

The exponential integrator advances ``y_{k+1} = E y_k + P f(cell)`` where
``E = exp(A h)`` and ``P = int_0^h exp(A s) ds``; the per-cell forcing is
constant, so the recurrence is exact at the nodes.  The one step loop,
``_blocks``, takes up to ``block_length`` substeps of a cell per Python
iteration: with the stacks ``C E^i`` and ``C P_i``, ``P_i = sum_{l<i} E^l P``
(i = 1..b), the states of a block are ``y_{k+i} = E^i y_k + P_i f``, so a
whole block of (output-mapped) states is one stacked matrix product, and the
next block starts from ``E^L y_k + P_L f``.  The block length b is at most
``BLOCK`` and keeps the two stacks within ``STACK_BYTES``, so temporaries are
O(STACK_BYTES + n * (n + b * nb)) whatever n is; no trajectory is held beyond
what a caller stores.  The norm scan keeps the forcing's norms per cell, not
per node: a piecewise-constant forcing's L^p norm needs no more.  Operands are
promoted to their common dtype, so a complex forcing or operator runs the
whole loop in complex arithmetic.
"""

import numpy as np

__all__ = ["lti_propagate", "lti_norm_scan"]

# Most substeps per block of the step loop, and the byte budget of the two
# stacks of a block.  At 32 substeps the Python overhead of a block is
# amortized: on the benchmark loops' 64-substep cells (2-vCPU box), blocks of
# 64 swept the heat loop (n = 32) about 10 % slower and the coupled loop
# (n = 24) about 10 % faster, with stacks twice the size.  The budget keeps
# b = 32 up to n = 128 in float64 and n = 90 in complex128 (C = A), and
# shortens the blocks beyond: b = 10 at n = 225 and b = 1 from n = 513 on, in
# float64.
BLOCK = 32
STACK_BYTES = 8 << 20


def block_length(rows, n, dtype, refine):
    """Substeps per block: at most BLOCK and ``refine``, and as many as keep
    the stacks (b, rows, n) of ``C E^i`` and ``C P_i`` within STACK_BYTES
    (one at least)."""
    per_step = 2 * rows * n * np.dtype(dtype).itemsize
    return max(1, min(BLOCK, refine, STACK_BYTES // per_step))


def _blocks(C, E, P, f_cells, refine):
    """The step loop: yields (k, j, Z) per block of at most ``block_length``
    substeps.

    ``f_cells`` has shape (m, n, nb) and ``C`` maps states to outputs.  The
    block covers nodes k+1 .. k+L of cell j, and Z[i] = C y_{k+1+i} has
    shape (L, C.shape[0], nb).  Z is one buffer, overwritten by the next block.
    """
    m, n, nb = f_cells.shape
    r = C.shape[0]
    b = block_length(r, n, E.dtype, refine)
    lengths = {b, refine % b or b}
    ce = np.empty((b, r, n), dtype=E.dtype)      # C E^i
    cp = np.empty((b, r, n), dtype=E.dtype)      # C P_i
    jumps = {}                                   # L -> (E^L, P_L)
    e_i, p_i = E, P
    for i in range(1, b + 1):
        np.matmul(C, e_i, out=ce[i - 1])
        np.matmul(C, p_i, out=cp[i - 1])
        if i in lengths:
            jumps[i] = (e_i, p_i)
        if i < b:
            e_i, p_i = E @ e_i, E @ p_i
            p_i += P
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
    """Nodal 2-norms of y_t = Ay + f and Ay, and the cell 2-norms of f, for a
    batch of forcings.

    ``f_cells`` has shape (m, n, nb); the forcing value attached to node k > 0
    is the one of the cell ending at that node (left limit), node 0 uses the
    first cell.  Returns three float arrays (nyt, nay, nf_cells): the nodal
    norms, of shape (m*refine + 1, nb), and the norms of the m cells, of shape
    (m, nb).
    """
    A, E, P, f_cells = _common(A, E, P, f_cells)
    m, n, nb = f_cells.shape
    nyt = np.zeros((m * refine + 1, nb))
    nay = np.zeros((m * refine + 1, nb))
    nf_cells = _col_norms(f_cells)
    nyt[0] = nf_cells[0]
    for k, j, ay in _blocks(A, E, P, f_cells, refine):
        rows = slice(k + 1, k + 1 + len(ay))
        nay[rows] = _col_norms(ay)
        ay += f_cells[j]
        nyt[rows] = _col_norms(ay)
    return nyt, nay, nf_cells
