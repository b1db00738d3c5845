"""Hot time-stepping kernels.

The exponential integrator advances ``y_{k+1} = E y_k + P f_j`` where
``E = exp(A h)``, ``P = int_0^h exp(A s) ds`` and ``f_j`` is the forcing of
the cell; the forcing is constant per cell, so the recurrence is exact at the
nodes.  ``lti_propagate`` runs it one step at a time.  The norm scan needs the
derivative alone, since ``Ay = y' - f_j``: inside a cell ``y'`` obeys
``y'_{k+1} = E y'_k``, it starts at ``y'(0) = f_0`` (y(0) = 0), and at a cell
opening it jumps by ``f_{j+1} - f_j`` while ``Ay`` stays continuous.  So one
product of the stack E^1 .. E^b with y' gives a whole block of b nodes, and
the next block starts from its last node.  The block length b is at most
``BLOCK`` and keeps the stack within ``STACK_BYTES``, so temporaries are
O(STACK_BYTES + n * (n + b * nb)) whatever n is; no trajectory is held beyond
what a caller stores.  The norm scan keeps the forcing's norms per cell, not
per node: a piecewise-constant forcing's L^p norm needs no more.  Operands are
promoted to their common dtype, so a complex forcing or operator runs the
whole loop in complex arithmetic.
"""

import numpy as np

__all__ = ["lti_propagate", "lti_norm_scan"]

# Most substeps per block of the norm scan, and the byte budget of its stack.
# At 32 substeps the Python overhead of a block is amortized: on the benchmark
# loops' 64-substep cells (2-vCPU box), blocks of 64 swept the heat loop
# (n = 32) about 10 % slower and the coupled loop (n = 24) about 10 % faster.
# The budget keeps b = 32 up to n = 181 in float64 and n = 128 in complex128,
# and shortens the blocks beyond: in float64 b = 20 at n = 225, 3 at n = 513
# and 1 from n = 725 on.
BLOCK = 32
STACK_BYTES = 8 << 20


def block_length(n, dtype, refine):
    """Substeps per block: at most BLOCK and ``refine``, and as many as keep
    the (b, n, n) stack of E^i within STACK_BYTES (one at least)."""
    return max(1, min(BLOCK, refine, STACK_BYTES // (n * n * np.dtype(dtype).itemsize)))


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
    pf = f_cells @ P.T                  # P f_j, one row per cell
    Y = np.zeros((m * refine + 1, n), dtype=E.dtype)
    for k in range(m * refine):
        Y[k + 1] = E @ Y[k] + pf[k // refine]
    return Y


def lti_norm_scan(A, E, P, f_cells, refine):
    """Nodal 2-norms of y_t = Ay + f and Ay, and the cell 2-norms of f, for a
    batch of forcings.

    ``f_cells`` has shape (m, n, nb); the forcing value attached to node k > 0
    is the one of the cell ending at that node (left limit), node 0 uses the
    first cell.  Returns three float arrays (nyt, nay, nf_cells): the nodal
    norms, of shape (m*refine + 1, nb), and the norms of the m cells, of shape
    (m, nb).  The sweep reads E alone: A and P are accepted for the callers
    that bind this signature by position, and may be None.
    """
    E, f_cells = _common(E, f_cells)
    m, n, nb = f_cells.shape
    b = block_length(n, E.dtype, refine)
    stack = np.empty((b, n, n), dtype=E.dtype)      # E^i, i = 1..b
    stack[0] = E
    for i in range(1, b):
        np.matmul(E, stack[i - 1], out=stack[i])
    flat = stack.reshape(b * n, n)
    buf = np.empty((b * n, nb), dtype=E.dtype)
    nyt = np.zeros((m * refine + 1, nb))
    nay = np.zeros((m * refine + 1, nb))
    nf_cells = _col_norms(f_cells)
    nyt[0] = nf_cells[0]
    z = f_cells[0].copy()                           # y'(0) = A 0 + f_0
    k = 0
    for j in range(m):
        fj = f_cells[j]
        if j:
            z -= f_cells[j - 1]                     # Ay, continuous across the
            z += fj                                 # opening, plus f_j
        for start in range(0, refine, b):
            L = min(b, refine - start)
            yt = np.matmul(flat[:L * n], z, out=buf[:L * n]).reshape(L, n, nb)
            rows = slice(k + 1, k + 1 + L)
            nyt[rows] = _col_norms(yt)
            z = yt[L - 1].copy()
            yt -= fj
            nay[rows] = _col_norms(yt)
            k += L
    return nyt, nay, nf_cells
