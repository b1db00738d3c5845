"""Hot time-stepping kernels.

The exponential integrator advances ``y_{k+1} = E y_k + P f(cell)`` where
``E = exp(A h)`` and ``P = int_0^h exp(A s) ds``; the per-cell forcing is
constant, so the recurrence is exact at the nodes and the step loop is the
only hot path in the maximal-regularity scans.  Operands are promoted to
their common dtype, so a complex forcing or operator runs the whole loop in
complex arithmetic.
"""

import numpy as np

__all__ = ["lti_propagate", "lti_norm_scan"]


def lti_propagate(E, P, f_cells, refine):
    """Trajectory of one forcing: returns Y with shape (m*refine + 1, n)."""
    dt = np.result_type(E, P, f_cells)
    E, P, f_cells = (np.asarray(x, dtype=dt) for x in (E, P, f_cells))
    m, n = f_cells.shape
    Y = np.zeros((m * refine + 1, n), dtype=dt)
    y = np.zeros(n, dtype=dt)
    k = 0
    for j in range(m):
        pf = P @ f_cells[j]
        for _ in range(refine):
            y = E @ y + pf
            k += 1
            Y[k] = y
    return Y


def lti_norm_scan(A, E, P, f_cells, refine):
    """Nodal 2-norms of y_t = Ay + f, Ay and f for a batch of forcings.

    ``f_cells`` has shape (m, n, nb); the forcing value attached to node k > 0
    is the one of the cell ending at that node (left limit), node 0 uses the
    first cell.  Returns three float arrays (nyt, nay, nf) of shape
    (m*refine + 1, nb).
    """
    dt = np.result_type(A, E, P, f_cells)
    A, E, P, f_cells = (np.asarray(x, dtype=dt) for x in (A, E, P, f_cells))
    m, n, nb = f_cells.shape
    mm = m * refine
    nyt = np.zeros((mm + 1, nb))
    nay = np.zeros((mm + 1, nb))
    nf = np.zeros((mm + 1, nb))
    y = np.zeros((n, nb), dtype=dt)
    nyt[0] = np.linalg.norm(f_cells[0], axis=0)
    nf[0] = nyt[0]
    k = 0
    for j in range(m):
        fj = f_cells[j]
        pf = P @ fj
        nfj = np.linalg.norm(fj, axis=0)
        for _ in range(refine):
            y = E @ y + pf
            k += 1
            ay = A @ y
            nay[k] = np.linalg.norm(ay, axis=0)
            nyt[k] = np.linalg.norm(ay + fj, axis=0)
            nf[k] = nfj
    return nyt, nay, nf
