"""Hot time-stepping kernels.

The exponential integrator advances ``y_{k+1} = E y_k + P f_j`` where
``E = exp(A h)``, ``P = int_0^h exp(A s) ds`` and ``f_j`` is the forcing of
the cell; the forcing is constant per cell, so the recurrence is exact at the
nodes.  ``lti_propagate`` runs it one step at a time.  The norm scan needs the
derivative alone, since ``Ay = y' - f_j``: on cell j, ``y'(t_j + s) =
e^{As} z_j`` with ``z_j = y'(t_j^+)``, which starts at ``z_0 = f_0``
(y(0) = 0) and steps as ``z_{j+1} = E_tau z_j + (f_{j+1} - f_j)``, since Ay
stays continuous across a cell opening; inside a cell split into equal
sub-cells it steps as ``E_tau z_j`` alone.  Given the stack of e^{A s} at a
cell's nodes s, one product gives y' at every node of a tile of cells, and
the tile is reduced at once to per-cell sums of |y'|^p and |Ay|^p.  A tile's
product stays within ``TILE_BYTES`` (one cell and one forcing at least), and
the caller hands the stack over in chunks (``STACK_BYTES`` is the budget
``maxreg`` gives them), so the sweep's temporaries are O(TILE_BYTES + n * nb)
besides the chunk and its per-cell sums, whatever the batch.  Operands are
promoted to their common dtype, so a complex forcing or operator runs the
whole loop in complex arithmetic.
"""

import numpy as np

__all__ = ["lti_propagate", "lti_norm_scan", "sq_norms"]

# Byte budget of one tile's product, (cells * forcings) x (nodes * n), and
# the most tiles a chunk is cut into: a bigger sweep takes bigger tiles.
TILE_BYTES = 224 << 10
MAX_TILES = 512

# Byte budget of one chunk of the node stack, (n, nodes, n).
STACK_BYTES = 8 << 20


def sq_norms(z):
    """Squared 2-norms along the last axis, as floats."""
    return np.vecdot(z, z).real if np.iscomplexobj(z) else np.vecdot(z, z)


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


def lti_norm_scan(panels, e_cell, exponents, f_cells, split=1):
    """Per-cell L^p sums of y' and Ay over the quadrature nodes of every cell.

    ``panels`` yields a cell's nodes in chunks (stack, weights): ``stack`` is
    (n, q, n) with stack[:, i, :] the transpose of e^{A s_i} at the chunk's q
    node offsets s_i, so that one product of a tile's z_j, as rows, with its
    (n, q n) view gives y' at every node, each node's entries contiguous;
    ``weights`` are their q quadrature weights.  ``f_cells`` is (m, n, nb), nb
    forcings on m cells, each swept as ``split`` equal sub-cells, and
    ``e_cell`` is e^{A tau} for the sub-cell width tau.  Returns (scale, sums)
    with one row per sub-cell: scale[c, :, b] holds the largest |y'| and |Ay|
    of forcing b at the nodes of sub-cell c, and sums[c, :, i, b] the weighted
    sums of (|y'| / scale)^p and (|Ay| / scale)^p at p = exponents[i], so that
    no power overflows.  Each chunk is swept from z_0 on, and the chunks'
    sums are merged by their scales.
    """
    exps = np.asarray(exponents, dtype=float)[:, None]
    scale = sums = None
    for stack, weights in panels:
        top, part = _chunk_sums(*_common(stack, e_cell, f_cells), weights, split, exps)
        if scale is None:
            scale, sums = top, part
            continue
        both = np.maximum(scale, top)
        safe = np.where(both > 0.0, both, 1.0)[:, :, None]
        sums *= (scale[:, :, None] / safe) ** exps
        sums += part * (top[:, :, None] / safe) ** exps
        scale = both
    return scale, sums


def _chunk_sums(stack, e_cell, f_cells, weights, split, exps):
    """``lti_norm_scan`` on the nodes of one chunk, one tile at a time."""
    n, q, _ = stack.shape
    m, _, nb = f_cells.shape
    cells = m * split
    column = q * n * stack.itemsize                     # one cell, one forcing
    budget = max(TILE_BYTES, cells * nb * column // MAX_TILES)
    width = max(1, min(nb, budget // column))
    tile = max(1, min(cells, budget // (column * width)))
    flat = stack.reshape(n, q * n)
    zs = np.empty((tile * width, n), dtype=stack.dtype)          # the z_j as rows
    out = np.empty((tile * width, q * n), dtype=stack.dtype)
    scale, sums = np.empty((cells, 2, nb)), np.empty((cells, 2, exps.size, nb))
    for c0 in range(0, nb, width):
        cols = slice(c0, min(nb, c0 + width))
        f = f_cells[:, :, cols]
        w = f.shape[2]
        jump = np.empty((n, w), dtype=stack.dtype)
        z = f[0].copy()
        for start in range(0, cells, tile):
            k = min(tile, cells - start)
            for c in range(start, start + k):
                zs[(c - start) * w:(c - start + 1) * w] = z.T
                if c + 1 < cells:
                    z = e_cell @ z
                    if (c + 1) % split == 0:       # the next cell opens
                        j = (c + 1) // split
                        z += np.subtract(f[j], f[j - 1], out=jump)
            y = np.matmul(zs[:k * w], flat, out=out[:k * w]).reshape(k, w, q, n)
            g = np.empty((2, k, w, q))
            g[0] = sq_norms(y)
            y -= f[np.arange(start, start + k) // split].transpose(0, 2, 1)[:, :, None, :]
            g[1] = sq_norms(y)
            top = g.max(axis=3)
            g /= np.where(top > 0.0, top, 1.0)[..., None]
            rows = slice(start, start + k)
            scale[rows, :, cols] = np.sqrt(top).transpose(1, 0, 2)
            for i, p in enumerate(exps[:, 0]):
                sums[rows, :, i, cols] = (g ** (p / 2.0) @ weights).transpose(1, 0, 2)
    return scale, sums
