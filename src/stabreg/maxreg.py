"""Maximal L^p-regularity diagnostics for closed-loop operators.

The regularity constant estimate is the largest quotient
(||y_t||_p + ||A y||_p) / ||f||_p of y' = Ay + f, y(0) = 0, over a finite
family of piecewise-constant-in-time forcings, a lower end of the true
constant.  At p = 2 the scan also gives the upper end: by Plancherel,
C_upper = sqrt(2) sup_w ||[iwR; AR]|| with R = (iw - A)^-1 bounds the
constant at every horizon, and the peak forcing Re(v e^{i w* t}) at its
maximizing frequency w* comes within 0.6 % of it on the benchmark loops.

The family is a list of ForcingSignal batches, forcings sharing one cell
structure, each swept by one kernel call.  Every norm is one quadrature rule:
on a cell [t_j, t_j + tau], y' = e^{As} z_j and A y = y' - f_j, so each cell
takes Gauss-Legendre panels that double in width away from its opening, the
first one narrow enough for the fastest transient e^{As}(f_j - f_{j-1}).  The
forcing's own norm is exact, (tau sum_j |f_j|^p)^{1/p}.  The horizon scan
sweeps every batch once on [0, T_max], and horizon T reads its cells inside
[0, T]: by causality that prefix is a forcing on [0, T] whose response there
is the sweep's own, so every horizon reads the same signals.  To that it
adds the eigenmode forcings of the operator it scans, constant in time (one
cell of width T, one batch per horizon).  ``solution_map``
integrates one forcing's trajectory exactly per cell, with the
augmented-matrix exponential for the state and the same sweep for y'.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, IdentityViolationError, NumericalError, UsageError
from .operators import Operator, decomposition, expm, operator_matrix

CSV_HEADER = "model,mode,p,T,C_estimate,imag_sup,verdict,C_upper"

# Largest last relative move of a horizon scan that still reads as a plateau.
PLATEAU_RTOL = 0.05

# Largest relative excess of a p = 2 estimate over C_upper that its verify
# row forgives: rounding of the quadrature and of the bound, not a breach.
UPPER_RTOL = 1e-6

# Relative accuracy to which ``_frequency_sup`` certifies a supremum.
_SUP_RTOL = 2e-9

# The 6-point Gauss-Legendre rule on [-1, 1] of every quadrature panel:
# numpy.polynomial.legendre.leggauss(6), written out so that no process
# imports numpy.polynomial.
_GL_X = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                  0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GL_W = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                  0.46791393457269104, 0.3607615730481387, 0.17132449237917027])

# Width of a cell's first panel times ||A||_1: the fastest transient decays
# by at most e^-0.05 across it.
_PANEL_SPAN = 0.05


@dataclass(frozen=True)
class ForcingSignal:
    """A batch of piecewise-constant-in-time forcings sharing one cell structure.

    ``values`` is (n_cells, state_dim, count): column k of the last axis is
    forcing k, one state-dim value per time cell.  A 2-D (n_cells, state_dim)
    array is taken as a batch of one.
    """

    values: np.ndarray
    time_step: float

    def __post_init__(self):
        # C order: the kernel's per-cell steps run slower on a transposed
        # (dim, count) cell slice.
        v = np.atleast_2d(np.ascontiguousarray(self.values))
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise DimensionError("forcing values must be (n_cells, state_dim[, count])")
        if v.shape[2] == 0:
            raise UsageError("forcing batch must hold at least one forcing")
        if not np.all(np.isfinite(v.real)) or (np.iscomplexobj(v) and not np.all(np.isfinite(v.imag))):
            raise UsageError("forcing values must be finite")
        if not (self.time_step > 0 and np.isfinite(self.time_step)):
            raise UsageError("forcing time step must be positive and finite")
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def count(self):
        return self.values.shape[2]

    @property
    def horizon(self):
        return self.n_cells * self.time_step


# The stream of every random draw, named in each run's manifest; importing
# numpy's own generators would cost each process about 6 MB and 8 ms.
GENERATOR = "splitmix64+box-muller"


def splitmix64(seed, count, scratch=None):
    """The first ``count`` SplitMix64 words of ``seed`` (Steele, Lea and Flood,
    OOPSLA 2014): word k = 1, 2, ... is Vigna's finalizer of
    seed + k * 0x9E3779B97F4A7C15 mod 2^64.  ``scratch``, ``count`` uint64
    entries, takes the shifts when given."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise UsageError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    t = np.empty_like(z) if scratch is None else scratch
    for shift, mix in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, shift, out=t)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, 31, out=t)
    return z


def random_uniform(seed, shape):
    """Uniforms on [0, 1) of ``shape``: the top 53 bits of each word of
    ``seed``, times 2^-53, written over the shifts' scratch."""
    out = np.empty(shape)
    flat = out.reshape(-1)
    words = splitmix64(seed, flat.size, flat.view(np.uint64))
    words >>= np.uint64(11)
    np.multiply(words, 2.0**-53, out=flat)
    return out


def random_normal(seed, shape):
    """Standard normals of ``shape`` by Box-Muller, in place on the uniforms
    of ``seed``: u_2k and u_2k+1 give sqrt(-2 ln(1 - u_2k)) times
    (cos, sin)(2 pi u_2k+1), finite for every u in [0, 1), so a shorter draw
    is a prefix of a longer one."""
    count = math.prod(shape)
    u = random_uniform(seed, count + count % 2)
    r, theta = u[0::2], u[1::2]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * math.pi
    c = np.cos(theta) * r
    np.sin(theta, out=theta)
    theta *= r
    r[:] = c
    return u[:count].reshape(shape)


def piecewise_random_forcing(dim, horizon, n_cells, seed=0):
    return ForcingSignal(random_normal(seed, (n_cells, dim)), horizon / n_cells)


def constant_forcing(vector, horizon):
    v = np.asarray(vector)
    return ForcingSignal(v[None, :], horizon)


def mode_forcings(op, horizon):
    """One constant-in-time forcing per eigenmode, as one batch of shape
    (1, dim, dim): column k is Re v / ||Re v|| for the k-th right eigenvector
    v, in spectrum order.  ``spectrum`` returns each v with unit norm and its
    largest component real and positive, so ||Re v|| >= 1 / sqrt(n)."""
    # Contiguous columns: each norm is one BLAS dot, as np.linalg.norm takes it.
    u = np.array(decomposition(op).right_vectors.real, order="F")
    return ForcingSignal((u / np.sqrt(np.vecdot(u.T, u.T)))[None], horizon)


def eigenmodes(op, horizon):
    """The scan's eigenmode batch: ``mode_forcings`` on one cell of width
    ``horizon``, with one forcing per conjugate pair of a real operator (the
    column of Im lam >= 0; Re conj(v) = Re v, so the other repeats it)."""
    f = mode_forcings(op, horizon)
    if np.iscomplexobj(operator_matrix(op)):
        return f
    return ForcingSignal(f.values[:, :, decomposition(op).eigenvalues.imag >= 0], horizon)


def build_forcing_grid(op, t_grid, n_random, seed, n_cells_max):
    """The scan's random batch: ``n_random`` forcings on ``n_cells_max`` cells
    over [0, T_max], T_max the longest horizon of ``t_grid``, as a list of one
    batch, or none when ``n_random`` is 0.  ``plateau_scan_multi`` reads each
    horizon on a prefix of its cells and adds the eigenmodes of the operator
    it scans."""
    t_max = max(float(t) for t in t_grid)
    values = random_normal(seed, (n_cells_max, operator_matrix(op).shape[0], n_random))
    return [ForcingSignal(values, t_max / n_cells_max)] if n_random else []


def _propagator_pair(a, h):
    """E = exp(a h) and P = int_0^h exp(a s) ds via the augmented exponential."""
    n = a.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=np.result_type(a.dtype, float))
    aug[:n, :n] = a * h
    aug[:n, n:] = np.eye(n) * h
    e = expm(aug)
    return np.ascontiguousarray(e[:n, :n]), np.ascontiguousarray(e[:n, n:])


def solution_map(cl, forcing, refine=1):
    """Trajectory of dy/dt = A y + f, y(0) = 0, exactly per forcing cell.

    ``forcing`` holds one forcing.  Returns (t_nodes, Y, nyt) with Y[k] the
    state at node k and nyt[k] the 2-norm of y_t there, with the forcing of
    the cell ending at node k > 0 (its left limit) and f_0 at node 0: the
    kernel sweep of the forcing's cells split into ``refine`` equal sub-cells
    of one node each, at their ends.  ``refine`` subdivides each forcing cell
    for denser output without changing the (exact) values at cell
    boundaries.  The integrator is exact for this forcing class at any step,
    so no step-size condition applies.
    """
    a = operator_matrix(cl)
    if forcing.dim != a.shape[0]:
        raise DimensionError(
            f"forcing dimension {forcing.dim} != state dimension {a.shape[0]}")
    if forcing.count != 1:
        raise DimensionError(f"solution map takes one forcing, got a batch of {forcing.count}")
    if refine < 1:
        raise UsageError("refine must be >= 1")
    h = forcing.time_step / refine
    e, p = _propagator_pair(a, h)
    y = _kernels.lti_propagate(e, p, forcing.values[:, :, 0], refine)
    scale = _kernels.lti_norm_scan(iter([(e.T[:, None], np.ones(1))]), e, [2.0],
                                   forcing.values, refine)[0]
    t = np.arange(y.shape[0]) * h
    return t, y, np.concatenate([np.sqrt(_kernels.sq_norms(forcing.values[0, :, 0]))[None],
                                 scale[:, 0, 0]])


def _validate_family(p_list, horizon, forcing_set):
    for p in p_list:
        if not (1.0 < p < np.inf):
            raise UsageError(f"exponent p must lie in (1, inf), got {p}")
    for f in forcing_set:
        if abs(f.horizon - horizon) > 1e-9 * max(horizon, 1.0):
            raise UsageError(
                f"forcing horizon {f.horizon:g} does not match requested T = {horizon:g}")
        if not np.all(np.any(f.values, axis=(0, 1))):      # one test per column
            raise UsageError("zero-norm forcing in the estimation family")


def _cell_cap(op, p_max):
    """Widest cell that ``_sweep`` takes whole: pi / (2 r), with r the larger
    of max |Im lam| and p_max max(Re lam, 0) / 4 over the spectrum of ``op``
    (inf when both are 0), so that the last panel, [tau / 2, tau], spans at
    most an eighth of a rotation and a growth of |y'|^p by e^pi."""
    lam = decomposition(op).eigenvalues
    rate = max(float(np.abs(lam.imag).max()), p_max * max(float(lam.real.max()), 0.0) / 4.0)
    return math.pi / (2.0 * rate) if rate > 0.0 else math.inf


def _node_panels(a, tau):
    """e^{As} at the nodes s of a cell [0, tau], with their weights, in chunks
    (stack, weights) for ``_kernels.lti_norm_scan``, each stack within
    ``_kernels.STACK_BYTES`` (one panel at least).

    The panels are [0, tau 2^-K], then widths doubling up to [tau / 2, tau],
    with K = max(0, ceil(log2(tau ||A||_1 / _PANEL_SPAN))), each with the
    nodes _GL_X.  Node i of a doubling panel is twice node i of the one
    before, so its exponential is that one's square: the first two panels
    take one ``expm`` per node, the rest a batched squaring each.  The chunks
    share one buffer, so each is valid until the next one is drawn.
    """
    span = tau * np.linalg.norm(a, 1) / _PANEL_SPAN
    k = math.ceil(math.log2(span)) if span > 1.0 else 0
    width, q, n = tau * 2.0 ** -k, _GL_X.size, a.shape[0]
    dtype = np.result_type(a.dtype, float)
    per = max(1, _kernels.STACK_BYTES // (q * n * n * dtype.itemsize))    # panels a chunk
    buf = np.empty((n, min(per, k + 1) * q, n), dtype=dtype)
    panel = [buf[:, i * q:(i + 1) * q].transpose(1, 0, 2) for i in range(buf.shape[1] // q)]
    weights = []
    for j in range(k + 1):
        if j < 2:
            for i, s in enumerate(0.5 * width * (1.0 + 2.0 * j + _GL_X)):
                panel[j % per][i] = expm(a * s).T
        else:
            prev = panel[(j - 1) % per]
            np.matmul(prev, prev, out=panel[j % per])
        weights.append(0.5 * width * 2.0 ** max(j - 1, 0) * _GL_W)
        if len(weights) == per or j == k:
            yield buf[:, :len(weights) * q], np.concatenate(weights)
            weights = []


def _sweep(a, f, p_list, cap):
    """One kernel sweep of the batch ``f``, reduced per cell inside the sweep:
    (time_step, split, scale, sums, nf).

    A cell wider than ``cap`` is swept as ``split`` equal sub-cells; scale and
    sums are ``_kernels.lti_norm_scan``'s, one row per sub-cell, and nf the
    (n_cells, count) norms of the forcing's cells.
    """
    split = max(1, math.ceil(f.time_step / cap))
    tau = f.time_step / split
    scale, sums = _kernels.lti_norm_scan(_node_panels(a, tau), expm(a * tau), p_list,
                                         f.values, split)
    return f.time_step, split, scale, sums, np.sqrt(_kernels.sq_norms(f.values.transpose(0, 2, 1)))


def lp_time_norm(scale, weight, p):
    """(sum_c weight_c scale_c^p)^(1/p) along the first axis: the L^p norm in
    time of a function whose p-th power integrates to weight_c scale_c^p over
    cell c, with the scales divided by their largest one so that no power
    overflows.  A piecewise-constant forcing takes its cell norms as scales and
    the cell width as weight, so its norm is exact."""
    top = scale.max(axis=0)
    safe = np.where(top > 0.0, top, 1.0)
    return safe * (weight * (scale / safe) ** p).sum(axis=0) ** (1.0 / p)


def _quotients(sweep, p_list, k):
    """The largest quotient per exponent of a swept batch, read on its first
    ``k`` cells; a forcing that is zero on them reads 0."""
    step, split, scale, sums, nf = sweep
    out = []
    for i, p in enumerate(p_list):
        norms = lp_time_norm(scale[:k * split], sums[:k * split, :, i], p)
        num, den = norms[0] + norms[1], lp_time_norm(nf[:k], step, p)
        out.append(float(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0).max()))
    return np.array(out)


def maxreg_constants_multi(cl, p_list, horizon, forcing_set):
    """C_{p,T} estimates for several exponents, one kernel sweep per batch.

    Largest (||y_t||_p + ||A y||_p)/||f||_p over the forcing family, a list
    of ForcingSignal batches, by the graded Gauss-Legendre rule of ``_sweep``.
    """
    p_list = [float(p) for p in p_list]
    _validate_family(p_list, horizon, forcing_set)
    if not forcing_set:
        raise UsageError("forcing set must be nonempty")
    a, cap = operator_matrix(cl), _cell_cap(cl, max(p_list))
    return np.max([_quotients(_sweep(a, f, p_list, cap), p_list, f.n_cells)
                   for f in forcing_set], axis=0)


@dataclass(frozen=True)
class MaxRegReport:
    """Horizon scan of the regularity-constant estimate.

    ``c_upper`` is the Plancherel bound sqrt(2) sup_w ||[iwR; AR]|| on the
    p = 2 constant at every horizon (``inf`` for an unstable loop) on the
    p = 2 report, and nan on the others.
    """

    p: float
    t_grid: tuple
    c_estimates: tuple
    imag_axis_sup: float
    verdict: str
    c_upper: float


def _verdict(c_estimates):
    """plateau: settled (last move < PLATEAU_RTOL) or monotone nonincreasing
    (bounded); growth: log C climbing by more than 1 per horizon step."""
    c = np.asarray(c_estimates, dtype=float)
    rel = abs(c[-1] - c[-2]) / max(abs(c[-2]), 1e-300)
    if rel < PLATEAU_RTOL:
        return "plateau"
    logs = np.diff(np.log(np.maximum(c, 1e-300)))
    if np.all(logs > 1.0):
        return "growth"
    if np.all(np.diff(c) <= 1e-12 * np.abs(c[:-1])):
        return "plateau"
    return "indeterminate"


def _response(a, c, d, w):
    """C (iw I - A)^-1 + D for the array ``a``."""
    return np.linalg.solve((1j * w * np.eye(a.shape[0]) - a).T, c.T).T + d


def _frequency_sup(a, c, d):
    """(sup, w*): the supremum over real w of ||C (iw I - A)^-1 + D||_2 and a w
    attaining it; w* = inf for the limit ||D||_2, (inf, nan) unless A is stable.

    ``a`` is an Operator, ClosedLoop or array, its poles read from its
    ``decomposition``.  Boyd, Balakrishnan and Kabamba (1989): g is a singular
    value at iw exactly when iw is an eigenvalue of the Hamiltonian ``h``.  The
    gain starts at the best of ||D||_2, w = 0, the signed Im of the 8
    least-damped poles and 13 log-spaced w in [1e-2, 1e4]; each step tests
    g = gain (1 + _SUP_RTOL) and takes the best gain at the midpoints of the
    imaginary eigenvalues (Bruinsma and Steinbuch 1990) until none is left or
    none rises above g (the crossings of a flat gain, such as the constant 1
    of a normal loop's [iwR; AR], are rounding inside that band), so the
    supremum holds to _SUP_RTOL relative.  NumericalError after 50 steps.
    """
    poles = decomposition(a).eigenvalues
    if poles[0].real >= 0:
        return np.inf, np.nan
    a = operator_matrix(a)
    ch, dh = c.conj().T, d.conj().T

    def gain(w):
        return float(np.linalg.svd(_response(a, c, d, w), compute_uv=False)[0]), float(w)

    start = np.concatenate([[0.0], poles[:8].imag, np.logspace(-2.0, 4.0, 13)])
    best = max([(float(np.linalg.norm(d, 2)), np.inf)] + [gain(w) for w in start])
    for _ in range(50):
        g = best[0] * (1.0 + _SUP_RTOL)
        r_inv = np.linalg.inv(dh @ d - g * g * np.eye(d.shape[1]))
        s_c = np.linalg.solve(d @ dh - g * g * np.eye(d.shape[0]), c)
        h = np.block([[a - r_inv @ dh @ c, -g * r_inv],
                      [g * ch @ s_c, -a.conj().T + ch @ d @ r_inv]])
        mu = np.linalg.eigvals(h)
        w = np.sort(mu.imag[np.abs(mu.real) < 1e-8 * max(1.0, np.abs(mu).max())])
        mids = [gain(m) for m in (w[1:] + w[:-1]) / 2.0]
        if not mids or max(mids)[0] <= g:
            return best
        best = max([best] + mids)
    raise NumericalError(f"frequency supremum: no convergence in 50 steps (gain {best[0]:.12g})")


def imaginary_axis_bound(cl):
    """sup over real w of ||iw R(iw, A)|| = ||A (iw I - A)^-1 + I|| by
    ``_frequency_sup``: by Plancherel the L^2(0, inf) norm of f -> y' of the
    zero-start loop; ``inf`` when an eigenvalue has Re >= 0."""
    a = operator_matrix(cl)
    return _frequency_sup(cl, a, np.eye(a.shape[0]))[0]


def _top_vector(g, sup):
    """A unit right singular vector of ``g`` for its largest singular value
    ``sup``, by power iteration on g* g until ||g v|| is within 1e-12 of
    ``sup`` (at most 500 steps): matrix-vector products only, where an SVD
    with vectors or the product g* g would wake the BLAS threads."""
    gh = g.conj().T
    v = gh[:, np.argmax(np.linalg.norm(g, axis=1))]        # g* e_k, the largest row
    v = v / np.linalg.norm(v)
    for _ in range(500):
        u = g @ v
        if np.linalg.norm(u) >= sup * (1.0 - 1e-12):
            break
        v = gh @ u
        v /= np.linalg.norm(v)
    return v


def _peak_forcing(a, omega, v, horizon):
    """The forcing Re(v e^{i omega t}) on [0, horizon] (v e^{i omega t} itself
    for a complex ``a``), sampled at the midpoints of cells of at most 1/16
    of its period."""
    m = math.ceil(16.0 * horizon * abs(omega) / (2.0 * math.pi))
    tau = horizon / m
    values = np.exp(1j * omega * tau * (np.arange(m) + 0.5))[:, None] * v
    return ForcingSignal(values if np.iscomplexobj(a) else values.real, tau)


def plateau_scan_multi(cl, p_list, t_grid, forcings):
    """Horizon scans for several exponents, each batch swept once.

    ``forcings`` is a list of batches on [0, T_max], T_max the longest
    horizon; so is the peak forcing Re(v e^{i w* t}): ``_frequency_sup`` with
    (C, D) = ([A; A], [I; 0]) gives w* and sup ||G|| of G = [iwR; AR]
    (C_upper = sqrt(2) sup ||G||), and v is a top right singular vector of
    G(i w*).  A gain within _SUP_RTOL of 1, as every normal loop's, has no
    interior peak and takes no peak batch.  Each batch is swept once, and
    horizon T reads its first floor(m T / T_max) of m cells: extended by zero,
    that prefix is a forcing on [0, T] with the same norm and no smaller
    response, so its quotient is a lower end at T too.  Each horizon adds the
    ``eigenmodes`` of ``cl``, taken from its one decomposition for the whole
    scan, swept by ``maxreg_constants_multi`` at that horizon.  Returns one
    MaxRegReport per exponent.  verdict ``plateau``: the last two estimates
    differ by < PLATEAU_RTOL relative; ``growth``: log C increases by more
    than 1 between every pair of consecutive horizons; anything in between is
    ``indeterminate``.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 3 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise UsageError("horizon grid must be increasing with at least 3 entries")
    p_list = [float(p) for p in p_list]
    if not p_list:
        raise UsageError("exponent grid must be nonempty")
    _validate_family(p_list, t_grid[-1], forcings)
    a, cap = operator_matrix(cl), _cell_cap(cl, max(p_list))
    table = np.array([maxreg_constants_multi(cl, p_list, t, [eigenmodes(cl, t)])
                      for t in t_grid])

    def read(batch):                # one sweep, read on each horizon's prefix
        sweep = _sweep(a, batch, p_list, cap)
        for i, t in enumerate(t_grid):
            # 1 + 1e-12 keeps a whole m T / T_max whole where it rounds
            # below: 3 cells over T = 0.3 / 0.6 / 0.9 read 1 / 2 / 3
            k = math.floor(batch.n_cells * t / t_grid[-1] * (1.0 + 1e-12))
            if k:
                table[i] = np.maximum(table[i], _quotients(sweep, p_list, k))

    for f in forcings:
        read(f)
    imag_sup = imaginary_axis_bound(cl)
    c, d = np.vstack([a, a]), np.eye(2 * a.shape[0], a.shape[0])
    sup, omega = _frequency_sup(cl, c, d)
    if 1.0 + _SUP_RTOL < sup < np.inf:      # w* an interior peak
        read(_peak_forcing(a, omega, _top_vector(_response(a, c, d, omega), sup), t_grid[-1]))
    return [MaxRegReport(
        p=p,
        t_grid=tuple(t_grid),
        c_estimates=tuple(float(c) for c in table[:, i]),
        imag_axis_sup=imag_sup,
        verdict=_verdict(table[:, i]),
        c_upper=math.sqrt(2.0) * sup if p == 2.0 else np.nan,
    ) for i, p in enumerate(p_list)]


def dual_exponent(p):
    if not (1.0 < p < np.inf):
        raise UsageError(f"exponent p must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def conjugated_forcings(forcings):
    """The batches conjugated; a real batch is its own conjugate, kept as it is."""
    return [ForcingSignal(np.conj(f.values), f.time_step) if np.iscomplexobj(f.values) else f
            for f in forcings]


def duality_check(cl, p, t_grid, forcings):
    """Regularity gap between the operator at p and its adjoint at p'.

    Runs the horizon scan for the closed loop at exponent p and for its
    conjugate transpose at the dual exponent with conjugated forcings, demands
    matching verdicts and returns |log C - log C*| at the longest horizon.
    Each scan adds the eigenmodes of the operator it scans, so the adjoint's
    come from the adjoint's own eigenpairs; they are not the conjugated
    eigenvectors of the closed loop.
    """
    rep = plateau_scan_multi(cl, [p], t_grid, forcings)[0]
    a = operator_matrix(cl)
    adj = Operator(a.conj().T, label="adjoint")
    rep_adj = plateau_scan_multi(adj, [dual_exponent(p)], t_grid,
                                 conjugated_forcings(forcings))[0]
    if rep.verdict != rep_adj.verdict:
        raise IdentityViolationError(
            f"duality verdict mismatch: {rep.verdict} (p={p}) vs "
            f"{rep_adj.verdict} (p'={dual_exponent(p):g})")
    return abs(math.log(rep.c_estimates[-1]) - math.log(rep_adj.c_estimates[-1]))


def report_rows(model, mode, reports):
    """CSV rows (fixed header ``CSV_HEADER``) for a list of MaxRegReports."""
    rows = []
    for rep in reports:
        for t, c in zip(rep.t_grid, rep.c_estimates):
            rows.append((model, mode, rep.p, t, c, rep.imag_axis_sup, rep.verdict,
                         rep.c_upper))
    return rows


def verify_rows(reports):
    """verify.csv rows (check, value, threshold, status) of a regularity scan:
    ``imag_axis_sup``, finite unless the loop is unstable; if p = 2 is
    scanned, ``C_upper_p=2`` with the largest p = 2 estimate as its threshold,
    which passes when C_upper is finite and no estimate exceeds it by more
    than UPPER_RTOL; then per report a ``plateau_p=<p>`` row on the longest
    horizon that passes on ``plateau``."""
    sup = reports[0].imag_axis_sup
    rows = [("imag_axis_sup", sup, np.inf, "PASS" if np.isfinite(sup) else "FAIL")]
    for rep in reports:
        if rep.p == 2.0:
            top = max(rep.c_estimates)
            ok = np.isfinite(rep.c_upper) and top <= rep.c_upper * (1.0 + UPPER_RTOL)
            rows.append(("C_upper_p=2", rep.c_upper, top, "PASS" if ok else "FAIL"))
    for rep in reports:
        rows.append((f"plateau_p={rep.p:g}", rep.c_estimates[-1], PLATEAU_RTOL,
                     "PASS" if rep.verdict == "plateau" else "FAIL"))
    return rows
