"""Maximal L^p-regularity diagnostics for closed-loop operators.

The solution map is the variation-of-constants convolution driven by
piecewise-constant-in-time forcings, integrated exactly per cell with the
augmented-matrix exponential.  The regularity constant estimate is the
largest quotient (||y_t||_p + ||A y||_p) / ||f||_p over a finite forcing
family, a lower end of the true constant.  At p = 2 the scan also gives the
upper end: by Plancherel, C_upper = sqrt(2) sup_w ||[iwR; AR]|| with
R = (iw - A)^-1 bounds the constant at every horizon, and the peak forcing
Re(v e^{i w* t}) at its maximizing frequency w* comes within about 1 % of it
on the benchmark loops.  The family is a list of batches.  A ForcingSignal
batch holds forcings sharing one cell structure and is swept by one kernel
call.  The sweep steps y_t alone with exp(A h) and reads A y as y_t - f,
with the forcing value attached to each node taken from the cell ending
there (left limit), which keeps the trapezoid quadrature clear of the stiff
transient spikes at cell openings.  An EigenModes batch holds the
constant-in-time eigenmode forcings, one per distinct forcing, whose
quotients are scalar functions of the eigenvalue, the horizon and a 2 x 2
Gram matrix, integrated by Gauss-Legendre quadrature on graded panels at
every p.  The horizon scan adds the eigenmodes of the operator it scans to
every horizon's family, and the peak forcing, swept once over the longest
horizon and read by each horizon on its prefix.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, IdentityViolationError, NumericalError, UsageError
from .operators import Operator, decomposition, expm, operator_matrix

CSV_HEADER = "model,mode,p,T,C_estimate,imag_sup,verdict,C_upper"

# Quadrature density of the regularity estimates: each forcing cell takes
# ceil(QUAD_NODES / n_cells) substeps, so a forcing gets at least QUAD_NODES
# trapezoid intervals (exactly that many whenever n_cells divides QUAD_NODES).
QUAD_NODES = 8000

# Largest last relative move of a horizon scan that still reads as a plateau.
PLATEAU_RTOL = 0.05

# Largest relative excess of a p = 2 estimate over C_upper that its verify
# row forgives: the trapezoid quadrature's error, not a breach of the bound.
UPPER_RTOL = 5e-3

# Relative accuracy to which ``_frequency_sup`` certifies a supremum.
_SUP_RTOL = 2e-9

# Largest eigen-residual ||A v - lam v|| / ||A||_F (v a unit eigenvector) of a
# mode evaluated in closed form; the kernel sweeps a mode above it.
EIG_RTOL = 1e-10

# The 20-point Gauss-Legendre rule of the closed-form mode integrals, by its
# nonnegative half: the values of numpy.polynomial.legendre.leggauss(20) to
# the last bit, written out so that no process imports numpy.polynomial.
_GL_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])

# The decay lengths 1 / |Re lam| after which a mode's transient is below
# e^-40, and the most quadrature nodes evaluated at once (whole modes, at
# least one): about 100 bytes of temporaries per node.
_TRANSIENT = 40.0
_NODE_CHUNK = 4096


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
        # C order: the kernel's per-block products and sums run slower on a
        # transposed (dim, count) cell slice.
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


def piecewise_random_forcing(dim, horizon, n_cells, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n_cells, dim))
    return ForcingSignal(vals, horizon / n_cells)


def constant_forcing(vector, horizon):
    v = np.asarray(vector)
    return ForcingSignal(v[None, :], horizon)


def _mode_columns(vr):
    """(u, b) for the eigenvector columns of ``vr``: the forcing u = Re w and
    b = Im w, where w = v / ||Re v||.  ``spectrum`` returns each v with unit
    norm and its largest component real and positive, so ||Re v|| >= 1 / sqrt(n)."""
    # Contiguous columns: each norm is one BLAS dot, as np.linalg.norm takes it.
    u = np.array(vr.real, order="F")
    b = np.array(vr.imag, order="F")
    norm = np.sqrt(np.vecdot(u.T, u.T))
    return u / norm, b / norm


def mode_forcings(op, horizon):
    """One constant-in-time forcing per eigenmode (real part, normalized), as
    one batch of shape (1, dim, dim): column k is eigenmode k, in spectrum order."""
    vr = decomposition(op).right_vectors
    return ForcingSignal(_mode_columns(vr)[0][None], horizon)


@dataclass(frozen=True)
class EigenModes:
    """The eigenmode forcings of an operator (``mode_forcings``), as a batch
    evaluated in closed form.

    Mode k is the constant forcing u = Re w with A w = lam w, so that
    y_t = Re(e^{lam t} w) and A y = Re(expm1(lam t) w) (for a real operator,
    conj(w) is an eigenvector for conj(lam), with the same forcing, so only the
    mode with Im lam >= 0 of a pair is held).  ``eigenvalues`` holds lam for
    each such mode and ``gram`` the rows (|Re w|^2, <Re w, Im w>, |Im w|^2).
    ``swept`` is the (dim, j) array of the forcings whose eigen-residual
    exceeds EIG_RTOL; the kernel sweeps them as one one-cell batch.
    """

    eigenvalues: np.ndarray
    gram: np.ndarray
    swept: np.ndarray


def eigenmodes(op):
    """The EigenModes of ``op`` from its decomposition, one per distinct forcing."""
    a = operator_matrix(op)
    sp = decomposition(op)
    lam, vr = sp.eigenvalues, sp.right_vectors
    if not np.iscomplexobj(a):      # Re conj(v) = Re v: one forcing per pair
        lam, vr = lam[lam.imag >= 0], vr[:, lam.imag >= 0]
    u, b = _mode_columns(vr)
    resid = np.linalg.norm(a @ vr - vr * lam, axis=0)
    if np.iscomplexobj(a):      # Re w also needs conj(A) v = lam v
        resid = np.maximum(resid, np.linalg.norm(a.conj() @ vr - vr * lam, axis=0))
    ok = resid <= EIG_RTOL * np.linalg.norm(a)
    gram = np.stack([np.vecdot(u.T, u.T), np.vecdot(u.T, b.T), np.vecdot(b.T, b.T)], axis=1)
    return EigenModes(lam[ok], gram[ok], u[:, ~ok])


def _gram_form(gram, z):
    """|Re(z w)|^2 from the Gram rows of w, for z broadcast against them."""
    x, y = z.real, z.imag
    return np.maximum(gram[..., 0] * x * x - 2.0 * gram[..., 1] * x * y
                      + gram[..., 2] * y * y, 0.0)


def _mode_panels(lam, horizon, p_max):
    """Gauss-Legendre panel breakpoints on [0, T] for one mode: graded toward
    t = 0, panels of width at most 4 / (p |Re lam|) and pi / |Im lam| over the
    transient (next to t = 0 for a decaying mode, t = T for a growing one),
    then doubling widths."""
    rate, freq = abs(lam.real), abs(lam.imag)
    width = min(horizon, 4.0 / (p_max * rate) if rate else np.inf,
                np.pi / freq if freq else np.inf)
    span = min(horizon, _TRANSIENT / rate) if rate else horizon
    uniform = np.arange(0.0, span, width)
    doubling = span * 2.0 ** np.arange(1, max(1, math.ceil(math.log2(horizon / span)) + 1))
    away = np.concatenate([uniform, doubling[doubling < horizon]])
    if lam.real > 0:
        away = horizon - away
    breaks = np.concatenate([[0.0, horizon], width * 2.0 ** -np.arange(1, 21), away])
    b = np.sort(np.clip(breaks, 0.0, horizon))
    return b[np.r_[True, b[1:] > b[:-1]]]


def _mode_chunks(sizes, budget):
    """Slices of consecutive modes whose sizes sum to at most ``budget``, or
    of one mode where that one alone exceeds it."""
    start, total = 0, 0
    for k, size in enumerate(sizes):
        if total and total + size > budget:
            yield slice(start, k)
            start, total = k, 0
        total += size
    yield slice(start, len(sizes))


def _mode_norms(lam, gram, shift, breaks, p_list):
    """sum over (y_t, A y) of the scaled L^p norms of the modes ``lam``, shape
    (len(p_list), lam.size), by Gauss-Legendre quadrature on their panels."""
    owner = np.repeat(np.arange(lam.size), [len(b) - 1 for b in breaks])
    half = 0.5 * np.concatenate([np.diff(b) for b in breaks])
    t = (np.concatenate([b[:-1] for b in breaks]) + half)[:, None] + half[:, None] * _GL_NODES
    weight = (half[:, None] * _GL_WEIGHTS).ravel()
    lt = lam[owner, None] * t
    scale = np.exp(-shift[owner, None])
    yt = np.exp(lt - shift[owner, None])
    near = np.abs(lt) < 1.0
    ay = np.where(near, scale * np.expm1(np.where(near, lt, 0.0)), yt - scale)
    g = gram[owner][:, None, :]
    squares = [_gram_form(g, z).ravel() for z in (yt, ay)]
    owner = np.repeat(owner, _GL_NODES.size)
    return np.array([sum(np.bincount(owner, weight * sq ** (p / 2.0), minlength=lam.size)
                         ** (1.0 / p) for sq in squares) for p in p_list])


def _mode_quotients(modes, p_list, horizon):
    """Quotients of the EigenModes modes, shape (len(p_list), k), by
    Gauss-Legendre quadrature on each mode's ``_mode_panels``.

    The nodes are evaluated for whole modes at a time, at most _NODE_CHUNK of
    them (or one mode), so the temporaries do not grow with the mode count.
    Both norms are scaled by e^{-max(Re lam, 0) T}, so a growing mode does not
    overflow before the quotient is formed.
    """
    lam, gram = modes.eigenvalues, modes.gram
    shift = np.maximum(lam.real, 0.0) * horizon
    breaks = [_mode_panels(lam_k, horizon, max(p_list)) for lam_k in lam]
    out = np.empty((len(p_list), lam.size))
    for s in _mode_chunks([(len(b) - 1) * _GL_NODES.size for b in breaks], _NODE_CHUNK):
        out[:, s] = _mode_norms(lam[s], gram[s], shift[s], breaks[s], p_list)
    norm_f = np.sqrt(gram[:, 0])[None] * horizon ** (1.0 / np.array(p_list))[:, None]
    with np.errstate(over="ignore"):
        return np.exp(shift)[None] * out / norm_f


def build_forcing_grid(op, t_grid, n_random, seed, n_cells_max):
    """Nested random forcing batches over a horizon grid: one batch per
    horizon, or none when ``n_random`` is 0.

    The longest horizon takes ``n_cells_max`` cells and a horizon T takes
    round(n_cells_max * T / T_max) of them, the prefix of the same cell values
    (views of one array), so the scan compares the same underlying signals
    when the horizon grows.  The cells share one width (T_max / n_cells_max)
    only where those counts are exact, as for 125 / 250 / 500 cells over
    T = 10 / 20 / 40; otherwise each horizon's width is T over its own count
    (4 / 33, 8 / 67 and 12 / 100 for T = 4 / 8 / 12 on 100 cells), so a
    shorter horizon's forcings are the longer one's values on a slightly
    different time grid.  The eigenmodes are not part of the grid:
    ``plateau_scan_multi`` adds the EigenModes of the operator it scans.
    """
    t_grid = [float(t) for t in t_grid]
    t_max = max(t_grid)
    base = np.random.default_rng(seed).standard_normal(
        (n_cells_max, operator_matrix(op).shape[0], n_random))
    sets = []
    for t in t_grid:
        cells = max(1, int(round(n_cells_max * t / t_max)))
        sets.append([ForcingSignal(base[:cells], t / cells)] if n_random else [])
    return sets


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
    state at node k and nyt[k] the 2-norm of y_t there, with the left-limit
    forcing of ``_kernels.lti_norm_scan``, whose recurrence it comes from;
    ``refine`` subdivides each forcing cell for denser output without
    changing the (exact) values at cell boundaries.  The integrator is exact
    for this forcing class at any step, so no step-size condition applies.
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
    nyt = _kernels.lti_norm_scan(None, e, None, forcing.values, refine)[0][:, 0]
    t = np.arange(y.shape[0]) * h
    return t, y, nyt


def lp_time_norm(node_values, dt, p):
    """L^p time norm by trapezoid on |.|^p of nodal values (overflow-safe).

    ``node_values`` is (n_nodes,) or (n_nodes, nb); returns scalar or (nb,).
    """
    g = np.atleast_2d(np.asarray(node_values, dtype=float).T).T
    s = g.max(axis=0)
    safe = np.where(s == 0.0, 1.0, s)
    z = g / safe            # the one full-size temporary
    np.power(z, p, out=z)
    integral = dt * (z.sum(axis=0) - 0.5 * (z[0] + z[-1]))
    out = safe * integral ** (1.0 / p)
    out = np.where(s == 0.0, 0.0, out)
    return out if np.asarray(node_values).ndim > 1 else float(out[0])


def _cell_lp_norm(cell_norms, dt, refine, p):
    """``lp_time_norm`` of a piecewise-constant forcing from its cell norms.

    ``cell_norms`` is (m, nb): the norms of the m cells of nb forcings.  The
    value is the trapezoid rule on the left-limit nodes, ``refine`` per cell
    and node 0 carrying the first cell, in closed form:
    dt * (refine * sum_j |f_j|^p + (|f_0|^p - |f_{m-1}|^p) / 2), scaled by
    the column maximum as ``lp_time_norm`` scales.  Every column is nonzero
    (``_validate_family``).  Returns (nb,).
    """
    s = cell_norms.max(axis=0)
    z = (cell_norms / s) ** p
    return s * (dt * (refine * z.sum(axis=0) + 0.5 * (z[0] - z[-1]))) ** (1.0 / p)


def _validate_family(p_list, horizon, forcing_set):
    for p in p_list:
        if not (1.0 < p < np.inf):
            raise UsageError(f"exponent p must lie in (1, inf), got {p}")
    if not forcing_set:
        raise UsageError("forcing set must be nonempty")
    for f in forcing_set:
        if isinstance(f, EigenModes):
            continue
        if abs(f.horizon - horizon) > 1e-9 * max(horizon, 1.0):
            raise UsageError(
                f"forcing horizon {f.horizon:g} does not match requested T = {horizon:g}")
        if not np.all(np.any(f.values, axis=(0, 1))):      # one test per column
            raise UsageError("zero-norm forcing in the estimation family")


def maxreg_constants_multi(cl, p_list, horizon, forcing_set):
    """C_{p,T} estimates for several exponents, one kernel sweep per batch.

    Largest (||y_t||_p + ||A y||_p)/||f||_p over the forcing family, a list
    of ForcingSignal and EigenModes batches.  Each ForcingSignal batch is one
    kernel sweep with ``ceil(QUAD_NODES / n_cells)`` substeps per cell, and
    each norm is the trapezoid rule on that sweep's nodes (in closed form for
    the piecewise-constant forcing, from its cell norms).  No convergence
    test is made: a transient boundary layer at a cell opening can leave the
    estimate short of its limit, without a flag.  EigenModes quotients are
    evaluated in closed form; the modes it could not vouch for are swept as
    one more (one-cell) batch.
    """
    p_list = [float(p) for p in p_list]
    _validate_family(p_list, horizon, forcing_set)
    a = operator_matrix(cl)
    best = np.zeros(len(p_list))
    batches = []
    for f in forcing_set:
        if not isinstance(f, EigenModes):
            batches.append(f)
            continue
        if f.eigenvalues.size:
            best = np.maximum(best, _mode_quotients(f, p_list, horizon).max(axis=1))
        if f.swept.shape[1]:
            batches.append(ForcingSignal(f.swept[None], horizon))
    for f in batches:
        best = np.maximum(best, _quotients(*_sweep(a, f), p_list, f.n_cells))
    return best


def _sweep(a, f):
    """(sweep, h, refine): one kernel sweep of the batch ``f`` with
    ``refine = ceil(QUAD_NODES / n_cells)`` substeps of width h per cell."""
    refine = math.ceil(QUAD_NODES / f.n_cells)
    h = f.time_step / refine
    return _kernels.lti_norm_scan(a, expm(a * h), None, f.values, refine), h, refine


def _quotients(sweep, h, refine, p_list, k):
    """The largest quotient per exponent of a swept batch, read on its first
    ``k`` cells: the trapezoid rule on their nodes (``lp_time_norm``), the
    forcing's norm in closed form (``_cell_lp_norm``)."""
    nyt, nay, nf_cells = sweep
    nodes = k * refine + 1
    return np.array([float(((lp_time_norm(nyt[:nodes], h, p) + lp_time_norm(nay[:nodes], h, p))
                            / _cell_lp_norm(nf_cells[:k], h, refine, p)).max())
                     for p in p_list])


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


def plateau_scan_multi(cl, p_list, t_grid, forcing_sets):
    """Horizon scans for several exponents sharing one trajectory sweep per T.

    Each horizon's family is its forcing set plus the EigenModes of ``cl``,
    taken from its one decomposition for the whole scan, plus the peak
    forcing Re(v e^{i w* t}): ``_frequency_sup`` with (C, D) = ([A; A], [I; 0])
    gives w* and sup ||G|| of G = [iwR; AR] (C_upper = sqrt(2) sup ||G||), and v
    is a top right singular vector of G(i w*).  That batch is swept once on
    [0, T_max], and horizon T reads its first floor(T / tau) cells: extended
    by zero, that prefix is a forcing on [0, T] with the same norm and no
    smaller response, so its quotient is a lower end at T too.  A gain within
    _SUP_RTOL of 1, as every normal loop's, has no interior peak and takes no
    peak batch.  Returns one MaxRegReport per exponent.  verdict ``plateau``:
    the last two estimates differ by < PLATEAU_RTOL relative; ``growth``:
    log C increases by more than 1 between every pair of consecutive
    horizons; anything in between is ``indeterminate``.
    """
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 3 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise UsageError("horizon grid must be increasing with at least 3 entries")
    if len(forcing_sets) != len(t_grid):
        raise UsageError("one forcing set per horizon required")
    p_list = [float(p) for p in p_list]
    if not p_list:
        raise UsageError("exponent grid must be nonempty")
    modes = eigenmodes(cl)
    table = np.array([maxreg_constants_multi(cl, p_list, t, [*fs, modes])
                      for t, fs in zip(t_grid, forcing_sets)])
    imag_sup = imaginary_axis_bound(cl)
    a = operator_matrix(cl)
    c, d = np.vstack([a, a]), np.eye(2 * a.shape[0], a.shape[0])
    sup, omega = _frequency_sup(cl, c, d)
    if 1.0 + _SUP_RTOL < sup < np.inf:      # w* an interior peak
        peak = _peak_forcing(a, omega, _top_vector(_response(a, c, d, omega), sup), t_grid[-1])
        swept = _sweep(a, peak)
        for row, t in zip(table, t_grid):
            # T_max reads every cell: m T / T_max may round below m there
            k = peak.n_cells if t == t_grid[-1] else math.floor(peak.n_cells * t / t_grid[-1])
            if k:
                row[:] = np.maximum(row, _quotients(*swept, p_list, k))
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


def conjugated_forcings(forcing_sets):
    return [[ForcingSignal(np.conj(f.values), f.time_step) for f in fs]
            for fs in forcing_sets]


def duality_check(cl, p, t_grid, forcing_sets):
    """Regularity gap between the operator at p and its adjoint at p'.

    Runs the horizon scan for the closed loop at exponent p and for its
    conjugate transpose at the dual exponent with conjugated forcings, demands
    matching verdicts and returns |log C - log C*| at the longest horizon.
    Each scan adds the eigenmodes of the operator it scans, so the adjoint's
    come from the adjoint's own eigenpairs, in closed form; they are not the
    conjugated eigenvectors of the closed loop.
    """
    rep = plateau_scan_multi(cl, [p], t_grid, forcing_sets)[0]
    a = operator_matrix(cl)
    adj = Operator(a.conj().T, label="adjoint")
    rep_adj = plateau_scan_multi(adj, [dual_exponent(p)], t_grid,
                                 conjugated_forcings(forcing_sets))[0]
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
