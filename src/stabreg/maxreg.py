"""Maximal L^p-regularity diagnostics for closed-loop operators.

The solution map is the variation-of-constants convolution driven by
piecewise-constant-in-time forcings, integrated exactly per cell with the
augmented-matrix exponential.  The regularity constant estimate is the
largest quotient (||y_t||_p + ||A y||_p) / ||f||_p over a finite forcing
family (a lower bound on the true constant; its trend over growing horizons
is the verified content).  The family is a list of batches.  A ForcingSignal
batch holds forcings sharing one cell structure and is swept by one kernel
call; y_t is evaluated algebraically as A y + f, with the forcing value
attached to each node taken from the cell ending there (left limit), which
keeps the trapezoid quadrature clear of the stiff transient spikes at cell
openings.  An EigenModes batch holds the constant-in-time eigenmode forcings,
one per distinct forcing, whose quotients are scalar functions of the
eigenvalue, the horizon and a 2 x 2 Gram matrix, integrated by Gauss-Legendre
quadrature on graded panels at every p.  The horizon scan adds the eigenmodes
of the operator it scans to every horizon's family.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import _kernels
from .errors import DimensionError, IdentityViolationError, UsageError
from .operators import Operator, operator_matrix

CSV_HEADER = "model,mode,p,T,C_estimate,imag_sup,verdict"

# Quadrature density of the regularity estimates: each forcing cell takes
# ceil(QUAD_NODES / n_cells) substeps, so a forcing gets at least QUAD_NODES
# trapezoid intervals (exactly that many whenever n_cells divides QUAD_NODES).
QUAD_NODES = 8000

# Largest last relative move of a horizon scan that still reads as a plateau.
PLATEAU_RTOL = 0.05

# Largest eigen-residual ||A v - lam v|| / ||A||_F (v a unit eigenvector) of a
# mode evaluated in closed form; the kernel sweeps a mode above it.
EIG_RTOL = 1e-10

# Gauss-Legendre rule of the closed-form mode integrals, and the
# decay lengths 1 / |Re lam| after which a mode's transient is below e^-40.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_TRANSIENT = 40.0


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
    b = Im w, where w = v / ||Re v||.  LAPACK returns each v with unit norm and
    its largest component real, so ||Re v|| >= 1 / sqrt(n)."""
    # Contiguous columns: each norm is one BLAS dot, as np.linalg.norm takes it.
    u = np.array(vr.real, order="F")
    b = np.array(vr.imag, order="F")
    norm = np.sqrt(np.vecdot(u.T, u.T))
    return u / norm, b / norm


def mode_forcings(op, horizon):
    """One constant-in-time forcing per eigenmode (real part, normalized), as
    one batch of shape (1, dim, dim): column k is eigenmode k."""
    _, vr = la.eig(operator_matrix(op))
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
    """The EigenModes of ``op`` from one eigendecomposition, one per distinct forcing."""
    a = operator_matrix(op)
    lam, vr = la.eig(a)
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
    return np.unique(np.clip(breaks, 0.0, horizon))


def _mode_quotients(modes, p_list, horizon):
    """Quotients of the EigenModes modes, shape (len(p_list), k), by
    Gauss-Legendre quadrature on each mode's ``_mode_panels``.

    Both norms are scaled by e^{-max(Re lam, 0) T}, so a growing mode does not
    overflow before the quotient is formed.
    """
    lam, gram = modes.eigenvalues, modes.gram
    shift = np.maximum(lam.real, 0.0) * horizon
    breaks = [_mode_panels(lam_k, horizon, max(p_list)) for lam_k in lam]
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
    out = np.array([sum(np.bincount(owner, weight * sq ** (p / 2.0), minlength=lam.size)
                        ** (1.0 / p) for sq in squares) for p in p_list])
    norm_f = np.sqrt(gram[:, 0])[None] * horizon ** (1.0 / np.array(p_list))[:, None]
    with np.errstate(over="ignore"):
        return np.exp(shift)[None] * out / norm_f


def build_forcing_grid(op, t_grid, n_random, seed, n_cells_max):
    """Nested random forcing batches over a horizon grid: one batch per
    horizon, or none when ``n_random`` is 0.

    Random forcings share one cell width (longest horizon / n_cells_max) and
    shorter horizons take prefixes (views of one array), so the scan compares
    the same underlying signals when the horizon grows.  The eigenmodes are
    not part of the grid: ``plateau_scan_multi`` adds the EigenModes of the
    operator it scans.
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
    e = la.expm(aug)
    return np.ascontiguousarray(e[:n, :n]), np.ascontiguousarray(e[:n, n:])


def solution_map(cl, forcing, refine=1):
    """Trajectory of dy/dt = A y + f, y(0) = 0, exactly per forcing cell.

    ``forcing`` holds one forcing.  Returns (t_nodes, Y) with Y[k] the state
    at node k; ``refine`` subdivides each forcing cell for denser output
    without changing the (exact) values at cell boundaries.  The integrator is
    exact for this forcing class at any step, so no step-size condition
    applies.
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
    t = np.arange(y.shape[0]) * h
    return t, y


def lp_time_norm(node_values, dt, p):
    """L^p time norm by trapezoid on |.|^p of nodal values (overflow-safe).

    ``node_values`` is (n_nodes,) or (n_nodes, nb); returns scalar or (nb,).
    """
    g = np.atleast_2d(np.asarray(node_values, dtype=float).T).T
    s = g.max(axis=0)
    safe = np.where(s == 0.0, 1.0, s)
    z = g / safe
    np.power(z, p, out=z)
    integral = np.trapezoid(z, dx=dt, axis=0)
    out = safe * integral ** (1.0 / p)
    out = np.where(s == 0.0, 0.0, out)
    return out if np.asarray(node_values).ndim > 1 else float(out[0])


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
    each norm is the trapezoid rule on that sweep's nodes.  No convergence
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
        refine = math.ceil(QUAD_NODES / f.n_cells)
        h = f.time_step / refine
        e_h, p_h = _propagator_pair(a, h)
        nyt, nay, nf = _kernels.lti_norm_scan(a, e_h, p_h, f.values, refine)
        for i, p in enumerate(p_list):
            quot = (lp_time_norm(nyt, h, p) + lp_time_norm(nay, h, p)) / lp_time_norm(nf, h, p)
            best[i] = max(best[i], float(quot.max()))
    return best


@dataclass(frozen=True)
class MaxRegReport:
    """Horizon scan of the regularity-constant estimate."""

    p: float
    t_grid: tuple
    c_estimates: tuple
    imag_axis_sup: float
    verdict: str


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


def imaginary_axis_bound(cl):
    """sup over +/- t of ||t R(it, A)|| = |t| / sigma_min(it I - A), the
    uniform-boundedness surrogate.

    Sampled at 60 log-spaced t in [1e-3, 1e3], both signs: 120 points, one
    singular-value computation each and no inverse formed.  ``inf`` when an
    eigenvalue lies on or right of the imaginary axis.
    """
    a = operator_matrix(cl)
    if np.max(la.eigvals(a).real) >= 0:
        return np.inf
    eye = np.eye(a.shape[0])
    sup = 0.0
    for t in np.logspace(-3.0, 3.0, 60):
        for s in (t, -t):
            sup = max(sup, abs(s) / la.svdvals(1j * s * eye - a)[-1])
    return float(sup)


def plateau_scan_multi(cl, p_list, t_grid, forcing_sets, workers=1):
    """Horizon scans for several exponents sharing one trajectory sweep per T.

    Each horizon's family is its forcing set plus the EigenModes of ``cl``,
    taken from one eigendecomposition for the whole scan.  Returns one
    MaxRegReport per exponent.  verdict ``plateau``: the last two
    estimates differ by < PLATEAU_RTOL relative; ``growth``: log C increases
    by more than 1 between every pair of consecutive horizons; anything in
    between is ``indeterminate``.  ``workers`` > 1 fans the horizon sweep over threads
    (each task reads only immutable inputs).
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

    def one(pair):
        t, fs = pair
        return maxreg_constants_multi(cl, p_list, t, [*fs, modes])

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            table = np.array(list(pool.map(one, zip(t_grid, forcing_sets))))
    else:
        table = np.array([one(pair) for pair in zip(t_grid, forcing_sets)])
    imag_sup = imaginary_axis_bound(cl)
    return [MaxRegReport(
        p=p,
        t_grid=tuple(t_grid),
        c_estimates=tuple(float(c) for c in table[:, i]),
        imag_axis_sup=imag_sup,
        verdict=_verdict(table[:, i]),
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
            rows.append((model, mode, rep.p, t, c, rep.imag_axis_sup, rep.verdict))
    return rows


def verify_rows(reports):
    """verify.csv rows (check, value, threshold, status) of a regularity scan:
    ``imag_axis_sup``, finite unless the loop is unstable, then per report a
    ``plateau_p=<p>`` row on the longest horizon that passes on ``plateau``."""
    sup = reports[0].imag_axis_sup
    rows = [("imag_axis_sup", sup, np.inf, "PASS" if np.isfinite(sup) else "FAIL")]
    for rep in reports:
        rows.append((f"plateau_p={rep.p:g}", rep.c_estimates[-1], PLATEAU_RTOL,
                     "PASS" if rep.verdict == "plateau" else "FAIL"))
    return rows
