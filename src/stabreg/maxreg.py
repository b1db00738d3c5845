"""Maximal L^p-regularity diagnostics for closed-loop operators.

The solution map is the variation-of-constants convolution driven by
piecewise-constant-in-time forcings, integrated exactly per cell with the
augmented-matrix exponential.  The regularity constant estimate is the
largest quotient (||y_t||_p + ||A y||_p) / ||f||_p over a finite forcing
family (a lower bound on the true constant; its trend over growing horizons
is the verified content).  y_t is evaluated algebraically as A y + f, with
the forcing value attached to each node taken from the cell ending there
(left limit), which keeps the trapezoid quadrature clear of the stiff
transient spikes at cell openings.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import _kernels
from .errors import (
    DimensionError,
    IdentityViolationError,
    SingularityError,
    UsageError,
)
from .operators import ClosedLoop, Operator, resolvent, spectral_norm

CSV_HEADER = "model,mode,p,T,C_estimate,imag_sup,verdict"

# Quadrature policy of the regularity estimates: level L takes
# ceil(QUAD_NODES / n_cells) * 2**L substeps per forcing cell; the first level
# whose estimates all move by less than QUAD_RTOL (relative) from the level
# before is reported, and level QUAD_MAX_DOUBLINGS is the cap.
QUAD_NODES = 2000
QUAD_RTOL = 0.005
QUAD_MAX_DOUBLINGS = 2


def operator_matrix(x):
    """Entries of a ClosedLoop / Operator / plain array."""
    if isinstance(x, ClosedLoop):
        return x.composed.entries
    if isinstance(x, Operator):
        return x.entries
    return np.atleast_2d(np.asarray(x))


@dataclass(frozen=True)
class ForcingSignal:
    """Piecewise-constant-in-time forcing: one state-dim value per time cell."""

    values: np.ndarray
    time_step: float

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values))
        if v.ndim != 2:
            raise DimensionError("forcing values must be (n_cells, state_dim)")
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
    def horizon(self):
        return self.n_cells * self.time_step


def piecewise_random_forcing(dim, horizon, n_cells, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n_cells, dim))
    return ForcingSignal(vals, horizon / n_cells)


def constant_forcing(vector, horizon):
    v = np.asarray(vector)
    return ForcingSignal(v[None, :], horizon)


def single_mode_forcings(op, horizon):
    """One constant-in-time forcing per eigenmode (real part, normalized)."""
    m = operator_matrix(op)
    _, vr = la.eig(m)
    out = []
    for k in range(m.shape[0]):
        v = vr[:, k].real
        if np.linalg.norm(v) <= 1e-12:
            v = vr[:, k].imag
        v = v / np.linalg.norm(v)
        out.append(ForcingSignal(v[None, :], horizon))
    return out


def build_forcing_grid(op, t_grid, n_random, seed, n_cells_max):
    """Nested forcing sets over a horizon grid: the random forcings, then one
    constant forcing per eigenmode.

    Random forcings share one cell width (longest horizon / n_cells_max) and
    shorter horizons take prefixes, so the scan compares the same underlying
    signals when the horizon grows.
    """
    t_grid = [float(t) for t in t_grid]
    t_max = max(t_grid)
    m = operator_matrix(op)
    dim = m.shape[0]
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_cells_max, dim, n_random))
    modes = single_mode_forcings(op, 1.0)
    sets = []
    for t in t_grid:
        cells = max(1, int(round(n_cells_max * t / t_max)))
        fs = [ForcingSignal(base[:cells, :, j], t / cells) for j in range(n_random)]
        fs.extend(ForcingSignal(f.values, t) for f in modes)
        sets.append(fs)
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

    Returns (t_nodes, Y) with Y[k] the state at node k; ``refine`` subdivides
    each forcing cell for denser output without changing the (exact) values
    at cell boundaries.  The integrator is exact for this forcing class at
    any step, so no step-size condition applies.
    """
    a = operator_matrix(cl)
    if forcing.dim != a.shape[0]:
        raise DimensionError(
            f"forcing dimension {forcing.dim} != state dimension {a.shape[0]}")
    if refine < 1:
        raise UsageError("refine must be >= 1")
    h = forcing.time_step / refine
    e, p = _propagator_pair(a, h)
    y = _kernels.lti_propagate(e, p, forcing.values, refine)
    t = np.arange(y.shape[0]) * h
    return t, y


def lp_time_norm(node_values, dt, p):
    """L^p time norm by trapezoid on |.|^p of nodal values (overflow-safe).

    ``node_values`` is (n_nodes,) or (n_nodes, nb); returns scalar or (nb,).
    """
    g = np.atleast_2d(np.asarray(node_values, dtype=float).T).T
    s = g.max(axis=0)
    safe = np.where(s == 0.0, 1.0, s)
    z = (g / safe) ** p
    integral = np.trapezoid(z, dx=dt, axis=0)
    out = safe * integral ** (1.0 / p)
    out = np.where(s == 0.0, 0.0, out)
    return out if np.asarray(node_values).ndim > 1 else float(out[0])


def _finest_sweeps(a, forcings):
    """Nodal norm sweeps at the finest quadrature level, one per cell structure.

    Forcings sharing (n_cells, time_step) form one batch and one kernel call
    with ``ceil(QUAD_NODES / n_cells) * 2**QUAD_MAX_DOUBLINGS`` substeps per
    cell.  Yields one (h, nyt, nay, nf) per batch, the norms of shape
    (nodes, batch size), so one batch's sweep is held at a time.
    """
    groups = {}
    for f in forcings:
        key = (f.n_cells, round(f.time_step, 15))
        groups.setdefault(key, []).append(f.values)
    for (n_cells, step), values in groups.items():
        refine = math.ceil(QUAD_NODES / n_cells) * 2 ** QUAD_MAX_DOUBLINGS
        h = step / refine
        e, p = _propagator_pair(a, h)
        yield (h, *_kernels.lti_norm_scan(a, e, p, np.stack(values, axis=2), refine))


def _validate_family(p_list, horizon, forcing_set):
    for p in p_list:
        if not (1.0 < p < np.inf):
            raise UsageError(f"exponent p must lie in (1, inf), got {p}")
    if not forcing_set:
        raise UsageError("forcing set must be nonempty")
    for f in forcing_set:
        if abs(f.horizon - horizon) > 1e-9 * max(horizon, 1.0):
            raise UsageError(
                f"forcing horizon {f.horizon:g} does not match requested T = {horizon:g}")
        if np.linalg.norm(f.values) == 0.0:
            raise UsageError("zero-norm forcing in the estimation family")


def maxreg_constants_multi(cl, p_list, horizon, forcing_set):
    """C_{p,T} estimates for several exponents, one sweep per forcing group.

    Largest (||y_t||_p + ||A y||_p)/||f||_p over the forcing family.  Each
    cell-structure group is swept once, at the finest quadrature level D =
    QUAD_MAX_DOUBLINGS: ``ceil(QUAD_NODES / n_cells) * 2**L`` substeps per cell
    at level L, so every coarser level is a sub-grid of that sweep and level L
    reads every ``2**(D - L)``-th node.  Levels are taken in turn from L = 0
    until every estimate moves less than QUAD_RTOL (relative) from the level
    before.  Transient boundary layers converge slowly, so the cap bounds the
    cost while the trend over horizons stays unaffected; when the cap is
    reached, the last estimate is returned without a flag.
    """
    p_list = [float(p) for p in p_list]
    _validate_family(p_list, horizon, forcing_set)
    best = np.zeros((QUAD_MAX_DOUBLINGS + 1, len(p_list)))    # level x exponent
    for h, nyt, nay, nf in _finest_sweeps(operator_matrix(cl), forcing_set):
        for level in range(QUAD_MAX_DOUBLINGS + 1):
            stride = 2 ** (QUAD_MAX_DOUBLINGS - level)
            dx = h * stride
            for i, p in enumerate(p_list):
                quot = ((lp_time_norm(nyt[::stride], dx, p) + lp_time_norm(nay[::stride], dx, p))
                        / lp_time_norm(nf[::stride], dx, p))
                best[level, i] = max(best[level, i], float(quot.max()))
    for prev, est in zip(best, best[1:]):
        if np.all(np.abs(est - prev) <= QUAD_RTOL * np.maximum(prev, 1e-300)):
            return est
    return best[-1]


@dataclass(frozen=True)
class MaxRegReport:
    """Horizon scan of the regularity-constant estimate."""

    p: float
    t_grid: tuple
    c_estimates: tuple
    imag_axis_sup: float
    verdict: str


def _verdict(c_estimates):
    """plateau: settled (< 5% last move) or monotone nonincreasing (bounded);
    growth: log C climbing by more than 1 per horizon step."""
    c = np.asarray(c_estimates, dtype=float)
    rel = abs(c[-1] - c[-2]) / max(abs(c[-2]), 1e-300)
    if rel < 0.05:
        return "plateau"
    logs = np.diff(np.log(np.maximum(c, 1e-300)))
    if np.all(logs > 1.0):
        return "growth"
    if np.all(np.diff(c) <= 1e-12 * np.abs(c[:-1])):
        return "plateau"
    return "indeterminate"


def imaginary_axis_bound(cl, t_grid=None):
    """sup over +/- t of ||t R(it, A)||, the uniform-boundedness surrogate.

    Finite exactly when the spectral abscissa is negative; an eigenvalue on or
    right of the imaginary axis raises a singularity error naming the grid
    location it obstructs.  The grid must be log-spaced over >= 6 decades.
    """
    a = operator_matrix(cl)
    if t_grid is None:
        t_grid = np.logspace(-3.0, 3.0, 60)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise UsageError("imaginary-axis grid must be strictly positive (both signs are scanned)")
    if np.log10(t_grid.max() / t_grid.min()) < 6.0 - 1e-9:
        raise UsageError("imaginary-axis grid must span at least 6 decades")
    evs = la.eigvals(a)
    worst = int(np.argmax(evs.real))
    if evs[worst].real >= 0:
        raise SingularityError(
            "imaginary axis is not in the resolvent set: eigenvalue "
            f"{evs[worst]} obstructs it at t near {evs[worst].imag:g}")
    sup = 0.0
    for t in t_grid:
        for s in (t, -t):
            r = resolvent(Operator(a), 1j * s, eigenvalues=evs).entries
            sup = max(sup, abs(s) * spectral_norm(r))
    return float(sup)


def plateau_scan_multi(cl, p_list, t_grid, forcing_sets, workers=1):
    """Horizon scans for several exponents sharing one trajectory sweep per T.

    Returns one MaxRegReport per exponent.  verdict ``plateau``: the last two
    estimates differ by < 5% relative; ``growth``: log C increases by more
    than 1 between every pair of consecutive horizons; anything in between is
    ``indeterminate``.  ``workers`` > 1 fans the horizon sweep over threads
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

    def one(pair):
        t, fs = pair
        return maxreg_constants_multi(cl, p_list, t, fs)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            table = np.array(list(pool.map(one, zip(t_grid, forcing_sets))))
    else:
        table = np.array([one(pair) for pair in zip(t_grid, forcing_sets)])
    a = operator_matrix(cl)
    if np.max(la.eigvals(a).real) < 0:
        imag_sup = imaginary_axis_bound(cl)
    else:
        imag_sup = np.inf
    return [MaxRegReport(
        p=p,
        t_grid=tuple(t_grid),
        c_estimates=tuple(float(c) for c in table[:, i]),
        imag_axis_sup=float(imag_sup),
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
