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
    StepResolutionError,
    UsageError,
)
from .operators import ClosedLoop, Operator, resolvent, spectral_norm

CSV_HEADER = "model,mode,p,T,C_estimate,imag_sup,verdict"


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
    kind: str = "constant"

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
    return ForcingSignal(vals, horizon / n_cells,
                         kind=f"piecewise_constant_random(seed={seed})")


def constant_forcing(vector, horizon):
    v = np.asarray(vector)
    return ForcingSignal(v[None, :], horizon, kind="constant")


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
        out.append(ForcingSignal(v[None, :], horizon, kind=f"single_mode({k})"))
    return out


def build_forcing_set(op, horizon, n_random=32, seed=0, n_cells=2000, include_modes=True):
    """Default estimation family: seeded random piecewise forcings + all modes."""
    m = operator_matrix(op)
    dim = m.shape[0]
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_cells, dim, n_random))
    step = horizon / n_cells
    out = [ForcingSignal(base[:, :, j], step,
                         kind=f"piecewise_constant_random(seed={seed},index={j})")
           for j in range(n_random)]
    if include_modes:
        out.extend(single_mode_forcings(op, horizon))
    return out


def build_forcing_grid(op, t_grid, n_random=32, seed=0, n_cells_max=2000, include_modes=True):
    """Nested forcing sets over a horizon grid.

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
    modes = single_mode_forcings(op, 1.0) if include_modes else []
    sets = []
    for t in t_grid:
        cells = max(1, int(round(n_cells_max * t / t_max)))
        fs = [ForcingSignal(base[:cells, :, j], t / cells,
                            kind=f"piecewise_constant_random(seed={seed},index={j})")
              for j in range(n_random)]
        fs.extend(ForcingSignal(f.values, t, kind=f.kind) for f in modes)
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


def _strict_step_guard(a, step):
    lam_max = float(np.max(np.abs(la.eigvals(a))))
    required = 0.1 / lam_max if lam_max > 0 else np.inf
    if step > required:
        raise StepResolutionError(
            f"forcing step {step:g} does not resolve the fastest mode; "
            f"required step <= {required:g}", required_step=required)


def solution_map(cl, forcing, refine=1, strict_step=False):
    """Trajectory of dy/dt = A y + f, y(0) = 0, exactly per forcing cell.

    Returns (t_nodes, Y) with Y[k] the state at node k; ``refine`` subdivides
    each forcing cell for denser output without changing the (exact) values
    at cell boundaries.  With ``strict_step`` the forcing step must resolve
    the fastest closed-loop mode (step <= 0.1/|lambda|_max); the integrator
    itself is exact for this forcing class at any step.
    """
    a = operator_matrix(cl)
    if forcing.dim != a.shape[0]:
        raise DimensionError(
            f"forcing dimension {forcing.dim} != state dimension {a.shape[0]}")
    if refine < 1:
        raise UsageError("refine must be >= 1")
    if strict_step:
        _strict_step_guard(a, forcing.time_step)
    h = forcing.time_step / refine
    e, p = _propagator_pair(a, h)
    vals = forcing.values
    if np.iscomplexobj(vals) and not np.iscomplexobj(e):
        e = e.astype(complex)
        p = p.astype(complex)
    y = _kernels.lti_propagate(e, p, vals, refine)
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


def _group_scan(a, forcings, node_target):
    """Nodal norm scan for a forcing family, batched by cell structure.

    Yields (forcing, dt, ny, nyt, nay, nf) with at least ``node_target``
    integration nodes per forcing.
    """
    groups = {}
    for i, f in enumerate(forcings):
        key = (f.n_cells, round(f.time_step, 15))
        groups.setdefault(key, []).append(i)
    results = [None] * len(forcings)
    for (n_cells, step), idx in groups.items():
        refine = max(1, int(math.ceil(node_target / n_cells)))
        h = step / refine
        batch = np.stack([forcings[i].values for i in idx], axis=2)
        if np.iscomplexobj(batch):
            batch = batch.astype(complex)
        e, p = _propagator_pair(a, h)
        ab = a
        if np.iscomplexobj(batch) and not np.iscomplexobj(e):
            e, p, ab = e.astype(complex), p.astype(complex), a.astype(complex)
        ny, nyt, nay, nf = _kernels.lti_norm_scan(ab, e, p, batch, refine)
        for col, i in enumerate(idx):
            results[i] = (h, ny[:, col], nyt[:, col], nay[:, col], nf[:, col])
    return results


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


def maxreg_constants_multi(cl, p_list, horizon, forcing_set, quad_nodes=2000,
                           quad_rtol=0.005, max_doublings=2):
    """C_{p,T} estimates for several exponents from one trajectory sweep.

    Largest (||y_t||_p + ||A y||_p)/||f||_p over the forcing family, with the
    quadrature node count doubled until every estimate moves less than
    ``quad_rtol`` (relative) or ``max_doublings`` is reached; transient
    boundary layers converge slowly, so the cap bounds the cost while the
    trend over horizons stays unaffected.
    """
    p_list = [float(p) for p in p_list]
    _validate_family(p_list, horizon, forcing_set)
    a = operator_matrix(cl)
    prev = None
    nodes = quad_nodes
    for _ in range(max_doublings + 1):
        best = np.zeros(len(p_list))
        for h, _ny, nyt, nay, nf in _group_scan(a, forcing_set, nodes):
            for i, p in enumerate(p_list):
                denom = lp_time_norm(nf, h, p)
                quot = (lp_time_norm(nyt, h, p) + lp_time_norm(nay, h, p)) / denom
                best[i] = max(best[i], float(quot))
        if prev is not None and np.all(np.abs(best - prev) <= quad_rtol * np.maximum(prev, 1e-300)):
            return best
        prev = best
        nodes *= 2
    return prev


def maxreg_constant(cl, p, horizon, forcing_set, quad_nodes=2000,
                    quad_rtol=0.005, max_doublings=2):
    """Lower-bound estimate of the regularity constant C_{p,T} (single p)."""
    return float(maxreg_constants_multi(cl, [p], horizon, forcing_set,
                                        quad_nodes, quad_rtol, max_doublings)[0])


@dataclass(frozen=True)
class MaxRegReport:
    """Horizon scan of the regularity-constant estimate."""

    p: float
    t_grid: tuple
    c_estimates: tuple
    imag_axis_sup: float
    duality_gap: float
    verdict: str


def _verdict(c_estimates, plateau_rtol=0.05, growth_logstep=1.0):
    """plateau: settled (< 5% last move) or monotone nonincreasing (bounded);
    growth: log C climbing by more than 1 per horizon step."""
    c = np.asarray(c_estimates, dtype=float)
    rel = abs(c[-1] - c[-2]) / max(abs(c[-2]), 1e-300)
    if rel < plateau_rtol:
        return "plateau"
    logs = np.diff(np.log(np.maximum(c, 1e-300)))
    if np.all(logs > growth_logstep):
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


def plateau_scan_multi(cl, p_list, t_grid, forcing_sets, quad_nodes=2000,
                       quad_rtol=0.005, max_doublings=2, workers=1):
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
        return maxreg_constants_multi(cl, p_list, t, fs,
                                      quad_nodes, quad_rtol, max_doublings)

    if workers and workers > 1:
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
        duality_gap=float("nan"),
        verdict=_verdict(table[:, i]),
    ) for i, p in enumerate(p_list)]


def plateau_scan(cl, p, t_grid, forcing_sets, quad_nodes=2000,
                 quad_rtol=0.005, max_doublings=2):
    """Horizon scan of C_{p,T} for one exponent; see plateau_scan_multi."""
    return plateau_scan_multi(cl, [p], t_grid, forcing_sets,
                              quad_nodes, quad_rtol, max_doublings)[0]


def dual_exponent(p):
    if not (1.0 < p < np.inf):
        raise UsageError(f"exponent p must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def conjugated_forcings(forcing_sets):
    return [[ForcingSignal(np.conj(f.values), f.time_step, kind=f.kind) for f in fs]
            for fs in forcing_sets]


def duality_check(cl, p, t_grid, forcing_sets, quad_nodes=2000,
                  quad_rtol=0.005, max_doublings=2):
    """Regularity gap between the operator at p and its adjoint at p'.

    Runs the horizon scan for the closed loop at exponent p and for its
    conjugate transpose at the dual exponent with conjugated forcings, demands
    matching verdicts and returns |log C - log C*| at the longest horizon.
    """
    rep = plateau_scan(cl, p, t_grid, forcing_sets, quad_nodes, quad_rtol, max_doublings)
    a = operator_matrix(cl)
    adj = Operator(a.conj().T, label="adjoint")
    rep_adj = plateau_scan(adj, dual_exponent(p), t_grid,
                           conjugated_forcings(forcing_sets),
                           quad_nodes, quad_rtol, max_doublings)
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
