"""1-D translated heat model with Dirichlet boundary control.

Finite differences on (0,1): centered Laplacian on n interior nodes plus a
destabilizing translation c^2 and an optional first-order advection term (the
bounded-relative perturbation of the abstract setting).  The discrete
Dirichlet map lifts boundary values through the same translated elliptic
operator, carrying the exponent gamma = 1/(2q) - eps.  Grid studies certify
the exponent threshold behaviour of the lifting and the square-root
boundedness of the advection; the closed loop is assembled exactly as
(diffusion + translation + advection) (I - D F).
"""

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import synthesis
from .errors import (
    ConfigError,
    RankCheckFailure,
    ResonanceError,
    UsageError,
)
from .operators import (
    GreenMap,
    Operator,
    apply_power,
    compose_closed_loop,
    decay_estimate,
    real_power,
    spectral_abscissa,
    spectral_norm,
    translate_to_positive,
)


class GridModel:
    """The hypotheses that the heat and coupled models share: n >= 8 interior
    nodes of a uniform grid on (0,1), a control window ``omega`` strictly
    inside (0,1), 1 < q < inf, 0 < eps < 1/(2q), a Dirichlet lifting with
    exponent gamma = 1/(2q) - eps and a translation that does not resonate.
    It declares no dataclass field, so the models' fields are their [model] keys.
    """

    def _check(self):
        """Every float field finite, then the grid, window, q and eps rules."""
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} = {getattr(self, f.name)}: must be finite")
        if self.n < 8:
            raise ConfigError(f"need at least 8 interior nodes, got {self.n}")
        if not (len(self.omega) == 2 and 0.0 < self.omega[0] < self.omega[1] < 1.0):
            raise ConfigError(f"[model] omega = {tuple(self.omega)}: need two values a < b "
                              "with (a, b) a strict subinterval of (0,1)")
        if not (1.0 < self.q < np.inf):
            raise ConfigError(f"q must lie in (1, inf), got {self.q}")
        if not (0.0 < self.epsilon < 1.0 / (2.0 * self.q)):
            raise ConfigError(
                f"epsilon must lie in (0, 1/(2q)) = (0, {1.0 / (2.0 * self.q):g})")

    @staticmethod
    def _check_resonance(x, name):
        """The continuum test: c = sqrt(x) within 1e-3 of k pi, k >= 1, raises
        ResonanceError naming the translation ``name``."""
        if x > 0:
            c = np.sqrt(x)
            k = int(round(c / np.pi))
            if k >= 1 and abs(c - k * np.pi) < 1e-3:
                raise ResonanceError(
                    f"{name} = {c:g} within 1e-3 of {k}*pi: Dirichlet map would resonate")

    @property
    def h(self):
        return 1.0 / (self.n + 1)

    @property
    def gamma(self):
        return 1.0 / (2.0 * self.q) - self.epsilon

    def nodes(self):
        return np.linspace(self.h, 1.0 - self.h, self.n)

    def lift_columns(self, kappa, c2, name):
        """``dirichlet_lift`` through kappa Lap + c2 I, written into one array
        (kappa multiplied in place), with the edge weight -kappa / h^2."""
        elliptic = laplacian(self.n)
        elliptic *= kappa
        elliptic.flat[::self.n + 1] += c2
        return dirichlet_lift(elliptic, -kappa / self.h**2, name)


@dataclass(frozen=True)
class HeatConfig(GridModel):
    """Discretization and model parameters for the heat example.

    The members below are the CLI's model protocol, ``operator`` and
    ``lifting`` built once per config; the keyword arguments of ``synthesize``
    are the ``[synthesis]`` keys the model reads, and ``verify``, given the
    loop and the info that ``synthesize`` returned, gives the model's own
    verify.csv rows; the CLI adds the identity rows before them and the
    regularity-scan rows after them, for every model.
    """

    n: int = 64
    c2: float = 16.0
    advection_b: float = 0.0
    omega: tuple = (0.2, 0.4)
    q: float = 2.0
    epsilon: float = 0.01

    def __post_init__(self):
        self._check()
        self._check_resonance(self.c2, "c")

    @cached_property
    def operator(self):
        return build_heat_operator(self)

    @cached_property
    def lifting(self):
        return build_dirichlet_map(self)

    def synthesize(self, mode="spectral", targets=None):
        """Synthesize and compose: (loop, matrices to write, mode, info)."""
        law, info = synthesize_heat_feedback(self, mode=mode, targets=targets)
        loop = closed_loop_heat(self, law)
        return loop, {"feedback_matrix": loop.feedback_matrix}, mode, info

    def verify(self, loop, info):
        """The model's verification rows: spectral abscissa and decay rate."""
        return verify_stabilization(loop)


def _tridiagonal(n, lower, diagonal, upper, off=0.0):
    """n x n array with ``diagonal`` on its diagonal, ``lower`` and ``upper``
    beside it and ``off`` elsewhere, written into one array."""
    m = np.full((n, n), off)
    m.flat[::n + 1] = diagonal
    m.flat[1::n + 1] = upper
    m.flat[n::n + 1] = lower
    return m


def laplacian(n):
    """Second-order centered FD Laplacian with homogeneous Dirichlet rows."""
    h = 1.0 / (n + 1)
    return _tridiagonal(n, 1.0 / h**2, -2.0 / h**2, 1.0 / h**2)


def first_difference(n):
    """Centered first difference (the advection stencil)."""
    h = 1.0 / (n + 1)
    return _tridiagonal(n, -1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h))


def _lower_order(cfg):
    """(lower, diagonal, upper, off) entries of c^2 I + b D1, each the sum
    c^2 * eye + b * D1 leaves there, signed zeros included."""
    c2, b, step = cfg.c2, cfg.advection_b, 1.0 / (2.0 * cfg.h)
    return c2 * 0.0 + b * -step, c2 * 1.0 + b * 0.0, c2 * 0.0 + b * step, c2 * 0.0 + b * 0.0


def heat_split(cfg):
    """Generator split: diffusion part and the lower-order perturbation.

    Returns (generator, perturbation): the pure Laplacian (whose sign-flip is
    positive definite) and c^2 I + b D1.  Their sum is the full model operator.
    """
    return (Operator(laplacian(cfg.n), label="diffusion"),
            Operator(_tridiagonal(cfg.n, *_lower_order(cfg)), label="translation+advection"))


def build_heat_operator(cfg):
    """Full model operator Laplacian + c^2 I + advection, written into one
    array with the bits of that sum (off the band +0.0 plus a zero is +0.0)."""
    h = cfg.h
    lower, diagonal, upper, _ = _lower_order(cfg)
    return Operator(_tridiagonal(cfg.n, 1.0 / h**2 + lower, -2.0 / h**2 + diagonal,
                                 1.0 / h**2 + upper), label="heat operator")


def fd_eigenvalues(cfg):
    """Closed-form eigenvalues of the advection-free discrete operator."""
    k = np.arange(1, cfg.n + 1)
    return cfg.c2 - (4.0 / cfg.h**2) * np.sin(k * np.pi * cfg.h / 2.0) ** 2


def dirichlet_lift(elliptic, edge, name):
    """Solve the interior problem ``elliptic @ cols = rhs`` of a boundary lifting.

    Column 0 (1) of ``rhs`` carries the stencil weight ``edge`` of a unit
    boundary value at x = 0 (x = 1) in the first (last) row.  A numerically
    singular operator (resonant translation: exact 1-norm condition
    ||E||_1 ||E^-1||_1 of at least 1e9, or an exactly singular E) or a
    relative solve residual above 1e-10 raises ResonanceError naming ``name``.
    """
    rhs = np.zeros((elliptic.shape[0], 2))
    rhs[0, 0] = edge
    rhs[-1, 1] = edge
    try:
        cond = np.linalg.norm(elliptic, 1) * np.linalg.norm(np.linalg.inv(elliptic), 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond < 1e9:
        raise ResonanceError(f"{name} is numerically singular")
    cols = np.linalg.solve(elliptic, rhs)
    resid = np.abs(elliptic @ cols - rhs).max() / np.abs(rhs).max()
    if resid > 1e-10:
        raise ResonanceError(
            f"{name}: lifting solve residual {resid:.3e} exceeds 1e-10")
    return cols


def build_dirichlet_map(cfg):
    """Discrete lifting of boundary values through (Laplacian + c^2).

    Column j solves the homogeneous interior problem with unit boundary value
    at one endpoint; the exponent gamma = 1/(2q) - eps rides along.  A
    resonant translation makes the interior solve (near-)singular and raises.
    """
    cols = cfg.lift_columns(1.0, cfg.c2, f"translated elliptic operator (c2 = {cfg.c2:g})")
    return GreenMap(cols, gamma=cfg.gamma, input_labels=("x=0", "x=1"))


def window_mask(cfg):
    """Boolean mask of the interior nodes in the closed window ``cfg.omega``,
    with 1e-12 of slack so a node that rounding moves off an edge stays in."""
    x = cfg.nodes()
    a, b = cfg.omega
    mask = (x >= a - 1e-12) & (x <= b + 1e-12)
    if not mask.any():
        raise ConfigError(f"window {cfg.omega} contains no grid node at n = {cfg.n}")
    return mask


def omega_mask_weights(cfg):
    """Trapezoid weights of the window over the interior nodes: positive
    exactly on the window's nodes, zero elsewhere."""
    idx = np.nonzero(window_mask(cfg))[0]
    w = np.zeros(cfg.n)
    w[idx] = cfg.h
    w[idx[0]] = cfg.h / 2.0
    w[idx[-1]] = cfg.h / 2.0
    return w


def state_norm_q(v, h, q):
    """Quadrature-weighted discrete L^q norm: (h sum |v|^q)^(1/q)."""
    return float((h * np.sum(np.abs(v) ** q)) ** (1.0 / q))


def map_norm_q(mat, h, q):
    """Induced norm from the boundary q-norm to the h-weighted state q-norm.

    Exact for q = 2 (weighted SVD); for other exponents the 2-dimensional
    boundary sphere is sampled at 64 points per sign pattern (real sign
    patterns suffice for real maps).
    """
    m = np.atleast_2d(np.asarray(mat))
    if q == 2.0:
        return float(np.sqrt(h) * spectral_norm(m))
    if m.shape[1] == 1:
        return state_norm_q(m[:, 0], h, q)
    if m.shape[1] != 2:
        raise UsageError("general-q induced norms implemented for <= 2 boundary inputs")
    best = 0.0
    for t in np.linspace(0.0, 1.0, 64):
        a = t ** (1.0 / q)
        b = (1.0 - t) ** (1.0 / q)
        for sb in (1.0, -1.0):
            g = np.array([a, sb * b])
            best = max(best, state_norm_q(m @ g, h, q))
    return best


def gamma_bound_scan(grids, gamma_list, cfg):
    """||(kI - M)^gamma D|| across grids for each exponent.

    Rows (n, gamma, value) with the q-weighted induced norm; values stay
    grid-stable below the 1/(2q) threshold and blow up above it.
    """
    rows = []
    for n in grids:
        sub = replace(cfg, n=int(n))
        d = build_dirichlet_map(sub)
        _, hat = translate_to_positive(build_heat_operator(sub))
        for g in gamma_list:
            powered = d.entries if g == 0.0 else apply_power(hat, g, d.entries)
            rows.append((int(n), float(g), map_norm_q(powered, sub.h, sub.q)))
    return rows


def h5_bound_scan(grids, cfg):
    """||A_o A^{-1/2}|| across grids for the first-order perturbation.

    A is the sign-flipped Laplacian (positive definite), A_o = b D1; a
    grid-stable value certifies the square-root relative bound.
    """
    if cfg.advection_b == 0.0:
        raise UsageError("square-root bound scan needs a nonzero advection coefficient")
    rows = []
    for n in grids:
        inv_half = real_power(-laplacian(int(n)), -0.5).entries
        ao = cfg.advection_b * first_difference(int(n))
        rows.append((int(n), spectral_norm(ao @ inv_half)))
    return rows


def closed_loop_heat(cfg, feedback):
    """Closed loop (diffusion + translation + advection)(I - D F), B = 0."""
    gen, pert = heat_split(cfg)
    return compose_closed_loop(cfg.operator, cfg.lifting, feedback, interior_B=None,
                               generator_A=gen, perturbation_Ao=pert)


def default_targets(spectral):
    """Stable targets one unit apart, anchored at the first untouched mode."""
    nu = spectral.unstable_count
    if nu == 0:
        return np.array([])
    evs = spectral.eigenvalues
    anchor = abs(evs[nu].real) if nu < evs.shape[0] else 1.0
    return np.array([-anchor - (i + 1) for i in range(nu)], dtype=float)


def synthesize_heat_feedback(cfg, mode="spectral", targets=None):
    """``synthesis.spectral_feedback`` for the heat model: (law, info).

    ``mode`` is the ``[synthesis] mode`` value.  Spectral mode places the
    ``targets`` (default ``default_targets``) exactly; localized mode observes
    on the window ``cfg.omega`` and deepens them until the loop is stable.  A
    window holding no node fails the rank check.
    """
    if mode not in ("spectral", "localized"):
        raise ConfigError(f"[synthesis] mode = {mode!r}: expected spectral | localized")
    wts = None      # window weights: given exactly when the law is localized
    if mode == "localized":
        try:
            wts = omega_mask_weights(cfg)
        except ConfigError as exc:
            raise RankCheckFailure(
                f"observation window is degenerate (zero margin): {exc}") from exc
    sp = cfg.operator.spectral
    law, _, info = synthesis.spectral_feedback(
        sp, cfg.operator, cfg.lifting, default_targets(sp) if targets is None else targets,
        omega_weights=wts)
    return law, info


def check_row(name, ok, value, threshold):
    """One verify.csv row: (name, value, threshold, PASS | FAIL)."""
    return (name, value, threshold, "PASS" if ok else "FAIL")


def verify_stabilization(cl):
    """Spectral abscissa and decay-rate rows of verify.csv for the heat loop ``cl``.

    PASS requires a negative spectral abscissa and a positive decay rate
    fitted on t = 1, 1.5, ..., 10.
    """
    alpha = spectral_abscissa(cl.composed)
    rows = [check_row("spectral_abscissa", alpha < 0.0, alpha, 0.0)]
    if alpha < 0.0:
        _, delta = decay_estimate(cl.composed, np.linspace(1.0, 10.0, 19))
        rows.append(check_row("decay_rate", delta > 0.0, delta, 0.0))
    else:
        rows.append(check_row("decay_rate", False, np.nan, np.nan))
    return rows
