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

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from . import synthesis
from .errors import (
    ConfigError,
    RankCheckFailure,
    ResonanceError,
    SynthesisError,
    UsageError,
)
from .operators import (
    GreenMap,
    Operator,
    compose_closed_loop,
    decay_estimate,
    real_power,
    spectral_abscissa,
    spectral_norm,
    spectrum,
    translate_to_positive,
)


def check_window(omega):
    """The control window ``[model] omega`` must be two values 0 < a < b < 1."""
    if not (len(omega) == 2 and 0.0 < omega[0] < omega[1] < 1.0):
        raise ConfigError(f"[model] omega = {tuple(omega)}: need two values a < b with "
                          "(a, b) a strict subinterval of (0,1)")


@dataclass(frozen=True)
class HeatConfig:
    """Discretization and model parameters for the heat example.

    The methods are the CLI's model protocol; the keyword arguments of
    ``synthesize`` are the ``[synthesis]`` keys the model reads, and ``verify``
    returns the model's own verify.csv rows; the CLI adds the identity rows
    before them and the regularity-scan rows after them, for every model.
    """

    n: int = 64
    c2: float = 16.0
    advection_b: float = 0.0
    omega: tuple = (0.2, 0.4)
    q: float = 2.0
    epsilon: float = 0.01

    def __post_init__(self):
        if self.n < 8:
            raise ConfigError(f"need at least 8 interior nodes, got {self.n}")
        check_window(self.omega)
        if not (1.0 < self.q < np.inf):
            raise ConfigError(f"q must lie in (1, inf), got {self.q}")
        if not (0.0 < self.epsilon < 1.0 / (2.0 * self.q)):
            raise ConfigError(
                f"epsilon must lie in (0, 1/(2q)) = (0, {1.0 / (2.0 * self.q):g})")
        if self.c2 > 0:
            c = np.sqrt(self.c2)
            k = int(round(c / np.pi))
            if k >= 1 and abs(c - k * np.pi) < 1e-3:
                raise ResonanceError(
                    f"c = {c:g} within 1e-3 of {k}*pi: Dirichlet map would resonate")

    @property
    def h(self):
        return 1.0 / (self.n + 1)

    @property
    def gamma(self):
        return 1.0 / (2.0 * self.q) - self.epsilon

    def nodes(self):
        return np.linspace(self.h, 1.0 - self.h, self.n)

    def operator(self):
        return build_heat_operator(self)

    def lifting(self):
        return build_dirichlet_map(self)

    def synthesize(self, mode="spectral", targets=None):
        """Synthesize and compose: (loop, matrices to write, mode, info)."""
        if mode not in ("spectral", "localized"):
            raise ConfigError(f"[synthesis] mode = {mode!r}: expected spectral | localized")
        law, info = synthesize_heat_feedback(self, mode=mode, targets=targets)
        loop = closed_loop_heat(self, law)
        return loop, {"feedback_matrix": loop.feedback_matrix()}, mode, info

    def verify(self, loop):
        """The model's verification rows: spectral abscissa and decay rate."""
        return verify_stabilization(loop).summary_rows()


def laplacian(n):
    """Second-order centered FD Laplacian with homogeneous Dirichlet rows."""
    h = 1.0 / (n + 1)
    m = (np.diag(np.full(n - 1, 1.0), -1)
         + np.diag(np.full(n, -2.0))
         + np.diag(np.full(n - 1, 1.0), 1)) / h**2
    return m


def first_difference(n):
    """Centered first difference (the advection stencil)."""
    h = 1.0 / (n + 1)
    return (np.diag(np.full(n - 1, 1.0), 1) - np.diag(np.full(n - 1, 1.0), -1)) / (2.0 * h)


def heat_split(cfg):
    """Generator split: diffusion part and the lower-order perturbation.

    Returns (generator, perturbation): the pure Laplacian (whose sign-flip is
    positive definite) and c^2 I + b D1.  Their sum is the full model operator.
    """
    gen = Operator(laplacian(cfg.n), label="diffusion")
    pert = Operator(cfg.c2 * np.eye(cfg.n) + cfg.advection_b * first_difference(cfg.n),
                    label="translation+advection")
    return gen, pert


def build_heat_operator(cfg):
    """Full model operator: Laplacian + c^2 I + advection."""
    gen, pert = heat_split(cfg)
    return Operator(gen.entries + pert.entries, label="heat operator")


def fd_eigenvalues(cfg):
    """Closed-form eigenvalues of the advection-free discrete operator."""
    k = np.arange(1, cfg.n + 1)
    return cfg.c2 - (4.0 / cfg.h**2) * np.sin(k * np.pi * cfg.h / 2.0) ** 2


def dirichlet_lift(elliptic, edge, name):
    """Solve the interior problem ``elliptic @ cols = rhs`` of a boundary lifting.

    Column 0 (1) of ``rhs`` carries the stencil weight ``edge`` of a unit
    boundary value at x = 0 (x = 1) in the first (last) row.  A numerically
    singular operator (resonant translation) or a relative solve residual
    above 1e-10 raises ResonanceError naming ``name``.
    """
    rhs = np.zeros((elliptic.shape[0], 2))
    rhs[0, 0] = edge
    rhs[-1, 1] = edge
    sv = la.svdvals(elliptic)
    if sv[-1] <= 1e-9 * sv[0]:
        raise ResonanceError(f"{name} is numerically singular")
    cols = la.solve(elliptic, rhs)
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
    elliptic = laplacian(cfg.n) + cfg.c2 * np.eye(cfg.n)
    cols = dirichlet_lift(elliptic, -1.0 / cfg.h**2,
                          f"translated elliptic operator (c2 = {cfg.c2:g})")
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
    """Boolean window mask over the interior nodes and trapezoid weights on it."""
    mask = window_mask(cfg)
    w = np.zeros(cfg.n)
    idx = np.nonzero(mask)[0]
    w[idx] = cfg.h
    w[idx[0]] = cfg.h / 2.0
    w[idx[-1]] = cfg.h / 2.0
    return mask, w


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
        op = build_heat_operator(sub)
        d = build_dirichlet_map(sub)
        _, hat = translate_to_positive(op)
        sp = spectrum(hat)
        for g in gamma_list:
            if g == 0.0:
                powered = d.entries
            else:
                powered = real_power(hat, g, spectral=sp).entries @ d.entries
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
        a_pos = -laplacian(int(n))
        w, v = la.eigh(a_pos)
        inv_half = (v * w**-0.5) @ v.T
        ao = cfg.advection_b * first_difference(int(n))
        rows.append((int(n), spectral_norm(ao @ inv_half)))
    return rows


def closed_loop_heat(cfg, feedback):
    """Closed loop (diffusion + translation + advection)(I - D F), B = 0."""
    gen, pert = heat_split(cfg)
    op = Operator(gen.entries + pert.entries, label="heat operator")
    d = build_dirichlet_map(cfg)
    return compose_closed_loop(op, d, feedback, interior_B=None,
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
    """Full synthesis pipeline for the heat model.

    Spectral mode places the requested poles exactly (the law factors through
    the unstable projection).  Localized mode cannot promise placement: the
    window-masked observation spills onto stable modes, so the law is built at
    the requested targets, the closed-loop abscissa checked by direct
    eigensolve, and the effective targets doubled until the loop is stable
    (synthesis failure after 7 doublings).  Returns (law, info) with the
    spectral data, reduced pair, targets actually used and the achieved
    reduced spectrum.
    """
    op = build_heat_operator(cfg)
    d = build_dirichlet_map(cfg)
    sp = spectrum(op)
    try:
        mask, wts = omega_mask_weights(cfg)
    except ConfigError as exc:
        if mode == "localized":
            raise RankCheckFailure(
                f"observation window is degenerate (zero margin): {exc}") from exc
        mask, wts = None, None
    if sp.unstable_count == 0:
        law = synthesis.FeedbackLaw.zero(2, cfg.n)
        return law, {"spectral": sp, "reduced": None, "targets": np.array([]),
                     "achieved": np.array([])}
    rp = synthesis.reduce(sp, op, d, omega_weights=wts if mode == "localized" else None)
    synthesis.require_rank(rp)
    k = synthesis.choose_K(sp)
    profiles = np.eye(2)[:, :k]
    if targets is None:
        targets = default_targets(sp)
    targets = np.asarray(targets, dtype=complex)
    b_eff = rp.b_matrix @ profiles

    def build(eff_targets):
        gain = synthesis.place_poles(rp, eff_targets, input_matrix=b_eff)
        law = synthesis.build_feedback(
            rp, gain, mode, sp,
            omega_mask=mask if mode == "localized" else None,
            boundary_profiles=profiles,
            omega_weights=wts if mode == "localized" else None)
        return gain, law

    if mode == "spectral":
        gain, law = build(targets)
        used = targets
    else:
        used = None
        for attempt in range(8):
            trial = targets * (2.0 ** attempt)
            gain, law = build(trial)
            closed = op.entries @ (np.eye(cfg.n) - d.entries @ law.as_matrix)
            if np.max(la.eigvals(closed).real) < 0.0:
                used = trial
                break
        if used is None:
            raise SynthesisError(
                "localized synthesis failed to reach abscissa < 0 "
                f"after 7 target deepenings (window {cfg.omega})")
    achieved = la.eigvals(rp.lambda_matrix - b_eff @ gain)
    return law, {"spectral": sp, "reduced": rp, "targets": used,
                 "achieved": achieved}


@dataclass(frozen=True)
class VerificationReport:
    """PASS/FAIL bundle over named sub-checks: {name: (ok, value, threshold)}."""

    checks: dict

    @property
    def failing(self):
        return tuple(name for name, (ok, _, _) in self.checks.items() if not ok)

    @property
    def passed(self):
        return not self.failing

    def summary_rows(self):
        return [(name, value, threshold, "PASS" if ok else "FAIL")
                for name, (ok, value, threshold) in self.checks.items()]


def verify_stabilization(cl):
    """Spectral abscissa and decay-rate checks of the heat loop ``cl``.

    PASS requires a negative spectral abscissa and a positive decay rate
    fitted on t = 1, 1.5, ..., 10.
    """
    checks = {}
    alpha = spectral_abscissa(cl.composed)
    checks["spectral_abscissa"] = (alpha < 0.0, alpha, 0.0)
    if alpha < 0.0:
        _, delta = decay_estimate(cl.composed, np.linspace(1.0, 10.0, 19))
        checks["decay_rate"] = (delta > 0.0, delta, 0.0)
    else:
        checks["decay_rate"] = (False, np.nan, np.nan)
    return VerificationReport(checks)
