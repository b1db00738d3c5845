"""Coupled two-component diffusion system with boundary + interior control.

Desk-scale block analogue of a fluid/thermal coupling: two 1-D diffusion
equations on (0,1), the fluid component driven by an interior control
supported on a window, the thermal component by Dirichlet boundary control.
The 2n x 2n block operator couples them through a scalar buoyancy injection
(+gamma I into the fluid row) and an equilibrium-gradient multiplication
(into the thermal row).  The closed loop is a ``ClosedLoop``: a diffusion
part acting through (I - D F) plus a bounded collection (advections,
couplings, interior feedback), both retained for reassembly checks.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from . import synthesis
from .errors import ConfigError, ResonanceError
from .heat import (
    VerificationReport,
    check_window,
    dirichlet_lift,
    first_difference,
    laplacian,
    window_mask,
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
)


@dataclass(frozen=True)
class CoupledConfig:
    """Grid, diffusivities, couplings and destabilizing translations.

    ``theta_e_profile`` is the nodal equilibrium-gradient surrogate (a scalar
    broadcasts to a constant profile); ``ye_advect`` multiplies the centered
    first difference in both components.  The methods are the model protocol
    of ``heat.HeatConfig``; ``verify`` returns the coupled checks alone.
    """

    n: int = 48
    nu: float = 1.0
    kappa: float = 1.0
    gamma_buoy: float = 0.1
    theta_e_profile: object = 0.5
    ye_advect: float = 0.0
    c2_f: float = 16.0
    c2_h: float = 16.0
    omega: tuple = (0.25, 0.45)
    q: float = 2.0
    epsilon: float = 0.01

    def __post_init__(self):
        if self.n < 8:
            raise ConfigError(f"need at least 8 interior nodes per component, got {self.n}")
        if self.nu <= 0 or self.kappa <= 0:
            raise ConfigError("diffusivities must be positive")
        check_window(self.omega)
        if not (1.0 < self.q < np.inf):
            raise ConfigError(f"q must lie in (1, inf), got {self.q}")
        if not (0.0 < self.epsilon < 1.0 / (2.0 * self.q)):
            raise ConfigError(f"epsilon must lie in (0, 1/(2q))")
        prof = np.asarray(self.theta_e_profile, dtype=float)
        if prof.ndim not in (0, 1) or (prof.ndim == 1 and prof.shape != (self.n,)):
            raise ConfigError("theta_e_profile must be a scalar or an n-vector")
        if not np.all(np.isfinite(prof)):
            raise ConfigError("theta_e_profile must be finite")
        ratio = self.c2_h / self.kappa
        if ratio > 0:
            c = np.sqrt(ratio)
            k = int(round(c / np.pi))
            if k >= 1 and abs(c - k * np.pi) < 1e-3:
                raise ResonanceError(
                    f"sqrt(c2_h/kappa) = {c:g} within 1e-3 of {k}*pi: thermal map resonates")

    @property
    def h(self):
        return 1.0 / (self.n + 1)

    @property
    def gamma(self):
        return 1.0 / (2.0 * self.q) - self.epsilon

    def nodes(self):
        return np.linspace(self.h, 1.0 - self.h, self.n)

    def theta_vector(self):
        prof = np.asarray(self.theta_e_profile, dtype=float)
        return np.full(self.n, float(prof)) if prof.ndim == 0 else prof.copy()

    def operator(self):
        return build_block_operator(self)

    def lifting(self):
        return build_thermal_dirichlet_map(self)

    def synthesize(self, mode="spectral", targets=None, use_interior=True):
        """Synthesize and compose: (loop, matrices to write, mode, info)."""
        if mode != "spectral":
            raise ConfigError(f"[synthesis] mode = {mode!r}: the coupled law is always spectral")
        f_law, j_law, info = synthesize_coupled_feedback(self, targets=targets,
                                                         use_interior=use_interior)
        loop = compose_coupled_loop(self, f_law, j_law)
        return (loop, {"feedback_matrix": loop.feedback_matrix(),
                       "interior_matrix": j_law.as_matrix}, mode, info)

    def verify(self, loop):
        """The model's verification rows: reassembly, margins, abscissa, decay."""
        return verify_coupled_stabilization(loop, self).summary_rows()


def coupled_split(cfg):
    """(diffusion blocks, bounded part, generator, translations).

    diffusion = blkdiag(nu Lap + c2_f, kappa Lap + c2_h); the bounded part
    collects both advections and the two couplings.  generator + translations
    = diffusion, mirroring the abstract generator split.
    """
    n = cfg.n
    lap = laplacian(n)
    d1 = first_difference(n)
    diff_f = cfg.nu * lap + cfg.c2_f * np.eye(n)
    diff_h = cfg.kappa * lap + cfg.c2_h * np.eye(n)
    ahat = la.block_diag(diff_f, diff_h)
    pi0 = np.zeros((2 * n, 2 * n))
    pi0[:n, :n] = cfg.ye_advect * d1
    pi0[n:, n:] = cfg.ye_advect * d1
    pi0[:n, n:] = cfg.gamma_buoy * np.eye(n)          # -C_gamma with P_q = I
    pi0[n:, :n] = -np.diag(cfg.theta_vector())        # -C_theta_e
    gen = la.block_diag(cfg.nu * lap, cfg.kappa * lap)
    trans = la.block_diag(cfg.c2_f * np.eye(n), cfg.c2_h * np.eye(n))
    return (Operator(ahat, label="diffusion blocks"),
            Operator(pi0, label="couplings+advection"),
            Operator(gen, label="block diffusion generator"),
            Operator(trans, label="block translations"))


def build_block_operator(cfg):
    """Open-loop block operator: diffusion blocks + couplings + advection."""
    ahat, pi0, _, _ = coupled_split(cfg)
    return Operator(ahat.entries + pi0.entries, label="coupled block operator")


def build_thermal_dirichlet_map(cfg):
    """Thermal-boundary lifting embedded in the block state (fluid rows zero).

    Columns solve (kappa Lap + c2_h) psi = 0 with unit value at one thermal
    boundary node; exponent gamma = 1/(2q) - eps.
    """
    n = cfg.n
    elliptic = cfg.kappa * laplacian(n) + cfg.c2_h * np.eye(n)
    cols = dirichlet_lift(elliptic, -cfg.kappa / cfg.h**2,
                          f"thermal elliptic operator (c2_h = {cfg.c2_h:g})")
    emb = np.vstack([np.zeros((n, 2)), cols])
    return GreenMap(emb, gamma=cfg.gamma, input_labels=("thermal x=0", "thermal x=1"))


def fluid_window_mask(cfg):
    """Block-state mask of the control window inside the fluid component."""
    return np.concatenate([window_mask(cfg), np.zeros(cfg.n, dtype=bool)])


def interior_control_profiles(cfg, k):
    """k disjoint indicator bumps on the window, orthonormal in weighted L^2."""
    mask = fluid_window_mask(cfg)
    idx = np.nonzero(mask)[0]
    if len(idx) < k:
        raise ConfigError(f"window holds only {len(idx)} nodes, cannot carve {k} bumps")
    chunks = np.array_split(idx, k)
    cols = np.zeros((2 * cfg.n, k))
    for j, chunk in enumerate(chunks):
        cols[chunk, j] = 1.0
        cols[:, j] /= np.sqrt(cfg.h * len(chunk))
    return cols


def compose_coupled_loop(cfg, f_law, j_law=None):
    """Assemble the coupled closed loop ``diffusion (I - D F) + B``.

    The boundary law acts through the thermal row of the diffusion blocks
    (``drift_A``); the interior law is a bounded block perturbation entering
    additively through ``interior_B`` (couplings, advections and interior
    feedback) and must be supported on the fluid window.
    """
    n2 = 2 * cfg.n
    ahat, pi0, gen, trans = coupled_split(cfg)
    dmap = build_thermal_dirichlet_map(cfg)
    if j_law is None:
        j_law = synthesis.FeedbackLaw.zero(n2, n2)
    j_mat = np.atleast_2d(np.asarray(j_law.as_matrix))
    if j_mat.shape != (n2, n2):
        raise ConfigError(f"interior law must realize a {n2}x{n2} block operator")
    mask = fluid_window_mask(cfg)
    support = np.abs(j_law.boundary_profiles).sum(axis=1) if j_mat.any() else np.zeros(n2)
    if np.any(support[~mask] != 0):
        raise ConfigError("interior control vectors must vanish outside the fluid window")
    pi = Operator(pi0.entries + j_mat, label="bounded part + interior feedback")
    return compose_closed_loop(ahat, dmap, f_law, interior_B=pi,
                               generator_A=gen, perturbation_Ao=trans)


def default_coupled_targets(spectral):
    """Targets halfway between the first untouched mode and the axis."""
    nu = spectral.unstable_count
    if nu == 0:
        return np.array([])
    evs = spectral.eigenvalues
    anchor = abs(evs[nu].real) / 2.0 if nu < evs.shape[0] else 1.0
    base = -max(anchor, 1.0)
    return np.array([base - 0.5 * i for i in range(nu)], dtype=float)


def synthesize_coupled_feedback(cfg, targets=None, use_interior=True):
    """Boundary + interior law pair stabilizing the coupled block operator.

    The placement works on the unstable projection with the boundary channel
    entering through the thermal diffusion row and each interior channel
    through its window bump (influence sign flipped: the interior feedback is
    additive).  Returns (f_law, j_law, info).
    """
    n2 = 2 * cfg.n
    ahat, pi0, _, _ = coupled_split(cfg)
    block = Operator(ahat.entries + pi0.entries)
    dmap = build_thermal_dirichlet_map(cfg)
    sp = spectrum(block)
    if sp.unstable_count == 0:
        return (synthesis.FeedbackLaw.zero(2, n2), synthesis.FeedbackLaw.zero(n2, n2),
                {"spectral": sp, "reduced": None, "targets": np.array([]),
                 "achieved": np.array([])})
    k = synthesis.choose_K(sp)
    bprofiles = np.eye(2)[:, :k]
    boundary_cols = (ahat.entries @ dmap.entries) @ bprofiles
    if use_interior:
        u_cols = interior_control_profiles(cfg, k)
        influence = np.hstack([boundary_cols, -u_cols])
    else:
        u_cols = None
        influence = boundary_cols
    rp = synthesis.reduce(sp, ahat, dmap)
    synthesis.require_rank(rp)
    wl = sp.left_vectors[:, : sp.unstable_count]
    b_eff = wl.conj().T @ influence
    if targets is None:
        targets = default_coupled_targets(sp)
    gain = synthesis.place_poles(rp, targets, input_matrix=b_eff)
    n_b = bprofiles.shape[1]
    f_law = synthesis.build_feedback(rp, gain[:n_b], "spectral", sp,
                                     boundary_profiles=bprofiles)
    if use_interior:
        j_law = synthesis.build_feedback(rp, gain[n_b:], "spectral", sp,
                                         boundary_profiles=u_cols)
    else:
        j_law = synthesis.FeedbackLaw.zero(n2, n2)
    achieved = la.eigvals(rp.lambda_matrix - b_eff @ gain)
    return f_law, j_law, {"spectral": sp, "reduced": rp,
                          "targets": np.asarray(targets), "achieved": achieved}


def adjoint_bound_scan(grids, cfg, targets=None):
    """Grid study of the adjoint boundary-feedback relative bound.

    For each n, synthesizes the pair at fixed targets and evaluates
    ||A^{-(1-gamma)} (diffusion D F)||, the discrete constant in the
    (1-gamma)-relative bound of the adjoint feedback term; grid stability
    certifies the bound.
    """
    rows = []
    for n in grids:
        sub = replace(cfg, n=int(n),
                      theta_e_profile=(cfg.theta_e_profile
                                       if np.asarray(cfg.theta_e_profile).ndim == 0
                                       else float(np.mean(cfg.theta_vector()))))
        f_law, j_law, _ = synthesize_coupled_feedback(sub, targets=targets)
        cl = compose_coupled_loop(sub, f_law, j_law)
        a_pos = Operator(-cl.generator_A.entries)
        power = real_power(a_pos, -(1.0 - sub.gamma)).entries
        term = cl.drift_A.entries @ cl.green.entries @ cl.feedback_matrix()
        rows.append((int(n), spectral_norm(power @ term)))
    return rows


def verify_coupled_stabilization(cl, cfg):
    """PASS/FAIL bundle for the coupled loop ``cl`` composed on ``cfg``.

    Checks: split reassembly |feedback_part() + interior_B - composed|
    (<= 1e-12), boundary-route Hautus margins (zero margin with no interior
    feedback is the designed failure), closed-loop abscissa strictly between
    the first untouched open-loop mode and zero, decay-fit rate (on
    t = 0.5, 1, ..., 6) in the same window.
    """
    checks = {}
    scale = max(np.abs(cl.composed.entries).max(), 1.0)
    resid = float(np.abs(cl.feedback_part() + cl.interior_B.entries
                         - cl.composed.entries).max() / scale)
    checks["reassembly"] = (resid <= 1e-12, resid, 1e-12)
    sp_open = spectrum(build_block_operator(cfg))
    nu = sp_open.unstable_count
    # interior_B is the bounded part plus the interior feedback, if any
    has_interior = bool(np.any(cl.interior_B.entries != coupled_split(cfg)[1].entries))
    margin_floor = np.inf
    if nu > 0:
        rp = synthesis.reduce(sp_open, cl.drift_A, cl.green)
        margin_floor = float(np.min(rp.hautus_margins))
        if not has_interior:
            checks["hautus_margins"] = (margin_floor > synthesis.RANK_TOL, margin_floor,
                                        synthesis.RANK_TOL)
        else:
            checks["hautus_margins"] = (True, margin_floor, 0.0)
    alpha = spectral_abscissa(cl.composed)
    if nu > 0 and nu < 2 * cfg.n:
        lam_next = float(sp_open.eigenvalues[nu].real)
        checks["abscissa_window"] = (lam_next < alpha < 0.0, alpha, lam_next)
    else:
        checks["abscissa_window"] = (alpha < 0.0, alpha, 0.0)
    if alpha < 0.0:
        _, delta = decay_estimate(cl.composed, np.linspace(0.5, 6.0, 12))
        if nu > 0:
            lam_next = float(sp_open.eigenvalues[nu].real)
            checks["decay_rate"] = (0.0 < delta < abs(lam_next) * 1.05, delta, lam_next)
        else:
            checks["decay_rate"] = (delta > 0.0, delta, 0.0)
    else:
        checks["decay_rate"] = (False, np.nan, np.nan)
    return VerificationReport(checks)
