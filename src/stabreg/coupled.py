"""Coupled two-component diffusion system with boundary + interior control.

Desk-scale block analogue of a fluid/thermal coupling: two 1-D diffusion
equations on (0,1), the fluid component driven by an interior control
supported on a window, the thermal component by Dirichlet boundary control.
The 2n x 2n block operator couples them through a scalar buoyancy injection
(+gamma I into the fluid row) and an equilibrium-gradient multiplication
(into the thermal row).  The closed loop splits into a diffusion part acting
through (I - D F) and a bounded collection (advections, couplings, interior
feedback); the split is retained for reassembly checks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import maxreg, synthesis
from .errors import ConfigError, ResonanceError
from .heat import VerificationReport, first_difference, laplacian
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
    first difference in both components.
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
        a, b = self.omega
        if not (0.0 < a < b < 1.0):
            raise ConfigError(f"window {self.omega} must be a strict subinterval of (0,1)")
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


def _block_meta(cfg):
    return {"h": cfg.h, "n": cfg.n, "domain": "(0,1)",
            "fluid_rows": (1, cfg.n), "thermal_rows": (cfg.n + 1, 2 * cfg.n)}


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
    meta = _block_meta(cfg)
    return (Operator(ahat, label="diffusion blocks", grid_meta=meta),
            Operator(pi0, label="couplings+advection"),
            Operator(gen, label="block diffusion generator", grid_meta=meta),
            Operator(trans, label="block translations"))


def build_block_operator(cfg):
    """Open-loop block operator: diffusion blocks + couplings + advection."""
    ahat, pi0, _, _ = coupled_split(cfg)
    return Operator(ahat.entries + pi0.entries, label="coupled block operator",
                    grid_meta=_block_meta(cfg))


def coupling_norms(cfg):
    """(||C_gamma||, ||C_theta||): exactly |gamma| and max |theta profile|."""
    return (spectral_norm(cfg.gamma_buoy * np.eye(cfg.n)),
            spectral_norm(np.diag(cfg.theta_vector())))


def build_thermal_dirichlet_map(cfg, residual_tol=1e-10):
    """Thermal-boundary lifting embedded in the block state (fluid rows zero).

    Columns solve (kappa Lap + c2_h) psi = 0 with unit value at one thermal
    boundary node; exponent gamma = 1/(2q) - eps.
    """
    n, h = cfg.n, cfg.h
    elliptic = cfg.kappa * laplacian(n) + cfg.c2_h * np.eye(n)
    rhs = np.zeros((n, 2))
    rhs[0, 0] = -cfg.kappa / h**2
    rhs[-1, 1] = -cfg.kappa / h**2
    sv = la.svdvals(elliptic)
    if sv[-1] <= 1e-9 * sv[0]:
        raise ResonanceError(f"thermal elliptic operator singular (c2_h = {cfg.c2_h:g})")
    cols = la.solve(elliptic, rhs)
    resid = np.abs(elliptic @ cols - rhs).max() / np.abs(rhs).max()
    if resid > residual_tol:
        raise ResonanceError(f"thermal Dirichlet solve residual {resid:.3e}")
    emb = np.vstack([np.zeros((n, 2)), cols])
    return GreenMap(emb, gamma=cfg.gamma, input_labels=("thermal x=0", "thermal x=1"))


def fluid_window_mask(cfg):
    """Block-state mask of the control window inside the fluid component."""
    x = cfg.nodes()
    a, b = cfg.omega
    comp = (x >= a) & (x <= b)
    if not comp.any():
        raise ConfigError(f"window {cfg.omega} contains no grid node at n = {cfg.n}")
    return np.concatenate([comp, np.zeros(cfg.n, dtype=bool)])


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


@dataclass(frozen=True)
class CoupledLoop:
    """Closed coupled loop with its structural split retained.

    ``loop.composed`` = ahat_f + pi where ahat_f = diffusion (I - D F) and pi
    collects advections, couplings and the interior feedback.
    """

    loop: object
    cfg: CoupledConfig
    open_block: Operator
    ahat: Operator
    ahat_f: Operator
    pi: Operator
    j_op: Operator
    f_law: object
    j_law: object

    @property
    def composed(self):
        return self.loop.composed

    def reassembly_residual(self):
        scale = max(np.abs(self.composed.entries).max(), 1.0)
        return float(np.abs(self.ahat_f.entries + self.pi.entries
                            - self.composed.entries).max() / scale)


def compose_coupled_loop(cfg, f_law, j_law=None):
    """Assemble the coupled closed loop and its diffusion/bounded split.

    The boundary law acts through the thermal row of the diffusion blocks
    (diffusion (I - D F)); the interior law is a bounded block perturbation
    entering additively and must be supported on the fluid window.
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
    j_op = Operator(j_mat, label="interior feedback")
    pi = Operator(pi0.entries + j_mat, label="bounded part + interior feedback")
    loop = compose_closed_loop(ahat, dmap, f_law, interior_B=pi,
                               generator_A=gen, perturbation_Ao=trans,
                               ao_epsilon=0.5)
    fmat = loop.feedback_matrix()
    ahat_f = Operator(ahat.entries @ (np.eye(n2) - dmap.entries @ fmat),
                      label="diffusion closed part")
    return CoupledLoop(
        loop=loop, cfg=cfg,
        open_block=Operator(ahat.entries + pi0.entries, label="coupled block operator",
                            grid_meta=_block_meta(cfg)),
        ahat=ahat, ahat_f=ahat_f, pi=pi, j_op=j_op,
        f_law=f_law, j_law=j_law)


def default_coupled_targets(spectral):
    """Targets halfway between the first untouched mode and the axis."""
    nu = spectral.unstable_count
    if nu == 0:
        return np.array([])
    evs = spectral.eigenvalues
    anchor = abs(evs[nu].real) / 2.0 if nu < evs.shape[0] else 1.0
    base = -max(anchor, 1.0)
    return np.array([base - 0.5 * i for i in range(nu)], dtype=float)


def synthesize_coupled_feedback(cfg, targets=None, use_interior=True, rank_tol=1e-8):
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
    synthesis.require_rank(rp, rank_tol)
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
        sub = CoupledConfig(n=int(n), nu=cfg.nu, kappa=cfg.kappa,
                            gamma_buoy=cfg.gamma_buoy,
                            theta_e_profile=(cfg.theta_e_profile
                                             if np.asarray(cfg.theta_e_profile).ndim == 0
                                             else float(np.mean(cfg.theta_vector()))),
                            ye_advect=cfg.ye_advect, c2_f=cfg.c2_f, c2_h=cfg.c2_h,
                            omega=cfg.omega, q=cfg.q, epsilon=cfg.epsilon)
        f_law, j_law, _ = synthesize_coupled_feedback(sub, targets=targets)
        cl = compose_coupled_loop(sub, f_law, j_law)
        a_pos = Operator(-cl.loop.generator_A.entries)
        power = real_power(a_pos, -(1.0 - sub.gamma)).entries
        term = cl.ahat.entries @ cl.loop.green.entries @ cl.loop.feedback_matrix()
        rows.append((int(n), spectral_norm(power @ term)))
    return rows


def verify_coupled_stabilization(cl, p_grid=(2.0,), t_horizons=(10.0, 20.0, 40.0),
                                 t_grid=None, n_random=16, seed=0, n_cells=2000,
                                 rank_tol=1e-8, workers=1):
    """PASS/FAIL bundle for a coupled loop.

    Checks: split reassembly (<= 1e-12), boundary-route Hautus margins (zero
    margin with no interior control is the designed failure), closed-loop
    abscissa strictly between the first untouched open-loop mode and zero,
    decay-fit rate in the same window, and regularity plateaus over the
    exponent grid.  The regularity scan runs once (``workers`` threads over
    the horizons) and is returned as ``scans``.
    """
    checks = {}
    checks["reassembly"] = (cl.reassembly_residual() <= 1e-12,
                            cl.reassembly_residual(), 1e-12)
    sp_open = spectrum(cl.open_block)
    nu = sp_open.unstable_count
    has_interior = bool(np.any(cl.j_op.entries))
    margin_floor = np.inf
    if nu > 0:
        rp = synthesis.reduce(sp_open, cl.ahat, cl.loop.green)
        margin_floor = float(np.min(rp.hautus_margins))
        if not has_interior:
            checks["hautus_margins"] = (margin_floor > rank_tol, margin_floor, rank_tol)
        else:
            checks["hautus_margins"] = (True, margin_floor, 0.0)
    alpha = spectral_abscissa(cl.composed)
    if nu > 0 and nu < 2 * cl.cfg.n:
        lam_next = float(sp_open.eigenvalues[nu].real)
        checks["abscissa_window"] = (lam_next < alpha < 0.0, alpha, lam_next)
    else:
        checks["abscissa_window"] = (alpha < 0.0, alpha, 0.0)
    if alpha < 0.0:
        if t_grid is None:
            t_grid = np.linspace(0.5, 6.0, 12)
        _, delta = decay_estimate(cl.composed, t_grid)
        if nu > 0:
            lam_next = float(sp_open.eigenvalues[nu].real)
            checks["decay_rate"] = (0.0 < delta < abs(lam_next) * 1.05, delta, lam_next)
        else:
            checks["decay_rate"] = (delta > 0.0, delta, 0.0)
    else:
        checks["decay_rate"] = (False, np.nan, np.nan)
    sets = maxreg.build_forcing_grid(cl.composed, t_horizons, n_random=n_random,
                                     seed=seed, n_cells_max=n_cells)
    scans = tuple(maxreg.plateau_scan_multi(cl.composed, p_grid, t_horizons, sets,
                                            workers=workers))
    for rep in scans:
        checks[f"plateau_p={rep.p:g}"] = (rep.verdict == "plateau",
                                          rep.c_estimates[-1], 0.05)
    failing = tuple(name for name, (ok, _, _) in checks.items() if not ok)
    return VerificationReport(passed=not failing, checks=checks, failing=failing,
                              scans=scans)
