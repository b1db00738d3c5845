"""Coupled two-component diffusion system with boundary + interior control.

Desk-scale block analogue of a fluid/thermal coupling: two 1-D diffusion
equations on (0,1), the fluid component driven by an interior control
supported on a window, the thermal component by Dirichlet boundary control.
The 2n x 2n block operator couples them through a scalar buoyancy injection
(+gamma I into the fluid row) and an equilibrium-gradient multiplication
(into the thermal row).  The closed loop is a ``ClosedLoop``: a diffusion
part acting through (I - D F) plus a bounded collection (advections,
couplings, interior feedback), both retained for reassembly checks.

With no advection and a scalar equilibrium profile every block of the open
loop is a I + b tridiag(1, 0, 1), so ``operators.spectrum`` decomposes it in
closed form: the discrete sine transform leaves one 2 x 2 eigenproblem per
sine mode.  An advection or a varying profile sends it to LAPACK's ``eig``.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import synthesis
from .errors import ConfigError
from .heat import GridModel, check_row, first_difference, laplacian, window_mask
from .operators import (
    GreenMap,
    Operator,
    apply_power,
    compose_closed_loop,
    decay_estimate,
    spectral_abscissa,
    spectral_norm,
)


@dataclass(frozen=True)
class CoupledConfig(GridModel):
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
        self._check()
        if self.nu <= 0 or self.kappa <= 0:
            raise ConfigError("diffusivities must be positive")
        prof = np.asarray(self.theta_e_profile, dtype=float)
        if prof.ndim not in (0, 1) or (prof.ndim == 1 and prof.shape != (self.n,)):
            raise ConfigError("theta_e_profile must be a scalar or an n-vector")
        if not np.all(np.isfinite(prof)):
            raise ConfigError("theta_e_profile must be finite")
        self._check_resonance(self.c2_h / self.kappa, "sqrt(c2_h/kappa)")

    def theta_vector(self):
        prof = np.asarray(self.theta_e_profile, dtype=float)
        return np.full(self.n, float(prof)) if prof.ndim == 0 else prof.copy()

    @cached_property
    def operator(self):
        return build_block_operator(self)

    @cached_property
    def lifting(self):
        return build_thermal_dirichlet_map(self)

    def synthesize(self, mode="spectral", targets=None, use_interior=True):
        """Synthesize and compose: (loop, matrices to write, mode, info)."""
        if mode != "spectral":
            raise ConfigError(f"[synthesis] mode = {mode!r}: the coupled law is always spectral")
        f_law, j_law, info = synthesize_coupled_feedback(self, targets=targets,
                                                         use_interior=use_interior)
        loop = compose_coupled_loop(self, f_law, j_law)
        return (loop, {"feedback_matrix": loop.feedback_matrix,
                       "interior_matrix": j_law.as_matrix}, mode, info)

    def verify(self, loop, info):
        """The model's verification rows: reassembly, margins, abscissa, decay.
        The margins are those of the synthesis's reduced pair in ``info``."""
        return verify_coupled_stabilization(loop, self, info["reduced"])


def _diffusion_blocks(cfg, shift_f, shift_h):
    """diag(nu Lap + shift_f I, kappa Lap + shift_h I), written into one
    2n x 2n array with no n x n identity."""
    n = cfg.n
    lap = laplacian(n)
    out = np.zeros((2 * n, 2 * n))
    np.multiply(lap, cfg.nu, out=out[:n, :n])
    np.multiply(lap, cfg.kappa, out=out[n:, n:])
    i = np.arange(n)
    out[i, i] += shift_f
    out[i + n, i + n] += shift_h
    return out


def _put_diagonal(block, values, zero):
    """Write diag(values) into a square view, every other entry ``zero``:
    the signed zero that c * eye(n) or -diag(v) leaves there."""
    block[...] = zero
    np.fill_diagonal(block, values)


def _couplings(cfg):
    """The bounded part as a 2n x 2n array: the advection ye D1 in both
    diagonal blocks, +gamma I in the fluid row (-C_gamma with P_q = I) and
    -diag(theta_e) in the thermal row (-C_theta_e), signed zeros included."""
    n = cfg.n
    adv = cfg.ye_advect * first_difference(n)
    pi0 = np.empty((2 * n, 2 * n))
    pi0[:n, :n] = adv
    pi0[n:, n:] = adv
    _put_diagonal(pi0[:n, n:], cfg.gamma_buoy, cfg.gamma_buoy * 0.0)
    _put_diagonal(pi0[n:, :n], -cfg.theta_vector(), -0.0)
    return pi0


def coupled_split(cfg):
    """(diffusion blocks, bounded part, generator, translations).

    diffusion = blkdiag(nu Lap + c2_f, kappa Lap + c2_h); the bounded part
    collects both advections and the two couplings.  generator + translations
    = diffusion, mirroring the abstract generator split.
    """
    n = cfg.n
    trans = np.zeros((2 * n, 2 * n))
    _put_diagonal(trans[:n, :n], cfg.c2_f, cfg.c2_f * 0.0)
    _put_diagonal(trans[n:, n:], cfg.c2_h, cfg.c2_h * 0.0)
    return (Operator(_diffusion_blocks(cfg, cfg.c2_f, cfg.c2_h), label="diffusion blocks"),
            Operator(_couplings(cfg), label="couplings+advection"),
            Operator(_diffusion_blocks(cfg, 0.0, 0.0), label="block diffusion generator"),
            Operator(trans, label="block translations"))


def build_block_operator(cfg):
    """Open-loop block operator: diffusion blocks + couplings + advection,
    summed in place into the diffusion blocks."""
    m = _diffusion_blocks(cfg, cfg.c2_f, cfg.c2_h)
    m += _couplings(cfg)
    return Operator(m, label="coupled block operator")


def build_thermal_dirichlet_map(cfg):
    """Thermal-boundary lifting embedded in the block state (fluid rows zero).

    Columns solve (kappa Lap + c2_h) psi = 0 with unit value at one thermal
    boundary node; exponent gamma = 1/(2q) - eps.
    """
    cols = cfg.lift_columns(cfg.kappa, cfg.c2_h,
                            f"thermal elliptic operator (c2_h = {cfg.c2_h:g})")
    emb = np.vstack([np.zeros((cfg.n, 2)), cols])
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
    dmap = cfg.lifting
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
    """Boundary + interior law pair stabilizing the coupled block operator:
    ``synthesis.spectral_feedback`` with the boundary channel entering through
    the thermal diffusion row and each interior channel through its window
    bump.  ``targets`` default to ``default_coupled_targets``; with
    ``use_interior`` false the interior law is zero.  Returns (f_law, j_law, info).
    """
    sp = cfg.operator.spectral
    interior = (interior_control_profiles(cfg, synthesis.choose_K(sp))
                if use_interior and sp.unstable_count else None)
    return synthesis.spectral_feedback(
        sp, _diffusion_blocks(cfg, cfg.c2_f, cfg.c2_h), cfg.lifting,
        default_coupled_targets(sp) if targets is None else targets, interior=interior)


def adjoint_bound_scan(grids, cfg, targets=None):
    """Grid study of the adjoint boundary-feedback relative bound.

    For each n, synthesizes the pair at fixed targets and evaluates
    ||A^{-(1-gamma)} (diffusion D F)||, the discrete constant in the
    (1-gamma)-relative bound of the adjoint feedback term; grid stability
    certifies the bound.  A vector ``theta_e_profile`` is replaced by its
    mean, so that every n has its profile.  The factors are read from the
    model, as the composed loop would hold them, and no loop is composed.
    """
    rows = []
    for n in grids:
        sub = replace(cfg, n=int(n),
                      theta_e_profile=(cfg.theta_e_profile
                                       if np.asarray(cfg.theta_e_profile).ndim == 0
                                       else float(np.mean(cfg.theta_vector()))))
        # X = (-generator)^{-(1-gamma)} (diffusion blocks @ lifting), formed
        # before the synthesis so that the generator's decomposition is gone
        x = apply_power(-_diffusion_blocks(sub, 0.0, 0.0), -(1.0 - sub.gamma),
                        _diffusion_blocks(sub, sub.c2_f, sub.c2_h) @ sub.lifting.entries)
        f_mat = synthesize_coupled_feedback(sub, targets=targets)[0].as_matrix
        # F has 2 rows: F^H = Q R with Q orthonormal, so ||X F|| = ||X R^H||
        # for the 2n x 2 product X, and no 2n x 2n product is formed
        r = np.linalg.qr(f_mat.conj().T, mode="r")
        rows.append((int(n), spectral_norm(x @ r.conj().T)))
    return rows


def verify_coupled_stabilization(cl, cfg, reduced=None):
    """The coupled rows of verify.csv for the loop ``cl`` composed on ``cfg``.

    Checks: split reassembly |feedback_part + interior_B - composed|
    (<= 1e-12), boundary-route Hautus margins (zero margin with no interior
    feedback is the designed failure), closed-loop abscissa strictly between
    the first untouched open-loop mode and zero, decay-fit rate (on
    t = 0.5, 1, ..., 6) in the same window.  The margins are those of
    ``reduced``, the synthesis's ``info["reduced"]`` of the open-loop
    spectrum, diffusion blocks and lifting; without it that pair is reduced here.
    """
    scale = max(np.abs(cl.composed.entries).max(), 1.0)
    resid = float(np.abs(cl.feedback_part.entries + cl.interior_B.entries
                         - cl.composed.entries).max() / scale)
    rows = [check_row("reassembly", resid <= 1e-12, resid, 1e-12)]
    sp_open = cfg.operator.spectral
    nu = sp_open.unstable_count
    # interior_B is the bounded part plus the interior feedback, if any
    has_interior = bool(np.any(cl.interior_B.entries != _couplings(cfg)))
    if nu > 0:
        rp = reduced if reduced is not None else synthesis.reduce(sp_open, cl.drift_A, cl.green)
        margin_floor = float(np.min(rp.hautus_margins))
        if not has_interior:
            rows.append(check_row("hautus_margins", margin_floor > synthesis.RANK_TOL,
                                  margin_floor, synthesis.RANK_TOL))
        else:
            rows.append(check_row("hautus_margins", True, margin_floor, 0.0))
    alpha = spectral_abscissa(cl.composed)
    # the first untouched open-loop mode, if some are unstable and some not
    lam_next = float(sp_open.eigenvalues[nu].real) if 0 < nu < 2 * cfg.n else None
    if lam_next is not None:
        rows.append(check_row("abscissa_window", lam_next < alpha < 0.0, alpha, lam_next))
    else:
        rows.append(check_row("abscissa_window", alpha < 0.0, alpha, 0.0))
    if alpha < 0.0:
        _, delta = decay_estimate(cl.composed, np.linspace(0.5, 6.0, 12))
        if lam_next is not None:
            rows.append(check_row("decay_rate", 0.0 < delta < abs(lam_next) * 1.05,
                                  delta, lam_next))
        else:
            rows.append(check_row("decay_rate", delta > 0.0, delta, 0.0))
    else:
        rows.append(check_row("decay_rate", False, np.nan, np.nan))
    return rows
