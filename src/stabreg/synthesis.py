"""Finite-dimensional stabilizing feedback synthesis.

Pipeline: project onto the unstable eigenspace, reduce the control system to
the unstable coordinates, check per-eigenvalue controllability (Hautus
margins, the numerical stand-in for rank conditions), place poles on the
reduced pair, and assemble the feedback law either in spectral form
(functionals factoring exactly through the unstable projection) or in
localized form (observation vectors supported on a window, gain re-solved
against the masked Gramian; spill onto stable modes verified a posteriori).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    RankCheckFailure,
    SynthesisError,
    UsageError,
)
from .operators import (
    GreenMap,
    Operator,
    match_spectra,
    operator_matrix,
)

# Tolerance of the eigenvalue-cluster, rank, Hautus-margin and realness tests.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class FeedbackLaw:
    """Rank-K feedback  u = sum_k <obs_k, y> g_k, held as its factors.

    ``boundary_profiles`` holds the output directions g_k as columns (m x K);
    ``observation_rows`` holds the K observation functionals as rows (K x n).
    A localized law carries ``omega_weights``, the quadrature weights
    realizing the windowed inner product (the window is where they are
    positive), and its ``observation_vectors`` w_k (rows), which vanish off
    the window.  The m x n matrix ``as_matrix`` is formed on first use.
    """

    boundary_profiles: np.ndarray
    observation_rows: np.ndarray
    observation_vectors: np.ndarray | None = None
    omega_weights: np.ndarray | None = None

    def __post_init__(self):
        prof = np.atleast_2d(np.asarray(self.boundary_profiles))
        rows = np.atleast_2d(np.asarray(self.observation_rows))
        if prof.shape[1] != rows.shape[0]:
            raise DimensionError("one observation functional per boundary profile required")
        if self.omega_weights is not None:
            if self.observation_vectors is None:
                raise UsageError("a localized law requires its observation vectors")
            outside = ~(np.asarray(self.omega_weights) > 0)
            w = np.atleast_2d(np.asarray(self.observation_vectors))
            if np.any(w[:, outside] != 0):
                raise SynthesisError("localized observation vectors must vanish outside the window")

    @cached_property
    def as_matrix(self):
        """The realized feedback ``boundary_profiles @ observation_rows``,
        read-only: its real part when the profiles are real and its imaginary
        part is within 1e-8 of max(|entries|, 1)."""
        prof = np.atleast_2d(np.asarray(self.boundary_profiles))
        mat = prof @ np.atleast_2d(np.asarray(self.observation_rows))
        if not np.abs(prof.imag).any():
            scale = max(np.abs(mat).max(initial=0.0), 1.0)
            if np.abs(mat.imag).max(initial=0.0) <= 1e-8 * scale:
                mat = np.ascontiguousarray(mat.real)
        mat.setflags(write=False)
        return mat

    @staticmethod
    def zero(input_dim, state_dim):
        return FeedbackLaw(boundary_profiles=np.zeros((input_dim, 1)),
                           observation_rows=np.zeros((1, state_dim)))


@dataclass(frozen=True)
class ReducedPair:
    """Unstable-coordinate control pair (Lambda_N, B_N) with Hautus margins.

    ``b_matrix`` projects the control influence onto the unstable left basis;
    ``hautus_margins[i]`` is the smallest singular value of
    [lambda_i I - Lambda | B] restricted to eigenvalue i's cluster block.
    ``obs_margins`` (present when a window was supplied) are the per-cluster
    smallest eigenvalues of the windowed observability Gramian.
    """

    lam: np.ndarray
    b_matrix: np.ndarray
    hautus_margins: np.ndarray
    clusters: tuple
    obs_margins: np.ndarray | None = None

    @property
    def n_unstable(self):
        return self.lam.shape[0]

    @property
    def lambda_matrix(self):
        return np.diag(self.lam)


@dataclass(frozen=True)
class RankReport:
    passed: bool
    margins: np.ndarray
    failing: tuple
    eigenvalues: np.ndarray
    obs_margins: np.ndarray | None = None

    def table(self):
        lines = ["eigenvalue, hautus_margin, obs_margin, status"]
        for i, lam in enumerate(self.eigenvalues):
            om = "-" if self.obs_margins is None else f"{self.obs_margins[i]:.6e}"
            status = "FAIL" if i in self.failing else "ok"
            lines.append(f"{lam}, {self.margins[i]:.6e}, {om}, {status}")
        return "\n".join(lines)


def _clusters(eigenvalues):
    """Group indices of (sorted) eigenvalues lying within RANK_TOL of each other."""
    groups = []
    used = np.zeros(len(eigenvalues), dtype=bool)
    for i in range(len(eigenvalues)):
        if used[i]:
            continue
        members = [j for j in range(len(eigenvalues))
                   if not used[j] and abs(eigenvalues[j] - eigenvalues[i]) <= RANK_TOL]
        for j in members:
            used[j] = True
        groups.append(tuple(members))
    return tuple(groups)


def _hautus_margins(lam, b, clusters):
    """Smallest singular value of [lam_i I - Lambda | B] on eigenvalue i's cluster."""
    margins = np.empty(lam.shape[0])
    for group in clusters:
        idx = np.array(group)
        lam_block = np.diag(lam[idx])
        for i in idx:
            block = np.hstack([lam[i] * np.eye(len(idx)) - lam_block, b[idx]])
            margins[i] = np.linalg.svd(block, compute_uv=False)[-1]
    return margins


def unstable_projection(spectral):
    """Rank-N spectral projection P_N onto the unstable eigenspace.

    Built from the biorthogonal bases; idempotent to 1e-8 by construction.
    N = 0 is a valid nothing-to-stabilize outcome and yields the zero matrix.
    """
    n = spectral.dim
    nu = spectral.unstable_count
    if nu == 0:
        return Operator(np.zeros((n, n)), label="P_N (rank 0)")
    p = spectral.right_vectors[:, :nu] @ spectral.left_vectors[:, :nu].conj().T
    return Operator(p, label=f"P_N (rank {nu})")


def reduce(spectral, drift, green, omega_weights=None):
    """Project the control system onto the unstable coordinates.

    ``b_matrix[i, j]`` pairs the j-th influence column of ``drift @ green``
    with the i-th unstable left eigenvector.  ``omega_weights`` (a state-dim
    vector of window quadrature weights, zero outside the window) additionally
    produces windowed observability margins used by the localized route.
    """
    if spectral.unstable_count < 1:
        raise UsageError("reduce: no unstable eigenvalues (nothing to project)")
    nu = spectral.unstable_count
    drift_m = drift.entries if isinstance(drift, Operator) else np.asarray(drift)
    g = green.entries if isinstance(green, GreenMap) else np.atleast_2d(np.asarray(green))
    if g.shape[0] != drift_m.shape[0]:
        raise DimensionError("green map state dimension does not match operator")
    lam = spectral.eigenvalues[:nu]
    wl = spectral.left_vectors[:, :nu]
    b = wl.conj().T @ (drift_m @ g)
    clusters = _clusters(lam)
    margins = _hautus_margins(lam, b, clusters)
    obs_margins = None
    if omega_weights is not None:
        w = np.asarray(omega_weights, dtype=float)
        if w.shape != (drift_m.shape[0],):
            raise DimensionError("omega_weights must be a state-dim vector")
        vr = spectral.right_vectors[:, :nu]
        gram = vr.conj().T @ (w[:, None] * vr)
        obs_margins = np.empty(nu)
        for group in clusters:
            idx = np.array(group)
            block = gram[np.ix_(idx, idx)]
            vals = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
            obs_margins[idx] = vals[0].real
    return ReducedPair(
        lam=lam.copy(),
        b_matrix=b,
        hautus_margins=margins,
        clusters=clusters,
        obs_margins=obs_margins,
    )


def rank_check(rp):
    """PASS iff every margin exceeds RANK_TOL; FAIL is a report, not an error."""
    failing = [i for i, m in enumerate(rp.hautus_margins) if m <= RANK_TOL]
    if rp.obs_margins is not None:
        failing += [i for i, m in enumerate(rp.obs_margins)
                    if m <= RANK_TOL and i not in failing]
    return RankReport(
        passed=not failing,
        margins=np.asarray(rp.hautus_margins, dtype=float),
        failing=tuple(sorted(failing)),
        eigenvalues=rp.lam.copy(),
        obs_margins=None if rp.obs_margins is None else np.asarray(rp.obs_margins, dtype=float),
    )


def choose_K(spectral):
    """Largest geometric multiplicity over the unstable eigenvalue clusters."""
    if spectral.unstable_count < 1:
        return 0
    lam = spectral.eigenvalues[: spectral.unstable_count]
    best = 1
    for group in _clusters(lam):
        vecs = spectral.right_vectors[:, list(group)]
        sv = np.linalg.svd(vecs, compute_uv=False)
        rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
        best = max(best, rank)
    return best


def _real_form(values):
    """T with T diag(values) T^-1 real.

    Each conjugate pair becomes its (Re, Im) rows; a real value keeps its
    row.  A value without a conjugate partner is paired with its nearest
    one, so the caller's imaginary-residue check rejects such a set.
    """
    values = np.asarray(values, dtype=complex).ravel()
    n = values.size
    scale = max(np.abs(values).max(initial=0.0), 1.0)
    t = np.zeros((n, n), dtype=complex)
    free = list(range(n))
    row = 0
    while free:
        i = free.pop(0)
        if abs(values[i].imag) <= RANK_TOL * scale or not free:
            t[row, i] = 1.0
            row += 1
            continue
        j = free.pop(int(np.argmin(np.abs(values[free] - np.conj(values[i])))))
        t[row, [i, j]] = 0.5
        t[row + 1, [i, j]] = -0.5j, 0.5j
        row += 2
    return t


def _real_part(m, what):
    """Real part of ``m``, or UsageError if its imaginary residue exceeds RANK_TOL * scale."""
    scale = max(np.abs(m).max(initial=0.0), 1.0)
    if np.abs(m.imag).max(initial=0.0) > RANK_TOL * scale:
        raise UsageError(f"{what} is not conjugate-closed (real model required)")
    return m.real


def place_poles(rp, targets, input_matrix=None):
    """Gain K with spec(Lambda_N - B K) = targets.

    ``input_matrix`` restricts/combines the boundary influence columns (for
    profile channels); by default the full reduced influence matrix is used.
    The pair is realified, Lambda_r = T Lambda T^-1 and B_r = T B, with T
    mapping each conjugate pair to its (Re, Im) coordinates, and the gain
    comes from one Sylvester equation (Bhattacharyya & de Souza 1982):
    Lambda_r X - X F = B_r G, K_r = G X^-1, returned as K = K_r T, so that
    Lambda_N - B K is similar to F.  The equation is solved where Lambda is
    diagonal, X = T Z with one n x n solve per row of Z, and X must come
    out real.  F is the real form of diag(targets), with a 1 on the
    superdiagonal between equal real targets; G is the fixed pattern
    G[k, j] = (j % m == k).  Distinct targets are checked on the
    achieved eigenvalues (within 1e-6).  A repeated root moves by about
    sqrt(eps * cond) under rounding, so repeated targets are checked on the
    similarity instead: ||(Lambda_r - B_r K_r) X - X F|| <= 1e-10 ||Lambda_r||
    ||X|| (Frobenius norms).  Either way cond(X) must not exceed 1e12.
    Targets must be finite and strictly stable, one per unstable
    eigenvalue, and closed under conjugation, as must the reduced spectrum
    and influence rows.
    """
    targets = np.asarray(targets, dtype=complex).ravel()
    targets = targets[np.lexsort((targets.imag, np.abs(targets.imag), targets.real))]
    n = rp.n_unstable
    if targets.size != n:
        raise UsageError(f"need exactly {n} targets, got {targets.size}")
    if not np.all(np.isfinite(targets)):
        bad = targets[~np.isfinite(targets)][0]
        raise UsageError(f"target {bad} is not finite")
    if np.any(targets.real >= 0):
        bad = targets[targets.real >= 0][0]
        raise UsageError(f"target {bad} is not strictly stable")
    b = rp.b_matrix if input_matrix is None else np.atleast_2d(np.asarray(input_matrix))
    if b.shape[0] != n:
        raise DimensionError(f"influence matrix must have {n} rows, got {b.shape}")
    margins = _hautus_margins(rp.lam, b, rp.clusters)
    if np.any(margins <= 1e-12):
        i = int(np.argmax(margins <= 1e-12))
        raise SynthesisError(
            f"eigenvalue {rp.lam[i]} uncontrollable through the supplied channels")
    lam_mat = rp.lambda_matrix
    t = _real_form(rp.lam)
    lam_r = _real_part(t @ lam_mat @ np.linalg.inv(t), "reduced spectrum")
    b_r = _real_part(t @ b, "reduced influence")
    t_f = _real_form(targets)
    f_r = _real_part(t_f @ np.diag(targets) @ np.linalg.inv(t_f), "target set")
    real_row = np.count_nonzero(t_f, axis=1) == 1
    for j in range(n - 1):
        if real_row[j] and real_row[j + 1] and f_r[j, j] == f_r[j + 1, j + 1]:
            f_r[j, j + 1] = 1.0
    m = b.shape[1]
    g = (np.arange(n)[None, :] % m == np.arange(m)[:, None]).astype(float)
    # Lambda_r = T diag(lam) T^-1, so X = T Z, where row k of Z solves
    # z_k (lam_k I - F) = (B G)_k: one n x n solve per unstable eigenvalue
    shifted = rp.lam[:, None, None] * np.eye(n) - f_r.T
    try:
        z = np.linalg.solve(shifted, (b @ g)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("Sylvester equation of the placement is singular") from exc
    x = _real_part(t @ z, "Sylvester solution")
    cond = np.linalg.cond(x)
    if not np.isfinite(cond) or cond > 1e12:
        raise SynthesisError(f"Sylvester solution condition {cond:.3e} exceeds 1e12")
    k_r = np.linalg.solve(x.T, g.T).T
    gain = k_r @ t
    if np.any(targets[1:] == targets[:-1]):     # sorted: repeats are adjacent
        resid = np.linalg.norm((lam_r - b_r @ k_r) @ x - x @ f_r)
        if resid > 1e-10 * np.linalg.norm(lam_r) * np.linalg.norm(x):
            raise SynthesisError(f"similarity residual {resid:.3e} of the placement exceeds "
                                 "1e-10 |Lambda_r| |X|")
    else:
        err = match_spectra(np.linalg.eigvals(lam_mat - b @ gain), targets)
        if err > 1e-6:
            raise SynthesisError(f"pole placement missed targets by {err:.3e} (> 1e-6)")
    return gain


def build_feedback(gain, spectral, boundary_profiles, omega_weights=None):
    """Assemble a FeedbackLaw from a placed gain.

    Without ``omega_weights`` the law is spectral: observation functional k
    is (gain row k) in unstable left-eigenvector coordinates, so the law
    factors exactly through the unstable projection.  With them it is
    localized on the window ``omega_weights > 0``: observation vectors are
    weighted combinations of adjoint eigenvectors, re-solved against the
    windowed Gramian (condition at most 1e8) so that unstable coordinates are
    still read exactly; spill onto stable modes is accepted and checked
    downstream by direct eigensolve.  ``boundary_profiles`` holds one output
    direction g_k per gain row, as columns.  With real profiles, rows whose
    imaginary part is within 1e-8 of max(|rows|, 1) are cast real, and the
    observation vectors follow them.  The law keeps its factors: no m x n
    product is formed here.
    """
    gain = np.atleast_2d(np.asarray(gain, dtype=complex))
    nu = spectral.unstable_count
    n = spectral.dim
    k_channels = gain.shape[0]
    if gain.shape[1] != nu:
        raise DimensionError(f"gain must have one column per unstable mode ({nu})")
    k_min = choose_K(spectral)
    if k_channels < k_min and np.any(gain != 0):
        raise UsageError(
            f"{k_channels} channel(s) cannot move an eigenvalue of geometric multiplicity {k_min}")
    profiles = np.atleast_2d(np.asarray(boundary_profiles))
    if profiles.shape[1] != k_channels:
        raise DimensionError("one boundary profile column per gain row required")

    wl = spectral.left_vectors[:, :nu]
    if omega_weights is None:
        rows = gain @ wl.conj().T     # unstable coordinate functionals
    else:
        wts = np.asarray(omega_weights, dtype=float)
        if wts.shape != (n,):
            raise DimensionError("omega_weights must be a state-dim vector")
        window = wts > 0
        if not window.any():
            raise SynthesisError("localized window is empty")
        raw = wl.conj().T * wts[None, :]             # raw windowed functionals
        gram = raw @ spectral.right_vectors[:, :nu]  # <phi_i, m phi*_j> pattern
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e8:
            raise SynthesisError(
                f"masked observation Gramian condition {cond:.3e} exceeds "
                "1e8 (window too small or misplaced)")
        rows = gain @ np.linalg.solve(gram, raw)

    # real profiles keep real rows real: cast within 1e-8 of max(|rows|, 1)
    if not np.abs(profiles.imag).any():
        if np.abs(rows.imag).max(initial=0.0) <= 1e-8 * max(np.abs(rows).max(initial=0.0), 1.0):
            rows = rows.real
    wvec = None
    if omega_weights is not None:
        wvec = np.zeros_like(rows)
        wvec[:, window] = np.conj(rows[:, window]) / wts[window][None, :]
    return FeedbackLaw(
        boundary_profiles=profiles,
        observation_rows=rows,
        observation_vectors=wvec,
        omega_weights=None if omega_weights is None else wts,
    )


def require_rank(rp):
    """Raise RankCheckFailure (with the margin table) unless rank_check passes."""
    report = rank_check(rp)
    if not report.passed:
        raise RankCheckFailure(
            "controllability rank check failed for eigenvalue indices "
            f"{list(report.failing)}", report=report)
    return report


def spectral_feedback(sp, drift, green, targets, interior=None, omega_weights=None):
    """The synthesis of every model: feedback placing ``targets`` on the
    unstable modes of ``sp``.

    ``reduce`` pairs ``drift @ green`` with the unstable left basis and the
    rank check must pass; the boundary channels are the first ``choose_K(sp)``
    columns of the GreenMap ``green``, and the ``interior`` columns follow,
    sign flipped, since an interior law enters the loop additively.  Without
    ``omega_weights`` the placement is exact.  With them the boundary law is
    localized on the window and spills onto stable modes, so the targets are
    doubled until drift (I - G F) + J, ``drift`` being the whole operator, is
    stable (SynthesisError after 7 doublings).  Returns (law, interior_law,
    info): interior_law is zero without ``interior``, both are zero with
    nothing unstable, and info holds the spectral data, reduced pair, targets
    used and achieved reduced spectrum.
    """
    n = sp.dim
    g = green.entries
    if sp.unstable_count == 0:
        return (FeedbackLaw.zero(g.shape[1], n), FeedbackLaw.zero(n, n),
                {"spectral": sp, "reduced": None, "targets": np.array([]),
                 "achieved": np.array([])})
    rp = reduce(sp, drift, green, omega_weights=omega_weights)
    require_rank(rp)
    profiles = np.eye(g.shape[1])[:, :choose_K(sp)]
    b_eff = rp.b_matrix @ profiles
    if interior is not None:
        wl = sp.left_vectors[:, : sp.unstable_count]
        b_eff = np.hstack([b_eff, -(wl.conj().T @ interior)])
    targets = np.asarray(targets, dtype=complex)
    k = profiles.shape[1]
    for attempt in range(1 if omega_weights is None else 8):
        used = targets * 2.0 ** attempt
        gain = place_poles(rp, used, input_matrix=b_eff)
        law = build_feedback(gain[:k], sp, profiles, omega_weights)
        j_law = (FeedbackLaw.zero(n, n) if interior is None
                 else build_feedback(gain[k:], sp, interior))
        if omega_weights is None:
            break
        closed = operator_matrix(drift) @ (np.eye(n) - g @ law.as_matrix) + j_law.as_matrix
        if np.max(np.linalg.eigvals(closed).real) < 0.0:
            break
    else:
        raise SynthesisError("localized synthesis failed to reach abscissa < 0 "
                             "after 7 target deepenings")
    achieved = np.linalg.eigvals(rp.lambda_matrix - b_eff @ gain)
    return law, j_law, {"spectral": sp, "reduced": rp, "targets": used,
                        "achieved": achieved}
