"""Dense operator algebra for closed-loop boundary-feedback studies.

Houses the basic value types (square operators, boundary-to-interior Green
maps, eigendecompositions, composed closed loops) and the operations built on
them: spectra with biorthogonal left bases, resolvents, matrix exponentials,
fractional powers by spectral calculus, closed-loop composition A_F = M(I-GF)+B
with its factors retained, the adjoint three-term decomposition check, the
resolvent perturbation identity and semigroup decay fits.

All values are immutable after construction and every operation is a pure
function of its inputs.  ``Operator.spectral`` caches the decomposition on first
use.
"""

import functools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    EigenDecompositionError,
    IdentityViolationError,
    IllConditionedBasisError,
    NumericalError,
    SaturationError,
    SingularityError,
    TranslationRequiredError,
    UsageError,
)

_COND_FLAG = 1e8
# frames that warnings raised here skip: this module and the cached_property
# of functools that ``Operator.spectral`` goes through
_LIBRARY_FILES = (__file__, functools.__file__)


def _warn(message):
    """``warnings.warn`` at the first caller outside this module and functools."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename in _LIBRARY_FILES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _frozen_array(a):
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _read_only(a):
    """``a`` itself, made read-only together with the array it views, if any,
    so that no view of it can be made writable again."""
    if isinstance(a.base, np.ndarray):
        a.base.setflags(write=False)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Operator:
    """Dense square, non-empty operator with a descriptive label."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.entries))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator {self.label!r}: entries must be square, got {m.shape}")
        if m.size == 0:
            raise DimensionError(f"operator {self.label!r} is empty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise UsageError(f"operator {self.label!r}: non-finite entries")
        object.__setattr__(self, "entries", _frozen_array(m))

    @property
    def dim(self):
        return self.entries.shape[0]

    @cached_property
    def spectral(self):
        """The ``spectrum`` of this operator, computed on first use."""
        return spectrum(self)


@dataclass(frozen=True)
class GreenMap:
    """Boundary-input to state map G with its fractional-power exponent gamma."""

    entries: np.ndarray
    gamma: float
    input_labels: tuple = ()

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.entries))
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise DimensionError(f"green map: bad shape {m.shape}")
        if not np.isfinite(m).all():
            raise UsageError("green map: non-finite entries")
        if not (0.0 < self.gamma < 1.0):
            raise UsageError(f"green map exponent gamma must lie strictly in (0,1), got {self.gamma}")
        object.__setattr__(self, "entries", _frozen_array(m))
        labels = tuple(self.input_labels) if self.input_labels else tuple(
            f"u{j}" for j in range(m.shape[1]))
        if len(labels) != m.shape[1]:
            raise DimensionError("green map: one input label per column required")
        object.__setattr__(self, "input_labels", labels)

    @property
    def state_dim(self):
        return self.entries.shape[0]

    @property
    def input_dim(self):
        return self.entries.shape[1]


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition sorted by decreasing real part.

    ``left_vectors`` is biorthogonally normalized against ``right_vectors``:
    left[:, i]^H @ right[:, j] = delta_ij.  ``eigenvalues`` are complex128.
    ``unstable_count`` counts eigenvalues with real part >= -1e-9.
    ``cond_estimate`` is the 1-norm condition of the right basis: 1.0 for the
    orthonormal basis of a Hermitian matrix, ||right||_1 ||left^H||_1 =
    ||V||_1 ||V^-1||_1 for a biorthogonal one, whose left basis is V^-H,
    ``np.linalg.cond(right, 1)`` for a defective one.  The operator of
    ``translate_to_positive`` shares its operator's decomposition.  Every
    array is read-only, and so is the array it views, if any.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    unstable_count: int
    cond_estimate: float
    ill_conditioned: bool = False
    defective: bool = False

    @property
    def dim(self):
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class ClosedLoop:
    """Composed feedback operator with its factors retained.

    ``composed = drift_A (I - green @ feedback_matrix) + interior_B`` with
    ``feedback_matrix`` the realized feedback F, of shape (inputs, states)
    and read-only.  ``generator_A`` holds the semigroup generator
    of the unperturbed part (the "-A" whose sign-flip has right-half-plane
    spectrum), ``perturbation_Ao`` the lower-order perturbation, so that
    ``drift_A = generator_A + perturbation_Ao``.
    """

    generator_A: Operator
    perturbation_Ao: Operator | None
    drift_A: Operator
    green: GreenMap
    feedback_matrix: np.ndarray
    interior_B: Operator | None
    composed: Operator

    @property
    def dim(self):
        return self.composed.dim

    @cached_property
    def feedback_part(self):
        """The B-less part drift_A (I - G F): ``composed`` itself without interior_B."""
        if self.interior_B is None:
            return self.composed
        gf = self.green.entries @ self.feedback_matrix
        return Operator(self.drift_A.entries @ (np.eye(self.dim) - gf), label="B-less loop")


def operator_matrix(x):
    """Entries of a ClosedLoop / Operator / plain array."""
    if isinstance(x, ClosedLoop):
        x = x.composed
    return x.entries if isinstance(x, Operator) else np.atleast_2d(np.asarray(x))


def spectral_norm(m):
    """Operator 2-norm (largest singular value, by SVD); 0 for an empty matrix."""
    m = np.atleast_2d(np.asarray(m))
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def decomposition(x):
    """Cached SpectralData of an Operator or a ClosedLoop; a plain array's, afresh."""
    x = x.composed if isinstance(x, ClosedLoop) else x
    return x.spectral if isinstance(x, Operator) else spectrum(x)


def spectral_abscissa(op):
    """Largest real part over the spectrum: the first eigenvalue of ``spectrum``."""
    return float(decomposition(op).eigenvalues[0].real)


def _assignment(cost):
    """Column assigned to each row of a square cost matrix at least total cost.

    Shortest augmenting path method of Crouse (2016, IEEE Trans. Aerosp.
    Electron. Syst. 52:1679), as SciPy's ``linear_sum_assignment`` implements
    it: rows are added one at a time, each by a Dijkstra search over reduced
    costs that scans the unvisited columns in its swap-removal order, starting
    from the last column.  The tie rule is SciPy's too: among equal reduced
    costs the last unassigned column scanned wins, else the first scanned, so
    the same index array comes back also on exact ties (a repeated pole
    target).  It lives here because importing ``scipy.optimize`` for this one
    call loads ``scipy.sparse``, ``spatial`` and ``special`` as well, about
    0.25 s and 21 MB per process.  A NaN or -inf entry, or a cost matrix with
    no finite assignment, raises ValueError.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise ValueError("cost matrix contains NaN or -inf")
    u, v = np.zeros(n), np.zeros(n)
    path, col4row, row4col = (np.full(n, -1) for _ in range(3))
    for row in range(n):
        dist = np.full(n, np.inf)
        seen_rows, seen_cols = np.zeros(n, bool), np.zeros(n, bool)
        remaining = np.arange(n - 1, -1, -1)
        i, lowest = row, 0.0
        for left in range(n, 0, -1):
            seen_rows[i] = True
            rem = remaining[:left]
            r = lowest + cost[i, rem] - u[i] - v[rem]
            shorter = r < dist[rem]
            path[rem[shorter]] = i
            dist[rem[shorter]] = r[shorter]
            d = dist[rem]
            lowest = d.min()
            if lowest == np.inf:
                raise ValueError("cost matrix is infeasible")
            tied = d == lowest
            free = np.flatnonzero(tied & (row4col[rem] < 0))
            index = free[-1] if free.size else int(np.argmax(tied))
            j = rem[index]
            seen_cols[j] = True
            remaining[index] = remaining[left - 1]
            if row4col[j] < 0:
                sink = j
                break
            i = row4col[j]
        u[row] += lowest
        seen_rows[row] = False
        u[seen_rows] += lowest - dist[col4row[seen_rows]]
        v[seen_cols] -= lowest - dist[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    return col4row


def pair_spectra(a, b):
    """``b`` reordered so that ``b[k]`` is optimally assigned to ``a[k]``.

    The assignment minimizes the summed distance ``|a[k] - b[k]|`` by Crouse's
    shortest augmenting path method with SciPy's tie rule (``_assignment``),
    so it returns SciPy's index array, ties included.  It is in-house because
    importing ``scipy.optimize`` costs about 0.25 s and 21 MB per process.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise UsageError(f"spectra size mismatch: {a.shape} vs {b.shape}")
    return b[_assignment(np.abs(a[:, None] - b[None, :]))]


def match_spectra(a, b):
    """Greatest matched distance between two equal-length eigenvalue sets.

    Uses the optimal assignment of ``pair_spectra`` (Crouse's shortest
    augmenting path with SciPy's tie rule, in-house to spare every process
    the 0.25 s and 21 MB of importing ``scipy.optimize``); the standard
    oracle for "spectrum equals targets union untouched modes" claims.
    """
    a = np.asarray(a, dtype=complex).ravel()
    return float(np.abs(a - pair_spectra(a, b)).max(initial=0.0))


def _packed_left_basis(vr, first, second):
    """V^-H for the complex eigenbasis V of a real matrix, from one real inverse.

    Column ``second[p]`` of V is the conjugate of column ``first[p]``, pair
    by pair, and every other column is real.  So V = V_r S, where the packed
    basis V_r holds Re v_j in column j = first[p] and Im v_j in column
    k = second[p], and S is [[1, 1], [i, -i]] on each pair, the identity
    elsewhere.  With R = V_r^-1, V^-1 = S^-1 R has rows (R_j - i R_k)/2 and
    (R_j + i R_k)/2 on each pair and R_r elsewhere; its conjugate is written
    row by row and returned transposed.  A singular V_r raises LinAlgError.
    """
    n = vr.shape[0]
    packed = vr.real.copy()
    packed[:, second] = vr.imag[:, first]
    r = np.linalg.inv(packed)
    del packed
    half = np.ones(n)
    half[first] = half[second] = 0.5
    r *= half[:, None]
    conj_inverse = np.zeros((n, n), dtype=complex)
    conj_inverse.real = r
    for j, k in zip(first, second):
        conj_inverse.real[k] = r[j]
        conj_inverse.imag[j] = r[k]
        np.negative(r[k], out=conj_inverse.imag[k])
    return conj_inverse.T


def _biorthogonality_residual(vl, vr):
    """max |W^H V - I| over the entries, 64 rows of W^H V at a time, so that
    no n x n product is held."""
    err = 0.0
    for s in range(0, vr.shape[1], 64):
        gram = vl[:, s:s + 64].conj().T @ vr
        rows = np.arange(gram.shape[0])
        gram[rows, s + rows] -= 1.0
        err = max(err, float(np.abs(gram).max()))
    return err


def _sine_columns(n, modes):
    """The orthonormal eigenvectors sqrt(2 / (n + 1)) sin(j q pi / (n + 1)),
    j = 1 ... n, of the n x n T = tridiag(1, 0, 1), for the 0-based ``modes``
    q - 1, as F-ordered n x len(modes) columns.  The sine's argument is
    reduced exactly, in integers, as pi ((j q) mod 2(n + 1)) / (n + 1), so
    the entries are read from a table of 2(n + 1) scaled sines."""
    table = np.sin(np.arange(2 * (n + 1)) * (np.pi / (n + 1))) * math.sqrt(2.0 / (n + 1))
    qj = np.outer(modes + 1, np.arange(1, n + 1))
    qj %= 2 * (n + 1)
    return table[qj].T


def _sine_grid(m):
    """(a, b), two k x k arrays, when the real N x N ``m`` is a k x k grid
    (k >= 1) of equal n x n blocks (n >= 2), block (i, j) exactly
    a_ij I + b_ij T with T = tridiag(1, 0, 1); None for any other matrix.

    n is read from the first zero of the first superdiagonal, the seam that
    ends the first diagonal block (n = N when there is none).  Every block
    is then tested exactly: it is constant along its three diagonals, its
    subdiagonal equals its superdiagonal, and it has no nonzero entry off
    them, which holds when ``m`` has as many nonzero entries as the blocks'
    three diagonals together, counted with no N x N temporary.
    """
    size = m.shape[0]
    seams = np.flatnonzero(np.diagonal(m, 1) == 0)
    n = int(seams[0]) + 1 if seams.size else size
    if n < 2 or size % n:
        return None
    k = size // n
    s0, s1 = m.strides
    blocks = np.lib.stride_tricks.as_strided(m, (k, k, n, n), (n * s0, n * s1, s0, s1),
                                             writeable=False)
    d, e, f = (np.diagonal(blocks, offset, 2, 3) for offset in (0, 1, -1))
    if ((f != e).any() or (d != d[..., :1]).any() or (e != e[..., :1]).any()
            or np.count_nonzero(m) != np.count_nonzero(d) + 2 * np.count_nonzero(e)):
        return None
    return d[..., 0], e[..., 0]


def _grid_eigenpairs(m, grid, hermitian):
    """Unsorted eigenvalues and the small bases (X, X^-1) of a matrix that
    ``_sine_grid`` reads as ``grid`` = (a, b), X^-1 None when ``m`` is
    Hermitian; None when a small basis X_q is singular or of 1-norm
    condition above 1e12, or, for a Hermitian ``m``, complex or not
    orthonormal to 1e-12.

    T s_q = t_q s_q with the sine vectors s_q (``_sine_columns``) and
    t_q = 2 - 4 sin^2(q pi / (2(n + 1))), so the grid acts on mode q as
    K_q = (a + 2b) - 4 sin^2(q pi / (2(n + 1))) b, for either sign of b.
    One batched ``eig``, K_q X_q = X_q diag(mu_q), and one batched ``inv``
    give eigenpair q k + r: mu_q[r] with right vector X_q[:, r] (x) s_q and
    left X_q^-H[:, r] (x) s_q, so V = (I_k (x) S) X and V^-H = (I_k (x) S)
    X^-H exactly.  A Hermitian grid has symmetric K_q; their orthonormal
    X_q make V orthonormal, its own left basis.
    """
    a, b = grid
    n = m.shape[0] // a.shape[0]
    sin2 = np.sin(np.arange(1, n + 1) * (np.pi / (2 * (n + 1)))) ** 2
    mu, x = np.linalg.eig((a + 2.0 * b) - 4.0 * b * sin2[:, None, None])
    if hermitian:
        # eig's X_q of a symmetric K_q is orthonormal unless two of its
        # eigenvalues are close
        gram = np.swapaxes(x, 1, 2) @ x - np.eye(a.shape[0])
        orthonormal = np.isrealobj(x) and np.abs(gram).max() <= 1e-12
        return (mu.ravel(), (x, None)) if orthonormal else None
    try:
        x_inv = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        return None
    # eig stores each conjugate pair adjacent, the positive imaginary part
    # first, with exactly conjugate vectors; the pair's rows of X^-1 are
    # conjugate too, and are made so exactly
    q, r = np.nonzero(mu.imag > 0)
    x_inv[q, r + 1] = x_inv[q, r].conj()
    cond = np.abs(x).sum(axis=1).max(axis=1) * np.abs(x_inv).sum(axis=1).max(axis=1)
    if not np.all(cond <= 1e12):
        return None
    return mu.ravel(), (x, x_inv)


def _grid_right_basis(order, x, x_inv):
    """V from ``_grid_eigenpairs``'s factors, its columns in ``order``, with
    what V^-H takes: the n x N sine columns of the sorted modes and the
    k x N coefficients X^-H (both None when ``x_inv`` is).  Sorted column c
    is mode q, eigenvector r of K_q, where order[c] = q k + r."""
    k = x.shape[1]
    q, r = np.divmod(order, k)
    sines = _sine_columns(order.size // k, q)
    vr = _grid_basis(sines, x[q, :, r].T)
    return (vr, None, None) if x_inv is None else (vr, sines, x_inv[q, r].conj().T)


def _grid_basis(sines, coefficients):
    """The N x N basis whose column c is coefficients[:, c] (x) sines[:, c],
    for k x N ``coefficients`` and n x N ``sines``: block row i is
    ``sines`` with column c scaled by coefficients[i, c], written in place.
    It is F-ordered, as ``eig``'s bases are, so that the phase rule's
    column-wise ``argmax`` makes no transposed copy."""
    n, size = sines.shape
    out = np.empty((size, size), dtype=coefficients.dtype, order="F")
    for i, row in enumerate(coefficients):
        np.multiply(sines, row, out=out[i * n:(i + 1) * n])
    return out


def spectrum(op):
    """Full eigendecomposition with a biorthogonal left basis.

    Eigenvalues are sorted by decreasing real part (imaginary part descending
    as tie-break); each right vector has unit norm, its largest component real
    positive.  Eigenvalues with ``Re >= -1e-9`` are counted unstable.  A
    Hermitian matrix (equal to its conjugate transpose entry for entry) has
    its eigenvalues stored as complex and one basis for both sides, of
    condition 1.0 when max |V^H V - I| <= 1e-8 (a bound of 1 + n 1e-8), else
    defective with its condition measured.  A real k x k grid (k >= 1) of
    equal blocks a_ij I + b_ij T, T = tridiag(1, 0, 1) (``_sine_grid``),
    Hermitian or not, is decomposed in closed form: the discrete sine
    transform leaves one batched ``eig`` of k x k matrices and, when the grid
    is not Hermitian, one batched ``inv`` (``_grid_eigenpairs``).  The
    3-point Dirichlet Laplacian and its translates are such grids (k = 1),
    and so are the coupled diffusion blocks and the advection-free coupled
    block with a scalar profile (k = 2).  The bases are written in sorted
    order, real when every eigenvalue is, V^-H with the unit factors of V's
    phase rule; a small basis that is singular, of condition above 1e12 or,
    on a Hermitian grid, not orthonormal leaves the matrix to ``eigh`` or
    ``eig``.  Any other Hermitian matrix goes to ``eigh``; any other matrix
    to ``eig``, which gives the right basis V, the left one being V^-H.  For
    a real matrix with complex eigenvectors V^-H comes from the inverse of
    the real packed basis (``_packed_left_basis``), the conjugate pairs read
    where ``eig`` returns them adjacent and exactly conjugate; otherwise from
    the inverse of V.
    Either way its 1-norm condition ||V||_1 ||V^-1||_1 is exact.  A singular
    V, or one of condition above 1e12, makes the matrix defective (numerically
    non-diagonalizable): it is flagged and the left basis is taken from the
    adjoint eigenproblem, least-squares biorthogonalized.  A warning-carrying
    flag is raised when the basis condition exceeds 1e8, defective or not.
    Every measured condition is a 1-norm condition, within a factor n of the
    2-norm one.  No complex n x n array is formed beyond the two bases and
    ``eig``'s own output (none at all on the grid route).  Warnings name the
    first caller outside this module.
    """
    m = operator_matrix(op)
    hermitian = np.array_equal(m, m.conj().T)
    real = np.isrealobj(m)
    grid = _sine_grid(m) if real else None
    try:
        # the grid's eigenvalues and factors, or None where a small basis
        # fails its check and eigh or eig takes the matrix
        grid = _grid_eigenpairs(m, grid, hermitian) if grid is not None else None
        if grid is not None:
            w, grid = grid
        else:
            w, vr = np.linalg.eigh(m) if hermitian else np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigen iteration failed: {exc}") from exc
    # eigenvalues complex also when numpy returns a real spectrum as float64
    w = w.astype(complex)
    if not np.all(np.isfinite(w)):
        raise EigenDecompositionError("eigen iteration returned non-finite eigenvalues")
    order = np.lexsort((-w.imag, -w.real))
    pairs = sines = None
    if grid is not None:
        vr, sines, left = _grid_right_basis(order, *grid)
        del grid        # the small bases go before the phase rule's temporary
    else:
        if real and np.iscomplexobj(vr):
            # LAPACK returns each conjugate pair of a real matrix adjacent,
            # the positive imaginary part first; their sorted positions
            position = np.empty_like(order)
            position[order] = np.arange(order.size)
            first = np.flatnonzero(w.imag > 0)
            pairs = position[first], position[first + 1]
        vr = vr[:, order]
    w = w[order]

    # deterministic phase: make the largest-magnitude component of each right
    # vector real positive (keeps conjugate pairs of real matrices conjugate)
    pivot = vr[np.argmax(np.abs(vr), axis=0), np.arange(vr.shape[1])]
    phase = np.abs(pivot) / np.where(pivot == 0, 1, pivot)
    vr *= phase

    defective = False
    if hermitian:
        vl = vr
    else:
        try:
            if sines is not None:
                # V^-H, its columns scaled by the unit factors of V's phase
                # rule; the sines go before the condition's N x N temporary
                vl = _grid_basis(sines, left * phase)
                del sines, left
            elif pairs is None:
                inverse = np.linalg.inv(vr)
                vl = np.conjugate(inverse, out=inverse).T
            else:
                vl = _packed_left_basis(vr, *pairs)
            # ||V^-1||_1 = ||V^-H||_inf
            cond_estimate = float(np.linalg.norm(vr, 1) * np.linalg.norm(vl, np.inf))
            if not cond_estimate <= 1e12:
                raise np.linalg.LinAlgError("eigenvector basis condition above 1e12")
        except np.linalg.LinAlgError:
            defective = True
            _warn("matrix is numerically defective; left basis taken from the adjoint "
                  "eigenproblem with least-squares biorthogonalization")
            # no pairing of the adjoint eigenvalues is needed: reordering the
            # columns of vl_adj by a permutation P turns pinv(gram)^H into
            # P^T pinv(gram)^H, so the product below does not change
            vl_adj = np.linalg.eig(m.conj().T)[1]
            vl = vl_adj @ np.linalg.pinv(vl_adj.conj().T @ vr).conj().T

    biorth_err = _biorthogonality_residual(vl, vr)
    if biorth_err > 1e-8 and not defective:
        defective = True
        _warn(f"biorthogonality residual {biorth_err:.3e} > 1e-8; matrix treated as defective")
    if defective:
        cond_estimate = float(np.linalg.cond(vr, 1))
    elif hermitian:
        cond_estimate = 1.0
    ill = cond_estimate > _COND_FLAG
    if ill:
        _warn(f"eigenvector basis condition {cond_estimate:.3e} > 1e8")

    return SpectralData(
        eigenvalues=_read_only(w),
        right_vectors=_read_only(vr),
        left_vectors=_read_only(vl),
        unstable_count=int(np.sum(w.real >= -1e-9)),
        cond_estimate=cond_estimate,
        ill_conditioned=bool(ill),
        defective=bool(defective),
    )


def resolvent(op, lam):
    """(lam I - op)^{-1} with a spectral-distance guard and residual check.

    ``lam`` within 1e-10 of an eigenvalue raises SingularityError; a solve
    residual ||(lam I - op) R - I|| above 1e-8 raises NumericalError.
    """
    m = operator_matrix(op)
    lam = complex(lam)
    evs = decomposition(op).eigenvalues
    gap = np.abs(evs - lam)
    i = int(np.argmin(gap))
    if gap[i] <= 1e-10:
        raise SingularityError(
            f"lambda = {lam} lies within 1e-10 of eigenvalue {evs[i]}")
    n = m.shape[0]
    shifted = lam * np.eye(n) - m
    try:
        r = np.linalg.solve(shifted, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"resolvent solve singular at lambda = {lam}") from exc
    err = shifted @ r - np.eye(n)
    # ||X||_2 <= ||X||_F: a Frobenius norm below half the threshold (half, so
    # that rounding in either norm cannot flip the decision) settles the
    # check, and only a larger one pays for the SVD
    if np.linalg.norm(err) > 0.5e-8:
        resid = spectral_norm(err)
        if resid > 1e-8:
            raise NumericalError(
                f"resolvent residual {resid:.3e} exceeds 1e-8 at lambda = {lam}")
    return Operator(r, label=f"resolvent({lam})")


# Pade approximants r_m of exp (Higham 2005, SIAM J. Matrix Anal. Appl.
# 26:1179, table 2.3): (degree m, largest 1-norm at which r_m meets unit
# roundoff, coefficients b_0 ... b_m).  Degree 13 serves every larger norm
# after scaling by a power of 2.
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                               1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                               10559470521600.0, 670442572800.0, 33522128640.0,
                               1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def expm(a):
    """Matrix exponential of a square float or complex array.

    Scaling and squaring with the Pade approximants of Higham (2005): the
    lowest degree of 3, 5, 7, 9 whose bound the 1-norm meets, else degree 13
    on a / 2^s, squared s times, with s the least that brings the 1-norm
    under 5.37.  r_m = (V - U)^{-1} (V + U) with U the odd and V the even
    part of the numerator.  A non-finite norm gives a NaN result.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float))
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    for m, theta, b in _PADE[:-1]:
        if norm <= theta:
            powers = [eye, a2]          # A^0, A^2, ..., A^(m-1)
            while len(powers) < (m + 1) // 2:
                powers.append(powers[-1] @ a2)
            u = a @ sum(b[2 * k + 1] * pk for k, pk in enumerate(powers))
            v = sum(b[2 * k] * pk for k, pk in enumerate(powers))
            return np.linalg.solve(v - u, v + u)
    _, theta, b = _PADE[-1]
    s = max(0, math.ceil(math.log2(norm / theta)))
    a, a2 = a / 2.0**s, a2 / 4.0**s
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def semigroup_apply(op, t):
    """Matrix exponential e^{op t} (``expm``: scaling and squaring, Pade degree 13)."""
    if not np.isfinite(t):
        raise UsageError("time must be finite")
    if t < 0:
        raise UsageError(f"semigroup time must be nonnegative, got {t}")
    m = operator_matrix(op)
    if t == 0:
        return Operator(np.eye(m.shape[0], dtype=m.dtype), label="identity")
    with np.errstate(over="ignore", invalid="ignore"):
        e = expm(m * t)
    if not np.all(np.isfinite(e.real)) or (np.iscomplexobj(e) and not np.all(np.isfinite(e.imag))):
        raise SaturationError(
            f"matrix exponential overflowed at t = {t} "
            f"(abscissa {spectral_abscissa(op):.3e}, ||op t|| ~ {np.abs(m).max() * t:.3e})")
    return Operator(e, label=f"exp(t={t})")


def _power_factors(op, theta):
    """(V, lambda^theta, W^H) of ``op``'s decomposition, under the guards of
    ``real_power``: real arrays when the bases and the eigenvalues are real."""
    sp = decomposition(op)
    if np.min(sp.eigenvalues.real) <= 0.0:
        raise TranslationRequiredError(
            "spectrum touches the closed left half-plane "
            f"(min Re = {np.min(sp.eigenvalues.real):.3e}); translate the operator first")
    if sp.cond_estimate > _COND_FLAG:
        raise IllConditionedBasisError(
            f"eigenvector basis condition {sp.cond_estimate:.3e} > 1e8; refusing spectral calculus")
    lam, v, w = sp.eigenvalues, sp.right_vectors, sp.left_vectors.conj().T
    if np.isrealobj(v) and np.isrealobj(w) and not lam.imag.any():
        lam = lam.real
    return v, np.power(lam, theta), w


def real_power(op, theta):
    """Real power V diag(lambda^theta) V^{-1} by spectral calculus, any real theta.

    Formed in real arithmetic (a float64 result) when the biorthogonal bases
    and the eigenvalues are real, as for a real symmetric operator.  Raises
    TranslationRequiredError unless the spectrum lies in the open right
    half-plane, and IllConditionedBasisError above eigenbasis condition 1e8.
    """
    v, d, w = _power_factors(op, theta)
    return Operator((v * d) @ w, label=f"power({theta})")


def apply_power(op, theta, x):
    """``real_power(op, theta) @ x`` as V diag(lambda^theta) (W^H x), with the
    same guards, never forming the n x n power: for the few columns of a
    lifting that is two thin products in place of a cubic one."""
    v, d, w = _power_factors(op, theta)
    return v @ (d[:, None] * (w @ x))


def _reflected(op, k, label, sp=None):
    """The operator k I - op (-op for k = 0).

    k I - op is formed as 0 - op with k added on the diagonal, the bits of
    ``k * np.eye(n) - op`` (signed zeros included) with no n x n identity.
    With ``sp``, the decomposition of ``op``, it carries the decomposition
    read from it, with no second eigensolve: eigenvalues k - lambda and the
    same bases, both in reversed order (which is again decreasing real part,
    imaginary part descending), and the same condition and flags.
    """
    m = operator_matrix(op)
    if k:
        shifted = np.subtract(0.0, m)
        shifted.flat[::m.shape[0] + 1] += k
    else:
        shifted = -m
    out = Operator(shifted, label=label)
    del shifted         # the Operator holds its own copy; free this one first
    if sp is not None:
        w = _frozen_array(k - sp.eigenvalues[::-1])
        vr = _frozen_array(sp.right_vectors[:, ::-1])
        vl = vr if sp.left_vectors is sp.right_vectors else _frozen_array(sp.left_vectors[:, ::-1])
        # seed the cached property, as its first use would have stored it
        vars(out)["spectral"] = replace(sp, eigenvalues=w, right_vectors=vr, left_vectors=vl,
                                        unstable_count=int(np.sum(w.real >= -1e-9)))
    return out


def translate_to_positive(op):
    """Translation k I - op with k = max(0, spectral abscissa) + 1.

    Returns (k, translated operator); the translated spectrum lies in the
    right half-plane with at least 1 to spare.  The translated operator
    carries a decomposition read from ``op``'s (``_reflected``).
    """
    sp = decomposition(op)
    k = max(0.0, float(sp.eigenvalues[0].real)) + 1.0
    return k, _reflected(op, k, f"translated(k={k:g})", sp)


def compose_closed_loop(drift, green, feedback, interior_B=None, *,
                        generator_A=None, perturbation_Ao=None):
    """Assemble the closed loop  drift (I - G F) + B  keeping all factors.

    ``generator_A``/``perturbation_Ao`` record the split ``drift =
    generator_A + perturbation_Ao`` used by the adjoint decomposition check.
    By default it is ``drift - kI`` plus ``kI``, with k from
    ``translate_to_positive``, so the generator's sign-flip has its spectrum
    in the right half-plane also when the drift is unstable.  ``feedback`` is
    a FeedbackLaw, a matrix, or None for F = 0; the loop keeps its realized
    matrix.
    """
    drift = drift if isinstance(drift, Operator) else Operator(drift)
    if not isinstance(green, GreenMap):
        raise UsageError("green must be a GreenMap (exponent gamma required)")
    n = drift.dim
    if green.state_dim != n:
        raise DimensionError(
            f"green map has state dimension {green.state_dim}, operator has {n}")
    if feedback is None:
        fmat = np.zeros((green.input_dim, n))
    else:
        fmat = np.atleast_2d(np.asarray(getattr(feedback, "as_matrix", feedback)))
        if fmat.shape != (green.input_dim, n):
            raise DimensionError(f"feedback matrix maps state ({n}) to boundary inputs "
                                 f"({green.input_dim}); got {fmat.shape}")
    interior_B, generator_A, perturbation_Ao = (
        x if x is None or isinstance(x, Operator) else Operator(x)
        for x in (interior_B, generator_A, perturbation_Ao))
    if interior_B is not None and interior_B.dim != n:
        raise DimensionError(f"interior term is {interior_B.dim}x{interior_B.dim}, expected {n}x{n}")
    if generator_A is None:
        if perturbation_Ao is not None:
            raise UsageError("perturbation_Ao given without generator_A")
        k, hat = translate_to_positive(drift)
        generator_A = _reflected(hat, 0.0, f"drift - {k:g} I", hat.spectral)
        perturbation_Ao = Operator(k * np.eye(n), label=f"{k:g} I")
    else:
        split = generator_A.entries + (perturbation_Ao.entries if perturbation_Ao is not None else 0.0)
        err = np.abs(split - drift.entries).max()
        if err > 1e-10 * max(np.abs(drift.entries).max(), 1.0):
            raise IdentityViolationError(
                f"generator_A + perturbation_Ao differs from drift by {err:.3e}")

    composed = drift.entries @ (np.eye(n) - green.entries @ fmat)
    if interior_B is not None:
        composed = composed + interior_B.entries
    return ClosedLoop(
        generator_A=generator_A,
        perturbation_Ao=perturbation_Ao,
        drift_A=drift,
        green=green,
        feedback_matrix=_frozen_array(fmat),
        interior_B=interior_B,
        composed=Operator(composed, label="closed loop"),
    )


def adjoint_decomposition_residual(cl):
    """Relative residual of the three-term adjoint decomposition.

    The B-less part satisfies (M(I-GF))^H = -A^H + [F^H G^H (A^H)^g](A^H)^(1-g)
    + (I-GF)^H (A^(-(1-e)) Ao)^H (A^H)^(1-e) with g the Green exponent and e
    the perturbation exponent.  The powers are ``real_power``s of the positive
    part -generator_A, so its spectrum must lie in the right half-plane.
    Returns inf where ``real_power`` refuses its eigenbasis (condition above
    1e8): every power comes from that one basis and the identity only
    multiplies them back together, so the residual would read 0 on any basis.
    """
    n = cl.dim
    # with the generator's decomposition, where it holds one (the default
    # split's, read from the drift's), else -A is decomposed on first use
    a_pos = _reflected(cl.generator_A, 0.0, "", vars(cl.generator_A).get("spectral"))
    gamma = cl.green.gamma
    eps = 0.5   # a first-order perturbation is relatively bounded w.r.t. A^(1/2)
    try:
        a_g, a_1mg, a_1me, a_m1me = (real_power(a_pos, t).entries
                                     for t in (gamma, 1.0 - gamma, 1.0 - eps, -(1.0 - eps)))
    except IllConditionedBasisError:
        return np.inf

    fmat = cl.feedback_matrix
    g = cl.green.entries
    i_gf = np.eye(n) - g @ fmat
    ao = cl.perturbation_Ao.entries if cl.perturbation_Ao is not None else np.zeros((n, n))

    term1 = -a_pos.entries.conj().T
    term2 = (fmat.conj().T @ g.conj().T @ a_g.conj().T) @ a_1mg.conj().T
    term3 = i_gf.conj().T @ (a_m1me @ ao).conj().T @ a_1me.conj().T
    three_term = term1 + term2 + term3

    bless_adj = (cl.drift_A.entries @ i_gf).conj().T
    denom = max(spectral_norm(bless_adj), 1e-300)
    return float(spectral_norm(three_term - bless_adj) / denom)


def resolvent_perturbation_residual(cl, lams):
    """Largest relative residual of R(lam, A_F) = [I + R(lam,M) M G F]^{-1} R(lam,M)
    over ``lams``, one point or several.

    A_F here is the B-less part drift (I - GF), ``cl.feedback_part``; each lam
    must lie in the resolvent set of both operators, at least 1e-6 from either
    spectrum.  Both spectra are the operators' cached decompositions.
    """
    n = cl.dim
    drift = cl.drift_A.entries
    parts = (("drift operator", cl.drift_A), ("closed loop", cl.feedback_part))
    gf = cl.green.entries @ cl.feedback_matrix
    residuals = []
    for lam in np.atleast_1d(lams):
        lam = complex(lam)
        resolvents = []
        for name, op in parts:
            evs = op.spectral.eigenvalues
            gap = np.abs(evs - lam)
            i = int(np.argmin(gap))
            if gap[i] <= 1e-6:
                raise SingularityError(
                    f"lambda = {lam} within 1e-6 of {name} eigenvalue {evs[i]}")
            resolvents.append(resolvent(op, lam).entries)
        r_drift, r_af = resolvents
        lhs_factor = np.eye(n) + r_drift @ drift @ gf
        try:
            rhs = np.linalg.solve(lhs_factor, r_drift)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"[I + R(lam,M) M G F] singular at lambda = {lam}") from exc
        residuals.append(float(spectral_norm(rhs - r_af) / max(spectral_norm(r_af), 1e-300)))
    return max(residuals)


def decay_estimate(op, t_grid):
    """Fit ||e^{op t}|| <= M e^{-delta t} on the tail half of a time grid.

    Returns (M, delta) from a least-squares fit of log-norm against t over the
    second half of the grid (transients excluded).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 4:
        raise UsageError("decay fit needs at least 4 time points")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise UsageError("time grid must be positive and strictly increasing")
    norms = np.array([spectral_norm(semigroup_apply(op, ti).entries) for ti in t])
    if np.any(norms <= 0):
        raise NumericalError("semigroup norm vanished; cannot fit decay")
    tail = t.size // 2
    slope, intercept = np.polyfit(t[tail:], np.log(norms[tail:]), 1)
    return float(np.exp(intercept)), float(-slope)
