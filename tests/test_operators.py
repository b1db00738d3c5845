import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la

from stabreg import operators as ops
from stabreg.errors import (
    DimensionError,
    IllConditionedBasisError,
    NumericalError,
    SingularityError,
    TranslationRequiredError,
    UsageError,
)
from stabreg.coupled import CoupledConfig, coupled_split
from stabreg.heat import HeatConfig, build_heat_operator, fd_eigenvalues, heat_split, laplacian
from stabreg.operators import GreenMap, Operator


def stable_random(n, seed, shift=2.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m - (np.max(la.eigvals(m).real) + shift) * np.eye(n)


# ---------------------------------------------------------------- types

def test_operator_must_be_square():
    for entries in (np.zeros((2, 3)), np.zeros((0, 0))):
        with pytest.raises(DimensionError):
            Operator(entries)


def test_operator_rejects_nonfinite():
    with pytest.raises(UsageError):
        Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_operator_entries_immutable():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_green_map_gamma_range():
    with pytest.raises(UsageError):
        GreenMap(np.ones((3, 1)), gamma=1.0)
    with pytest.raises(UsageError):
        GreenMap(np.ones((3, 1)), gamma=0.0)


# ---------------------------------------------------------------- spectrum

def test_spectrum_fd_laplacian_closed_form():
    cfg = HeatConfig(n=24, c2=9.1)
    sp = ops.spectrum(build_heat_operator(cfg))
    k = np.arange(1, 25)
    exact = np.sort(cfg.c2 - (4 / cfg.h**2) * np.sin(k * np.pi * cfg.h / 2) ** 2)[::-1]
    assert np.abs(sp.eigenvalues.real - exact).max() <= 1e-8
    assert np.abs(sp.eigenvalues.imag).max() <= 1e-10


def test_spectrum_diag_indefinite():
    sp = ops.spectrum(np.diag([1.0, -1.0]))
    assert sp.unstable_count == 1
    assert np.allclose(sp.eigenvalues, [1.0, -1.0])
    assert np.allclose(np.abs(sp.right_vectors), np.eye(2))
    assert np.abs(sp.left_vectors.conj().T @ sp.right_vectors - np.eye(2)).max() <= 1e-12


def test_spectrum_heat_unstable_eigenvalue():
    # the advection-free drift is exactly symmetric, so it takes the Hermitian
    # path: closed-form spectrum, its orthonormal basis as the left basis, no
    # warning
    cfg = HeatConfig(n=64, c2=16.0)
    drift = build_heat_operator(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = ops.spectrum(drift)
    assert sp.unstable_count == 1
    exact = np.sort(fd_eigenvalues(cfg))[::-1]
    assert np.all(np.abs(sp.eigenvalues - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))
    assert np.array_equal(sp.left_vectors, sp.right_vectors)
    assert abs(sp.cond_estimate - 1.0) <= 1e-12
    assert not sp.defective and not sp.ill_conditioned
    assert abs(ops.spectral_abscissa(drift) - exact[0]) <= 1e-10 * max(1.0, abs(exact[0]))


def shifted_laplacian(n, c2=16.0):
    """The heat operator Laplacian + c2 I at any n, as the liftings write it."""
    m = laplacian(n)
    m.flat[::n + 1] += c2
    return m


def toeplitz_tridiagonal(n, d, e):
    return np.diag(np.full(n, d)) + np.diag(np.full(n - 1, e), 1) + np.diag(np.full(n - 1, e), -1)


# real symmetric tridiagonal matrices that split into blocks constant along
# both diagonals.  The k x k grids of equal blocks take the closed-form
# (discrete sine transform) route of ``spectrum``; the 1 x 1, diagonal and
# unequal-block ones (EIGH_CASES) go to eigh
CLOSED_FORM_CASES = {
    **{f"heat-{n}": lambda n=n: shifted_laplacian(n) for n in (1, 2, 25, 26, 32, 512)},
    "generator-512": lambda: -laplacian(512),
    # nu = kappa and c2_f = c2_h: every eigenvalue is double, one per block
    "coupled-diffusion": lambda: coupled_split(CoupledConfig(n=24))[0].entries,
    "coupled-generator": lambda: -coupled_split(CoupledConfig(n=24))[2].entries,
    "diag-repeated": lambda: np.diag([2.0, 2.0, -1.0]),
    "two-blocks": lambda: la.block_diag(toeplitz_tridiagonal(5, 3.0, 1.5),
                                        toeplitz_tridiagonal(7, -1.0, 0.25)),
    "negative-e": lambda: la.block_diag(toeplitz_tridiagonal(9, 2.0, -0.7), [[4.0]],
                                        toeplitz_tridiagonal(4, 1.0, 3.0)),
}
EIGH_CASES = {"heat-1", "diag-repeated", "two-blocks", "negative-e"}


def counting(monkeypatch, module, name, calls):
    solver = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return solver(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def eig_sizes(monkeypatch):
    """The last dimension of every array that np.linalg.eig is called on."""
    sizes, eig = [], np.linalg.eig

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eig", counted)
    return sizes


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_closed_form_spectrum_against_lapack(case, monkeypatch):
    # LAPACK is the independent oracle: the closed form and fd_eigenvalues
    # share one formula.  A grid makes one batched eig of its k x k
    # matrices (k <= 2 here) and no full-size eig or eigh
    m = CLOSED_FORM_CASES[case]()
    n = m.shape[0]
    oracle = np.linalg.eigvalsh(m)[::-1]
    calls = []
    counting(monkeypatch, np.linalg, "eigh", calls)
    counting(monkeypatch, ops, "_grid_eigenpairs", calls)
    sizes = eig_sizes(monkeypatch)
    sp = ops.spectrum(m)
    if case in EIGH_CASES:
        assert ops._sine_grid(m) is None and calls == ["eigh"] and sizes == []
    else:
        assert calls == ["_grid_eigenpairs"] and len(sizes) == 1 and sizes[0] <= 2
    scale = np.linalg.norm(m, 2)
    lam, v = sp.eigenvalues, sp.right_vectors
    assert np.all(lam.imag == 0.0) and np.all(np.diff(lam.real) <= 0.0)
    assert np.abs(lam.real - oracle).max() <= 1e-13 * scale
    assert v.dtype == np.float64 and sp.left_vectors is v
    assert np.linalg.norm(m @ v - v * lam.real, 2) <= 1e-13 * scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-13
    assert sp.cond_estimate == 1.0 and not sp.defective and not sp.ill_conditioned
    # the phase rule: the largest-magnitude entry of each vector, the first
    # one on a tie, is positive
    cols = np.arange(n)
    assert np.all(v[np.argmax(np.abs(v), axis=0), cols] > 0.0)


def test_closed_form_declines_other_hermitian_matrices(monkeypatch):
    base = shifted_laplacian(12)
    off_band = base.copy()
    off_band[0, 5] = off_band[5, 0] = 1.0
    uneven = base.copy()
    uneven[3, 3] += 1.0
    bumped = base.copy()
    bumped[4, 5] = bumped[5, 4] = np.nextafter(base[4, 5], np.inf)
    hermitian = base.astype(complex)
    hermitian[2, 3] += 0.5j
    hermitian[3, 2] -= 0.5j
    for m in (off_band, uneven, bumped, hermitian):
        assert np.array_equal(m, m.conj().T)
        if np.isrealobj(m):
            assert ops._sine_grid(m) is None
        calls = []
        with monkeypatch.context() as patch:
            counting(patch, np.linalg, "eigh", calls)
            counting(patch, ops, "_grid_eigenpairs", calls)
            sp = ops.spectrum(m)
        assert calls == ["eigh"]
        oracle = np.linalg.eigvalsh(m)[::-1]
        assert np.abs(sp.eigenvalues.real - oracle).max() <= 1e-13 * np.linalg.norm(m, 2)


def sine_grid(a, b, n):
    # the k x k grid of n x n blocks a_ij I + b_ij tridiag(1, 0, 1)
    return np.kron(a, np.eye(n)) + np.kron(b, toeplitz_tridiagonal(n, 0.0, 1.0))


# real non-symmetric k x k grids of blocks a I + b tridiag(1, 0, 1): the
# coupled open-loop block (k = 2) and a synthetic k = 3 grid, each with its k
GRID_CASES = {
    **{f"coupled-{n}": (lambda n=n: CoupledConfig(n=n).operator.entries, 2)
       for n in (8, 12, 16, 256)},
    # nu != kappa and c2_f != c2_h: every eigenvalue is real
    "coupled-real": (lambda: CoupledConfig(n=16, nu=1.0, kappa=2.0, c2_f=16.0,
                                           c2_h=10.0).operator.entries, 2),
    "synthetic-k3": (lambda: sine_grid(*np.random.default_rng(3).standard_normal((2, 3, 3)), 10),
                     3),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_spectrum_against_lapack(case, monkeypatch):
    # LAPACK's eig of the whole matrix is the oracle; the route itself makes
    # one batched eig of k x k matrices and no full-size one
    build, k = GRID_CASES[case]
    m = build()
    n = m.shape[0]
    oracle_w, oracle_v = np.linalg.eig(m)
    calls = []
    sizes = eig_sizes(monkeypatch)
    counting(monkeypatch, ops, "_grid_eigenpairs", calls)
    sp = ops.spectrum(m)
    assert calls == ["_grid_eigenpairs"] and sizes == [k]
    scale = np.linalg.norm(m, 2)
    lam, v, w = sp.eigenvalues, sp.right_vectors, sp.left_vectors
    # every eigenvalue is next to one of LAPACK's, and the other way round
    gap = np.abs(lam[:, None] - oracle_w[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12 * scale
    assert np.all(np.diff(lam.real) <= 0.0)
    assert v.dtype == w.dtype == oracle_v.dtype
    assert (v.dtype == np.float64) == (case == "coupled-real")
    assert np.linalg.norm(m @ v - v * lam, 2) <= 1e-13 * scale
    assert np.abs(w.conj().T @ v - np.eye(n)).max() <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0, atol=1e-14)
    assert sp.cond_estimate == pytest.approx(np.linalg.cond(v, 1), rel=1e-8)
    assert not sp.defective and not sp.ill_conditioned
    # conjugate eigenvalues carry exactly conjugate vectors on both sides
    for j in np.flatnonzero(lam.imag > 0):
        (partner,) = np.flatnonzero(lam == lam[j].conj())
        assert np.array_equal(v[:, partner], v[:, j].conj())
        assert np.array_equal(w[:, partner], w[:, j].conj())
    cols = np.arange(n)
    pivot = v[np.argmax(np.abs(v), axis=0), cols]
    assert np.all(pivot.imag == 0.0) and np.all(pivot.real > 0.0)


def test_grid_reads_the_block_size_from_the_seams():
    # blocks of 5 in a 3 x 3 grid; the blocks b = 0 keep their seam
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, 3, 3))
    b[:, 1] = 0.0
    m = sine_grid(a, b, 5)
    grid_a, grid_b = ops._sine_grid(m)
    assert np.array_equal(grid_a, a) and np.array_equal(grid_b, b)
    # a zero on the first block's superdiagonal is read as a seam at 1
    assert ops._sine_grid(sine_grid(a, np.zeros((3, 3)), 5)) is None


def grid_declines():
    bumped = CoupledConfig(n=12).operator.entries.copy()
    bumped[0, 1] = np.nextafter(bumped[0, 1], np.inf)
    return {
        "profile": CoupledConfig(n=12, theta_e_profile=np.linspace(0.2, 0.8, 12)).operator.entries,
        "advection": CoupledConfig(n=12, ye_advect=0.5).operator.entries,
        "ulp": bumped,
        # gamma_buoy = 0, nu = kappa, c2_f = c2_h: every K_q is a Jordan block
        "jordan": CoupledConfig(n=12, gamma_buoy=0.0).operator.entries,
        # symmetric, every K_q = a + t_q I with the double eigenvalue of a
        "repeated": sine_grid(np.ones((3, 3)) + np.eye(3), np.eye(3), 6),
    }


@pytest.mark.parametrize("case", ["profile", "advection", "ulp", "jordan", "repeated"])
def test_grid_route_declines(case, monkeypatch):
    # the structural test refuses the first three.  The Jordan case passes
    # it, and its singular small bases send it to eig; the symmetric grid
    # passes it, and eig's non-orthonormal basis of its double eigenvalue
    # sends it to eigh.  Either way the spectrum is that route's, flags and
    # warnings included
    m = grid_declines()[case]
    grid = ops._sine_grid(m)
    assert (grid is None) == (case not in ("jordan", "repeated"))
    if grid is not None:
        assert ops._grid_eigenpairs(m, grid, case == "repeated") is None

    def decompose():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp = ops.spectrum(m)
        return sp, [str(c.message) for c in caught]
    sp, caught = decompose()
    monkeypatch.setattr(ops, "_sine_grid", lambda m: None)
    eig_sp, eig_caught = decompose()
    assert caught == eig_caught and sp.defective == eig_sp.defective
    for field in ("eigenvalues", "right_vectors", "left_vectors"):
        assert np.array_equal(getattr(sp, field), getattr(eig_sp, field))


def test_grid_spectrum_memory_is_its_bases(monkeypatch):
    # the two complex bases, one real N x N temporary of the phase rule and
    # the 1-norm condition, and O(N) beside them: no more than eig's route
    m = CoupledConfig(n=256).operator.entries
    n = m.shape[0]
    small = CoupledConfig(n=8).operator.entries

    def peak():
        ops.spectrum(small)     # first-call allocations of numpy, untraced
        tracemalloc.start()
        try:
            sp = ops.spectrum(m)
            return tracemalloc.get_traced_memory()[1], sp
        finally:
            tracemalloc.stop()
    routed, sp = peak()
    monkeypatch.setattr(ops, "_sine_grid", lambda m: None)
    eig_route, eig_sp = peak()
    assert routed <= (2 * 16 + 8) * n * n + 128 * n
    assert routed <= eig_route

    # and its two unstable eigenpairs are no less accurate than eig's
    def residuals(s):
        lam, v, w = s.eigenvalues[:2], s.right_vectors[:, :2], s.left_vectors[:, :2]
        return np.abs(m @ v - v * lam).max(), np.abs(m.T @ w - w * lam.conj()).max()
    assert sp.unstable_count == eig_sp.unstable_count == 2
    assert all(r <= e for r, e in zip(residuals(sp), residuals(eig_sp)))


def square_laplacian(m, c2):
    """The five-point Laplacian plus c2 I on the m x m interior nodes of the
    unit square, h = 1/(m + 1): an m x m symmetric grid of m x m blocks."""
    lap, eye = laplacian(m), np.eye(m)
    out = np.kron(lap, eye) + np.kron(eye, lap)
    out.flat[::m * m + 1] += c2
    return out


def test_square_laplacian_takes_the_grid_route(monkeypatch):
    # the 2-D operator of the square model at m = 15: one batched eig of its
    # 15 small 15 x 15 matrices, no full-size eig or eigh; LAPACK's eigvalsh
    # and the Kronecker sum of the 1-D sine eigenvalues are the oracles
    m, c2 = 15, 60.0
    h = 1.0 / (m + 1)
    a = square_laplacian(m, c2)
    oracle = np.linalg.eigvalsh(a)[::-1]
    calls = []
    counting(monkeypatch, np.linalg, "eigh", calls)
    counting(monkeypatch, ops, "_grid_eigenpairs", calls)
    sizes = eig_sizes(monkeypatch)
    sp = ops.spectrum(a)
    assert calls == ["_grid_eigenpairs"] and sizes == [m]
    lam, v = sp.eigenvalues, sp.right_vectors
    assert np.all(lam.imag == 0.0)
    assert np.abs(lam.real - oracle).max() <= 1e-13 * np.linalg.norm(a, 2)
    s2 = np.sin(np.arange(1, m + 1) * np.pi * h / 2) ** 2
    exact = np.sort(c2 - (4 / h**2) * (s2[:, None] + s2[None, :]), axis=None)[::-1]
    assert np.all(np.abs(lam.real - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))
    assert v.dtype == np.float64 and sp.left_vectors is v
    assert np.abs(v.T @ v - np.eye(m * m)).max() <= 1e-13
    assert sp.cond_estimate == 1.0 and not sp.defective


def test_symmetric_grid_memory_is_its_basis():
    # the heat translate at n = 512 on the grid route: its one real basis
    # and the phase rule's real temporary, no more at the peak than the
    # 2.07 N^2 float64 of the tridiagonal sine route it replaced
    n = 512
    m = shifted_laplacian(n)
    ops.spectrum(shifted_laplacian(8))     # first-call allocations of numpy, untraced
    tracemalloc.start()
    try:
        sp = ops.spectrum(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.right_vectors.dtype == np.float64 and sp.left_vectors is sp.right_vectors
    assert peak <= 2.07 * 8 * n * n


def test_spectrum_biorthogonality_nonsymmetric():
    m = stable_random(12, 7)
    sp = ops.spectrum(m)
    gram = sp.left_vectors.conj().T @ sp.right_vectors
    assert np.abs(gram - np.eye(12)).max() <= 1e-8


def test_spectrum_hermitian_test_is_exact(monkeypatch):
    # a symmetric matrix with one off-diagonal entry moved by one ulp is not
    # Hermitian, so it decomposes with both Hermitian routes (eigh and the
    # closed form, which the symmetric matrix takes) unavailable;
    # spectral_abscissa reads the same decomposition
    m = -heat_split(HeatConfig(n=16, c2=9.1))[0].entries
    def refuse(*args, **kwargs):
        raise AssertionError("Hermitian solver called")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(ops, "_grid_eigenpairs", refuse)
    with pytest.raises(AssertionError, match="Hermitian solver"):
        ops.spectrum(m)
    with pytest.raises(AssertionError, match="Hermitian solver"):
        ops.spectral_abscissa(m)
    bumped = m.copy()
    bumped[0, 1] = np.nextafter(bumped[0, 1], np.inf)
    sp = ops.spectrum(bumped)
    assert not np.array_equal(sp.left_vectors, sp.right_vectors)
    assert np.abs(sp.left_vectors.conj().T @ sp.right_vectors - np.eye(16)).max() <= 1e-8
    assert ops.spectral_abscissa(bumped) == pytest.approx(sp.eigenvalues[0].real, rel=1e-12)


def test_spectrum_flags_an_ill_conditioned_hermitian_basis(monkeypatch):
    # an orthonormal eigh basis has condition 1.0 with no SVD; a basis that
    # fails the orthonormality check is defective and its condition is
    # measured.  The corner entries keep the matrix off the closed-form route
    m = np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 3.0]])
    assert ops._sine_grid(m) is None
    basis = np.diag([1.0, 1.0, 1e-9])
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 2.0, 3.0]), basis.copy()))
    op = Operator(m)
    with (pytest.warns(UserWarning, match="eigenvector basis condition"),
          pytest.warns(UserWarning, match="biorthogonality residual")):
        sp = op.spectral
    assert sp.defective and sp.ill_conditioned
    assert sp.cond_estimate == pytest.approx(1e9, rel=1e-12)
    with pytest.raises(IllConditionedBasisError):
        ops.real_power(op, 0.5)


def test_spectrum_defective_warns():
    with pytest.warns(UserWarning):
        sp = ops.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert sp.ill_conditioned or sp.defective
    # n >= 3 reaches the fallback that takes the left basis from the adjoint
    # eigenproblem by least squares, whose result does not depend on the
    # column order of the adjoint eigenvectors
    defective = [
        (np.eye(3, k=1), np.zeros((3, 3))),
        (np.diag([1.0, 1.0, 0.0], k=1) + np.diag([0.0, 0.0, 0.0, -1.0]),
         np.diag([0.0, 0.0, 0.0, 1.0])),
    ]
    for m, left in defective:
        with (pytest.warns(UserWarning, match="eigenvector basis condition"),
              pytest.warns(UserWarning, match="numerically defective")):
            sp = ops.spectrum(m)
        assert sp.defective
        np.testing.assert_allclose(sp.left_vectors, left, rtol=0, atol=1e-12)


def test_spectrum_memory_is_its_bases():
    # the left basis comes from the inverse of the real packed basis, written
    # into one complex array, and the biorthogonality residual is read in
    # blocks of rows: 7 N^2 float64 at the peak went to 5, of which the two
    # complex bases keep 4
    n = 512
    m = np.random.default_rng(11).standard_normal((n, n))
    tracemalloc.start()
    try:
        sp = ops.spectrum(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sp.defective and np.iscomplexobj(sp.right_vectors)
    assert peak <= 6.5 * 8 * n * n


def test_left_basis_of_nonadjacent_conjugate_pairs():
    # two conjugate pairs of equal real part sort as -1+2i, -1+0.5i, -1-0.5i,
    # -1-2i, so the pairs that eig returns adjacent are not adjacent any more;
    # the real eigenvalue 0.3 sorts first
    rng = np.random.default_rng(5)
    m = np.triu(rng.standard_normal((5, 5)))
    m[:2, :2] = [[-1.0, 2.0], [-2.0, -1.0]]
    m[2:4, 2:4] = [[-1.0, 0.5], [-0.5, -1.0]]
    m[4, 4] = 0.3
    sp = ops.spectrum(m)
    assert np.array_equal(sp.eigenvalues.real, [0.3, -1.0, -1.0, -1.0, -1.0])
    np.testing.assert_allclose(sp.eigenvalues.imag, [0.0, 2.0, 0.5, -0.5, -2.0], atol=1e-14)
    v = sp.right_vectors
    assert np.array_equal(v[:, 4], v[:, 1].conj()) and np.array_equal(v[:, 3], v[:, 2].conj())
    oracle = np.linalg.inv(v).conj().T
    assert np.abs(sp.left_vectors - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert not sp.defective
    assert sp.cond_estimate == pytest.approx(np.linalg.cond(v, 1), rel=1e-12)


@pytest.mark.parametrize("case", ["real", "complex"])
def test_phase_pass_matches_the_column_loop(case):
    # one vectorized pass, bit for bit the per-column loop it replaced
    rng = np.random.default_rng(8)
    m = rng.standard_normal((40, 40))
    if case == "complex":
        m = m + 1j * rng.standard_normal((40, 40))
    else:
        m = m @ m.T - 40.0 * np.eye(40)     # real eigenvectors (eigh)
    w, vr = np.linalg.eigh(m) if case == "real" else np.linalg.eig(m)
    w = w.astype(complex)
    vr = vr[:, np.lexsort((-w.imag, -w.real))]
    for j in range(vr.shape[1]):
        i = int(np.argmax(np.abs(vr[:, j])))
        piv = vr[i, j]
        if piv != 0:
            vr[:, j] = vr[:, j] * (abs(piv) / piv)
    assert ops.spectrum(m).right_vectors.tobytes() == vr.tobytes()


def test_spectral_data_refuses_writes():
    # the bases are the arrays the solvers returned, not copies: each one and
    # the array it views refuse writes, so no view can be made writable again
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    c = a + 1j * rng.standard_normal((6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectra = [ops.spectrum(x) for x in (a, a + a.T, c, c + c.conj().T, np.eye(3, k=1))]
    spectra.append(ops.translate_to_positive(a)[1].spectral)
    for sp in spectra:
        for arr in (sp.eigenvalues, sp.right_vectors, sp.left_vectors):
            for held in (arr, arr.base):
                if held is None:
                    continue
                assert not held.flags.writeable
                with pytest.raises(ValueError):
                    held.flat[0] = 1.0


def test_spectrum_warnings_name_the_caller():
    # every entry path reports its warnings at this file, not at operators.py
    # or at the cached property in functools; composing without a split
    # decomposes the drift too, so that path warns for two matrices
    block = np.array([[-1.0, 10.0], [0.0, -1.0]])
    green = GreenMap(np.array([[1.0], [0.0]]), gamma=0.25)
    paths = {
        "spectrum": lambda: ops.spectrum(block),
        "Operator.spectral": lambda: Operator(block).spectral,
        "decomposition": lambda: ops.decomposition(
            ops.compose_closed_loop(Operator(block), green, None)),
    }
    for name, path in paths.items():
        with (pytest.warns(UserWarning, match="eigenvector basis condition"),
              pytest.warns(UserWarning, match="numerically defective") as record):
            path()
        # the exactly defective block reaches the adjoint fallback first
        assert "numerically defective" in str(record[0].message), name
        count = 4 if name == "decomposition" else 2
        assert [w.filename for w in record] == [__file__] * count, name


@pytest.mark.parametrize("case", ["random", "coupled-n12"])
def test_nonhermitian_condition_is_the_1norm_condition(case):
    # the condition is read as ||vr||_1 ||vl^H||_1, with no SVD, and agrees
    # with the 1-norm condition of the right basis
    from stabreg.coupled import CoupledConfig
    m = stable_random(12, 7) if case == "random" else CoupledConfig(n=12).operator.entries
    sp = ops.spectrum(m)
    assert not np.array_equal(m, m.conj().T)
    assert sp.cond_estimate == pytest.approx(np.linalg.cond(sp.right_vectors, 1), rel=1e-8)


@pytest.mark.parametrize("advection_b", [0.0, 5.0], ids=["symmetric", "advected"])
def test_translated_decomposition_matches_a_fresh_one(advection_b, monkeypatch):
    op = build_heat_operator(HeatConfig(n=32, c2=16.0, advection_b=advection_b))
    op.spectral               # decomposed before counting starts
    calls = []
    fresh_spectrum = ops.spectrum
    monkeypatch.setattr(ops, "spectrum", lambda x: calls.append(x) or fresh_spectrum(x))
    k, hat = ops.translate_to_positive(op)
    derived = hat.spectral
    assert calls == []        # read from op's decomposition, no second eigensolve
    fresh = fresh_spectrum(k * np.eye(32) - op.entries)
    scale = np.abs(fresh.eigenvalues).max()
    assert np.abs(derived.eigenvalues - fresh.eigenvalues).max() <= 1e-12 * scale
    assert derived.unstable_count == fresh.unstable_count == 32
    assert (derived.left_vectors is derived.right_vectors) == (advection_b == 0.0)
    got = ops.real_power(hat, 0.2).entries
    want = ops.real_power(Operator(hat.entries), 0.2).entries
    assert np.linalg.norm(got - want, 2) <= 1e-11 * np.linalg.norm(want, 2)


def test_reflection_keeps_the_bits_of_the_dense_identity_form():
    # 0 - M with k added on the diagonal is k * eye(n) - M bit for bit, signed
    # zeros included, in real and complex arithmetic
    rng = np.random.default_rng(6)
    zeros = np.where(rng.random((6, 6)) < 0.5, 0.0, -0.0)
    mixed = zeros + rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
    mixed[0, 0] = 2.5                   # k - m = 0 at k = 2.5
    mats = [zeros, mixed, build_heat_operator(HeatConfig(n=16)).entries,
            CoupledConfig(n=12).operator.entries, mixed + 1j * zeros, -zeros * 1j]
    for m in mats:
        for k in (1.0, 2.5, 17.0, 1e-300):
            want = k * np.eye(m.shape[0]) - m
            assert ops._reflected(m, k, "").entries.tobytes() == want.tobytes()


def test_translation_memory_is_what_it_returns():
    # with the decomposition cached, the peak is what the translation returns:
    # its entries and its reversed basis, 2 N^2 float64, and a few N-vectors
    # (its eigenvalues)
    n = 512
    op = build_heat_operator(HeatConfig(n=n, c2=16.0))
    op.spectral
    tracemalloc.start()
    try:
        _, hat = ops.translate_to_positive(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hat.spectral.right_vectors.shape == (n, n)
    assert peak <= 2 * 8 * n * n + 4 * 16 * n


# ---------------------------------------------------------------- resolvent

def test_resolvent_scalar_zero():
    r = ops.resolvent(np.zeros((1, 1)), 2.0)
    assert np.allclose(r.entries, [[0.5]])


def test_resolvent_diagonal_formula():
    r = ops.resolvent(np.diag([-1.0, -2.0]), 1j)
    assert np.allclose(np.diag(r.entries), [1 / (1j + 1), 1 / (1j + 2)])


def test_resolvent_residual_random():
    m = stable_random(5, 11)
    lam = 3 + 4j
    r = ops.resolvent(m, lam).entries
    resid = np.linalg.norm((lam * np.eye(5) - m) @ r - np.eye(5), 2)
    assert resid <= 1e-10


def test_resolvent_singularity_names_eigenvalue():
    with pytest.raises(SingularityError) as err:
        ops.resolvent(np.diag([-1.0, -2.0]), -1.0)
    assert "eigenvalue" in str(err.value)


def test_resolvent_residual_property_many_lambdas():
    m = stable_random(8, 13)
    evs = la.eigvals(m)
    op = Operator(m)        # one decomposition guards all 20 resolvents
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if np.min(np.abs(evs - lam)) < 0.3:
            continue
        r = ops.resolvent(op, lam).entries
        assert np.linalg.norm((lam * np.eye(8) - m) @ r - np.eye(8), 2) <= 1e-8


def test_resolvent_guard_takes_no_svd_when_well_conditioned(monkeypatch):
    # ||X||_2 <= ||X||_F: a Frobenius residual below the threshold settles it
    def refuse(m):
        raise AssertionError("the residual guard took an SVD")

    m = stable_random(8, 13)
    monkeypatch.setattr(ops, "spectral_norm", refuse)
    r = ops.resolvent(m, 1.0 + 2.0j).entries
    assert np.linalg.norm(((1.0 + 2.0j) * np.eye(8) - m) @ r - np.eye(8), 2) <= 1e-10


@pytest.mark.parametrize(("eps", "raises"), [(3e-9, False), (2e-8, True)])
def test_resolvent_guard_on_a_corrupted_solve(eps, raises, monkeypatch):
    # the solve returns R with (lam I - op) R - I = eps I: Frobenius norm
    # eps sqrt(8) > 0.5e-8 in both cases, so the SVD decides on eps alone
    op = Operator(stable_random(8, 13))
    ops.decomposition(op)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, (1.0 + eps) * b))
    svds = []
    norm = ops.spectral_norm
    monkeypatch.setattr(ops, "spectral_norm", lambda m: svds.append(m) or norm(m))
    if raises:
        with pytest.raises(NumericalError, match=r"resolvent residual 2\.000e-08 exceeds 1e-8"):
            ops.resolvent(op, 1.0 + 2.0j)
    else:
        ops.resolvent(op, 1.0 + 2.0j)
    assert len(svds) == 1


# ---------------------------------------------------------------- semigroup

def test_semigroup_t0_identity():
    e = ops.semigroup_apply(stable_random(4, 2), 0.0)
    assert np.array_equal(e.entries, np.eye(4))


def test_semigroup_scalar():
    e = ops.semigroup_apply(np.diag([-1.0]), 1.0)
    assert abs(e.entries[0, 0] - np.exp(-1.0)) <= 1e-14


def test_semigroup_nilpotent():
    e = ops.semigroup_apply(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    assert np.abs(e.entries - [[1.0, 1.0], [0.0, 1.0]]).max() <= 1e-14


def test_semigroup_negative_time_rejected():
    with pytest.raises(UsageError):
        ops.semigroup_apply(np.eye(2), -0.5)


def test_semigroup_overflow_saturates():
    from stabreg.errors import SaturationError
    with pytest.raises(SaturationError) as err:
        ops.semigroup_apply(np.diag([50.0]), 200.0)
    assert "abscissa" in str(err.value)


def test_semigroup_property_random_times():
    m = stable_random(6, 3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        t, s = rng.uniform(0.01, 2.0, 2)
        ets = ops.semigroup_apply(m, t + s).entries
        split = ops.semigroup_apply(m, t).entries @ ops.semigroup_apply(m, s).entries
        assert np.linalg.norm(ets - split, 2) <= 1e-8 * np.linalg.norm(ets, 2)


def _expm_oracle_cases():
    """(name, matrix) inputs of the exponential's oracle test."""
    from stabreg.coupled import CoupledConfig
    loops = {"heat": HeatConfig(n=32, c2=16.0).synthesize(targets=[-2.0])[0],
             "coupled": CoupledConfig(n=12).synthesize()[0]}
    cases = []
    for name, loop in loops.items():
        a = loop.composed.entries
        n = a.shape[0]
        # the kernel's augmented matrices [[A h, I h], [0, 0]] at the cell
        # substeps of the benchmark scans (125 cells of 0.08 over 64 substeps,
        # one cell over 8000) and the times of the decay fits
        for h in (0.08 / 64, 10.0 / 8000, 40.0 / 8000):
            aug = np.zeros((2 * n, 2 * n), dtype=np.result_type(a.dtype, float))
            aug[:n, :n], aug[:n, n:] = a * h, np.eye(n) * h
            cases.append((f"{name}-aug-h{h:g}", aug))
        grid = np.linspace(1.0, 10.0, 19) if name == "heat" else np.linspace(0.5, 6.0, 12)
        cases += [(f"{name}-decay-t{t:g}", t * a) for t in grid]
    cases += [(f"jordan-s{s:g}", np.array([[-1.0, s], [0.0, -1.0]])) for s in (1.0, 10.0, 100.0)]
    rng = np.random.default_rng(40)
    cases.append(("complex-40", (rng.standard_normal((40, 40))
                                 + 1j * rng.standard_normal((40, 40))) / 8.0))
    cases.append(("zero", np.zeros((5, 5))))
    # one 1-norm under each low-degree bound, and one far above 5.37
    m = stable_random(6, 3)
    cases += [(f"norm-{x:g}", m * (x / np.linalg.norm(m, 1))) for x in (0.01, 0.2, 0.9, 2.0, 300.0)]
    return cases


def test_expm_matches_scipy():
    # the oracle is imported here only: the package runs on numpy alone
    from scipy.linalg import expm as scipy_expm
    for name, a in _expm_oracle_cases():
        got, want = ops.expm(a), scipy_expm(a)
        assert got.dtype == want.dtype, name
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-11 * scale, name


def test_generator_consistency_first_order():
    m = stable_random(5, 21)
    m = m / np.linalg.norm(m, 2)
    errs = []
    for h in (1e-3, 1e-4):
        diff = (ops.semigroup_apply(m, h).entries - np.eye(5)) / h - m
        errs.append(np.linalg.norm(diff, 2))
    ratio = errs[0] / errs[1]
    assert 7.0 <= ratio <= 13.0


# ---------------------------------------------------------------- fractional powers

def test_fractional_power_diag():
    out = ops.real_power(np.diag([4.0]), 0.5)
    assert np.allclose(out.entries, [[2.0]])
    out = ops.real_power(np.diag([1.0, 16.0]), 0.25)
    assert np.allclose(np.diag(out.entries), [1.0, 2.0])


def test_fractional_power_sqrt_squares_back():
    cfg = HeatConfig(n=16, c2=9.1)
    a = -heat_split(cfg)[0].entries          # sign-flipped Laplacian, SPD
    half = ops.real_power(a, 0.5).entries
    assert np.linalg.norm(half @ half - a, 2) <= 1e-8 * np.linalg.norm(a, 2)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_fractional_power_semigroup_law(theta):
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    # q D q^T is not symmetric bit for bit, so it takes the eig path; the
    # complex matrix is Hermitian by construction and takes the eigh path,
    # whose eigenvalues come back exactly real
    real = q @ np.diag(rng.uniform(0.5, 30.0, 7)) @ q.T
    b = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    herm = (b + b.conj().T) / 2
    herm = herm + (0.5 - la.eigvalsh(herm)[0]) * np.eye(7)
    assert np.all(ops.spectrum(herm).eigenvalues.imag == 0.0)
    for a in (real, herm):
        p1 = ops.real_power(a, theta).entries
        p2 = ops.real_power(a, 1.0 - theta).entries
        assert np.linalg.norm(p1 @ p2 - a, 2) <= 1e-6 * np.linalg.norm(a, 2)


def test_real_power_of_real_spd_is_real():
    # the eigh route on real input: one real orthonormal basis (shared by both
    # sides) and real eigenvalues, so the power is formed in real arithmetic
    b = np.random.default_rng(3).standard_normal((12, 12))
    m = b @ b.T
    a = (m + m.T) / 2 + 12.0 * np.eye(12)
    sp = ops.spectrum(a)
    for theta in (0.3, -0.5, 1.7):
        got = ops.real_power(a, theta).entries
        assert got.dtype == np.float64
        want = (sp.right_vectors * np.power(sp.eigenvalues, theta)) @ sp.left_vectors.conj().T
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert sp.left_vectors is sp.right_vectors and sp.cond_estimate == 1.0


def test_fractional_power_requires_translation():
    with pytest.raises(TranslationRequiredError):
        ops.real_power(np.diag([1.0, -0.5]), 0.5)
    k, hat = ops.translate_to_positive(np.diag([1.0, -0.5]))
    assert k == 2.0
    ops.real_power(hat, 0.5)   # no raise after translation


def test_fractional_power_refuses_ill_conditioned():
    op = Operator(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-13]]))
    with pytest.warns(UserWarning):
        assert op.spectral.cond_estimate > 1e8
    with pytest.raises(IllConditionedBasisError):
        ops.real_power(op, 0.5)


# ---------------------------------------------------------------- closed loop

def _toy_loop(feedback_scale=0.5):
    a_pos = np.diag([2.0, 3.0])
    gen = Operator(-a_pos)
    green = GreenMap(np.array([[1.0], [0.5]]), gamma=0.25)
    f = feedback_scale * np.array([[1.0, -0.5]])
    return ops.compose_closed_loop(gen, green, f, generator_A=gen)


def test_compose_zero_feedback_is_open_loop():
    gen = Operator(np.diag([-2.0, -3.0]))
    green = GreenMap(np.array([[1.0], [0.5]]), gamma=0.25)
    cl = ops.compose_closed_loop(gen, green, None)
    assert np.array_equal(cl.composed.entries, gen.entries)


def test_compose_zero_green_is_open_loop():
    gen = Operator(np.diag([-2.0, -3.0]))
    green = GreenMap(np.zeros((2, 1)), gamma=0.25)
    cl = ops.compose_closed_loop(gen, green, np.array([[1.0, 1.0]]))
    assert np.array_equal(cl.composed.entries, gen.entries)


def test_compose_dimension_error_names_feedback():
    gen = Operator(np.diag([-2.0, -3.0]))
    green = GreenMap(np.array([[1.0], [0.5]]), gamma=0.25)
    with pytest.raises(DimensionError) as err:
        ops.compose_closed_loop(gen, green, np.ones((2, 2)))
    assert "feedback" in str(err.value)


def test_compose_records_factors():
    cl = _toy_loop()
    n = cl.dim
    manual = cl.drift_A.entries @ (np.eye(n) - cl.green.entries @ cl.feedback_matrix)
    assert np.abs(manual - cl.composed.entries).max() <= 1e-12 * np.abs(cl.composed.entries).max()


def test_adjoint_no_feedback_no_perturbation():
    # with F = 0 and Ao = 0 the three-term decomposition is -A^H exactly
    gen = Operator(np.diag([-2.0, -3.0]))
    green = GreenMap(np.array([[1.0], [0.5]]), gamma=0.25)
    cl = ops.compose_closed_loop(gen, green, None)
    assert ops.adjoint_decomposition_residual(cl) == 0.0


def test_adjoint_rank_one_feedback():
    cl = _toy_loop()
    assert ops.adjoint_decomposition_residual(cl) <= 1e-12
    # a miswired drift factor breaks the decomposition
    bad = dataclasses.replace(cl, drift_A=Operator(2.0 * cl.drift_A.entries))
    assert ops.adjoint_decomposition_residual(bad) == pytest.approx(0.5, rel=1e-9)


def test_adjoint_defective_block_reads_inf():
    # every power of the default split's [[2, -10], [0, 2]] comes from one
    # eigenbasis of condition ~1e17 and multiplies back to the same matrix, so
    # the residual read 0.0; composing decomposes the defective drift, and warns
    # (a fresh drift each time: the residual reuses the drift's decomposition)
    green = GreenMap(np.array([[1.0], [0.0]]), gamma=0.25)
    for feedback in (None, np.array([[0.1, 0.2]])):
        gen = Operator(np.array([[-1.0, 10.0], [0.0, -1.0]]))
        with pytest.warns(UserWarning):
            cl = ops.compose_closed_loop(gen, green, feedback)
            assert ops.adjoint_decomposition_residual(cl) == np.inf


def test_compose_default_split_translates_an_unstable_drift():
    # no split given: generator drift - kI and perturbation kI, with k =
    # abscissa + 1, so -generator has its spectrum in the right half-plane
    drift = Operator(stable_random(6, 3) + 4.0 * np.eye(6))
    rng = np.random.default_rng(8)
    green = GreenMap(rng.standard_normal((6, 2)), gamma=0.3)
    cl = ops.compose_closed_loop(drift, green, rng.standard_normal((2, 6)))
    k = ops.spectral_abscissa(drift) + 1.0
    assert k > 1.0
    np.testing.assert_allclose(cl.perturbation_Ao.entries, k * np.eye(6), rtol=0, atol=0)
    np.testing.assert_array_equal(cl.generator_A.entries + cl.perturbation_Ao.entries,
                                  drift.entries)
    assert ops.adjoint_decomposition_residual(cl) <= 1e-8


def test_adjoint_heat_with_advection():
    from stabreg.heat import closed_loop_heat, synthesize_heat_feedback
    cfg = HeatConfig(n=32, c2=16.0, advection_b=4.0)
    law, _ = synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = closed_loop_heat(cfg, law)
    assert np.abs(law.as_matrix).max() > 0.0
    assert ops.adjoint_decomposition_residual(cl) <= 1e-8


# ---------------------------------------------------------------- resolvent identity

def test_perturbation_identity_zero_feedback():
    gen = Operator(np.diag([-2.0, -3.0]))
    green = GreenMap(np.array([[1.0], [0.5]]), gamma=0.25)
    cl = ops.compose_closed_loop(gen, green, None)
    assert ops.resolvent_perturbation_residual(cl, 1.0 + 1.0j) <= 1e-14


def test_perturbation_identity_scalar_closed_form():
    gen = Operator(np.array([[-1.0]]))
    green = GreenMap(np.array([[1.0]]), gamma=0.5)
    cl = ops.compose_closed_loop(gen, green, np.array([[0.5]]))
    # A_F = -1 * (1 - 0.5) = -0.5; both sides equal 1/(lam + 0.5)
    assert ops.resolvent_perturbation_residual(cl, 2.0 + 1.0j) <= 1e-14


def test_perturbation_identity_heat():
    from stabreg.heat import closed_loop_heat, synthesize_heat_feedback
    cfg = HeatConfig(n=48, c2=16.0)
    law, _ = synthesize_heat_feedback(cfg, targets=[-2.0])
    cl = closed_loop_heat(cfg, law)
    assert ops.resolvent_perturbation_residual(cl, 50 + 10j) <= 1e-8


def test_perturbation_identity_random_lambdas():
    cl = _toy_loop()
    rng = np.random.default_rng(23)
    for _ in range(20):
        lam = complex(rng.uniform(1.0, 50.0), rng.uniform(-20.0, 20.0))
        assert ops.resolvent_perturbation_residual(cl, lam) <= 1e-8


# ---------------------------------------------------------------- decay fit

def test_decay_estimate_scalar():
    m, delta = ops.decay_estimate(np.diag([-2.0]), np.linspace(0.5, 8, 12))
    assert abs(delta - 2.0) <= 1e-6
    assert abs(m - 1.0) <= 1e-6


def test_decay_estimate_transient_growth():
    # closed form e^{At} = e^{-t} [[1, 10 t], [0, 1]]
    a = np.array([[-1.0, 10.0], [0.0, -1.0]])
    grid = np.linspace(1.0, 40.0, 20)
    m_fit, delta = ops.decay_estimate(a, grid)
    norms = np.array([np.exp(-t) * np.linalg.norm([[1, 10 * t], [0, 1]], 2) for t in grid])
    tail = len(grid) // 2
    slope, _ = np.polyfit(grid[tail:], np.log(norms[tail:]), 1)
    assert abs(delta - (-slope)) <= 1e-6
    assert abs(delta - 1.0) <= 0.1
    assert m_fit > 1.0


def test_decay_estimate_needs_four_points():
    with pytest.raises(UsageError):
        ops.decay_estimate(np.diag([-1.0]), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- norms / matching

def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(31)
    for n in (3, 8, 20):
        m = rng.standard_normal((n, n))
        assert abs(ops.spectral_norm(m) - np.linalg.norm(m, 2)) <= 1e-8 * np.linalg.norm(m, 2)
    # two nearly equal singular values: a power iteration stalls short of 1
    assert ops.spectral_norm(np.diag([1.0, 1.0 - 1e-3])) == pytest.approx(1.0, rel=1e-12)
    assert ops.spectral_norm(np.zeros((0, 0))) == 0.0


def test_spectral_norm_diagonal_exact():
    assert ops.spectral_norm(np.diag([0.25, -3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_match_spectra():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([3.0 + 1e-9, 1.0, 2.0])
    assert ops.match_spectra(a, b) <= 1e-8
    with pytest.raises(UsageError):
        ops.match_spectra([1.0], [1.0, 2.0])


def _oracle_costs():
    rng = np.random.default_rng(2016)
    for n in list(range(13)) + [32, 64]:
        yield f"normal-{n}", rng.standard_normal((n, n))
        yield f"small-int-{n}", rng.integers(0, 3, (n, n)).astype(float)
        yield f"zero-{n}", np.zeros((n, n))
        # repeated and clustered complex spectra, as |a_i - b_j|
        k = n // 3 + 1
        a = np.repeat(rng.standard_normal(k) + 1j * rng.standard_normal(k), 3)[:n]
        b = a[rng.permutation(n)] + 1e-12 * rng.standard_normal(n) * rng.integers(0, 2, n)
        yield f"repeated-{n}", np.abs(a[:, None] - b[None, :])
        a = np.full(n, -2.0) + 1e-9 * np.arange(n) * (np.arange(n) % 2)
        b = a[rng.permutation(n)] + 1e-9 * rng.standard_normal(n)
        yield f"clustered-{n}", np.abs(a[:, None] - b[None, :])


def test_assignment_matches_scipy_including_ties():
    # the oracle is imported here only: the package keeps scipy.optimize out
    from scipy.optimize import linear_sum_assignment

    for name, cost in _oracle_costs():
        rows, cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, np.arange(cost.shape[0]), err_msg=name)
        np.testing.assert_array_equal(ops._assignment(cost), cols, err_msg=name)


@pytest.mark.parametrize("cost", [
    np.array([[0.0, np.nan], [1.0, 0.0]]),
    np.array([[0.0, -np.inf], [1.0, 0.0]]),
    np.array([[np.inf, np.inf], [1.0, 0.0]]),
], ids=["nan", "minus-inf", "infeasible-row"])
def test_assignment_rejects_invalid_costs(cost):
    with pytest.raises(ValueError):
        ops._assignment(cost)
