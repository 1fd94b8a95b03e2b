import numpy as np
import pytest

from opmono import errors
from opmono.matcore import (
    DEFAULT_TOL,
    block_diag,
    douglas_factor,
    fro_norm,
    funcalc,
    herm_certify,
    herm_part,
    im_part,
    loewner_leq,
    loewner_margin,
    min_eig,
    re_part,
    sector_certified_alpha,
    sector_estimate,
    tensor,
)


def rand_herm(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return herm_part(g)


def rand_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T


def rand_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHermCertify:
    def test_identity(self):
        assert np.allclose(herm_certify(np.eye(2)), np.eye(2))

    def test_pauli_y_like(self):
        m = np.array([[0, 1j], [-1j, 0]])
        assert np.allclose(herm_certify(m), m)

    def test_strictly_upper_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(errors.NotHermitian):
            herm_certify(m)

    def test_small_defect_symmetrized(self):
        m = np.eye(3) + 1e-12 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        out = herm_certify(m)
        assert np.allclose(out, out.conj().T)

    def test_nonsquare_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            herm_certify(np.ones((2, 3)))


class TestLoewnerOrder:
    def test_identity_vs_double(self):
        assert loewner_leq(np.eye(3), 2 * np.eye(3))

    def test_incomparable_diagonals(self):
        assert not loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))

    def test_reflexive(self):
        rng = np.random.default_rng(0)
        a = rand_herm(rng, 4)
        assert loewner_leq(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            loewner_leq(np.eye(2), np.eye(3))

    def test_reflexive_transitive_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a = rand_herm(rng, n)
            b = a + rand_psd(rng, n)
            c = b + rand_psd(rng, n)
            assert loewner_leq(a, b) and loewner_leq(b, c)
            # transitivity with additively compounded tolerance
            assert loewner_margin(a, c) >= -2 * DEFAULT_TOL.psd * (1 + fro_norm(c - a))

    def test_non_finite_member_reads_minus_inf(self, monkeypatch):
        stack = np.stack([np.eye(2), np.diag([np.nan, 1.0]), np.full((2, 2), np.inf)])
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def counted(a, *args, **kwargs):
            assert np.all(np.isfinite(a))
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert list(min_eig(stack)) == [1.0, -np.inf, -np.inf]
        assert shapes == [(3, 2, 2)]
        assert min_eig(np.diag([np.nan, 1.0]) + 1j * np.eye(2)) == -np.inf
        assert not loewner_leq(np.zeros((2, 2)), np.diag([np.nan, 1.0]))


class TestFuncalc:
    def test_sqrt_diagonal(self):
        out = funcalc(np.sqrt, np.diag([1.0, 4.0]))
        assert np.allclose(out, np.diag([1.0, 2.0]))

    def test_identity_function(self):
        rng = np.random.default_rng(2)
        a = rand_herm(rng, 5)
        assert np.allclose(funcalc(lambda x: x, a), a, atol=1e-12)

    def test_sqrt_squares_back(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = funcalc(np.sqrt, a)
        assert np.linalg.norm(r @ r - a) <= 1e-10

    def test_domain_violation(self):
        with pytest.raises(errors.SpectrumOutOfDomain):
            funcalc(np.sqrt, np.diag([1.0, -4.0]), domain=(0.0, np.inf))

    def test_nonfinite_detected(self):
        with pytest.raises(errors.SpectrumOutOfDomain):
            funcalc(np.log, np.diag([1.0, -1.0]))

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rand_psd(rng, n) + 0.1 * np.eye(n)
            u = rand_unitary(rng, n)
            lhs = funcalc(np.sqrt, u.conj().T @ a @ u)
            rhs = u.conj().T @ funcalc(np.sqrt, a) @ u
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(a))


class TestTensor:
    def test_identity_tensor_block_diag(self):
        rng = np.random.default_rng(4)
        x = rand_herm(rng, 3)
        out = tensor(np.eye(2), x)
        expected = np.block([[x, np.zeros((3, 3))], [np.zeros((3, 3)), x]])
        assert np.allclose(out, expected)

    def test_action_on_product_vectors(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = tensor(a, b) @ np.kron(u, v)
        rhs = np.kron(a @ u, b @ v)
        assert np.allclose(lhs, rhs)

    def test_scalar_case(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(tensor(np.array([[2.5]]), b), 2.5 * b)

    def test_bilinear_and_mixed_product(self):
        rng = np.random.default_rng(6)
        a, c = (rng.normal(size=(2, 2)) for _ in range(2))
        b, d = (rng.normal(size=(3, 3)) for _ in range(2))
        assert np.allclose(tensor(a + c, b), tensor(a, b) + tensor(c, b))
        assert np.allclose(tensor(a, b + d), tensor(a, b) + tensor(a, d))
        assert np.allclose(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d))


class TestBlockDiag:
    def test_stacked_blocks_broadcast(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        b = rand_herm(rng, 3)  # one block shared by the whole stack
        out = block_diag(a, b)
        assert out.shape == (5, 5, 5)
        for j in range(5):
            expected = np.block([[a[j], np.zeros((2, 3))], [np.zeros((3, 2)), b]])
            assert np.array_equal(out[j], expected)

    def test_rejects_non_square_block(self):
        with pytest.raises(errors.DimensionMismatch):
            block_diag(np.eye(2), np.ones((2, 3)))


class TestReImParts:
    def test_i_times_identity(self):
        a = 1j * np.eye(3)
        assert np.allclose(im_part(a), np.eye(3))
        assert np.allclose(re_part(a), np.zeros((3, 3)))

    def test_hermitian_has_zero_im(self):
        rng = np.random.default_rng(7)
        a = rand_herm(rng, 4)
        assert np.allclose(im_part(a), 0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(re_part(a) + 1j * im_part(a), a)


class TestSectorEstimate:
    def test_identity(self):
        est = sector_estimate(np.eye(3))
        assert est.alpha <= 1e-7
        assert abs(est.margin - 1.0) <= 1e-9

    def test_normal_matrix_quarter_angle(self):
        est = sector_estimate(np.diag([1.0, 1.0 + 1.0j]))
        assert abs(est.alpha - np.pi / 4) <= 1e-10

    def test_negative_scalar_rejected(self):
        with pytest.raises(errors.NotSectorial):
            sector_estimate(np.array([[-1.0]]))

    def test_psd_singular_rejected(self):
        # 0 is in the numerical range, which is outside the open sector
        with pytest.raises(errors.NotSectorial):
            sector_estimate(np.diag([0.0, 1.0]))

    def test_exact_on_normal_matrices(self):
        # W(A) of a normal matrix is the convex hull of its eigenvalues, so
        # the sector half-angle is the largest eigenvalue argument
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            lam = rng.uniform(0.1, 3.0, n) * np.exp(1j * rng.uniform(-1.5, 1.5, n))
            u = rand_unitary(rng, n)
            est = sector_estimate(u @ np.diag(lam) @ u.conj().T)
            assert abs(est.alpha - np.max(np.abs(np.angle(lam)))) <= 1e-10

    def test_few_factorizations_per_member(self, monkeypatch):
        rng = np.random.default_rng(26)
        stack = np.stack([rand_psd(rng, 4) + np.eye(4) + 0.3j * rand_herm(rng, 4) for _ in range(64)])
        factored = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "solve", "inv", "cholesky", "qr"):
            kernel = getattr(np.linalg, name)

            def counted(a, *args, _kernel=kernel, **kwargs):
                factored.append(int(np.prod(np.shape(a)[:-2])))
                return _kernel(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        alphas, margins = sector_certified_alpha(stack)
        assert np.all(alphas < np.pi / 2) and np.all(margins > 0)
        assert sum(factored) <= 4 * 64

    def test_alpha_bounds_the_numerical_range(self):
        # Rayleigh quotients of the top eigenvectors of Re(e^{it} A) are points
        # of W(A), so their largest argument on a fine grid is a lower bound
        # for the true angle, which the certified alpha must not undercut
        rng = np.random.default_rng(24)
        phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, 4096, endpoint=False))
        for _ in range(50):
            a = rand_psd(rng, 4) + 0.5 * np.eye(4)
            s = rand_herm(rng, 4)
            a = a + 1j * s * rng.uniform(0.2, 2.0) * np.linalg.eigvalsh(a)[0] / np.linalg.norm(s, 2)
            est = sector_estimate(a)
            top = np.linalg.eigh(herm_part(phases[:, None, None] * a))[1][..., -1]
            points = np.einsum("ti,ij,tj->t", top.conj(), a, top)
            assert est.alpha >= np.max(np.abs(np.angle(points)))


class TestDouglasFactor:
    def test_identity_block(self):
        rng = np.random.default_rng(9)
        a21 = rng.normal(size=(3, 2))
        assert np.allclose(douglas_factor(np.eye(3), a21), a21)

    def test_scalar_root(self):
        out = douglas_factor(4 * np.eye(2), 2 * np.eye(2))
        assert np.allclose(out, np.eye(2))

    def test_kernel_obstruction(self):
        a22 = np.diag([1.0, 0.0])
        a21 = np.array([[0.0], [1.0]])
        with pytest.raises(errors.RangeInclusionViolated):
            douglas_factor(a22, a21)

    def test_residual_bound_on_random_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            g = rng.normal(size=(n, n + m)) + 1j * rng.normal(size=(n, n + m))
            full = g @ g.conj().T  # guarantees the range inclusion
            b = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            a21 = full @ b
            c = douglas_factor(full, a21)
            root, _ = np.linalg.eigh(full)  # smoke: full is PSD
            sq = funcalc(np.sqrt, full)
            res = np.linalg.norm(sq @ c - a21)
            assert res <= DEFAULT_TOL.rank * np.linalg.norm(a21)

    def test_kernel_annihilation(self):
        # v* A v = 0 for PSD A forces A v = 0
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            g = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
            a = g @ g.conj().T  # rank-deficient PSD
            w, u = np.linalg.eigh(a)
            v = u[:, 0]  # kernel vector
            assert abs(v.conj() @ a @ v) <= 1e-12 * np.linalg.norm(a)
            assert np.linalg.norm(a @ v) <= 1e-10 * np.linalg.norm(a)
