import numpy as np
import pytest

from opmono import errors
from opmono.matcore import (
    DEFAULT_TOL,
    fro_norm,
    herm_part,
    im_part,
    min_eig,
    re_part,
    sector_estimate,
)
from opmono.pencil import RawPencil, pencil_eval_shifted, pencil_new, pencil_sectorial_check
from opmono.represent import rep_eval, rep_eval_complex, rep_from_quadrature
from opmono.schur import (
    PivotSubspace,
    _find_rotation,
    schur_generic,
    schur_pencil,
    sector_bound_check,
    shorted_psd,
)


def rand_psd(rng, n, rank=None):
    r = rank or n
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    return g @ g.conj().T


def rand_herm(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return herm_part(g)


def rand_pivot(rng, n):
    m = int(rng.integers(1, n))
    g = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    q, _ = np.linalg.qr(g)
    return PivotSubspace.from_basis(q)


def rand_sectorial(rng, n, alpha_max=np.deg2rad(75)):
    r = rand_psd(rng, n) + 0.5 * np.eye(n)
    s = rand_herm(rng, n)
    alpha = rng.uniform(0.1, alpha_max)
    lam_min = np.linalg.eigvalsh(r)[0]
    s = s / np.linalg.norm(s, 2) * np.tan(alpha) * lam_min * 0.95
    return r + 1j * s


class TestPivotSubspace:
    def test_projection_idempotent(self):
        rng = np.random.default_rng(0)
        s = rand_pivot(rng, 5)
        p = s.projection
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T)

    def test_perp_basis_orthogonal(self):
        rng = np.random.default_rng(1)
        s = rand_pivot(rng, 6)
        qp = s.perp_basis()
        assert np.allclose(qp.conj().T @ qp, np.eye(qp.shape[1]), atol=1e-12)
        assert np.linalg.norm(s.basis.conj().T @ qp) <= 1e-12

    def test_non_orthonormal_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            PivotSubspace.from_basis(np.array([[1.0], [1.0]]))


class TestShortedPsd:
    def test_hand_example(self):
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        s = PivotSubspace.from_indices(2, [0])
        out = shorted_psd(a, s)
        assert np.allclose(out.shorted, [[1.0]], atol=1e-12)

    def test_block_diagonal(self):
        rng = np.random.default_rng(2)
        a11 = rand_psd(rng, 2)
        a22 = rand_psd(rng, 3)
        a = np.block(
            [[a11, np.zeros((2, 3))], [np.zeros((3, 2)), a22]]
        )
        s = PivotSubspace.from_indices(5, [0, 1])
        out = shorted_psd(a, s)
        assert np.allclose(out.shorted, a11, atol=1e-10)

    def test_rank_one_vanishes_off_pivot(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        a = np.outer(v, v)
        s = PivotSubspace.from_indices(2, [0])
        out = shorted_psd(a, s)
        assert np.linalg.norm(out.shorted) <= 1e-10

    def test_not_psd_rejected(self):
        s = PivotSubspace.from_indices(2, [0])
        with pytest.raises(errors.NotPSD):
            shorted_psd(np.diag([1.0, -1.0]), s)

    def test_maximality(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            a = rand_psd(rng, n)
            s = rand_pivot(rng, n)
            out = shorted_psd(a, s)
            # embedded shorted operator sits below A
            assert min_eig(a - s.embed(out.shorted)) >= -1e-8 * (1 + fro_norm(a))
            # any feasible Y on S sits below the shorted operator
            y = rand_herm(rng, s.dim)
            lo, hi = 0.0, 1.0
            while min_eig(a - hi * s.embed(y)) >= 0 and hi < 2**20:
                hi *= 2
            for _ in range(60):
                mid = (lo + hi) / 2
                if min_eig(a - mid * s.embed(y)) >= 0:
                    lo = mid
                else:
                    hi = mid
            feasible = lo * y
            assert min_eig(out.shorted - feasible) >= -1e-8 * (1 + fro_norm(a))

    def test_monotone_and_concave(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            s = rand_pivot(rng, n)
            a = rand_psd(rng, n)
            b = a + rand_psd(rng, n)
            sa = shorted_psd(a, s).shorted
            sb = shorted_psd(b, s).shorted
            assert min_eig(sb - sa) >= -1e-8 * (1 + fro_norm(b))
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                mix = shorted_psd((1 - lam) * a + lam * b, s).shorted
                assert min_eig(mix - ((1 - lam) * sa + lam * sb)) >= -1e-8 * (
                    1 + fro_norm(b)
                )


class TestSchurGeneric:
    def test_two_by_two_formula(self):
        a = np.array([[5.0, 2.0], [3.0, 4.0]])
        s = PivotSubspace.from_indices(2, [0])
        out = schur_generic(a, s, keep="s")
        assert np.allclose(out, [[5.0 - 2.0 * 3.0 / 4.0]])

    def test_block_diagonal_unchanged(self):
        rng = np.random.default_rng(5)
        a11 = rng.normal(size=(2, 2))
        a22 = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        a = np.block([[a11, np.zeros((2, 3))], [np.zeros((3, 2)), a22]])
        s = PivotSubspace.from_indices(5, [0, 1])
        assert np.allclose(schur_generic(a, s, keep="s"), a11)

    def test_phase_homogeneity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
        s = rand_pivot(rng, 4)
        theta = 0.7
        lhs = schur_generic(np.exp(1j * theta) * a, s, keep="s")
        rhs = np.exp(1j * theta) * schur_generic(a, s, keep="s")
        assert np.allclose(lhs, rhs)

    def test_singular_eliminated_block_refused(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        s = PivotSubspace.from_indices(2, [0])
        with pytest.raises(errors.EliminatedBlockSingular):
            schur_generic(a, s, keep="s")

    def test_half_plane_preservation(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = rand_herm(rng, n) + 1j * rand_psd(rng, n)
            s = rand_pivot(rng, n)
            try:
                comp = schur_generic(a, s, keep="perp")
            except errors.EliminatedBlockSingular:
                continue
            assert min_eig(im_part(comp)) >= -1e-8 * (1 + fro_norm(a))
            # and the Re variant
            b = rand_psd(rng, n) + 1j * rand_herm(rng, n)
            try:
                comp_b = schur_generic(b, s, keep="perp")
            except errors.EliminatedBlockSingular:
                continue
            assert min_eig(re_part(comp_b)) >= -1e-8 * (1 + fro_norm(b))

    def test_agrees_with_shorted_on_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = rand_psd(rng, n) + 0.1 * np.eye(n)
            s = rand_pivot(rng, n)
            lhs = schur_generic(a, s, keep="s")
            rhs = shorted_psd(a, s).shorted
            assert np.linalg.norm(lhs - rhs) <= DEFAULT_TOL.eq * (1 + fro_norm(a))


class TestSectorBound:
    def test_psd_case_alpha_zero(self):
        rng = np.random.default_rng(9)
        a = rand_psd(rng, 4) + 0.5 * np.eye(4)
        s = rand_pivot(rng, 4)
        rep = sector_bound_check(a, s)
        assert rep.alpha <= 1e-5
        assert rep.passed

    def test_hand_example_diag(self):
        a = np.diag([1.0, 1.0 + 1.0j])
        s = PivotSubspace.from_indices(2, [0])
        rep = sector_bound_check(a, s)
        comp_sigma = rep.singular_value_pairs[0][0]
        assert abs(comp_sigma - np.sqrt(2.0)) <= 1e-9
        # bound value sec^2(pi/4) * sqrt(2) = 2 sqrt 2
        assert rep.singular_value_pairs[0][1] <= 2 * np.sqrt(2) * 1.01
        assert rep.passed

    def test_random_sectorial(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rand_sectorial(rng, n)
            s = rand_pivot(rng, n)
            rep = sector_bound_check(a, s)
            assert rep.passed

    def test_full_pivot_leaves_empty_complement(self):
        rep = sector_bound_check(np.diag([1.0, 1.0 + 1.0j]), PivotSubspace.from_indices(2, [0, 1]))
        assert rep.singular_value_pairs == () and rep.norm_pair[0] == 0.0 and rep.passed

    def test_not_sectorial_rejected(self):
        s = PivotSubspace.from_indices(2, [0])
        with pytest.raises(errors.NotSectorial):
            sector_bound_check(np.diag([-1.0, 1.0]), s)


def valid_pencil(rng, k, d):
    bi = [rand_psd(rng, d) for _ in range(k)]
    b0 = sum(bi) + rand_psd(rng, d) + 0.1 * np.eye(d)
    return pencil_new([b0] + bi)


class TestSchurPencil:
    def test_real_positive_reduces_to_hermitian(self):
        rng = np.random.default_rng(11)
        p = valid_pencil(rng, 2, 3)
        s = rand_pivot(rng, 3)
        x = (2 * np.eye(2), 2 * np.eye(2))
        out = schur_pencil(p, x, s)
        assert np.linalg.norm(out - out.conj().T) <= 1e-9 * (1 + np.linalg.norm(out))
        # matches direct elimination of the real shifted pencil
        m = pencil_eval_shifted(p, x)
        big = PivotSubspace.from_basis(np.kron(s.basis, np.eye(2)))
        direct = schur_generic(m, big, keep="s")
        assert np.allclose(out, direct, atol=1e-8)

    def test_upper_halfspace_keeps_imaginary_part(self):
        rng = np.random.default_rng(12)
        p = valid_pencil(rng, 1, 3)
        s = rand_pivot(rng, 3)
        out = schur_pencil(p, (1j * np.eye(2),), s)
        assert min_eig(im_part(out)) >= -1e-8 * (1 + np.linalg.norm(out))

    def test_trivial_pivot_returns_evaluation(self):
        rng = np.random.default_rng(13)
        p = valid_pencil(rng, 2, 3)
        s = PivotSubspace.from_indices(3, [0, 1, 2])
        x = (2 * np.eye(2), 3 * np.eye(2))
        out = schur_pencil(p, x, s)
        assert np.allclose(out, pencil_eval_shifted(p, x))

    def test_domain_violation(self):
        rng = np.random.default_rng(14)
        p = valid_pencil(rng, 1, 2)
        s = PivotSubspace.from_indices(2, [0])
        with pytest.raises(errors.DomainViolation):
            schur_pencil(p, (-np.eye(2),), s)

    def test_rotation_path_random_pi_inputs(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            p = valid_pencil(rng, 2, 3)
            s = rand_pivot(rng, 3)
            n = 2
            x = tuple(
                rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.2 * np.eye(n))
                for _ in range(2)
            )
            out = schur_pencil(p, x, s)
            assert min_eig(im_part(out)) >= -1e-8 * (1 + np.linalg.norm(out))

    def test_rotation_found_on_a_narrow_arc(self):
        # The shifted evaluation of (P, P) with P = [[1, 1], [1, 1]] has the
        # essential block 2 X, and W(X) is the segment from 1 + 1e-4 i to
        # e^{i(pi - 0.005)}: only rotations within 0.005 of -pi/2 make its
        # real part positive definite
        x = np.diag([1.0 + 1e-4j, np.exp(1j * (np.pi - 0.005))])
        p = pencil_new([np.ones((2, 2)), np.ones((2, 2))])
        out = schur_pencil(p, (x,), PivotSubspace.from_indices(2, [0]))
        assert np.linalg.norm(out) <= 1e-12
        theta = _find_rotation([2 * x[None]], DEFAULT_TOL)
        assert -np.pi / 2 < theta < -np.pi / 2 + 0.005
        assert min_eig(np.exp(1j * theta) * 2 * x) > DEFAULT_TOL.psd * (1 + fro_norm(2 * x))


@pytest.fixture(scope="module")
def small_rep():
    return rep_from_quadrature("sqrt", nodes=16, interval=(0.5, 2.0))


NON_FINITE = {
    "nan_entry": np.diag([np.nan, 1.0]) + 1j * np.eye(2),
    "all_nan": np.full((2, 2), np.nan + 0j),
    "inf_entry": np.diag([np.inf, 1.0]) + 1j * np.eye(2),
}
CALLS = {
    "sector_estimate": lambda a, rep: sector_estimate(a),
    "pencil_sectorial_check": lambda a, rep: pencil_sectorial_check(
        RawPencil((np.zeros((1, 1)), np.ones((1, 1)))), (a,)
    ),
    "sector_bound_check": lambda a, rep: sector_bound_check(a, PivotSubspace.from_indices(2, [0])),
    "rep_eval": lambda a, rep: rep_eval(rep, (a,)),
    "rep_eval_complex": lambda a, rep: rep_eval_complex(rep, (a,)),
    "schur_pencil": lambda a, rep: schur_pencil(
        pencil_new([2 * np.eye(2), np.eye(2)]), (a,), PivotSubspace.from_indices(2, [0])
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("matrix", NON_FINITE, ids=str)
@pytest.mark.parametrize("call", CALLS, ids=str)
def test_non_finite_input_raises_typed_error(call, matrix, small_rep):
    with pytest.raises(errors.OpmonoError):
        CALLS[call](NON_FINITE[matrix], small_rep)
