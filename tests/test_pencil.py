import numpy as np
import pytest

from opmono import errors
from opmono.matcore import DEFAULT_TOL, RANK_CUT, block_diag, herm_part, min_eig, require_psd, tensor
from opmono.pencil import (
    RawPencil,
    pencil_direct_sum,
    pencil_eval,
    pencil_eval_shifted,
    pencil_new,
    pencil_sectorial_check,
)


def rand_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T


def rand_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def valid_pencil(rng, k, d):
    bi = [rand_psd(rng, d) for _ in range(k)]
    b0 = sum(bi) + rand_psd(rng, d) + 0.1 * np.eye(d)
    return pencil_new([b0] + bi)


class TestPencilNew:
    def test_scalar_dominant(self):
        p = pencil_new([np.array([[1.0]]), np.array([[1.0]])])
        assert p.arity == 1 and p.size == 1
        assert p.dominance_margin >= -1e-12

    def test_dominance_violated(self):
        with pytest.raises(errors.DominanceViolated):
            pencil_new([np.eye(2), np.eye(2), np.eye(2)])

    def test_coefficient_not_psd(self):
        with pytest.raises(errors.CoefficientNotPSD):
            pencil_new([np.array([[1.0]]), np.array([[-1.0]])])

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            pencil_new([np.eye(2), np.eye(3)])


class TestCoefficientsAreKept:
    def test_hermitian_parts_own_their_data_and_the_callers_stay_writable(self):
        rng = np.random.default_rng(20)
        bi = [rand_psd(rng, 3) for _ in range(2)]
        coeffs = [sum(bi) + np.eye(3)] + bi
        before = [c.copy() for c in coeffs]
        p = pencil_new(coeffs)
        for kept, given, copy in zip(p.coeffs, coeffs, before):
            assert kept.flags.owndata and not kept.flags.writeable
            assert given.flags.writeable and not np.shares_memory(kept, given)
            assert np.array_equal(kept, herm_part(copy))
        coeffs[1][0, 0] += 5.0  # an edit of the caller's array does not reach the pencil
        assert np.array_equal(p.coeffs[1], herm_part(before[1]))

    def test_a_pencil_of_one_coefficient_is_refused_by_arity(self):
        for coeffs in ([], [np.eye(2)]):
            with pytest.raises(errors.ArityMismatch):
                pencil_new(coeffs)


def interleaved_blocks(rng, sizes, k):
    """B_1..B_k and B_0 = sum B_i + a PSD slack, each block diagonal over ``sizes``, permuted alike.

    Blocks of size 1 to 4 are interleaved by one random permutation, so each
    block's indices are scattered over the whole matrix.
    """
    parts = [[rand_psd(rng, s) for s in sizes] for _ in range(k)]
    slack = [rand_psd(rng, s) + 0.05 * np.eye(s) for s in sizes]
    bi = [block_diag(*blocks) for blocks in parts]
    b0 = sum(bi) + block_diag(*slack)
    perm = rng.permutation(sum(sizes))
    return [m[np.ix_(perm, perm)] for m in [b0] + bi], perm


class TestBlockwiseValidation:
    SIZES = (1, 3, 2, 4, 1, 2, 3, 4, 2, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_margins_match_the_dense_ones(self, seed, count_calls):
        rng = np.random.default_rng(seed)
        coeffs, _ = interleaved_blocks(rng, self.SIZES, 2)
        shapes = count_calls(np.linalg, "eigvalsh")
        p = pencil_new(coeffs)
        assert max(shape[-1] for shape in shapes) == max(self.SIZES)  # no eigvalsh of the whole matrix
        d = p.size
        eps = np.finfo(float).eps
        dense = min(min_eig(herm_part(c)) for c in coeffs)
        assert abs(p.coeff_margin - dense) <= 64 * d * d * eps * max(np.linalg.norm(c) for c in coeffs)
        dom = herm_part(coeffs[0]) - herm_part(coeffs[1]) - herm_part(coeffs[2])
        assert abs(p.dominance_margin - min_eig(dom)) <= 64 * d * d * eps * np.linalg.norm(dom)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("spoil", ["B_1", "B_0", "dominance"])
    def test_one_perturbed_block_gives_the_dense_error(self, seed, spoil):
        rng = np.random.default_rng(10 + seed)
        sizes = self.SIZES
        coeffs, perm = interleaved_blocks(rng, sizes, 2)
        start = int(np.cumsum((0,) + sizes)[5])
        idx = np.flatnonzero(np.isin(perm, np.arange(start, start + sizes[5])))  # block 5, scattered
        bump = np.zeros_like(coeffs[0])
        bump[np.ix_(idx, idx)] = np.eye(idx.size) * (1.0 + np.abs(coeffs[0]).max())
        if spoil == "B_1":
            coeffs[1] = coeffs[1] - bump
        elif spoil == "B_0":
            coeffs[0] = coeffs[0] - 3 * bump
        else:  # B_1 grows past B_0 on one block only
            coeffs[1] = coeffs[1] + bump
        error = errors.DominanceViolated if spoil == "dominance" else errors.CoefficientNotPSD
        with pytest.raises(error):
            pencil_new(coeffs)
        hermed = [herm_part(c) for c in coeffs]
        checks = [(hermed[1], errors.CoefficientNotPSD), (hermed[2], errors.CoefficientNotPSD),
                  (hermed[0], errors.CoefficientNotPSD), (hermed[0] - hermed[1] - hermed[2], errors.DominanceViolated)]
        with pytest.raises(error):  # the same checks, taken on the whole matrices
            for m, err in checks:
                require_psd(m, err, "dense", DEFAULT_TOL)


class TestPencilEval:
    def test_scalar_pencil(self):
        p = pencil_new([np.array([[1.0]]), np.array([[1.0]])])
        out = pencil_eval(p, (3 * np.eye(2),))
        assert np.allclose(out, 4 * np.eye(2))

    def test_all_identity_arguments(self):
        rng = np.random.default_rng(0)
        p = valid_pencil(rng, 2, 3)
        out = pencil_eval(p, (np.eye(2), np.eye(2)))
        expected = tensor(p.b0 + p.coeff_sum(), np.eye(2))
        assert np.allclose(out, expected)

    def test_scalar_substitution_oracle(self):
        rng = np.random.default_rng(1)
        p = valid_pencil(rng, 3, 2)
        x = rng.uniform(0.5, 2.0, size=3)
        out = pencil_eval(p, tuple(np.array([[v]]) for v in x))
        expected = p.b0 + sum(v * b for v, b in zip(x, p.bi))
        assert np.allclose(out, expected)

    def test_arity_mismatch(self):
        rng = np.random.default_rng(2)
        p = valid_pencil(rng, 2, 2)
        with pytest.raises(errors.ArityMismatch):
            pencil_eval(p, (np.eye(2),))

    def test_nested_list_arguments(self):
        # a FreeFn unpacks fn((A, B)); the pencil's check takes the tuple as it is
        rng = np.random.default_rng(2)
        p = valid_pencil(rng, 2, 2)
        x = (np.eye(2), np.diag([1.0, 2.0]))
        assert np.array_equal(pencil_eval(p, tuple(m.tolist() for m in x)), pencil_eval(p, x))

    def test_hermitian_on_hermitian_input(self):
        rng = np.random.default_rng(3)
        p = valid_pencil(rng, 2, 3)
        x = tuple(herm_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in range(2))
        out = pencil_eval(p, x)
        assert np.allclose(out, out.conj().T)

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(4)
        p = valid_pencil(rng, 2, 3)
        x = tuple(rand_psd(rng, 4) for _ in range(2))
        u = rand_unitary(rng, 4)
        lhs = pencil_eval(p, tuple(u.conj().T @ xi @ u for xi in x))
        big_u = tensor(np.eye(3), u)
        rhs = big_u.conj().T @ pencil_eval(p, x) @ big_u
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


class TestPencilEvalShifted:
    def test_shift_annihilates_at_identity(self):
        rng = np.random.default_rng(5)
        p = valid_pencil(rng, 2, 3)
        out = pencil_eval_shifted(p, (np.eye(2), np.eye(2)))
        assert np.allclose(out, tensor(p.b0, np.eye(2)))

    def test_at_two_identity(self):
        rng = np.random.default_rng(6)
        p = valid_pencil(rng, 2, 3)
        out = pencil_eval_shifted(p, (2 * np.eye(2), 2 * np.eye(2)))
        assert np.allclose(out, tensor(p.b0 + p.coeff_sum(), np.eye(2)))

    def test_matches_eval_on_shifted_tuple(self):
        rng = np.random.default_rng(7)
        p = valid_pencil(rng, 3, 2)
        x = tuple(rand_psd(rng, 3) for _ in range(3))
        shifted = tuple(xi - np.eye(3) for xi in x)
        assert np.allclose(pencil_eval_shifted(p, x), pencil_eval(p, shifted))

    def test_psd_above_identity(self):
        # X_i >= I makes the shifted evaluation PSD
        rng = np.random.default_rng(8)
        p = valid_pencil(rng, 2, 3)
        x = tuple(np.eye(4) + rand_psd(rng, 4) for _ in range(2))
        assert min_eig(pencil_eval_shifted(p, x)) >= -1e-10


class TestDirectSum:
    def test_with_itself(self):
        rng = np.random.default_rng(9)
        p = valid_pencil(rng, 2, 2)
        s = pencil_direct_sum([p, p])
        for big, small in zip(s.coeffs, p.coeffs):
            assert np.allclose(big[:2, :2], small)
            assert np.allclose(big[2:, 2:], small)
            assert np.allclose(big[:2, 2:], 0)

    def test_singleton_is_identity(self):
        rng = np.random.default_rng(10)
        p = valid_pencil(rng, 2, 3)
        s = pencil_direct_sum([p])
        for big, small in zip(s.coeffs, p.coeffs):
            assert np.allclose(big, small)

    def test_evaluation_permutation_oracle(self):
        # evaluating the sum equals block-diag of evaluations after the
        # explicit permutation that regroups the tensor factors
        rng = np.random.default_rng(11)
        p1 = valid_pencil(rng, 2, 2)
        p2 = valid_pencil(rng, 2, 3)
        s = pencil_direct_sum([p1, p2])
        x = tuple(rand_psd(rng, 4) for _ in range(2))
        n = 4
        lhs = pencil_eval(s, x)
        e1 = pencil_eval(p1, x)
        e2 = pencil_eval(p2, x)
        block = np.zeros(((2 + 3) * n, (2 + 3) * n), dtype=complex)
        block[: 2 * n, : 2 * n] = e1
        block[2 * n :, 2 * n :] = e2
        # identity permutation under coefficient-first ordering
        assert np.allclose(lhs, block)

    def test_arity_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(errors.ArityMismatch):
            pencil_direct_sum([valid_pencil(rng, 1, 2), valid_pencil(rng, 2, 2)])


class TestSectorialCheck:
    def test_identity_arguments(self):
        rng = np.random.default_rng(13)
        bi = [rand_psd(rng, 3) for _ in range(2)]
        raw = RawPencil(tuple([np.zeros((3, 3))] + bi))
        est = pencil_sectorial_check(raw, (np.eye(2), np.eye(2)))
        assert est.alpha <= 1e-6

    def test_scalar_coefficient_reduces_to_argument(self):
        raw = RawPencil((np.zeros((1, 1)), np.array([[1.0]])))
        x1 = np.diag([1.0, 1.0 + 1.0j])  # angle pi/4
        est = pencil_sectorial_check(raw, (x1,))
        assert est.alpha <= np.pi / 4 + 1e-10

    def test_input_not_sectorial(self):
        raw = RawPencil((np.zeros((1, 1)), np.array([[1.0]])))
        with pytest.raises(errors.InputNotSectorial):
            pencil_sectorial_check(raw, (np.array([[-1.0]]),))

    def test_lower_bound_on_real_part(self):
        # Re X_i >= eps and sum B_i >= delta on its range force
        # Re of the compressed evaluation >= eps * delta
        rng = np.random.default_rng(14)
        for _ in range(10):
            d, n, k = 3, 3, 2
            bi = [rand_psd(rng, d) for _ in range(k)]
            raw = RawPencil(tuple([np.zeros((d, d))] + bi))
            eps = 0.3
            x = tuple(
                eps * np.eye(n) + rand_psd(rng, n) + 1j * herm_part(rng.normal(size=(n, n)))
                for _ in range(k)
            )
            s = sum(bi)
            w = np.linalg.eigvalsh(s)
            delta = w[w > RANK_CUT * w[-1]].min()
            from opmono.pencil import range_basis

            q = range_basis(s)
            iso = tensor(q, np.eye(n))
            compressed = iso.conj().T @ pencil_eval(raw, x) @ iso
            lam = min_eig((compressed + compressed.conj().T) / 2)
            assert lam >= eps * delta - DEFAULT_TOL.psd * (1 + np.linalg.norm(compressed))
