"""The Schur core against a dense reference.

Every value that ``schur_pencil``, ``reconstruct``, ``rep_eval`` and
``rep_eval_complex`` return must equal the Schur complement of the whole
shifted evaluation at the pivot S (x) I, computed densely by
``schur_generic`` (and traced against the state where one applies), on
pencils whose coefficients split into components of several shapes.
"""

import numpy as np
import pytest

from opmono.freefun import harmonic_mean, lift_scalar
from opmono.matcore import block_diag, herm_part
from opmono.pencil import RawPencil, pencil_direct_sum, pencil_eval_shifted, pencil_new
from opmono.represent import (
    PencilRepresentation,
    direct_sum_rep,
    reconstruct,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    support_pencil,
)
from opmono.sampling import rand_herm, rand_psd, rand_tuple_interval, rand_unit_vector
from opmono.schur import PivotSubspace, SchurCore, schur_generic, schur_pencil


def dense_complement(pencil, pivot, x):
    """Schur complement of the shifted evaluation keeping pivot (x) I, by dense elimination.

    The coefficients are PSD, so the evaluation vanishes outside the range
    of their sum; the elimination runs on that range, which holds the pivot.
    """
    w, u = np.linalg.eigh(sum(pencil.coeffs))
    e = u[:, w > 1e-10 * w[-1]]
    assert np.linalg.norm(pivot.basis - e @ (e.conj().T @ pivot.basis)) <= 1e-9
    pencil = RawPencil(tuple(e.conj().T @ c @ e for c in pencil.coeffs))
    n = x[0].shape[0]
    eye = np.eye(n)
    m = pencil_eval_shifted(pencil, x)
    explicit = sum(np.kron(c, s) for c, s in zip(pencil.coeffs, [eye] + [xi - eye for xi in x]))
    assert np.linalg.norm(m - explicit) <= 1e-12 * (1 + np.linalg.norm(explicit))
    big = PivotSubspace(np.kron(e.conj().T @ pivot.basis, eye))
    return schur_generic(m, big, keep="s")


def dense_traced(rep, x):
    """The dense complement traced against the state compressed to the pivot."""
    comp = dense_complement(rep.pencil, rep.pivot, x)
    m, n = rep.pivot.dim, x[0].shape[0]
    t = rep.pivot.basis.conj().T @ rep.state @ rep.pivot.basis
    return np.einsum("sr,risj->ij", t, comp.reshape(m, n, m, n))


def assert_close(got, ref):
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def tuples(rng, k, n):
    """A positive definite, a right half-space and an upper half-space tuple."""
    pd = tuple(rand_psd(rng, n) + 0.3 * np.eye(n) for _ in range(k))
    right = tuple(rand_psd(rng, n) + 0.3 * np.eye(n) + 1j * rand_herm(rng, n) for _ in range(k))
    upper = tuple(rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.2 * np.eye(n)) for _ in range(k))
    return pd, right, upper


def valid_pencil(rng, k, d):
    bi = [rand_psd(rng, d) for _ in range(k)]
    return pencil_new([sum(bi) + rand_psd(rng, d) + 0.1 * np.eye(d)] + bi)


def check_representation(rep, rng, n):
    pd, right, upper = tuples(rng, rep.arity, n)
    assert_close(rep_eval(rep, pd), herm_part(dense_traced(rep, pd)))
    assert_close(rep_eval_complex(rep, right), dense_traced(rep, right))
    assert_close(rep_eval_complex(rep, upper), dense_traced(rep, upper))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direct_sum_pencil(seed):
    # components of shape (kept, size) (1, 2) twice, (2, 3) and (1, 3): one
    # stacked group of two members and two single ones
    rng = np.random.default_rng(seed)
    pencil = pencil_direct_sum([valid_pencil(rng, 2, d) for d in (2, 2, 3, 3)])
    pivot = PivotSubspace.from_indices(pencil.size, [0, 2, 4, 5, 7])
    n = 2 + seed % 2
    for x in tuples(rng, 2, n)[1:]:
        assert_close(schur_pencil(pencil, x, pivot), dense_complement(pencil, pivot, x))
    g = rng.normal(size=(pencil.size, pencil.size)) + 1j * rng.normal(size=(pencil.size,) * 2)
    state = g @ g.conj().T
    rep = PencilRepresentation(pencil=pencil, pivot=pivot, state=state / np.trace(state).real)
    check_representation(rep, rng, n)


def test_direct_sum_pencil_generic_pivot():
    # a pivot in general position couples every direction: one component
    rng = np.random.default_rng(3)
    pencil = pencil_direct_sum([valid_pencil(rng, 1, d) for d in (2, 3)])
    q, _ = np.linalg.qr(rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
    pivot = PivotSubspace(q)
    for x in tuples(rng, 1, 3)[1:]:
        assert_close(schur_pencil(pencil, x, pivot), dense_complement(pencil, pivot, x))


def test_quadrature_representation():
    # sixteen (1, 2) cells, one per node, in one stacked group
    rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.25, 4.0), target=1e-2)
    assert [index.shape for _, index, *_ in rep.core.groups] == [(16, 2)]
    rng = np.random.default_rng(4)
    for n in (2, 3):
        check_representation(rep, rng, n)


def test_direct_sum_representation():
    rng = np.random.default_rng(5)
    pts = [(rand_tuple_interval(rng, 2, 2, 0.5, 2.0), rand_unit_vector(rng, 2)) for _ in range(2)]
    rep = direct_sum_rep(harmonic_mean((0.5, 0.5)), pts, validation_samples=40, seed=6).rep
    check_representation(rep, rng, 2)
    upper = tuples(rng, 2, 2)[2]
    assert_close(schur_pencil(rep.pencil, upper, rep.pivot),
                 dense_complement(rep.pencil, rep.pivot, upper))


@pytest.mark.parametrize("name", ["sqrt", "log1p"])
def test_reconstruct(name):
    rng = np.random.default_rng(7)
    a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
    v = rand_unit_vector(rng, 3)
    cert = support_pencil(lift_scalar(name), a, v, seed=8, validation_samples=40)
    ref = dense_complement(cert.pencil, PivotSubspace.from_vector(cert.v), a)
    assert_close(reconstruct(cert).value_op, herm_part(ref))


def interleaved_pencil(rng, sizes, k):
    """A validated pencil block diagonal over ``sizes`` (1 to 4), its blocks interleaved by one permutation.

    Returns the pencil and, per block, its scattered indices.
    """
    parts = [valid_pencil(rng, k, s) for s in sizes]
    perm = rng.permutation(sum(sizes))
    coeffs = [block_diag(*(p.coeffs[i] for p in parts))[np.ix_(perm, perm)] for i in range(k + 1)]
    where = np.argsort(perm)  # the new index of each old one
    starts = np.cumsum((0,) + tuple(sizes))
    return pencil_new(coeffs), [np.sort(where[a:b]) for a, b in zip(starts[:-1], starts[1:])]


class TestExactBlocks:
    SIZES = (2, 1, 3, 4, 2, 1, 3)

    def check(self, pencil, pivot, rng, n=2):
        for x in tuples(rng, pencil.arity, n)[1:]:
            assert_close(schur_pencil(pencil, x, pivot), dense_complement(pencil, pivot, x))
        g = rng.normal(size=(pencil.size,) * 2) + 1j * rng.normal(size=(pencil.size,) * 2)
        state = g @ g.conj().T
        check_representation(PencilRepresentation(pencil, pivot, state / np.trace(state).real), rng, n)

    @pytest.mark.parametrize("seed", range(3))
    def test_coordinate_pivot(self, seed):
        rng = np.random.default_rng(20 + seed)
        pencil, blocks = interleaved_pencil(rng, self.SIZES, 2)
        cols = sorted(int(b[0]) for b in blocks[::2]) + [int(blocks[3][1])]
        pivot = PivotSubspace.from_indices(pencil.size, sorted(cols))
        self.check(pencil, pivot, rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_pivot_in_general_position_inside_one_block(self, seed):
        rng = np.random.default_rng(30 + seed)
        pencil, blocks = interleaved_pencil(rng, self.SIZES, 2)
        v = np.zeros(pencil.size, dtype=complex)
        v[blocks[3]] = rng.normal(size=4) + 1j * rng.normal(size=4)
        pivot = PivotSubspace.from_vector(v)
        core = SchurCore(pencil, pivot)
        assert [index.shape for _, index, *_ in core.groups] == [(1, 4)]  # the other blocks drop out
        self.check(pencil, pivot, rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_pivot_column_spanning_two_blocks_merges_them(self, seed):
        rng = np.random.default_rng(40 + seed)
        pencil, blocks = interleaved_pencil(rng, self.SIZES, 1)
        v = np.zeros(pencil.size, dtype=complex)
        v[blocks[2][0]], v[blocks[4][1]] = 0.6, 0.8j  # a unit vector; a second column lies in block 0
        pivot = PivotSubspace(np.stack([v, np.eye(pencil.size)[blocks[0][0]]], axis=1))
        core = SchurCore(pencil, pivot)
        assert sorted((kept, index.shape) for kept, index, *_ in core.groups) == [(1, (1, 2)), (1, (1, 5))]
        self.check(pencil, pivot, rng, n=3)
