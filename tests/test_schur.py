from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opmono import errors, sampling, schur
from opmono.freefun import resolve_function
from opmono.matcore import (
    DEFAULT_TOL,
    RANK_CUT,
    Tolerances,
    block_diag,
    fro_norm,
    herm_certify,
    herm_part,
    im_part,
    min_eig,
    psd_floor,
    re_part,
    sector_certified_alpha,
    sector_estimate,
)
from opmono.pencil import (
    RawPencil,
    kron_sum,
    pencil_arguments,
    pencil_eval_shifted,
    pencil_new,
    pencil_sectorial_check,
)
from opmono.represent import (
    PencilRepresentation,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    support_pencil,
)
from opmono.schur import (
    PivotSubspace,
    SchurCore,
    _check_sector_bound,
    in_right_halfspace,
    in_upper_halfspace,
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
    return PivotSubspace(q)


def rand_sectorial(rng, n, alpha_max=np.deg2rad(75)):
    r = rand_psd(rng, n) + 0.5 * np.eye(n)
    s = rand_herm(rng, n)
    alpha = rng.uniform(0.1, alpha_max)
    lam_min = np.linalg.eigvalsh(r)[0]
    s = s / np.linalg.norm(s, 2) * np.tan(alpha) * lam_min * 0.95
    return r + 1j * s


class TestPivotSubspace:
    def test_perp_basis_orthogonal(self):
        rng = np.random.default_rng(1)
        s = rand_pivot(rng, 6)
        qp = s.perp_basis()
        assert np.allclose(qp.conj().T @ qp, np.eye(qp.shape[1]), atol=1e-12)
        assert np.linalg.norm(s.basis.conj().T @ qp) <= 1e-12

    def test_non_orthonormal_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            PivotSubspace(np.array([[1.0], [1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(errors.DomainViolation, match="base vector must be finite and nonzero"):
            PivotSubspace.from_vector(np.array([1.0, bad]))


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

    def test_identity_block(self):
        rng = np.random.default_rng(9)
        a21 = rng.normal(size=(3, 2))
        a = np.block([[a21.T @ a21 + np.eye(2), a21.T], [a21, np.eye(3)]])
        out = shorted_psd(a, PivotSubspace.from_indices(5, [0, 1]))
        assert np.allclose(out.shorted, np.eye(2))
        assert out.defect <= RANK_CUT * (1 + fro_norm(a21))

    def test_scalar_root(self):
        a = np.block([[2 * np.eye(2), 2 * np.eye(2)], [2 * np.eye(2), 4 * np.eye(2)]])
        out = shorted_psd(a, PivotSubspace.from_indices(4, [0, 1]))
        assert np.allclose(out.shorted, np.eye(2))
        assert out.defect <= RANK_CUT * (1 + fro_norm(2 * np.eye(2)))

    def test_residual_bound_on_random_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            g = rng.normal(size=(n, n + m)) + 1j * rng.normal(size=(n, n + m))
            full = g @ g.conj().T  # guarantees the range inclusion
            b = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            a21 = full @ b
            a = np.block([[b.conj().T @ a21, a21.conj().T], [a21, full]])  # [b I]* full [b I]
            out = shorted_psd(a, PivotSubspace.from_indices(m + n, list(range(m))))
            assert out.defect <= RANK_CUT * (1 + fro_norm(a21))
            assert fro_norm(out.shorted) <= 1e-8 * (1 + fro_norm(a))

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
        # a zero block with zero cross terms leaves the kept block
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        s = PivotSubspace.from_indices(2, [0])
        assert np.allclose(schur_generic(a, s, keep="s"), [[1.0]])
        # ran A_21 lies in ran D but ran A_12* does not: every generalized
        # inverse [[1, x], [y, z]] of D = diag(1, 0) gives 2 - y
        a = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(errors.EliminatedBlockDefective):
            schur_generic(a, PivotSubspace.from_indices(3, [0]), keep="s")

    def test_kernel_obstruction(self):
        # A_21 = e_2 lies outside ran A_22 = span(e_1); no PSD matrix has these blocks
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(errors.EliminatedBlockDefective):
            schur_generic(a, PivotSubspace.from_indices(3, [0]), keep="s")

    def test_half_plane_preservation(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = rand_herm(rng, n) + 1j * rand_psd(rng, n)
            s = rand_pivot(rng, n)
            try:
                comp = schur_generic(a, s, keep="perp")
            except errors.EliminatedBlockDefective:
                continue
            assert min_eig(im_part(comp)) >= -1e-8 * (1 + fro_norm(a))
            # and the Re variant
            b = rand_psd(rng, n) + 1j * rand_herm(rng, n)
            try:
                comp_b = schur_generic(b, s, keep="perp")
            except errors.EliminatedBlockDefective:
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


def nested_pivots(rng, n):
    """Pivots S_1 in S_2 of C^n, and S_1 in the coordinates of S_2's basis."""
    m2 = int(rng.integers(2, n))
    q2, _ = np.linalg.qr(rng.normal(size=(n, m2)) + 1j * rng.normal(size=(n, m2)))
    inner = rand_pivot(rng, m2)
    return PivotSubspace(q2 @ inner.basis), PivotSubspace(q2), inner


class TestQuotientProperty:
    """Crabtree-Haynsworth: A/S_1 = (A/S_2)/S_1 for nested pivots S_1 in S_2."""

    def test_schur_generic(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            s1, s2, inner = nested_pivots(rng, n)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            lhs = schur_generic(a, s1)
            rhs = schur_generic(schur_generic(a, s2), inner)
            assert fro_norm(lhs - rhs) <= 1e-12 * (1 + fro_norm(lhs))

    def test_shorted_psd_rank_deficient(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            s1, s2, inner = nested_pivots(rng, n)
            a = rand_psd(rng, n, rank=int(rng.integers(1, n)))
            lhs = shorted_psd(a, s1).shorted
            rhs = shorted_psd(shorted_psd(a, s2).shorted, inner).shorted
            assert fro_norm(lhs - rhs) <= 1e-12 * (1 + fro_norm(a))


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
        big = PivotSubspace(np.kron(s.basis, np.eye(2)))
        direct = schur_generic(m, big, keep="s")
        assert np.allclose(out, direct, atol=1e-8)

    def test_coupling_is_closed_transitively(self):
        # directions 0 and 2 couple only through 1, so the closure step joins
        # all three into one component
        b0 = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        p = pencil_new([b0, np.eye(3)])
        s = PivotSubspace.from_indices(3, [0])
        core = SchurCore(p, s)
        assert [index.tolist() for _, index, _, _, _ in core.groups] == [[[0, 1, 2]]]
        x = (np.array([[1.5, 0.2j], [-0.2j, 0.8]]),)
        big = PivotSubspace(np.kron(s.basis, np.eye(2)))
        dense = schur_generic(pencil_eval_shifted(p, x), big, keep="s")
        assert np.allclose(core.evaluate(x), dense, rtol=0, atol=1e-13)

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
        # real part positive definite, and the aim lies there
        x = np.diag([1.0 + 1e-4j, np.exp(1j * (np.pi - 0.005))])
        p = pencil_new([np.ones((2, 2)), np.ones((2, 2))])
        out = schur_pencil(p, (x,), PivotSubspace.from_indices(2, [0]))
        assert np.linalg.norm(out) <= 1e-12
        (theta,) = schur._aim(x[None, None])
        assert -np.pi / 2 < theta < -np.pi / 2 + 0.005


class TestFirstCertifiedAngle:
    """The certified angle and the normalized essential blocks feed only the checks."""

    @pytest.mark.parametrize("lead,with_state", [((), False), ((), True), ((3,), True), ((2, 2), True)],
                             ids=["single-whole", "single-state", "stack-state", "stack2d-state"])
    def test_complement_does_not_depend_on_the_angle(self, lead, with_state):
        # neither the angle nor the normalization enters the complement, so
        # the halfspace evaluation equals the unchecked one bit for bit
        rng = np.random.default_rng(41)
        for d, n in [(3, 2), (4, 3), (5, 2)]:
            core = SchurCore(valid_pencil(rng, 2, d), rand_pivot(rng, d))
            x = tuple(
                np.stack([rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.2 * np.eye(n))
                          for _ in range(int(np.prod(lead)))]).reshape(lead + (n, n))
                for _ in range(2)
            )
            state = rand_psd(rng, d) if with_state else None
            if with_state:
                state /= np.trace(state).real
            checked = core.evaluate(x, state=state, tol=DEFAULT_TOL)
            assert np.array_equal(checked, core.evaluate(x, state=state))


def floor_member(rng, n, tol):
    """H + i P with P at rounding level: ``in_upper_halfspace`` under ``tol`` but no Cholesky factor of P."""
    while True:
        u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        p = (u * np.r_[np.ones(n - 1), 10.0 ** rng.uniform(-18, -14)]) @ u.conj().T
        z = rand_herm(rng, n) + 1j * p
        try:
            np.linalg.cholesky(im_part(z))
        except np.linalg.LinAlgError:
            if in_upper_halfspace((z,), tol) and not in_right_halfspace((z,), tol):
                return z


class TestAimedRotation:
    """Upper half-space members are certified at the angle ``_aim`` reads from the tuple."""

    @pytest.fixture(scope="class")
    def sqrt_rep(self):
        return rep_from_quadrature("sqrt", nodes=64, interval=(0.1, 10.0))

    def test_the_cone_bound_settles_every_upper_member(self, count_calls, sqrt_rep):
        # criterion 10's draws outside the right half-space, stacked ten to a
        # size: the cone bound settles every member's floor check, so no
        # block takes a cholesky or an eigvalsh; the aim's eigvalsh and the
        # cone margin's are each one call over (members, slots, n, n)
        rng = np.random.default_rng(120)
        core = sqrt_rep.core()
        for n in range(2, 7):
            draws = (rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n)) for _ in range(100))
            z = np.stack([d for d in draws if not in_right_halfspace((d,))][:10])
            assert len(z) == 10
            sizes = {e.shape[-1] * n for _, _, _, e, _ in core.groups if e is not None}
            cholesky, eigvalsh = count_calls(np.linalg, "cholesky"), count_calls(np.linalg, "eigvalsh")
            rep_eval_complex(sqrt_rep, (z,))
            assert [shape for shape in cholesky + eigvalsh if shape[-1] in sizes] == []
            assert eigvalsh.count((len(z), 1, n, n)) == 2

    @pytest.mark.parametrize("case", ["plain", "small_imaginary", "large_real", "both"])
    def test_aim_makes_every_slot_positive(self, case):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            slots = []
            for _ in range(k):
                h = rand_herm(rng, n)
                if case in ("large_real", "both"):
                    h *= 1e6 / np.linalg.norm(h)
                p = 1e-6 * np.eye(n) if case in ("small_imaginary", "both") else rand_psd(rng, n) + 0.1 * np.eye(n)
                slots.append(h + 1j * p)
            (theta,) = schur._aim(np.stack(slots)[None])
            assert -np.pi / 2 < theta < 0.0
            for z in slots:
                assert min_eig(np.exp(1j * theta) * z) > 0.0

    def test_cholesky_failure_falls_back_to_the_unaimed_search(self):
        # Im Z at the floor of a tight psd tolerance passes in_upper_halfspace
        # yet has no Cholesky factor: the stack holding it has no aim, and
        # the NaN angle is refused as RotationNotFound, never a LinAlgError
        rng = np.random.default_rng(63)
        tight = Tolerances(psd=1e-22)
        n = 3
        floor = floor_member(rng, n, tight)
        good = rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n))
        assert np.isnan(schur._aim(np.stack([floor, good])[:, None])).all()
        assert np.isfinite(schur._aim(good[None, None])).all()
        core = SchurCore(valid_pencil(rng, 1, 3), PivotSubspace.from_indices(3, [0]))
        state = np.diag([1.0, 0.0, 0.0])
        core.evaluate((good,), state=state, tol=tight)
        for _ in range(10):
            x = (np.stack([floor_member(rng, n, tight), good]),)
            with pytest.raises(errors.RotationNotFound):
                core.evaluate(x, state=state, tol=tight)


def support_op(seed, index):
    """Pencil, pivot and upper half-space tuple of op ``index`` of perfbench's support workload
    at ``seed``, a ``sqrt`` op at n = 4, drawn as the workload draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, 0, index)))
    a = sampling.rand_tuple_interval(rng, 1, 4, 0.5, 2.0)
    v = sampling.rand_unit_vector(rng, 4)
    cert_seed = int(rng.integers(2**31))
    z = sampling.rand_herm(rng, 4) + 1j * (sampling.rand_psd(rng, 4) + 0.1 * np.eye(4))
    cert = support_pencil(resolve_function("sqrt"), a, v, interval=(0.5, 2.0), validation_samples=200,
                          seed=cert_seed)
    return cert.pencil, PivotSubspace.from_vector(cert.v), (z,)


class TestNormalizedCertificate:
    """Every essential direction has unit weight, so the aim alone certifies each upper member."""

    @pytest.mark.parametrize("seed,index", [(5, 18), (1, 0)], ids=["aim-missed", "refused"])
    def test_support_tuples_certify_at_the_aim(self, seed, index):
        # An absolute floor on the unnormalized essential blocks misses the
        # first at the aim and refuses the second at every angle in
        # (-pi/2, 0]: an essential direction with a small coefficient weight
        # cannot carry tol.psd (1 + ||L||_F)
        pencil, pivot, z = support_op(seed, index)
        out = schur_pencil(pencil, z, pivot)
        assert np.array_equal(out, SchurCore(pencil, pivot).evaluate(z))

    def test_coefficient_weights_from_one_to_1e_9(self):
        # B_0 = 2 B_1 with eigenvalues 1, 1e-3, 1e-6, 1e-9: every direction is
        # essential, and unnormalized the weakest carries too little to
        # clear an absolute floor
        rng = np.random.default_rng(71)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        b0 = (u * np.logspace(0, -9, 4)) @ u.conj().T
        core = SchurCore(pencil_new([b0, b0 / 2]), PivotSubspace.from_indices(4, [0]))
        (_, _, _, essential, weights), = core.groups
        assert weights.shape == (1, 4) and np.isclose(weights[0, -1] / weights[0, 0], 1e9)
        assert np.allclose(essential.sum(axis=1), np.eye(4), rtol=0, atol=1e-6)
        for _ in range(5):
            x = (rand_herm(rng, 2) + 1j * (rand_psd(rng, 2) + 0.1 * np.eye(2)),)
            checked = core.evaluate(x, tol=DEFAULT_TOL)
            assert np.array_equal(checked, core.evaluate(x))

    def test_near_pi_cone_is_refused(self):
        # W(X) for X = -1e6 I + 2e-3 i I sits 2e-9 rad below pi: at the aim
        # the real part of the normalized block I/2 (x) X is about 5e-4,
        # under the floor of about 1e-3
        b = np.array([[1.0, 0.03], [0.03, 1e-3]])
        x = -1e6 * np.eye(2) + 2e-3j * np.eye(2)
        assert in_upper_halfspace((x,))
        with pytest.raises(errors.RotationNotFound):
            schur_pencil(pencil_new([b, b]), (x,), PivotSubspace.from_indices(2, [0]))

    def test_output_below_the_upper_half_space_is_refused(self):
        # nothing is eliminated, so the output is the evaluation 2 I - X
        # itself, whose imaginary part -Im X is negative definite
        p = RawPencil((np.eye(2), -np.eye(2)))
        with pytest.raises(errors.HalfPlaneViolated):
            schur_pencil(p, (1j * np.eye(2),), PivotSubspace.from_indices(2, [0, 1]))

    @pytest.mark.parametrize("error", [errors.NotSectorial, errors.RotationNotFound, errors.HalfPlaneViolated],
                             ids=lambda e: e.__name__)
    def test_a_member_below_its_floor_takes_the_exact_check(self, monkeypatch, error):
        # The first member of each stack passes alone; the second fails the
        # check named.  The cone bound settles the first member's floor, so
        # only the second forms its block and takes its eigvalsh.  The output
        # check reads the whole stack.
        pencil, pivot, x, state = below_floor_stack(error)
        core = SchurCore(pencil, pivot)
        core.evaluate(tuple(m[0] for m in x), state=state, tol=DEFAULT_TOL)
        exact_args = []
        exact_min_eig = schur.min_eig
        monkeypatch.setattr(schur, "min_eig", lambda a: exact_args.append(np.shape(a)) or exact_min_eig(a))
        with pytest.raises(error):
            core.evaluate(x, state=state, tol=DEFAULT_TOL)
        if error is errors.HalfPlaneViolated:
            assert exact_args[-1] == (2, 2, 2)  # Im of the complements
        else:
            (_, index, _, essential, _), = core.groups
            assert len(index) == 1 and exact_args[-1] == (1, essential.shape[-1] * 2, essential.shape[-1] * 2)


def below_floor_stack(error):
    """Pencil, pivot, a two-member stacked tuple whose second member fails the check raising
    ``error`` in ``SchurCore.evaluate``, and a state."""
    b = np.array([[1.0, 0.03], [0.03, 1e-3]])
    pivot, state = PivotSubspace.from_indices(2, [0]), np.diag([1.0, 0.0])
    if error is errors.NotSectorial:  # right members; see the right-member test below
        return pencil_new([b, b]), pivot, (np.stack([r * np.eye(2) + 1e3j * np.diag([1.0, -1.0])
                                                     for r in (1e-5, 1.5e-6)]),), state
    if error is errors.RotationNotFound:  # an upper member and the near-pi cone above
        good = np.array([[0.3, 1.0], [1.0, -0.2]]) + 1j * np.array([[1.0, 0.5], [0.5, 2.0]])
        return pencil_new([b, b]), pivot, (np.stack([good, -1e6 * np.eye(2) + 2e-3j * np.eye(2)]),), state
    # nothing eliminated: the output is I + X_1 - X_2, whose imaginary part is
    # I for the first member and -I for the second
    up, down = 2j * np.eye(2), 1j * np.eye(2)
    pencil = RawPencil((np.eye(2), np.eye(2), -np.eye(2)))
    return pencil, PivotSubspace.from_indices(2, [0, 1]), (np.stack([up, down]), np.stack([down, up])), np.eye(2)


def reference_check_sector_bound(rotated, block, comp, tol):
    """Reference: the sec^2(alpha) check with the exact angle and spectral norms of every member."""
    alphas, _ = sector_certified_alpha(rotated)
    lhs = np.linalg.svd(comp, compute_uv=False)[..., 0]
    rhs = np.linalg.svd(block, compute_uv=False)[..., 0] / np.cos(alphas) ** 2
    if np.any(lhs > rhs * (1.0 + tol.eq)):
        worst = np.unravel_index(np.argmax(lhs / rhs), lhs.shape)
        raise errors.SectorBoundViolated(
            f"||S(L(X))|| = {lhs[worst]:.6g} exceeds sec^2(alpha)||L(X)|| = {rhs[worst]:.6g}"
        )


# At the default psd tolerance no block with a margin above its floor has an
# uncertified sector edge; below it, blocks whose real part is at rounding
# level leave alpha = pi/2.
TIGHT = Tolerances(psd=1e-22)


def edge_block(rng, d, tol):
    """A d x d block (d >= 2) whose sector edge check fails, so alpha = pi/2, with a margin above 10 floors."""
    while True:
        u = np.linalg.qr(rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d)))[0]
        w = 10.0 ** rng.uniform(-17, 0, size=(64, 1, d))
        k = rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d))
        a = (u * w) @ u.conj().transpose(0, 2, 1) + 0.5j * (k + k.conj().transpose(0, 2, 1))
        alphas, margins = sector_certified_alpha(a)
        floor = 10 * tol.psd * (1.0 + fro_norm(a))
        hit = (alphas == np.pi / 2) & (margins > floor) & (min_eig(a) > floor)
        if hit.any():
            return a[np.argmax(hit)]


def largest_column(block):
    """max_j ||L e_j||, the bound ``_check_sector_bound`` settles ||S||_F against."""
    return np.linalg.norm(block, axis=-2).max(axis=-1)


def diagonal(block):
    """The diagonal of each member of a stack, whose arguments bound its sector angle from below."""
    return np.diagonal(block, axis1=-2, axis2=-1)


def placed_complement(rng, block, k, kind):
    """A k x k complement S placed against the block L: by ||S||_F / max_j ||L e_j||
    ("settled", "column_below", "column_above") or by ||S||_2 / (sec^2(alpha) ||L||_2)
    ("sec2_below", "sec2_above", "violating")."""
    s = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    ratio = {"settled": rng.uniform(0.0, 0.9), "column_below": 1 - 1e-9, "column_above": 1 + 1e-9,
             "sec2_below": 1 - 1e-6, "sec2_above": 1 + 1e-6, "violating": 3.0}[kind]
    if kind.startswith("column") or kind == "settled":
        return s * (ratio * largest_column(block) / fro_norm(s))
    alpha = sector_certified_alpha(block[None])[0][0]
    return s * (ratio * np.linalg.norm(block, 2) / np.cos(alpha) ** 2 / np.linalg.norm(s, 2))


def outcome(check, *args):
    try:
        check(*args)
    except errors.OpmonoError as exc:
        return type(exc)
    return None


def outcome_or_linalg_error(check, *args):
    try:
        return outcome(check, *args)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


class TestSectorBoundCheck:
    """``_check_sector_bound`` gives the verdicts of the exact check on every member.

    Its blocks come certified sectorial by ``SchurCore.evaluate``: the
    normalized rotated ones, which give the angle, and the blocks D L D
    whose norms the bound compares.
    """

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, TIGHT], ids=["default", "tight-psd"])
    def test_raises_exactly_when_the_exact_check_raises(self, tol):
        rng = np.random.default_rng(47)
        complements = ["settled", "column_below", "column_above", "sec2_below", "sec2_above",
                       "violating"]
        weights = [0.5, 0.15, 0.15, 0.1, 0.05, 0.05]
        outcomes, seen = set(), {"settled_below": 0, "open_above": 0, "edge": 0}
        for _ in range(150):
            t, g, d, k = (int(rng.integers(1, m)) for m in (4, 4, 5, 4))
            rotated = np.empty((t, g, d, d), dtype=complex)
            blocks = np.empty((t, g, d, d), dtype=complex)
            comps = np.empty((t, g, k, k), dtype=complex)
            for i, j in np.ndindex(t, g):
                if tol is TIGHT and d >= 2 and rng.random() < 0.25:
                    rotated[i, j] = edge_block(rng, d, tol)
                    seen["edge"] += 1
                else:
                    rotated[i, j] = 10.0 ** rng.uniform(-3, 3) * rand_sectorial(rng, d, np.deg2rad(89))
                root = 10.0 ** rng.uniform(-2, 2, size=d) if rng.random() < 0.5 else np.ones(d)
                blocks[i, j] = root[:, None] * rotated[i, j] * root
                kind = complements[rng.choice(len(complements), p=weights)]
                comps[i, j] = placed_complement(rng, blocks[i, j], k, kind)
                settled = fro_norm(comps[i, j]) <= largest_column(blocks[i, j])
                seen["settled_below"] += kind == "column_below" and settled
                seen["open_above"] += kind == "column_above" and not settled
            expected = outcome(reference_check_sector_bound, rotated, blocks, comps, tol)
            assert outcome(_check_sector_bound, rotated, blocks, comps, tol) is expected
            outcomes.add(expected)
        assert outcomes == {None, errors.SectorBoundViolated}
        assert seen["settled_below"] and seen["open_above"]
        assert (seen["edge"] > 0) == (tol is TIGHT)

    def test_right_member_without_positive_real_part_is_not_sectorial(self):
        # The shifted pencil (B, B) evaluates to B (x) X, and its essential
        # block normalized to unit weights is I/2 (x) X.  With
        # X = r I + 1e3 i diag(1, -1) in the right half-space its real part
        # is r/2 I: r = 1e-5 clears the floor tol.psd (1 + ||I/2 (x) X||_F)
        # + 16 eps kappa ||I/2 (x) X||_F = 1.04e-6 (kappa about 1e4), which
        # r = 1.5e-6 does not, though X itself passes its own floor 1.41e-6
        b = np.array([[1.0, 0.03], [0.03, 1e-3]])
        core = SchurCore(pencil_new([b, b]), PivotSubspace.from_indices(2, [0]))
        rng = np.random.default_rng(51)
        upper = rand_herm(rng, 2) + 1j * (rand_psd(rng, 2) + 0.2 * np.eye(2))
        weak, bad = (r * np.eye(2) + 1e3j * np.diag([1.0, -1.0]) for r in (1e-5, 1.5e-6))
        assert in_right_halfspace((np.stack([weak, bad]),)).all()
        state = np.diag([1.0, 0.0])
        for x in (weak, np.stack([upper, weak])):
            checked = core.evaluate((x,), state=state, tol=DEFAULT_TOL)
            assert np.array_equal(checked, core.evaluate((x,), state=state))
        for x in (bad, np.stack([upper, bad])):
            with pytest.raises(errors.NotSectorial):
                core.evaluate((x,), state=state, tol=DEFAULT_TOL)

    def test_settled_members_make_no_svd_or_eigh(self, count_calls, small_rep):
        # two upper half-space members and one right half-space member, every
        # component settled by its Frobenius norms
        x = np.stack([np.diag([1.0, 2.0]) + 1j * np.diag([1.0, 0.5]),
                      np.array([[0.3, 1.0], [1.0, -0.2]]) + 1j * np.array([[1.0, 0.5], [0.5, 2.0]]),
                      np.diag([1.0, 2.0]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])])
        small_rep.core()
        svd, eigh = (count_calls(np.linalg, name) for name in ("svd", "eigh"))
        rep_eval_complex(small_rep, (x,))
        assert svd == [] and eigh == []

    @pytest.mark.parametrize("open_kind", ["norm", "spectral", "nan"])
    def test_only_the_open_member_takes_the_exact_angle(self, monkeypatch, count_calls, open_kind):
        rng = np.random.default_rng(53)
        blocks = np.stack([rand_sectorial(rng, 3) for _ in range(6)]).reshape(3, 2, 3, 3)
        comps = 0.1 * blocks[..., :1, :1]
        # ||S||_2 = ||L||_2, which the column-norm tiers leave open and the
        # spectral one settles; ||L||_2 < ||S||_2 < sec^2(alpha) ||L||_2, which
        # the column-norm and spectral tiers leave open and the exact angle
        # passes; or a NaN norm, which no tier settles
        norm, alpha = np.linalg.norm(blocks[1, 0], 2), sector_certified_alpha(blocks[1, 0][None])[0][0]
        comps[1, 0] = {"norm": norm, "spectral": norm * (1 + 1 / np.cos(alpha) ** 2) / 2, "nan": np.nan}[open_kind]
        assert not fro_norm(comps[1, 0]) <= diagonal_bound(blocks[1, 0], diagonal(blocks[1, 0]))
        # ||S||_2 of a 1 x 1 S
        assert (abs(comps[1, 0, 0, 0]) <= norm * (1 + DEFAULT_TOL.eq)) == (open_kind == "norm")
        expected = outcome_or_linalg_error(reference_check_sector_bound, blocks, blocks, comps, DEFAULT_TOL)
        seen = []
        exact = schur.sector_certified_alpha
        monkeypatch.setattr(schur, "sector_certified_alpha", lambda m: seen.append(m) or exact(m))
        svd = count_calls(np.linalg, "svd")
        got = outcome_or_linalg_error(_check_sector_bound, blocks, blocks, comps, DEFAULT_TOL)
        assert got is expected and expected is (np.linalg.LinAlgError if open_kind == "nan" else None)
        assert svd and all(shape[0] == 1 for shape in svd)
        if open_kind == "spectral":
            assert len(seen) == 1 and np.array_equal(seen[0], blocks[1, 0][None])
        else:  # settled by the spectral norms, or the svd of the NaN complement raises first
            assert seen == []
        if open_kind == "norm":
            assert len(svd) == 2

    def test_column_bound_settles_what_the_frobenius_bound_left_open(self, count_calls):
        # ||S||_F = 8, between ||L||_F / sqrt(3) (about 5.9) and max_j ||L e_j|| (about 10)
        rng = np.random.default_rng(59)
        block = np.diag([10.0, 1.0, 1.0]) + 0.3j * rand_herm(rng, 3)
        comp = 8.0 * np.eye(2) / np.sqrt(2)
        assert not np.sqrt(3) * fro_norm(comp) <= fro_norm(block)
        assert fro_norm(comp) <= largest_column(block)
        calls = [count_calls(np.linalg, name) for name in ("svd", "eigh", "eigvalsh")]
        _check_sector_bound(block[None, None], block[None, None], comp[None, None], DEFAULT_TOL)
        assert calls == [[], [], []]


@st.composite
def settled_pairs(draw):
    """A sectorial d x d block L = D L~ D and a k x k complement S with ||S||_F up to max_j ||L e_j||."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    g = draw(hnp.arrays(float, (3, d, d), elements=unit))
    root = 10.0 ** draw(hnp.arrays(float, d, elements=st.floats(-2.0, 2.0)))
    s = draw(hnp.arrays(float, (2, k, k), elements=unit))
    re = g[0] @ g[0].T + g[1] @ g[1].T + 1e-3 * np.eye(d)
    rotated = re + 1j * draw(st.floats(0.0, 5.0)) * (g[2] + g[2].T)
    block = root[:, None] * rotated * root
    comp = s[0] + 1j * s[1]
    if fro_norm(comp) > 0:
        comp = comp * (draw(st.floats(0.0, 1.0)) * largest_column(block) / fro_norm(comp))
    return rotated, block, comp


@given(settled_pairs())
def test_column_shortcut_implies_the_exact_bound(pair):
    rotated, block, comp = (m[None, None] for m in pair)
    assume(fro_norm(comp[0, 0]) <= largest_column(block[0, 0]))
    assert outcome(reference_check_sector_bound, rotated, block, comp, DEFAULT_TOL) is None
    assert outcome(_check_sector_bound, rotated, block, comp, DEFAULT_TOL) is None


def diagonal_bound(block, diag):
    """max_j ||L e_j|| / c^2, c = min_j Re d_j / |d_j|, where every Re d_j > 0; else max_j ||L e_j||."""
    with np.errstate(invalid="ignore"):
        c = (diag.real / np.abs(diag)).min(axis=-1)
    return largest_column(block) / np.where((diag.real > 0).all(axis=-1), c * c, 1.0)


@st.composite
def open_pairs(draw):
    """A pair of ``settled_pairs`` turned by e^{i phi}, |phi| up to pi/2, at times with one diagonal
    entry moved onto or left of the imaginary axis (which makes it unsectorial), and its complement
    placed against its diagonal bound or against the exact sec^2(alpha) ||L||_2, within 1e-12 of
    either, 1e-7 above it, or at 0.5-2 times it."""
    rotated, block, comp = draw(settled_pairs())
    phase = np.exp(1j * draw(st.sampled_from([1.0, -1.5, 1.57, np.pi / 2]) | st.floats(-np.pi / 2, np.pi / 2)))
    rotated, block = phase * rotated, phase * block
    if draw(st.booleans()):
        j = draw(st.integers(0, len(rotated) - 1))
        moved = abs(rotated[j, j]) * (draw(st.sampled_from([0.0, -1e-12, -0.3, -1.0])) + 1j)
        block[j, j] *= moved / rotated[j, j]
        rotated[j, j] = moved
    comp = comp if fro_norm(comp) > 0 else np.ones_like(comp)
    alpha = sector_certified_alpha(rotated[None])[0][0]
    if alpha == np.pi / 2 or draw(st.booleans()):
        target, norm = diagonal_bound(block, np.diagonal(rotated)), fro_norm(comp)
    else:
        target, norm = np.linalg.norm(block, 2) / np.cos(alpha) ** 2, np.linalg.norm(comp, 2)
    ratio = draw(st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-7, 2.0]) | st.floats(0.5, 1.5))
    comp = comp * (ratio * target / norm) if np.isfinite(target) else comp
    return rotated, block, comp


@settings(max_examples=200, derandomize=True)
@given(open_pairs())
def test_diagonal_angles_never_settle_a_member_the_exact_tiers_refuse(pair):
    rotated, block, comp = (m[None] for m in pair)
    settled = schur._sector_settles(comp, block, diagonal(rotated))[0]
    expected = outcome(reference_check_sector_bound, rotated, block, comp, DEFAULT_TOL)
    assert not (settled and expected is not None)
    if not (diagonal(rotated).real > 0).all():  # such a member keeps tier 1, c = 1
        assert settled == (fro_norm(comp[0]) <= largest_column(block[0]))
    assert outcome(_check_sector_bound, rotated, block, comp, DEFAULT_TOL) is expected


class TestDiagonalAngles:
    """Tier 2 of ``schur._sector_settles``: the angles of the rotated diagonal bound alpha from below."""

    @staticmethod
    def settles(block, s, diag=None):
        block = np.asarray(block, dtype=complex)[None]
        diag = diagonal(block) if diag is None else np.asarray(diag, dtype=complex)[None]
        return bool(schur._sector_settles(np.array([[[s]]], dtype=complex), block, diag)[0])

    def test_the_rounding_allowance_keeps_the_bound_below_its_exact_value(self):
        # L = [3 + 4i]: max_j ||L e_j|| = 5 and c = 3/5 exactly, so the bound is 125/9;
        # 5 / fl(fl(3/5)^2) rounds above it, and an S of that norm must stay open
        block = [[3 + 4j]]
        rounded = 5.0 / (0.6 * 0.6)
        assert Fraction(rounded) > Fraction(125, 9) and 3 / 5 == 0.6
        assert not self.settles(block, rounded)
        assert self.settles(block, 125 / 9 * (1 - 32 * EPS))  # the allowance costs a few ulps

    def test_the_largest_angle_sets_the_bound(self):
        # L = diag(2, 1 + i): max_j ||L e_j|| = 2, c = cos(pi/4), so the bound is 4
        block = np.diag([2.0, 1.0 + 1.0j])
        assert not self.settles(block, 3.0, [2.0, 2.0])  # tier 1 alone: 3 > 2
        assert self.settles(block, 3.0) and not self.settles(block, 4.01)

    @pytest.mark.parametrize("entry", [1j, -1e-3 + 1j, complex(-8 * np.finfo(float).eps, 1.0), -1.0 + 0j, 0j,
                                       np.nan, np.inf, complex(np.inf, 1.0)],
                             ids=["axis", "left", "c_zero", "negative", "zero", "nan", "inf", "inf_real"])
    def test_a_diagonal_entry_on_or_left_of_the_axis_keeps_tier_1(self, entry):
        # without the guard, an entry on the axis or just left of it would give c near 0 and a
        # bound 2 / c^2 far above 3
        block = np.diag([2.0, 1.0 + 0j])
        assert self.settles(block, 2.0, [2.0, entry]) and not self.settles(block, 3.0, [2.0, entry])


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", NON_FINITE, ids=str)
@pytest.mark.parametrize("call", CALLS, ids=str)
def test_non_finite_input_raises_typed_error(call, matrix, small_rep):
    with pytest.raises(errors.OpmonoError):
        CALLS[call](NON_FINITE[matrix], small_rep)


def _spoiled(m, bad):
    """A copy of m with the off-diagonal entry (0, 1) set to ``bad``."""
    m = np.array(m, dtype=complex)
    m[0, 1] = bad
    return m


ENTRY_POINTS = {
    "pencil_new": lambda bad: pencil_new([_spoiled(2 * np.eye(2), bad), np.eye(2)]),
    "PencilRepresentation": lambda bad: PencilRepresentation(
        pencil_new([2 * np.eye(2), np.eye(2)]), PivotSubspace.from_indices(2, [0]), _spoiled(np.eye(2) / 2, bad)
    ),
    "PivotSubspace": lambda bad: PivotSubspace(_spoiled(np.eye(3)[:, :2], bad)),
    "herm_certify": lambda bad: herm_certify(_spoiled(np.eye(2), bad)),
    "shorted_psd": lambda bad: shorted_psd(_spoiled(np.eye(3), bad), PivotSubspace.from_indices(3, [0])),
    "schur_generic": lambda bad: schur_generic(_spoiled(np.eye(3), bad), PivotSubspace.from_indices(3, [0])),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", ENTRY_POINTS, ids=str)
def test_non_finite_entry_raises_typed_error(call, bad):
    with pytest.raises(errors.OpmonoError):
        ENTRY_POINTS[call](bad)


EPS = np.finfo(float).eps


def cone_case(rng, validated):
    """A core of 1-3 decoupled components and a stack of 1-3 tuples at n = 1..4 and arity 1 or 2.

    Coefficients are PSD of random rank, so some essential ranges miss part
    of their component.  A validated pencil has B_0 = sum B_i + PSD; an
    unvalidated one lowers B_0 below that sum, moves a B_i off the PSD cone
    or off the Hermitian matrices, or has B_0 = 0.  Each member is a right or an upper tuple whose
    Hermitian part in the half-space runs from about 1e-3 to 10.
    """
    k = int(rng.integers(1, 3))

    def psd(d):
        r = int(rng.integers(0, d + 1))
        g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        return g @ g.conj().T

    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        d = int(rng.integers(1, 4))
        coeffs = [None] + [psd(d) for _ in range(k)]
        coeffs[0] = sum(coeffs[1:]) + rng.uniform(0.0, 1.0) * psd(d)
        if not validated:
            kind = rng.integers(4)
            if kind == 0:
                coeffs[0] = coeffs[0] - rng.uniform(0.0, 2.0) * psd(d)
            elif kind == 1:
                coeffs[1] = coeffs[1] + rng.uniform(0.0, 0.5) * rand_herm(rng, d)
            elif kind == 2:
                coeffs[1] = coeffs[1] + 1j * rng.uniform(0.0, 0.5) * rand_herm(rng, d)  # not Hermitian
            else:
                coeffs[0] = np.zeros((d, d))
        blocks.append(coeffs)
    coeffs = [block_diag(*(b[j] for b in blocks)) for j in range(k + 1)]
    if not np.any(coeffs):  # every coefficient drew rank 0
        coeffs[0] = np.eye(len(coeffs[0]))
    pencil = pencil_new(coeffs) if validated else RawPencil(tuple(coeffs))
    size = pencil.size
    pivot = sorted(rng.choice(size, int(rng.integers(1, size + 1)), replace=False).tolist())
    n, members = int(rng.integers(1, 5)), []
    for _ in range(int(rng.integers(1, 4))):
        upper, scale = rng.random() < 0.6, 10.0 ** rng.uniform(-3, 1)
        parts = [(rand_herm(rng, n), scale * rand_psd(rng, n) + 1e-3 * np.eye(n)) for _ in range(k)]
        members.append([h + 1j * p if upper else p + 1j * h for h, p in parts])
    x = tuple(np.stack([m[i] for m in members]) for i in range(k))
    return SchurCore(pencil, PivotSubspace.from_indices(size, pivot)), x


def blocks_as_formed(core, x, tol=DEFAULT_TOL):
    """Per group with eliminated directions: (index, theta, full, comp, rotated, block), every
    normalized block formed as ``SchurCore.evaluate`` formed it before the cone bound."""
    args = pencil_arguments(core.pencil, x, shifted=True)
    lead, n = args.shape[:-3], args.shape[-1]
    right = np.broadcast_to(in_right_halfspace(x, tol), lead)
    theta = np.zeros(lead)
    if not right.all():
        theta[~right] = schur._aim(args[~right][:, 1:] + np.eye(n))
    args = args[..., None, :, :, :]
    out = []
    for i, (kept, _, coeffs, essential, weights) in enumerate(core.groups):
        if essential is None:
            continue
        full, k = kron_sum(coeffs, args), kept * n
        comp = full[..., :k, :k] - full[..., :k, k:] @ schur._eliminate(full[..., k:, k:], full[..., k:, :k])
        normalized = kron_sum(essential, args)
        root = np.repeat(np.sqrt(weights), n, axis=-1)
        rotated = np.exp(1j * theta)[..., None, None, None] * normalized
        out.append((i, theta, full, comp, rotated, root[:, :, None] * normalized * root[:, None, :]))
    return right, out


def checks_as_before(core, x, state=None, tol=DEFAULT_TOL):
    """Reference: ``SchurCore.evaluate(x, state, tol)`` as it was before the cone bound.

    Every normalized block is formed and held to its floor by its exact
    smallest eigenvalue, and every member takes the sec^2(alpha) bound at
    its exact angle.
    """
    args = pencil_arguments(core.pencil, x, shifted=True, one=state is None)
    floors = [psd_floor(m, tol) for m in x]
    right = np.broadcast_to(schur._in_halfspace(re_part, x, floors), args.shape[:-3])
    if not (right.all() or np.all(right | schur._in_halfspace(im_part, x, floors))):
        raise errors.DomainViolation("tuple lies in neither operator half-space")
    out = core.evaluate(x, state=state)
    x = tuple(np.broadcast_to(m, args.shape[:-3] + m.shape[-2:]) for m in x)
    for i, _, _, comp, rotated, block in blocks_as_formed(core, x, tol)[1]:
        slack = 16 * EPS * core.groups[i][4][:, -1] / core.groups[i][4][:, 0]
        size = fro_norm(rotated)
        failed = ~(min_eig(rotated) > tol.psd_floor_at(size) + slack * size)
        if np.any(failed & right[..., None]):
            raise errors.NotSectorial("an eliminated component of a right member is not sectorial")
        if failed.any():
            raise errors.RotationNotFound("the aimed rotation leaves an eliminated component unsectorial")
        reference_check_sector_bound(rotated, block, comp, tol)
    upper = out[~right]
    lam = min_eig(im_part(upper))
    if np.any(lam < -psd_floor(upper, tol)):
        raise errors.HalfPlaneViolated(f"imaginary part of the complement dips to {np.min(lam):.3e}")
    return out


def verdict(f, *args, **kwargs):
    """("ok", output bytes) or (error type, message)."""
    try:
        return "ok", f(*args, **kwargs).tobytes()
    except errors.OpmonoError as exc:
        return type(exc), str(exc)


class TestConeBound:
    """The cone bound settles a member's floor check, the check on full_c its first sector check,
    and every member either leaves open takes the checks it took before, with the same outcome."""

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_bound_never_exceeds_the_exact_smallest_eigenvalue(self, seed, validated):
        # lambda_min Re(e^{i theta} L~) of the formed block is at least the
        # bound, and the floor the bound is held to is at least the floor of
        # the formed block
        core, x = cone_case(np.random.default_rng(seed), validated)
        args = pencil_arguments(core.pencil, x, shifted=True)
        n, tol = args.shape[-1], DEFAULT_TOL
        _, formed = blocks_as_formed(core, x)
        for i, theta, _, _, rotated, _ in formed:
            norms, margin = schur._cone_margin(args, theta)
            bound, floor = core._cone_bound(i, norms, margin, n, tol)
            assert np.all(bound <= np.linalg.eigvalsh(herm_part(rotated))[..., 0])
            weights = core.groups[i][4]
            size = fro_norm(rotated)
            assert np.all(floor >= tol.psd_floor_at(size) + 16 * EPS * weights[:, -1] / weights[:, 0] * size)

    def test_bound_settles_validated_members_and_is_sharp(self):
        # in a half-space a validated pencil's members clear their floors by
        # far more than the allowances, and the bound is within 1e-6 of the
        # exact smallest eigenvalue when A_0 = I/2 and m is lambda_min
        rng = np.random.default_rng(81)
        settled = total = 0
        for _ in range(60):
            core, x = cone_case(rng, validated=True)
            args = pencil_arguments(core.pencil, x, shifted=True)
            for i, theta, _, _, _, _ in blocks_as_formed(core, x)[1]:
                bound, floor = core._cone_bound(i, *schur._cone_margin(args, theta), args.shape[-1], DEFAULT_TOL)
                settled += int(np.count_nonzero(bound > floor))
                total += bound.size
        assert settled >= 0.9 * total > 0
        # (B, B): A_0 = A_1 = I/2, so L~ = I/2 (x) X and the bound is lambda_min(Re X)/2
        b = np.array([[1.0, 0.5], [0.5, 1.0]])
        core = SchurCore(pencil_new([b, b]), PivotSubspace.from_indices(2, [0]))
        x = np.diag([0.3, 2.0]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        args = pencil_arguments(core.pencil, (x,), shifted=True)
        norms, margin = schur._cone_margin(args, np.zeros(()))
        bound, _ = core._cone_bound(0, norms, margin, 2, DEFAULT_TOL)
        assert 0.0 <= min_eig(x) / 2 - bound[0] <= 1e-6
        # m * lambda_min(A_0) bounds nothing when m < 0, even where A_0 has a negative eigenvalue
        core = SchurCore(RawPencil((-b / 2, b)), PivotSubspace.from_indices(2, [0]))  # A_0 = -I
        bound, _ = core._cone_bound(0, norms, np.array(-1.0), 2, DEFAULT_TOL)
        assert core._cone[0][0][0] < 0 and bound[0] == -np.inf

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_check_on_full_c_never_settles_a_failing_member(self, seed, validated):
        core, x = cone_case(np.random.default_rng(seed), validated)
        for i, theta, full, comp, rotated, block in blocks_as_formed(core, x)[1]:
            essential = core.groups[i][3]
            if essential.shape[-1] < core.groups[i][2].shape[-1]:
                continue  # the check reads full_c only where E spans the component
            settled = schur._sector_settles(comp, full, np.exp(1j * theta)[..., None, None] * diagonal(full))
            for j in zip(*np.nonzero(settled)):
                member = tuple(m[j][None] for m in (rotated, block, comp))
                assert outcome(reference_check_sector_bound, *member, DEFAULT_TOL) is None

    @given(settled_pairs(), st.integers(0, 2**32 - 1), st.floats(0.5, 1.5))
    def test_check_on_full_c_implies_the_exact_bound(self, pair, seed, stretch):
        # full_c = (E (x) I) L (E (x) I)* for a unitary E holds the block L
        # in other coordinates, with ||full_c||_2 = ||L||_2 but other columns
        rotated, block, comp = pair
        d = block.shape[-1]
        e = sampling.rand_unitary(np.random.default_rng(seed), d)
        full = e @ block @ e.conj().T
        comp = stretch * comp
        if schur._sector_settles(comp[None], full[None], diagonal(full)[None])[0]:
            assert outcome(reference_check_sector_bound, rotated[None], block[None], comp[None], DEFAULT_TOL) is None

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_each_member_passes_or_is_refused_as_before(self, seed, validated, with_state):
        core, x = cone_case(np.random.default_rng(seed), validated)
        state = None
        if with_state:
            state = rand_psd(np.random.default_rng(seed), core.pencil.size)
            state /= np.trace(state).real
        for j in range(len(x[0])):
            member = tuple(m[j] for m in x)
            assert verdict(core.evaluate, member, tol=DEFAULT_TOL) == verdict(checks_as_before, core, member)
        if state is not None:
            got = verdict(core.evaluate, x, state=state, tol=DEFAULT_TOL)
            assert got == verdict(checks_as_before, core, x, state)

    def test_every_refusal_is_met_as_before(self):
        # unvalidated pencils reach every refusal of the half-space path, each
        # with the type and message it had when every block was formed
        rng = np.random.default_rng(83)
        seen = set()
        for _ in range(400):
            core, x = cone_case(rng, validated=bool(rng.random() < 0.2))
            expected = verdict(checks_as_before, core, x, np.eye(core.pencil.size) / core.pencil.size)
            assert verdict(core.evaluate, x, state=np.eye(core.pencil.size) / core.pencil.size,
                           tol=DEFAULT_TOL) == expected
            seen.add(expected[0])
        assert seen >= {"ok", errors.NotSectorial, errors.RotationNotFound, errors.SectorBoundViolated,
                        errors.HalfPlaneViolated}

    def test_homogeneous_pencil_at_a_right_tuple_is_not_sectorial(self):
        # B_0 = 0 gives A_0 = 0, so the bound settles nothing and the formed
        # block I (x) (X - I), whose real part is -I/2, is refused as before
        core = SchurCore(RawPencil((np.zeros((2, 2)), np.array([[1.0, 0.5], [0.5, 1.0]]))),
                         PivotSubspace.from_indices(2, [0]))
        x = (0.5 * np.eye(2) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]]),)
        assert in_right_halfspace(x)
        expected = (errors.NotSectorial, "an eliminated component of a right member is not sectorial")
        assert verdict(core.evaluate, x, tol=DEFAULT_TOL) == expected == verdict(checks_as_before, core, x)

    def test_upper_tuple_without_a_cholesky_factor_is_refused(self):
        # the NaN aim gives a NaN margin, which settles nothing, so the
        # formed block takes the floor check and is refused as before
        rng = np.random.default_rng(85)
        tight = Tolerances(psd=1e-22)
        core = SchurCore(valid_pencil(rng, 1, 3), PivotSubspace.from_indices(3, [0]))
        x = (floor_member(rng, 3, tight),)
        expected = (errors.RotationNotFound, "the aimed rotation leaves an eliminated component unsectorial")
        assert verdict(core.evaluate, x, tol=tight) == expected == verdict(checks_as_before, core, x, tol=tight)

    def test_a_group_without_the_check_on_full_c_takes_no_cone_bound(self, count_calls):
        # the coefficient sum has rank 2 on a component of 3 directions, so
        # every member forms its block and takes the floor check on it
        g = np.array([[1.0, 0.5], [0.3, 1.0], [0.7, -0.4]])
        core = SchurCore(pencil_new([2 * g @ g.T, g @ g.T]), PivotSubspace.from_indices(3, [0]))
        (_, _, coeffs, essential, _), = core.groups
        assert essential.shape[-1] == 2 < coeffs.shape[-1] == 3
        x = (2 * np.eye(2) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]]),)
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        checked = verdict(core.evaluate, x, tol=DEFAULT_TOL)
        assert core._cone is None and (1, 4, 4) in eigvalsh
        assert checked == verdict(checks_as_before, core, x)

    def test_constants_wait_for_the_first_half_space_evaluation(self, count_calls):
        # reconstruct's cores never check a half-space, so they never pay for them
        rng = np.random.default_rng(87)
        core = SchurCore(valid_pencil(rng, 2, 4), PivotSubspace.from_indices(4, [0]))
        x = (2 * np.eye(2), 3 * np.eye(2))
        eigvalsh = count_calls(np.linalg, "eigvalsh")
        core.evaluate(x)
        assert eigvalsh == [] and core._cone is None
        core.evaluate(x, tol=DEFAULT_TOL)
        (_, index, _, essential, _), = core.groups
        assert (len(index), essential.shape[1] + 1) + essential.shape[-2:] in eigvalsh
        calls = len(eigvalsh)
        core.evaluate(x, tol=DEFAULT_TOL)
        assert len(eigvalsh) == 2 * calls - 1  # the constants are kept
