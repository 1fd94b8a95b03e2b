
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmono import errors
from opmono.matcore import (
    DEFAULT_TOL,
    Tolerances,
    block_diag,
    cholesky_proves,
    cholesky_shift,
    fro_norm,
    funcalc,
    herm_certify,
    herm_part,
    im_part,
    loewner_leq,
    loewner_margin,
    min_eig,
    psd_floor,
    re_part,
    require_psd,
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

    def test_each_member_meets_its_own_defect_bound(self):
        # a defect of 1e-7 is far above 1e-9 (1 + ||M||_F) for this member,
        # but below the bound of a stacked 1e3 I; the stack must not hide it
        m = np.array([[1.0, 1e-7], [0.0, 1.0]])
        with pytest.raises(errors.NotHermitian):
            herm_certify(m)
        with pytest.raises(errors.NotHermitian):
            herm_certify(np.stack([m, 1e3 * np.eye(2)]))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(2), np.zeros((0, 0))], ids=["non-square", "1-D", "0x0"])
    def test_malformed_shapes_refused(self, m):
        with pytest.raises(errors.DimensionMismatch):
            loewner_leq(m, m)

    @pytest.mark.filterwarnings("error")
    def test_infinite_member_reads_false_without_warning(self):
        inf = np.diag([np.inf, 1.0])
        assert not loewner_leq(inf, inf)  # inf - inf is NaN
        assert not loewner_leq(np.zeros((2, 2)), inf)
        assert not loewner_leq(inf, np.eye(2))

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

    def test_each_member_meets_its_own_floor(self):
        # lambda_min = -1e-7 is below this member's floor, though above the floor of a stacked 1e3 I
        gap = np.diag([1.0, -1e-7])
        assert not loewner_leq(np.zeros((2, 2)), gap)
        assert not loewner_leq(np.zeros((2, 2, 2)), np.stack([gap, 1e3 * np.eye(2)]))
        assert loewner_leq(np.zeros((2, 2, 2)), np.stack([np.diag([1.0, -1e-10]), 1e3 * np.eye(2)]))


BIG = 1e200 * np.eye(2)


class TestFroNorm:
    @pytest.mark.filterwarnings("error")
    def test_a_mixed_stack_rescales_only_its_overflowing_member(self):
        norms = fro_norm(np.stack([BIG, np.diag([3.0, 4.0]), np.diag([np.inf, 1.0])]))
        assert norms[0] == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)
        assert list(norms[1:]) == [5.0, np.inf]  # the plain sum of squares, and a non-finite member stays so

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e100, 1e151, 1e153])
    def test_a_finite_sum_of_squares_keeps_its_bits(self, scale):
        rng = np.random.default_rng(7)
        x = scale * (rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)))
        assert np.array_equal(fro_norm(x), np.sqrt(np.sum(np.abs(x) ** 2, axis=(-1, -2))))
        assert fro_norm(x[0]) == np.sqrt(np.sum(np.abs(x[0]) ** 2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300, 1e308])
    def test_an_overflowing_sum_is_rescaled(self, scale):
        rng = np.random.default_rng(8)
        unit = rng.uniform(0.5, 1.0, size=(4, 2, 2)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(4, 2, 2)))
        norms = fro_norm(scale * unit)
        assert np.all(np.isfinite(norms))
        assert norms == pytest.approx(scale * fro_norm(unit), rel=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,expect", [
    (lambda: herm_certify(BIG), BIG),
    (lambda: loewner_leq(BIG, 2 * BIG), True),
    (lambda: loewner_leq(2 * BIG, BIG), False),
    (lambda: psd_floor(BIG), DEFAULT_TOL.psd * np.sqrt(2) * 1e200),
    (lambda: require_psd(BIG, errors.NotPSD, "A"), 1e200),
    (lambda: sector_estimate(BIG).margin, 1e200),
], ids=["herm_certify", "loewner_leq", "loewner_leq-reversed", "psd_floor", "require_psd",
        "sector_estimate"])
def test_entries_near_the_float_limit_give_finite_answers_without_warning(call, expect):
    # each call takes fro_norm of a matrix whose squared entries overflow
    assert np.all(call() == pytest.approx(expect, rel=1e-15))


class TestPsdRule:
    def test_floor_is_per_member(self):
        stack = np.stack([np.zeros((2, 2)), 3.0 * np.eye(2), np.diag([4.0, 0.0])])
        assert np.array_equal(psd_floor(stack), DEFAULT_TOL.psd * np.array([1.0, 1.0 + np.sqrt(18.0), 5.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["herm", "psd", "rank", "eq"])
    def test_a_non_finite_tolerance_is_refused(self, name, value):
        # a NaN or infinite bound would let every check pass
        with pytest.raises(errors.BadConfig, match=f"tolerance {name} must be finite"):
            Tolerances(**{name: value})

    def test_require_psd_returns_the_margins(self):
        stack = np.stack([np.diag([2.0, 1.0]), np.diag([3.0, -1e-10])])
        assert np.array_equal(require_psd(stack, errors.NotPSD, "stack"), [1.0, -1e-10])

    def test_require_psd_raises_the_given_error_with_the_worst_eigenvalue(self):
        stack = np.stack([np.diag([1.0, -1e-3]), np.diag([1.0, -2e-3]), np.eye(2)])
        with pytest.raises(errors.DominanceViolated, match="the gap has minimum eigenvalue -2.000e-03"):
            require_psd(stack, errors.DominanceViolated, "the gap")


EPS = np.finfo(float).eps
KINDS = ("near", "slack_edge", "rank_deficient", "conditioned", "nan", "inf", "random")


def screened_member(rng, n, kind, floor):
    """An n x n complex matrix of the given kind whose Hermitian part is placed against ``floor``.

    "near": lambda_min a few ulps * ||a|| either side of the floor; "slack_edge":
    lambda_min about where the Cholesky screen starts to succeed; "rank_deficient":
    PSD with a kernel; "conditioned": PSD with condition number up to 1e14;
    "nan"/"inf": one non-finite entry; "random": an arbitrary Hermitian part.
    """
    u = rand_unitary(rng, n)
    scale = 10.0 ** rng.uniform(-3, 3)
    lam = scale * rng.uniform(0.5, 2.0, n)
    if kind == "rank_deficient":
        lam[: int(rng.integers(1, n + 1))] = 0.0
    elif kind == "conditioned":
        lam = scale * np.logspace(-rng.uniform(0, 14), 0, n)
    elif kind == "random":
        lam = scale * rng.normal(size=n)
    elif kind in ("near", "slack_edge"):
        lam = lam + floor  # the other eigenvalues lie above the floor
        norm = np.sqrt(np.sum(lam[1:] ** 2)) + abs(floor)
        step = (int(rng.integers(-8, 9)) if kind == "near"
                else 32 * n * n * rng.choice([0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0]))
        lam[0] = floor + step * EPS * norm
    h = (u * lam) @ u.conj().T
    a = h + 1j * rng.normal() * scale * rand_herm(rng, n)  # plus an anti-Hermitian part
    if kind in ("nan", "inf"):
        i, j = rng.integers(n, size=2)
        a[i, j] = np.nan if kind == "nan" else np.inf
    return a


@st.composite
def screened_stacks(draw):
    """A single matrix or a (..., g, d, d) stack of adversarial members, with its floors."""
    n = draw(st.integers(1, 16))
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    magnitude = 10.0 ** draw(st.floats(-12, 2))
    per_member = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = int(np.prod(lead))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=size, max_size=size))
    floors = sign * magnitude * (rng.uniform(0.5, 2.0, size) if per_member else np.ones(size))
    a = np.stack([screened_member(rng, n, k, f) for k, f in zip(kinds, floors)])
    if lead == ():
        return a[0], float(floors[0])
    floor = floors.reshape(lead) if per_member else float(floors[0])
    return a.reshape(lead + (n, n)), floor


def flat_members(case):
    """A ``screened_stacks`` case as a flat stack and one floor per member."""
    a, floor = case
    n = a.shape[-1]
    return a.reshape(-1, n, n), np.broadcast_to(floor, a.shape[:-2]).ravel()


class TestCholeskyProves:
    """``cholesky_proves`` factors each member alone and proves only members above their floors."""

    @settings(max_examples=120)
    @given(screened_stacks())
    def test_a_proved_member_lies_above_its_floor(self, case):
        # eigvalsh's value too, since the shift holds more than its rounding; a non-finite member is never proved
        a, floor = flat_members(case)
        with np.errstate(invalid="ignore", over="ignore"):
            proved, exact = cholesky_proves(a.copy(), floor), min_eig(a)
        assert proved.shape == floor.shape
        assert np.all(exact[proved] > floor[proved])

    @settings(max_examples=120)
    @given(screened_stacks())
    def test_it_agrees_with_lapack_away_from_the_threshold(self, case):
        # members whose shifted lambda_min lies within 1e-8 of their size of zero may go either way
        a, floor = flat_members(case)
        shift = cholesky_shift(a, floor)
        with np.errstate(invalid="ignore", over="ignore"):
            proved = cholesky_proves(a.copy(), floor)
        for member, s, ok in zip(a, shift, proved):
            if not np.isfinite(member).all():
                assert not ok
                continue
            shifted = herm_part(member) - s * np.eye(len(member))
            if abs(np.linalg.eigvalsh(shifted)[0]) <= 1e-8 * (fro_norm(member) + abs(s)):
                continue
            try:
                factored = bool(np.isfinite(np.linalg.cholesky(shifted)).all())
            except np.linalg.LinAlgError:
                factored = False
            assert ok == factored

    def test_each_member_has_its_own_outcome(self):
        # numpy's cholesky raises for the whole stack; here only the indefinite member fails
        stack = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0]), 2 * np.eye(3)]).astype(complex)
        assert list(cholesky_proves(stack.copy(), 0.5)) == [True, False, True]
        assert list(cholesky_proves(stack.copy(), np.array([0.5, -2.0, 2.5]))) == [True, True, False]


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

    def test_each_member_takes_its_own_domain_slack(self):
        # -1e-5 lies outside [0, 1e12] by more than 1e-8 (1 + 1), though not by 1e-8 (1 + 1e10)
        own = np.diag([-1e-5, 1.0])
        for a in (own, np.stack([own, np.diag([1e10, 1.0])]), np.stack([np.diag([1e10, 1.0]), own])):
            with pytest.raises(errors.SpectrumOutOfDomain, match=r"spectrum \[-1e-05, 1\]"):
                funcalc(lambda w: w, a, domain=(0.0, 1e12))

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

    def test_herm_part_keeps_signed_zeros_and_the_bits_of_complex_halving(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a[0, 2], a[2, 0] = complex(-0.0, 0.01), complex(-0.0, -0.01)
        h = herm_part(a)
        assert np.signbit(h[0, 2].real) and np.signbit(h[2, 0].real)
        assert np.array_equal(h, (a + a.conj().T) / 2)
        assert np.array_equal(herm_part(a.real), (a.real + a.real.T) / 2)


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
    """PSD kernel facts behind Douglas's range inclusion ran A_21 in ran A_22^{1/2}.

    Shorted operators rest on it (``tests/test_schur.py::TestShortedPsd``).
    """

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
