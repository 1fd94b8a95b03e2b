import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opmono import errors
from opmono.cert import nc_axiom_check
from opmono.freefun import (
    CATALOGUE_IDS,
    MobiusMap,
    arithmetic_mean,
    fake_trace_fn,
    frechet_derivative,
    frechet_many,
    geometric_mean_2,
    geometric_mean_2_fn,
    harmonic_mean,
    karcher_mean,
    karcher_mean_fn,
    lift_scalar,
    mobius_apply,
    mobius_fn,
    power_mean,
    power_mean_fn,
    resolve_function,
    weighted_geo,
)
from opmono.gradients import dk_map, hermitian_basis, loewner_matrix, solve_linear_map
from opmono.matcore import DEFAULT_TOL, dagger, fro_norm, funcalc, herm_part, im_part, min_eig
from opmono.pencil import pencil_eval, pencil_eval_shifted, pencil_new, pencil_sectorial_check
from opmono.represent import PencilRepresentation, rep_eval, rep_eval_complex, support_pencil
from opmono.sampling import (draw, finish_spd, finish_unitary, rand_herm, rand_psd, rand_spd_interval,
                             rand_tuple_interval, rand_unitary, spd_plan)
from opmono.schur import PivotSubspace, SchurCore, schur_pencil


def stacked_pair(rng, m, n):
    """Two (m, n, n) stacks of positive definite matrices with spectra in [0.5, 2]."""
    rows = [rand_tuple_interval(rng, 2, n, 0.5, 2.0) for _ in range(m)]
    return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])


def worst_rel(x, y):
    return float(np.max(fro_norm(x - y) / (1.0 + fro_norm(y))))


def karcher_residual(z, xs, w):
    """sum w_i log(L^{-1} X_i L^{-*}) with Z = L L*, the Karcher gradient as the solver forms it."""
    from opmono.freefun import _eigh_fun, _factor

    linv = _factor(z, "the mean")[1]
    return sum(wi * _eigh_fun(np.log, linv @ xi @ dagger(linv)) for wi, xi in zip(w, xs))


def mean_of(xs, w, t):
    """Power mean P_t of the tuple, or its Karcher mean when t is None."""
    return karcher_mean(xs, w) if t is None else power_mean(xs, t, w)


class TestLiftScalar:
    def test_sqrt_diagonal(self):
        fn = lift_scalar("sqrt")
        assert np.allclose(fn(np.diag([1.0, 4.0])), np.diag([1.0, 2.0]))

    def test_identity(self):
        rng = np.random.default_rng(0)
        fn = lift_scalar("identity")
        a = rand_spd_interval(rng, 4, 0.5, 2.0)
        assert np.allclose(fn(a), a)

    def test_xsq_direct_multiplication(self):
        fn = lift_scalar("xsq")
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(fn(a), np.array([[2.0, 2.0], [2.0, 2.0]]))

    def test_pow_validates_exponent(self):
        with pytest.raises(errors.UnknownFunction):
            lift_scalar("pow", 1.5)

    def test_batched_evaluation(self):
        rng = np.random.default_rng(1)
        fn = lift_scalar("sqrt")
        stack = np.stack([rand_spd_interval(rng, 3, 0.5, 2.0) for _ in range(5)])
        out = fn(stack)
        for i in range(5):
            assert np.allclose(out[i], funcalc(np.sqrt, stack[i]), atol=1e-12)

    def test_complex_evaluator_principal_branch(self):
        fn = lift_scalar("sqrt")
        z = (1 + 1j) * np.eye(2)
        out = fn.eval_complex(z)
        assert np.allclose(out, np.sqrt(1 + 1j) * np.eye(2))

    def test_complex_evaluator_near_defective(self):
        # [[z, 1], [0, z + eps]] has eigenvector condition about 2 / eps
        fn = lift_scalar("sqrt")
        z = 1 + 1j
        with pytest.raises(errors.DomainViolation):
            fn.eval_complex(np.array([[z, 1.0], [0.0, z]]))
        with pytest.raises(errors.DomainViolation):
            fn.eval_complex(np.stack([np.eye(2) * z, np.array([[z, 1.0], [0.0, z + 1e-10]])]))
        x = np.array([[z, 1.0], [0.0, z + 1e-6]])
        y = fn.eval_complex(x)
        assert np.linalg.norm(y @ y - x) <= 1e-8


# one identifier per catalogue entry: the lifts and the two-argument means declare
# their representing function, nothing else does
SCALAR_LIFTS = ("identity", "sqrt", "log1p", "pow:0.7", "xsq")
DECLARED_MEANS = ("harmonic", "harmonic:w=0.3,0.7", "geomean2", "power:t=0.5", "power:t=0.25:w=0.3,0.7",
                  "power:t=1", "karcher", "karcher:w=0.3,0.7")
UNDECLARED = ("faketrace", "harmonic:w=0.2,0.3,0.5", "arithmetic", "power:t=0.5:w=0.2,0.3,0.5",
              "karcher:w=0.2,0.3,0.5", "mobius:1,0,1,1")


class TestScalarDeclaration:
    """``FreeFn.scalar`` declares F by f; a stale declaration would pass wrong certificates.

    A lift says F(U diag(lam) U*) = U f(diag(lam)) U*, a two-argument mean
    F(A, B) = L f(M) L* with A = L L* and M = L^-1 B L^-*.
    """

    def test_the_lists_cover_the_catalogue(self):
        heads = {ident.split()[0].split("[")[0].split(":")[0] for ident in CATALOGUE_IDS}
        assert {ident.split(":")[0] for ident in SCALAR_LIFTS + DECLARED_MEANS + UNDECLARED} == heads

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ident", SCALAR_LIFTS)
    def test_a_lift_is_its_scalar_on_the_spectrum(self, ident, n):
        fn = resolve_function(ident)
        z, lam = draw(np.random.default_rng(n), 64, spd_plan(n, 0.5, 2.0))
        u = finish_unitary(z)
        expect = (u * fn.scalar[0](lam)[..., None, :]) @ dagger(u)
        assert worst_rel(fn(finish_spd(z, lam)), expect) <= DEFAULT_TOL.eq

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ident", DECLARED_MEANS)
    def test_a_mean_is_the_congruence_of_its_scalar(self, ident, n):
        fn = resolve_function(ident)
        a, b = stacked_pair(np.random.default_rng(n), 64, n)
        low = np.linalg.cholesky(a)
        linv = np.linalg.inv(low)
        w, u = np.linalg.eigh(linv @ b @ dagger(linv))
        lu = low @ u
        expect = (lu * fn.scalar[0](w)[..., None, :]) @ dagger(lu)
        assert worst_rel(fn(a, b), expect) <= DEFAULT_TOL.eq

    @pytest.mark.parametrize("ident", DECLARED_MEANS)
    def test_a_mean_at_the_identity_is_its_scalar(self, ident):
        fn = resolve_function(ident)
        z, lam = draw(np.random.default_rng(7), 64, spd_plan(4, 0.5, 2.0))
        u = finish_unitary(z)
        expect = (u * fn.scalar[0](lam)[..., None, :]) @ dagger(u)
        assert worst_rel(fn(np.broadcast_to(np.eye(4), u.shape), finish_spd(z, lam)), expect) <= DEFAULT_TOL.eq

    @pytest.mark.parametrize("ident", UNDECLARED)
    def test_no_other_entry_declares_one(self, ident):
        assert resolve_function(ident).scalar is None

    def test_a_representation_declares_none(self):
        from opmono.represent import rep_from_quadrature

        assert rep_from_quadrature("sqrt", nodes=8, target=1.0).fn.scalar is None


def seeded_frame(k, n=3, trials=64, lo=0.5, hi=2.0):
    """The drawn spectra and members of a seeded k-member tester frame."""
    from opmono.sampling import finish_frame, frame_plan, from_frame, slots

    u, lam, _ = finish_frame(k, draw(np.random.default_rng(k), trials, frame_plan(n, lo, hi, k)))
    return lam, slots(from_frame(u, lam), k)


class TestDeclaredAt:
    """``FreeFn._declared_at`` is the one rule under which a declaration is read at a frame."""

    @pytest.mark.parametrize("ident", SCALAR_LIFTS)
    def test_a_lift_reads_f_on_the_drawn_spectrum(self, ident):
        fn = resolve_function(ident)
        lam, _ = seeded_frame(1)
        s, d = fn._declared_at(lam)
        assert s is lam and np.array_equal(d, fn.scalar[0](lam))

    @pytest.mark.parametrize("ident", ["harmonic", "geomean2", "power:t=0.25", "power:t=1", "karcher"])
    def test_a_mean_reads_f_on_the_spectrum_of_m(self, ident):
        fn = resolve_function(ident)
        lam, (_, x2) = seeded_frame(2)
        s, d = fn._declared_at(lam, x2)
        root = lam[::2, :, None] ** -0.5 * np.eye(3)  # X_1^{-1/2}, X_1 = diag(lam_1)
        assert np.max(np.abs(s - np.linalg.eigvalsh(root @ x2 @ root))) <= 1e-13
        assert np.array_equal(d, fn.scalar[0](s))

    def test_an_undeclared_function_reads_nothing(self):
        lam, (_, x2) = seeded_frame(2)
        assert replace(resolve_function("sqrt"), scalar=None)._declared_at(seeded_frame(1)[0]) is None
        assert resolve_function("arithmetic")._declared_at(lam, x2) is None

    def test_arity_three_reads_nothing(self):
        fn = replace(resolve_function("geomean2"), name="three", arity=3)
        lam, (_, x2) = seeded_frame(2)
        assert fn._declared_at(lam, x2) is None and fn._declared_at(lam) is None

    @pytest.mark.parametrize("ident,slot", [("sqrt", 0), ("log1p", 0), ("geomean2", 0), ("geomean2", 1)])
    def test_a_drawn_eigenvalue_that_is_not_positive_reads_nothing(self, ident, slot):
        fn = resolve_function(ident)
        lam, xs = seeded_frame(fn.arity)
        lam = lam.copy()
        lam[fn.arity * 5 + slot, 1] = 0.0
        assert fn._declared_at(lam, *xs[1:]) is None

    def test_f_not_finite_on_the_spectrum_of_m_reads_nothing(self):
        # sqrt above 0.7 is finite on every drawn spectrum in [0.75, 2], not on M's, which reaches below 0.7
        def f(x):
            return np.where(x > 0.7, np.sqrt(x), np.nan)

        geo = resolve_function("geomean2")
        lam, (_, x2) = seeded_frame(2, lo=0.75)
        s, _ = geo._declared_at(lam, x2)
        assert np.isfinite(f(lam)).all() and np.min(s) < 0.7
        assert replace(geo, scalar=(f, lambda x: 0.5 / f(x)))._declared_at(lam, x2) is None


class TestLoewnerMatrix:
    def test_stacked_spectra_match_one_at_a_time(self):
        lam = np.random.default_rng(3).uniform(0.5, 2.0, size=(4, 5, 3))
        lam[0, 0, 1] = lam[0, 0, 0] + 1e-12  # a close pair takes f' at the midpoint
        stacked = loewner_matrix(lam, np.sqrt, lambda x: 0.5 / np.sqrt(x))
        assert stacked.shape == (4, 5, 3, 3)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(stacked[idx], loewner_matrix(lam[idx], np.sqrt, lambda x: 0.5 / np.sqrt(x)))
        assert stacked[0, 0, 0, 1] == 0.5 / np.sqrt((lam[0, 0, 0] + lam[0, 0, 1]) / 2)

    def test_sqrt_matches_its_closed_form(self):
        # sqrt[a, b] = 1 / (sqrt a + sqrt b), a Cauchy matrix, positive definite
        lam = np.random.default_rng(4).uniform(0.5, 2.0, size=(200, 4))
        root = np.sqrt(lam)
        exact = 1.0 / (root[..., :, None] + root[..., None, :])
        assert np.max(np.abs(loewner_matrix(lam, np.sqrt, lambda x: 0.5 / np.sqrt(x)) - exact)) <= 1e-9

    def test_it_is_the_table_of_the_daleckii_krein_map(self):
        rng = np.random.default_rng(5)
        x, h = rand_spd_interval(rng, 4, 0.5, 2.0), rand_herm(rng, 4)
        w, u = np.linalg.eigh(x)
        phi = loewner_matrix(w, np.log1p, lambda v: 1.0 / (1.0 + v))
        expect = u @ (phi * (dagger(u) @ h @ u)) @ dagger(u)
        assert fro_norm(dk_map(x, np.log1p, lambda v: 1.0 / (1.0 + v))(h) - expect) <= 1e-14


class TestHarmonicMean:
    def test_idempotent(self):
        rng = np.random.default_rng(2)
        a = rand_spd_interval(rng, 3, 0.5, 2.0)
        fn = harmonic_mean((0.5, 0.5))
        assert np.allclose(fn(a, a), a, atol=1e-12)

    def test_equal_scalars(self):
        fn = harmonic_mean((0.5, 0.5))
        assert np.allclose(fn(np.array([[2.0]]), np.array([[2.0]])), [[2.0]])

    def test_scalar_harmonic(self):
        fn = harmonic_mean((0.5, 0.5))
        out = fn(np.array([[1.0]]), np.array([[3.0]]))
        assert np.allclose(out, [[1.5]])

    def test_singular_rejected(self):
        fn = harmonic_mean((0.5, 0.5))
        with pytest.raises(errors.SingularArgument):
            fn(np.diag([1.0, 0.0]), np.eye(2))


class TestGeometricMean:
    def test_scalar_multiples(self):
        assert np.allclose(geometric_mean_2(4 * np.eye(2), 9 * np.eye(2)), 6 * np.eye(2))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = rand_spd_interval(rng, 4, 0.5, 2.0)
        assert np.allclose(geometric_mean_2(a, a), a, atol=1e-10)

    def test_commuting_diagonal(self):
        a = np.diag([1.0, 4.0])
        b = np.diag([9.0, 1.0])
        assert np.allclose(geometric_mean_2(a, b), np.diag([3.0, 2.0]), atol=1e-12)

    def test_not_pd_rejected(self):
        with pytest.raises(errors.NotPositiveDefinite):
            geometric_mean_2(np.diag([1.0, -1.0]), np.eye(2))


class TestPowerMean:
    def test_idempotent_every_t(self):
        rng = np.random.default_rng(4)
        a = rand_spd_interval(rng, 3, 0.5, 2.0)
        for t in (0.25, 0.5, 1.0):
            out = power_mean((a, a), t, (0.5, 0.5))
            assert np.allclose(out, a, atol=1e-10)

    def test_t_one_is_arithmetic(self):
        rng = np.random.default_rng(5)
        x = rand_tuple_interval(rng, 3, 3, 0.5, 2.0)
        w = (0.2, 0.3, 0.5)
        out = power_mean(x, 1.0, w)
        assert np.allclose(out, sum(wi * xi for wi, xi in zip(w, x)), atol=1e-10)

    def test_t_one_returns_the_arithmetic_mean_where_the_loop_stalled(self):
        # k = 3, n = 3, spectra log-uniform in 10^-6 .. 10^6: on seeds 15, 20 and 25 the k >= 3 loop
        # raised NoConvergence at t = 1, its residual G's rounding above the floor; P_1 is closed
        w = (0.2, 0.3, 0.5)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = []
            for _ in range(3):
                u, lam = rand_unitary(rng, 3), 10.0 ** rng.uniform(-6.0, 6.0, 3)
                x.append(herm_part((u * lam) @ dagger(u)))
            expect = herm_part(sum(wi * xi for wi, xi in zip(w, x)))
            assert np.array_equal(power_mean(tuple(x), 1.0, w), expect), seed
            assert np.array_equal(power_mean_fn(1.0, w)(*x), expect), seed

    @pytest.mark.parametrize("w", [(0.2, 0.8), (0.2, 0.3, 0.5)])
    def test_t_one_checks_each_argument_and_names_it(self, count_calls, w):
        # one cholesky per argument and no inverse; a weighted sum that stays positive definite
        # does not hide an argument that is not
        fn, k = power_mean_fn(1.0, w), len(w)
        x = list(rand_tuple_interval(np.random.default_rng(6), k, 3, 0.5, 2.0))
        calls = {name: count_calls(np.linalg, name) for name in ("cholesky", "inv", "eigh", "svd")}
        fn(*x)
        assert calls == {"cholesky": [(3, 3)] * k, "inv": [], "eigh": [], "svd": []}
        x[k - 1] = np.diag([1.0, 1.0, -0.1]).astype(complex)
        assert min_eig(sum(wi * xi for wi, xi in zip(w, x))) > 0
        pattern = f"^argument {k} is not positive definite: X_{k} has minimum eigenvalue -1.000e-01$"
        for mean in (lambda: fn(*x), lambda: power_mean(tuple(x), 1.0, w)):
            with pytest.raises(errors.NotPositiveDefinite, match=pattern):
                mean()

    @pytest.mark.parametrize("k", [2, 3])
    def test_t_one_gradient_is_the_weighted_seed(self, k):
        w = (0.2, 0.8) if k == 2 else (0.2, 0.3, 0.5)
        rng = np.random.default_rng(7)
        x, seed = rand_tuple_interval(rng, k, 3, 0.5, 2.0), rand_herm(rng, 3)
        assert all(np.array_equal(g, wi * seed) for g, wi in zip(power_mean_fn(1.0, w).gradient(x, seed), w))

    def test_commuting_scalar_oracle(self):
        x = (np.diag([1.0, 2.0]), np.diag([3.0, 0.5]))
        w = (0.4, 0.6)
        out = power_mean(x, 0.5, w)
        expect = np.diag(
            [
                (0.4 * 1.0**0.5 + 0.6 * 3.0**0.5) ** 2,
                (0.4 * 2.0**0.5 + 0.6 * 0.5**0.5) ** 2,
            ]
        )
        assert np.allclose(out, expect, atol=1e-10)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(6)
        x = rand_tuple_interval(rng, 2, 4, 0.5, 2.0)
        w = (0.5, 0.5)
        t = 0.25
        z = power_mean(x, t, w)
        res = sum(wi * weighted_geo(z, xi, t) for wi, xi in zip(w, x)) - z
        assert fro_norm(res) <= 1e-8 * (1 + fro_norm(z))


class TestKarcherMean:
    def test_idempotent(self):
        rng = np.random.default_rng(7)
        a = rand_spd_interval(rng, 3, 0.5, 2.0)
        assert np.allclose(karcher_mean((a, a, a), (1 / 3, 1 / 3, 1 / 3)), a, atol=1e-9)

    def test_commuting_diagonal_oracle(self):
        x = (np.diag([1.0, 2.0, 0.7]), np.diag([3.0, 0.5, 1.1]))
        w = (0.35, 0.65)
        out = karcher_mean(x, w)
        expect = np.diag(np.exp(sum(wi * np.log(np.diag(xi)) for wi, xi in zip(w, x))))
        assert np.linalg.norm(out - expect) <= 1e-9

    def test_two_point_matches_geometric(self):
        rng = np.random.default_rng(8)
        a = rand_spd_interval(rng, 3, 0.5, 2.0)
        b = rand_spd_interval(rng, 3, 0.5, 2.0)
        out = karcher_mean((a, b), (0.5, 0.5))
        assert np.linalg.norm(out - geometric_mean_2(a, b)) <= 1e-9

    def test_karcher_equation_residual(self):
        rng = np.random.default_rng(9)
        x = rand_tuple_interval(rng, 3, 4, 0.5, 2.0)
        w = (0.2, 0.5, 0.3)
        z, info = karcher_mean(x, w, return_info=True)
        res = karcher_residual(z, x, w)
        assert fro_norm(res) <= 1e-12 * (1 + fro_norm(z))
        assert info["iterations"] >= 1

    def test_agh_ordering(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            w = tuple(rng.dirichlet(np.ones(k)))
            x = rand_tuple_interval(rng, k, n, 0.5, 2.0)
            h = harmonic_mean(w)(x)
            g = karcher_mean(x, w)
            a = arithmetic_mean(w)(x)
            assert min_eig(g - h) >= -1e-8 * (1 + fro_norm(a))
            assert min_eig(a - g) >= -1e-8 * (1 + fro_norm(a))

    @staticmethod
    def rotated_triple(s, step):
        """R(j step) diag(1, s) R(j step)^T for j = 0, 1, 2."""
        rot = [np.array([[np.cos(j * step), -np.sin(j * step)], [np.sin(j * step), np.cos(j * step)]])
               for j in range(3)]
        return tuple(r @ np.diag([1.0, s]) @ r.T for r in rot)

    @pytest.mark.parametrize("s", [3e5, 1e6, 1e8])
    def test_ill_conditioned_triple_stops_at_its_rounding_floor(self, s):
        # the uniform mean of the triple at angles 0, pi/3, 2 pi/3 is sqrt(s) I
        z = karcher_mean(self.rotated_triple(s, np.pi / 3), (1 / 3, 1 / 3, 1 / 3))
        exact = np.sqrt(s) * np.eye(2)
        assert fro_norm(z - exact) <= 10 * np.finfo(float).eps * s * fro_norm(exact)

    @pytest.mark.parametrize("s", [1e9, 1e12])
    def test_far_start_does_not_stop_at_its_own_floor(self, s):
        # cond(M_i) at the arithmetic start is about s^2 / 3, at the mean I it is s
        z, info = karcher_mean((np.diag([1.0, s]), np.diag([1.0, 1 / s]), np.eye(2)), (1 / 3, 1 / 3, 1 / 3),
                               return_info=True)
        assert info["iterations"] >= 2 and fro_norm(z - np.eye(2)) <= 1e-12

    def test_rounding_indefinite_step_names_the_conditioning(self):
        # every argument has lambda_min >= 1, but at s = 3e16 > 1 / eps rounding
        # leaves X_2 without a Cholesky factor: the error must not blame X_2
        x = self.rotated_triple(3e16, 2.5)
        assert all(min_eig(xi) >= 1.0 - 1e-3 for xi in x)
        pattern = (r"^X_2 has no Cholesky factor although argument 2 is positive definite: "
                   r"at condition number \d\.\de\+16 rounding leaves it indefinite$")
        with pytest.raises(errors.NotPositiveDefinite, match=pattern):
            karcher_mean(x, (1 / 3, 1 / 3, 1 / 3))

    def test_ill_conditioned_arguments_take_the_svd(self):
        # at s = 1e14 rounding leaves M_2 = L^-1 X_2 L^-* indefinite although
        # every argument has lambda_min >= 1; the SVD of L^-1 L_2 gives its
        # eigenvalues to eps sqrt(cond(M_2)), so the Karcher equation holds
        # to that rounding level, and the mean does not depend on the order
        x, w = self.rotated_triple(1e14, 1.5), (0.2, 0.3, 0.5)
        assert all(min_eig(xi) >= 1.0 - 1e-3 for xi in x)
        z = resolve_function("karcher:w=0.2,0.3,0.5")(*x)
        linv = np.linalg.inv(np.linalg.cholesky(z))
        res, kappa = 0, 1.0
        for wi, xi in zip(w, x):
            v, sv, _ = np.linalg.svd(linv @ np.linalg.cholesky(xi))
            res, kappa = res + wi * (v * np.log(sv**2)) @ dagger(v), max(kappa, sv[0] / sv[-1])
        assert fro_norm(res) <= 16 * np.finfo(float).eps * kappa
        for p in itertools.permutations(range(3)):
            zp = karcher_mean(tuple(x[i] for i in p), tuple(w[i] for i in p))
            assert fro_norm(zp - z) <= 1e-12 * fro_norm(z)

    def test_a_residual_that_grows_still_converges(self, monkeypatch):
        from opmono import freefun

        res, floors, real = [], [], freefun._mean_gradient

        def recording(z, xs, w, t):
            out = real(z, xs, w, t)
            res.append(float(out[2]))
            floors.append(float(out[3]))
            return out

        monkeypatch.setattr(freefun, "_mean_gradient", recording)
        x = self.rotated_triple(1e3, 0.5)
        z, info = karcher_mean(x, (1 / 3, 1 / 3, 1 / 3), return_info=True)
        assert any(b > a for a, b in zip(res[:-2], res[1:-1]))  # a growth before the last step
        assert info["iterations"] == len(res) and res[-1] <= floors[-1] and res[-2] > floors[-2]
        # det of the Karcher mean is the weighted geometric mean of the determinants
        assert abs(np.linalg.det(z).real - 1e3) <= 1e-9 * 1e3

    @staticmethod
    def wide_quadruple():
        """Dirichlet weights and four 4-tuples of 5 x 5 U diag(lam) U*, U from the QR of a complex Gaussian,
        lam log-uniform in (1e-3, 1e3): the stack on which a step fixed at 1 crawled to 0.04 in 10,000 steps."""
        rng = np.random.default_rng(124)
        w = tuple(rng.dirichlet(np.ones(4)))
        x = []
        for _ in range(4):
            members = []
            for _ in range(4):
                q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
                members.append((q * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 5))) @ dagger(q))
            x.append(np.stack(members))
        return tuple(x), w

    # spectra of the Karcher means of wide_quadruple() in 40-digit arithmetic (mpmath, the Richardson
    # iteration run from the float64 value until ||S||_F < 1e-34), rounded to float64
    WIDE_REFERENCE = np.array([
        [1.5464511767540785, 4.197418787066138, 9.063082428214578, 11.749575598636392, 19.858665111762136],
        [0.8970665957878365, 1.457350285941839, 2.9966827730695944, 5.10896852587644, 11.50270438801915],
        [0.30959821096080015, 0.756256935152858, 1.4629837518382773, 2.5262801344920613, 5.1587141960634035],
        [0.24551159825189683, 0.38883202655740395, 0.9643537556910695, 1.4332524701936147, 2.908375842746784]])

    def test_wide_quadruple_converges_to_the_40_digit_reference(self):
        # the loop stops at ||S||_F <= 16 eps kappa, kappa = max cond(M_i) at Z, and S itself rounds by about as
        # much; the objective is 1-strongly geodesically convex, so d(Z, Z*) <= ||S||_F and each log eigenvalue of
        # Z lies within 32 eps kappa of Z*'s (Z's own eigvalsh rounds by eps cond(Z) < 1e-13 of that)
        x, w = self.wide_quadruple()
        z, info = karcher_mean(x, w, return_info=True)
        assert info["iterations"] == 58
        linv = np.linalg.inv(np.linalg.cholesky(z))
        kappa = np.max([np.linalg.cond(linv @ xi @ dagger(linv)) for xi in x], axis=0)
        gap = np.max(np.abs(np.log(np.linalg.eigvalsh(z)) - np.log(self.WIDE_REFERENCE)), axis=-1)
        assert np.all(gap <= 32 * np.finfo(float).eps * kappa)

    def test_the_richardson_step_reads_the_condition_numbers(self):
        # theta = 2 / sum w_i ((c_i + 1) / (c_i - 1)) log c_i, c_i = cond(M_i); at c_i = 1 each term is 2
        from opmono.freefun import _Arguments, _mean_gradient

        x, w = self.wide_quadruple()
        z = arithmetic_mean(w)(x)
        theta = _mean_gradient(z, _Arguments(x), np.array(w), 0.0)[4]
        linv = np.linalg.inv(np.linalg.cholesky(z))
        c = [np.linalg.cond(linv @ xi @ dagger(linv)) for xi in x]
        assert np.allclose(theta, 2 / sum(wi * (ci + 1) / (ci - 1) * np.log(ci) for wi, ci in zip(w, c)), rtol=1e-8)
        d = np.diag([1.0, 4.0, 16.0]).astype(complex)
        assert _mean_gradient(d, _Arguments((d, d, d)), np.full(3, 1 / 3), 0.0)[4] == 1.0

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_wide_spectra_from_the_arithmetic_start(self, k):
        rng = np.random.default_rng(30 + k)
        w = tuple(rng.dirichlet(np.ones(k)))
        rows = [rand_tuple_interval(rng, k, 3, 1e-3, 1e3) for _ in range(16)]
        x = tuple(np.stack([r[i] for r in rows]) for i in range(k))
        z, info = karcher_mean(x, w, return_info=True)
        res = np.max(fro_norm(karcher_residual(z, x, w)))
        assert res == info["residual"]
        assert res <= 1e-13 * (1 + np.max(fro_norm(z)))
        h = harmonic_mean(w)(x)
        a = arithmetic_mean(w)(x)
        floor = -1e-8 * (1 + fro_norm(a))
        assert np.all(min_eig(z - h) >= floor)
        assert np.all(min_eig(a - z) >= floor)


def contraction_power_mean(xs, t, w):
    """Reference P_t by the contraction Z <- sum w_i (Z #_t X_i) from the arithmetic mean, and its steps.

    It stops once every member's step is at most 1e-12 ||Z_0||_F, so it is
    accurate to about 1e-12 ||Z_0||_F (1 - t) / t.
    """
    z = herm_part(sum(wi * xi for wi, xi in zip(w, xs)))
    bound = 1e-12 * fro_norm(z)
    for steps in range(1, 10_001):
        new = sum(wi * weighted_geo(z, xi, t) for wi, xi in zip(w, xs))
        done = np.all(fro_norm(new - z) <= bound)
        z = new
        if done:
            return z, steps
    raise AssertionError("the reference contraction did not converge")


def seeded_stack(seed, k, n, lo, hi, m=4):
    """Weights and an m-member stack of k-tuples with spectra in [lo, hi]."""
    rng = np.random.default_rng(seed)
    w = tuple(rng.dirichlet(np.ones(k)))
    rows = [rand_tuple_interval(rng, k, n, lo, hi) for _ in range(m)]
    return tuple(np.stack([r[i] for r in rows]) for i in range(k)), w


class TestPowerMeanTakesTheKarcherLoop:
    """k >= 3 power means run the Karcher mean's loop with the step Z <- L S^{s/t} L*."""

    @staticmethod
    def counting_steps(monkeypatch):
        from opmono import freefun

        steps, real = [], freefun._mean_gradient

        def recording(z, xs, w, t):
            steps.append(z.shape)
            return real(z, xs, w, t)

        monkeypatch.setattr(freefun, "_mean_gradient", recording)
        return steps

    @pytest.mark.parametrize("t", [0.5, 0.25, 0.1, 0.05])
    @pytest.mark.parametrize("k", [3, 5])
    def test_agrees_with_the_contraction(self, k, t):
        x, w = seeded_stack(60 + k, k, 4, 0.5, 2.0)
        assert worst_rel(power_mean(x, t, w), contraction_power_mean(x, t, w)[0]) <= 1e-10

    def test_agrees_with_the_contraction_on_wide_spectra_at_small_t(self):
        # wide spectra at small t, where the full step S^{1/t} alone need not converge
        x, w = seeded_stack(65, 5, 4, 0.01, 100.0)
        ref = contraction_power_mean(x, 0.05, w)[0]
        assert float(np.max(fro_norm(power_mean(x, 0.05, w) - ref) / fro_norm(ref))) <= 1e-10

    @pytest.mark.parametrize("seed,k,n,t,lo,hi,steps,contraction_steps", [
        (70, 3, 4, 0.5, 0.5, 2.0, 9, 36),
        (70, 3, 4, 0.25, 0.5, 2.0, 9, 84),
        (70, 3, 4, 0.1, 0.5, 2.0, 9, 219),
        (70, 3, 4, 0.05, 0.5, 2.0, 9, 436),
        (70, 3, 4, 0.05, 0.01, 100.0, 40, 454),
        (70, 5, 4, 0.05, 0.01, 100.0, 53, 452),
        # at s = 1 this stack's step has a linearization eigenvalue near -1: halving s only
        # when ||G||_F grows left it crawling for 1628 steps
        (4083, 4, 8, 0.05, 1e-3, 1e3, 32, 451),
    ])
    def test_pinned_step_counts(self, monkeypatch, seed, k, n, t, lo, hi, steps, contraction_steps):
        # one gradient per step, the last of which stops
        x, w = seeded_stack(seed, k, n, lo, hi)
        assert contraction_power_mean(x, t, w)[1] == contraction_steps
        taken = self.counting_steps(monkeypatch)
        power_mean(x, t, w)
        assert len(taken) == steps

    def test_an_ill_conditioned_triple_keeps_the_contractions_accuracy(self):
        # at t = 0.5 the rounding floor 16 eps kappa^{1-t} of G is below 1e-10, though kappa is about 2e7
        x, w = TestKarcherMean.rotated_triple(1e14, 1.5), (0.2, 0.3, 0.5)
        ref = contraction_power_mean(x, 0.5, w)[0]
        assert fro_norm(power_mean(x, 0.5, w) - ref) <= 1e-10 * fro_norm(ref)

    @pytest.mark.parametrize("t", [0.5, 0.25, 0.05])
    def test_commuting_arguments_take_one_step(self, monkeypatch, t):
        # with X_i = U D_i U* the first step returns U (sum w_i D_i^t)^{1/t} U*, and the second stops
        from opmono import freefun

        rng = np.random.default_rng(71)
        u = rand_unitary(rng, 4)
        d = [rng.uniform(0.01, 100.0, size=4) for _ in range(3)]
        x, w = tuple(u @ np.diag(di) @ dagger(u) for di in d), (0.2, 0.3, 0.5)
        expect = u @ np.diag(sum(wi * di**t for wi, di in zip(w, d)) ** (1 / t)) @ dagger(u)
        monkeypatch.setattr(freefun, "_MAX_ITER", 2)
        taken = self.counting_steps(monkeypatch)
        assert fro_norm(power_mean(x, t, w) - expect) <= 1e-12 * fro_norm(expect)
        assert len(taken) == 2

    @pytest.mark.parametrize("t", [0.5, 0.25, 0.05])
    def test_three_argument_fixed_point_residual(self, t):
        x, w = seeded_stack(72, 3, 4, 0.5, 2.0, m=16)
        z = power_mean(x, t, w)
        res = sum(wi * weighted_geo(z, xi, t) for wi, xi in zip(w, x)) - z
        assert np.all(fro_norm(res) <= 1e-12 * (1 + fro_norm(z)))

    def test_no_convergence_within_the_step_cap(self, monkeypatch):
        from opmono import freefun

        x, w = seeded_stack(73, 3, 4, 0.5, 2.0)
        monkeypatch.setattr(freefun, "_MAX_ITER", 2)
        with pytest.raises(errors.NoConvergence, match=r"^power mean t=0.25 iteration stalled at residual "):
            power_mean(x, 0.25, w)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_power_mean_tends_to_the_karcher_mean(k):
    # the Karcher mean is P_t at t -> 0, and P_t - Karcher is O(t): a tenth of t gives a tenth of the distance
    x, w = seeded_stack(80 + k, k, 3, 0.5, 2.0)
    karcher = karcher_mean(x, w)
    dist = [fro_norm(power_mean(x, t, w) - karcher) for t in (1e-2, 1e-3)]
    for t, d in zip((1e-2, 1e-3), dist):
        assert np.all(d <= 0.1 * t * fro_norm(karcher))
    assert np.all((9 <= dist[0] / dist[1]) & (dist[0] / dist[1] <= 11))


class TestTwoArgumentClosedForms:
    """The k = 2 power and Karcher means are closed forms; k >= 3 iterates."""

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, None])
    def test_matches_three_argument_iteration(self, t):
        # (A, B) with weights (w1, w2) is (A, B, B) with (w1, w2/2, w2/2)
        rng = np.random.default_rng(20)
        a, b = stacked_pair(rng, 6, 3)
        w1, w2 = 0.35, 0.65
        two = mean_of((a, b), (w1, w2), t)
        three = mean_of((a, b, b), (w1, w2 / 2, w2 / 2), t)
        assert two.shape == (6, 3, 3)
        assert worst_rel(two, three) <= 1e-10

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, None])
    def test_argument_swap_symmetry(self, t):
        rng = np.random.default_rng(21)
        a, b = stacked_pair(rng, 8, 4)
        assert worst_rel(mean_of((a, b), (0.3, 0.7), t), mean_of((b, a), (0.7, 0.3), t)) <= 1e-12

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_power_fixed_point_residual(self, t):
        rng = np.random.default_rng(22)
        a, b = stacked_pair(rng, 16, 4)
        w = (0.4, 0.6)
        z = power_mean((a, b), t, w)
        res = w[0] * weighted_geo(z, a, t) + w[1] * weighted_geo(z, b, t) - z
        assert np.all(fro_norm(res) <= 1e-12 * (1 + fro_norm(z)))

    def test_karcher_info_is_measured(self):
        rng = np.random.default_rng(23)
        a, b = stacked_pair(rng, 16, 4)
        w = (0.4, 0.6)
        z, info = karcher_mean((a, b), w, return_info=True)
        grad = karcher_residual(z, (a, b), w)
        assert info["iterations"] == 0
        assert info["residual"] == float(np.max(fro_norm(grad)))
        assert np.all(fro_norm(grad) <= 1e-12 * (1 + fro_norm(z)))

    def test_kernel_calls_by_t(self, count_calls):
        # one cholesky of A and one eigh of L^{-1} B L^{-*} for every t < 1; P_1, the arithmetic
        # mean, takes one cholesky of each argument, which checks it, and nothing else
        rng = np.random.default_rng(24)
        a, b = stacked_pair(rng, 512, 3)
        calls = {name: count_calls(np.linalg, name) for name in ("eigh", "cholesky", "inv")}
        for fn in [power_mean_fn(0.25, (0.5, 0.5)), power_mean_fn(0.5, (0.5, 0.5)),
                   power_mean_fn(1.0, (0.5, 0.5)), karcher_mean_fn((0.5, 0.5))]:
            for shapes in calls.values():
                shapes.clear()
            fn(a, b)
            if fn.name == "power:t=1":
                assert calls == {"eigh": [], "cholesky": [(512, 3, 3)] * 2, "inv": []}
            else:
                assert calls == {"eigh": [(512, 3, 3)], "cholesky": [(512, 3, 3)], "inv": [(512, 3, 3)]}, fn.name


# (catalogue identifier, argument sizes) for the exact adjoint checks
ADJOINT_CASES = [
    ("sqrt", (2, 3)),
    ("log1p", (2, 3)),
    ("pow:0.7", (2, 3)),
    ("mobius:1,0,1,1", (2, 3)),
    ("harmonic", (2, 3)),
    ("geomean2", (2, 3)),
    ("power:t=0.25", (2, 3)),
    ("power:t=0.5", (2, 3)),
    ("karcher", (2, 3)),
    ("power:t=0.5:w=0.2,0.3,0.5", (2,)),
    ("karcher:w=0.2,0.3,0.5", (2,)),
    ("power:t=0.25:w=0.3,0.7", (2, 3)),
    ("karcher:w=0.2,0.8", (2, 3)),
]


class TestExactAdjoints:
    """vgrad against Richardson-refined differences on the Hermitian basis."""

    @pytest.mark.parametrize("ident,sizes", ADJOINT_CASES)
    def test_vgrad_matches_frechet(self, ident, sizes):
        fn = resolve_function(ident)
        rng = np.random.default_rng(25)
        for n in sizes:
            x = rand_tuple_interval(rng, fn.arity, n, 0.5, 2.0)
            seed = rand_herm(rng, n)
            grads = fn.vgrad(x, seed)
            basis = hermitian_basis(n)
            zero = np.zeros((n, n), dtype=complex)
            for slot in range(fn.arity):
                directions = [
                    tuple(e if i == slot else zero for i in range(fn.arity)) for e in basis
                ]
                derivs = frechet_many(fn, x, directions, 1e-3)
                coeffs = [float(np.trace(seed @ d).real) for d in derivs]
                fd = sum(c * e for c, e in zip(coeffs, basis))
                assert fro_norm(grads[slot] - fd) <= 1e-9 * (1 + fro_norm(fd)), (ident, n, slot)

    @pytest.mark.parametrize("ident", [ident for ident, _ in ADJOINT_CASES])
    def test_implicit_solve_only_for_three_arguments(self, ident, monkeypatch):
        fn = resolve_function(ident)
        real_solve = np.linalg.solve
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        x = rand_tuple_interval(np.random.default_rng(26), fn.arity, 3, 0.5, 2.0)
        fn.vgrad(x, rand_herm(np.random.default_rng(27), 3))
        assert len(calls) == (1 if fn.arity >= 3 else 0), ident

    @pytest.mark.parametrize("ident", ["power:t=0.5:w=0.2,0.3,0.5", "karcher:w=0.2,0.3,0.5"])
    def test_implicit_adjoint_decomposes_z_once(self, count_calls, ident):
        # vgrad solves the mean again, then takes one eigh of Z and one of each M_i
        fn = resolve_function(ident)
        rng = np.random.default_rng(28)
        x, seed = rand_tuple_interval(rng, 3, 3, 0.5, 2.0), rand_herm(rng, 3)
        calls = count_calls(np.linalg, "eigh")
        fn(*x)
        value = len(calls)
        calls.clear()
        fn.vgrad(x, seed)
        assert len(calls) == value + 1 + 3 and set(calls) == {(3, 3)}


def two_factorization_vgrad(fn, xs, seed):
    """The adjoint of a declared two-argument mean with each slot on its own Cholesky factor, as a reference.

    The second slot is L^-* Df(M)[L* W L] L^-1 with A = L L* and M = L^-1 B L^-*; the first is the same
    sandwich on the swapped pair (B, A) with the transpose x f(1/x): two cholesky and two eigh.
    """
    f, fp = fn.scalar

    def second_slot(a, b, f, fp):
        low = np.linalg.cholesky(a)
        linv = np.linalg.inv(low)
        return herm_part(dagger(linv) @ dk_map(linv @ b @ dagger(linv), f, fp)(dagger(low) @ seed @ low) @ linv)

    a, b = xs
    return [second_slot(b, a, lambda v: v * f(1.0 / v), lambda v: f(1.0 / v) - fp(1.0 / v) / v),
            second_slot(a, b, f, fp)]


class TestOneAdjoint:
    """Every declared function's adjoint is P (Theta o C* W C) P* on the Loewner matrices Theta of its (f, f')."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ident", DECLARED_MEANS)
    def test_a_mean_matches_the_two_factorization_formula(self, ident, n):
        fn = resolve_function(ident)
        rng = np.random.default_rng(60 + n)
        for _ in range(8):
            x, seed = rand_tuple_interval(rng, 2, n, 0.5, 2.0), rand_herm(rng, n)
            for g, ref in zip(fn.gradient(x, seed), two_factorization_vgrad(fn, x, seed)):
                assert fro_norm(g - ref) <= 1e-12 * fro_norm(ref), (ident, n)

    @pytest.mark.parametrize("ident", SCALAR_LIFTS + DECLARED_MEANS + ("mobius:1,0,1,1",))
    def test_the_pairing_is_the_directional_derivative(self, ident):
        # sum_i tr(G_i H_i) = tr(W DF(X)[H]) for every direction H
        fn = resolve_function(ident)
        rng = np.random.default_rng(62)
        x, seed = rand_tuple_interval(rng, fn.arity, 3, 0.5, 2.0), rand_herm(rng, 3)
        directions = [tuple(rand_herm(rng, 3) for _ in range(fn.arity)) for _ in range(6)]
        grads = fn.gradient(x, seed)
        for h, d in zip(directions, frechet_many(fn, x, directions, 1e-3)):
            pairing = sum(float(np.trace(g @ hi).real) for g, hi in zip(grads, h))
            assert abs(pairing - float(np.trace(seed @ d).real)) <= 1e-9 * (1.0 + abs(pairing)), ident

    @pytest.mark.parametrize("ident", [ident for ident in DECLARED_MEANS
                                       if not ident.startswith("harmonic") and ident != "power:t=1"])
    def test_a_mean_gradient_takes_one_cholesky_and_one_eigh(self, count_calls, ident):
        fn = resolve_function(ident)
        rng = np.random.default_rng(63)
        x, seed = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_herm(rng, 3)
        calls = {name: count_calls(np.linalg, name) for name in ("cholesky", "eigh", "svd")}
        fn.gradient(x, seed)
        assert calls == {"cholesky": [(3, 3)], "eigh": [(3, 3)], "svd": []}

    @pytest.mark.parametrize("ident", SCALAR_LIFTS + ("mobius:1,0,1,1", "mobius:2,1,1,3"))
    def test_a_lift_is_the_daleckii_krein_map_bit_for_bit(self, ident):
        fn = resolve_function(ident)
        if ident.startswith("mobius"):
            a, b, c, d = (float(v) for v in ident.split(":")[1].split(","))
            f, fp = MobiusMap(a, b, c, d).scalar, lambda x: (a * d - b * c) / (c * x + d) ** 2
        else:
            f, fp = fn.scalar
        rng = np.random.default_rng(64)
        for n in (1, 2, 4):
            x, seed = rand_tuple_interval(rng, 1, n, 0.5, 2.0), rand_herm(rng, n)
            (g,) = fn.gradient(x, seed)
            assert g.tobytes() == herm_part(dk_map(x[0], f, fp)(seed)).tobytes(), (ident, n)


def basis_loop(n):
    """The Hermitian basis built one matrix at a time: diagonals, then each p < q."""
    out = []
    for p in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[p, p] = 1.0
        out.append(e)
    s = 1.0 / np.sqrt(2.0)
    for p in range(n):
        for q in range(p + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[p, q] = e[q, p] = s
            out.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[p, q] = 1j * s
            e[q, p] = -1j * s
            out.append(e)
    return out


class TestStackedBasisSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_basis_matches_the_loop(self, n):
        basis = hermitian_basis(n)
        assert basis.shape == (n * n, n, n)
        assert np.array_equal(basis, np.stack(basis_loop(n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_solve_matches_per_matrix_assembly(self, n):
        rng = np.random.default_rng(40 + n)
        x = rand_spd_interval(rng, n, 0.5, 2.0)
        d = dk_map(x, np.sqrt, lambda v: 0.5 / np.sqrt(v))

        def apply(h):
            return h + d(h) + herm_part(x @ h)

        rhs = rand_herm(rng, n)
        basis = basis_loop(n)
        mat = np.array([[np.trace(r @ apply(c)).real for c in basis] for r in basis])
        vec = np.array([np.trace(r @ rhs).real for r in basis])
        ref = sum(c * e for c, e in zip(np.linalg.solve(mat, vec), basis))
        u = solve_linear_map(apply, rhs)
        assert fro_norm(u - ref) <= 1e-12 * (1 + fro_norm(ref))
        assert fro_norm(apply(u) - rhs) <= 1e-12 * (1 + fro_norm(rhs))


class TestMobius:
    def test_identity_map(self):
        g = MobiusMap(1, 0, 0, 1)
        rng = np.random.default_rng(11)
        x = rand_spd_interval(rng, 3, 0.5, 2.0)
        assert np.allclose(mobius_apply(g, x), x)

    def test_x_over_x_plus_one(self):
        g = MobiusMap(1, 0, 1, 1)
        assert np.allclose(mobius_apply(g, np.eye(3)), 0.5 * np.eye(3))

    def test_scalar_endpoint_mapping(self):
        # map (1, 3) onto (0, inf): g(x) = (x - 1) / (3 - x)
        g = MobiusMap(1, -1, -1, 3)
        assert abs(g.scalar(1.0)) <= 1e-12
        assert g.scalar(2.9999) > 1e3

    def test_invalid_determinant(self):
        with pytest.raises(errors.BadConfig):
            MobiusMap(1, 2, 1, 2)

    def test_pole_hit(self):
        g = MobiusMap(-1, 0, 1, -1)  # g(x) = -x/(x-1), pole at x = 1
        with pytest.raises(errors.PoleHit):
            mobius_apply(g, np.eye(2))

    def test_each_member_meets_its_own_pole_test(self):
        # the pole test of I is 2 against its own largest singular value, not 1e12 + 1
        out = mobius_apply(MobiusMap(1, 0, 1, 1), np.stack([np.eye(2), 1e12 * np.eye(2)]))
        assert np.allclose(out[0], 0.5 * np.eye(2)) and np.allclose(out[1], np.eye(2))
        with pytest.raises(errors.PoleHit):
            mobius_apply(MobiusMap(-1, 0, 1, -1), np.stack([2 * np.eye(2), np.eye(2)]))

    def test_maps_upper_halfspace_to_itself(self):
        rng = np.random.default_rng(12)
        g = MobiusMap(1, 0, 1, 1)
        fn = mobius_fn(g)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            z = herm_part(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            z = z + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n))
            out = fn.eval_complex(z)
            assert min_eig(im_part(out)) >= -1e-9 * (1 + fro_norm(out))


class TestFrechetDerivative:
    def test_identity_linear(self):
        fn = lift_scalar("identity")
        rng = np.random.default_rng(13)
        x = (rand_spd_interval(rng, 3, 0.5, 2.0),)
        h = (rand_psd(rng, 3),)
        out = frechet_derivative(fn, x, h)
        assert np.allclose(out, h[0], atol=1e-8)

    def test_sqrt_at_identity(self):
        fn = lift_scalar("sqrt")
        rng = np.random.default_rng(14)
        h = (rand_psd(rng, 3),)
        out = frechet_derivative(fn, (np.eye(3),), h)
        assert np.allclose(out, h[0] / 2, atol=1e-8)

    def test_daleckii_krein_oracle(self):
        # divided-difference oracle for sqrt at a diagonal point
        fn = lift_scalar("sqrt")
        lam = np.array([1.0, 4.0])
        x = (np.diag(lam),)
        h = (np.ones((2, 2)),)
        out = frechet_derivative(fn, x, h)
        phi = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                if lam[i] == lam[j]:
                    phi[i, j] = 0.5 / np.sqrt(lam[i])
                else:
                    phi[i, j] = (np.sqrt(lam[i]) - np.sqrt(lam[j])) / (lam[i] - lam[j])
        assert np.allclose(out, phi * h[0], atol=1e-8)

    def test_stacked_base_points_match_single_points(self):
        fn = power_mean_fn(0.5, (0.5, 0.5))
        rng = np.random.default_rng(15)
        points = [rand_tuple_interval(rng, 2, 3, 0.5, 2.0) for _ in range(4)]
        directions = [(rand_psd(rng, 3), rand_psd(rng, 3)) for _ in range(4)]
        x = tuple(np.stack([p[i] for p in points]) for i in range(2))
        stacked = frechet_many(fn, x, directions, 1e-3)
        for p, d, out in zip(points, directions, stacked):
            single = frechet_many(fn, p, [d], 1e-3)[0]
            assert np.linalg.norm(out - single) <= 1e-12 * (1 + np.linalg.norm(single))


class TestScaleFreeStopping:
    @pytest.mark.parametrize("t", [None, 0.25, 0.5], ids=["karcher", "power-0.25", "power-0.5"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_homogeneous_at_every_scale(self, k, t):
        # M(cX) = cM(X): the stopping rules of the k >= 3 iterations carry no absolute scale
        rng = np.random.default_rng(40 + k)
        w = tuple(rng.dirichlet(np.ones(k)))
        rows = [rand_tuple_interval(rng, k, 3, 0.5, 2.0) for _ in range(4)]
        x = tuple(np.stack([r[i] for r in rows]) for i in range(k))
        z = mean_of(x, w, t)
        for c in (1e-6, 1e-3, 1e3, 1e6):
            zc = mean_of(tuple(c * xi for xi in x), w, t)
            assert np.max(fro_norm(zc - c * z) / fro_norm(c * z)) <= 1e-12


class TestNCAxioms:
    def test_identity_passes(self):
        rep = nc_axiom_check(lift_scalar("identity"), n=3, trials=20, seed=0)
        assert rep.passed and rep.details["unitary_defect"] <= 1e-12

    def test_harmonic_passes(self):
        rep = nc_axiom_check(harmonic_mean((0.5, 0.5)), n=3, trials=100, seed=1)
        assert rep.passed

    def test_karcher_passes(self):
        rep = nc_axiom_check(karcher_mean_fn((0.5, 0.5)), n=2, trials=10, seed=2)
        assert rep.passed

    def test_fake_trace_fails(self):
        rep = nc_axiom_check(fake_trace_fn(), n=2, trials=50, seed=3)
        assert not rep.passed
        assert rep.details["direct_sum_defect"] > 1e-3


class TestResolve:
    def test_known_ids(self):
        for ident, arity in [
            ("sqrt", 1),
            ("pow:0.7", 1),
            ("harmonic:w=0.5,0.5", 2),
            ("karcher:w=0.25,0.25,0.5", 3),
            ("power:t=0.5:w=0.5,0.5", 2),
            ("geomean2", 2),
            ("mobius:1,0,1,1", 1),
            ("faketrace", 1),
        ]:
            fn = resolve_function(ident)
            assert fn.arity == arity

    def test_unknown_rejected(self):
        with pytest.raises(errors.UnknownFunction):
            resolve_function("nosuchfn")
        with pytest.raises(errors.UnknownFunction):
            resolve_function("pow:2.5")


def _bad_parameter_calls():
    from opmono.represent import direct_sum_rep
    from opmono.schur import PivotSubspace, schur_generic

    x = (np.eye(2), 2 * np.eye(2))
    return {
        "weights-not-positive": lambda: harmonic_mean((1.5, -0.5)),
        "weights-not-summing-to-one": lambda: karcher_mean(x, (0.5, 0.6)),
        "power-t-above-one": lambda: power_mean(x, 2.0, (0.5, 0.5)),
        "mobius-determinant": lambda: MobiusMap(1, 2, 1, 2),
        "direct-sum-no-points": lambda: direct_sum_rep(lift_scalar("sqrt"), []),
        "schur-bad-keep": lambda: schur_generic(np.eye(2), PivotSubspace.from_indices(2, [0]), keep="x"),
    }


@pytest.mark.parametrize("case", list(_bad_parameter_calls()))
def test_bad_parameters_raise_bad_config(case):
    with pytest.raises(errors.BadConfig):
        _bad_parameter_calls()[case]()


class TestStepUnderflow:
    def test_noisy_function_exhausts_halving(self):
        rng_state = {"n": 0}

        def noisy(xs):
            rng_state["n"] += 1
            rng = np.random.default_rng(rng_state["n"])
            noise = rng.normal(size=xs[0].shape)
            return xs[0] + 1e-4 * herm_part(noise)

        fn = resolve_function("identity")
        from opmono.freefun import FreeFn

        noisy_fn = FreeFn(name="noisy", arity=1, evaluator=noisy)
        with pytest.raises(errors.StepUnderflow):
            frechet_derivative(noisy_fn, (np.eye(3),), (np.eye(3),))


class TestPositivityFromTheEvaluatorsEigh:
    """Positivity is read from the eigendecomposition the evaluator makes anyway."""

    # one cholesky per factored argument: A of a two-argument mean, each argument of the harmonic one
    CHOLESKY = {"sqrt": 0, "harmonic": 2}

    @pytest.mark.parametrize("ident,eigh,eigvalsh", [
        ("sqrt", 1, 0),
        ("geomean2", 1, 0),
        ("power:t=0.25", 1, 0),
        ("karcher", 1, 0),
        ("harmonic", 0, 0),
    ])
    def test_kernel_calls_per_evaluation(self, count_calls, ident, eigh, eigvalsh):
        fn = resolve_function(ident)
        xs = stacked_pair(np.random.default_rng(31), 512, 3)[: fn.arity]
        calls = {name: count_calls(np.linalg, name) for name in ("eigh", "eigvalsh", "cholesky", "svd")}
        fn(*xs)
        assert calls == {"eigh": [(512, 3, 3)] * eigh, "eigvalsh": [(512, 3, 3)] * eigvalsh,
                         "cholesky": [(512, 3, 3)] * self.CHOLESKY.get(ident, 1), "svd": []}

    @pytest.mark.parametrize("ident", ["power:t=0.5:w=0.2,0.3,0.5", "karcher:w=0.2,0.3,0.5"])
    def test_three_arguments_check_positivity_without_eigvalsh(self, count_calls, ident):
        # the iterate's Cholesky factor and the eigh of each L^{-1} X_i L^{-*} decide positivity:
        # a Karcher step makes k eigh and one cholesky and one more eigh for exp(s G), which the
        # last step, the one that stops, skips; a power step one more eigh for G = log(S) / t
        rng = np.random.default_rng(32)
        rows = [rand_tuple_interval(rng, 3, 3, 0.5, 2.0) for _ in range(64)]
        xs = tuple(np.stack([r[i] for r in rows]) for i in range(3))
        calls = {name: count_calls(np.linalg, name) for name in ("eigh", "eigvalsh", "cholesky")}
        resolve_function(ident)(*xs)
        steps = len(calls["cholesky"])
        assert calls["eigvalsh"] == []
        assert steps > 1 and set(calls["eigh"]) == set(calls["cholesky"]) == {(64, 3, 3)}
        if ident.startswith("power"):
            assert len(calls["eigh"]) == 5 * steps - 1
        else:
            assert len(calls["eigh"]) == 4 * steps - 1

    @pytest.mark.parametrize("ident", ["power:t=0.5:w=0.2,0.3,0.5", "karcher:w=0.2,0.3,0.5"])
    @pytest.mark.parametrize("case", ["shifted", "indefinite", "sum"])
    def test_three_arguments_not_positive_definite(self, ident, case):
        rng = np.random.default_rng(33)
        xs = list(rand_tuple_interval(rng, 3, 3, 0.5, 2.0))
        if case == "shifted":  # lambda_min = -1e-6 ||X||_F, caught on M_2
            x = xs[1]
            xs[1] = x - (min_eig(x) + 1e-6 * fro_norm(x)) * np.eye(3)
            match = "argument 2 "
        elif case == "indefinite":  # the weighted sum stays positive definite, caught on M_1
            xs[0] = np.diag([1.0, 1.0, -0.5]).astype(complex)
            assert min_eig(0.2 * xs[0] + 0.3 * xs[1] + 0.5 * xs[2]) > 0
            match = "argument 1 "
        else:  # the weighted sum is not positive definite, caught on Z
            xs[0] = np.diag([1.0, 1.0, -20.0]).astype(complex)
            assert min_eig(0.2 * xs[0] + 0.3 * xs[1] + 0.5 * xs[2]) < 0
            match = "iterate Z"
        with pytest.raises(errors.NotPositiveDefinite, match=match):
            resolve_function(ident)(*xs)

    @pytest.mark.parametrize("ident", ["geomean2", "power:t=0.25", "power:t=0.5", "karcher"])
    def test_boundary_pairs_never_return_nan(self, ident):
        # A has eigenvalues down to 1e-9 and B one of 1e-18..1e-15, so the
        # computed eigenvalues of A^{-1/2} B A^{-1/2} can be negative; every
        # draw must give a finite mean or a typed refusal
        fn = resolve_function(ident)
        rng = np.random.default_rng(0)
        outcomes = {"finite": 0, "refused": 0}
        for _ in range(300):
            u1, u2 = rand_unitary(rng, 3), rand_unitary(rng, 3)
            a = u1 @ np.diag([1.0, 1e-6, 1e-9]) @ dagger(u1)
            b = u2 @ np.diag([1.0, 0.5, 10.0 ** rng.uniform(-18, -15)]) @ dagger(u2)
            try:
                out = fn(a, b)
            except errors.NotPositiveDefinite:
                outcomes["refused"] += 1
                continue
            assert np.isfinite(out).all()
            outcomes["finite"] += 1
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("ident", ["geomean2", "power:t=0.25", "power:t=0.5", "karcher"])
    def test_indefinite_second_argument_is_named(self, ident):
        with pytest.raises(errors.NotPositiveDefinite, match="second argument"):
            resolve_function(ident)(np.eye(3), np.diag([1.0, 1.0, -1e-8]))


def _reference_eigh_fun(f, a):
    w, u = np.linalg.eigh(herm_part(a))
    return (u * f(w)[..., None, :]) @ dagger(u)


def _reference(f, xs):
    """Reference: check each argument with its own eigvalsh, then evaluate, a mean as (L U) f(w) (L U)*.

    Where cond(L^{-1} B L^{-*}) > 1e6, w and U come from the SVD of L^{-1} L_B.
    """
    for x in xs:
        if float(np.min(min_eig(x))) <= 0.0:
            raise errors.NotPositiveDefinite("reference")
    if len(xs) == 1:
        return _reference_eigh_fun(f, xs[0])
    a, b = xs
    low = np.linalg.cholesky(herm_part(a))
    linv = np.linalg.inv(low)
    w, u = np.linalg.eigh(herm_part(linv @ b @ dagger(linv)))
    v, s, _ = np.linalg.svd(linv @ np.linalg.cholesky(herm_part(b)))
    wide = w[..., -1] > 1e6 * w[..., 0]
    w = np.where(wide[..., None], s[..., ::-1] ** 2, w)
    u = np.where(wide[..., None, None], v[..., ::-1], u)
    lu = low @ u
    return herm_part((lu * f(w)[..., None, :]) @ dagger(lu))


def _square_root_reference(f, a, b):
    """The square-root form A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} of the same mean, through the eigh of A."""
    w, u = np.linalg.eigh(herm_part(a))
    sq = np.sqrt(w)
    ar, air = (u * sq[..., None, :]) @ dagger(u), (u / sq[..., None, :]) @ dagger(u)
    return herm_part(ar @ _reference_eigh_fun(f, air @ b @ air) @ ar)


@st.composite
def changed_evaluator_cases(draw):
    """(function, its representing f, argument stacks, whether one member was shifted)."""
    kind = draw(st.sampled_from(["sqrt", "log1p", "pow", "geomean2", "power", "karcher"]))
    w1 = draw(st.floats(0.05, 0.95))
    w2 = 1.0 - w1
    t = draw(st.floats(0.05, 1.0))
    fn, f = {
        "sqrt": (lift_scalar("sqrt"), np.sqrt),
        "log1p": (lift_scalar("log1p"), np.log1p),
        "pow": (lift_scalar("pow", w1), lambda x: np.power(x, w1)),
        "geomean2": (geometric_mean_2_fn(), lambda x: np.power(x, 0.5)),
        "power": (power_mean_fn(t, (w1, w2)), lambda x: np.power(w1 + w2 * np.power(x, t), 1.0 / t)),
        "karcher": (karcher_mean_fn((w1, w2)), lambda x: np.power(x, w2)),
    }[kind]
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    exps = draw(st.lists(st.floats(-3.0, 3.0), min_size=fn.arity * m * n, max_size=fn.arity * m * n))
    lam = 10.0 ** np.reshape(exps, (fn.arity, m, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.stack([[rand_unitary(rng, n) for _ in range(m)] for _ in range(fn.arity)])
    xs = (u * lam[..., None, :]) @ dagger(u)
    shifted = draw(st.booleans())
    if shifted:
        slot, member = draw(st.integers(0, fn.arity - 1)), draw(st.integers(0, m - 1))
        x = xs[slot, member]
        xs[slot, member] = x - (lam[slot, member].min() + 1e-6 * fro_norm(x)) * np.eye(n)
    return fn, f, tuple(xs), shifted


@given(changed_evaluator_cases())
def test_changed_evaluators_match_check_then_evaluate(case):
    fn, f, xs, shifted = case
    if shifted:
        with pytest.raises(errors.NotPositiveDefinite):
            _reference(f, xs)
        with pytest.raises(errors.NotPositiveDefinite):
            fn(*xs)
    else:
        out = fn(*xs)
        assert np.array_equal(out, _reference(f, xs))
        if len(xs) == 2:
            # the two factorizations agree to rounding amplified by the conditioning of both arguments
            eps, cond = np.finfo(float).eps, np.linalg.cond(xs[0]) * np.linalg.cond(xs[1])
            assert np.all(fro_norm(out - _square_root_reference(f, *xs)) <= 32 * eps * cond * fro_norm(out))


# every mean at k = 2, and the two fixed-point means at k = 3
TYPED_MEANS = ["geomean2", "power:t=0.25", "karcher", "harmonic", "power:t=0.5:w=0.2,0.3,0.5",
               "karcher:w=0.2,0.3,0.5"]


@pytest.mark.parametrize("ident", TYPED_MEANS)
@pytest.mark.parametrize("bad", ["indefinite", "shifted", "non-finite"])
def test_a_bad_argument_in_any_slot_is_refused_with_its_eigenvalue(ident, bad):
    # one bad member in a 512-stack; the evaluator is called directly, as FreeFn's own
    # check would refuse a non-finite entry as DomainViolation first
    fn = resolve_function(ident)
    error = errors.SingularArgument if ident == "harmonic" else errors.NotPositiveDefinite
    rng = np.random.default_rng(34)
    rows = [rand_tuple_interval(rng, fn.arity, 3, 0.5, 2.0) for _ in range(512)]
    for slot in range(fn.arity):
        xs = tuple(np.stack([r[i] for r in rows]) for i in range(fn.arity))
        x = xs[slot][137]
        if bad == "indefinite":
            u = rand_unitary(rng, 3)
            xs[slot][137] = u @ np.diag([1.0, 1.0, -0.5]) @ dagger(u)
        elif bad == "shifted":  # lambda_min = -1e-6 ||X||_F
            xs[slot][137] = x - (min_eig(x) + 1e-6 * fro_norm(x)) * np.eye(3)
        else:
            xs[slot][137, 0, 2] = np.nan
        number = "-inf" if bad == "non-finite" else r"-\d\.\d{3}e[-+]\d+"
        with pytest.raises(error, match=f"minimum eigenvalue {number}$"):
            fn.evaluator(xs)


@st.composite
def congruence_cases(draw):
    """(two-argument mean, A, B, C) with spectra and singular values of C in [0.1, 10]."""
    w1 = draw(st.floats(0.05, 0.95))
    t = draw(st.floats(0.05, 1.0))
    ident = draw(st.sampled_from(["geomean2", f"power:t={t}:w={w1},{1 - w1}", f"karcher:w={w1},{1 - w1}",
                                  f"harmonic:w={w1},{1 - w1}"]))
    n = draw(st.integers(1, 4))
    exps = draw(st.lists(st.floats(-1.0, 1.0), min_size=3 * n, max_size=3 * n))
    lam = 10.0 ** np.reshape(exps, (3, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = [rand_unitary(rng, n) for _ in range(4)]
    a, b = ((ui * li) @ dagger(ui) for ui, li in zip(u, lam[:2]))
    return resolve_function(ident), a, b, (u[2] * lam[2]) @ dagger(u[3])


@given(congruence_cases())
def test_means_are_congruence_invariant(case):
    # C (A sigma B) C* = (C A C*) sigma (C B C*) for every invertible C
    fn, a, b, c = case
    ca, cb = c @ a @ dagger(c), c @ b @ dagger(c)
    lhs, rhs = c @ fn(a, b) @ dagger(c), fn(ca, cb)
    cond = np.linalg.cond(ca) * np.linalg.cond(cb)
    assert fro_norm(lhs - rhs) <= 32 * np.finfo(float).eps * cond * fro_norm(lhs)


# each mean with the scalar mean of its eigenvalues, which it is on commuting pairs
SCALAR_MEANS = [
    ("geomean2", lambda a, b: np.sqrt(a * b)),
    ("power:t=0.25:w=0.3,0.7", lambda a, b: (0.3 * a**0.25 + 0.7 * b**0.25) ** 4),
    ("power:t=1:w=0.3,0.7", lambda a, b: 0.3 * a + 0.7 * b),
    ("karcher:w=0.3,0.7", lambda a, b: a**0.3 * b**0.7),
    ("harmonic:w=0.3,0.7", lambda a, b: 1.0 / (0.3 / a + 0.7 / b)),
]


@pytest.mark.parametrize("ident,scalar", SCALAR_MEANS, ids=[ident for ident, _ in SCALAR_MEANS])
def test_commuting_diagonal_pairs_match_the_scalar_mean(ident, scalar):
    # diagonal pairs with spectra in 10^-6 .. 10^6: the mean is the scalar mean entry by entry
    a, b = 10.0 ** np.random.default_rng(35).uniform(-6.0, 6.0, size=(2, 256, 4))
    out = resolve_function(ident)(a[..., None] * np.eye(4), b[..., None] * np.eye(4))
    expect = scalar(a, b)
    assert np.max(np.abs(np.diagonal(out, axis1=-2, axis2=-1) - expect) / expect) <= 1e-12
    off = out - np.diagonal(out, axis1=-2, axis2=-1)[..., None] * np.eye(4)
    assert np.all(np.abs(off) <= 1e-12 * np.sqrt(expect[..., :, None] * expect[..., None, :]))


# one identifier per CATALOGUE_IDS entry
CATALOGUE = ["identity", "sqrt", "log1p", "pow:0.7", "xsq", "faketrace", "harmonic", "arithmetic",
             "geomean2", "power:t=0.5", "karcher", "mobius:1,0,1,1"]


@pytest.mark.parametrize("ident", CATALOGUE)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_arguments_raise_domain_violation(ident, bad):
    fn = resolve_function(ident)
    x = np.stack([np.eye(3), np.eye(3)]).astype(complex)
    x[1, 0, 2] = bad
    with pytest.raises(errors.DomainViolation):
        fn(*[x] * fn.arity)
    if fn.complex_evaluator is not None:
        with pytest.raises(errors.DomainViolation):
            fn.eval_complex(x)


@pytest.mark.parametrize("ident", CATALOGUE)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("exact", [True, False], ids=["vgrad", "differences"])
def test_gradient_checks_its_arguments(ident, bad, exact):
    fn = resolve_function(ident)
    fn = fn if exact else replace(fn, vgrad=None)
    x = np.eye(3, dtype=complex)
    x[0, 2] = bad
    with pytest.raises(errors.DomainViolation):
        fn.gradient([x] * fn.arity, np.eye(3))
    with pytest.raises(errors.ArityMismatch):
        fn.gradient([np.eye(3)] * (fn.arity + 1), np.eye(3))


@pytest.mark.parametrize("ident", ["sqrt", "geomean2", "harmonic", "power:t=0.5", "karcher:w=0.2,0.3,0.5"])
def test_gradient_falls_back_on_differences(ident):
    fn = resolve_function(ident)
    rng = np.random.default_rng(41)
    x = rand_tuple_interval(rng, fn.arity, 3, 0.5, 2.0)
    seed = rand_herm(rng, 3)
    assert all(np.array_equal(g, e) for g, e in zip(fn.gradient(x, seed), fn.vgrad(x, seed)))
    for g, e in zip(replace(fn, vgrad=None).gradient(x, seed), fn.vgrad(x, seed)):
        assert fro_norm(g - e) <= 1e-8 * (1 + fro_norm(e)), ident


def test_geomean2_is_the_karcher_mean_at_equal_weights():
    geo, karcher = geometric_mean_2_fn(), karcher_mean_fn((0.5, 0.5))
    assert geo.name == "geomean2" and geo.arity == 2
    a, b = stacked_pair(np.random.default_rng(42), 8, 3)
    assert np.array_equal(geo(a, b), karcher(a, b))
    assert np.array_equal(geometric_mean_2(a, b), karcher(a, b))
    seed = rand_herm(np.random.default_rng(43), 3)
    assert all(np.array_equal(g, e) for g, e in zip(geo.vgrad((a[0], b[0]), seed),
                                                    karcher.vgrad((a[0], b[0]), seed)))


@pytest.mark.parametrize("ident", CATALOGUE)
def test_empty_stacks_and_empty_matrices(ident):
    assert len(CATALOGUE) == len(CATALOGUE_IDS)
    fn = resolve_function(ident)
    out = fn(*[np.zeros((0, 3, 3))] * fn.arity)
    assert out.shape == (0, 3, 3)
    with pytest.raises(errors.DimensionMismatch):
        fn(*[np.zeros((0, 0))] * fn.arity)
    bad = [[np.ones((2, 3))] * fn.arity]  # non-square
    if fn.arity > 1:
        bad.append([np.eye(2)] + [np.eye(3)] * (fn.arity - 1))  # square, of two sizes
    for xs in bad:
        with pytest.raises(errors.DimensionMismatch):
            fn(*xs)
        with pytest.raises(errors.DimensionMismatch):
            fn.gradient(xs, np.eye(2))


def _tuple_entry_points():
    """Every public entry point that takes a matrix tuple: name -> (arity, call on a tuple)."""
    pencil = pencil_new([2 * np.eye(2), np.eye(2), np.eye(2)])
    pivot = PivotSubspace.from_basis(np.array([[1.0], [0.0]]))
    rep = PencilRepresentation(pencil, pivot, np.diag([1.0, 0.0]))
    geo, pair = resolve_function("geomean2"), (np.eye(2), 2 * np.eye(2))
    return {
        "FreeFn.__call__": (2, lambda xs: geo(*xs)),
        "FreeFn.eval_complex": (2, lambda xs: rep.fn.eval_complex(*xs)),
        "FreeFn.gradient": (2, lambda xs: geo.gradient(xs, np.eye(2))),
        "rep.fn": (2, lambda xs: rep.fn(*xs)),
        "pencil_eval": (2, lambda xs: pencil_eval(pencil, xs)),
        "pencil_eval_shifted": (2, lambda xs: pencil_eval_shifted(pencil, xs)),
        "pencil_sectorial_check": (2, lambda xs: pencil_sectorial_check(pencil, xs)),
        "SchurCore.evaluate": (2, lambda xs: SchurCore(pencil, pivot).evaluate(xs)),
        "schur_pencil": (2, lambda xs: schur_pencil(pencil, xs, pivot)),
        "rep_eval": (2, lambda xs: rep_eval(rep, xs)),
        "rep_eval_complex": (2, lambda xs: rep_eval_complex(rep, xs)),
        "mobius_apply": (1, lambda xs: mobius_apply(MobiusMap(2.0, 1.0, 1.0, 1.0), *xs)),
        "frechet_derivative:x": (2, lambda xs: frechet_derivative(geo, xs, pair)),
        "frechet_derivative:direction": (2, lambda xs: frechet_derivative(geo, pair, xs)),
        "power_mean": (2, lambda xs: power_mean(xs, 0.5, (0.5, 0.5))),
        "karcher_mean": (2, lambda xs: karcher_mean(xs, (0.5, 0.5))),
        "geometric_mean_2": (2, lambda xs: geometric_mean_2(*xs)),
        "support_pencil": (2, lambda xs: support_pencil(geo, xs, np.ones(2))),
    }


TUPLE_ENTRY_POINTS = _tuple_entry_points()
UNPACKED = {"mobius_apply", "geometric_mean_2"}  # take the matrices themselves, so no wrong arity
STACKED = {"FreeFn.__call__", "FreeFn.eval_complex", "rep.fn", "pencil_eval", "pencil_eval_shifted", "rep_eval",
           "rep_eval_complex", "mobius_apply", "power_mean", "karcher_mean", "geometric_mean_2"}
ONE_TUPLE = {"pencil_sectorial_check", "SchurCore.evaluate", "schur_pencil", "FreeFn.gradient", "frechet_derivative:x",
             "frechet_derivative:direction", "support_pencil"}  # refuse a stack


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", TUPLE_ENTRY_POINTS)
def test_every_tuple_entry_point_refuses_a_malformed_tuple_with_a_typed_error(name):
    # matcore.check_args is the one check: the same malformed tuples get the same typed errors everywhere
    k, call = TUPLE_ENTRY_POINTS[name]
    nan, inf = np.eye(2), np.eye(2)
    nan[0, 1], inf[1, 1] = np.nan, np.inf
    cases = {"1-D": ([np.ones(2)] * k, errors.DimensionMismatch),
             "non-square": ([np.ones((2, 3))] * k, errors.DimensionMismatch),
             "0x0": ([np.zeros((0, 0))] * k, errors.DimensionMismatch),
             "NaN": ([nan] + [np.eye(2)] * (k - 1), errors.DomainViolation),
             "Inf": ([np.eye(2)] * (k - 1) + [inf], errors.DomainViolation)}
    if name not in UNPACKED:
        cases["wrong arity"] = ([np.eye(2)] * (k + 1), errors.ArityMismatch)
    if k > 1:
        cases["two sizes"] = ([np.eye(2)] + [np.eye(3)] * (k - 1), errors.DimensionMismatch)
    for case, (xs, error) in cases.items():
        with pytest.raises(error):
            call(tuple(xs))
    if name in STACKED:  # an empty stack still evaluates
        assert call((np.zeros((0, 2, 2)),) * k).shape[0] == 0
    if name in ONE_TUPLE:
        for stack in (np.stack([np.eye(2)] * 3), np.zeros((0, 2, 2))):
            with pytest.raises(errors.DimensionMismatch, match="takes one tuple"):
                call((stack,) * k)


@pytest.mark.filterwarnings("error")
def test_frechet_direction_of_another_size_is_refused():
    geo = resolve_function("geomean2")
    with pytest.raises(errors.DimensionMismatch, match="direction has size 3, the point 2"):
        frechet_derivative(geo, (np.eye(2), np.eye(2)), (np.eye(3), np.eye(3)))


@pytest.mark.parametrize("decades,gate", [(3, 1e-9), (5, 1e-7)])
@pytest.mark.parametrize("ident,scalar", SCALAR_MEANS, ids=[ident for ident, _ in SCALAR_MEANS])
def test_a_matrix_and_its_inverse_match_the_scalar_mean(count_calls, ident, scalar, decades, gate):
    # A and A^{-1} with spectra in 10^-3 .. 10^3: L^{-1} A^{-1} L^{-*} has condition numbers up to
    # 1e12, where only the SVD of L^{-1} L_B resolves its small eigenvalues; it is taken for those
    # members alone.  At 10^-5 .. 10^5 rounding leaves some computed L^{-1} A^{-1} L^{-*} indefinite
    # although A^{-1} has a Cholesky factor: those members take the SVD too
    rng = np.random.default_rng(36)
    u = np.stack([rand_unitary(rng, 4) for _ in range(256)])
    lam = 10.0 ** rng.uniform(-decades, decades, size=(256, 1, 4))
    a, b = herm_part((u * lam) @ dagger(u)), herm_part((u / lam) @ dagger(u))
    expect = (u * scalar(lam, 1.0 / lam)) @ dagger(u)
    svd = count_calls(np.linalg, "svd")
    assert np.all(fro_norm(resolve_function(ident)(a, b) - expect) <= gate * fro_norm(expect))
    assert [0 < m < 256 for m, *_ in svd] == ([] if ident.startswith(("harmonic", "power:t=1")) else [True])
