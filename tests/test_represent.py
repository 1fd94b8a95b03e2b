from dataclasses import replace

import numpy as np
import pytest

from opmono import errors, represent
from opmono.freefun import (
    FreeFn,
    MobiusMap,
    geometric_mean_2_fn,
    harmonic_mean,
    karcher_mean_fn,
    lift_scalar,
    mobius_fn,
    power_mean_fn,
    resolve_function,
)
from opmono.matcore import dagger, fro_norm, funcalc, herm_part, im_part, min_eig
from opmono.pencil import pencil_new
from opmono.represent import (
    PencilRepresentation,
    _graph_margins,
    _quad_rational_weights,
    _support_eval,
    direct_sum_rep,
    reconstruct,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    support_pencil,
)
from opmono.sampling import (
    draw,
    finish_spd,
    finish_unitary,
    rand_psd,
    rand_herm,
    rand_tuple_interval,
    rand_unit_vector,
    rand_unitary,
    spd_plan,
)
from opmono.schur import PivotSubspace


class TestSupportPencil:
    def test_identity_supports_itself(self):
        rng = np.random.default_rng(0)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(lift_scalar("identity"), a, v, seed=1, validation_samples=40)
        assert np.allclose(cert.gradients[0], np.outer(v, v.conj()), atol=1e-10)
        assert abs(cert.c - 1.0) <= 1e-10
        assert cert.support_margin >= -1e-9

    def test_sqrt_gradient_is_daleckii_krein(self):
        a = (np.diag([1.0, 4.0]).astype(complex),)
        v = np.array([1.0, 0.0])
        cert = support_pencil(
            lift_scalar("sqrt"), a, v, interval=(0.5, 5.0), seed=2, validation_samples=40
        )
        phi = np.array([[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])
        expected = phi * np.outer(v, v)
        assert np.allclose(cert.gradients[0], expected, atol=1e-10)

    def test_harmonic_random_certificates(self):
        rng = np.random.default_rng(3)
        fn = harmonic_mean((0.5, 0.5))
        for _ in range(3):
            a = rand_tuple_interval(rng, 2, 3, 0.5, 2.0)
            v = rand_unit_vector(rng, 3)
            cert = support_pencil(fn, a, v, seed=5, validation_samples=200)
            assert cert.support_margin >= -1e-7
            assert cert.trace_slack >= -1e-8
            assert cert.pencil.coeff_margin >= -1e-8
            assert cert.pencil.dominance_margin >= -1e-8

    def test_fresh_hypograph_samples_stay_positive(self):
        rng = np.random.default_rng(4)
        fn = lift_scalar("sqrt")
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(fn, a, v, seed=6, validation_samples=60)
        for _ in range(50):
            ns = int(rng.choice([3, 6]))
            x = rand_tuple_interval(rng, 1, ns, 0.5, 2.0)
            y = herm_part(fn(x)) - abs(rng.normal(0, 0.4)) * rand_psd(rng, ns)
            lx = _support_eval(cert.pencil.b0, cert.gradients, cert.v, y, x)
            assert min_eig(lx) >= -1e-7 * (1 + fro_norm(lx))

    def test_gradient_not_psd_for_square(self):
        from dataclasses import replace

        rng = np.random.default_rng(5)
        bad = replace(lift_scalar("xsq"), monotone=True, concave=True)
        a = rand_tuple_interval(rng, 1, 2, 0.5, 2.0)
        v = rand_unit_vector(rng, 2)
        with pytest.raises(errors.GradientNotPSD):
            support_pencil(bad, a, v, seed=7)

    @pytest.mark.parametrize("c", [0.5, 2, 5, 9, 11])
    def test_gradient_below_the_psd_floor_is_refused_before_validation(self, count_calls, c):
        # sqrt's gradient at v = e_1 is f'(0.8) e_1 e_1*; shift it by -c 1e-9 (1 + ||G||_F) e_3 e_3*
        from dataclasses import replace

        fn = lift_scalar("sqrt")
        e33 = np.diag([0.0, 0.0, 1.0])
        shifted = replace(fn, vgrad=lambda xs, w: [g - c * 1e-9 * (1.0 + fro_norm(g)) * e33 for g in fn.vgrad(xs, w)])
        a, v = (np.diag([0.8, 1.2, 1.6]).astype(complex),), np.eye(3)[0]
        draws = count_calls(represent, "draw")
        if c < 1:
            assert support_pencil(shifted, a, v, seed=1, validation_samples=40).samples == 40
            return
        with pytest.raises(errors.GradientNotPSD):
            support_pencil(shifted, a, v, seed=1, validation_samples=40)
        assert draws == []

    @pytest.mark.parametrize("spoil,error", [("offset", errors.CoefficientNotPSD),
                                             ("doubled gradient", errors.DominanceViolated)])
    def test_b0_is_validated_by_pencil_new_before_sampling(self, count_calls, spoil, error):
        # F + 0.1 (u v* + v u*), u orthogonal to v, keeps the gradient and alpha but adds
        # the indefinite (u v* + v u*) / 20 to B_0; a doubled gradient leaves B_0 PSD but short of 2 G
        from dataclasses import replace

        rng = np.random.default_rng(9)
        fn = lift_scalar("sqrt")
        a, v = rand_tuple_interval(rng, 1, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        u = np.linalg.qr(np.column_stack([v, rng.normal(size=3)]))[0][:, 1]
        k = np.outer(u, v.conj()) + np.outer(v, u.conj())
        if spoil == "offset":
            fn = replace(fn, evaluator=lambda xs, f=fn.evaluator: f(xs) + 0.1 * k, scalar=None)
        else:
            fn = replace(fn, vgrad=lambda xs, w, g=fn.vgrad: [2.0 * gi for gi in g(xs, w)])
        draws = count_calls(represent, "draw")
        with pytest.raises(error):
            support_pencil(fn, a, v, seed=10, validation_samples=40)
        assert draws == []

    @pytest.mark.parametrize("ident", ["sqrt", "harmonic", "geomean2"])
    def test_each_gradient_is_checked_once(self, monkeypatch, count_calls, ident):
        # before sampling: one eigvalsh per base-point slot (its domain), one per gradient,
        # then pencil_new's B_0 and dominance checks, which reuse the gradients' margins
        class Sampled(Exception):
            pass

        def stop(*args, **kwargs):
            raise Sampled

        fn = resolve_function(ident)
        rng = np.random.default_rng(46)
        a, v = rand_tuple_interval(rng, fn.arity, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        monkeypatch.setattr(represent, "draw", stop)
        shapes = count_calls(np.linalg, "eigvalsh")
        with pytest.raises(Sampled):
            support_pencil(fn, a, v, seed=47)
        assert shapes == [(3, 3)] * (2 * fn.arity + 2)

    def test_convex_lift_declared_concave_is_refused(self):
        # 1 + x^1.5 is monotone but convex.  At an eigenvector v of A the
        # Daleckii-Krein gradient f'(a_1) vv* is PSD and, for a_1 < 2^(2/3), the
        # slack f(a_1) - a_1 f'(a_1) is positive, so B_0 is issued and only its
        # support checks can refuse it: the tangent lies below a convex graph.
        from opmono.freefun import FreeFn
        from opmono.gradients import dk_map

        f, fp = (lambda x: 1.0 + np.power(x, 1.5)), (lambda x: 1.5 * np.sqrt(x))
        convex = FreeFn("convex", 1, lambda xs: funcalc(f, xs[0]),
                        vgrad=lambda xs, w: [herm_part(dk_map(xs[0], f, fp)(w))])
        a = (np.diag([0.8, 1.2, 1.6]).astype(complex),)
        with pytest.raises(errors.SupportViolated, match="scalar grid: margin -"):
            support_pencil(convex, a, np.eye(3)[0], seed=1, validation_samples=40)

    @pytest.mark.parametrize("fn", [lift_scalar("sqrt"), harmonic_mean((0.5, 0.5))],
                             ids=["sqrt", "harmonic"])
    def test_finite_difference_gradients(self, fn):
        # without vgrad the gradients come from central differences
        from dataclasses import replace

        rng = np.random.default_rng(30)
        a = rand_tuple_interval(rng, fn.arity, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(replace(fn, vgrad=None), a, v, seed=31, validation_samples=40)
        exact = fn.vgrad(a, np.outer(cert.v, cert.v.conj()))
        for g, e in zip(cert.gradients, exact):
            assert np.linalg.norm(g - herm_part(e)) <= 1e-8 * np.linalg.norm(e)
        assert reconstruct(cert).residual <= 1e-6

    def test_trace_bound(self):
        rng = np.random.default_rng(6)
        fn = lift_scalar("sqrt")
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(fn, a, v, interval=(0.5, 2.0), seed=8, validation_samples=40)
        bound = np.sqrt(2.0) / 0.5
        assert abs(cert.trace_bound - bound) <= 1e-12
        assert np.trace(cert.pencil.b0).real <= bound + 1e-8


def trace_coupled_sqrt():
    """sqrt(X) + 0.1 tr(X) e_1 e_1*: monotone and concave, but not unitarily equivariant."""

    def ev(xs):
        e11 = np.zeros(xs[0].shape[-2:])
        e11[0, 0] = 0.1
        return funcalc(np.sqrt, xs[0]) + np.trace(xs[0], axis1=-2, axis2=-1).real[..., None, None] * e11

    return FreeFn("sqrt+tr", 1, ev)


class TestGraphValidation:
    """The graph samples of ``support_pencil``: a declared lift's split by each sample's spectrum, else the full pencil."""

    @pytest.fixture(scope="class")
    def lift_cert(self):
        rng = np.random.default_rng(40)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        return support_pencil(lift_scalar("sqrt"), a, rand_unit_vector(rng, 3), seed=41)

    @pytest.mark.parametrize("ns", [3, 6])
    def test_split_bound_equals_the_full_pencil(self, lift_cert, ns):
        z, lam = draw(np.random.default_rng(ns), 40, spd_plan(ns, 0.5, 2.0))
        fn, c = lift_scalar("sqrt"), lift_cert
        bound = _graph_margins(fn, c.pencil.b0, c.gradients, c.v, z, lam)
        x = (finish_spd(z, lam),)
        full = _support_eval(c.pencil.b0, c.gradients, c.v, herm_part(fn(x)), x)
        assert np.all(np.abs(bound - min_eig(full)) <= 1e-12 * (1.0 + fro_norm(full)))

    @pytest.mark.parametrize("ns", [3, 6])
    def test_non_equivariant_function_takes_the_full_pencil(self, lift_cert, ns):
        # U* F(X) U is far from diagonal, so no split by the sample's unitary could be exact
        z, lam = draw(np.random.default_rng(ns), 40, spd_plan(ns, 0.5, 2.0))
        fn, c = trace_coupled_sqrt(), lift_cert
        u, x = finish_unitary(z), (finish_spd(z, lam),)
        t = herm_part(dagger(u) @ fn(x) @ u)
        remainder = fro_norm(t - np.diagonal(t, axis1=-2, axis2=-1)[..., None] * np.eye(ns))
        assert np.all(remainder > 1e-3)
        bound = _graph_margins(fn, c.pencil.b0, c.gradients, c.v, z, lam)
        full = min_eig(_support_eval(c.pencil.b0, c.gradients, c.v, herm_part(fn(x)), x))
        assert bound.tobytes() == full.tobytes()

    @pytest.mark.parametrize("fn", [mobius_fn(MobiusMap(1.0, 0.0, 1.0, 1.0)), replace(lift_scalar("sqrt"), scalar=None),
                                    rep_from_quadrature("sqrt", nodes=8, target=1.0).fn],
                             ids=["mobius", "sqrt-undeclared", "representation"])
    def test_an_undeclared_function_takes_the_exact_margin(self, fn):
        # support_margin is the least lambda_min L(F(X), X) over the certificate's own graph samples
        rng = np.random.default_rng(46)
        a, v = rand_tuple_interval(rng, 1, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        cert = support_pencil(fn, a, v, validation_samples=40, seed=47)
        samples, exact = np.random.default_rng(47), []
        for ns in (3, 6):
            x = (finish_spd(*draw(samples, 20, spd_plan(ns, 0.5, 2.0))),)
            exact.append(min_eig(_support_eval(cert.pencil.b0, cert.gradients, cert.v, herm_part(fn(x)), x)))
        assert cert.support_margin == float(np.min(np.concatenate(exact)))

    @pytest.mark.parametrize("fn,n", [(lift_scalar("sqrt"), 3), (lift_scalar("log1p"), 3),
                                      (geometric_mean_2_fn(), 2), (harmonic_mean((0.5, 0.5)), 2)],
                             ids=["sqrt", "log1p", "geomean2", "harmonic"])
    def test_lowered_b0_is_refused(self, monkeypatch, fn, n):
        # B_0 - 1e-6 I in place of B_0 in the graph validation only: the
        # graph touches the pencil's null space, so the loss shows in full
        rng = np.random.default_rng(42)
        a, v = rand_tuple_interval(rng, fn.arity, n, 0.5, 2.0), rand_unit_vector(rng, n)
        assert support_pencil(fn, a, v, seed=43).support_margin >= -1e-8
        exact = represent._graph_margins
        monkeypatch.setattr(represent, "_graph_margins",
                            lambda f, b0, *rest: exact(f, b0 - 1e-6 * np.eye(n), *rest))
        with pytest.raises(errors.SupportViolated, match="sampled graph"):
            support_pencil(fn, a, v, seed=43)

    def test_lift_validation_takes_only_n_by_n_eigenvalues(self, count_calls):
        rng = np.random.default_rng(44)
        a, v = rand_tuple_interval(rng, 1, 4, 0.5, 2.0), rand_unit_vector(rng, 4)
        shapes = count_calls(np.linalg, "eigvalsh")
        support_pencil(lift_scalar("sqrt"), a, v, validation_samples=200, seed=45)
        assert shapes and all(s[-2:] == (4, 4) for s in shapes)
        # the graph samples: 100 at size 4 and 100 at size 8, one 4 x 4 block per eigenvalue of X
        assert (100, 4, 4, 4) in shapes and (100, 8, 4, 4) in shapes

    def test_lift_validation_reads_f_on_the_drawn_spectra(self, count_calls):
        # a lift declares F(X) = U f(Lambda) U*: no unitary is finished and no X is evaluated
        from dataclasses import replace

        rng = np.random.default_rng(44)
        a, v = rand_tuple_interval(rng, 1, 4, 0.5, 2.0), rand_unit_vector(rng, 4)
        fn, rows = lift_scalar("sqrt"), []
        traced = replace(fn, evaluator=lambda xs: rows.append(xs[0].shape) or fn.evaluator(xs))
        qr = count_calls(np.linalg, "qr")
        support_pencil(traced, a, v, validation_samples=200, seed=45)
        assert qr == [] and rows == [(4, 4), (1, 1), (9, 1, 1)]


    @pytest.mark.parametrize("ident", ["harmonic", "geomean2", "power:t=0.25", "karcher:w=0.3,0.7"])
    def test_a_declared_mean_validates_on_its_evaluator(self, ident):
        # the two-argument declaration is not read by the graph samples: the
        # certificate is the one built without it, bit for bit
        from dataclasses import replace

        from opmono import serialize as io

        rng = np.random.default_rng(42)
        fn = resolve_function(ident)
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        declared = support_pencil(fn, a, v, seed=43, validation_samples=60)
        bare = support_pencil(replace(fn, scalar=None), a, v, seed=43, validation_samples=60)
        assert fn.scalar is not None
        assert io.dumps(io.certificate_payload(declared)) == io.dumps(io.certificate_payload(bare))


class TestReconstruct:
    def test_identity_exact(self):
        rng = np.random.default_rng(10)
        a = rand_tuple_interval(rng, 1, 4, 0.5, 2.0)
        v = rand_unit_vector(rng, 4)
        cert = support_pencil(lift_scalar("identity"), a, v, seed=11, validation_samples=40)
        rec = reconstruct(cert)
        assert np.linalg.norm(rec.value - a[0] @ cert.v) <= 1e-10
        assert rec.residual <= 1e-7

    def test_sqrt_against_funcalc(self):
        rng = np.random.default_rng(11)
        a = rand_tuple_interval(rng, 1, 4, 0.5, 2.0)
        v = rand_unit_vector(rng, 4)
        cert = support_pencil(lift_scalar("sqrt"), a, v, seed=12, validation_samples=60)
        rec = reconstruct(cert)
        truth = funcalc(np.sqrt, a[0]) @ cert.v
        assert np.linalg.norm(rec.value - truth) <= 1e-6 * (1 + np.linalg.norm(truth))
        assert rec.residual <= 1e-6

    def test_perturbed_certificate_flagged(self):
        from dataclasses import replace

        rng = np.random.default_rng(12)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(lift_scalar("sqrt"), a, v, seed=13, validation_samples=40)
        bumped = pencil_new(
            [cert.pencil.b0 + 0.1 * np.eye(3)] + list(cert.pencil.bi)
        )
        bad = replace(cert, pencil=bumped)
        rec = reconstruct(bad)
        assert rec.residual > 0.1


class TestDirectSum:
    def test_single_point_reduces_to_reconstruct(self):
        rng = np.random.default_rng(13)
        fn = harmonic_mean((0.5, 0.5))
        a = rand_tuple_interval(rng, 2, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        ds = direct_sum_rep(fn, [(a, v)], validation_samples=40, seed=14)
        assert ds.residuals[0] <= 1e-6

    def test_duplicated_point(self):
        rng = np.random.default_rng(14)
        fn = geometric_mean_2_fn()
        a = rand_tuple_interval(rng, 2, 2, 0.5, 2.0)
        v = rand_unit_vector(rng, 2)
        ds = direct_sum_rep(fn, [(a, v), (a, v)], validation_samples=40, seed=15)
        assert max(ds.residuals) <= 1e-6

    def test_four_points_geometric(self):
        rng = np.random.default_rng(15)
        fn = geometric_mean_2_fn()
        pts = [
            (rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3))
            for _ in range(4)
        ]
        ds = direct_sum_rep(fn, pts, validation_samples=60, seed=16)
        assert max(ds.residuals) <= 1e-6


class TestRepEval:
    def test_shift_annihilation_point(self):
        rep = rep_from_quadrature("sqrt", nodes=32, interval=(0.5, 2.0))
        out = rep_eval(rep, (np.eye(3),))
        # at the all-identity tuple the pencil collapses to B_0 and the output
        # is the state expectation of the pivot Schur complement of B_0
        assert np.allclose(out, out[0, 0] * np.eye(3), atol=1e-10)
        assert abs(out[0, 0] - 1.0) <= 1e-2  # sqrt(1) up to quadrature error

    def test_quadrature_matches_funcalc(self):
        rng = np.random.default_rng(16)
        rep = rep_from_quadrature("sqrt", nodes=64, interval=(0.1, 10.0))
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = rand_tuple_interval(rng, 1, n, 0.1, 10.0)
            out = rep_eval(rep, a)
            truth = funcalc(np.sqrt, a[0])
            assert np.linalg.norm(out - truth) <= 1e-3 * np.linalg.norm(truth)

    def test_equivariance(self):
        rng = np.random.default_rng(17)
        rep = rep_from_quadrature("sqrt", nodes=32, interval=(0.25, 4.0))
        a = rand_tuple_interval(rng, 1, 3, 0.25, 4.0)
        u = rand_unitary(rng, 3)
        lhs = rep_eval(rep, (u.conj().T @ a[0] @ u,))
        rhs = u.conj().T @ rep_eval(rep, a) @ u
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_single_cell_exact(self):
        # one rational cell evaluated through the machinery is exact
        lam = 1.7
        b0 = np.array([[lam, lam], [lam, lam + 1.0]])
        b1 = np.array([[0.0, 0.0], [0.0, 1.0]])
        rep = PencilRepresentation(
            pencil=pencil_new([b0, b1]),
            pivot=PivotSubspace.from_indices(2, [0]),
            state=np.diag([1.0, 0.0]),
        )
        for x in (0.3, 1.0, 5.0):
            out = rep_eval(rep, (np.array([[x]]),))
            assert abs(out[0, 0] - lam * x / (lam + x)) <= 1e-12

    def test_arity_mismatch(self):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.5, 2.0))
        with pytest.raises(errors.ArityMismatch):
            rep_eval(rep, (np.eye(2), np.eye(2)))

    def test_pow_and_log1p_quadrature(self):
        rng = np.random.default_rng(18)
        for name, f, p in (
            ("log1p", np.log1p, None),
            ("pow", lambda x: x**0.7, 0.7),
        ):
            rep = rep_from_quadrature(name, nodes=64, interval=(0.1, 10.0), p=p)
            a = rand_tuple_interval(rng, 1, 4, 0.1, 10.0)
            out = rep_eval(rep, a)
            truth = funcalc(f, a[0])
            assert np.linalg.norm(out - truth) <= 1e-3 * np.linalg.norm(truth)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(errors.QuadratureInaccurate):
            rep_from_quadrature("sqrt", nodes=2)


class TestGaussJacobiRule:
    """The power family's rule is Gauss-Jacobi in t, lam = c (1+t)/(1-t), c = sqrt(c1 c2)."""

    @pytest.mark.parametrize("nodes", [4, 16, 33])
    def test_half_power_gives_chebyshev_nodes(self, nodes):
        # alpha = beta = -1/2: Gauss-Chebyshev, nodes cos((2j-1) pi / 2N), weights pi / N in t
        lam, wts = _quad_rational_weights("sqrt", None, nodes, (0.5, 8.0))
        c = 2.0
        t = (lam - c) / (lam + c)
        j = np.arange(1, nodes + 1)
        assert np.allclose(np.sort(t), np.sort(np.cos((2 * j - 1) * np.pi / (2 * nodes))), atol=1e-14)
        mu0_v2 = np.pi * wts * (1.0 + t) / (2.0 * c**-0.5)  # mu0 = pi at p = 1/2
        assert np.allclose(mu0_v2, np.pi / nodes, rtol=1e-12)

    @pytest.mark.parametrize("name, p, f", [("sqrt", None, np.sqrt), ("pow", 0.25, lambda x: x**0.25),
                                            ("pow", 0.7, lambda x: x**0.7)], ids=["sqrt", "pow:0.25", "pow:0.7"])
    def test_converges_geometrically(self, name, p, f):
        x = np.linspace(0.1, 10.0, 2000).reshape(-1, 1, 1)
        for nodes, bound in ((16, 1e-8), (24, 1e-12)):
            rep = rep_from_quadrature(name, nodes=nodes, interval=(0.1, 10.0), p=p)
            err = np.abs(rep_eval(rep, (x,))[:, 0, 0].real - f(x[:, 0, 0])) / f(x[:, 0, 0])
            assert np.max(err) <= bound

    @pytest.mark.parametrize("name, p", [("sqrt", None), ("pow", 0.7), ("log1p", None)])
    def test_pencil_has_two_rows_per_node(self, name, p):
        rep = rep_from_quadrature(name, nodes=16, interval=(0.5, 2.0), p=p)
        assert rep.pencil.size == 32
        assert np.array_equal(rep.pivot.basis, np.eye(32)[:, ::2])
        assert np.array_equal(rep.state, np.diag(np.tile([1.0 / 16, 0.0], 16)))

    @pytest.mark.parametrize("name, p", [("sqrt", None), ("pow", 0.7), ("log1p", None)])
    def test_lies_below_the_function_in_loewner_order(self, name, p):
        # every even derivative of the integrand is positive, so the Gauss
        # error is too: r <= f on all of (0, inf), and r(X) <= F(X)
        rng = np.random.default_rng(61)
        rep = rep_from_quadrature(name, nodes=64, interval=(0.1, 10.0), p=p)
        fn = lift_scalar(name, p)
        u = np.stack([rand_unitary(rng, 4) for _ in range(8)])
        x = (u * 10.0 ** rng.uniform(-3, 3, size=(8, 1, 4))) @ u.conj().transpose(0, 2, 1)
        fx = herm_part(fn((x,)))
        assert np.all(min_eig(fx - rep_eval(rep, (x,))) >= -1e-10 * (1.0 + fro_norm(fx)))


@pytest.fixture(scope="module")
def sqrt_rep():
    return rep_from_quadrature("sqrt", nodes=64, interval=(0.1, 10.0))


class TestRepEvalComplex:

    def test_real_consistency(self, sqrt_rep):
        rng = np.random.default_rng(19)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        lhs = rep_eval_complex(sqrt_rep, a)
        rhs = rep_eval(sqrt_rep, a)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_principal_branch_at_i(self, sqrt_rep):
        out = rep_eval_complex(sqrt_rep, (1j * np.eye(2),))
        assert np.linalg.norm(out - np.sqrt(1j) * np.eye(2)) <= 2e-3
        assert min_eig(im_part(out)) >= -1e-8

    def test_principal_branch_one_plus_i(self, sqrt_rep):
        out = rep_eval_complex(sqrt_rep, ((1 + 1j) * np.eye(2),))
        truth = np.sqrt(1 + 1j) * np.eye(2)
        assert np.linalg.norm(out - truth) <= 2e-3 * np.linalg.norm(truth)

    def test_upper_halfspace_mapped_to_itself(self, sqrt_rep):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            z = rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n))
            out = rep_eval_complex(sqrt_rep, (z,))
            assert min_eig(im_part(out)) >= -1e-8 * (1 + np.linalg.norm(out))

    def test_domain_violation(self, sqrt_rep):
        with pytest.raises(errors.DomainViolation):
            rep_eval_complex(sqrt_rep, (-np.eye(2),))


class TestRepAsFreeFunction:
    def test_monotone_and_concave_black_box(self):
        from opmono.cert import concave_test, monotone_test

        fn = rep_from_quadrature("sqrt", nodes=48, interval=(0.1, 10.0)).fn
        assert monotone_test(fn, n=3, trials=80, seed=21, interval=(0.2, 8.0)).passed
        assert concave_test(fn, n=3, trials=60, seed=22, interval=(0.2, 8.0)).passed


class TestSupportPreconditions:
    def test_base_point_outside_interval_rejected(self):
        a = (np.diag([1.0, 4.0]).astype(complex),)
        with pytest.raises(errors.DomainViolation):
            support_pencil(lift_scalar("sqrt"), a, np.array([1.0, 0.0]),
                           interval=(0.5, 2.0), seed=0)

    def test_undeclared_function_rejected(self):
        with pytest.raises(errors.BadConfig):
            support_pencil(lift_scalar("xsq"), (np.eye(2),), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [lift_scalar("sqrt"), geometric_mean_2_fn()], ids=["sqrt", "geomean2"])
    def test_non_finite_base_point_rejected(self, fn, bad):
        x = np.eye(3, dtype=complex)
        x[0, 2] = bad
        with pytest.raises(errors.DomainViolation):
            support_pencil(fn, (x,) * fn.arity, np.ones(3))


class TestBaseVector:
    """A zero or non-finite base vector is refused before any evaluation, with no numpy warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [np.zeros(3), np.array([1.0, np.nan, 0.5])], ids=["zero", "nan"])
    @pytest.mark.parametrize("call", ["support_pencil", "direct_sum_rep", "from_vector"])
    def test_refused_with_one_message(self, call, v):
        def refuse(*args):
            raise AssertionError("evaluated before the base vector was checked")

        fn = replace(lift_scalar("sqrt"), evaluator=refuse, vgrad=refuse, scalar=None)
        a = rand_tuple_interval(np.random.default_rng(48), 1, 3, 0.5, 2.0)
        run = {"support_pencil": lambda: support_pencil(fn, a, v),
               "direct_sum_rep": lambda: direct_sum_rep(fn, [(a, np.ones(3)), (a, v)]),
               "from_vector": lambda: PivotSubspace.from_vector(v)}[call]
        with pytest.raises(errors.DomainViolation, match="^base vector must be finite and nonzero$"):
            run()

    def test_direct_sum_vectors_of_another_size_are_refused(self):
        # sizes 1 and 3 fill the 2 + 2 of the stacked tuple, so only the per-point check can see them
        a = (np.diag([1.0, 1.5]).astype(complex),)
        with pytest.raises(errors.DimensionMismatch, match="share one dimension"):
            direct_sum_rep(lift_scalar("sqrt"), [(a, np.ones(1)), (a, np.ones(3))], validation_samples=20)


def per_row(evaluate, rep, x):
    """The reference: ``evaluate`` called on one tuple at a time, member by member."""
    return np.stack([evaluate(rep, tuple(xi[t] for xi in x)) for t in range(len(x[0]))])


@pytest.fixture(scope="module")
def contract_reps():
    rng = np.random.default_rng(40)
    pts = [(rand_tuple_interval(rng, 2, 2, 0.5, 2.0), rand_unit_vector(rng, 2)) for _ in range(2)]
    return {
        "quadrature": rep_from_quadrature("sqrt", nodes=16, interval=(0.25, 4.0), target=1e-2),
        "direct_sum": direct_sum_rep(harmonic_mean((0.5, 0.5)), pts, validation_samples=40,
                                     seed=41).rep,
    }


def stacks(rng, k, n, size=4):
    """Positive definite, right, upper and mixed half-space stacks of k-tuples."""
    def draw(make):
        return tuple(np.stack([make() for _ in range(size)]) for _ in range(k))

    pd = draw(lambda: rand_psd(rng, n) + 0.3 * np.eye(n))
    right = draw(lambda: rand_psd(rng, n) + 0.3 * np.eye(n) + 1j * rand_herm(rng, n))
    upper = draw(lambda: rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.2 * np.eye(n)))
    take = rng.permutation(2 * size)[:size]
    mixed = tuple(np.concatenate([r, u])[take] for r, u in zip(right, upper))
    return pd, right, upper, mixed


class TestStackedContract:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("which", ["quadrature", "direct_sum"])
    def test_stack_equals_per_row_loop(self, which, n, contract_reps):
        rep = contract_reps[which]
        pd, right, upper, mixed = stacks(np.random.default_rng(42 + n), rep.arity, n)
        assert np.array_equal(rep_eval(rep, pd), per_row(rep_eval, rep, pd))
        for z in (right, upper, mixed):
            assert np.array_equal(rep_eval_complex(rep, z), per_row(rep_eval_complex, rep, z))

    def test_several_leading_axes(self, contract_reps):
        rep = contract_reps["quadrature"]
        _, _, _, mixed = stacks(np.random.default_rng(50), 1, 3, size=6)
        out = rep_eval_complex(rep, tuple(z.reshape(2, 3, 3, 3) for z in mixed))
        assert out.shape == (2, 3, 3, 3)
        assert np.array_equal(out.reshape(6, 3, 3), rep_eval_complex(rep, mixed))

    def test_one_bad_member_raises(self, contract_reps):
        rep = contract_reps["quadrature"]
        pd, right, _, _ = stacks(np.random.default_rng(51), 1, 2)
        bad = pd[0].copy()
        bad[2] = np.diag([1.0, -0.5])
        with pytest.raises(errors.DomainViolation):
            rep_eval(rep, (bad,))
        bad = right[0].copy()
        bad[1] = -np.eye(2) - 1j * np.eye(2)  # in neither half-space
        with pytest.raises(errors.DomainViolation):
            rep_eval_complex(rep, (bad,))

    @pytest.mark.parametrize("which", ["quadrature", "direct_sum"])
    def test_fn_certified_by_the_testers(self, which, contract_reps):
        # a function with a pencil representation is operator monotone and
        # concave: the library's own testers find no counterexample
        from opmono.cert import concave_test, hypograph_convexity_test, monotone_test

        fn = contract_reps[which].fn
        assert fn.monotone and fn.concave and fn.arity == contract_reps[which].arity
        assert monotone_test(fn, n=3, trials=60, seed=43).passed
        assert concave_test(fn, n=3, trials=40, seed=44).passed
        assert hypograph_convexity_test(fn, n=3, m=2, trials=40, seed=45).passed
