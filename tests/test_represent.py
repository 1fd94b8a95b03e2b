import json
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from opmono import errors, represent
from opmono.freefun import (
    FreeFn,
    MobiusMap,
    _declared_fn,
    geometric_mean_2_fn,
    harmonic_mean,
    karcher_mean_fn,
    lift_scalar,
    mobius_fn,
    power_mean_fn,
    resolve_function,
)
from opmono.matcore import (DEFAULT_TOL, Tolerances, block_diag, dagger, fro_norm, funcalc, herm_part, im_part,
                            min_eig, psd_floor, readonly, require_psd)
from opmono.pencil import RawPencil, pencil_new
from opmono.represent import (
    PencilRepresentation,
    _congruence_margins,
    _graph_margins,
    _lift_margins,
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
    finish_frame,
    frame_plan,
    from_frame,
    rand_psd,
    rand_herm,
    rand_tuple_interval,
    rand_unit_vector,
    rand_unitary,
    slots,
)
from opmono.schur import PivotSubspace, SchurCore


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
        bad = replace(lift_scalar("xsq"), monotone=True)
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


def graph_samples(rng, rounds, ns, k):
    """The unitaries and spectra of ``support_pencil``'s graph samples at size ns: frames of k members."""
    return finish_frame(k, draw(rng, rounds, frame_plan(ns, 0.5, 2.0, k)))[:2]


PAIR_MEANS = ["harmonic", "geomean2", "power:t=1", "power:t=0.5", "karcher", "power:t=0.25",
              "karcher:w=0.3,0.7", "power:t=0.25:w=0.3,0.7"]


def pair_allowance(cert, fn, ns):
    """Twice the rounding allowances ``_congruence_margins`` takes off at size ns, at their worst on the interval.

    M's spectrum lies in [c1/c2, c2/c1] and f increases, so a block's term is
    largest at w = c2/c1 with theta = c2; the (1 + c2/c1) ||E||_F term is what
    E may move the bound against lambda_min L by.
    """
    (c1, c2), eps, n = cert.interval, np.finfo(float).eps, cert.v.size
    b0, (g1, g2) = cert.pencil.b0, cert.gradients
    norms = [float(fro_norm(b)) for b in (b0, g1, g2)]
    e, w = float(fro_norm(b0 - g1 - g2)), c2 / c1
    block = 32 * n**2 * eps * (norms[1] + w * norms[2] + float(fn.scalar[0](np.array(w)))) * c2 * (1 + 32 * ns**2 * eps)
    return 2 * (block + 32 * n**2 * eps * e + 4 * eps * sum(norms) + (1 + w) * e)


class TestGraphValidation:
    """The graph samples of ``support_pencil``: a declared lift's split by each sample's spectrum, a declared
    two-argument mean's bounded by blocks on the spectrum of M, else the full pencil."""

    @pytest.fixture(scope="class")
    def lift_cert(self):
        rng = np.random.default_rng(40)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        return support_pencil(lift_scalar("sqrt"), a, rand_unit_vector(rng, 3), seed=41)

    @pytest.mark.parametrize("ns", [3, 6])
    def test_split_bound_equals_the_full_pencil(self, lift_cert, ns):
        u, lam = graph_samples(np.random.default_rng(ns), 40, ns, 1)
        fn, c = lift_scalar("sqrt"), lift_cert
        bound = _graph_margins(fn, c.pencil.b0, c.gradients, c.v, u, lam, np.linalg.eigh(herm_part(c.base_point[0]))[1])
        x = (from_frame(u, lam),)
        full = _support_eval(c.pencil.b0, c.gradients, c.v, herm_part(fn(x)), x)
        assert np.all(np.abs(bound - min_eig(full)) <= 1e-12 * (1.0 + fro_norm(full)))

    @pytest.mark.parametrize("ns", [3, 6])
    def test_non_equivariant_function_takes_the_full_pencil(self, lift_cert, ns):
        # V* F(V X V*) V is far from diagonal for a Haar V, so no split by the spectrum could be exact
        u, lam = graph_samples(np.random.default_rng(ns), 40, ns, 1)
        fn, c = trace_coupled_sqrt(), lift_cert
        x = (from_frame(u, lam),)
        rng = np.random.default_rng(ns)
        rot = np.stack([rand_unitary(rng, ns) for _ in lam])
        t = herm_part(dagger(rot) @ fn(rot @ x[0] @ dagger(rot)) @ rot)
        remainder = fro_norm(t - np.diagonal(t, axis1=-2, axis2=-1)[..., None] * np.eye(ns))
        assert np.all(remainder > 1e-3)
        bound = _graph_margins(fn, c.pencil.b0, c.gradients, c.v, u, lam)
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
            x = (from_frame(*graph_samples(samples, 20, ns, 1)),)
            exact.append(min_eig(_support_eval(cert.pencil.b0, cert.gradients, cert.v, herm_part(fn(x)), x)))
        assert cert.support_margin == float(np.min(np.concatenate(exact)))

    @pytest.mark.parametrize("fn,n", [(lift_scalar("sqrt"), 3), (lift_scalar("log1p"), 3),
                                      (geometric_mean_2_fn(), 2), (harmonic_mean((0.5, 0.5)), 2),
                                      (resolve_function("power:t=0.25"), 2),
                                      (resolve_function("karcher:w=0.3,0.7"), 2)],
                             ids=["sqrt", "log1p", "geomean2", "harmonic", "power:t=0.25", "karcher:w=0.3,0.7"])
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

    def test_lift_validation_decomposes_only_real_blocks(self, monkeypatch):
        # the graph samples take one float64 eigvalsh a stack; no complex stack of blocks is decomposed
        rng = np.random.default_rng(44)
        a, v = rand_tuple_interval(rng, 1, 4, 0.5, 2.0), rand_unit_vector(rng, 4)
        calls, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x, *args: calls.append((x.shape, x.dtype)) or real(x, *args))
        support_pencil(lift_scalar("sqrt"), a, v, validation_samples=200, seed=45)
        assert [c for c in calls if len(c[0]) == 4] == [((100, 4, 4, 4), np.float64), ((100, 8, 4, 4), np.float64)]
        assert all(len(shape) < 4 and shape[0] != 100 for shape, dtype in calls if dtype != np.float64)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("ident", ["sqrt", "log1p", "pow:0.7"])
    def test_a_lift_bound_is_sound_and_tight(self, ident, n):
        # per sample the bound is at most lambda_min of the stored complex blocks M_j, and below it
        # by no more than its rounding allowance 32 n^2 eps (s + ||M_j||_F) and the small defect terms
        fn, eps = resolve_function(ident), np.finfo(float).eps
        rng = np.random.default_rng(70 + n)
        a, v = rand_tuple_interval(rng, 1, n, 0.5, 2.0), rand_unit_vector(rng, n)
        c = support_pencil(fn, a, v, seed=71, validation_samples=40)
        b0, (g,), vv = c.pencil.b0, c.gradients, np.outer(c.v, np.conj(c.v))
        basis = np.linalg.eigh(herm_part(c.base_point[0]))[1]
        for ns in (n, 2 * n):
            u, lam = graph_samples(np.random.default_rng(ns), 20, ns, 1)
            bound = _graph_margins(fn, b0, (g,), c.v, u, lam, basis)
            d = fn.scalar[0](lam)
            blocks = b0 + (lam - 1.0)[..., None, None] * g - d[..., None, None] * vv
            exact = np.min(min_eig(blocks), axis=-1)
            s = np.max(fro_norm(b0) + np.abs(lam - 1) * fro_norm(g) + d + fro_norm(blocks), axis=-1)
            assert np.all(bound <= exact)
            assert np.all(exact - bound <= 40 * n**2 * eps * s)

    @pytest.mark.parametrize("interval", [(1e-4, 1e4), (1e-3, 1e3)])
    def test_a_declared_mean_below_the_gate_takes_the_full_pencil(self, interval):
        # on wide intervals the harmonic mean's congruence bound is theta = lambda_max(X_1) times a
        # rounding-level block margin; each sample whose bound falls below the gate takes lambda_min L
        # exactly, so the certificate the undeclared function gets is issued here too
        rng = np.random.default_rng(3)
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        fn = harmonic_mean((0.5, 0.5))
        declared = support_pencil(fn, a, v, interval=interval, seed=4, validation_samples=40)
        bare = support_pencil(replace(fn, scalar=None), a, v, interval=interval, seed=4, validation_samples=40)
        assert -1e-8 <= declared.support_margin <= bare.support_margin
        samples = np.random.default_rng(4)  # support_pencil's own draws, without the gate
        low = min(float(np.min(_graph_margins(fn, declared.pencil.b0, declared.gradients, declared.v,
                                              *finish_frame(2, draw(samples, 20, frame_plan(ns, *interval, 2)))[:2])))
                  for ns in (3, 6))
        assert (low < -1e-8) == (interval[1] == 1e4)

    def test_a_lift_whose_gradient_is_not_the_adjoint_takes_the_full_pencil_below_the_gate(self):
        # G + 1e-6 W (iJ) W*, J real antisymmetric, is Hermitian and imaginary in the phased eigenbasis W:
        # the real blocks lose about 1e-6 to the Weyl term, the pencil only about its square
        rng = np.random.default_rng(60)
        a, v = rand_tuple_interval(rng, 1, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        fn = lift_scalar("sqrt")
        u = np.linalg.eigh(herm_part(a[0]))[1]
        r = dagger(u) @ v
        w = u * (r / np.abs(r))
        k = w @ (1j * (np.eye(3, k=1) - np.eye(3, k=-1))) @ dagger(w)
        bent = replace(fn, vgrad=lambda xs, s: [g + 1e-6 * k for g in fn.vgrad(xs, s)])
        cert = support_pencil(bent, a, v, seed=61, validation_samples=40)
        bare = support_pencil(replace(bent, scalar=None), a, v, seed=61, validation_samples=40)
        assert cert.support_margin == bare.support_margin >= -1e-8
        u1, lam = graph_samples(np.random.default_rng(61), 20, 3, 1)
        assert np.min(_graph_margins(bent, cert.pencil.b0, cert.gradients, cert.v, u1, lam, u)) < -1e-8

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
    def test_a_declared_mean_moves_only_its_support_margin(self, ident):
        # the certificate built without the declaration takes the full pencil: every other
        # payload field is the same bit for bit, and its margin lies between the declared
        # bound and what that bound may lose (test_a_declared_mean_bound_is_sound_and_not_vacuous)
        from opmono import serialize as io

        rng = np.random.default_rng(42)
        fn = resolve_function(ident)
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        declared = support_pencil(fn, a, v, seed=43, validation_samples=60)
        bare = support_pencil(replace(fn, scalar=None), a, v, seed=43, validation_samples=60)
        assert fn.scalar is not None
        payloads = [io.certificate_payload(c) for c in (declared, bare)]
        low, full = (p.pop("support_margin") for p in payloads)
        assert io.dumps(payloads[0]) == io.dumps(payloads[1])
        kappa, top = 4.0, low + pair_allowance(declared, fn, 6)
        assert low <= full <= max(kappa * top, top / kappa)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ident", PAIR_MEANS)
    def test_a_declared_mean_bound_is_sound_and_not_vacuous(self, ident, n):
        # per sample the bound is at most lambda_min of the whole pencil at the drawn X; over the
        # samples its least value is at least g(m) less the allowance, m the least lambda_min and
        # g(m) = min(m / kappa, kappa m), kappa = c2 / c1 >= cond(X_1) the spread of Ostrowski's theta
        rng = np.random.default_rng(50 + n)
        fn = resolve_function(ident)
        a, v = rand_tuple_interval(rng, 2, n, 0.5, 2.0), rand_unit_vector(rng, n)
        c = support_pencil(fn, a, v, seed=51, validation_samples=40)
        for ns in (n, 2 * n):
            u, lam = graph_samples(np.random.default_rng(ns), 20, ns, 2)
            bound = _graph_margins(fn, c.pencil.b0, c.gradients, c.v, u, lam)
            xs = slots(from_frame(u, lam), 2)
            full = min_eig(_support_eval(c.pencil.b0, c.gradients, c.v, herm_part(fn(xs)), xs))
            assert np.all(bound <= full)
            m = float(np.min(full))
            assert float(np.min(bound)) >= min(m / 4.0, 4.0 * m) - pair_allowance(c, fn, ns)

    @pytest.mark.parametrize("ident", PAIR_MEANS)
    def test_a_declared_mean_bound_holds_where_the_pencil_is_indefinite(self, ident):
        # vv* scaled by 1.05**2 makes every N(w) indefinite, so theta must take spec(X_1)'s top
        rng = np.random.default_rng(53)
        fn = resolve_function(ident)
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        c = support_pencil(fn, a, v, seed=54, validation_samples=40)
        for ns in (3, 6):
            u, lam = graph_samples(np.random.default_rng(ns), 20, ns, 2)
            bound = _graph_margins(fn, c.pencil.b0, c.gradients, 1.05 * c.v, u, lam)
            xs = slots(from_frame(u, lam), 2)
            full = min_eig(_support_eval(c.pencil.b0, c.gradients, 1.05 * c.v, herm_part(fn(xs)), xs))
            assert np.all(full < -1e-3) and np.all(bound <= full)
            m = float(np.min(full))
            assert float(np.min(bound)) >= 4.0 * m - pair_allowance(c, fn, ns)

    def test_mean_validation_takes_only_n_by_n_eigenvalues(self, count_calls):
        rng = np.random.default_rng(44)
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        calls = {name: count_calls(np.linalg, name) for name in ("eigvalsh", "eigh", "cholesky", "inv", "svd")}
        support_pencil(resolve_function("karcher:w=0.3,0.7"), a, v, validation_samples=200, seed=45)
        # the graph samples: 100 at size 3 and 100 at size 6, each stack one eigvalsh of M, formed
        # entrywise from X_1 = diag(lam_1), and one 3 x 3 block per eigenvalue of M
        samples = {name: [s for s in shapes if s[0] == 100] for name, shapes in calls.items()}
        assert samples == {"eigvalsh": [(100, 3, 3), (100, 3, 3, 3), (100, 6, 6), (100, 6, 3, 3)], "eigh": [],
                           "cholesky": [], "inv": [], "svd": []}
        assert all(s[-2:] == (3, 3) for s in calls["eigvalsh"] if s[0] != 100)

    @pytest.mark.parametrize("ident", PAIR_MEANS)
    def test_a_wide_sample_takes_singular_values_and_stays_sound(self, monkeypatch, ident):
        # the first 10 of 20 samples take spectra log-uniform in 10^-4 .. 10^4, so cond(M) passes 1e6 on
        # most of them: only those take the singular values of D^-1/2 L_2, and each sample's bound stays
        # below lambda_min of the whole pencil
        rng = np.random.default_rng(55)
        fn = resolve_function(ident)
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        c = support_pencil(fn, a, v, seed=56, validation_samples=40)
        svd, real = [], np.linalg.svd

        def recording(x, *args, **kwargs):
            svd.append((x.shape, kwargs))
            return real(x, *args, **kwargs)

        for ns in (3, 6):
            u, lam = graph_samples(np.random.default_rng(ns), 20, ns, 2)
            lam[:20] = 10.0 ** np.random.default_rng(ns + 1).uniform(-4.0, 4.0, (20, ns))
            monkeypatch.setattr(np.linalg, "svd", recording)
            bound = _graph_margins(fn, c.pencil.b0, c.gradients, c.v, u, lam)
            monkeypatch.setattr(np.linalg, "svd", real)
            (shape, kwargs), = svd
            assert 0 < shape[0] <= 10 and shape[1:] == (ns, ns) and kwargs == {"compute_uv": False}
            svd.clear()
            xs = slots(from_frame(u, lam), 2)
            full = min_eig(_support_eval(c.pencil.b0, c.gradients, c.v, herm_part(fn(xs)), xs))
            assert np.all(bound <= full)

    @pytest.mark.parametrize("ns", [3, 6])
    def test_a_mean_whose_f_is_not_finite_takes_the_full_pencil(self, ns):
        # f is NaN above 1, where M's spectrum reaches on every draw: the rule gives None
        rng = np.random.default_rng(48)
        fn = geometric_mean_2_fn()
        a, v = rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
        c = support_pencil(fn, a, v, seed=49, validation_samples=40)
        cut = replace(fn, scalar=(lambda x: np.where(x > 1.0, np.nan, np.sqrt(x)), fn.scalar[1]))
        u, lam = graph_samples(np.random.default_rng(ns), 20, ns, 2)
        bound = _graph_margins(cut, c.pencil.b0, c.gradients, c.v, u, lam)
        xs = slots(from_frame(u, lam), 2)
        full = min_eig(_support_eval(c.pencil.b0, c.gradients, c.v, herm_part(fn(xs)), xs))
        assert bound.tobytes() == full.tobytes()


class TestCongruenceAllowances:
    """``_congruence_margins``' rounding allowances, each on an input where it alone keeps the bound sound.

    At n = 1 the pencil at the graph point (C C*, C W C*, C f(W) C*) is E I + C diag(N(w_j)) C*, with
    E = B_0 - G_1 - G_2 and N(w) = G_1 + w G_2 - f(w): its least eigenvalue is exact in rationals.
    """

    EPS = np.finfo(float).eps

    def test_the_rounding_of_e_is_taken_off(self):
        # B_0 - G_1 - G_2 rounds to 1 where it is 1 - 2^-59, and N(w) = 0 exactly: the pencil is E I
        g = np.array([[2.0**-60]])
        bound = _congruence_margins(np.eye(1), (g, g), np.ones(1), np.ones((1, 1)), np.full((1, 1), 2.0**-59),
                                    np.ones((1, 1)))
        exact = 1 - Fraction(2.0**-59)
        assert Fraction(float(bound[0])) <= exact
        assert exact - Fraction(float(bound[0])) <= 64 * Fraction(self.EPS)

    def test_theta_is_widened_below_the_drawn_spectrum(self):
        # E = 0 and N(w) = 1 on both eigenvalues of M, so the pencil is C C*; the drawn X_1 = I, and C C*
        # lies 100 eps below it in one direction, within the 32 ns^2 eps = 128 eps that theta allows
        g = np.array([[0.5]])
        bound = _congruence_margins(np.eye(1), (g, g), np.ones(1), np.ones((1, 2)), np.zeros((1, 2)), np.ones((1, 2)))
        exact = 1 - 100 * Fraction(self.EPS)
        assert Fraction(float(bound[0])) <= exact
        assert exact - Fraction(float(bound[0])) <= 256 * Fraction(self.EPS)


class TestLiftAllowances:
    """``_lift_margins``' allowances, each on an input where it alone keeps the bound sound.

    At n = 1 the block is the number M = B_0 + (lam - 1) G - d |v|^2, exact in rationals; at n = 2 the
    least eigenvalue of [[p, q], [q*, p]] is p - |q|.
    """

    EPS = np.finfo(float).eps

    def test_the_imaginary_parts_are_taken_off(self):
        # in the standard basis G = i (e_1 e_2* - e_2 e_1*) has real part 0, so the real block is I while
        # M = I + (lam - 1) G has least eigenvalue 1 - |lam - 1|
        g = 1j * (np.eye(2, k=1) - np.eye(2, k=-1))
        bound = _lift_margins(np.eye(2), g, np.zeros(2), np.eye(2), np.array([[1.5]]), np.array([[0.0]]))
        assert bound[0] <= 0.5 and 0.5 - bound[0] <= (np.sqrt(2) - 1) * 0.5 + 1e-12

    def test_the_unitarity_defect_is_taken_off(self):
        # W = (1 - 2^-30) I shrinks M = -2 to W* M W = -2 (1 - 2^-30)^2, above M by about 2^-28
        bound = _lift_margins(np.zeros((1, 1)), np.zeros((1, 1)), np.ones(1), np.full((1, 1), 1 - 2.0**-30),
                              np.array([[1.5]]), np.array([[2.0]]))
        assert Fraction(float(bound[0])) <= -2
        assert -2 - Fraction(float(bound[0])) <= 2.0**-26

    def test_the_rounding_is_taken_off(self):
        # 1 - 2^-60 rounds to 1, so the block 1 + (0.5 - 1) 2^-59 - (1 - 2^-53) is formed as 2^-53 where it is
        # 2^-53 - 2^-60: only the rounding allowance, 32 eps s with s about 2, keeps the bound below
        bound = _lift_margins(np.eye(1), np.full((1, 1), 2.0**-59), np.ones(1), np.eye(1), np.array([[0.5]]),
                              np.array([[1 - 2.0**-53]]))
        exact = Fraction(2.0**-53) - Fraction(2.0**-60)
        assert Fraction(float(bound[0])) <= exact
        assert exact - Fraction(float(bound[0])) <= 128 * Fraction(self.EPS)


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

    @pytest.mark.parametrize("ident", ["sqrt", "log1p", "pow:0.7"])
    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_a_rescaled_base_point_is_certified_and_reconstructed(self, ident, scale):
        # the lift's gradient is its Daleckii-Krein adjoint at every unit of the
        # spectrum, so F(cA)v comes back from a certificate for c from 1e-8 to 1e8;
        # the absolute residual is the root of an absolute defect, so it is not read
        rng = np.random.default_rng(3)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        fn = resolve_function(ident)
        ca = tuple(scale * x for x in a)
        cert = support_pencil(fn, ca, v, interval=(0.5 * scale, 2.0 * scale), seed=1)
        truth = fn(ca) @ cert.v
        assert np.linalg.norm(reconstruct(cert).value - truth) <= 1e-6 * np.linalg.norm(truth)


class TestCertificateRepresentation:
    """A certificate is the representation R of its pencil with pivot span(v) and state vv*."""

    IDENTS = ["sqrt", "log1p", "harmonic", "geomean2", "power:t=0.25"]

    @staticmethod
    def certificates(ident, seed):
        fn = resolve_function(ident)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            a, v = rand_tuple_interval(rng, fn.arity, 3, 0.5, 2.0), rand_unit_vector(rng, 3)
            yield fn, support_pencil(fn, a, v, seed=seed + 1, validation_samples=40)

    @pytest.mark.parametrize("ident", IDENTS)
    def test_its_value_at_the_base_point_is_reconstruct(self, ident):
        for _, cert in self.certificates(ident, 60):
            value = reconstruct(cert).value
            assert cert.rep is cert.rep
            got = rep_eval(cert.rep, cert.base_point) @ cert.v
            assert np.linalg.norm(got - value) <= 1e-12 * np.linalg.norm(value)

    @pytest.mark.parametrize("ident", IDENTS)
    def test_it_lies_above_f_on_the_interval(self, ident):
        # fresh points of sizes n and 2n with spectra in the certificate's interval
        rng = np.random.default_rng(62)
        for fn, cert in self.certificates(ident, 63):
            for ns in (3, 6):
                draws = [rand_tuple_interval(rng, fn.arity, ns, *cert.interval) for _ in range(20)]
                xs = tuple(np.stack(x) for x in zip(*draws))
                gap = rep_eval(cert.rep, xs) - herm_part(fn(xs))
                assert np.all(min_eig(gap) >= -psd_floor(gap))


    @pytest.mark.parametrize("ident", ["sqrt", "harmonic"])
    def test_schur_pencil_evaluates_on_its_core(self, ident):
        # schur_pencil at the certificate's pencil and an equal pivot builds no second core,
        # and its value is a fresh core's bit for bit
        from opmono.schur import schur_pencil

        rng = np.random.default_rng(64)
        for fn, cert in self.certificates(ident, 65):
            core, pivot = cert.rep.core(), PivotSubspace.from_vector(cert.v)
            z = tuple(rand_herm(rng, 3) + 1j * (rand_psd(rng, 3) + 0.1 * np.eye(3)) for _ in range(fn.arity))
            out = schur_pencil(cert.pencil, z, pivot)
            assert set(cert.pencil.cores) == {core}
            assert np.array_equal(out, SchurCore(cert.pencil, pivot).evaluate(z, tol=DEFAULT_TOL))

    def test_schur_pencil_at_any_tolerance_shares_the_representation_core(self, count_calls):
        # the partition reads no tolerance, so the certificate's one core serves
        # schur_pencil at the default floors and at other ones alike, and none is built
        from opmono import schur

        rng = np.random.default_rng(66)
        for _, cert in self.certificates("sqrt", 67):
            core = cert.rep.core()
            z = (rand_herm(rng, 3) + 1j * (rand_psd(rng, 3) + 0.1 * np.eye(3)),)
            built = count_calls(schur, "_pivot_blocks")
            for tol in (DEFAULT_TOL, Tolerances(psd=1e-8)):
                schur.schur_pencil(cert.pencil, z, PivotSubspace.from_vector(cert.v), tol)
            assert built == [] and set(cert.pencil.cores) == {cert.rep.core()} == {core}


class TestDirectSum:
    def test_single_point_reduces_to_reconstruct(self):
        rng = np.random.default_rng(13)
        fn = harmonic_mean((0.5, 0.5))
        a = rand_tuple_interval(rng, 2, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        ds = direct_sum_rep(fn, [(a, v)], validation_samples=40, seed=14)
        assert ds.residuals[0] <= 1e-6
        assert ds.rep is ds.certificate.rep
        assert ds.rep.meta == {"kind": "direct_sum", "function": fn.name, "points": 1}

    @pytest.mark.parametrize("arity", [1, 3], ids=["short", "long"])
    def test_a_point_of_another_arity_is_refused(self, arity):
        def refuse(*args):
            raise AssertionError("evaluated before the points were checked")

        fn = replace(geometric_mean_2_fn(), evaluator=refuse, vgrad=refuse, scalar=None)
        a = rand_tuple_interval(np.random.default_rng(49), 2, 2, 0.5, 2.0)
        with pytest.raises(errors.ArityMismatch):
            direct_sum_rep(fn, [(a, np.ones(2)), (a[:1] * arity, np.ones(2))])

    def test_duplicated_point(self):
        rng = np.random.default_rng(14)
        fn = geometric_mean_2_fn()
        a = rand_tuple_interval(rng, 2, 2, 0.5, 2.0)
        v = rand_unit_vector(rng, 2)
        ds = direct_sum_rep(fn, [(a, v), (a, v)], validation_samples=40, seed=15)
        assert max(ds.residuals) <= 1e-6

    def test_blocks_are_balanced_whatever_the_vector_norms(self):
        rng = np.random.default_rng(16)
        fn = geometric_mean_2_fn()
        pts = [(rand_tuple_interval(rng, 2, 2, 0.5, 2.0), scale * np.eye(2)[0]) for scale in (10.0, 1.0)]
        ds = direct_sum_rep(fn, pts, validation_samples=40, seed=17)
        blocks = np.linalg.norm(ds.certificate.v.reshape(2, 2), axis=1)
        assert np.allclose(blocks, np.sqrt(0.5), rtol=0, atol=1e-15)
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

    @pytest.mark.parametrize("target", [np.nan, np.inf, 0.0, -1.0])
    def test_a_target_that_is_not_finite_and_positive_is_refused(self, target):
        # no error exceeds a NaN or infinite target, so it would accept any representation
        with pytest.raises(errors.BadConfig, match="target must be finite and positive"):
            rep_from_quadrature("sqrt", nodes=8, target=target)

    @pytest.mark.parametrize("interval", [(2.0, 1.0), (0.0, 2.0), (-1.0, 2.0), (0.1, np.inf), (np.nan, 2.0),
                                          (0.1, np.nan), (1.0, 1.0), (0.5,), (0.1, 1.0, 2.0)],
                             ids=["reversed", "zero", "negative", "infinite", "nan-low", "nan-high", "empty", "one-end",
                                  "three-ends"])
    def test_a_malformed_interval_is_refused_before_any_rule(self, interval):
        # a reversed interval used to give a representation, one reaching 0 numpy warnings first
        with pytest.raises(errors.BadConfig, match=r"must be \(c1, c2\) with 0 < c1 < c2 < inf"):
            rep_from_quadrature("sqrt", nodes=8, interval=interval)


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

    @pytest.mark.parametrize("scale,error", [(1.0, errors.NegativeNormalization), (2.0, errors.NegativeSlack)],
                             ids=["alpha-zero", "alpha-below-trace"])
    def test_log_has_no_completion(self, scale, error):
        # log is monotone and concave, but at I its intercept is alpha = log 1 = 0, and at 2I
        # alpha = log 2 - 1/2 = 0.193 lies below tr G = 1/2
        fn = _declared_fn("log", 1, np.log, lambda x: 1 / x)
        with pytest.raises(error):
            support_pencil(fn, (scale * np.eye(2),), np.array([1.0, 0.0]))

    def test_undeclared_function_rejected(self):
        with pytest.raises(errors.BadConfig):
            support_pencil(lift_scalar("xsq"), (np.eye(2),), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("interval", [(0.0, 2.0), (2.0, 0.5), (0.5, np.inf), (np.nan, 2.0)],
                             ids=["zero", "reversed", "infinite", "nan"])
    def test_a_malformed_interval_is_refused(self, interval):
        # c1 = 0 used to raise a raw ZeroDivisionError from the trace bound f(c2) / min(1, c1)
        with pytest.raises(errors.BadConfig, match="0 < c1 < c2 < inf"):
            support_pencil(lift_scalar("sqrt"), (np.eye(2),), np.ones(2), interval=interval)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_validation_sample_is_refused(self, samples):
        # -3 used to give a certificate validated on two samples
        with pytest.raises(errors.BadConfig, match="validation_samples must be at least 1"):
            support_pencil(lift_scalar("sqrt"), (np.eye(2),), np.ones(2), validation_samples=samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, seed):
        with pytest.raises(errors.BadConfig, match="seed must be a non-negative integer"):
            support_pencil(lift_scalar("sqrt"), (np.eye(2),), np.ones(2), seed=seed)

    def test_one_validation_sample_and_interval_stored_as_given(self):
        interval = (0.5, 2)
        cert = support_pencil(lift_scalar("sqrt"), (np.eye(2),), np.ones(2), interval=interval, validation_samples=1)
        assert cert.samples == 2 and cert.interval is interval

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
        "support": support_pencil(lift_scalar("sqrt"), rand_tuple_interval(rng, 1, 3, 0.5, 2.0),
                                  rand_unit_vector(rng, 3), validation_samples=40, seed=42).rep,
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
    @pytest.mark.parametrize("which", ["quadrature", "direct_sum", "support"])
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

    @pytest.mark.parametrize("which", ["quadrature", "direct_sum", "support"])
    def test_fn_certified_by_the_testers(self, which, contract_reps):
        # a function with a pencil representation is operator monotone and
        # concave: the library's own testers find no counterexample
        from opmono.cert import concave_test, hypograph_convexity_test, monotone_test

        fn = contract_reps[which].fn
        assert fn.monotone and fn.arity == contract_reps[which].arity
        assert monotone_test(fn, n=3, trials=60, seed=43).passed
        assert concave_test(fn, n=3, trials=40, seed=44).passed
        assert hypograph_convexity_test(fn, n=3, m=2, trials=40, seed=45).passed


# ---------------------------------------------------------------------------
# the state's pivot-block weights, computed once per core


@pytest.fixture(scope="module")
def workload_reps():
    """The continuation benchmark's three quadrature representations."""
    return {
        "sqrt": rep_from_quadrature("sqrt", nodes=64, interval=(0.1, 10.0)),
        "log1p": rep_from_quadrature("log1p", nodes=32, interval=(0.1, 10.0)),
        "pow:0.7": rep_from_quadrature("pow", nodes=48, interval=(0.1, 10.0), p=0.7),
    }


class TestStateWeightsOncePerCore:
    @pytest.mark.parametrize("which", ["sqrt", "log1p", "pow:0.7"])
    def test_equal_to_a_fresh_core_on_a_writable_state(self, which, workload_reps):
        rep = workload_reps[which]
        fresh = SchurCore(rep.pencil, rep.pivot)
        rng = np.random.default_rng(60)
        for n in range(2, 7):
            for lead in ((), (3,)):  # one tuple and a stack of three
                h = np.stack([rand_herm(rng, n) for _ in range(max(lead, default=1))]).reshape(lead + (n, n))
                p = np.stack([rand_psd(rng, n) + 0.1 * np.eye(n) for _ in range(max(lead, default=1))])
                p = p.reshape(lead + (n, n))
                for z in (h + 1j * p, p + 1j * h):
                    assert np.array_equal(rep_eval_complex(rep, (z,)),
                                          fresh.evaluate((z,), state=rep.state.copy(), tol=DEFAULT_TOL))
                assert np.array_equal(rep_eval(rep, (p,)),
                                      herm_part(fresh.evaluate((p,), state=rep.state.copy())))

    def test_one_core_serves_every_tolerance(self):
        # a call at tight floors and one at the default floors evaluate through one
        # core, which the pencil lists alone, and the tight call is a fresh core's
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.25, 4.0), target=1e-2)
        rng = np.random.default_rng(64)
        tight = Tolerances(psd=1e-8)
        z = (rand_herm(rng, 3) + 1j * (rand_psd(rng, 3) + 0.1 * np.eye(3)),)
        fresh = SchurCore(rep.pencil, rep.pivot)
        assert np.array_equal(rep_eval_complex(rep, z, tight), fresh.evaluate(z, state=rep.state.copy(), tol=tight))
        core = rep.core()
        rep_eval_complex(rep, z)
        assert rep.core() is core and set(rep.pencil.cores) == {core}
        # above the default floors and below the tight ones: each call reads its own
        between = (8e-9 * (1 + 1j) * np.eye(3),)
        for evaluate in (partial(rep_eval_complex, rep), partial(fresh.evaluate, state=rep.state.copy())):
            with pytest.raises(errors.DomainViolation):
                evaluate(between, tol=tight)
        assert np.array_equal(rep_eval_complex(rep, between), fresh.evaluate(between, state=rep.state.copy(),
                                                                             tol=DEFAULT_TOL))
        assert rep.core() is core and set(rep.pencil.cores) == {core}

    def test_a_representation_compresses_its_state_once(self, monkeypatch):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.25, 4.0), target=1e-2)
        core = rep.core()
        returned = []
        weights = SchurCore.state_weights
        monkeypatch.setattr(SchurCore, "state_weights",
                            lambda self, s: returned.append(weights(self, s)) or returned[-1])
        rng = np.random.default_rng(61)
        for _ in range(3):
            p = rand_psd(rng, 3) + 0.1 * np.eye(3)
            h = rand_herm(rng, 3)
            rep_eval(rep, (p,))
            rep_eval_complex(rep, (h + 1j * p,))
            rep_eval_complex(rep, (p + 1j * h,))
        assert len(returned) == 9 and rep.core() is core
        assert all(w is returned[0] for w in returned)  # one compression, read nine times

    def test_each_state_gets_its_own_weights(self):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.25, 4.0), target=1e-2)
        core = SchurCore(rep.pencil, rep.pivot)
        rng = np.random.default_rng(62)
        z = (rand_herm(rng, 3) + 1j * (rand_psd(rng, 3) + 0.1 * np.eye(3)),)
        first, second = rep.state.copy(), np.diag(rng.uniform(0.0, 1.0, rep.pencil.size))
        results = []
        for state in (first, second, first):
            results.append(core.evaluate(z, state=state, tol=DEFAULT_TOL))
            assert np.array_equal(results[-1], SchurCore(rep.pencil, rep.pivot).evaluate(z, state=state.copy(),
                                                                                       tol=DEFAULT_TOL))
        assert not np.array_equal(results[0], results[1]) and np.array_equal(results[0], results[2])
        first[0, 0] += 1.0  # edited in place between calls
        edited = core.evaluate(z, state=first, tol=DEFAULT_TOL)
        assert not np.array_equal(edited, results[0])
        assert np.array_equal(edited, SchurCore(rep.pencil, rep.pivot).evaluate(z, state=first.copy(),
                                                                                tol=DEFAULT_TOL))
        # read-only states are kept one at a time, each under its own identity
        for state in (rep.state, readonly(second), rep.state):
            assert np.array_equal(core.evaluate(z, state=state, tol=DEFAULT_TOL),
                                  results[0] if state is rep.state else results[1])

    def test_each_slot_floor_is_taken_once(self, count_calls, workload_reps):
        # one psd_floor of the slot serves both half-space tests and one
        # serves the output's imaginary part; each eliminated component's
        # floor reads the norm its kappa term takes (Tolerances.psd_floor_at)
        from opmono import schur

        rep = workload_reps["log1p"]
        rng = np.random.default_rng(63)
        h, p = rand_herm(rng, 3), rand_psd(rng, 3) + 0.1 * np.eye(3)
        for z, upper_members in ((h + 1j * p, 1), (p + 1j * h, 0)):
            calls = count_calls(schur, "psd_floor")
            rep_eval_complex(rep, (z,))
            assert calls == [(3, 3), (upper_members, 3, 3)]


def half_space_tuples(rng, n):
    """An upper H + i(P + 0.1 I) and a right (P + 0.1 I) + iH tuple at size n, as the continuation bench draws them."""
    h, p = rand_herm(rng, n), rand_psd(rng, n) + 0.1 * np.eye(n)
    return {"upper": h + 1j * p, "right": p + 1j * h}


class TestContinuationCost:
    @pytest.mark.parametrize("which", ["sqrt", "log1p", "pow:0.7"])
    def test_no_member_takes_a_spectral_norm_or_an_exact_angle(self, which, workload_reps, count_calls,
                                                               monkeypatch):
        # every member of the bench's representations is settled by the check
        # on full_c, tier 1 or the diagonal's angles, and by the cone bound
        from opmono import schur

        rep = workload_reps[which]
        rep.core()  # the core's construction takes its own eigh
        angles = []
        exact = schur.sector_certified_alpha
        monkeypatch.setattr(schur, "sector_certified_alpha", lambda m: angles.append(m) or exact(m))
        svd, eigh = count_calls(np.linalg, "svd"), count_calls(np.linalg, "eigh")
        rng = np.random.default_rng(64)
        for n in range(2, 7):
            for z in half_space_tuples(rng, n).values():
                out = rep_eval_complex(rep, (z,))
                assert np.array_equal(out, rep.core().evaluate((z,), state=rep.state))
        assert svd == [] and eigh == [] and angles == []

    @pytest.mark.parametrize("n", [8, 16])
    def test_sqrt_matches_its_rational_form_at_larger_sizes(self, n, workload_reps):
        # sum_r w_r lam_r Z (lam_r + Z)^{-1}, one batched solve
        lam, wts = _quad_rational_weights("sqrt", None, 64, (0.1, 10.0))
        rng = np.random.default_rng(65 + n)
        for half, z in half_space_tuples(rng, n).items():
            out = rep_eval_complex(workload_reps["sqrt"], (z,))
            shifted = lam[:, None, None] * np.eye(n) + z
            direct = np.einsum("r,rij->ij", wts * lam, np.linalg.solve(shifted, np.broadcast_to(z, shifted.shape)))
            assert np.linalg.norm(out - direct) <= 1e-10 * np.linalg.norm(direct), half


class TestReadOnlyArrays:
    def test_a_representation_refuses_in_place_edits(self):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.25, 4.0), target=1e-2)
        x = (np.diag([0.5, 2.0]),)
        before = rep_eval(rep, x)
        for target in (rep.pencil.coeffs[0], rep.pencil.b0, rep.pencil.coeffs[1], rep.pivot.basis, rep.state):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] += 1.0
        assert np.array_equal(rep_eval(rep, x), before)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_the_callers_arrays_stay_writable_and_apart(self, dtype):
        b0, b1 = np.diag([2.0, 1.0]).astype(dtype), np.diag([1.0, 0.5]).astype(dtype)
        basis = np.eye(2, 1).astype(dtype)
        state = np.diag([1.0, 0.0]).astype(dtype)
        rep = PencilRepresentation(pencil_new([b0, b1]), PivotSubspace(basis), state)
        raw = RawPencil((b0, b1))
        for mine in (b0, b1, basis, state):
            assert mine.flags.writeable
            mine[0, 0] = 7.0
        assert rep.pencil.b0[0, 0] == 2.0 and raw.coeffs[0][0, 0] == 2.0 and raw.coeffs[1][0, 0] == 1.0
        assert rep.pivot.basis[0, 0] == 1.0 and rep.state[0, 0] == 1.0


class TestBlockwiseSetUp:
    def test_building_loading_and_a_first_evaluation_take_no_large_eigendecomposition(self, count_calls):
        # a 128-node representation's set-up works cell by cell: the only eigh or
        # eigvalsh on a matrix larger than 2 x 2 is the Golub-Welsch tridiagonal one
        from opmono import serialize as io

        eigh, eigvalsh = count_calls(np.linalg, "eigh"), count_calls(np.linalg, "eigvalsh")
        rep = rep_from_quadrature("sqrt", nodes=128)
        text = io.dumps(io.envelope("representation", io.representation_payload(rep)))
        _, payload = io.parse_envelope(json.loads(text), expect="representation")
        loaded = io.representation_from_payload(payload)
        z = np.array([[1.0 + 1.0j, 0.3], [0.3, 2.0 + 0.5j]])
        assert np.array_equal(rep_eval_complex(loaded, (z,)), rep_eval_complex(rep, (z,)))
        large = [shape for shape in eigh + eigvalsh if shape[-1] > 2]
        assert large == [(128, 128)] and eigh.count((128, 128)) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_a_state_with_one_negative_block_is_refused(self, seed):
        rng = np.random.default_rng(80 + seed)
        sizes = (2, 1, 3, 2, 1)
        blocks = [rand_psd(rng, s) + 0.1 * np.eye(s) for s in sizes]
        blocks[2] = blocks[2] - (1.0 + np.linalg.norm(blocks[2])) * np.eye(3)
        perm = rng.permutation(sum(sizes))
        state = block_diag(*blocks)[np.ix_(perm, perm)]
        state = state / np.trace(state).real
        d = state.shape[0]
        pencil = pencil_new([2 * np.eye(d), np.eye(d)])
        with pytest.raises(errors.NotPSD):
            PencilRepresentation(pencil, PivotSubspace.from_indices(d, [0]), state)
        with pytest.raises(errors.NotPSD):  # the check on the whole matrix refuses it too
            require_psd(herm_part(state), errors.NotPSD, "the state")
