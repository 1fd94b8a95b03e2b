import numpy as np
import pytest

from opmono import cert, errors
from opmono import serialize as io
from opmono.cert import (
    concave_test,
    derivative_monotone_test,
    doubling_concavity_check,
    hypograph_convexity_test,
    monotone_test,
    nc_axiom_check,
)
from opmono.freefun import (
    FreeFn,
    _congruence_eig,
    _congruence_fun,
    fake_trace_fn,
    frechet_derivative,
    frechet_many,
    harmonic_mean,
    lift_scalar,
    resolve_function,
)
from opmono.gradients import loewner_matrix
from opmono.matcore import DEFAULT_TOL, dagger, fro_norm, herm_part, min_eig
from opmono.sampling import (draw, finish_frame, finish_psd, finish_spd, from_frame, normal, pair_above, pair_plan,
                             rand_unitary, slots, spd_plan)


def affine_plus_one():
    return FreeFn(
        name="xplus1",
        arity=1,
        evaluator=lambda xs: xs[0] + np.eye(xs[0].shape[-1]),
    )


def value_above_trace(limit, value):
    """The identity, except ``value`` in every entry wherever tr X > limit."""

    def ev(xs):
        tr = np.trace(xs[0], axis1=-2, axis2=-1).real
        return np.where((tr > limit)[..., None, None], value, xs[0])

    return FreeFn(name="value-above-trace", arity=1, evaluator=ev)


def b_over_a():
    """Test-only mean F(A, B) = B A^-1 B = A^1/2 M^2 A^1/2, which declares f(x) = x^2; it is not monotone."""

    def ev(xs):
        a, b = xs
        return herm_part(b @ np.linalg.solve(a, b))

    return FreeFn(name="bab", arity=2, evaluator=ev, scalar=(lambda x: x**2, lambda x: 2.0 * x))


def stalls():
    """Raises the typed NoConvergence on every evaluation."""

    def ev(xs):
        raise errors.NoConvergence("fixed point stalled")

    return FreeFn(name="stalls", arity=1, evaluator=ev)


TESTERS = ("monotone", "concave", "derivative", "doubling", "hypograph", "nc-axioms")


def run_tester(name, fn, n, trials, seed, **kwargs):
    """One call of the named tester."""
    if name == "doubling":
        return doubling_concavity_check(fn, n=n, trials=trials, seed=seed, **kwargs)
    if name == "hypograph":
        return hypograph_convexity_test(fn, n=n, m=n - 1, trials=trials, seed=seed, **kwargs)
    tester = {"monotone": monotone_test, "concave": concave_test, "derivative": derivative_monotone_test,
              "nc-axioms": nc_axiom_check}
    return tester[name](fn, n=n, trials=trials, seed=seed, **kwargs)


class TestMonotone:
    def test_sqrt_passes(self):
        rep = monotone_test(lift_scalar("sqrt"), n=4, trials=300, seed=7)
        assert rep.passed

    def test_identity_nonnegative_margin(self):
        rep = monotone_test(lift_scalar("identity"), n=3, trials=100, seed=0)
        assert rep.passed and rep.worst_margin >= -1e-12

    def test_xsq_counterexample_found(self):
        rep = monotone_test(lift_scalar("xsq"), n=2, trials=1000, seed=1)
        assert rep.verdict == "counterexample"
        a, b = rep.counterexample["A"], rep.counterexample["B"]
        # replaying the stored inputs reproduces the violation
        fn = lift_scalar("xsq")
        lam = np.linalg.eigvalsh(herm_part(fn(b) - fn(a)))[0]
        assert lam < -1e-9

    def test_known_xsq_pair(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[2.0, 1.0], [1.0, 1.0]])
        diff = b @ b - a @ a
        assert np.linalg.det(diff) < 0  # eigenvalue of each sign

    @pytest.mark.parametrize("tester", TESTERS)
    def test_deterministic(self, tester):
        r1 = run_tester(tester, lift_scalar("sqrt"), n=3, trials=50, seed=11)
        r2 = run_tester(tester, lift_scalar("sqrt"), n=3, trials=50, seed=11)
        assert r1.verdict == "pass"
        assert io.dumps(io.report_payload(r1)) == io.dumps(io.report_payload(r2))


class TestConcave:
    def test_sqrt_passes(self):
        rep = concave_test(lift_scalar("sqrt"), n=4, trials=200, seed=3)
        assert rep.passed

    def test_xsq_fails(self):
        rep = concave_test(lift_scalar("xsq"), n=2, trials=500, seed=4)
        assert rep.verdict == "counterexample"

    def test_affine_equality_case(self):
        rep = concave_test(affine_plus_one(), n=3, trials=100, seed=5)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-10


class TestDerivative:
    def test_identity_passes(self):
        rep = derivative_monotone_test(lift_scalar("identity"), n=3, trials=50, seed=6)
        assert rep.passed

    def test_sqrt_passes(self):
        rep = derivative_monotone_test(lift_scalar("sqrt"), n=3, trials=200, seed=7)
        assert rep.passed

    def test_xsq_fails(self):
        rep = derivative_monotone_test(lift_scalar("xsq"), n=2, trials=500, seed=8)
        assert rep.verdict == "counterexample"


class TestLoewnerPath:
    """A lift's derivative test scans the Loewner matrices of the drawn spectra."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_counterexample_replays(self, n):
        # H = (U 1)(U 1)* / n, so DF(X)[H] = U Phi U* / n carries Phi's failing eigenvalue over n
        fn = lift_scalar("xsq")
        rep = derivative_monotone_test(fn, n=n, trials=512, seed=n)
        assert rep.verdict == "counterexample"
        x, h, margin = rep.counterexample["X"], rep.counterexample["H"], rep.counterexample["margin"]
        assert abs(fro_norm(h[0]) - 1.0) <= 1e-12 and min_eig(h[0]) >= -1e-12
        replay = float(min_eig(frechet_derivative(fn, x, h)))
        assert replay < 0 and abs(replay - margin / n) <= 1e-8 * (1.0 + abs(margin))

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("ident", ["identity", "sqrt", "log1p", "pow:0.7"])
    def test_operator_monotone_lifts_pass(self, ident, n):
        fn = resolve_function(ident)
        verdicts = {derivative_monotone_test(fn, n=n, trials=512, seed=seed).verdict for seed in range(30)}
        assert verdicts == {"pass"}

    def test_no_eigh_and_no_qr(self, count_calls):
        calls = {name: count_calls(np.linalg, name) for name in ("eigh", "qr", "eigvalsh")}
        assert derivative_monotone_test(lift_scalar("sqrt"), n=4, trials=512, seed=0).passed
        # the scan's 32 candidates and the 32 members its Cholesky screen leaves open
        assert calls == {"eigh": [], "qr": [], "eigvalsh": [(32, 4, 4), (32, 4, 4)]}

    def test_the_stencil_is_kept_for_undeclared_functions(self, count_calls):
        # the same lift without its declaration evaluates X +- h H, X +- h/2 H
        from dataclasses import replace

        rows = count_calls(np.linalg, "eigh")
        rep = derivative_monotone_test(replace(lift_scalar("sqrt"), scalar=None), n=3, trials=300, seed=1)
        assert rep.passed and rows == [(1024, 3, 3), (176, 3, 3)]


MEANS = ("harmonic", "geomean2", "power:t=0.25", "power:t=1", "karcher", "karcher:w=0.3,0.7")


class TestMeanLoewnerPath:
    """A declared two-argument mean's derivative test scans [Psi, Phi] of M = L^-1 B L^-* per trial."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ident", MEANS)
    def test_the_formula_is_the_derivative(self, ident, n):
        # DF(A, B)[H_A, H_B] = LU (Psi o K_A + Phi o K_B) (LU)*, K_. = (LU)^-1 H_. (LU)^-*
        fn = resolve_function(ident)
        f, fprime = fn.scalar
        z, lam, g = draw(np.random.default_rng(n), 64, spd_plan(n, 0.8, 1.7) * 2 + [normal(2, n, n)] * 2)
        a, b = slots(finish_spd(z, lam), 2)
        ha, hb = slots(finish_psd(g), 2)
        lu, _, _, w = _congruence_eig(a, b)
        phi = loewner_matrix(w, f, fprime)
        psi = loewner_matrix(1.0 / w, lambda v: v * f(1.0 / v), lambda v: f(1.0 / v) - fprime(1.0 / v) / v)
        ci = np.linalg.inv(lu)
        formula = lu @ (psi * (ci @ ha @ dagger(ci)) + phi * (ci @ hb @ dagger(ci))) @ dagger(lu)
        stencil = np.stack(frechet_many(fn, (a, b), list(zip(ha, hb)), 2.7e-3))
        assert np.max(fro_norm(formula - stencil) / fro_norm(stencil)) <= 1e-7

    def test_counterexample_replays(self):
        # x^2 is not operator monotone, and its transpose 1/x is decreasing: Psi fails at the first trial
        fn = b_over_a()
        rep = derivative_monotone_test(fn, n=3, trials=512, seed=1)
        assert rep.verdict == "counterexample" and rep.trials_run == 1
        (a, b), (ha, hb), margin = rep.counterexample["X"], rep.counterexample["H"], rep.counterexample["margin"]
        assert abs(fro_norm(ha) - 1.0) <= 1e-12 and min_eig(ha) >= -1e-12 and not hb.any()
        replay = frechet_derivative(fn, (a, b), (ha, hb))
        assert float(min_eig(replay)) < 0
        # DF(X)[H] = C Psi C* / ||(C 1)(C 1)*||_F with C = L U, so the scanned Psi comes back by congruence
        c = _congruence_eig(a, b)[0]
        ones = c.sum(axis=-1)
        ci = np.linalg.inv(c)
        psi = ci @ replay @ dagger(ci) * fro_norm(np.outer(ones, np.conj(ones)))
        assert abs(float(min_eig(psi)) - margin) <= 1e-6 * abs(margin)

    @pytest.mark.parametrize("ident", MEANS)
    def test_the_evaluator_is_never_called(self, ident):
        from dataclasses import replace

        def refuse(xs):
            raise AssertionError("the Loewner path evaluated F")

        rep = derivative_monotone_test(replace(resolve_function(ident), evaluator=refuse), n=3, trials=512, seed=1)
        assert rep.passed

    def test_one_eigvalsh_of_m_one_qr_and_one_scan(self, count_calls):
        # X_1 = diag(lam_1), so M = D^-1/2 X_2 D^-1/2 is formed entrywise: no factorization, inverse or eigh
        calls = {name: count_calls(np.linalg, name) for name in ("eigh", "qr", "eigvalsh", "cholesky", "inv", "svd")}
        assert derivative_monotone_test(resolve_function("geomean2"), n=3, trials=512, seed=0).passed
        # M's spectrum, then the scan's 32 candidates and the 131 members its Cholesky screen leaves open
        assert calls == {"eigh": [], "qr": [(512, 3, 3)], "eigvalsh": [(512, 3, 3), (32, 3, 3), (131, 3, 3)],
                         "cholesky": [], "inv": [], "svd": []}

    @pytest.mark.parametrize("f,fprime,slot", [
        # x^1.5 is not operator monotone, and its transpose x^-0.5 decreases: Psi fails
        (lambda x: x**1.5, lambda x: 1.5 * x**0.5, 0),
        # x - 0.15 x^2 increases on M's spectrum but is not operator monotone, while its transpose
        # 1 - 0.15 / x is: Psi passes and Phi fails
        (lambda x: x - 0.15 * x**2, lambda x: 1.0 - 0.3 * x, 1),
    ], ids=["psi", "phi"])
    def test_a_counterexample_replays_in_its_slot(self, f, fprime, slot):
        # the scan reads only M's spectrum; the reported trial's C = L U is built for its H alone
        fn = FreeFn(name="pair", arity=2, evaluator=lambda xs: _congruence_fun(*xs, f), scalar=(f, fprime))
        rep = derivative_monotone_test(fn, n=3, trials=512, seed=2)
        assert rep.verdict == "counterexample"
        x, h, margin = rep.counterexample["X"], rep.counterexample["H"], rep.counterexample["margin"]
        assert not h[1 - slot].any() and abs(fro_norm(h[slot]) - 1.0) <= 1e-12 and min_eig(h[slot]) >= -1e-12
        assert np.array_equal(x[0], np.diag(np.diagonal(x[0])))
        # DF(X)[H] = C Theta C* / ||(C 1)(C 1)*||_F, so the scanned Theta comes back by congruence
        replay = frechet_derivative(fn, x, h)
        c = _congruence_eig(*x)[0]
        ones = c.sum(axis=-1)
        ci = np.linalg.inv(c)
        theta = ci @ replay @ dagger(ci) * fro_norm(np.outer(ones, np.conj(ones)))
        assert margin < 0 and abs(float(min_eig(theta)) - margin) <= 1e-6 * abs(margin)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ident", MEANS)
    def test_the_means_pass(self, ident, n):
        fn = resolve_function(ident)
        assert {derivative_monotone_test(fn, n=n, trials=512, seed=seed).verdict for seed in range(5)} == {"pass"}


class TestOutsideTheDomain:
    """Where a drawn spectrum leaves the domain the declaration is not read: the reports are the evaluator's."""

    @pytest.mark.parametrize("tester", ["monotone", "concave", "derivative", "hypograph"])
    @pytest.mark.parametrize("ident,c1,low", [
        # the lowest eigenvalue of the first rows the evaluator refuses: monotone's A, concave's A, B and
        # mixtures of its first 85 trials, hypograph's X, and derivative's stencil points about X, drawn
        # from the interval shrunk by 0.15 of its width at each end
        ("sqrt", -2.5, ("-2.500e+00", "-2.491e+00", "-2.500e+00", "-1.820e+00")),
        ("log1p", -2.5, ("-2.500e+00", "-2.491e+00", "-2.500e+00", "-1.820e+00")),
        ("pow:0.7", -2.5, ("-2.500e+00", "-2.491e+00", "-2.500e+00", "-1.820e+00")),
        # f is finite on every draw, yet the evaluator refuses
        ("log1p", -0.9, ("-8.998e-01", "-8.940e-01", "-8.997e-01", "-4.622e-01")),
    ])
    def test_a_lift_reports_as_its_evaluator(self, ident, c1, low, tester):
        run = {"monotone": monotone_test, "concave": concave_test, "derivative": derivative_monotone_test,
               "hypograph": lambda *a, **kw: hypograph_convexity_test(*a, m=2, **kw)}[tester]
        rep = run(resolve_function(ident), n=4, trials=512, seed=1, interval=(c1, 2.0))
        which = {"monotone": 0, "concave": 1, "hypograph": 2, "derivative": 3}[tester]
        assert (rep.verdict, rep.trials_run) == ("inconclusive", 0)
        assert rep.details == {"error": f"argument has minimum eigenvalue {low[which]}"}

    @pytest.mark.parametrize("tester", ["monotone", "concave", "hypograph"])
    def test_a_value_that_is_not_finite_goes_to_the_evaluator(self, tester):
        # log(x - 1) is not finite at or below 1, which the evaluator refuses; at this seed
        # only the drawn points reach there, not the points the tester evaluates
        from opmono.matcore import funcalc

        def f(x):
            return np.log(x - 1.0)

        fn = FreeFn("log(x-1)", 1, lambda xs: funcalc(f, xs[0]), scalar=(f, lambda x: 1.0 / (x - 1.0)))
        run = {"monotone": monotone_test, "concave": concave_test,
               "hypograph": lambda *a, **kw: hypograph_convexity_test(*a, m=2, **kw)}[tester]
        rep = run(fn, n=2, trials=1, seed=0)
        assert (rep.verdict, rep.details) == ("inconclusive", {"error": "function not finite on the spectrum"})

    @pytest.mark.parametrize("ident", ["harmonic", "geomean2", "power:t=0.25", "karcher"])
    def test_a_mean_takes_the_stencil(self, ident):
        rep = derivative_monotone_test(resolve_function(ident), n=3, trials=512, seed=1, interval=(-2.5, 2.0))
        what = "harmonic mean argument" if ident == "harmonic" else "first argument"
        assert (rep.verdict, rep.trials_run) == ("inconclusive", 0)
        assert rep.details == {"error": f"{what} has minimum eigenvalue -1.820e+00"}

    def test_a_mean_whose_f_fails_on_m_takes_the_stencil(self):
        # the declared f, sqrt above 0.7, is finite on every drawn spectrum, which the interval shrunk by
        # 0.15 of its width keeps in [0.725, 1.775], but not on M's spectrum, which reaches below 0.7; the
        # declaration is read on M's spectrum alone, so the evaluator's stencil decides the report
        from dataclasses import replace

        def f(x):
            return np.where(x > 0.7, np.sqrt(x), np.nan)

        fn = replace(resolve_function("geomean2"), scalar=(f, lambda x: 0.5 / f(x)))
        rep = derivative_monotone_test(fn, n=3, trials=512, seed=1)
        assert rep.passed and rep.trials_run == 512


class TestCheckedDifferences:
    """A checked difference P - Q is bounded by the norms of both terms, whose rounding it carries."""

    @pytest.mark.parametrize("tester", ["concave", "hypograph"])
    @pytest.mark.parametrize("ident,interval", [
        ("identity", (1e-6, 1e6)), ("identity", (1.0, 1e6)), ("identity", (1e-8, 1e8)),
        ("arithmetic", (1e-8, 1e8)), ("power:t=1", (1e-8, 1e8)),
    ])
    def test_a_linear_function_passes_on_a_wide_interval(self, ident, interval, tester):
        # F is linear, so each difference is zero but for rounding of about eps (||P||_F + ||Q||_F), which
        # the spectra up to 1e6 or 1e8 carry far past psd (1 + ||P - Q||_F)
        run = {"concave": concave_test, "hypograph": lambda *a, **kw: hypograph_convexity_test(*a, m=2, **kw)}[tester]
        fn = resolve_function(ident)
        assert [run(fn, n=3, trials=100, seed=seed, interval=interval).verdict for seed in range(5)] == ["pass"] * 5


def arrays_in(value):
    """Every ndarray inside nested tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from arrays_in(v)


class TestCounterexamplesOwnTheirArrays:
    """A report keeps only its counterexample's matrices alive, never a view into a tester's stacks."""

    @pytest.mark.parametrize("tester,ident,m", [
        ("monotone", "xsq", None), ("concave", "xsq", None), ("derivative", "xsq", None),
        ("derivative", "faketrace", None), ("derivative", "bab", None), ("doubling", "xsq", None),
        ("hypograph", "xsq", 1), ("hypograph", "faketrace", 2), ("nc-axioms", "faketrace", None),
    ])
    def test_every_array_owns_its_data(self, tester, ident, m):
        fn = b_over_a() if ident == "bab" else resolve_function(ident)
        run = {"monotone": monotone_test, "concave": concave_test, "derivative": derivative_monotone_test,
               "doubling": doubling_concavity_check, "hypograph": hypograph_convexity_test,
               "nc-axioms": nc_axiom_check}[tester]
        rep = run(fn, n=2, trials=512, seed=14, **({} if m is None else {"m": m}))
        arrays = list(arrays_in(rep.counterexample))
        assert rep.verdict == "counterexample" and arrays
        assert all(a.flags.owndata for a in arrays)


class TestDoubling:
    def test_sqrt_all_layers(self):
        rep = doubling_concavity_check(
            lift_scalar("sqrt"), n=3, trials=20, seed=9
        )
        assert rep.passed
        assert rep.details["unitarity_defect"] <= 1e-12
        assert rep.details["block_defect"] <= 1e-10

    def test_equal_arguments_reduces_to_monotone_shift(self):
        rng = np.random.default_rng(10)
        fn = lift_scalar("sqrt")
        from opmono.sampling import rand_spd_interval

        a = rand_spd_interval(rng, 3, 0.5, 2.0)
        for eps in (1e-1, 1e-3, 1e-6):
            diff = fn(a + eps * np.eye(3)) - fn(a)
            assert np.linalg.eigvalsh(herm_part(diff))[0] >= -1e-12

    def test_half_mixing_matrix(self):
        # at lambda = 1/2 the rotation is (1/sqrt2) [[I, -I], [I, I]]
        n = 2
        v = np.block(
            [
                [np.sqrt(0.5) * np.eye(n), -np.sqrt(0.5) * np.eye(n)],
                [np.sqrt(0.5) * np.eye(n), np.sqrt(0.5) * np.eye(n)],
            ]
        )
        assert np.linalg.norm(v.T @ v - np.eye(2 * n)) <= 1e-15

    def test_harmonic_passes(self):
        rep = doubling_concavity_check(harmonic_mean((0.5, 0.5)), n=2, trials=10, seed=11)
        assert rep.passed


class TestHypograph:
    def test_unitary_compression_preserved_exactly(self):
        rep = hypograph_convexity_test(lift_scalar("sqrt"), n=3, m=3, trials=100, seed=12)
        assert rep.passed

    def test_harmonic_passes(self):
        rep = hypograph_convexity_test(harmonic_mean((0.5, 0.5)), n=4, m=2, trials=200, seed=13)
        assert rep.passed

    def test_xsq_compression_counterexample(self):
        rep = hypograph_convexity_test(lift_scalar("xsq"), n=2, m=1, trials=1000, seed=14)
        assert rep.verdict == "counterexample"

    def test_fake_trace_fails(self):
        rep = hypograph_convexity_test(fake_trace_fn(), n=2, m=2, trials=1000, seed=15)
        assert rep.verdict == "counterexample"

    @pytest.mark.parametrize("seed", range(30))
    def test_fake_trace_caught_on_the_graph_at_every_seed(self, seed):
        # graph members are the worst case: no random slack can hide the
        # violation of the combination half, the only half faketrace breaks at m = n
        rep = hypograph_convexity_test(fake_trace_fn(), n=2, m=2, trials=512, seed=seed)
        assert rep.verdict == "counterexample"
        assert rep.counterexample["kind"] == "combination"


    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("fn", [lift_scalar("xsq"), fake_trace_fn()], ids=["xsq", "faketrace"])
    def test_at_m_equal_n_only_the_combination_half_catches_a_control(self, fn, seed):
        # at m = n the isometry V is unitary and F(V* X V) = V* F(X) V for every free function, so the
        # compression half checks nothing there: in certify's setting both controls fall to combinations
        rep = hypograph_convexity_test(fn, n=2, m=2, trials=512, seed=seed)
        assert rep.verdict == "counterexample" and rep.counterexample["kind"] == "combination"


class TestCrossValidation:
    # monotone <=> concave <=> derivative agreement per function
    @pytest.mark.parametrize(
        "ident,expected",
        [("sqrt", "pass"), ("identity", "pass"), ("xsq", "counterexample")],
    )
    def test_verdicts_agree(self, ident, expected):
        fn = lift_scalar(ident)
        reps = [
            monotone_test(fn, n=3, trials=400, seed=20),
            concave_test(fn, n=3, trials=400, seed=21),
            derivative_monotone_test(fn, n=3, trials=400, seed=22),
        ]
        for rep in reps:
            assert rep.verdict == expected


class TestNegativeControls:
    # perfbench's certify setting: n = 2, 512 trials, isometries onto C^2;
    # the seeds are fixed in advance, and each must be caught by all four testers
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("fn", [lift_scalar("xsq"), fake_trace_fn()], ids=["xsq", "faketrace"])
    def test_caught_by_every_tester(self, fn, seed):
        reps = [
            monotone_test(fn, n=2, trials=512, seed=seed),
            concave_test(fn, n=2, trials=512, seed=seed),
            derivative_monotone_test(fn, n=2, trials=512, seed=seed),
            hypograph_convexity_test(fn, n=2, m=2, trials=512, seed=seed),
        ]
        assert [r.verdict for r in reps] == ["counterexample"] * 4


def pinching():
    """X -> diag(X_11, ..., X_nn): linear, positive and monotone, but not unitarily equivariant."""

    def ev(xs):
        x = xs[0]
        return np.diagonal(x, axis1=-2, axis2=-1)[..., None] * np.eye(x.shape[-1])

    return FreeFn(name="pinching", arity=1, evaluator=ev)


def replayed_margin(tester, fn, ce):
    """The margin of a stored counterexample, recomputed from its inputs alone."""
    if tester == "monotone":
        diff = fn(ce["B"]) - fn(ce["A"])
    elif tester == "concave":
        lam = ce["lambda"]
        mix = tuple((1 - lam) * a + lam * b for a, b in zip(ce["A"], ce["B"]))
        diff = fn(mix) - ((1 - lam) * fn(ce["A"]) + lam * fn(ce["B"]))
    elif tester == "derivative":  # the tester's own stencil step on the default interval
        diff = frechet_many(fn, ce["X"], [ce["H"]], 1e-3 * 3.0)[0]
    elif ce["kind"] == "isometry":
        v = ce["V"]
        diff = fn(tuple(dagger(v) @ x @ v for x in ce["X"])) - dagger(v) @ ce["Y"] @ v
    else:
        lam = ce["lambda"]
        mix = tuple((1 - lam) * x + lam * x2 for x, x2 in zip(ce["X"], ce["X2"]))
        diff = fn(mix) - ((1 - lam) * ce["Y"] + lam * ce["Y2"])
    return float(min_eig(herm_part(diff)))


def conjugated(ce, u, w):
    """Every stored n x n input M as U M U*, an isometry V as U V W*; scalars kept."""

    def conj(key, value):
        if isinstance(value, tuple):
            return tuple(conj(key, x) for x in value)
        if key == "V":
            return u @ value @ dagger(w)
        return u @ value @ dagger(u) if isinstance(value, np.ndarray) else value

    return {key: conj(key, value) for key, value in ce.items()}


class TestTheFrameTakesTheAxiomsAsGiven:
    """The Loewner testers draw a trial in its first matrix's eigenbasis: a free function's margins do not see it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tester", ["monotone", "concave", "derivative", "hypograph"])
    @pytest.mark.parametrize("fn", [lift_scalar("xsq"), fake_trace_fn()], ids=["xsq", "faketrace"])
    def test_a_counterexample_margin_is_conjugation_invariant(self, fn, tester, seed):
        rep = run_tester(tester, fn, n=2, trials=512, seed=seed)
        assert rep.verdict == "counterexample"
        ce = rep.counterexample
        rng = np.random.default_rng(100 + seed)
        u, w = rand_unitary(rng, 2), rand_unitary(rng, ce["V"].shape[1] if "V" in ce else 1)
        margin = replayed_margin(tester, fn, ce)
        assert margin < 0
        assert abs(replayed_margin(tester, fn, conjugated(ce, u, w)) - margin) <= 1e-11 * (1.0 + abs(margin))

    def test_the_axiom_check_refutes_a_function_that_is_not_equivariant(self):
        # the pinching is monotone, so the monotone test passes it; only the axiom check sees the difference
        fn = pinching()
        assert monotone_test(fn, n=3, trials=200, seed=0).passed
        rep = nc_axiom_check(fn, n=3, trials=50, seed=0)
        assert rep.verdict == "counterexample" and rep.counterexample["kind"] == "unitary"
        assert rep.details["direct_sum_defect"] <= 1e-15


class TestScan:
    @pytest.mark.parametrize("bad", [(), (37, 120, 300)])
    def test_reference_first_violation_and_worst_margin(self, bad):
        # the same seeded pairs the tester draws, all trials in one draw; F lowers
        # B by (1 + t/100) I on the listed pairs only, so monotonicity fails there and nowhere else
        n, trials, seed = 3, 400, 23
        u, lam, (h, w) = finish_frame(1, draw(np.random.default_rng(seed), trials, pair_plan(n, 0.5, 2.0, 1)))
        a, b = pair_above(from_frame(u, lam), lam, h, w, 2.0)
        dip = {b[t].tobytes(): 1.0 + t / 100 for t in bad}

        def ev(xs):
            x = xs[0].reshape(-1, n, n)
            shift = np.array([dip.get(m.tobytes(), 0.0) for m in x])
            return (x - shift[:, None, None] * np.eye(n)).reshape(xs[0].shape)

        rep = monotone_test(FreeFn(name="dips", arity=1, evaluator=ev), n=n, trials=trials, seed=seed)
        margins = [
            np.linalg.eigvalsh(herm_part(bt - dip.get(bt.tobytes(), 0.0) * np.eye(n) - at))[0]
            for at, bt in zip(a, b)
        ]
        stop = bad[0] if bad else trials - 1
        assert rep.verdict == ("counterexample" if bad else "pass")
        assert rep.trials_run == stop + 1
        # worst_margin: the minimum over every check up to and including the stop
        assert abs(rep.worst_margin - min(margins[: stop + 1])) <= 1e-12
        if bad:
            assert np.array_equal(rep.counterexample["B"][0], b[stop])
            assert rep.worst_margin > min(margins) + 1.0  # the deeper later dips are not scanned

    def test_one_eigvalsh_call_per_chunk(self, count_calls):
        shapes = count_calls(np.linalg, "eigvalsh")
        fn = lift_scalar("sqrt")
        assert concave_test(fn, n=3, trials=512, seed=0).passed
        # sqrt checks positivity from its own eigh, so the only calls are the scan's of the
        # (512, 4, 3, 3) stack: its 32 candidates and the 52 members its Cholesky screen leaves open
        assert shapes == [(32, 3, 3), (52, 3, 3)]
        shapes.clear()
        assert hypograph_convexity_test(fn, n=3, m=2, trials=512, seed=0).passed
        # the candidates of each matrix size; the screen proves every other member
        assert shapes == [(32, 2, 2), (32, 3, 3)]

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("tester", TESTERS)
    def test_non_finite_values_are_inconclusive(self, tester, value):
        # an infinite value must reach the report's non-finite rule, not raise a RuntimeWarning
        rep = run_tester(tester, value_above_trace(4.0, value), n=3, trials=200, seed=0)
        assert rep.verdict == "inconclusive" and rep.trials_run == 0
        assert "non-finite" in rep.details["error"]


class TestTheFailureRule:
    """``cert._tester``: a typed error gives the inconclusive report at the call's seed, but BadConfig is raised."""

    @pytest.mark.parametrize("tester", TESTERS)
    def test_typed_evaluator_error_is_inconclusive(self, tester):
        rep = run_tester(tester, stalls(), n=3, trials=20, seed=5)
        assert rep.verdict == "inconclusive" and rep.trials_run == 0
        assert rep.details["error"] == "fixed point stalled"
        assert io.dumps(io.report_payload(rep)) == (
            '{"counterexample":null,"details":{"error":"fixed point stalled"},'
            f'"property_name":"{tester}","seed":5,"trials_run":0,"verdict":"inconclusive","worst_margin":null}}'
        )

    def test_the_seed_is_read_from_the_call(self):
        fn = stalls()
        assert monotone_test(fn, 2, 20, 7).seed == 7
        assert hypograph_convexity_test(fn, 2, 1, 20, 7).seed == 7  # m comes before the seed
        assert nc_axiom_check(fn, 2, seed=7).seed == 7
        assert concave_test(fn, 2).seed == 0  # the default

    @pytest.mark.parametrize("tester", TESTERS)
    def test_no_trials_is_refused(self, tester):
        with pytest.raises(errors.BadConfig, match="the trial count must be positive"):
            run_tester(tester, lift_scalar("sqrt"), n=3, trials=0, seed=0)

    def test_an_isometry_target_above_n_is_refused(self):
        with pytest.raises(errors.BadConfig, match="m = 4 must lie in 1..3"):
            hypograph_convexity_test(lift_scalar("sqrt"), n=3, m=4)


# perfbench's certify catalogue, each function at its size there
CATALOGUE = (("sqrt", 4), ("log1p", 4), ("pow:0.7", 4), ("harmonic", 3), ("geomean2", 3), ("power:t=0.25", 3),
             ("power:t=1", 3), ("karcher", 3), ("xsq", 2), ("faketrace", 2))
LOEWNER = ("monotone", "concave", "derivative", "hypograph")


def report_bits(rep):
    """A report as its JSON text and the bits of its worst margin."""
    return io.dumps(io.report_payload(rep)), float(rep.worst_margin).hex()


def screened_and_full(monkeypatch, run):
    """The bits of ``run()``'s report with the scan's screen and with every check taking ``min_eig``."""
    screened = report_bits(run())
    with monkeypatch.context() as patch:
        patch.setattr(cert, "_screened", lambda p, q, bound: None)
        return screened, report_bits(run())


def ladder():
    """100 trials of one check each, P = (1 + t/100) I and Q = 0: the candidates are trials 0..31, smallest margin 1."""
    return np.stack([(1.0 + t / 100) * np.eye(2, dtype=complex) for t in range(100)])[:, None]


class TestTheScreen:
    """``_scan`` takes ``eigvalsh`` only where a margin can set the report, and every report keeps its bits."""

    @pytest.mark.parametrize("tester", LOEWNER + ("doubling",))
    @pytest.mark.parametrize("ident,n", CATALOGUE)
    def test_every_report_is_the_full_scans(self, monkeypatch, ident, n, tester):
        fn = resolve_function(ident)
        trials = 100 if tester == "doubling" else 512
        for seed in range(3):
            screened, full = screened_and_full(monkeypatch, lambda: run_tester(tester, fn, n, trials, seed))
            assert screened == full

    @pytest.mark.parametrize("tester", LOEWNER + ("doubling",))
    @pytest.mark.parametrize("fn", [
        # linear functions, whose differences are zero but for rounding, which the screen cannot prove,
        # and non-finite values
        lift_scalar("identity"), resolve_function("arithmetic"), affine_plus_one(),
        value_above_trace(4.0, np.nan), value_above_trace(4.0, np.inf),
    ], ids=["identity", "arithmetic", "xplus1", "nan", "inf"])
    def test_rounding_level_and_non_finite_stacks_keep_their_reports(self, monkeypatch, fn, tester):
        n = 3 if fn.arity == 1 else 2
        screened, full = screened_and_full(monkeypatch, lambda: run_tester(tester, fn, n, 200, 1))
        assert screened == full

    @pytest.mark.parametrize("off,verdict", [(9.5, "pass"), (10.25, "counterexample")])
    def test_a_minimum_outside_the_candidates_is_found(self, count_calls, off, verdict):
        # trial 70's diagonal 10 keeps it out of the 32 candidates, whose smallest margin is 1; its
        # lambda_min, 10 - off, lies below that, so the screen leaves it open and it sets the report
        p = ladder()
        p[70, 0] = [[10.0, off], [off, 10.0]]
        if verdict == "counterexample":
            p[90, 0] = [[10.0, 11.0], [11.0, 10.0]]  # a deeper failure after the first
        exact = min_eig(p[:, 0])
        shapes = count_calls(np.linalg, "eigvalsh")
        rep = cert._scan("scan", 0, DEFAULT_TOL, [(p, 0.0)], lambda t, c, m: {"trial": t, "margin": m})
        assert rep.verdict == verdict
        if verdict == "pass":
            assert rep.worst_margin == exact.min() == exact[70] and abs(exact[70] - (10.0 - off)) <= 1e-13
            assert shapes == [(32, 2, 2), (1, 2, 2)]  # the candidates, then trial 70 alone
        else:  # the first failure, trial 70, not the deeper one at trial 90
            assert rep.trials_run == 71 and rep.counterexample["trial"] == 70
            assert rep.worst_margin == exact[:71].min() == exact[70] and abs(exact[70] - (10.0 - off)) <= 1e-13
            # trial 70 fails once the screen leaves it open, and a failure takes every margin
            assert shapes == [(32, 2, 2), (2, 2, 2), (100, 1, 2, 2)]

    def test_the_candidates_fail_before_any_screen(self, count_calls):
        # a failing candidate sends the stack to min_eig at once: no member is screened
        p = ladder()
        p[5, 0] = -np.eye(2)
        shapes = count_calls(np.linalg, "eigvalsh")
        rep = cert._scan("scan", 0, DEFAULT_TOL, [(p, 0.0)], lambda t, c, m: {"trial": t, "margin": m})
        assert (rep.verdict, rep.trials_run, rep.worst_margin) == ("counterexample", 6, -1.0)
        assert shapes == [(32, 2, 2), (100, 1, 2, 2)]


class TestScaleCovariance:
    """The scan bounds a difference by the norms of its terms alone, so no verdict sees the unit of the arguments."""

    @pytest.mark.parametrize("tester", LOEWNER)
    @pytest.mark.parametrize("ident", ["sqrt", "pow:0.7", "geomean2", "harmonic", "karcher", "power:t=0.25",
                                       "power:t=1", "xsq"])
    def test_verdicts_and_trial_counts_do_not_see_the_unit(self, ident, tester):
        # each function is homogeneous, so its margins scale with c (sqrt's and pow's as a power of c)
        fn = resolve_function(ident)
        seen = {c: run_tester(tester, fn, 3, 256, 2, interval=(0.5 * c, 2.0 * c)) for c in (1e-6, 1.0, 1e6)}
        assert len({(r.verdict, r.trials_run) for r in seen.values()}) == 1
        assert seen[1.0].verdict == ("counterexample" if ident == "xsq" else "pass")
