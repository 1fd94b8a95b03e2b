import numpy as np
import pytest

from opmono import errors
from opmono import serialize as io
from opmono.cert import (
    chain_semicontinuity_test,
    concave_test,
    derivative_monotone_test,
    doubling_concavity_check,
    hypograph_convexity_test,
    lipschitz_estimate,
    monotone_test,
)
from opmono.freefun import (
    FreeFn,
    fake_trace_fn,
    frechet_derivative,
    harmonic_mean,
    lift_scalar,
    resolve_function,
)
from opmono.matcore import fro_norm, herm_part, min_eig
from opmono.sampling import draw, finish_pair, pair_plan, rand_spd_interval


def affine_plus_one():
    return FreeFn(
        name="xplus1",
        arity=1,
        evaluator=lambda xs: xs[0] + np.eye(xs[0].shape[-1]),
    )


def double_fn():
    return FreeFn(name="2x", arity=1, evaluator=lambda xs: 2 * xs[0])


def nan_above_trace(limit):
    """The identity, except NaN wherever tr X > limit."""

    def ev(xs):
        tr = np.trace(xs[0], axis1=-2, axis2=-1).real
        return np.where((tr > limit)[..., None, None], np.nan, xs[0])

    return FreeFn(name="nan-above-trace", arity=1, evaluator=ev)


def stalls():
    """Raises the typed NoConvergence on every evaluation."""

    def ev(xs):
        raise errors.NoConvergence("fixed point stalled")

    return FreeFn(name="stalls", arity=1, evaluator=ev)


TESTERS = ("monotone", "concave", "derivative", "doubling", "hypograph", "chain")


def run_tester(name, fn, n, trials, seed):
    """One call of the named tester; the chain is three seeded steps of 0.5 I."""
    if name == "chain":
        a = rand_spd_interval(np.random.default_rng(seed), n, 0.5, 1.5)
        return chain_semicontinuity_test(fn, [(a + s * np.eye(n),) for s in (0.0, 0.5, 1.0)])
    if name == "doubling":
        return doubling_concavity_check(fn, n=n, trials=trials, seed=seed)
    if name == "hypograph":
        return hypograph_convexity_test(fn, n=n, m=n - 1, trials=trials, seed=seed)
    tester = {"monotone": monotone_test, "concave": concave_test, "derivative": derivative_monotone_test}
    return tester[name](fn, n=n, trials=trials, seed=seed)


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
        assert calls == {"eigh": [], "qr": [], "eigvalsh": [(512, 1, 4, 4)]}

    def test_the_stencil_is_kept_for_undeclared_functions(self, count_calls):
        # the same lift without its declaration evaluates X +- h H, X +- h/2 H
        from dataclasses import replace

        rows = count_calls(np.linalg, "eigh")
        rep = derivative_monotone_test(replace(lift_scalar("sqrt"), scalar=None), n=3, trials=300, seed=1)
        assert rep.passed and rows == [(1024, 3, 3), (176, 3, 3)]


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


class TestLipschitz:
    def test_identity_quotient_one(self):
        center = (np.eye(3),)
        rep = lipschitz_estimate(lift_scalar("identity"), center, radius=0.1, samples=100, seed=16)
        assert abs(rep.quotient - 1.0) <= 1e-8

    def test_doubling_map_quotient_two(self):
        center = (np.eye(3),)
        rep = lipschitz_estimate(double_fn(), center, radius=0.1, samples=100, seed=17)
        assert abs(rep.quotient - 2.0) <= 1e-8

    def test_sqrt_below_bound(self):
        center = (np.eye(4),)
        rep = lipschitz_estimate(lift_scalar("sqrt"), center, radius=0.1, samples=150, seed=18)
        assert rep.quotient <= rep.bound_2m_over_r


class TestChain:
    def test_constant_chain(self):
        a = (np.eye(3),)
        rep = chain_semicontinuity_test(lift_scalar("sqrt"), [a, a, a])
        assert rep.passed and abs(rep.worst_margin) <= 1e-12

    def test_shifted_chain_monotone(self):
        rng = np.random.default_rng(19)
        from opmono.sampling import rand_spd_interval

        a = rand_spd_interval(rng, 3, 0.5, 1.5)
        chain = [(a,), (a + 0.01 * np.eye(3),), (a + 0.02 * np.eye(3),)]
        rep = chain_semicontinuity_test(lift_scalar("sqrt"), chain)
        assert rep.passed

    def test_not_increasing_rejected(self):
        with pytest.raises(errors.ChainNotIncreasing):
            chain_semicontinuity_test(
                lift_scalar("sqrt"), [(2 * np.eye(2),), (np.eye(2),)]
            )

    def test_xsq_crafted_failure(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]]) + 0.01 * np.eye(2)
        b = np.array([[2.0, 1.0], [1.0, 1.0]]) + 0.01 * np.eye(2)
        rep = chain_semicontinuity_test(lift_scalar("xsq"), [(a,), (b,)])
        assert rep.verdict == "counterexample"


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


class TestScan:
    @pytest.mark.parametrize("bad", [(), (37, 120, 300)])
    def test_reference_first_violation_and_worst_margin(self, bad):
        # the same seeded pairs the tester draws, all trials in one draw; F lowers
        # B by (1 + t/100) I on the listed pairs only, so monotonicity fails there and nowhere else
        n, trials, seed = 3, 400, 23
        a, b = finish_pair(*draw(np.random.default_rng(seed), trials, pair_plan(n, 0.5, 2.0)), 2.0)
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
        # sqrt checks positivity from its own eigh, so the only call is the
        # one scan of the (512, 4, 3, 3) stack
        assert shapes == [(512, 4, 3, 3)]
        shapes.clear()
        assert hypograph_convexity_test(fn, n=3, m=2, trials=512, seed=0).passed
        # one scan call per matrix size
        assert shapes == [(512, 1, 2, 2), (512, 1, 3, 3)]

    @pytest.mark.parametrize("tester", TESTERS)
    def test_non_finite_values_are_inconclusive(self, tester):
        rep = run_tester(tester, nan_above_trace(4.0), n=3, trials=200, seed=0)
        assert rep.verdict == "inconclusive" and rep.trials_run == 0
        assert "non-finite" in rep.details["error"]

    @pytest.mark.parametrize("tester", TESTERS)
    def test_typed_evaluator_error_is_inconclusive(self, tester):
        rep = run_tester(tester, stalls(), n=3, trials=20, seed=0)
        assert rep.verdict == "inconclusive" and rep.trials_run == 0
        assert rep.details["error"] == "fixed point stalled"
