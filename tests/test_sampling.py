"""The draw primitive and the stacked samplers against per-call references, and calls per tester.

The reference functions below draw and factor one matrix at a time, with
the generator's own ``normal`` and ``uniform`` calls.  The samplers of
single objects and tuples must consume the generator as they do and return
the same bits.  ``draw`` must make one generator call per distinct plan
entry, in the order of first appearance, and the stacked finishes must
give the bits of the per-matrix references on the values it draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmono import cert, represent, sampling
from opmono.cert import (concave_test, derivative_monotone_test, doubling_concavity_check, hypograph_convexity_test,
                         monotone_test, nc_axiom_check)
from opmono.errors import BadConfig
from opmono.freefun import resolve_function
from opmono.matcore import dagger, fro_norm, herm_part
from opmono.represent import support_pencil


def ref_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# each ref_*_of factors one matrix from its drawn values; each ref_* draws them first


def ref_psd_of(g):
    out = g @ dagger(g)
    return out / g.shape[-1]


def ref_psd(rng, n):
    return ref_psd_of(ref_complex(rng, n, n))


def ref_unitary_of(g):
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_unitary(rng, n):
    return ref_unitary_of(ref_complex(rng, n, n))


def ref_isometry_of(g):
    q, _ = np.linalg.qr(g)
    return q


def ref_spd_of(g, lam):
    u = ref_unitary_of(g)
    return herm_part((u * lam) @ dagger(u))


def ref_spd_interval(rng, n, c1, c2):
    g = ref_complex(rng, n, n)
    return ref_spd_of(g, rng.uniform(c1, c2, size=n))


def ref_bumped(a, lam, bump, w, c2):
    """B = Herm(A + s P), s scaling lambda_max(P) to w (c2 - max lam), lam the drawn spectrum of A."""
    top = float(np.linalg.eigvalsh(bump)[-1])
    if top > 0:
        bump = bump * (w * (c2 - float(np.max(lam))) / top)
    return herm_part(a + bump)


def ref_frame_member(g, lam):
    """A frame member: diag(lam) for the first (no Gaussian, g None), else U diag(lam) U* from g."""
    return np.diag(lam).astype(complex) if g is None else ref_spd_of(g, lam)


def ref_complex_parts(rng, *shape):
    """Complex Gaussians from one ``normal`` call of their (..., 2, n, m) real and imaginary parts."""
    z = rng.normal(size=(*shape[:-2], 2, *shape[-2:]))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def ref_ordered_pairs(rng, k, n, c1, c2):
    """One round of ``pair_plan``: k spectra, k - 1 Gaussians, k bumps and k scales, one call each."""
    lam = rng.uniform(c1, c1 + 0.6 * (c2 - c1), size=(k, n))
    g = [None, *ref_complex_parts(rng, k - 1, n, n)]
    bumps, w = ref_complex_parts(rng, k, n, n), rng.uniform(0.05, 0.95, size=k)
    a = tuple(ref_frame_member(gi, li) for gi, li in zip(g, lam))
    return a, tuple(ref_bumped(ai, li, ref_psd_of(hi), wi, c2) for ai, li, hi, wi in zip(a, lam, bumps, w))


def same(x, y):
    """Bit-identical arrays (or nested tuples of arrays) of one shape."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(same(xi, yi) for xi, yi in zip(x, y))
    return x.shape == y.shape and x.tobytes() == y.tobytes()


SIZES = range(1, 9)
ARITIES = (1, 2, 3)
INTERVAL = (0.5, 2.0)


class TestSameStream:
    """The samplers against the reference, then one more draw to check the stream position."""

    @pytest.mark.parametrize("n", SIZES)
    def test_per_matrix_samplers(self, n):
        for seed in range(5):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same(sampling.rand_complex(r1, n, n), ref_complex(r2, n, n))
            assert same(sampling.rand_psd(r1, n), ref_psd(r2, n))
            assert same(sampling.rand_unitary(r1, n), ref_unitary(r2, n))
            assert same(sampling.rand_spd_interval(r1, n, *INTERVAL), ref_spd_interval(r2, n, *INTERVAL))
            assert r1.normal() == r2.normal()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", ARITIES)
    def test_tuples_and_pairs(self, n, k):
        for seed in range(5):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = tuple(ref_spd_interval(r2, n, *INTERVAL) for _ in range(k))
            assert same(sampling.rand_tuple_interval(r1, k, n, *INTERVAL), ref)
            u, lam, (h, w) = sampling.finish_frame(k, sampling.draw(r1, 1, sampling.pair_plan(n, *INTERVAL, k)))
            a, b = sampling.pair_above(sampling.from_frame(u, lam), lam, h, w, INTERVAL[1])
            assert same((tuple(a), tuple(b)), ref_ordered_pairs(r2, k, n, *INTERVAL))
            assert r1.normal() == r2.normal()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", ARITIES)
    def test_stacked_finish_equals_per_matrix_loop(self, n, k):
        # one draw of a plan mixing the testers' entries, a scalar among them,
        # then one finish per kind over the whole stack; the reference draws
        # the same values with the generator's own calls and factors each matrix
        trials, m = 40, max(n - 1, 1)
        r1, r2 = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
        plan = (sampling.spd_plan(n, *INTERVAL) * k + sampling.pair_plan(n, *INTERVAL, k)
                + [sampling.uniform(0.05, 0.95), sampling.normal(2, n, m), sampling.normal(2, n, n)])
        z, lam, *frame = sampling.draw(r1, trials, plan)
        u, plam, (h, w, mix, iso, psd) = sampling.finish_frame(k, frame)
        x = sampling.slots(sampling.finish_spd(z, lam), k)
        pairs = sampling.pair_above(sampling.from_frame(u, plam), plam, h, w, INTERVAL[1])
        a, b = (sampling.slots(s, k) for s in pairs)
        v = sampling.finish_isometry(iso)
        p = sampling.finish_psd(psd)
        rz, rlam, rplam, *rpz, rh, rw, rmix, riso, rpsd = (
            s[..., 0, :, :] + 1j * s[..., 1, :, :] if s.ndim == 4 else s  # Gaussian parts as complex
            for s in ref_draw(r2, trials, as_calls(plan)))
        rpz = [None if i == 0 else rpz[0][t * (k - 1) + i - 1] for t in range(trials) for i in range(k)]
        for t in range(trials):
            for i, j in enumerate(range(t * k, (t + 1) * k)):
                assert same(x[i][t], ref_spd_of(rz[j], rlam[j]))
                ra = ref_frame_member(rpz[j], rplam[j])
                assert same(a[i][t], ra)
                assert same(b[i][t], ref_bumped(ra, rplam[j], ref_psd_of(rh[j]), rw[j], INTERVAL[1]))
            assert mix[t] == rmix[t]
            assert same(v[t], ref_isometry_of(riso[t]))
            assert same(p[t], ref_psd_of(rpsd[t]))
        assert all(xi.flags.c_contiguous for xi in x + a + b)
        assert r1.normal() == r2.normal()

    def test_zero_bump_is_left_unscaled(self):
        z, lam = sampling.draw(np.random.default_rng(0), 1, sampling.spd_plan(3, *INTERVAL))
        a, b = sampling.pair_above(sampling.finish_spd(z, lam)[0], lam[0], np.zeros((2, 3, 3)), 0.5, 2.0)
        assert same(a, b)


class TestFrame:
    """A frame's first member per round is diag(lam), the others Haar-rotated; the spectra come first."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", ARITIES)
    def test_first_member_is_diagonal_and_the_others_rotated(self, n, k):
        rounds = 30
        r1, r2 = np.random.default_rng(200 + n), np.random.default_rng(200 + n)
        u, lam, rest = sampling.finish_frame(k, sampling.draw(r1, rounds, sampling.frame_plan(n, *INTERVAL, k)))
        x = sampling.from_frame(u, lam).reshape(rounds, k, n, n)
        assert rest == () and u.shape == (rounds * (k - 1), n, n) and lam.shape == (rounds * k, n)
        lam = lam.reshape(rounds, k, n)
        assert same(x[:, 0], np.stack([np.diag(li).astype(complex) for li in lam[:, 0]]))
        assert np.max(fro_norm(dagger(u) @ u - np.eye(n)), initial=0.0) <= 1e-14
        assert same(x[:, 1:].reshape(-1, n, n), sampling.from_spectrum(u, lam[:, 1:].reshape(-1, n)))
        # the stream: every spectrum in one call, then every Gaussian of the other members in one call,
        # none for k = 1
        ref_lam = r2.uniform(*INTERVAL, size=(rounds * k, n))
        ref_u = np.stack([ref_unitary_of(g) for g in ref_complex_parts(r2, rounds * (k - 1), n, n)]) if k > 1 else u
        assert same(lam.reshape(-1, n), ref_lam) and same(u, ref_u)
        assert r1.normal() == r2.normal()

    def test_values_on_the_spectra_share_the_frame(self):
        # from_frame(u, f(lam)) is F at the members of a lift's frame, the first one diag(f(lam))
        n, k = 3, 2
        plan = sampling.frame_plan(n, *INTERVAL, k)
        u, lam, _ = sampling.finish_frame(k, sampling.draw(np.random.default_rng(1), 8, plan))
        x, fx = sampling.from_frame(u, lam), sampling.from_frame(u, np.sqrt(lam))
        assert np.max(fro_norm(fx @ fx - x)) <= 1e-14


def ref_draw(rng, rounds, calls):
    """One call per key: ``calls`` holds a round's (key, method, args, shape); a key in it c times gives
    one ``(rounds * c, *shape)`` call, the keys in first-seen order."""
    keys = {}
    for key, method, args, shape in calls:
        keys.setdefault(key, [method, args, shape, 0])[3] += 1
    return tuple(getattr(rng, method)(*args, size=(rounds * c, *shape)) for method, args, shape, c in keys.values())


def as_calls(plan):
    """A plan as the generator calls it stands for: uniform's hi is lo + scale, which must give back scale."""
    calls = []
    for d in plan:
        if d.uniform:
            assert (d.lo + d.scale) - d.lo == d.scale
            calls.append((d, "uniform", (d.lo, d.lo + d.scale), d.shape))
        else:
            calls.append((d, "normal", (0.0, d.scale), d.shape))
    return calls


def library_plans(monkeypatch):
    """Every (rounds, plan) the library draws, recorded while each sampling caller runs once."""
    seen = []
    real = sampling.draw

    def recording(rng, rounds, plan):
        seen.append((rounds, list(plan)))
        return real(rng, rounds, plan)

    for module in (sampling, cert, represent):
        monkeypatch.setattr(module, "draw", recording)

    def drawing(call, *args, **kwargs):
        before = len(seen)
        call(*args, **kwargs)
        assert len(seen) > before, call.__name__

    rng = np.random.default_rng(0)
    for fn in (resolve_function("sqrt"), resolve_function("geomean2")):
        x = sampling.rand_tuple_interval(rng, fn.arity, 2, 0.6, 1.8)
        drawing(monotone_test, fn, 2, trials=3)
        drawing(concave_test, fn, 2, trials=3)
        drawing(derivative_monotone_test, fn, 2, trials=3)
        drawing(doubling_concavity_check, fn, 2, trials=2)
        drawing(hypograph_convexity_test, fn, 3, m=2, trials=3)
        drawing(nc_axiom_check, fn, 2, trials=3)
        drawing(support_pencil, fn, x, np.eye(2)[0], (0.5, 2.0), validation_samples=4)
    for sampler in (sampling.rand_complex, sampling.rand_herm, sampling.rand_psd, sampling.rand_unitary,
                    sampling.rand_unit_vector):
        drawing(sampler, rng, 2)
    drawing(sampling.rand_spd_interval, rng, 2, 0.5, 2.0)
    monkeypatch.undo()
    return seen


class Counting:
    """A generator that counts the calls ``draw`` makes of it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)

    def standard_normal(self, size):
        self.calls += 1
        return self.rng.standard_normal(size)


class TestDraw:
    """``draw`` against one call of the generator's own ``normal`` or ``uniform`` per entry."""

    def test_every_library_plan_equals_one_generator_call_per_entry(self, monkeypatch):
        for rounds, plan in library_plans(monkeypatch):
            r1, r2 = np.random.default_rng(rounds), np.random.default_rng(rounds)
            assert same(sampling.draw(r1, rounds, plan), ref_draw(r2, rounds, as_calls(plan)))
            assert r1.random() == r2.random()

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(  # (method, lo, width, shape) per entry; a normal entry reads only its shape
            st.tuples(st.sampled_from(["normal", "uniform"]), st.floats(-10, 10), st.floats(0, 10),
                      st.lists(st.integers(1, 3), max_size=3).map(tuple)),
            min_size=1, max_size=4,
        ),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
        rounds=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_plans_equal_one_generator_call_per_entry(self, pool, picks, rounds, seed):
        entries = []
        for method, lo, width, shape in pool:
            if method == "normal":
                entries.append((sampling.normal(*shape), method, (0.0, 1.0), shape))
            else:
                entries.append((sampling.uniform(lo, lo + width, *shape), method, (lo, lo + width), shape))
        calls = [entries[i % len(entries)] for i in picks]
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same(sampling.draw(r1, rounds, [d for d, *_ in calls]), ref_draw(r2, rounds, calls))
        assert r1.random() == r2.random()

    # the library's intervals: the default, the pair's and the derivative's
    # sub-intervals of it, the mixing weights and the unit interval
    @pytest.mark.parametrize("lo,hi", [(0.5, 2.0), (0.5, 0.5 + 0.6 * 1.5), (0.5 + 0.15 * 1.5, 2.0 - 0.15 * 1.5),
                                       (0.05, 0.95), (0.0, 1.0)])
    def test_uniform_is_lo_plus_range_times_random(self, lo, hi):
        # a numpy build that fused this multiply-add would move every seeded report
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        assert same(r1.uniform(lo, hi, size=10_000), lo + (hi - lo) * r2.random(10_000))
        assert r1.uniform(lo, hi) == lo + (hi - lo) * r2.random()

    @pytest.mark.parametrize("scale", [0.3, 0.4, 1.0])
    def test_normal_is_zero_plus_scale_times_standard_normal(self, scale):
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        assert same(r1.normal(0.0, scale, size=10_000), 0.0 + scale * r2.standard_normal(10_000))
        assert r1.normal(0.0, scale) == 0.0 + scale * r2.standard_normal()

    def test_normal_map_clears_negative_zero(self):
        class Zeros:
            def standard_normal(self, size):
                return np.full(size, -0.0)

        (z,) = sampling.draw(Zeros(), 2, [sampling.normal(3)])
        assert z.shape == (2, 3) and not np.signbit(z).any()

    @pytest.mark.parametrize("rounds", [1, 7, 512])
    def test_one_generator_call_per_distinct_entry(self, rounds):
        n, rng = 3, Counting(np.random.default_rng(0))
        plan = sampling.spd_plan(n, *INTERVAL) * 4 + sampling.pair_plan(n, *INTERVAL, 2) + [sampling.uniform(0, 1)]
        sampling.draw(rng, rounds, plan)
        assert rng.calls == len(set(plan)) == 7

    def test_a_tester_draws_all_its_trials_at_once(self, monkeypatch):
        made, real = [], np.random.default_rng

        def counting(seed):
            made.append(Counting(real(seed)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", counting)
        concave_test(resolve_function("sqrt"), n=3, trials=512, seed=0)
        # the Gaussians and spectra of A and B, then the mixing weights
        assert [rng.calls for rng in made] == [3]

    def test_scalar_entries_come_back_flat(self):
        s, v = sampling.draw(np.random.default_rng(0), 4, [sampling.normal(), sampling.uniform(0, 1, 2)])
        assert s.shape == (4,) and v.shape == (4, 2)

    @pytest.mark.parametrize("make", [
        lambda: sampling.uniform(2.0, 0.5), lambda: sampling.uniform(0.5, np.inf), lambda: sampling.uniform(0.5, np.nan),
        lambda: sampling.normal(2, 0),
    ], ids=["reversed", "infinite", "nan", "zero-dimension"])
    def test_bad_entry_is_bad_config(self, make):
        with pytest.raises(BadConfig):
            make()

    def test_no_rounds_is_bad_config(self):
        with pytest.raises(BadConfig):
            sampling.draw(np.random.default_rng(0), 0, [sampling.normal(2)])

    @pytest.mark.parametrize("call", [
        lambda rng: sampling.rand_tuple_interval(rng, 0, 2, *INTERVAL),
    ], ids=["empty-tuple"])
    def test_nothing_to_draw_is_bad_config(self, call):
        with pytest.raises(BadConfig):
            call(np.random.default_rng(0))


BAD_INTERVALS = [(2.0, 0.5), (0.5, np.inf), (0.5, np.nan)]


class TestBadSamplingParameters:
    """Out-of-range sampling parameters reach the caller as BadConfig, before any draw."""

    @pytest.mark.parametrize("interval", BAD_INTERVALS, ids=["reversed", "infinite", "nan"])
    @pytest.mark.parametrize("call", [
        lambda fn, iv: monotone_test(fn, 2, trials=4, interval=iv),
        lambda fn, iv: concave_test(fn, 2, trials=4, interval=iv),
        lambda fn, iv: sampling.rand_spd_interval(np.random.default_rng(0), 2, *iv),
        lambda fn, iv: nc_axiom_check(fn, 2, trials=4, interval=iv),
    ], ids=["monotone", "concave", "rand_spd_interval", "nc_axiom_check"])
    def test_interval(self, call, interval):
        with pytest.raises(BadConfig):
            call(resolve_function("sqrt"), interval)


class TestGenerator:
    """``sampling.generator``, the one place a seed becomes a generator."""

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**40])
    def test_a_valid_seed_gives_numpys_generator(self, seed):
        assert same(sampling.generator(seed).random(8), np.random.default_rng(seed).random(8))

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), 1.5, "1", None, True])
    def test_any_other_seed_is_bad_config(self, seed):
        with pytest.raises(BadConfig, match="seed must be a non-negative integer"):
            sampling.generator(seed)

    @pytest.mark.parametrize("call", [
        lambda fn: monotone_test(fn, 2, trials=4, seed=-1),
        lambda fn: concave_test(fn, 2, trials=4, seed=-1),
        lambda fn: derivative_monotone_test(fn, 2, trials=4, seed=-1),
        lambda fn: doubling_concavity_check(fn, 2, trials=4, seed=-1),
        lambda fn: hypograph_convexity_test(fn, 2, 1, trials=4, seed=-1),
        lambda fn: nc_axiom_check(fn, 2, trials=4, seed=-1),
    ], ids=["monotone", "concave", "derivative", "doubling", "hypograph", "nc_axiom_check"])
    def test_every_tester_refuses_a_negative_seed(self, call):
        # numpy's own ValueError used to reach the caller
        with pytest.raises(BadConfig, match="seed must be a non-negative integer"):
            call(resolve_function("sqrt"))


class TestQrCallsPerTester:
    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        return calls

    @pytest.mark.parametrize("name", ["sqrt", "geomean2"])
    def test_concave_and_monotone_factor_once(self, qr_calls, name):
        # a trial of m drawn matrices takes m - 1 unitaries, its first matrix being diag(lam),
        # so a lift's monotone trial takes none
        fn = resolve_function(name)
        concave_test(fn, n=3, trials=50, seed=1)
        assert qr_calls == [((2 * fn.arity - 1) * 50, 3, 3)]
        qr_calls.clear()
        monotone_test(fn, n=3, trials=50, seed=1)
        assert qr_calls == ([] if fn.arity == 1 else [((fn.arity - 1) * 50, 3, 3)])

    def test_hypograph_factors_twice(self, qr_calls):
        # the frame's unitaries, then the isometries V : C^m -> C^2n
        fn = resolve_function("geomean2")
        hypograph_convexity_test(fn, n=3, m=2, trials=50, seed=1)
        assert qr_calls == [((2 * 2 - 1) * 50, 3, 3), (50, 6, 2)]

    def test_hypograph_rejects_large_m_before_drawing(self, qr_calls):
        with pytest.raises(BadConfig):
            hypograph_convexity_test(resolve_function("sqrt"), n=2, m=3, trials=5)
        assert qr_calls == []
