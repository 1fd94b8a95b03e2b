"""Stacked samplers against a per-matrix reference, and qr calls per tester.

The reference functions below draw and factor one matrix at a time, in the
way the samplers did before their linear algebra was stacked.  Every
stacked sampler must consume the generator identically and return the same
bits, so seeded reports replay unchanged.
"""

import numpy as np
import pytest

from opmono import sampling
from opmono.cert import concave_test, hypograph_convexity_test, monotone_test
from opmono.errors import BadConfig
from opmono.freefun import resolve_function
from opmono.matcore import dagger, herm_part


def ref_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def ref_psd(rng, n, scale=1.0):
    g = ref_complex(rng, n, n)
    out = g @ dagger(g)
    return scale * out / n


def ref_unitary(rng, n):
    q, r = np.linalg.qr(ref_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_isometry(rng, n, m):
    q, _ = np.linalg.qr(ref_complex(rng, n, m))
    return q


def ref_spd_interval(rng, n, c1, c2):
    u = ref_unitary(rng, n)
    lam = rng.uniform(c1, c2, size=n)
    return herm_part((u * lam) @ dagger(u))


def ref_ordered_pair(rng, k, n, c1, c2):
    a, b = [], []
    for _ in range(k):
        ai = ref_spd_interval(rng, n, c1, c1 + 0.6 * (c2 - c1))
        head = c2 - float(np.linalg.eigvalsh(ai)[-1])
        bump = ref_psd(rng, n)
        top = float(np.linalg.eigvalsh(bump)[-1])
        if top > 0:
            bump = bump * (rng.uniform(0.05, 0.95) * head / top)
        a.append(ai)
        b.append(herm_part(ai + bump))
    return tuple(a), tuple(b)


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
            assert same(sampling.rand_psd(r1, n, 0.7), ref_psd(r2, n, 0.7))
            assert same(sampling.rand_unitary(r1, n), ref_unitary(r2, n))
            for m in range(1, n + 1):
                assert same(sampling.rand_isometry(r1, n, m), ref_isometry(r2, n, m))
            assert same(sampling.rand_spd_interval(r1, n, *INTERVAL), ref_spd_interval(r2, n, *INTERVAL))
            assert r1.normal() == r2.normal()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", ARITIES)
    def test_tuples_and_pairs(self, n, k):
        for seed in range(5):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = tuple(ref_spd_interval(r2, n, *INTERVAL) for _ in range(k))
            assert same(sampling.rand_tuple_interval(r1, k, n, *INTERVAL), ref)
            pair = sampling.ordered_pair_interval(r1, k, n, *INTERVAL)
            assert same(pair, ref_ordered_pair(r2, k, n, *INTERVAL))
            assert r1.normal() == r2.normal()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("k", ARITIES)
    def test_stacked_finish_equals_per_matrix_loop(self, n, k):
        # draws interleaved with a scalar, as the testers make them, then one
        # finish per kind over the whole stack; the reference factors each matrix
        trials = 40
        r1, r2 = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
        spd, pairs, psd, iso, mix = [], [], [], [], []
        for _ in range(trials):
            spd += [sampling.draw_spd(r1, n, *INTERVAL) for _ in range(k)]
            pairs += [sampling.draw_pair(r1, n, *INTERVAL) for _ in range(k)]
            mix.append(r1.uniform(0.05, 0.95))
            iso.append(sampling.draw_gaussian(r1, n, max(n - 1, 1)))
            psd.append(sampling.draw_gaussian(r1, n, n))
        x = sampling.slots(sampling.finish_spd(*sampling.stack_draws(spd)), k)
        a, b = (sampling.slots(s, k) for s in sampling.finish_pair(*sampling.stack_draws(pairs), INTERVAL[1]))
        v = sampling.finish_isometry(np.array(iso))
        p = sampling.finish_psd(np.array(psd))
        for t in range(trials):
            assert same(tuple(xi[t] for xi in x), tuple(ref_spd_interval(r2, n, *INTERVAL) for _ in range(k)))
            ra, rb = ref_ordered_pair(r2, k, n, *INTERVAL)
            assert same(tuple(ai[t] for ai in a), ra) and same(tuple(bi[t] for bi in b), rb)
            assert mix[t] == r2.uniform(0.05, 0.95)
            assert same(v[t], ref_isometry(r2, n, max(n - 1, 1)))
            assert same(p[t], ref_psd(r2, n))
        assert all(xi.flags.c_contiguous for xi in x + a + b)

    def test_zero_bump_is_left_unscaled(self):
        z, lam = sampling.draw_spd(np.random.default_rng(0), 3, *INTERVAL)
        a, b = sampling.finish_pair(z, lam, np.zeros((2, 3, 3)), 0.5, 2.0)
        assert same(a, b)

    @pytest.mark.parametrize("m", [0, 4])
    def test_bad_isometry_dimension_is_bad_config(self, m):
        with pytest.raises(BadConfig):
            sampling.rand_isometry(np.random.default_rng(0), 3, m)


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
        fn = resolve_function(name)
        concave_test(fn, n=3, trials=50, seed=1)
        assert qr_calls == [(2 * fn.arity * 50, 3, 3)]
        qr_calls.clear()
        monotone_test(fn, n=3, trials=50, seed=1)
        assert qr_calls == [(fn.arity * 50, 3, 3)]

    def test_hypograph_factors_twice(self, qr_calls):
        fn = resolve_function("geomean2")
        hypograph_convexity_test(fn, n=3, m=2, trials=50, seed=1)
        assert qr_calls == [(2 * 2 * 50, 3, 3), (50, 3, 2)]

    def test_hypograph_rejects_large_m_before_drawing(self, qr_calls):
        with pytest.raises(BadConfig):
            hypograph_convexity_test(resolve_function("sqrt"), n=2, m=3, trials=5)
        assert qr_calls == []
