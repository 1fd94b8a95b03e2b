"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opmono import errors
from opmono import serialize as io
from opmono.cert import (
    concave_test,
    derivative_monotone_test,
    doubling_concavity_check,
    hypograph_convexity_test,
    monotone_test,
)
from opmono.cli import main as cli_main
from opmono.freefun import (
    MobiusMap,
    arithmetic_mean,
    fake_trace_fn,
    geometric_mean_2_fn,
    harmonic_mean,
    karcher_mean,
    karcher_mean_fn,
    lift_scalar,
    mobius_fn,
    power_mean_fn,
)
from opmono.matcore import (
    fro_norm,
    funcalc,
    herm_part,
    im_part,
    min_eig,
)
from opmono.represent import (
    direct_sum_rep,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    reconstruct,
    support_pencil,
)
from opmono.sampling import (
    rand_herm,
    rand_psd,
    rand_tuple_interval,
    rand_unit_vector,
)
from opmono.schur import PivotSubspace, schur_generic, sector_bound_check, shorted_psd

ROOT = Path(__file__).resolve().parent.parent


def announce(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def rand_pivot(rng, n):
    m = int(rng.integers(1, n))
    q, _ = np.linalg.qr(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
    return PivotSubspace(q)


# the monotone catalogue exercised by criteria 5 and 7: (function, n, k)
PASS_CATALOGUE = [
    (lift_scalar("sqrt"), 4),
    (lift_scalar("log1p"), 4),
    (lift_scalar("pow", 0.7), 4),
    (harmonic_mean((0.5, 0.5)), 3),
    (geometric_mean_2_fn(), 3),
    (power_mean_fn(0.25, (0.5, 0.5)), 3),
    (power_mean_fn(0.5, (0.5, 0.5)), 3),
    (power_mean_fn(1.0, (0.5, 0.5)), 3),
    (karcher_mean_fn((0.5, 0.5)), 3),
]


def test_criterion_01_schur_order_properties():
    # 500 random PSD pairs A <= B, sizes 4..10, random pivots: monotonicity
    # and concavity of the shorted operator within -1e-8 (1 + ||B||)
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(4, 11))
        s = rand_pivot(rng, n)
        a = rand_psd(rng, n)
        b = herm_part(a + rand_psd(rng, n))
        gate = -1e-8 * (1 + fro_norm(b))
        sa = shorted_psd(a, s).shorted
        sb = shorted_psd(b, s).shorted
        if min_eig(sb - sa) < gate:
            failures += 1
            continue
        for lam in (0.25, 0.5, 0.75):
            mix = shorted_psd(herm_part((1 - lam) * a + lam * b), s).shorted
            if min_eig(mix - ((1 - lam) * sa + lam * sb)) < gate:
                failures += 1
                break
    announce(1, failures == 0, f"shorted-operator order/concavity, 500 pairs ({failures} failures)")


def test_criterion_02_shorted_maximality():
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        s = rand_pivot(rng, n)
        a = rand_psd(rng, n)
        res = shorted_psd(a, s)
        if min_eig(a - s.embed(res.shorted)) < -1e-8 * (1 + fro_norm(a)):
            failures += 1
            continue
        m = s.dim
        # 50 feasible Y at once: scale random Hermitian directions to the
        # feasibility boundary by bisection on iota(t Y) <= A
        ys = np.stack([rand_herm(rng, m) for _ in range(50)])
        lo = np.zeros(50)
        hi = np.ones(50)
        emb = np.stack([s.embed(ys[i]) for i in range(50)])
        for _ in range(30):  # grow upper bounds
            lam = np.linalg.eigvalsh(a[None] - hi[:, None, None] * emb)[:, 0]
            grown = (lam >= 0) & (hi < 2**24)
            if not grown.any():
                break
            hi[grown] *= 2
        for _ in range(50):  # bisect
            mid = (lo + hi) / 2
            lam = np.linalg.eigvalsh(a[None] - mid[:, None, None] * emb)[:, 0]
            ok = lam >= 0
            lo[ok] = mid[ok]
            hi[~ok] = mid[~ok]
        feas = lo[:, None, None] * ys
        lam = np.linalg.eigvalsh(res.shorted[None] - feas)[:, 0]
        if lam.min() < -1e-8 * (1 + fro_norm(a)):
            failures += 1
    announce(2, failures == 0, f"shorted-operator maximality, 200 matrices x 50 directions ({failures} failures)")


def test_criterion_03_sector_bound():
    rng = np.random.default_rng(103)
    failures = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        r = rand_psd(rng, n) + 0.3 * np.eye(n)
        sk = rand_herm(rng, n)
        alpha_t = rng.uniform(0.05, np.deg2rad(75))
        lam_min = float(np.linalg.eigvalsh(r)[0])
        sk = sk / np.linalg.norm(sk, 2) * np.tan(alpha_t) * lam_min * 0.95
        a = r + 1j * sk
        s = rand_pivot(rng, n)
        rep = sector_bound_check(a, s)
        sec2 = 1.0 / np.cos(rep.alpha) ** 2
        ok = all(x <= y * (1 + 1e-8) for x, y in rep.singular_value_pairs)
        ok = ok and rep.norm_pair[0] <= rep.norm_pair[1] * (1 + 1e-8)
        if not ok:
            failures += 1
    announce(3, failures == 0, f"sec^2(alpha) singular-value and norm bounds, 500 sectorial matrices ({failures} failures)")


def test_criterion_04_half_plane_preservation():
    rng = np.random.default_rng(104)
    failures = 0
    count = 0
    while count < 500:
        n = int(rng.integers(3, 9))
        a = rand_herm(rng, n) + 1j * (rand_psd(rng, n))
        s = rand_pivot(rng, n)
        try:
            comp = schur_generic(a, s, keep="perp")
        except errors.EliminatedBlockDefective:
            continue
        count += 1
        if min_eig(im_part(comp)) < -1e-8 * (1 + fro_norm(a)):
            failures += 1
    announce(4, failures == 0, f"half-plane preservation of the Schur complement, 500 matrices ({failures} failures)")


def test_criterion_05_certification_correctness():
    verdict_trouble = []
    for fn, n in PASS_CATALOGUE:
        reps = [
            monotone_test(fn, n=n, trials=1000, seed=105),
            concave_test(fn, n=n, trials=1000, seed=106),
            derivative_monotone_test(fn, n=n, trials=1000, seed=107),
            hypograph_convexity_test(fn, n=n, m=2, trials=1000, seed=108),
        ]
        if not all(r.verdict == "pass" for r in reps):
            verdict_trouble.append((fn.name, [r.verdict for r in reps]))
        if len({r.verdict for r in reps[:3]}) != 1:
            verdict_trouble.append((fn.name, "tester disagreement"))
    for fn in (lift_scalar("xsq"), fake_trace_fn()):
        reps = [
            monotone_test(fn, n=2, trials=1000, seed=109),
            concave_test(fn, n=2, trials=1000, seed=110),
            derivative_monotone_test(fn, n=2, trials=1000, seed=111),
            hypograph_convexity_test(fn, n=2, m=2, trials=1000, seed=112),
        ]
        if not all(r.verdict == "counterexample" for r in reps):
            verdict_trouble.append((fn.name, [r.verdict for r in reps]))
    announce(
        5, not verdict_trouble,
        f"certification battery over the catalogue, 1000 trials each {verdict_trouble or ''}",
    )


def test_criterion_06_doubling_construction():
    trouble = []
    for fn in (lift_scalar("sqrt"), harmonic_mean((0.5, 0.5))):
        for n in (2, 3):
            rep = doubling_concavity_check(fn, n=n, trials=100, seed=113)
            ok = (
                rep.passed
                and rep.details["unitarity_defect"] <= 1e-12
                and rep.details["block_defect"] <= 1e-10
                and rep.worst_margin >= -1e-8
            )
            if not ok:
                trouble.append((fn.name, n, rep.verdict, rep.worst_margin))
    announce(6, not trouble, f"doubling construction for sqrt and harmonic {trouble or ''}")


def test_criterion_07_support_and_reconstruction():
    rng = np.random.default_rng(114)
    trouble = []
    for fn, n in PASS_CATALOGUE:
        n_cert = 2 if fn.name.startswith(("power", "karcher")) else n
        for trial in range(50):
            a = rand_tuple_interval(rng, fn.arity, n_cert, 0.5, 2.0)
            v = rand_unit_vector(rng, n_cert)
            try:
                cert = support_pencil(
                    fn, a, v, interval=(0.5, 2.0), validation_samples=200,
                    seed=int(rng.integers(2**31)),
                )
            except errors.OpmonoError as exc:
                trouble.append((fn.name, trial, f"cert: {type(exc).__name__}"))
                break
            rec = reconstruct(cert)
            truth = herm_part(fn(a)) @ cert.v
            ok = (
                cert.support_margin >= -1e-7
                and cert.scalar_margin >= -1e-7
                and cert.trace_slack >= -1e-8
                and cert.pencil.coeff_margin >= -1e-8 * (1 + fro_norm(cert.pencil.b0))
                and cert.pencil.dominance_margin >= -1e-8 * (1 + fro_norm(cert.pencil.b0))
                and rec.residual <= 1e-6
                and np.linalg.norm(rec.value - truth) <= 1e-6 * (1 + np.linalg.norm(truth))
            )
            if not ok:
                trouble.append(
                    (fn.name, trial, cert.support_margin, rec.residual,
                     float(np.linalg.norm(rec.value - truth)))
                )
                break
    announce(7, not trouble, f"support certificates + reconstruction, 50 points per function {trouble or ''}")


def test_criterion_08_direct_sum_representation():
    rng = np.random.default_rng(115)
    trouble = []
    for fn in (geometric_mean_2_fn(), harmonic_mean((0.5, 0.5))):
        pts = [
            (rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3))
            for _ in range(4)
        ]
        try:
            ds = direct_sum_rep(fn, pts, validation_samples=100, seed=116)
        except errors.OpmonoError as exc:
            trouble.append((fn.name, type(exc).__name__))
            continue
        if max(ds.residuals) > 1e-6:
            trouble.append((fn.name, max(ds.residuals)))
    announce(8, not trouble, f"direct-sum representations at four points {trouble or ''}")


@pytest.fixture(scope="module")
def sqrt_rep():
    return rep_from_quadrature("sqrt", nodes=64, interval=(0.1, 10.0))


def test_criterion_09_quadrature_round_trip(sqrt_rep):
    rng = np.random.default_rng(117)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = rand_tuple_interval(rng, 1, n, 0.1, 10.0)
        out = rep_eval(sqrt_rep, a)
        truth = funcalc(np.sqrt, a[0])
        worst = max(worst, np.linalg.norm(out - truth) / np.linalg.norm(truth))
    black_box = sqrt_rep.fn
    mono = monotone_test(black_box, n=3, trials=1000, seed=118, interval=(0.2, 8.0))
    conc = concave_test(black_box, n=3, trials=1000, seed=119, interval=(0.2, 8.0))
    ok = worst <= 1e-3 and mono.passed and conc.passed
    announce(
        9, ok,
        f"sqrt quadrature round-trip (worst rel err {worst:.2e}) and black-box "
        f"verdicts ({mono.verdict}/{conc.verdict})",
    )


def test_criterion_10_analytic_continuation(sqrt_rep):
    rng = np.random.default_rng(120)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        z = rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n))
        out = rep_eval_complex(sqrt_rep, (z,))
        if min_eig(im_part(out)) < -1e-8 * (1 + fro_norm(out)):
            failures += 1
    probe = rep_eval_complex(sqrt_rep, ((1 + 1j) * np.eye(2),))
    truth = np.sqrt(1 + 1j) * np.eye(2)
    branch_err = float(np.linalg.norm(probe - truth) / np.linalg.norm(truth))
    ok = failures == 0 and branch_err <= 2e-3
    announce(
        10, ok,
        f"analytic continuation into the upper half-space ({failures} failures, "
        f"principal-branch error {branch_err:.2e})",
    )


def test_criterion_11_mobius():
    g = MobiusMap(1, 0, 1, 1)  # x / (x + 1)
    fn = mobius_fn(g)
    mono = monotone_test(fn, n=4, trials=1000, seed=121)
    rng = np.random.default_rng(122)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        z = rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.05 * np.eye(n))
        from opmono.freefun import mobius_apply

        out = mobius_apply(g, z)
        if min_eig(im_part(out)) < -1e-8 * (1 + fro_norm(out)):
            failures += 1
    ok = mono.passed and failures == 0
    announce(11, ok, f"Moebius map x/(x+1): monotone {mono.verdict}, half-plane failures {failures}")


def test_criterion_12_means_sanity():
    rng = np.random.default_rng(123)
    worst_commuting = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        w = tuple(rng.dirichlet(np.ones(k)))
        diags = [rng.uniform(0.5, 2.0, size=n) for _ in range(k)]
        x = tuple(np.diag(d).astype(complex) for d in diags)
        out = karcher_mean(x, w)
        expect = np.diag(np.exp(sum(wi * np.log(d) for wi, d in zip(w, diags))))
        worst_commuting = max(worst_commuting, float(np.linalg.norm(out - expect)))
    agh_failures = 0
    for _ in range(200):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        w = tuple(rng.dirichlet(np.ones(k)))
        x = rand_tuple_interval(rng, k, n, 0.5, 2.0)
        h = harmonic_mean(w)(x)
        g = karcher_mean(x, w)
        arith = arithmetic_mean(w)(x)
        if min_eig(g - h) < -1e-8 or min_eig(arith - g) < -1e-8:
            agh_failures += 1
    ok = worst_commuting <= 1e-8 and agh_failures == 0
    announce(
        12, ok,
        f"Karcher commuting oracle (worst {worst_commuting:.2e}) and AGH ordering "
        f"({agh_failures} failures over 200 tuples)",
    )


def run_cli(*argv):
    import contextlib
    import io as stdio

    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_13_cli_contract(tmp_path):
    problems = []

    # determinism: identical seeds give byte-identical json reports
    args = ("check", "sqrt", "monotone", "--n", "3", "--trials", "100",
            "--seed", "42", "--format", "json")
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    if out1 != out2:
        problems.append("reports not byte-identical")

    # fixture round-trips are bit-exact for every kind
    rng = np.random.default_rng(124)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    fixtures = {"matrix": io.encode_matrix(m)}
    x = rand_tuple_interval(rng, 2, 3, 0.5, 2.0)
    fixtures["tuple"] = io.encode_tuple(x)
    from opmono.pencil import pencil_new

    bi = [rand_psd(rng, 2) for _ in range(2)]
    fixtures["pencil"] = io.pencil_payload(pencil_new([sum(bi) + np.eye(2)] + bi))
    cert = support_pencil(
        lift_scalar("sqrt"), (rand_tuple_interval(rng, 1, 3, 0.5, 2.0))[0:1],
        rand_unit_vector(rng, 3), validation_samples=40, seed=7,
    )
    fixtures["certificate"] = io.certificate_payload(cert)
    fixtures["representation"] = io.representation_payload(
        rep_from_quadrature("sqrt", nodes=16, interval=(0.5, 2.0))
    )
    for kind, payload in fixtures.items():
        path = tmp_path / f"{kind}.json"
        io.save(str(path), kind, payload)
        _, back = io.load(str(path), expect=kind)
        if io.dumps(back) != io.dumps(payload):
            problems.append(f"{kind} round-trip not bit-exact")

    # exit-code contract, one end-to-end check per subcommand
    tuple_path = tmp_path / "t.json"
    io.save(str(tuple_path), "tuple", io.encode_tuple((np.diag([1.0, 4.0]),)))
    pair_path = tmp_path / "pair.json"
    io.save(str(pair_path), "tuple", io.encode_tuple((4 * np.eye(2), 9 * np.eye(2))))
    mat_path = tmp_path / "m.json"
    io.save(str(mat_path), "matrix", io.encode_matrix(np.array([[2.0, 1.0], [1.0, 1.0]])))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{broken")
    rep_path = tmp_path / "rep.json"
    cert_path = tmp_path / "cert.json"
    checks = [
        (("check", "sqrt", "monotone", "--n", "3", "--trials", "50"), 0),
        (("check", "xsq", "monotone", "--n", "2", "--trials", "1000"), 2),
        (("check", "nosuchfn", "monotone"), 64),
        (("schur", str(mat_path), "--pivot", "0"), 0),
        (("schur", str(bad_path), "--pivot", "0"), 65),
        (("quadrep", "sqrt", "--nodes", "32", "--interval", "0.25,4",
          "--out", str(rep_path)), 0),
        (("repeval", str(rep_path), str(pair_path)), 1),  # arity mismatch
        (("support", "sqrt", str(tuple_path), "--interval", "0.5,5", "--samples", "40",
          "--out", str(cert_path)), 0),
        (("reconstruct", str(cert_path)), 0),
        (("mean", "geomean2", str(pair_path)), 0),
    ]
    for argv, expected in checks:
        code, _ = run_cli(*argv)
        if code != expected:
            problems.append(f"{argv[0]} gave exit {code}, expected {expected}")

    # pencil-eval end to end through a real interpreter
    pencil_path = tmp_path / "p.json"
    io.save(str(pencil_path), "pencil", fixtures["pencil"])
    xt_path = tmp_path / "x2.json"
    io.save(str(xt_path), "tuple", io.encode_tuple(x))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "opmono", "pencil-eval", str(pencil_path), str(xt_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if result.returncode != 0:
        problems.append(f"subprocess pencil-eval exit {result.returncode}")

    announce(13, not problems, f"CLI determinism, round-trips, exit codes {problems or ''}")
