import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opmono import cli
from opmono import serialize as io
from opmono.cli import main
from opmono.pencil import pencil_new
from opmono.sampling import rand_psd, rand_tuple_interval

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io as stdio

    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestCheck:
    def test_sqrt_monotone_passes(self):
        code, out = run_cli("check", "sqrt", "monotone", "--n", "4", "--trials", "200", "--seed", "7")
        assert code == 0
        assert "PASS" in out

    def test_xsq_counterexample(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, out = run_cli(
            "check", "xsq", "monotone", "--n", "2", "--trials", "1000",
            "--seed", "1", "--out", str(out_file),
        )
        assert code == 2
        kind, payload = io.load(str(out_file))
        assert payload["verdict"] == "counterexample"
        assert payload["counterexample"] is not None

    def test_unknown_function(self):
        code, _ = run_cli("check", "nosuchfn", "monotone")
        assert code == 64

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("prop", ["monotone", "concave", "hypograph", "derivative"])
    def test_xsq_is_caught_at_every_scale(self, prop, scale):
        # each floor is relative to the terms of the checked difference, so no unit hides x^2's failure
        interval = f"{0.5 * scale!r},{2.0 * scale!r}"
        code, out = run_cli("check", "xsq", prop, "--n", "2", "--trials", "512", "--seed", "0", "--interval", interval)
        assert code == 2 and "COUNTEREXAMPLE" in out

    def test_nc_axioms(self):
        code, out = run_cli("check", "harmonic", "nc-axioms", "--n", "3", "--trials", "30")
        assert code == 0

    def test_non_finite_values_exit_inconclusive(self, monkeypatch, tmp_path):
        from opmono import cli
        from opmono.freefun import FreeFn

        def ev(xs):  # the identity, NaN wherever tr X > 4
            tr = np.trace(xs[0], axis1=-2, axis2=-1).real
            return np.where((tr > 4.0)[..., None, None], np.nan, xs[0])

        monkeypatch.setattr(cli, "resolve_function", lambda ident: FreeFn("nan", 1, ev))
        out_file = tmp_path / "report.json"
        code, _ = run_cli(
            "check", "sqrt", "concave", "--n", "3", "--trials", "200", "--seed", "0",
            "--out", str(out_file),
        )
        assert code == 3
        _, payload = io.load(str(out_file))
        assert payload["verdict"] == "inconclusive"
        assert "non-finite" in payload["details"]["error"]
        code, out = run_cli("check", "sqrt", "nc-axioms", "--n", "3", "--trials", "200", "--format", "json")
        assert code == 3
        payload = json.loads(out)["payload"]
        assert payload["verdict"] == "inconclusive" and payload["property_name"] == "nc-axioms"
        assert "non-finite" in payload["details"]["error"]

    def test_typed_evaluator_error_exits_inconclusive(self, monkeypatch, tmp_path):
        from opmono import errors
        from opmono.freefun import FreeFn

        def ev(xs):
            raise errors.NoConvergence("fixed point stalled")

        monkeypatch.setattr(cli, "resolve_function", lambda ident: FreeFn("stalls", 1, ev))
        for prop in ("monotone", "doubling", "nc-axioms"):
            out_file = tmp_path / f"{prop}.json"
            code, _ = run_cli("check", "sqrt", prop, "--n", "3", "--trials", "20", "--out", str(out_file))
            assert code == 3
            _, payload = io.load(str(out_file))
            assert payload["verdict"] == "inconclusive"
            assert payload["details"]["error"] == "fixed point stalled"

    @pytest.mark.parametrize("prop", ["derivative", "doubling"])
    def test_sqrt_passes_text_and_json(self, prop):
        args = ("check", "sqrt", prop, "--n", "3", "--trials", "50", "--seed", "5")
        code, out = run_cli(*args)
        assert code == 0
        assert out.startswith(f"{prop} sqrt: PASS")
        code, out = run_cli(*args, "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["verdict"] == "pass" and payload["function"] == "sqrt"
        assert payload["property_name"] == prop and payload["trials_run"] > 0

    def test_json_determinism(self):
        args = ("check", "sqrt", "monotone", "--n", "3", "--trials", "50",
                "--seed", "11", "--format", "json")
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical reports

    @pytest.mark.parametrize("tol,eq", [("1e-6", 1e-6), ("1e-12", 1e-8)])
    def test_tol_sets_psd_alone_and_eq_follows_it(self, tol, eq):
        tols = cli._tolerances(cli.build_parser().parse_args(["check", "sqrt", "monotone", "--tol", tol]))
        assert tols.psd == float(tol) and tols.eq == eq


class TestSchur:
    def test_identity_pivot(self, tmp_path):
        path = tmp_path / "m.json"
        io.save(str(path), "matrix", io.encode_matrix(np.eye(2)))
        out_file = tmp_path / "out.json"
        code, out = run_cli("schur", str(path), "--pivot", "0", "--mode", "psd",
                            "--out", str(out_file))
        assert code == 0
        _, payload = io.load(str(out_file), expect="matrix")
        assert np.allclose(io.decode_matrix(payload), [[1.0]])

    def test_full_pivot_psd_writes_input_back(self, tmp_path):
        path = tmp_path / "m.json"
        io.save(str(path), "matrix", io.encode_matrix(np.eye(2)))
        out_file = tmp_path / "out.json"
        code, _ = run_cli("schur", str(path), "--pivot", "0,1", "--mode", "psd", "--out", str(out_file))
        assert code == 0
        _, payload = io.load(str(out_file), expect="matrix")
        assert np.array_equal(io.decode_matrix(payload), np.eye(2))

    def test_hand_example(self, tmp_path):
        path = tmp_path / "m.json"
        io.save(str(path), "matrix", io.encode_matrix(np.array([[2.0, 1.0], [1.0, 1.0]])))
        out_file = tmp_path / "s.json"
        code, _ = run_cli("schur", str(path), "--pivot", "0", "--out", str(out_file))
        assert code == 0
        _, payload = io.load(str(out_file), expect="matrix")
        assert np.allclose(io.decode_matrix(payload), [[1.0]], atol=1e-10)

    def test_not_psd_exit_one(self, tmp_path):
        path = tmp_path / "m.json"
        io.save(str(path), "matrix", io.encode_matrix(np.diag([1.0, -1.0])))
        code, _ = run_cli("schur", str(path), "--pivot", "0", "--mode", "psd")
        assert code == 1

    def test_parse_error_exit_65(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli("schur", str(path), "--pivot", "0")
        assert code == 65


class TestSupportReconstruct:
    def test_sqrt_round_trip(self, tmp_path):
        a = np.diag([1.0, 4.0])
        tuple_path = tmp_path / "a.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((a,)))
        cert_path = tmp_path / "cert.json"
        code, out = run_cli(
            "support", "sqrt", str(tuple_path), "--v-index", "0", "--interval", "0.5,5",
            "--samples", "60", "--seed", "3", "--out", str(cert_path),
        )
        assert code == 0
        value_path = tmp_path / "value.json"
        code, out = run_cli("reconstruct", str(cert_path), "--out", str(value_path))
        assert code == 0
        _, payload = io.load(str(value_path), expect="matrix")
        value = io.decode_matrix(payload).reshape(-1)
        assert np.linalg.norm(value - np.array([1.0, 0.0])) <= 1e-6


class TestRepeval:
    def test_quadrep_then_eval(self, tmp_path):
        rep_path = tmp_path / "rep.json"
        code, out = run_cli(
            "quadrep", "sqrt", "--nodes", "64", "--interval", "0.1,10", "--out", str(rep_path)
        )
        assert code == 0
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((np.diag([1.0, 4.0]),)))
        out_path = tmp_path / "y.json"
        code, _ = run_cli("repeval", str(rep_path), str(tuple_path), "--out", str(out_path))
        assert code == 0
        _, payload = io.load(str(out_path), expect="matrix")
        assert np.linalg.norm(io.decode_matrix(payload) - np.diag([1.0, 2.0])) <= 1e-3 * 3

    def test_quadrep_file_stores_the_cells_not_the_zeros(self, tmp_path):
        rep_path = tmp_path / "rep.json"
        assert run_cli("quadrep", "sqrt", "--nodes", "64", "--out", str(rep_path))[0] == 0
        assert rep_path.stat().st_size < 64 * 1024  # the dense form takes about 580 KB

    def test_quadrep_reads_the_exponent_as_the_catalogue_does(self, tmp_path):
        # pow:P and pow:p=P name one function, here as in `check`
        files = []
        for ident in ("pow:0.7", "pow:p=0.7"):
            path = tmp_path / f"{ident.replace(':', '_')}.json"
            assert run_cli("quadrep", ident, "--nodes", "16", "--interval", "0.5,2", "--out", str(path))[0] == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_repeval_reads_a_dense_representation_to_the_same_bytes(self, tmp_path):
        sparse_path, dense_path = tmp_path / "sparse.json", tmp_path / "dense.json"
        run_cli("quadrep", "pow:0.7", "--nodes", "24", "--interval", "0.5,2", "--out", str(sparse_path))
        _, payload = io.load(str(sparse_path), expect="representation")
        coeffs = payload["pencil"]["coefficients"]
        payload["pencil"]["coefficients"] = [io.encode_matrix(io.decode_matrix(b)) for b in coeffs]
        for key in ("pivot_basis", "state"):
            payload[key] = io.encode_matrix(io.decode_matrix(payload[key]))
        io.save(str(dense_path), "representation", payload)
        assert dense_path.stat().st_size > 10 * sparse_path.stat().st_size
        tuple_path = tmp_path / "z.json"
        z = np.array([[1.0 + 0.5j, 0.2], [0.2, 2.0 + 1.0j]])
        io.save(str(tuple_path), "tuple", io.encode_tuple((z,)))
        outputs = []
        for path in (sparse_path, dense_path):
            out_path = tmp_path / f"out-{path.stem}.json"
            code, out = run_cli("repeval", str(path), str(tuple_path), "--complex",
                                "--format", "json", "--out", str(out_path))
            assert code == 0
            outputs.append((out, out_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_arity_mismatch_exit_one(self, tmp_path):
        rep_path = tmp_path / "rep.json"
        run_cli("quadrep", "sqrt", "--nodes", "16", "--interval", "0.5,2", "--out", str(rep_path))
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((np.eye(2), np.eye(2))))
        code, _ = run_cli("repeval", str(rep_path), str(tuple_path))
        assert code == 1


class TestMean:
    def test_geometric_scalars(self, tmp_path):
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((4 * np.eye(2), 9 * np.eye(2))))
        out_path = tmp_path / "m.json"
        code, _ = run_cli("mean", "geomean2", str(tuple_path), "--out", str(out_path))
        assert code == 0
        _, payload = io.load(str(out_path), expect="matrix")
        assert np.allclose(io.decode_matrix(payload), 6 * np.eye(2), atol=1e-10)

    def test_karcher_idempotent(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rand_psd(rng, 2) + 0.5 * np.eye(2)
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((a, a)))
        out_path = tmp_path / "m.json"
        code, out = run_cli("mean", "karcher", str(tuple_path), "--out", str(out_path))
        assert code == 0
        assert "polish iterations" in out
        _, payload = io.load(str(out_path), expect="matrix")
        assert np.linalg.norm(io.decode_matrix(payload) - a) <= 1e-8

    def test_karcher_commuting_oracle(self, tmp_path):
        x = (np.diag([1.0, 2.0]), np.diag([3.0, 0.5]))
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple(x))
        out_path = tmp_path / "m.json"
        code, _ = run_cli("mean", "karcher", str(tuple_path), "--out", str(out_path))
        assert code == 0
        _, payload = io.load(str(out_path), expect="matrix")
        expect = np.diag(np.sqrt(np.diag(x[0]) * np.diag(x[1])))
        assert np.linalg.norm(io.decode_matrix(payload) - expect) <= 1e-8

    def test_not_pd_exit(self, tmp_path):
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((np.diag([1.0, -1.0]), np.eye(2))))
        code, _ = run_cli("mean", "karcher", str(tuple_path))
        assert code == 1

    @pytest.mark.parametrize("ident", ["harmonic", "karcher"])
    def test_components_of_two_sizes_exit_one(self, ident, tmp_path, capsys):
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((np.eye(2), np.eye(3))))
        code, _ = run_cli("mean", ident, str(tuple_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: DimensionMismatch")
        assert "Traceback" not in err


def _edit(payload, path, value):
    """Set payload[path] to value, or to value(payload[path]) when it is callable,
    or delete the key when value is None."""
    for key in path[:-1]:
        payload = payload[key]
    if value is None:
        del payload[path[-1]]
    else:
        payload[path[-1]] = value(payload[path[-1]]) if callable(value) else value


def _dense_negative_corner(sparse):
    """The matrix in the dense form, with -0.5 at (0, 0)."""
    m = io.decode_matrix(sparse)
    m[0, 0] = -0.5
    return io.encode_matrix(m)


MALFORMED = {
    # name: (file kind, path into the payload, new value, a function of the
    # old one, or None to delete)
    "negative_state": ("representation", ("state", "entries", 0, 2), -0.5),
    "negative_dense_state": ("representation", ("state",), _dense_negative_corner),
    "no_pencil": ("representation", ("pencil",), None),
    "state_1x1": ("representation", ("state",), [[[1.0, 0.0]]]),
    "no_c": ("certificate", ("c",), None),
    "v_one_entry": ("certificate", ("v",), [[1.0, 0.0]]),
}


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    tuple_path = root / "a.json"
    io.save(str(tuple_path), "tuple", io.encode_tuple((np.diag([1.0, 1.5]),)))
    paths = {"tuple": tuple_path, "representation": root / "rep.json",
             "certificate": root / "cert.json"}
    assert run_cli("quadrep", "sqrt", "--nodes", "16", "--interval", "0.5,2",
                   "--out", str(paths["representation"]))[0] == 0
    assert run_cli("support", "sqrt", str(tuple_path), "--interval", "0.5,2",
                   "--samples", "20", "--out", str(paths["certificate"]))[0] == 0
    return paths


class TestMalformedFiles:
    @pytest.mark.parametrize("case", MALFORMED, ids=str)
    def test_data_error_exit_65(self, case, good_files, tmp_path, capsys):
        kind, path, value = MALFORMED[case]
        obj = json.loads(good_files[kind].read_text())
        _edit(obj["payload"], path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        if kind == "representation":
            code, _ = run_cli("repeval", str(bad), str(good_files["tuple"]))
        else:
            code, _ = run_cli("reconstruct", str(bad))
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith("error: DataError")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind,payload,argv,declared,size", [
        # one entry more than serialize.MAX_SPARSE_ENTRIES
        ("matrix", {"shape": [1, 4194305], "entries": []}, ("schur", "FILE", "--pivot", "0"), 4194305, 100),
        # two matrices, each under the cap, that pass it together
        ("tuple", [{"shape": [1449, 1449], "entries": []}] * 2, ("mean", "karcher", "FILE"), 4199202, 150),
    ])
    def test_sparse_shapes_past_the_cap_exit_65(self, tmp_path, capsys, kind, payload, argv, declared, size):
        path = tmp_path / "wide.json"
        io.save(str(path), kind, payload)
        assert path.stat().st_size < size
        code, _ = run_cli(*(str(path) if a == "FILE" else a for a in argv))
        err = capsys.readouterr().err
        assert code == 65
        assert err.startswith("error: DataError") and f"declare {declared} entries, more than 4194304" in err


class TestMalformedTuples:
    @pytest.mark.parametrize("argv", [
        ("repeval", "{representation}", "{rect}"),
        ("repeval", "{representation}", "{rect}", "--complex"),
        ("pencil-eval", "{pencil}", "{two_sizes}"),
    ], ids=["repeval", "repeval-complex", "pencil-eval"])
    def test_dimension_mismatch_exits_one(self, argv, good_files, tmp_path, capsys):
        code, err = self.run_on_files(argv, good_files, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: DimensionMismatch")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("support", "sqrt", "{empty}"),
        ("mean", "karcher", "{empty}"),
        ("mean", "harmonic", "{empty}"),
        ("mean", "geomean2", "{empty}"),
        ("repeval", "{representation}", "{empty}"),
        ("pencil-eval", "{pencil}", "{empty}"),
    ], ids=["support", "mean-karcher", "mean-harmonic", "mean-geomean2", "repeval", "pencil-eval"])
    def test_empty_tuple_exits_65(self, argv, good_files, tmp_path, capsys):
        code, err = self.run_on_files(argv, good_files, tmp_path, capsys)
        assert code == 65
        assert err.startswith("error: DataError")
        assert "Traceback" not in err

    @staticmethod
    def run_on_files(argv, good_files, tmp_path, capsys):
        """Run the CLI with the named files written under tmp_path: its exit code and standard error."""
        paths = {"representation": str(good_files["representation"])}
        files = {"rect": ("matrix", io.encode_matrix(np.ones((2, 3)))),
                 "two_sizes": ("tuple", io.encode_tuple((np.eye(2), np.eye(3)))),
                 "empty": ("tuple", []),
                 "pencil": ("pencil", io.pencil_payload(pencil_new([2 * np.eye(2), np.eye(2), np.eye(2)])))}
        for name, (kind, payload) in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            io.save(paths[name], kind, payload)
        code, _ = run_cli(*(arg.format(**paths) for arg in argv))
        return code, capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("check", "sqrt", "hypograph", "--n", "2", "--m", "3"),
        ("check", "sqrt", "hypograph", "--n", "2", "--m", "0"),
        ("check", "sqrt", "monotone", "--n", "2", "--trials", "0"),
        ("check", "sqrt", "monotone", "--n", "2", "--interval", "0.5,inf"),
    ], ids=["m-above-n", "m-zero", "no-trials", "infinite-interval"])
    def test_bad_check_options_exit_64(self, argv, capsys):
        code, _ = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith("error: BadConfig")
        assert "Traceback" not in err

    def test_support_on_undeclared_function_exits_64(self, tmp_path, capsys):
        tuple_path = tmp_path / "x.json"
        io.save(str(tuple_path), "tuple", io.encode_tuple((np.eye(2),)))
        code, _ = run_cli("support", "xsq", str(tuple_path))
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith("error: BadConfig")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,error", [
        (("mean", "power:t=2", "{pair}"), "UnknownFunction"),
        (("check", "power:t=0", "monotone", "--n", "2", "--trials", "5"), "UnknownFunction"),
        (("quadrep", "pow:abc"), "BadConfig"),
        (("check", "sqrt", "monotone", "--n", "0"), "BadConfig"),
        (("check", "sqrt", "monotone", "--n", "-1"), "BadConfig"),
        (("check", "sqrt", "monotone", "--n", "2", "--tol", "-1"), "BadConfig"),
        (("schur", "{matrix}", "--pivot", "5"), "BadConfig"),
        (("schur", "{matrix}", "--pivot", "a"), "BadConfig"),
        (("schur", "{matrix}", "--pivot", "0,0"), "BadConfig"),
        (("support", "sqrt", "{single}", "--v-index", "7"), "BadConfig"),
        (("check", "xsq", "monotone", "--tol", "nan"), "BadConfig"),
        (("check", "harmonic:w=nan,0.5", "monotone"), "UnknownFunction"),
        (("check", "mobius:nan,0,0,1", "monotone"), "UnknownFunction"),
        (("quadrep", "sqrt", "--nodes", "8", "--target", "nan"), "BadConfig"),
        (("quadrep", "sqrt", "--nodes", "8", "--target", "-1"), "BadConfig"),
        (("quadrep", "sqrt", "--nodes", "8", "--target", "inf"), "BadConfig"),
        (("support", "sqrt", "{single}", "--interval", "0.5,inf"), "BadConfig"),
        (("quadrep", "sqrt", "--interval", "0.1,inf"), "BadConfig"),
        (("support", "sqrt", "{single}", "--samples", "-3"), "BadConfig"),
        (("check", "sqrt", "monotone", "--seed", "-1"), "BadConfig"),
        (("support", "sqrt", "{single}", "--seed", "-1"), "BadConfig"),
    ], ids=["mean-t-above-one", "check-t-zero", "quadrep-bad-exponent", "n-zero", "n-negative",
            "negative-tol", "pivot-out-of-range", "pivot-not-int", "pivot-repeated", "v-index-out-of-range", "nan-tol",
            "nan-weight", "nan-mobius-coefficient", "nan-target", "negative-target", "infinite-target",
            "support-infinite-interval", "quadrep-infinite-interval", "negative-samples", "check-negative-seed",
            "support-negative-seed"])
    def test_bad_arguments_exit_64(self, argv, error, tmp_path, capsys):
        files = {"pair": (np.eye(2), 2 * np.eye(2)), "single": (np.eye(3),)}
        paths = {}
        for name, mats in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            io.save(paths[name], "tuple", io.encode_tuple(mats))
        paths["matrix"] = str(tmp_path / "matrix.json")
        io.save(paths["matrix"], "matrix", io.encode_matrix(np.diag([2.0, 1.0, 3.0])))
        code, _ = run_cli(*(arg.format(**paths) for arg in argv))
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith(f"error: {error}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("ident", ["karcher:w=0.5,0.5:x", "karcher:x"])
    def test_mean_takes_the_resolved_weights(self, ident, tmp_path, capsys):
        # the identifier is parsed once; a trailing positional that the
        # resolver accepts used to reach float() in a second parse
        path = str(tmp_path / "pair.json")
        io.save(path, "tuple", io.encode_tuple((np.eye(2), 2 * np.eye(2))))
        code, out = run_cli("mean", ident, path)
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        assert out == run_cli("mean", "karcher", path)[1]


class TestEndToEndSubprocess:
    def test_module_invocation(self, tmp_path):
        # one true end-to-end check through the interpreter
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "opmono", "check", "identity", "monotone",
             "--n", "2", "--trials", "20", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout

    def test_pencil_eval_file_flow(self, tmp_path):
        rng = np.random.default_rng(1)
        bi = [rand_psd(rng, 2) for _ in range(2)]
        from opmono.pencil import pencil_new

        p = pencil_new([sum(bi) + np.eye(2)] + bi)
        pencil_path = tmp_path / "p.json"
        io.save(str(pencil_path), "pencil", io.pencil_payload(p))
        tuple_path = tmp_path / "x.json"
        x = rand_tuple_interval(rng, 2, 2, 0.5, 2.0)
        io.save(str(tuple_path), "tuple", io.encode_tuple(x))
        out_path = tmp_path / "y.json"
        code, _ = run_cli("pencil-eval", str(pencil_path), str(tuple_path), "--out", str(out_path))
        assert code == 0
        _, payload = io.load(str(out_path), expect="matrix")
        from opmono.pencil import pencil_eval

        assert np.allclose(io.decode_matrix(payload), pencil_eval(p, x))


class _Recording(argparse.Namespace):
    """A parsed namespace that records the name of every attribute read from it."""

    def __init__(self, reads, **kwargs):
        super().__init__(**kwargs)
        self._reads = reads

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def declared_options(command):
    """The option dests (``--v-file`` -> ``v_file``) of one subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"}


# options beyond --format and --out, as the cli docstring and README list them
OPTIONS = {
    "check": {"m", "seed", "tol", "trials", "n", "interval"},
    "schur": {"pivot", "pivot_file", "mode", "keep", "tol"},
    "pencil-eval": {"shifted"},
    "support": {"v_file", "v_index", "samples", "seed", "tol", "interval"},
    "reconstruct": {"residual_tol"},
    "repeval": {"complex", "tol"},
    "mean": set(),
    "quadrep": {"nodes", "target", "interval"},
}

# valid runs that together pass every option of every subcommand (and each
# schur mode), with the kind of file --out writes
RUNS = {
    "check-monotone": (("check", "sqrt", "monotone", "--n", "2", "--trials", "20", "--seed", "1",
                        "--tol", "1e-9", "--interval", "0.5,2"), "report"),
    "check-hypograph": (("check", "sqrt", "hypograph", "--n", "3", "--m", "2", "--trials", "20"),
                        "report"),
    "schur-psd": (("schur", "{matrix}", "--pivot", "0", "--tol", "1e-9"), "matrix"),
    "schur-generic": (("schur", "{matrix}", "--pivot-file", "{basis}", "--mode", "generic",
                       "--keep", "perp"), "matrix"),
    "schur-sector-bound": (("schur", "{matrix}", "--pivot", "0", "--mode", "sector-bound"), "report"),
    "pencil-eval": (("pencil-eval", "{pencil}", "{pair}", "--shifted"), "matrix"),
    "support-v-file": (("support", "sqrt", "{tuple}", "--v-file", "{v}", "--samples", "20",
                        "--seed", "2", "--tol", "1e-9", "--interval", "0.5,2"), "certificate"),
    "support-v-index": (("support", "sqrt", "{tuple}", "--v-index", "1", "--samples", "20"),
                        "certificate"),
    "reconstruct": (("reconstruct", "{certificate}", "--residual-tol", "1e-6"), "matrix"),
    "repeval": (("repeval", "{representation}", "{upper}", "--complex", "--tol", "1e-9"), "matrix"),
    "mean": (("mean", "geomean2", "{pair}"), "matrix"),
    "quadrep": (("quadrep", "sqrt", "--nodes", "16", "--target", "1e-2", "--interval", "0.5,2"),
                "representation"),
}


@pytest.fixture(scope="module")
def run_files(good_files, tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    files = {
        "matrix": ("matrix", io.encode_matrix(np.array([[2.0, 1.0], [1.0, 1.5]]))),
        "basis": ("matrix", io.encode_matrix(np.array([[1.0], [0.0]]))),
        "v": ("matrix", io.encode_matrix(np.array([[0.6], [0.8]]))),
        "pair": ("tuple", io.encode_tuple((np.diag([1.0, 2.0]), np.diag([1.5, 0.5])))),
        "upper": ("tuple", io.encode_tuple((np.diag([1.0, 1.5]) + 0.3j * np.eye(2),))),
        "pencil": ("pencil", io.pencil_payload(pencil_new([2 * np.eye(2), np.eye(2), np.eye(2)]))),
    }
    paths = {name: str(path) for name, path in good_files.items()}
    for name, (kind, payload) in files.items():
        paths[name] = str(root / f"{name}.json")
        io.save(paths[name], kind, payload)
    return paths


def run_valid(name, files, out):
    argv, _ = RUNS[name]
    code, _ = run_cli(*(arg.format(**files) for arg in argv), "--out", str(out))
    assert code == 0


class TestOptions:
    @pytest.mark.parametrize("command", OPTIONS)
    def test_every_option_is_read(self, command, run_files, tmp_path, monkeypatch):
        reads = set()
        build = cli.build_parser

        def recording_parser():
            parser = build()
            parse = parser.parse_args
            parser.parse_args = lambda argv: _Recording(reads, **vars(parse(argv)))
            return parser

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        for name, (argv, _) in RUNS.items():
            if argv[0] == command:
                run_valid(name, run_files, tmp_path / f"{name}.json")
        declared = declared_options(command)
        assert declared == OPTIONS[command] | {"format", "out"}
        assert declared - reads == set()

    @pytest.mark.parametrize("name", RUNS)
    def test_out_writes_the_documented_kind(self, name, run_files, tmp_path):
        out = tmp_path / "out.json"
        run_valid(name, run_files, out)
        kind, _ = io.load(str(out))
        assert kind == RUNS[name][1]

    @pytest.mark.parametrize("argv,option", [
        (("schur", "{matrix}", "--pivot", "0", "--mode", "generic", "--tol", "1e-3"), "--tol"),
        (("schur", "{matrix}", "--pivot", "0", "--keep", "perp"), "--keep"),
        (("schur", "{matrix}", "--pivot", "0", "--mode", "sector-bound", "--keep", "s"), "--keep"),
        (("check", "sqrt", "monotone", "--m", "5"), "--m"),
        (("check", "sqrt", "doubling", "--n", "3", "--m", "2"), "--m"),
        (("support", "sqrt", "{tuple}", "--v-file", "{v}", "--v-index", "1"), "--v-index"),
        (("schur", "{matrix}", "--pivot", "0", "--pivot-file", "{basis}"), "--pivot"),
        (("repeval", "{representation}", "{pair}", "--tol", "1e-9"), "--tol"),
    ], ids=["generic-tol", "psd-keep", "sector-bound-keep", "monotone-m", "doubling-m", "v-file-v-index",
            "pivot-file-pivot", "repeval-real-tol"])
    def test_an_option_the_mode_does_not_read_exits_64(self, argv, option, run_files, capsys):
        code, out = run_cli(*(arg.format(**run_files) for arg in argv))
        assert code == 64
        assert out == ""
        assert capsys.readouterr().err.startswith(f"error: BadConfig: {option} is not read by")

    def test_generic_mode_keeps_s_by_default(self, run_files, tmp_path):
        saved = []
        for keep in ((), ("--keep", "s")):
            out = tmp_path / f"keep{len(keep)}.json"
            code, text = run_cli("schur", run_files["matrix"], "--pivot", "0", "--mode", "generic", *keep,
                                 "--out", str(out))
            assert code == 0 and "keeping 's'" in text
            saved.append(out.read_bytes())
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("argv", [
        ("mean", "geomean2", "{pair}", "--seed", "3"),
        ("quadrep", "sqrt", "--tol", "1e-9"),
        ("pencil-eval", "{pencil}", "{pair}", "--interval", "0.5,2"),
        ("reconstruct", "{certificate}", "--tol", "1e-9"),
    ], ids=["mean-seed", "quadrep-tol", "pencil-eval-interval", "reconstruct-tol"])
    def test_removed_option_exits_64(self, argv, run_files, capsys):
        code, out = run_cli(*(arg.format(**run_files) for arg in argv))
        assert code == 64
        assert out == ""
        assert "unrecognized arguments" in capsys.readouterr().err
