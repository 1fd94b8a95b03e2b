"""Batch command-line interface.

Subcommands wire the library modules over JSON files.  Each one takes
``--format text|json`` and ``--out PATH`` and only the options listed:

  check        randomized property certification of a catalogue function
               (--m --seed --tol --trials --n --interval; --m for hypograph
               only); every property is a ``cert`` tester, reported and
               exited on alike
  schur        shorted operator / Schur complement / sector bound of a matrix
               (--pivot --pivot-file --mode --keep --tol; --pivot or
               --pivot-file, --keep for the generic mode only, --tol for the
               others)
  pencil-eval  evaluate a pencil file at a tuple file (--shifted)
  support      supporting pencil certificate at a base point
               (--v-file --v-index --samples --seed --tol --interval;
               --v-file or --v-index, 0 by default)
  reconstruct  recover F(A)v from a certificate file (--residual-tol)
  repeval      evaluate a representation file (--complex --tol; --tol with
               --complex only, as only the half-space continuation compares
               a floor)
  mean         operator means of a tuple file
  quadrep      quadrature representation of a one-variable function
               (--nodes --target --interval)

``--out`` writes a ``certificate`` (support), a ``representation``
(quadrep), the report (check, schur --mode sector-bound) or the value as a
``matrix`` (every other subcommand).  An option the chosen mode does not
read is a usage error, as are an ``--interval`` c1,c2 outside 0 < c1 < c2 <
inf (``matcore.check_interval``), a negative ``--seed``
(``sampling.generator``) and ``--samples`` below 1.  ``--tol`` sets the PSD
tolerance, and the equality tolerance follows it (``Tolerances.eq``).  Exit
codes: 0 pass, 2 property counterexample, 3 inconclusive, and for a
refusal, printed as one ``error:`` line, the first of ``_EXITS`` that
its class matches: 64 usage error (``UnknownFunction``, ``BadConfig``), 65
data error (``DataError``, a missing file), 1 any other ``OpmonoError``, a
math error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import cert as certmod
from . import serialize as io
from .errors import BadConfig, DataError, OpmonoError, UnknownFunction
from .freefun import _parse_identifier, _parse_weights, _pow_exponent, karcher_mean, resolve_function
from .matcore import Tolerances, check_interval, is_count, min_eig
from .pencil import pencil_eval, pencil_eval_shifted
from .represent import (
    reconstruct,
    rep_eval,
    rep_eval_complex,
    rep_from_quadrature,
    support_pencil,
)
from .schur import PivotSubspace, schur_generic, sector_bound_check, shorted_psd

EXIT_PASS = 0
EXIT_MATH = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
# the exit code of a refusal, by the first entry its class matches
_EXITS = {(UnknownFunction, BadConfig): EXIT_USAGE, (DataError, FileNotFoundError): EXIT_DATA, OpmonoError: EXIT_MATH}

_TESTERS = {
    "monotone": certmod.monotone_test,
    "concave": certmod.concave_test,
    "derivative": certmod.derivative_monotone_test,
    "hypograph": certmod.hypograph_convexity_test,
    "nc-axioms": certmod.nc_axiom_check,
    "doubling": certmod.doubling_concavity_check,
}

_SHARED = {
    "--seed": dict(type=int, default=0),
    "--tol": dict(type=float, default=None, help="override the PSD tolerance"),
    "--trials": dict(type=int, default=1000),
    "--n": dict(type=int, default=4, help="matrix dimension for random trials"),
    "--interval": dict(type=str, default="0.5,2", help="spectral interval c1,c2"),
}


def _add_options(p: argparse.ArgumentParser, *shared: str) -> None:
    """Add the named ``_SHARED`` options, and --format and --out, which every subcommand reads."""
    for flag in shared:
        p.add_argument(flag, **_SHARED[flag])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", type=str, default=None, help="output file path")


def _parse_interval(spec: str) -> tuple[float, float]:
    try:
        c1, c2 = (float(s) for s in spec.split(","))
    except ValueError as exc:
        raise BadConfig(f"bad interval {spec!r}; expected c1,c2") from exc
    check_interval((c1, c2))
    return c1, c2


def _tolerances(args) -> Tolerances:
    return Tolerances() if args.tol is None else Tolerances(psd=args.tol)


def _emit(args, payload: dict, text: str, saved: tuple[str, object] | None = None) -> None:
    """Print the report or ``text`` per ``--format``; save ``saved`` or the report to ``--out``."""
    print(io.dumps({"kind": "report", "payload": payload}) if args.format == "json" else text)
    if args.out:
        io.save(args.out, *(saved or ("report", payload)))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="opmono", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="randomized property certification")
    p.add_argument("function")
    p.add_argument("property", choices=tuple(_TESTERS))
    p.add_argument("--m", type=int, default=None, help="isometry target dimension (hypograph)")
    _add_options(p, "--seed", "--tol", "--trials", "--n", "--interval")

    p = sub.add_parser("schur", help="shorted operator / Schur complement / sector bound")
    p.add_argument("input", help="matrix file")
    p.add_argument("--pivot", type=str, default=None, help="comma-separated index list")
    p.add_argument("--pivot-file", type=str, default=None, help="basis matrix file")
    p.add_argument("--mode", choices=("psd", "generic", "sector-bound"), default="psd")
    p.add_argument("--keep", choices=("s", "perp"), default=None, help="generic mode only; s by default")
    _add_options(p, "--tol")

    p = sub.add_parser("pencil-eval", help="evaluate a pencil at a tuple")
    p.add_argument("pencil", help="pencil file")
    p.add_argument("tuple", help="tuple file")
    p.add_argument("--shifted", action="store_true", help="evaluate at (X_i - I)")
    _add_options(p)

    p = sub.add_parser("support", help="supporting pencil certificate")
    p.add_argument("function")
    p.add_argument("tuple", help="tuple file with the base point")
    p.add_argument("--v-file", type=str, default=None, help="vector as an n x 1 matrix file")
    p.add_argument("--v-index", type=int, default=None, help="basis vector index when no file; 0 by default")
    p.add_argument("--samples", type=int, default=200)
    _add_options(p, "--seed", "--tol", "--interval")

    p = sub.add_parser("reconstruct", help="recover F(A)v from a certificate")
    p.add_argument("certificate", help="certificate file")
    p.add_argument("--residual-tol", type=float, default=1e-6)
    _add_options(p)

    p = sub.add_parser("repeval", help="evaluate a representation")
    p.add_argument("representation", help="representation file")
    p.add_argument("tuple", help="tuple file")
    p.add_argument("--complex", action="store_true", help="allow half-space inputs")
    _add_options(p, "--tol")

    p = sub.add_parser("mean", help="operator means of a tuple")
    p.add_argument("mean_id", help="e.g. karcher, harmonic, geomean2, power:t=0.5")
    p.add_argument("tuple", help="tuple file")
    _add_options(p)

    p = sub.add_parser("quadrep", help="quadrature representation of a scalar function")
    p.add_argument("function", help="sqrt, log1p, or pow:P (also pow:p=P)")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--target", type=float, default=1e-3)
    _add_options(p, "--interval")
    return ap


def _load_tuple(path: str) -> tuple[np.ndarray, ...]:
    kind, payload = io.load(path)
    if kind == "matrix":
        return (io.decode_matrix(payload),)
    if kind == "tuple":
        return io.decode_tuple(payload)
    raise BadConfig(f"expected a matrix or tuple file, found {kind}")


def _pivot_from_args(args, dim: int) -> PivotSubspace:
    if args.pivot_file:
        _, payload = io.load(args.pivot_file, expect="matrix")
        return PivotSubspace(io.decode_matrix(payload))
    if args.pivot is None:
        raise BadConfig("schur needs --pivot or --pivot-file")
    try:
        idx = [int(s) for s in args.pivot.split(",")]
    except ValueError as exc:
        raise BadConfig(f"bad pivot {args.pivot!r}; expected comma-separated indices") from exc
    return PivotSubspace.from_indices(dim, idx)


def _cmd_check(args) -> int:
    if args.m is not None and args.property != "hypograph":
        raise BadConfig(f"--m is not read by the {args.property} property")
    fn = resolve_function(args.function)
    kwargs = dict(interval=_parse_interval(args.interval), tol=_tolerances(args), n=args.n, trials=args.trials,
                  seed=args.seed)
    if args.property == "hypograph":
        kwargs["m"] = args.m if args.m is not None else max(args.n - 1, 1)
    elif args.property == "doubling":
        kwargs["trials"] = max(args.trials // 10, 1)
    report = _TESTERS[args.property](fn, **kwargs)
    payload = io.report_payload(report)
    payload["function"] = fn.name
    _emit(
        args, payload,
        f"{report.property_name} {fn.name}: {report.verdict.upper()} "
        f"(trials {report.trials_run}, worst margin {report.worst_margin:.3e}, seed {report.seed})",
    )
    exits = {"pass": EXIT_PASS, "counterexample": EXIT_COUNTEREXAMPLE}
    return exits.get(report.verdict, EXIT_INCONCLUSIVE)


def _cmd_schur(args) -> int:
    unread = "tol" if args.mode == "generic" else "keep"
    if getattr(args, unread) is not None:
        raise BadConfig(f"--{unread} is not read by --mode {args.mode}")
    if args.pivot_file and args.pivot is not None:
        raise BadConfig("--pivot is not read by schur with --pivot-file")
    _, payload = io.load(args.input, expect="matrix")
    a = io.decode_matrix(payload)
    pivot = _pivot_from_args(args, a.shape[0])
    if args.mode == "psd":
        result = shorted_psd(a, pivot, _tolerances(args))
        lam = min_eig(result.shorted)
        shorted = io.encode_matrix(result.shorted)
        _emit(args, {"mode": "psd", "shorted": shorted, "defect": result.defect, "min_eig": lam},
              f"shorted operator on a {pivot.dim}-dim pivot: min eigenvalue {lam:.6g}, "
              f"range-inclusion residual {result.defect:.2e}", ("matrix", shorted))
        return EXIT_PASS
    if args.mode == "generic":
        keep = args.keep or "s"
        comp = schur_generic(a, pivot, keep=keep)
        lam = min_eig(comp)
        _emit(args, {"mode": "generic", "min_eig_herm_part": lam},
              f"Schur complement keeping {keep!r}: Hermitian-part min eigenvalue {lam:.6g}",
              ("matrix", io.encode_matrix(comp)))
        return EXIT_PASS
    report = sector_bound_check(a, pivot, tol=_tolerances(args))
    payload = {"mode": "sector-bound", "alpha": report.alpha, "passed": report.passed,
               "singular_value_pairs": [list(p) for p in report.singular_value_pairs],
               "norm_pair": list(report.norm_pair)}
    _emit(args, payload, f"sector bound: alpha = {report.alpha:.4f} rad, "
                         f"{'PASS' if report.passed else 'FAIL'}")
    return EXIT_PASS if report.passed else EXIT_MATH


def _cmd_pencil_eval(args) -> int:
    _, payload = io.load(args.pencil, expect="pencil")
    pencil = io.pencil_from_payload(payload)
    x = _load_tuple(args.tuple)
    out = pencil_eval_shifted(pencil, x) if args.shifted else pencil_eval(pencil, x)
    lam = min_eig(out)
    _emit(args, {"min_eig_herm_part": lam},
          f"pencil evaluation: dimension {out.shape[0]}, Hermitian-part min eigenvalue {lam:.6g}",
          ("matrix", io.encode_matrix(out)))
    return EXIT_PASS


def _cmd_support(args) -> int:
    if args.v_file and args.v_index is not None:
        raise BadConfig("--v-index is not read by support with --v-file")
    fn = resolve_function(args.function)
    a = _load_tuple(args.tuple)
    n = a[0].shape[0]
    if args.v_file:
        _, payload = io.load(args.v_file, expect="matrix")
        v = io.decode_matrix(payload).reshape(-1)
    else:
        index = args.v_index or 0
        if not (is_count(index, 0) and index < n):
            raise BadConfig(f"--v-index {index} must lie in 0..{n - 1}")
        v = np.eye(n)[index]
    interval = _parse_interval(args.interval)
    cert = support_pencil(
        fn, a, v, interval, validation_samples=args.samples, seed=args.seed, tol=_tolerances(args)
    )
    payload = {"function": fn.name, "support_margin": cert.support_margin,
               "scalar_margin": cert.scalar_margin, "trace_slack": cert.trace_slack, "c": cert.c}
    _emit(args, payload,
          f"support certificate for {fn.name}: support margin {cert.support_margin:.3e}, "
          f"scalar margin {cert.scalar_margin:.3e}, trace slack {cert.trace_slack:.3e}",
          ("certificate", io.certificate_payload(cert)))
    ok = cert.support_margin >= -1e-7 and cert.trace_slack >= -1e-8
    return EXIT_PASS if ok else EXIT_MATH


def _cmd_reconstruct(args) -> int:
    _, payload = io.load(args.certificate, expect="certificate")
    cert = io.certificate_from_payload(payload)
    result = reconstruct(cert)
    _emit(args, {"residual": result.residual}, f"reconstruction residual {result.residual:.3e}",
          ("matrix", io.encode_matrix(result.value.reshape(-1, 1))))
    return EXIT_PASS if result.residual <= args.residual_tol else EXIT_MATH


def _cmd_repeval(args) -> int:
    if args.tol is not None and not args.complex:
        raise BadConfig("--tol is not read by repeval without --complex")
    _, payload = io.load(args.representation, expect="representation")
    rep = io.representation_from_payload(payload)
    x = _load_tuple(args.tuple)
    out = rep_eval_complex(rep, x, _tolerances(args)) if args.complex else rep_eval(rep, x)
    norm = float(np.linalg.svd(out, compute_uv=False)[0])
    _emit(args, {"norm": norm}, f"representation value: dimension {out.shape[0]}, norm {norm:.6g}",
          ("matrix", io.encode_matrix(out)))
    return EXIT_PASS


def _cmd_mean(args) -> int:
    x = _load_tuple(args.tuple)
    k = len(x)
    ident = args.mean_id
    uniform = ":w=" + ",".join([repr(1.0 / k)] * k)
    if ident in ("karcher", "harmonic", "arithmetic") or (
        ident.startswith("power:") and ":w=" not in ident
    ):
        ident += uniform
    fn = resolve_function(ident)
    if fn.arity != k:
        raise BadConfig(f"{fn.name} takes {fn.arity} arguments but the tuple has {k}")
    extra = ""
    if fn.name == "karcher":
        value, info = karcher_mean(x, _parse_weights(_parse_identifier(ident)[1].get("w")), return_info=True)
        extra = f" ({info['iterations']} polish iterations, residual {info['residual']:.2e})"
    else:
        value = fn(x)
    norm = float(np.linalg.svd(value, compute_uv=False)[0])
    _emit(args, {"norm": norm}, f"{fn.name} of {k} matrices: norm {norm:.6g}{extra}",
          ("matrix", io.encode_matrix(value)))
    return EXIT_PASS


def _cmd_quadrep(args) -> int:
    interval = _parse_interval(args.interval)
    head, kv, positional = _parse_identifier(args.function)
    name, p = args.function, None
    if head == "pow":  # the catalogue's grammar, as in resolve_function
        try:
            name, p = head, _pow_exponent(kv, positional)
        except ValueError as exc:
            raise BadConfig(f"bad exponent in {args.function!r}; expected pow:P or pow:p=P") from exc
    rep = rep_from_quadrature(name, nodes=args.nodes, interval=interval, p=p, target=args.target)
    _emit(args, {"scalar_error": rep.meta["scalar_error"]},
          f"quadrature representation: {rep.meta['nodes']} cells, "
          f"scalar error {rep.meta['scalar_error']:.3e}",
          ("representation", io.representation_payload(rep)))
    return EXIT_PASS


_DISPATCH = {
    "check": _cmd_check,
    "schur": _cmd_schur,
    "pencil-eval": _cmd_pencil_eval,
    "support": _cmd_support,
    "reconstruct": _cmd_reconstruct,
    "repeval": _cmd_repeval,
    "mean": _cmd_mean,
    "quadrep": _cmd_quadrep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except (OpmonoError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXITS.items() if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
