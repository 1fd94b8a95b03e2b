"""The three workloads: ``certify``, ``support`` and ``continuation``.

Each is a closed loop with one caller: the harness issues an op, waits for
it to return, checks it, then issues the next.  A workload is a fixed
*cycle* of op kinds; a run executes whole cycles, so every run holds the
same mix of kinds, and only the inputs change with the seed.

A workload provides

* ``setup(tracer)``: build the catalogue or representations and warm up;
* ``cycle(state)``: the op kinds of one cycle, in order; a run holds at
  least ``min_cycles`` cycles, and ``cycle_s`` is the time one cycle takes
  at the harness's reference speed, which sets how many cycles fit in a
  run's ``--seconds``;
* ``inputs(state, kind, rng)``: the op's inputs, drawn from its own
  generator; untimed;
* ``run(tracer, state, kind, inputs)``: the timed op, every library call
  going through ``step`` so a failure names the layer that raised;
* ``check(state, kind, inputs, result)``: an ``Outcome``; untimed and
  untraced.

Why these workloads: each makes one of the two dominant mechanisms do
most of the work and bypasses the other.  ``certify`` is the batched
mean fixed points (``freefun`` -> ``eigh``) with no rotation search;
``continuation`` is the rotation search and sector certification
(``eigvalsh``) with no ``freefun`` means; ``support`` runs the same mean
solvers as ``certify`` on small batches, plus the exact adjoints, the
certificate round trip and ``schur``'s rotation path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from opmono import serialize as io
from opmono.cert import (
    concave_test,
    derivative_monotone_test,
    hypograph_convexity_test,
    monotone_test,
)
from opmono.errors import OpmonoError
from opmono.freefun import resolve_function
from opmono.matcore import fro_norm, herm_part, im_part, min_eig, re_part
from opmono.represent import reconstruct, rep_eval_complex, rep_from_quadrature, support_pencil
from opmono.sampling import rand_herm, rand_psd, rand_tuple_interval, rand_unit_vector
from opmono.schur import PivotSubspace, schur_pencil


class StepError(Exception):
    """An op failed inside the library; ``layer`` names the call that raised."""

    def __init__(self, layer: str, exc: Exception):
        super().__init__(f"{layer}: {type(exc).__name__}: {exc}")
        self.layer = layer
        self.exc = exc
        self.typed = isinstance(exc, OpmonoError)


def step(tracer, layer: str, f, *args, **kwargs):
    try:
        return tracer.call(layer, f, *args, **kwargs)
    except Exception as exc:  # classified by StepError and counted as a failed op
        raise StepError(layer, exc) from exc


@dataclass
class Outcome:
    """The check of one op.

    ``failed`` says why the op counts as failed, if it does.  ``wrong`` is
    set when a returned output contradicts a guarantee of the library (an
    untyped exception, a non-bit-exact round trip, a half-space violation,
    a counterexample to a theorem); it makes the whole run incorrect.
    """

    record: str
    failed: str | None = None
    wrong: str | None = None
    trials: int = 0
    verdict_miss: int = 0


def failed_outcome(err: StepError) -> Outcome:
    reason = f"{err.layer} raised {type(err.exc).__name__}"
    return Outcome(
        record=f"fail:{err.layer}:{type(err.exc).__name__}",
        failed=reason,
        wrong=None if err.typed else f"untyped exception: {reason}",
    )


class SetupCheckFailed(Exception):
    """A set-up output failed its check, so no op result can be trusted."""


def _loads(text: str):
    def reject(token):
        raise ValueError(f"non-finite constant {token!r}")

    return json.loads(text, parse_constant=reject)


def _psd_within(m: np.ndarray, out: np.ndarray) -> bool:
    return bool(min_eig(m) >= -1e-8 * (1.0 + float(fro_norm(out))))


# ---------------------------------------------------------------------------
# certify: one tester call per op over the criterion-05 catalogue


class Certify:
    name = "certify"
    key = 1
    min_cycles = 1
    cycle_s = 40.0
    trials = 512  # every stacked evaluation fills whole 512-row chunks
    # Criterion-05 catalogue without power:t=0.5, which would make one sweep
    # longer than a run; power:t=0.25, karcher, a lift and both controls stay.
    catalogue = (
        ("sqrt", 4, "pass"),
        ("log1p", 4, "pass"),
        ("pow:0.7", 4, "pass"),
        ("harmonic", 3, "pass"),
        ("geomean2", 3, "pass"),
        ("power:t=0.25", 3, "pass"),
        ("power:t=1", 3, "pass"),
        ("karcher", 3, "pass"),
        ("xsq", 2, "counterexample"),
        ("faketrace", 2, "counterexample"),
    )
    testers = {
        "monotone": (monotone_test, {}),
        "concave": (concave_test, {}),
        "derivative": (derivative_monotone_test, {}),
        "hypograph": (hypograph_convexity_test, {"m": 2}),
    }

    def setup(self, tracer):
        fns = {ident: resolve_function(ident) for ident, _, _ in self.catalogue}
        warm = np.random.default_rng(0)
        for ident, n, _ in self.catalogue:
            fn = tracer.fn(fns[ident])
            x = rand_tuple_interval(warm, fn.arity, n, 0.5, 2.0)
            fn(tuple(np.stack([xi, xi]) for xi in x))
        for tester, kwargs in self.testers.values():
            tracer.call("cert", tester, tracer.fn(fns["sqrt"]), n=2, trials=4, seed=0, **kwargs)
        return fns

    slow = ("power:t=0.25", "karcher")
    # Each fast (function, tester) pair runs three times per cycle, each time
    # on its own inputs: 8 slow and 96 fast ops.  With 104 ops a run reports
    # a true 90th percentile, and both percentiles, which fall among the fast
    # ops, rest on three samples of each pair instead of one.  The fast ops
    # add about a third to the cycle; the slow ones set most of its length.
    fast_repeats = 3

    def cycle(self, fns):
        """The sweep, each slow op followed by twelve fast ones.

        Spreading the fast ops over the whole sweep makes the percentiles,
        which fall among them, sample the machine over the whole run rather
        than over the few seconds the fast functions would take in a row.
        """
        ops = [(ident, n, expect, tester)
               for ident, n, expect in self.catalogue for tester in self.testers]
        slow = [op for op in ops if op[0] in self.slow]
        fast = [op for op in ops if op[0] not in self.slow] * self.fast_repeats
        per = len(fast) // len(slow)
        return [op for i, s in enumerate(slow) for op in [s] + fast[i * per:(i + 1) * per]]

    def inputs(self, fns, kind, rng):
        return int(rng.integers(2**31))

    def run(self, tracer, fns, kind, seed):
        ident, n, _, tester = kind
        f, kwargs = self.testers[tester]
        return step(tracer, "cert", f, tracer.fn(fns[ident]), n=n, trials=self.trials,
                    seed=seed, **kwargs)

    def check(self, fns, kind, seed, report):
        ident, _, expect, tester = kind
        out = Outcome(record=io.dumps(io.report_payload(report)), trials=report.trials_run)
        if report.verdict != expect:
            out.verdict_miss = 1
            out.failed = f"{tester}({ident}) returned {report.verdict}, expected {expect}"
            if expect == "pass" and report.verdict == "counterexample":
                out.wrong = f"counterexample to a theorem: {out.failed}"
        return out


# ---------------------------------------------------------------------------
# support: certificate, round trip, reconstruction and Schur complement


class Support:
    name = "support"
    key = 2
    min_cycles = 6  # 108 ops, so op_p90_ms is a true 90th percentile
    cycle_s = 3.4
    interval = (0.5, 2.0)
    # The criterion-07 catalogue, power and Karcher means at n=2.  Latencies
    # fall into clusters near 50 ms (lifts, harmonic, geomean2, power:t=1),
    # 250 ms (power:t=0.5), 370 ms (karcher) and 530 ms (power:t=0.25).  The
    # mix puts the fast cluster at 2/3 of the ops, so the median is inside
    # it, and power:t=0.25 at 4/18 (78%-100%), so the 90th percentile sits
    # near the middle of that cluster rather than on a boundary.
    mix = (
        ("sqrt", 4, 2),
        ("log1p", 4, 2),
        ("pow:0.7", 4, 2),
        ("harmonic", 3, 2),
        ("geomean2", 3, 2),
        ("power:t=1", 3, 2),
        ("power:t=0.5", 2, 1),
        ("karcher", 2, 1),
        ("power:t=0.25", 2, 4),
    )

    def setup(self, tracer):
        fns = {ident: resolve_function(ident) for ident, _, _ in self.mix}
        warm = np.random.default_rng(0)
        for ident, n, _ in self.mix:
            fn = tracer.fn(fns[ident])
            x = rand_tuple_interval(warm, fn.arity, n, *self.interval)
            fn(tuple(np.stack([xi, xi]) for xi in x))
        kind = ("sqrt", 4)
        try:
            self.run(tracer, fns, kind, self.inputs(fns, kind, warm))
        except StepError as err:
            if not err.typed:
                raise
        return fns

    def cycle(self, fns):
        return [(ident, n) for ident, n, reps in self.mix for _ in range(reps)]

    def inputs(self, fns, kind, rng):
        ident, n = kind
        k = fns[ident].arity
        a = rand_tuple_interval(rng, k, n, *self.interval)
        v = rand_unit_vector(rng, n)
        seed = int(rng.integers(2**31))
        z = tuple(rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n)) for _ in range(k))
        return a, v, seed, z

    @staticmethod
    def _roundtrip(tracer, cert):
        """The CLI's file round trip between ``support`` and ``reconstruct``."""
        text = io.dumps(io.envelope("certificate", io.certificate_payload(cert)))
        tracer.note(len(text))
        _, payload = io.parse_envelope(_loads(text), expect="certificate")
        return text, io.certificate_from_payload(payload)

    @staticmethod
    def _schur(cert, z):
        return schur_pencil(cert.pencil, z, PivotSubspace.from_vector(cert.v))

    def run(self, tracer, fns, kind, inputs):
        ident, _ = kind
        a, v, seed, z = inputs
        cert = step(tracer, "represent.support", support_pencil, tracer.fn(fns[ident]), a, v,
                    interval=self.interval, validation_samples=200, seed=seed)
        text, loaded = step(tracer, "serialize", self._roundtrip, tracer, cert)
        rec = step(tracer, "represent.reconstruct", reconstruct, loaded)
        comp = step(tracer, "schur.schur_pencil", self._schur, loaded, z)
        return cert, text, loaded, rec, comp

    def check(self, fns, kind, inputs, result):
        ident, _ = kind
        a = inputs[0]
        cert, text, loaded, rec, comp = result
        out = Outcome(record=text + io.dumps(io.encode_matrix(rec.value_op))
                      + io.dumps(io.encode_matrix(comp)))
        if io.dumps(io.envelope("certificate", io.certificate_payload(loaded))) != text:
            out.wrong = "certificate round trip is not bit-exact"
        truth = herm_part(fns[ident](a)) @ cert.v
        err = float(np.linalg.norm(rec.value - truth))
        value_ok = err <= 1e-6 * (1.0 + float(np.linalg.norm(truth)))
        scale = 1.0 + float(fro_norm(cert.pencil.b0))
        gates = {
            "support_margin": cert.support_margin >= -1e-7,
            "scalar_margin": cert.scalar_margin >= -1e-7,
            "trace_slack": cert.trace_slack >= -1e-8,
            "coeff_margin": cert.pencil.coeff_margin >= -1e-8 * scale,
            "dominance_margin": cert.pencil.dominance_margin >= -1e-8 * scale,
            "residual": rec.residual <= 1e-6,
            "value": value_ok,
        }
        missed = [gate for gate, ok in gates.items() if not ok]
        if missed:
            out.failed = f"support({ident}) missed {','.join(missed)}"
        if rec.residual <= 1e-6 and not value_ok:
            out.wrong = (f"reconstruction of {ident} has residual {rec.residual:.2e} "
                         f"but error {err:.2e}")
        if not np.all(np.isfinite(comp)) or not _psd_within(im_part(comp), comp):
            out.wrong = f"Schur complement for {ident} leaves the upper half-space"
        return out


# ---------------------------------------------------------------------------
# continuation: representations evaluated in the operator half-spaces


class Continuation:
    name = "continuation"
    key = 3
    min_cycles = 2  # 150 ops
    cycle_s = 8.0
    interval = (0.1, 10.0)
    # (representation, quadrature name, nodes, exponent, scalar function)
    builds = (
        ("sqrt", "sqrt", 64, None, np.sqrt),
        ("log1p", "log1p", 32, None, lambda z: np.log(1.0 + z)),
        ("pow:0.7", "pow", 48, 0.7, lambda z: z**0.7),
    )
    # Four upper-half-space ops (rotation search) to one right-half-space op
    # (the control: sector check without the search) per representation and
    # size; every size from 2 to 6 is in each cycle, so the mix of sizes is
    # the same in every run.
    mix = (("upper", 4), ("right", 1))
    sizes = (2, 3, 4, 5, 6)

    def setup(self, tracer):
        reps = {}
        for label, name, nodes, p, scalar in self.builds:
            rep = tracer.call("represent.build", rep_from_quadrature, name, nodes=nodes,
                              interval=self.interval, p=p)
            reps[label] = tracer.call("serialize", self._roundtrip, tracer, rep)
            # the warm evaluation is the principal-branch probe of criterion 10
            probe = tracer.call("represent.continue_upper", rep_eval_complex, reps[label],
                                ((1 + 1j) * np.eye(2),))
            truth = scalar(1 + 1j) * np.eye(2)
            branch = float(np.linalg.norm(probe - truth) / np.linalg.norm(truth))
            if branch > 2e-3:
                raise SetupCheckFailed(f"{label}: principal-branch error {branch:.2e} > 2e-3")
        return reps

    @staticmethod
    def _roundtrip(tracer, rep):
        """The CLI's file round trip between ``quadrep`` and ``repeval``."""
        text = io.dumps(io.envelope("representation", io.representation_payload(rep)))
        tracer.note(len(text))
        _, payload = io.parse_envelope(_loads(text), expect="representation")
        return io.representation_from_payload(payload)

    def cycle(self, reps):
        return [(half, label, n) for n in self.sizes for half, reps_per in self.mix
                for _ in range(reps_per) for label in reps]

    def inputs(self, reps, kind, rng):
        half, _, n = kind
        h = rand_herm(rng, n)
        p = rand_psd(rng, n) + 0.1 * np.eye(n)
        return h + 1j * p if half == "upper" else p + 1j * h

    def run(self, tracer, reps, kind, z):
        half, label, _ = kind
        return step(tracer, f"represent.continue_{half}", rep_eval_complex, reps[label], (z,))

    def check(self, reps, kind, z, value):
        half, label, _ = kind
        out = Outcome(record=io.dumps(io.encode_matrix(value)))
        part = im_part(value) if half == "upper" else re_part(value)
        if not np.all(np.isfinite(value)) or not _psd_within(part, value):
            out.wrong = f"{label} maps a tuple in the {half} half-space out of it"
        return out


WORKLOADS = {w.name: w for w in (Certify(), Support(), Continuation())}
