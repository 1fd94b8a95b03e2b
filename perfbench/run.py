"""opmono benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Every run executes a fixed number of whole cycles of its workload's op mix:
``round(--seconds / cycle_s)`` cycles, at least ``min_cycles``, where
``cycle_s`` is the time one cycle takes at the reference speed.  The op
count therefore depends only on the arguments, so a seed always gives the
same ops, the same outputs and the same failures, on any host.  Op seeds
come from ``--seed``; ``--heldout`` draws them from a second stream that
shares no inputs with the first, for confirming a claim on unseen inputs.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Each op
and each set-up is timed in process CPU time, which leaves out the time the
process waits for a CPU.  A fixed numpy calibration kernel runs just before
and just after each of them; the mean of those two CPU times says how fast
the host ran this kind of code at that moment, and the op's time is
rescaled by ``CAL_REF_S`` / that mean to the reference speed (see
perfbench/README.md).  Wall-clock figures are printed beside them.

``--trace 1`` reports the per-layer metrics instead.  It runs
``min_cycles`` whole cycles three times: untraced as the reference, then
twice with spans around every layer boundary.  It checks that the traced
outputs digest byte-identically to the untraced ones and that every count
repeats exactly between the two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit and op count, the failures, the
environment and lines of code per module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, fixed before numpy loads; the harness starts no processes.
# opmono and the harness's workloads module are imported only inside the
# timed set-up (import_opmono), so that the import counts in setup_s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The reference speed: times are rescaled to a host on which one calibrate()
# call takes this much process CPU time.  Only the ratio matters; 1 ms is
# close to the median on the 2-vCPU host the benchmark was written on (see
# perfbench/README.md), so rescaled times read close to its real ones.
CAL_REF_S = 0.001

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_opmono():
    """Import opmono afresh from ./src of the checkout; return the harness's workloads module.

    Modules of opmono and the harness's ``workloads``, which is built on it,
    are dropped from ``sys.modules`` first, so every call runs the whole
    import as a new process would, from the cached bytecode.  numpy is
    loaded once beforehand and stays: its import is a fixed cost outside
    the repository, and on a shared host it alone swings between about 0.10
    and 0.16 s from run to run, which would swamp the set-up it precedes.
    """
    if not (SRC / "opmono" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opmono sources under {SRC}; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m in ("opmono", "workloads") or m.startswith("opmono.")]:
        del sys.modules[name]
    import opmono
    import workloads

    if Path(opmono.__file__).resolve().parent != (SRC / "opmono").resolve():
        sys.exit(f"perfbench: imported opmono from {opmono.__file__}, not from {SRC}")
    return workloads


def op_rng(seed: int, workload_key: int, heldout: bool, index: int):
    import numpy as np

    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(workload_key, int(heldout), index))
    )


def calibration_kernel():
    """A fixed workload shaped like the ops; returns a function timing one pass.

    One batched ``eigh`` over 64 Hermitian 3x3 matrices, as in the mean
    solvers' chunks, a Python loop of 40 ``eigvalsh`` calls on 4x4 matrices,
    as in the rotation scan, and a plain Python loop for the interpreter
    work around them.  It does not touch opmono, so a change to the program
    leaves it alone.  On a shared host the CPU time of the same code swings
    by up to 1.6x within seconds (a busy sibling hyperthread, a shared
    cache); this kernel swings with the ops, so dividing by it removes most
    of that swing.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    g = rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3))
    batch = g + g.conj().transpose(0, 2, 1)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    small = [np.cos(k) * h + np.sin(k) * np.eye(4) for k in range(40)]
    # bound now, before any traced pass patches numpy.linalg, so no span counts them
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def calibrate() -> float:
        c0 = time.process_time()
        eigh(batch)
        for m in small:
            eigvalsh(m)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.process_time() - c0

    return calibrate


class Record:
    __slots__ = ("kind", "latency", "wall", "cal", "outcome", "layer", "typed")

    def __init__(self, kind, latency, wall, cal, outcome, layer=None, typed=None):
        self.kind, self.latency, self.wall, self.cal = kind, latency, wall, cal
        self.outcome, self.layer, self.typed = outcome, layer, typed

    @property
    def failed(self) -> bool:
        return self.outcome.failed is not None or self.outcome.wrong is not None


def run_pass(wl, state, tracer, seed, heldout, n_ops, calibrate=None):
    """Run the first ``n_ops`` ops of the repeated cycle; ``latency`` is CPU time.

    With ``calibrate`` given, it runs just before and just after every op, and
    ``cal`` is the mean of the two.
    """
    from workloads import StepError, failed_outcome

    cycle = wl.cycle(state)
    records: list[Record] = []
    while len(records) < n_ops:
        kind = cycle[len(records) % len(cycle)]
        inputs = wl.inputs(state, kind, op_rng(seed, wl.key, heldout, len(records)))
        before = calibrate() if calibrate else 0.0
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.root("op"):
                result = wl.run(tracer, state, kind, inputs)
            err = None
        except StepError as exc:
            err = exc
        c1, t1 = time.process_time(), time.perf_counter()
        cal = (before + calibrate()) / 2 if calibrate else None
        if err is not None:
            records.append(Record(kind, c1 - c0, t1 - t0, cal, failed_outcome(err), err.layer,
                                  err.typed))
        else:
            records.append(Record(kind, c1 - c0, t1 - t0, cal,
                                  wl.check(state, kind, inputs, result)))
    return records


def digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r.outcome.record.encode())
        h.update(b"\n")
    return h.hexdigest()


def tail_percentile(n_ops: int) -> int:
    """90, or with fewer than 100 ops the highest percentile with >= 10 ops beyond it.

    Runs of fewer than 20 ops get the median."""
    if n_ops >= 100:
        return 90
    return max(50, (100 * (n_ops - 10)) // n_ops)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def rescaled(records) -> list[float]:
    """Op CPU times rescaled to the reference speed by the calibration around each op."""
    return [r.latency * CAL_REF_S / r.cal for r in records]


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics from op CPU times rescaled to the reference speed."""
    lat = rescaled(records)
    wall = [r.wall for r in records]
    tail = tail_percentile(len(records))
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / sum(lat),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    notes = {
        "ops": len(records),
        "cpu_s": sum(r.latency for r in records),
        "cal_ms": statistics.median(r.cal for r in records) * 1e3,
        "wall_s": sum(wall),
        "wall_ops_per_s": len(records) / sum(wall),
        "wall_p50_ms": percentile(wall, 50) * 1e3,
        "wall_p90_ms": percentile(wall, tail) * 1e3,
        "op_p90_ms_percentile": tail,
        "failed_frac": sum(r.failed for r in records) / len(records),
    }
    return values, notes


# ---------------------------------------------------------------------------
# per-layer metrics from spans

LAYERS = (
    "freefun.eval",
    "freefun.vgrad",
    "cert",
    "represent.support",
    "represent.reconstruct",
    "schur.schur_pencil",
    "represent.continue_upper",
    "represent.continue_right",
    "serialize",
)
FAILURE_LAYERS = ("cert", "represent", "schur", "serialize")


def op_index(spans) -> list[int]:
    """For each span, the index of the op it belongs to; -1 for the set-up."""
    index: list[int] = []
    ops = 0
    for s in spans:
        if s.parent >= 0:
            index.append(index[s.parent])
        elif s.name == "op":
            index.append(ops)
            ops += 1
        else:
            index.append(-1)
    return index


def per_layer(tracer, records, untraced_s: float, loc: dict) -> dict:
    """Per-layer metrics of the set-up and the ops of one traced pass."""
    from tracing import KERNELS

    spans = tracer.spans
    which = op_index(spans)
    nested: list[float] = [0.0] * len(spans)  # time of child spans of other layers
    for s in spans:
        if s.parent >= 0 and s.name in LAYERS:
            nested[s.parent] += s.duration

    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for name in LAYERS:
        m[f"{name}.s"] = 0.0
        m[f"{name}.calls"] = 0
    for k in KERNELS:
        for part in ("calls", "mats"):
            m[f"linalg.{k}.{part}"] = 0
        m[f"linalg.{k}.s"] = 0.0
    for key in ("cert.self_s", "represent.support.self_s", "represent.build.s",
                "setup.serialize.s"):
        m[key] = 0.0
    for key in ("freefun.eval.rows", "linalg.n3_computed", "serialize.bytes",
                "represent.build.calls", "setup.serialize.bytes"):
        m[key] = 0

    for i, s in enumerate(spans):
        if which[i] < 0:
            if s.name == "represent.build":
                add("represent.build.s", s.duration)
                add("represent.build.calls", 1)
            elif s.name == "serialize":
                add("setup.serialize.s", s.duration)
                add("setup.serialize.bytes", s.size)
            continue
        if s.name in LAYERS:
            add(f"{s.name}.s", s.duration)
            add(f"{s.name}.calls", 1)
            if s.name in ("cert", "represent.support"):
                add(f"{s.name}.self_s", s.duration - nested[i])
            if s.name == "freefun.eval":
                add("freefun.eval.rows", s.size)
            elif s.name == "serialize":
                add("serialize.bytes", s.size)
        elif s.name.startswith("linalg."):
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.mats", s.size)
            add(f"{s.name}.s", s.duration)
            add("linalg.n3_computed", s.n3)

    rows = m["freefun.eval.rows"]
    m["ratio.eigh_per_row"] = m["linalg.eigh.mats"] / rows if rows else 0.0
    m["ratio.eigvalsh_per_op"] = m["linalg.eigvalsh.mats"] / len(records)
    m["cert.trials"] = sum(r.outcome.trials for r in records)
    m["cert.verdict_miss"] = sum(r.outcome.verdict_miss for r in records)
    for layer in FAILURE_LAYERS:
        for typed in (True, False):
            m[f"{layer}.failed.{'typed' if typed else 'untyped'}"] = sum(
                r.layer is not None and r.layer.split(".")[0] == layer and r.typed == typed
                for r in records
            )
    m["check.failed"] = sum(r.layer is None and r.failed for r in records)
    m["trace.ops"] = len(records)
    m["trace.overhead_frac"] = sum(rescaled(records)) / untraced_s - 1.0
    for module in LOC_MODULES:
        m[f"loc.{module}"] = loc.get(module, 0)
    m["loc.total"] = sum(loc.values())
    return m


def kernel_shares(tracer, records) -> list[str]:
    """Time per op kind, and the share of it spent in each numpy.linalg kernel."""
    which = op_index(tracer.spans)
    kernel_s: dict[tuple, dict[str, float]] = {}
    for i, s in enumerate(tracer.spans):
        if which[i] >= 0 and s.name.startswith("linalg."):
            per_kind = kernel_s.setdefault(records[which[i]].kind, {})
            per_kind[s.name[7:]] = per_kind.get(s.name[7:], 0.0) + s.duration
    total: dict[tuple, list[float]] = {}
    for r in records:  # wall clock, as the spans are
        total.setdefault(r.kind, []).append(r.wall)
    lines = []
    for kind, lat in total.items():
        parts = ", ".join(f"{k} {100 * v / sum(lat):.1f}%"
                          for k, v in sorted(kernel_s.get(kind, {}).items()))
        label = " ".join(str(part) for part in kind)
        lines.append(f"[{label}] {sum(lat):.4f} s over {len(lat)} ops; {parts}")
    return lines


def layer_unit(key: str) -> str:
    if key.endswith(".s") or key.endswith("self_s"):
        return "s"
    if key.endswith(".bytes"):
        return "bytes"
    if key.startswith("ratio.") or key == "trace.overhead_frac":
        return "ratio"
    if key.startswith("loc."):
        return "lines"
    return "count"


def repeats_exactly(a: dict, b: dict) -> list[str]:
    """Count metrics that differ between two traced passes over the same ops."""
    return [k for k in a if layer_unit(k) in ("count", "bytes") and not k.startswith("loc.")
            and a[k] != b[k]]


# ---------------------------------------------------------------------------
# environment stamp


# Modules reported as loc.<module>, fixed so every run reports the same keys;
# loc.total also counts any module added later.
LOC_MODULES = ("__init__", "__main__", "cert", "cli", "errors", "freefun", "gradients",
               "matcore", "pencil", "represent", "sampling", "schur", "serialize")


def lines_of_code() -> dict:
    """Lines per src/opmono module, as wc -l counts them."""
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((SRC / "opmono").glob("*.py"))}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "support", "continuation"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true",
                    help="draw op inputs from the held-out seed stream")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (loaded before anything is timed; see import_opmono)
    from tracing import NullTracer, Tracer

    loc = lines_of_code()
    env = environment()
    stream = " (held-out stream)" if args.heldout else ""
    print(f"perfbench {args.workload}: seed {args.seed}{stream}, closed loop, 1 caller, "
          f"trace {args.trace}")

    problems: list[str] = []
    if args.trace == 0:
        calibrate = calibration_kernel()
        setups = []
        for _ in range(SETUP_REPEATS):  # each one imports opmono afresh
            before = calibrate()
            c0 = time.process_time()
            wl = import_opmono().WORKLOADS[args.workload]
            state = wl.setup(NullTracer())
            cpu = time.process_time() - c0
            setups.append(cpu * CAL_REF_S / ((before + calibrate()) / 2))
        cycles = max(wl.min_cycles, round(args.seconds / wl.cycle_s))
        records = run_pass(wl, state, NullTracer(), args.seed, args.heldout,
                           cycles * len(wl.cycle(state)), calibrate)
        metrics, notes = end_to_end(records, statistics.median(setups))
        units = END_TO_END_UNITS
        print(f"  times are CPU times x {CAL_REF_S * 1e3:.3f} ms / the calibration kernel's time "
              f"around each (median {notes['cal_ms']:.3f} ms); wall clock in brackets")
        print(f"  {'setup_s':<12} {metrics['setup_s']:.4f} s  (median of {SETUP_REPEATS} imports "
              "of opmono, each with the workload's set-up)")
        print(f"  {'ops_per_s':<12} {metrics['ops_per_s']:.4f} 1/s  [{notes['wall_ops_per_s']:.4f}]"
              f"  ({notes['ops']} ops, {cycles} cycles, {notes['cpu_s']:.2f} s CPU, "
              f"{notes['wall_s']:.2f} s wall)")
        print(f"  {'op_p50_ms':<12} {metrics['op_p50_ms']:.3f} ms  [{notes['wall_p50_ms']:.3f}]"
              f"  ({notes['ops']} ops)")
        tail = notes["op_p90_ms_percentile"]
        print(f"  {'op_p90_ms':<12} {metrics['op_p90_ms']:.3f} ms  [{notes['wall_p90_ms']:.3f}]"
              f"  ({notes['ops']} ops"
              + (")" if tail == 90 else f"; reports p{tail}, since the run holds fewer "
                 "than 100 ops)"))
        print(f"  {'failed_frac':<12} {notes['failed_frac']:.4f}  "
              f"({sum(r.failed for r in records)} of {notes['ops']} ops)")
        print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.2f} MB")
    else:
        # A fixed number of ops, so every count is independent of host speed.
        wl = import_opmono().WORKLOADS[args.workload]
        state = wl.setup(NullTracer())
        n_ops = wl.min_cycles * len(wl.cycle(state))
        calibrate = calibration_kernel()  # for trace.overhead_frac only
        reference = run_pass(wl, state, NullTracer(), args.seed, args.heldout, n_ops, calibrate)
        untraced_s = sum(rescaled(reference))
        traced = []
        for _ in range(2):  # the second traced pass must repeat every count of the first
            tracer = Tracer()
            with tracer.root("setup"):
                state = wl.setup(tracer)
            records = run_pass(wl, state, tracer, args.seed, args.heldout, n_ops, calibrate)
            if not traced:
                shares = kernel_shares(tracer, records)
            traced.append((per_layer(tracer, records, untraced_s, loc), records))
            del tracer, state  # reduced; free the spans before the next pass
        (metrics, records), (second, repeat) = traced
        traced_digest = digest(records)
        if traced_digest != digest(reference) or digest(repeat) != digest(reference):
            problems.append("traced outputs do not digest identically to the untraced run")
        differing = repeats_exactly(metrics, second)
        for key in differing:
            problems.append(f"count {key} differs between two same-seed traced runs: "
                            f"{metrics[key]} vs {second[key]}")
        units = {k: layer_unit(k) for k in metrics}
        print(f"  {n_ops} ops ({wl.min_cycles} x {n_ops // wl.min_cycles}-op cycle) traced "
              f"twice; digest {traced_digest[:16]} matches untraced: "
              f"{traced_digest == digest(reference)}; counts repeat: {not differing}")
        for key in sorted(metrics):
            print(f"  {key:<34} {metrics[key]:.6g} {units[key]}")
        for line in shares:
            print(f"  share {line}")

    failures: dict[str, int] = {}
    for r in records:
        if r.failed:
            reason = r.outcome.failed or r.outcome.wrong
            failures[reason] = failures.get(reason, 0) + 1
        if r.outcome.wrong is not None:
            problems.append(r.outcome.wrong)
    for reason, count in sorted(failures.items()):
        print(f"  failed x{count}: {reason}")
    for problem in dict.fromkeys(problems):
        print(f"  INCORRECT: {problem}")

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("record " + json.dumps({"workload": wl.name, "seed": args.seed,
                                  "heldout": args.heldout, "trace": args.trace,
                                  "env": env, "loc": loc, "failures": failures}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
