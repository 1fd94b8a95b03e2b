"""JSON file formats for matrices, tuples, pencils, certificates, and
representations.

Complex entries are two-element arrays [re, im].  Matrix, tuple, pencil and
certificate files write matrices dense, as row-major nested lists of pairs
(a certificate's pencil has no zero entries to leave out), through the one
dense encoder ``encode_matrix``, which writes a vector, such as a
certificate's v, as a list of pairs.  A representation
file writes its pencil coefficients, pivot basis and state sparse, as
{"shape": [r, c], "entries": [[i, j, re, im], ...]}: the entries with any
bit set, in row-major order, so a block-diagonal quadrature pencil stores
its cells and no zeros; a shape entry or index that fails
``matcore.is_count`` (a float or a bool included) is a DataError.  The sparse matrices of one payload may declare
at most ``MAX_SPARSE_ENTRIES`` entries in all.  ``decode_matrix`` reads
either form wherever a matrix is expected, so dense representation files
keep loading.  Finite doubles round-trip bit-exactly through json's repr
encoding, -0.0 included, and NaN/Inf are rejected in both directions.
Every file is an envelope {"schema_version": "1", "kind": ..., "payload": ...}.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from typing import Any

import numpy as np

from .cert import CertReport
from .errors import BadConfig, DataError, DimensionMismatch, OpmonoError
from .matcore import check_interval, is_count
from .pencil import LinearPencil, pencil_new
from .represent import PencilRepresentation, SupportCertificate
from .schur import PivotSubspace

__all__ = [
    "SCHEMA_VERSION",
    "MAX_SPARSE_ENTRIES",
    "encode_matrix",
    "encode_sparse",
    "decode_matrix",
    "encode_tuple",
    "decode_tuple",
    "decode_vector",
    "envelope",
    "parse_envelope",
    "pencil_payload",
    "pencil_from_payload",
    "certificate_payload",
    "certificate_from_payload",
    "representation_payload",
    "representation_from_payload",
    "report_payload",
    "dumps",
    "save",
    "load",
]

SCHEMA_VERSION = "1"
KINDS = ("matrix", "tuple", "pencil", "certificate", "representation", "report")
# the most entries the sparse matrices of one payload may declare together: their text
# bounds only the entries they store, so this bounds what a file of a few bytes allocates,
# 64 MiB; an N-node quadrature representation declares 3.5 (2N)^2, so this leaves room
# for 512 nodes, 8 times the default's 64
MAX_SPARSE_ENTRIES = 2**22


def _check_finite(x: float) -> float:
    if not np.isfinite(x):
        raise DataError("NaN/Inf are not permitted in data files")
    return float(x)


def encode_matrix(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, one pair per entry: the one dense encoder, of matrices and vectors alike."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise DataError("NaN/Inf are not permitted in data files")
    return np.stack([m.real, m.imag], axis=-1).tolist()


def encode_sparse(m: np.ndarray) -> dict:
    """{"shape": [r, c], "entries": [[i, j, re, im], ...]}, row-major, one entry per nonzero bit pattern.

    NaN and Inf have bits set, so ``encode_matrix`` sees and refuses them.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    i, j = np.nonzero(m.view(np.uint64).reshape(m.shape + (2,)).any(axis=-1))
    pairs = encode_matrix(m[i, j])
    return {"shape": list(m.shape),
            "entries": [[a, b, *pair] for a, b, pair in zip(i.tolist(), j.tolist(), pairs)]}


def _decode(obj: Any, depth: int, what: str) -> np.ndarray:
    """The complex array with ``depth`` axes whose entries ``obj`` gives as [re, im] pairs.

    Booleans, integers and floats are numbers; anything else (strings, null),
    ragged nesting, the wrong depth, a pair of other than two numbers and
    NaN/Inf raise DataError.
    """
    try:
        a = np.array(obj)
    except ValueError as exc:  # ragged nesting
        raise DataError(f"malformed {what} payload: {exc}") from exc
    if a.size == 0 and a.ndim == depth:  # no entries, so no pairs to find
        a = a.reshape(a.shape + (2,))
    if a.dtype.kind not in "biuf" or a.ndim != depth + 1 or a.shape[-1] != 2:
        raise DataError(f"malformed {what} payload: entries must be [re, im] pairs of "
                        f"numbers nested {depth} deep, found {a.dtype} of shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("NaN/Inf are not permitted in data files")
    return a.astype(float).view(complex)[..., 0]


def _is_index(k: Any, bound: float = np.inf) -> bool:
    return is_count(k, 0) and k < bound


def _check_declared(objs: Any) -> None:
    """Refuse matrix payloads whose sparse shapes declare more than ``MAX_SPARSE_ENTRIES`` entries in all."""
    shapes = [obj.get("shape") for obj in objs if isinstance(obj, dict)]
    total = sum(s[0] * s[1] for s in shapes if isinstance(s, list) and len(s) == 2 and all(map(_is_index, s)))
    if total > MAX_SPARSE_ENTRIES:
        raise DataError(f"malformed matrix payload: its sparse shapes declare {total} entries, "
                        f"more than {MAX_SPARSE_ENTRIES}")


def _decode_sparse(obj: dict) -> np.ndarray:
    """The matrix of an ``encode_sparse`` payload.

    The shape must be two non-negative integers with at most
    ``MAX_SPARSE_ENTRIES`` entries (``_check_declared``), each entry four
    items with integer indices inside it, and no (i, j) may appear twice;
    the values pass ``_decode``'s checks.
    """
    shape, entries = obj.get("shape"), obj.get("entries")
    if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_index, shape))
            and isinstance(entries, list)):
        raise DataError("malformed matrix payload: a sparse matrix needs a shape of two "
                        "non-negative integers and a list of entries")
    _check_declared([obj])
    rows, cols = shape
    if not all(isinstance(e, list) and len(e) == 4 and _is_index(e[0], rows)
               and _is_index(e[1], cols) for e in entries):
        raise DataError(f"malformed matrix payload: entries must be [i, j, re, im] with "
                        f"integer indices inside the shape {shape}")
    if len({(e[0], e[1]) for e in entries}) != len(entries):
        raise DataError("malformed matrix payload: an (i, j) entry appears twice")
    values = _decode([e[2:] for e in entries], 1, "matrix")
    m = np.zeros(shape, dtype=complex)
    m[[e[0] for e in entries], [e[1] for e in entries]] = values
    return m


def decode_matrix(obj: Any) -> np.ndarray:
    """The matrix of a dense (``encode_matrix``) or sparse (``encode_sparse``) payload."""
    return _decode_sparse(obj) if isinstance(obj, dict) else _decode(obj, 2, "matrix")


def decode_vector(obj: Any) -> np.ndarray:
    return _decode(obj, 1, "vector")


def encode_tuple(x: tuple[np.ndarray, ...]) -> list:
    return [encode_matrix(m) for m in x]


def decode_tuple(obj: Any) -> tuple[np.ndarray, ...]:
    """The matrices of a tuple payload; one without any raises DataError."""
    _check_declared(obj)
    xs = tuple(decode_matrix(m) for m in obj)
    if not xs:
        raise DataError("malformed tuple payload: it has no matrices")
    return xs


def _decoder(build):
    """Re-raise what a malformed payload triggers while it is decoded as DataError.

    That covers missing keys, wrong shapes or types, and the typed errors of
    the object the payload fails to build.
    """

    @functools.wraps(build)
    def decode(obj: Any):
        try:
            return build(obj)
        except DataError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, OpmonoError) as exc:
            raise DataError(f"malformed {build.__name__.removesuffix('_from_payload')} payload: "
                            f"{type(exc).__name__}: {exc}") from exc

    return decode


def pencil_payload(p: LinearPencil) -> dict:
    return {"coefficients": [encode_matrix(b) for b in p.coeffs]}


@_decoder
def pencil_from_payload(obj: Any) -> LinearPencil:
    _check_declared(obj["coefficients"])
    return pencil_new([decode_matrix(b) for b in obj["coefficients"]])


def certificate_payload(cert: SupportCertificate) -> dict:
    return {
        "function": cert.function,
        "base_point": encode_tuple(cert.base_point),
        "v": encode_matrix(cert.v),
        "pencil": pencil_payload(cert.pencil),
        "c": _check_finite(cert.c),
        "interval": [cert.interval[0], cert.interval[1]],
        "support_margin": _check_finite(cert.support_margin),
        "scalar_margin": _check_finite(cert.scalar_margin),
        "trace_bound": _check_finite(cert.trace_bound),
        "trace_slack": _check_finite(cert.trace_slack),
        "samples": cert.samples,
        "seed": cert.seed,
    }


@_decoder
def certificate_from_payload(obj: Any) -> SupportCertificate:
    """``gradients`` and ``trace_slack`` entries are ignored: both follow from the pencil (``SupportCertificate``).

    The seed, sample count and interval are refused as ``support_pencil``
    refuses them: a seed or count that fails ``matcore.is_count`` (at 0 and
    1), or an interval that fails ``matcore.check_interval``, is a DataError.
    So is a ``function`` that is not a non-empty string.  The name is not
    resolved: a representation's certificate is named ``<function>-rep``,
    which no catalogue identifier is.
    """
    _check_declared([*obj["base_point"], *obj["pencil"]["coefficients"]])
    if not (isinstance(obj["function"], str) and obj["function"]):
        raise DataError(f"certificate function must be a non-empty name, got {obj['function']!r}")
    interval = tuple(float(end) for end in obj["interval"])
    check_interval(interval)
    if not (is_count(obj["seed"], 0) and is_count(obj["samples"], 1)):
        raise BadConfig(f"seed {obj['seed']!r} and samples {obj['samples']!r} must be integers >= 0 and >= 1")
    cert = SupportCertificate(
        function=obj["function"],
        base_point=decode_tuple(obj["base_point"]),
        v=decode_vector(obj["v"]),
        pencil=pencil_from_payload(obj["pencil"]),
        c=float(obj["c"]),
        interval=interval,
        support_margin=float(obj["support_margin"]),
        scalar_margin=float(obj["scalar_margin"]),
        trace_bound=float(obj["trace_bound"]),
        samples=int(obj["samples"]),
        seed=int(obj["seed"]),
    )
    sizes = {cert.v.size, cert.pencil.size, *(m.shape[0] for m in cert.base_point)}
    arities = {len(cert.base_point), cert.pencil.arity}
    if len(sizes) != 1 or len(arities) != 1:
        raise DimensionMismatch("v, base point and pencil must share dimension and arity")
    return cert


def representation_payload(rep: PencilRepresentation) -> dict:
    return {
        "pencil": {"coefficients": [encode_sparse(b) for b in rep.pencil.coeffs]},
        "pivot_basis": encode_sparse(rep.pivot.basis),
        "state": encode_sparse(rep.state),
        "meta": {k: v for k, v in rep.meta.items() if isinstance(v, (str, int, float))},
    }


@_decoder
def representation_from_payload(obj: Any) -> PencilRepresentation:
    _check_declared([*obj["pencil"]["coefficients"], obj["pivot_basis"], obj["state"]])
    pencil = pencil_from_payload(obj["pencil"])
    return PencilRepresentation(
        pencil=pencil,
        pivot=PivotSubspace(decode_matrix(obj["pivot_basis"])),
        state=decode_matrix(obj["state"]),
        meta=dict(obj.get("meta", {})),
    )


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return encode_matrix(np.atleast_2d(value))
    if isinstance(value, (np.floating, float)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_payload(report: CertReport) -> dict:
    return _jsonable(asdict(report))


def envelope(kind: str, payload: Any) -> dict:
    if kind not in KINDS:
        raise DataError(f"unknown file kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def parse_envelope(obj: Any, expect: str | None = None) -> tuple[str, Any]:
    try:
        version = obj["schema_version"]
        kind = obj["kind"]
        payload = obj["payload"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"not a valid data file: {exc}") from exc
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported schema version {version!r}")
    if kind not in KINDS:
        raise DataError(f"unknown file kind {kind!r}")
    if expect is not None and kind != expect:
        raise DataError(f"expected a {expect} file, found {kind}")
    return kind, payload


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save(path: str, kind: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(envelope(kind, payload)))
        fh.write("\n")


def _reject_constant(token: str) -> float:
    raise DataError(f"non-finite constant {token!r} is not permitted in data files")


def load(path: str, expect: str | None = None) -> tuple[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise DataError(f"cannot parse {path}: {exc}") from exc
    return parse_envelope(obj, expect)
