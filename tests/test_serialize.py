import json

import numpy as np
import pytest

from opmono import errors
from opmono import serialize as io
from opmono.freefun import lift_scalar
from opmono.pencil import pencil_new
from opmono.represent import PencilRepresentation, reconstruct, rep_from_quadrature, support_pencil
from opmono.sampling import rand_complex, rand_psd, rand_tuple_interval, rand_unit_vector
from opmono.schur import PivotSubspace


def bits(m):
    """The raw 64-bit words of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def rep_matrices(rep):
    return (*rep.pencil.coeffs, rep.pivot.basis, rep.state)


def dense_payload(rep):
    """A representation payload with every matrix in the dense form, as older files hold it."""
    payload = io.representation_payload(rep)
    payload.update(pencil=io.pencil_payload(rep.pencil), pivot_basis=io.encode_matrix(rep.pivot.basis),
                   state=io.encode_matrix(rep.state))
    return payload


class TestMatrixRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(0)
        m = rand_complex(rng, 4, 4)
        back = io.decode_matrix(json.loads(io.dumps(io.encode_matrix(m))))
        assert back.shape == m.shape
        assert np.array_equal(back, m)  # exact equality, not allclose

    def test_tuple_round_trip(self):
        rng = np.random.default_rng(1)
        x = rand_tuple_interval(rng, 3, 3, 0.5, 2.0)
        back = io.decode_tuple(json.loads(io.dumps(io.encode_tuple(x))))
        for a, b in zip(x, back):
            assert np.array_equal(a, b)

    def test_nan_rejected_on_encode(self):
        with pytest.raises(errors.DataError):
            io.encode_matrix(np.array([[np.nan]]))

    def test_inf_rejected_on_parse(self):
        with pytest.raises(errors.DataError):
            json.loads('[[Infinity, 0]]', parse_constant=io._reject_constant)

    def test_malformed_matrix(self):
        with pytest.raises(errors.DataError):
            io.decode_matrix([[1.0, 2.0]])  # entries must be [re, im] pairs


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rand_psd(rng, 3)
        path = tmp_path / "m.json"
        io.save(str(path), "matrix", io.encode_matrix(m))
        kind, payload = io.load(str(path))
        assert kind == "matrix"
        assert np.array_equal(io.decode_matrix(payload), m)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        io.save(str(path), "matrix", io.encode_matrix(np.eye(2)))
        with pytest.raises(errors.DataError):
            io.load(str(path), expect="pencil")

    def test_unknown_kind_rejected(self):
        with pytest.raises(errors.DataError):
            io.parse_envelope({"schema_version": "1", "kind": "sparse", "payload": []})

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version":"1","kind":"matrix","payload":[[[NaN,0]]]}')
        with pytest.raises(errors.DataError):
            io.load(str(path))


class TestStructuredPayloads:
    def test_pencil_round_trip(self):
        rng = np.random.default_rng(3)
        bi = [rand_psd(rng, 3) for _ in range(2)]
        p = pencil_new([sum(bi) + np.eye(3)] + bi)
        back = io.pencil_from_payload(json.loads(io.dumps(io.pencil_payload(p))))
        for a, b in zip(p.coeffs, back.coeffs):
            assert np.array_equal(a, b)

    def test_certificate_round_trip(self):
        rng = np.random.default_rng(4)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(lift_scalar("sqrt"), a, v, seed=5, validation_samples=40)
        back = io.certificate_from_payload(
            json.loads(io.dumps(io.certificate_payload(cert)))
        )
        assert back.function == cert.function
        assert back.c == cert.c
        assert np.array_equal(back.v, cert.v)
        for g1, g2 in zip(back.gradients, cert.gradients):
            assert np.array_equal(g1, g2)

    def test_certificate_stores_its_gradients_once(self):
        # the gradients are the pencil's B_1, ..., B_k: the file holds them
        # once, and a separate gradients entry, even a wrong one, is ignored
        rng = np.random.default_rng(4)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        v = rand_unit_vector(rng, 3)
        cert = support_pencil(lift_scalar("sqrt"), a, v, seed=5, validation_samples=40)
        payload = io.certificate_payload(cert)
        assert "gradients" not in payload
        payload["gradients"] = [io.encode_matrix(2 * g) for g in cert.gradients]
        back = io.certificate_from_payload(json.loads(io.dumps(payload)))
        assert all(np.array_equal(g, b) for g, b in zip(back.gradients, cert.pencil.bi))
        rec, expected = reconstruct(back), reconstruct(cert)
        assert rec.residual == expected.residual <= 1e-6
        assert np.array_equal(rec.value, expected.value)

    def test_certificate_derives_its_trace_slack(self):
        # trace_slack is trace_bound - tr(B_0): the file still writes it, with the bits the
        # certificate had, and a load reads it from the pencil, whatever value the file holds
        rng = np.random.default_rng(4)
        a = rand_tuple_interval(rng, 1, 3, 0.5, 2.0)
        cert = support_pencil(lift_scalar("sqrt"), a, rand_unit_vector(rng, 3), seed=5, validation_samples=40)
        payload = io.certificate_payload(cert)
        assert payload["trace_slack"] == cert.trace_bound - float(np.trace(cert.pencil.b0).real)
        payload["trace_slack"] = -1.0
        back = io.certificate_from_payload(json.loads(io.dumps(payload)))
        assert back.trace_slack == cert.trace_slack > 0

    def test_representation_round_trip(self):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.5, 2.0))
        back = io.representation_from_payload(
            json.loads(io.dumps(io.representation_payload(rep)))
        )
        assert np.array_equal(back.state, rep.state)
        assert np.array_equal(back.pivot.basis, rep.pivot.basis)
        for a, b in zip(back.pencil.coeffs, rep.pencil.coeffs):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name, nodes, p", [("sqrt", 64, None), ("log1p", 32, None), ("pow", 48, 0.7)],
                             ids=["sqrt-64", "log1p-32", "pow0.7-48"])
    def test_quadrature_representations_round_trip_bit_exactly(self, name, nodes, p):
        rep = rep_from_quadrature(name, nodes=nodes, interval=(0.1, 10.0), p=p)
        text = io.dumps(io.representation_payload(rep))
        back = io.representation_from_payload(json.loads(text))
        for a, b in zip(rep_matrices(back), rep_matrices(rep)):
            assert a.shape == b.shape and np.array_equal(bits(a), bits(b))
        assert back.meta == rep.meta and back.meta["nodes"] == nodes
        assert io.dumps(io.representation_payload(back)) == text

    def test_representation_matrices_are_stored_by_their_nonzero_entries(self):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.5, 2.0))
        payload = io.representation_payload(rep)
        for stored, m in zip([*payload["pencil"]["coefficients"], payload["pivot_basis"],
                              payload["state"]], rep_matrices(rep)):
            assert stored["shape"] == list(m.shape)
            ij = [(i, j) for i, j, _, _ in stored["entries"]]
            assert ij == sorted(ij) and len(ij) == np.count_nonzero(m)

    def test_a_dense_representation_loads_to_the_same_matrices(self):
        rep = rep_from_quadrature("log1p", nodes=16, interval=(0.5, 2.0))
        dense = io.representation_from_payload(json.loads(io.dumps(dense_payload(rep))))
        sparse = io.representation_from_payload(json.loads(io.dumps(io.representation_payload(rep))))
        for a, b in zip(rep_matrices(dense), rep_matrices(sparse)):
            assert np.array_equal(bits(a), bits(b))
        assert dense.meta == sparse.meta

    def test_negative_zeros_in_the_state_and_basis_round_trip(self):
        rep = rep_from_quadrature("sqrt", nodes=8, interval=(0.5, 2.0))
        # the state's Hermitian part keeps an imaginary -0.0 above the diagonal
        # (and +0.0 below it); negating the basis signs its zeros
        state = rep.state.copy()
        state[0, 2], state[2, 0] = complex(0.01, -0.0), complex(0.01, 0.0)
        signed = PencilRepresentation(rep.pencil, PivotSubspace(-rep.pivot.basis), state)
        assert np.signbit(signed.state[0, 2].imag) and np.signbit(signed.pivot.basis[1, 0].real)
        back = io.representation_from_payload(json.loads(io.dumps(io.representation_payload(signed))))
        assert np.array_equal(bits(back.state), bits(signed.state))
        assert np.array_equal(bits(back.pivot.basis), bits(signed.pivot.basis))

    def test_a_real_negative_zero_beside_an_imaginary_part_round_trips(self):
        # (-0.0 + 0.01j) above the diagonal and (-0.0 - 0.01j) below it: the state is
        # symmetrized with its real and imaginary parts halved apart, so both keep their -0.0
        rep = rep_from_quadrature("sqrt", nodes=8, interval=(0.5, 2.0))
        state = rep.state.copy()
        state[0, 2], state[2, 0] = complex(-0.0, 0.01), complex(-0.0, -0.01)
        signed = PencilRepresentation(rep.pencil, rep.pivot, state)
        assert np.signbit(signed.state[0, 2].real) and np.signbit(signed.state[2, 0].real)
        back = io.representation_from_payload(json.loads(io.dumps(io.representation_payload(signed))))
        assert np.array_equal(bits(back.state), bits(signed.state))

    def test_deterministic_dumps(self):
        rng = np.random.default_rng(6)
        m = rand_psd(rng, 3)
        s1 = io.dumps(io.envelope("matrix", io.encode_matrix(m)))
        s2 = io.dumps(io.envelope("matrix", io.encode_matrix(m.copy())))
        assert s1 == s2


NAN = float("nan")
INF = float("inf")
REJECTED = {
    "encode-nan-matrix": lambda: io.encode_matrix(np.array([[1.0, NAN]])),
    "encode-inf-imag-matrix": lambda: io.encode_matrix(np.array([[1.0 + INF * 1j]])),
    "encode-inf-vector": lambda: io.encode_matrix(np.array([1.0, -INF])),
    "encode-sparse-nan": lambda: io.encode_sparse(np.array([[0.0, 0.0], [NAN, 0.0]])),
    "decode-nan": lambda: io.decode_matrix([[[NAN, 0.0]]]),
    "decode-inf-imag": lambda: io.decode_matrix([[[0.0, INF]]]),
    "decode-vector-nan": lambda: io.decode_vector([[1.0, 0.0], [0.0, NAN]]),
    "string-entry": lambda: io.decode_matrix([[["1.0", "0.0"]]]),
    "null-entry": lambda: io.decode_matrix([[[None, 0.0]]]),
    "ragged-rows": lambda: io.decode_matrix([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]]),
    "too-shallow": lambda: io.decode_matrix([[1.0, 2.0]]),
    "too-deep": lambda: io.decode_matrix([[[[1.0, 0.0]]]]),
    "pair-of-three": lambda: io.decode_matrix([[[1.0, 0.0, 5.0]]]),
    "pair-of-one": lambda: io.decode_matrix([[[1.0]]]),
    "vector-too-deep": lambda: io.decode_vector([[[1.0, 0.0]]]),
    "vector-of-reals": lambda: io.decode_vector([1.0, 2.0]),
    "not-a-list": lambda: io.decode_matrix({"re": 1.0}),
    "envelope-a-list": lambda: io.parse_envelope([]),
    "envelope-schema-2": lambda: io.parse_envelope({"schema_version": "2", "kind": "matrix", "payload": []}),
}


def sparse(entries, shape=(2, 2)):
    return lambda: io.decode_matrix({"shape": list(shape), "entries": entries})


REJECTED.update({
    "sparse-row-out-of-range": sparse([[2, 0, 1.0, 0.0]]),
    "sparse-column-out-of-range": sparse([[0, 2, 1.0, 0.0]]),
    "sparse-index-negative": sparse([[-1, 0, 1.0, 0.0]]),
    "sparse-index-fractional": sparse([[0.5, 0, 1.0, 0.0]]),
    "sparse-index-float": sparse([[1.0, 0, 1.0, 0.0]]),
    "sparse-index-string": sparse([["0", 0, 1.0, 0.0]]),
    "sparse-index-bool": sparse([[True, 0, 1.0, 0.0]]),
    "sparse-duplicate": sparse([[0, 1, 1.0, 0.0], [1, 1, 2.0, 0.0], [0, 1, 3.0, 0.0]]),
    "sparse-entry-of-three": sparse([[0, 0, 1.0]]),
    "sparse-entry-of-five": sparse([[0, 0, 1.0, 0.0, 0.0]]),
    "sparse-entry-not-a-list": sparse([1.0]),
    "sparse-nan": sparse([[0, 0, NAN, 0.0]]),
    "sparse-inf-imag": sparse([[1, 1, 0.0, -INF]]),
    "sparse-string-value": sparse([[0, 0, "1.0", 0.0]]),
    "sparse-null-value": sparse([[0, 0, 1.0, None]]),
    "sparse-no-shape": lambda: io.decode_matrix({"entries": []}),
    "sparse-no-entries": lambda: io.decode_matrix({"shape": [2, 2]}),
    "sparse-entries-not-a-list": lambda: io.decode_matrix({"shape": [2, 2], "entries": {}}),
    "sparse-negative-shape": sparse([], shape=(-1, 2)),
    "sparse-shape-of-one": sparse([], shape=(2,)),
    "sparse-shape-of-floats": sparse([], shape=(2.0, 2.0)),
    "sparse-shape-too-big": sparse([], shape=(2**62, 2**62)),
})


class TestArrayCodec:
    @pytest.mark.parametrize("case", REJECTED, ids=str)
    def test_rejected(self, case):
        with pytest.raises(errors.DataError):
            REJECTED[case]()

    def test_text_matches_per_entry_encoding(self):
        # the reference writes each entry as [float(re), float(im)]
        rng = np.random.default_rng(7)
        m = rand_complex(rng, 3, 4)
        m[0, 0], m[1, 1], m[2, 2] = -0.0 + 0.0j, 5e-324 - 1e308j, complex(3, -0.0)
        ref = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert io.dumps(io.encode_matrix(m)) == io.dumps(ref)
        assert io.dumps(io.encode_matrix(m[0])) == io.dumps(ref[0])
        assert io.dumps(io.encode_matrix(np.arange(4).reshape(2, 2))) == io.dumps(
            [[[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [3.0, 0.0]]])

    def test_decoded_entries_are_the_pairs_bit_for_bit(self):
        payload = [[[-0.0, -0.0], [1, True]], [[False, 2.5], [5e-324, -1e308]]]
        back = io.decode_matrix(payload)
        ref = np.array([[complex(float(re), float(im)) for re, im in row] for row in payload])
        assert back.dtype == complex and back.shape == (2, 2)
        assert np.array_equal(back.view(float), ref.view(float))
        assert np.signbit(back[0, 0].real) and np.signbit(back[0, 0].imag)

    def test_empty_payloads(self):
        assert io.decode_vector([]).shape == (0,)
        assert io.decode_matrix([[], []]).shape == (2, 0)

    def test_sparse_entries_are_the_pairs_bit_for_bit(self):
        m = np.zeros((3, 4), dtype=complex)
        m[0, 0], m[0, 3], m[1, 1], m[2, 0] = complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324 - 1e308j, 2.5
        stored = io.encode_sparse(m)
        assert stored == {"shape": [3, 4], "entries": [[0, 0, -0.0, 0.0], [0, 3, 0.0, -0.0],
                                                       [1, 1, 5e-324, -1e308], [2, 0, 2.5, 0.0]]}
        back = io.decode_matrix(json.loads(io.dumps(stored)))
        assert np.array_equal(bits(back), bits(m))
        assert io.decode_matrix({"shape": [0, 3], "entries": []}).shape == (0, 3)

    def test_a_sparse_shape_past_the_cap_is_refused_before_allocating(self, tmp_path):
        # a file of under 100 bytes declaring one entry more than the cap
        path = tmp_path / "wide.json"
        io.save(str(path), "matrix", {"shape": [1, 4194305], "entries": []})
        assert path.stat().st_size < 100 and io.MAX_SPARSE_ENTRIES == 4194304
        _, payload = io.load(str(path), expect="matrix")
        with pytest.raises(errors.DataError, match=r"declare 4194305 entries, more than 4194304$"):
            io.decode_matrix(payload)
        at_cap = io.decode_matrix({"shape": [2048, 2048], "entries": [[2047, 2047, 1.0, 0.0]]})
        assert at_cap.shape == (2048, 2048) and at_cap[2047, 2047] == 1.0

    @pytest.mark.parametrize("kind", ["tuple", "pencil", "certificate", "representation"])
    def test_the_cap_counts_every_matrix_of_a_file(self, tmp_path, kind):
        # three 1200 x 1200 matrices, each under the cap, declare 4320000 entries together
        wide = [{"shape": [1200, 1200], "entries": []}] * 3
        payload = {"tuple": wide, "pencil": {"coefficients": wide},
                   "certificate": {"base_point": wide[:1], "pencil": {"coefficients": wide[1:]}},
                   "representation": {"pencil": {"coefficients": wide[:1]}, "pivot_basis": wide[1],
                                      "state": wide[2]}}[kind]
        path = tmp_path / f"{kind}.json"
        io.save(str(path), kind, payload)
        assert path.stat().st_size < 300
        decode = {"tuple": io.decode_tuple, "pencil": io.pencil_from_payload,
                  "certificate": io.certificate_from_payload,
                  "representation": io.representation_from_payload}[kind]
        with pytest.raises(errors.DataError, match=r"declare 4320000 entries, more than 4194304$"):
            decode(io.load(str(path), expect=kind)[1])

    def test_a_tuple_payload_without_matrices_is_refused(self, tmp_path):
        with pytest.raises(errors.DataError, match="no matrices"):
            io.decode_tuple([])
        path = tmp_path / "empty.json"
        io.save(str(path), "tuple", [])
        with pytest.raises(errors.DataError, match="no matrices"):
            io.decode_tuple(io.load(str(path), "tuple")[1])
