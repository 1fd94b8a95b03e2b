import json

import numpy as np
import pytest

from opmono import errors
from opmono import serialize as io
from opmono.freefun import lift_scalar
from opmono.pencil import pencil_new
from opmono.represent import reconstruct, rep_from_quadrature, support_pencil
from opmono.sampling import rand_complex, rand_psd, rand_tuple_interval, rand_unit_vector


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

    def test_representation_round_trip(self):
        rep = rep_from_quadrature("sqrt", nodes=16, interval=(0.5, 2.0))
        back = io.representation_from_payload(
            json.loads(io.dumps(io.representation_payload(rep)))
        )
        assert np.array_equal(back.state, rep.state)
        assert np.array_equal(back.pivot.basis, rep.pivot.basis)
        for a, b in zip(back.pencil.coeffs, rep.pencil.coeffs):
            assert np.array_equal(a, b)

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
    "encode-inf-vector": lambda: io.encode_vector(np.array([1.0, -INF])),
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
}


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
        assert io.dumps(io.encode_vector(m[0])) == io.dumps(ref[0])
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
