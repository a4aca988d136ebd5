"""Tests for the vendor NVMe command layer."""

import numpy as np
import pytest

from repro.core.api import DeepStoreDevice
from repro.core.commands import (
    HEADER_BYTES,
    OP_APPEND_DB,
    OP_GET_RESULT,
    OP_LOAD_MODEL,
    OP_QUERY,
    OP_READ_DB,
    OP_SET_QC,
    OP_WRITE_DB,
    Command,
    CommandError,
    CommandTransport,
    decode_result_payload,
    encode_query,
)
from repro.nn import graph_to_bytes
from repro.workloads import get_app


@pytest.fixture
def transport():
    return CommandTransport(DeepStoreDevice())


def write_db(transport, features):
    completion = transport.submit(
        Command(OP_WRITE_DB, transport.next_cid(), (features.shape[1],),
                features.astype(np.float32).tobytes())
    )
    assert completion.ok
    return completion.result[0]


class TestEncoding:
    def test_header_is_64_bytes(self):
        assert HEADER_BYTES == 64
        cmd = Command(OP_READ_DB, 1, (2, 3, 4))
        assert len(cmd.encode()) == 64

    def test_roundtrip(self):
        cmd = Command(OP_QUERY, 7, (10, 1, 2, 0, 100, 1), b"\x01\x02")
        decoded = Command.decode(cmd.encode())
        assert decoded.opcode == OP_QUERY
        assert decoded.command_id == 7
        assert decoded.params[:6] == (10, 1, 2, 0, 100, 1)
        assert decoded.payload == b"\x01\x02"
        assert decoded.name == "QUERY"

    def test_bad_opcode(self):
        with pytest.raises(CommandError):
            Command(0x42, 1, ())

    def test_too_many_params(self):
        with pytest.raises(CommandError):
            Command(OP_READ_DB, 1, tuple(range(8)))

    def test_short_blob(self):
        with pytest.raises(CommandError):
            Command.decode(b"short")

    def test_encode_query_level_validation(self):
        with pytest.raises(CommandError):
            encode_query(1, np.zeros(4, np.float32), 5, 1, 1,
                         accel_level="rack")


class TestTransport:
    def test_write_then_read(self, transport, rng):
        features = rng.normal(0, 1, (64, 16)).astype(np.float32)
        db_id = write_db(transport, features)
        completion = transport.submit(
            Command(OP_READ_DB, transport.next_cid(), (db_id, 8, 4))
        )
        assert completion.ok
        out = np.frombuffer(completion.payload, dtype=np.float32).reshape(4, 16)
        np.testing.assert_array_equal(out, features[8:12])

    def test_append(self, transport, rng):
        features = rng.normal(0, 1, (10, 8)).astype(np.float32)
        db_id = write_db(transport, features)
        more = rng.normal(0, 1, (5, 8)).astype(np.float32)
        completion = transport.submit(
            Command(OP_APPEND_DB, transport.next_cid(), (db_id, 8),
                    more.tobytes())
        )
        assert completion.ok
        assert transport.device.ssd.ftl.get(db_id).feature_count == 15

    def test_full_query_flow(self, transport, rng):
        app = get_app("tir")
        features = rng.normal(0, 1, (2048, 512)).astype(np.float32)
        db_id = write_db(transport, features)

        model_blob = graph_to_bytes(app.build_scn(seed=1))
        load = transport.submit(
            Command(OP_LOAD_MODEL, transport.next_cid(), (), model_blob)
        )
        assert load.ok
        model_id = load.result[0]

        qfv = rng.normal(0, 1, 512).astype(np.float32)
        query = transport.submit(
            encode_query(transport.next_cid(), qfv, k=5,
                         model_id=model_id, db_id=db_id)
        )
        assert query.ok
        query_id = query.result[0]

        result = transport.submit(
            Command(OP_GET_RESULT, transport.next_cid(), (query_id,))
        )
        assert result.ok
        unpacked = decode_result_payload(result)
        assert len(unpacked["feature_ids"]) == 5
        assert unpacked["latency_us"] > 0
        assert list(unpacked["scores"]) == sorted(unpacked["scores"],
                                                  reverse=True)

    def test_set_qc(self, transport):
        completion = transport.submit(
            Command(OP_SET_QC, transport.next_cid(), (100, 64, 980))
        )
        assert completion.ok
        cache = transport.device.query_cache
        assert cache is not None
        assert cache.threshold == pytest.approx(0.10)
        assert cache.capacity == 64
        assert cache.qcn_accuracy == pytest.approx(0.98)

    def test_error_surfaces_as_status(self, transport):
        completion = transport.submit(
            Command(OP_READ_DB, transport.next_cid(), (99, 0, 1))
        )
        assert not completion.ok
        assert b"unknown database" in completion.payload

    def test_submit_bytes(self, transport, rng):
        features = rng.normal(0, 1, (4, 8)).astype(np.float32)
        blob = Command(OP_WRITE_DB, transport.next_cid(), (8,),
                       features.tobytes()).encode()
        completion = transport.submit_bytes(blob)
        assert completion.ok

    def test_accounting(self, transport, rng):
        features = rng.normal(0, 1, (4, 8)).astype(np.float32)
        write_db(transport, features)
        assert transport.commands_processed == 1
        assert transport.bytes_transferred >= 64 + features.nbytes
        assert transport.transfer_seconds(3_200_000_000) == pytest.approx(1.0)
