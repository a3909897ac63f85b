"""Info keys, SPC records, requests."""

import pytest

from repro.mpi import Info, SPC
from repro.mpi.info import ALLOW_OVERTAKING
from repro.mpi.request import RecvRequest, SendRequest, Status
from repro.mpi.spc import SPCAggregate


class TestInfo:
    def test_bool_parsing_variants(self):
        for raw in ("true", "TRUE", "1", "yes", "on"):
            assert Info({ALLOW_OVERTAKING: raw}).allow_overtaking
        for raw in ("false", "0", "no", "off", "banana"):
            assert not Info({ALLOW_OVERTAKING: raw}).allow_overtaking
        assert not Info().allow_overtaking

    def test_bool_values_stringified(self):
        info = Info({ALLOW_OVERTAKING: True})
        assert info.get(ALLOW_OVERTAKING) == "true"
        assert info.allow_overtaking

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            Info({"": "x"})

    def test_copy_is_independent(self):
        a = Info({"k": "v"})
        b = a.copy()
        b.set("k", "w")
        assert a.get("k") == "v"
        assert a != b
        assert "k" in a

    def test_get_default(self):
        assert Info().get("missing", "fallback") == "fallback"
        assert Info().get_bool("missing", True) is True


class TestSPC:
    def test_oos_fraction(self):
        spc = SPC()
        assert spc.out_of_sequence_fraction == 0.0
        spc.messages_received = 10
        spc.out_of_sequence = 4
        assert spc.out_of_sequence_fraction == 0.4

    def test_watermarks(self):
        spc = SPC()
        spc.note_oos_depth(5)
        spc.note_oos_depth(3)
        spc.note_unexpected_depth(7)
        assert spc.oos_buffered_high_watermark == 5
        assert spc.unexpected_high_watermark == 7

    def test_as_dict_roundtrip(self):
        spc = SPC(messages_sent=3, match_time_ns=2_000_000)
        d = spc.as_dict()
        assert d["messages_sent"] == 3
        assert d["match_time_ms"] == 2.0

    def test_aggregate(self):
        a, b = SPC(messages_sent=1, oos_buffered_high_watermark=5), \
               SPC(messages_sent=2, oos_buffered_high_watermark=9)
        agg = SPCAggregate()
        agg.add(a)
        agg.add(b)
        total = agg.total()
        assert total.messages_sent == 3
        assert total.oos_buffered_high_watermark == 9


class TestRequests:
    def test_send_request_fields(self):
        req = SendRequest(dst=1, tag=2, nbytes=3)
        assert not req.completed and req.error is None
        req._complete(now=123)
        assert req.completed and req.completed_at == 123

    def test_recv_request_failure(self):
        req = RecvRequest(src=0, tag=1, capacity=10)
        err = RuntimeError("x")
        req._fail(err, now=5)
        assert req.completed and req.error is err

    def test_status_immutable(self):
        st = Status(source=1, tag=2, nbytes=3)
        with pytest.raises(Exception):
            st.source = 9
