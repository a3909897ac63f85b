"""BENCH_*.json schema: round-trips and stable bytes."""

import json

from repro.perf import (SCHEMA_VERSION, dump_bench, empty_doc, list_benches,
                        load_bench, write_bench)


def test_empty_doc_shape():
    doc = empty_doc("x")
    assert doc == {"schema": SCHEMA_VERSION, "name": "x",
                   "deterministic": {}}


def test_absent_and_corrupt_files_yield_fresh_docs(tmp_path):
    assert load_bench(tmp_path / "BENCH_gone.json")["name"] == "gone"
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json")
    assert load_bench(bad) == empty_doc("bad")
    bad.write_text(json.dumps({"schema": 99}))
    assert load_bench(bad) == empty_doc("bad")
    bad.write_text(json.dumps({"schema": 2, "deterministic": {"k": 1},
                               "host": {}}))
    assert load_bench(bad) == empty_doc("bad")


def test_write_is_byte_stable_and_sorted(tmp_path):
    path = write_bench(tmp_path, "x", {"b": 2, "a": 1})
    first = path.read_bytes()
    assert first.endswith(b"\n")
    write_bench(tmp_path, "x", {"b": 2, "a": 1})
    assert path.read_bytes() == first
    assert first.index(b'"a"') < first.index(b'"b"')


def test_dump_roundtrips(tmp_path):
    doc = empty_doc("y")
    doc["deterministic"]["k"] = 42
    assert json.loads(dump_bench(doc)) == doc


def test_list_benches_sorted(tmp_path):
    for name in ("zz", "aa"):
        write_bench(tmp_path, name, {})
    assert [p.name for p in list_benches(tmp_path)] \
        == ["BENCH_aa.json", "BENCH_zz.json"]
