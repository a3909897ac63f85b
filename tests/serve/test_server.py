"""The HTTP contract: dedup over the wire, ETags, SSE, 4xx, parity.

Every test drives a real :class:`~repro.serve.server.ExperimentServer`
on an ephemeral port through the stdlib client -- the same stack CI's
serve-smoke job and ``repro submit`` use.
"""

import json
import threading

from repro.cli import main
from repro.engine import EngineCounters


def submit_concurrently(client, n, exhibit, params):
    """POST the same request from n threads; returns the responses."""
    responses = [None] * n
    barrier = threading.Barrier(n)

    def hit(i):
        barrier.wait()
        responses[i] = client.submit(exhibit, params)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses


def test_concurrent_identical_posts_cost_one_simulation(
        serve_factory, gated_exhibit):
    # the gate holds the one cold job in flight until every identical
    # request has been counted against it
    gate = gated_exhibit("gated-many")
    server, client = serve_factory()
    responses = submit_concurrently(client, 8, "gated-many",
                                    {"quick": True})
    statuses = sorted(r.status for r in responses)
    assert statuses == [200] * 7 + [201]     # exactly one cold creation
    ids = {r.json()["id"] for r in responses}
    assert len(ids) == 1
    job_id = ids.pop()
    assert gate.calls == 0 or gate.calls == 1
    gate.release.set()
    client.wait(job_id)
    assert gate.calls == 1                   # one simulation, full stop
    stats = client.stats()
    assert stats["requests"] == 8
    assert stats["cold_runs"] == 1
    assert stats["dedup_hits"] == 7
    manifest = json.loads(client.artifact(job_id, "manifest.json").body)
    assert manifest["served"] == {"requests": 8, "dedup_hits": 7,
                                  "cold_runs": 1}


def test_served_artifacts_are_byte_identical_to_repro_run(
        serve_factory, tmp_path, capsys):
    server, client = serve_factory()
    job_id = client.submit("table1", {"quick": True}).json()["id"]
    client.wait(job_id)

    out = tmp_path / "cli-out"
    assert main(["run", "table1", "--out", str(out),
                 "--no-telemetry"]) == 0
    capsys.readouterr()
    for name in ("table1.csv", "table1.svg", "table1.txt"):
        served = client.artifact(job_id, name)
        assert served.status == 200
        assert served.body == (out / name).read_bytes(), name


def test_served_manifest_engine_counters_match_the_cli_run(
        serve_factory, tmp_path, capsys, shrunk_fig3):
    server, client = serve_factory()
    job_id = client.submit("fig3a", {"quick": True}).json()["id"]
    client.wait(job_id)
    served = json.loads(client.artifact(job_id, "manifest.json").body)

    out = tmp_path / "cli-out"
    assert main(["run", "fig3a", "--out", str(out), "--no-telemetry"]) == 0
    capsys.readouterr()
    cli = json.loads((out / "manifest.json").read_text())

    def deterministic(block):
        return {name: block[name]
                for name in EngineCounters().deterministic()}

    # the parity satellite: what was computed must be identical however
    # the request arrived
    assert deterministic(served["engine"]) == deterministic(cli["engine"])
    assert served["engine"]["trials"] > 0
    assert served["schema"] == cli["schema"] == 5
    assert "served" in served and "served" not in cli


def test_etag_and_if_none_match_304(serve_factory):
    server, client = serve_factory()
    job_id = client.submit("table1").json()["id"]
    client.wait(job_id)
    first = client.artifact(job_id, "table1.csv")
    assert first.status == 200
    assert first.etag == f'"{job_id}/table1.csv"'
    assert "immutable" in first.headers["cache-control"]
    revalidated = client.artifact(job_id, "table1.csv", etag=first.etag)
    assert revalidated.status == 304
    assert revalidated.body == b""
    assert revalidated.etag == first.etag
    # a stale ETag still gets the bytes
    stale = client.artifact(job_id, "table1.csv", etag='"other/x.csv"')
    assert stale.status == 200 and stale.body == first.body


def test_artifact_listing_and_unknown_names(serve_factory):
    server, client = serve_factory()
    job_id = client.submit("table1").json()["id"]
    client.wait(job_id)
    listing = client.artifact(job_id).json()
    assert listing["id"] == job_id
    assert "table1.csv" in listing["artifacts"]
    assert client.artifact(job_id, "nope.csv").status == 404
    assert client.artifact(job_id, "..%2Fsecret").status == 404
    assert client.artifact("ffffffffffffffff", "x.csv").status == 404


def test_artifacts_of_a_running_job_are_409(serve_factory, gated_exhibit):
    gate = gated_exhibit("gated-http")
    server, client = serve_factory()
    job_id = client.submit("gated-http").json()["id"]
    assert gate.started.wait(timeout=10)
    busy = client.artifact(job_id, "table1.csv")
    assert busy.status == 409
    assert busy.json()["state"] == "running"
    assert busy.headers["retry-after"] == "1"
    gate.release.set()
    client.wait(job_id)
    assert client.artifact(job_id, "table1.csv").status == 200


def test_sse_stream_replays_from_seq(serve_factory, shrunk_fig3):
    server, client = serve_factory()
    job_id = client.submit("fig3a").json()["id"]
    client.wait(job_id)
    frames = list(client.events(job_id, timeout_s=30))
    assert frames[-1] == ("end", None, {"state": "done"})
    records = [data for event, _, data in frames if event == "message"]
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert records[0]["kind"] == "sweep.start"
    assert records[-1]["kind"] == "sweep.finish"
    assert any(r["kind"] == "trial.complete" for r in records)

    # a reconnecting client replays only what it has not seen
    last_seen = records[1]["seq"]
    replayed = [data for event, _, data
                in client.events(job_id, from_seq=last_seen + 1,
                                 timeout_s=30)
                if event == "message"]
    assert [r["seq"] for r in replayed] \
        == [r["seq"] for r in records[2:]]


def test_sse_streams_a_live_job(serve_factory, gated_exhibit):
    gate = gated_exhibit("gated-sse")
    server, client = serve_factory()
    job_id = client.submit("gated-sse").json()["id"]
    assert gate.started.wait(timeout=10)
    frames = []
    consumer = threading.Thread(
        target=lambda: frames.extend(client.events(job_id, timeout_s=30)))
    consumer.start()
    gate.release.set()
    consumer.join(timeout=30)
    assert not consumer.is_alive(), "SSE stream never closed"
    kinds = [data["kind"] for event, _, data in frames
             if event == "message"]
    assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.finish"
    assert frames[-1][0] == "end"


def test_4xx_surface(serve_factory):
    server, client = serve_factory()
    unknown = client.submit("nope")
    assert unknown.status == 404
    assert "unknown exhibit" in unknown.json()["error"]
    bad = client.submit("table1", {"quick": "yes"})
    assert bad.status == 400
    assert "must be bool" in bad.json()["error"]
    assert client.submit("table1", {"zap": 1}).status == 400
    assert client.request("POST", "/experiments", body=None).status == 400
    assert client.request("POST", "/elsewhere", body={}).status == 404
    assert client.request("GET", "/experiments/ffff").status == 404
    assert client.request("GET", "/experiments/ffff/events").status == 404
    assert client.request("GET", "/no/such/route").status == 404
    job_id = client.submit("table1").json()["id"]
    assert client.request(
        "GET", f"/experiments/{job_id}/events?from=xyz").status == 400
    client.wait(job_id)


def test_full_queue_is_503_over_http(serve_factory, gated_exhibit):
    gate1 = gated_exhibit("gated-h1")
    gate2 = gated_exhibit("gated-h2")
    gate3 = gated_exhibit("gated-h3")
    server, client = serve_factory(workers=1, queue_limit=1)
    first = client.submit("gated-h1")
    assert first.status == 201
    assert gate1.started.wait(timeout=10)
    assert client.submit("gated-h2").status == 201   # fills the queue
    refused = client.submit("gated-h3")
    assert refused.status == 503
    assert refused.headers["retry-after"] == "1"
    assert client.stats()["rejected"] == 1
    for gate in (gate1, gate2, gate3):
        gate.release.set()
    client.wait(first.json()["id"])


def test_health_listing_and_status_endpoints(serve_factory):
    server, client = serve_factory()
    assert client.healthz().json()["ok"] is True
    job_id = client.submit("table1").json()["id"]
    final = client.wait(job_id)
    assert final["deduped"] is True       # a status read is not a creation
    assert final["links"]["artifacts"] == f"/artifacts/{job_id}/"
    listing = client.request("GET", "/experiments").json()
    assert [j["id"] for j in listing["jobs"]] == [job_id]
