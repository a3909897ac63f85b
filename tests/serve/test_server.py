"""The HTTP contract: dedup over the wire, ETags, SSE, 4xx, parity.

Every test drives a real :class:`~repro.serve.server.ExperimentServer`
on an ephemeral port through the stdlib client -- the same stack CI's
serve-smoke job and ``repro submit`` use.
"""

import json
import threading
import time

from repro.cli import main
from repro.engine import EngineCounters
from repro.obs.live import EVENTS_NAME, read_events
from repro.serve import ServeClient
from repro.serve.sse import end_frame, format_event


def open_streams(client, job_id, n):
    """Start n SSE readers; returns ``(threads, frame lists)``.

    Returns once every reader has its first frame, so all n streams are
    open on the server.
    """
    frames = [[] for _ in range(n)]
    opened = [threading.Event() for _ in range(n)]

    def read(i):
        for frame in client.events(job_id, timeout_s=30):
            frames[i].append(frame)
            opened[i].set()

    threads = [threading.Thread(target=read, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for event in opened:
        assert event.wait(timeout=10), "an SSE stream never opened"
    return threads, frames


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


def test_only_the_files_a_job_recorded_are_served(serve_factory):
    server, client = serve_factory()
    job_id = client.submit("table1").json()["id"]
    client.wait(job_id)
    job = server.index.get(job_id)
    recorded = client.artifact(job_id).json()["artifacts"]
    assert "manifest.json" in recorded and "telemetry" not in recorded
    # files that appear after ``done`` are not the job's artifacts
    (job.dir / "late.txt").write_text("written after done\n")
    (job.dir / ".hidden").write_text("hidden\n")
    assert client.artifact(job_id).json()["artifacts"] == recorded
    assert client.status(job_id).json()["artifacts"] == recorded
    assert client.request("GET", "/experiments").json()["jobs"][0][
        "artifacts"] == recorded
    for name in ("late.txt", "telemetry", ".hidden", "..%2Fmanifest.json"):
        assert client.artifact(job_id, name).status == 404, name
    assert client.artifact(job_id, "manifest.json").status == 200


def test_sse_replay_bytes_equal_the_reencoded_log(serve_factory,
                                                   shrunk_fig3):
    server, client = serve_factory()
    job_id = client.submit("fig3a").json()["id"]
    client.wait(job_id)
    log = read_events(server.index.get(job_id).telemetry_dir / EVENTS_NAME)
    assert len(log) > 3
    for from_seq in (0, 3):
        body = client.request(
            "GET", f"/experiments/{job_id}/events?from={from_seq}").body
        assert body == b"".join(format_event(r) for r in log
                                if r["seq"] >= from_seq) + end_frame("done")


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


def test_stop_returns_promptly(serve_factory):
    # the accept loop polls for shutdown every POLL_INTERVAL_S, so a stop
    # does not wait out socketserver's default half-second poll
    server, client = serve_factory()
    assert client.healthz().json()["ok"] is True
    t0 = time.perf_counter()
    server.stop()
    assert time.perf_counter() - t0 < 0.25


def test_sequential_requests_reuse_handler_threads(serve_factory,
                                                   handler_threads):
    server, client = serve_factory()
    for _ in range(20):
        assert client.healthz().status == 200
        # the handler goes idle only after closing the connection: wait
        # for that, so the next request must find it rather than race it
        deadline = time.monotonic() + 5
        while len(server.httpd._idle) != 1:
            assert time.monotonic() < deadline, "the handler never went idle"
            time.sleep(0.001)
    assert len(handler_threads) == 20
    assert len(set(handler_threads)) == 1


def test_open_streams_never_block_other_requests(serve_factory,
                                                 gated_exhibit):
    gate = gated_exhibit("gated-streams")
    server, client = serve_factory()
    job_id = client.submit("gated-streams").json()["id"]
    assert gate.started.wait(timeout=10)
    readers, frames = open_streams(client, job_id, 6)
    quick = ServeClient(server.url, timeout_s=5)
    for call in (quick.healthz, lambda: quick.submit("table1"),
                 lambda: quick.request("GET", "/stats")):
        t0 = time.monotonic()
        assert call().status in (200, 201)
        assert time.monotonic() - t0 < 5.0
    gate.release.set()
    for t in readers:
        t.join(timeout=30)
        assert not t.is_alive(), "SSE stream never closed"
    for stream in frames:
        assert stream[-1] == ("end", None, {"state": "done"})


def test_stop_ends_every_handler_thread(serve_factory, gated_exhibit,
                                        handler_threads):
    gate = gated_exhibit("gated-stop")
    server, client = serve_factory()
    for _ in range(3):
        assert client.healthz().status == 200
    job_id = client.submit("gated-stop").json()["id"]
    assert gate.started.wait(timeout=10)
    readers, frames = open_streams(client, job_id, 1)
    # stop() closes the listener with the stream still open, then
    # drains the job index, which waits for the gated job
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    deadline = time.monotonic() + 10.0
    while server.httpd.socket.fileno() != -1:
        assert time.monotonic() < deadline, "stop() never closed"
        time.sleep(0.01)
    gate.release.set()
    stopper.join(timeout=30)
    assert not stopper.is_alive(), "stop() never returned"
    deadline = time.monotonic() + 2.0
    for thread in set(handler_threads):
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), f"{thread.name} outlived stop()"
    readers[0].join(timeout=5)
    assert not readers[0].is_alive(), "SSE stream never closed"
    assert frames[0][-1] == ("end", None, {"state": "done"})
