"""Seeded multi-client stress: no deadlock, no torn bytes, one cold run.

M client threads fire K requests each (a seeded mix of exhibits)
against an in-process server; a second pass arms ``flaky_workers``
chaos so the supervised retry machinery runs *under served load*.
Both passes end the same way: every job done, every served artifact
byte-identical to a serial ``repro run`` of the same exhibit.
"""

import random
import sys
import threading

from repro.cli import main

CLIENTS = 8          #: M concurrent client threads
REQUESTS = 6         #: K requests per client
EXHIBITS = ("table1", "fig3a", "fig3b")


def _cli_artifacts(tmp_path, capsys, exhibit, **extra):
    """Serial ``repro run --out`` bytes for one exhibit, name -> bytes."""
    out = tmp_path / f"cli-{exhibit}"
    argv = ["run", exhibit, "--out", str(out), "--no-telemetry"]
    for flag, value in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    capsys.readouterr()
    # exhibit artifacts only: engine.metrics.csv is host timing, not output
    return {path.name: path.read_bytes()
            for path in out.iterdir()
            if path.suffix in (".csv", ".svg", ".txt")
            and path.name.startswith(exhibit)}


def _hammer(client, plan):
    """Run the seeded request plan from CLIENTS threads; returns responses."""
    responses = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)

    def one_client(requests):
        barrier.wait()
        mine = [client.submit(exhibit, {"quick": True})
                for exhibit in requests]
        with lock:
            responses.extend(mine)

    threads = [threading.Thread(target=one_client, args=(chunk,))
               for chunk in plan]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "client thread deadlocked"
    return responses


def _request_plan(seed=1234):
    rng = random.Random(seed)
    return [[rng.choice(EXHIBITS) for _ in range(REQUESTS)]
            for _ in range(CLIENTS)]


def test_stress_dedups_every_exhibit_to_one_cold_run(
        serve_factory, shrunk_fig3, tmp_path, capsys, handler_threads):
    server, client = serve_factory(workers=3, queue_limit=64)
    plan = _request_plan()
    # more clients than cores, switching threads as often as CPython can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        responses = _hammer(client, plan)
    finally:
        sys.setswitchinterval(interval)
    # handlers are reused: no more than the clients' connections, + 1
    assert len(set(handler_threads)) <= CLIENTS + 1

    statuses = [r.status for r in responses]
    assert len(statuses) == CLIENTS * REQUESTS
    assert set(statuses) <= {200, 201}, statuses      # nothing refused
    assert statuses.count(201) == len(EXHIBITS)       # one cold run each

    by_exhibit = {}
    for response in responses:
        doc = response.json()
        by_exhibit.setdefault(doc["exhibit"], set()).add(doc["id"])
    assert set(by_exhibit) == set(EXHIBITS)
    for exhibit, ids in by_exhibit.items():
        assert len(ids) == 1, f"{exhibit} fanned out to {ids}"

    stats = client.stats()
    assert stats["requests"] == CLIENTS * REQUESTS
    assert stats["cold_runs"] == len(EXHIBITS)
    assert stats["dedup_hits"] == CLIENTS * REQUESTS - len(EXHIBITS)
    assert stats["rejected"] == 0

    for exhibit, ids in by_exhibit.items():
        job_id = next(iter(ids))
        final = client.wait(job_id, timeout_s=120)
        assert final["state"] == "done", (exhibit, final)
        expected = _cli_artifacts(tmp_path, capsys, exhibit)
        for name, payload in sorted(expected.items()):
            served = client.artifact(job_id, name)
            assert served.status == 200, (exhibit, name)
            assert served.body == payload, f"torn bytes: {exhibit}/{name}"


def test_stress_under_flaky_worker_chaos_stays_byte_identical(
        serve_factory, shrunk_fig3, tmp_path, capsys):
    # chaos needs a supervised pool (engine_jobs=2); the fault plan
    # kills/hangs seeded first attempts while 4 clients x 3 requests
    # hammer the same exhibit
    server, client = serve_factory(
        workers=2, engine_jobs=2, flaky_workers=0.5, trial_timeout=5.0)
    barrier = threading.Barrier(4)
    responses = []
    lock = threading.Lock()

    def one_client():
        barrier.wait()
        mine = [client.submit("fig3a", {"quick": True}) for _ in range(3)]
        with lock:
            responses.extend(mine)

    threads = [threading.Thread(target=one_client) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "client thread deadlocked under chaos"

    assert sorted(r.status for r in responses) == [200] * 11 + [201]
    job_id = responses[0].json()["id"]
    final = client.wait(job_id, timeout_s=120)
    assert final["state"] == "done", final

    import json
    manifest = json.loads(client.artifact(job_id, "manifest.json").body)
    assert manifest["served"]["cold_runs"] == 1
    assert manifest["engine"]["trials"] > 0

    # a clean serial run is the byte oracle: retries must be invisible
    expected = _cli_artifacts(tmp_path, capsys, "fig3a")
    for name, payload in sorted(expected.items()):
        assert client.artifact(job_id, name).body == payload, name
