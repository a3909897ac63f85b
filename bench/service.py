"""The ``service`` workload: ``repro serve`` lifetimes driven over HTTP.

One server subprocess at a time (``--port 0 --workers 1``) and a client
on stdlib ``http.client`` with at most ``CLIENTS`` threads, each holding
one connection at a time.  The service's trial cache is pre-warmed
once per checkout and source tree with the quick ``EXHIBITS``, so every
job a lifetime runs is an index miss served as a warm-cache engine
replay: the work is CLI start-up and import, the engine's trial cache,
live telemetry, artifact writing and the HTTP layer, and the simulator
does almost none.

Each lifetime:

1. spawns the server and polls ``/healthz`` until it answers 200
   (that interval is one ``setup_s`` sample);
2. submits the six exhibits one after another and polls each job every
   ``POLL_S`` until it is done; the time from the POST to the server's
   ``finished_at`` stamp is one job sample (one job at a time, so no job
   waits in the queue behind another this client sent);
3. makes ``len(KINDS) * PER_KIND`` requests from a closed loop of
   ``CLIENTS`` threads -- dedup POST, status GET, artifact GET,
   ``If-None-Match`` -> 304, SSE replay of the finished job, and
   ``/stats`` -- each one op sample;
4. stops the server with SIGINT and reads its peak RSS from ``wait4``.

An unexpected status, a job that is not ``done``, artifact bytes that
differ from the committed digests or from the first lifetime's, and any
exception each count as a failed operation.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import oracle

EXHIBITS = ("table1", "ext-modes", "chaos", "ext-latency", "table2",
            "ext-instances")
SUFFIXES = (".csv", ".svg", ".txt")
KINDS = ("dedup", "status", "artifact", "revalidate", "events", "stats")
PER_KIND = 7
CLIENTS = 2
MIN_LIFETIMES = 25
#: status-poll interval while a job runs; polls are GIL work the server's
#: job thread must share, so they are kept sparse
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0


class ServiceError(RuntimeError):
    """A lifetime could not be run at all (server did not start)."""


def exchange(port: int, method: str, path: str, body=None, headers=None,
             timeout: float = HTTP_TIMEOUT_S):
    """One HTTP exchange on a fresh connection: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        send = dict(headers or {})
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            send["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=send)
        resp = conn.getresponse()
        return (resp.status, {k.lower(): v for k, v in resp.getheaders()},
                resp.read())
    finally:
        conn.close()


def plan(seed: int, k: int):
    """Lifetime ``k``'s work: the submission order and per-thread requests.

    The multiset of requests is the same for every seed and lifetime;
    the seed only picks the order, and which thread sends what.
    """
    rng = random.Random(f"service/{seed}/{k}")
    exhibits = list(EXHIBITS)
    rng.shuffle(exhibits)
    requests = [(kind, EXHIBITS[(j + o) % len(EXHIBITS)],
                 SUFFIXES[j % len(SUFFIXES)])
                for o, kind in enumerate(KINDS) for j in range(PER_KIND)]
    rng.shuffle(requests)
    return exhibits, [requests[c::CLIENTS] for c in range(CLIENTS)]


def source_stamp(src_dir) -> str:
    """Digest of every ``.py`` file under ``src_dir`` (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Service:
    """State shared by every lifetime of one workload run."""

    def __init__(self, root, work, env, expected: dict, profile_dir=None,
                 collect_artifacts: bool = False):
        self.root = root                  # the checkout
        self.work = work                  # bench/.out/serve
        self.serve_root = work / "root"   # --root; its .cache is pre-warmed
        self.env = env
        self.expected = expected
        self.reference: dict = {}         # (exhibit, name) -> first sha256
        self.profile_dir = profile_dir    # where traced lifetimes dump
        self.collect_artifacts = collect_artifacts

    # -- pre-warm --------------------------------------------------------
    def prewarm(self) -> dict:
        """Fill the service's trial cache once per source tree.

        Returns the cold pre-warm's accounting: the engine's busy and
        wall nanoseconds summed over the exhibits' manifests.
        """
        stamp = source_stamp(self.root / "src" / "repro")
        marker = self.work / "prewarm" / "stamp"
        if not (marker.is_file() and marker.read_text() == stamp):
            shutil.rmtree(self.work, ignore_errors=True)
            env = dict(self.env, REPRO_TRIAL_CACHE=str(self.serve_root / ".cache"))
            for exhibit in EXHIBITS:
                done = subprocess.run(
                    [sys.executable, "-m", "repro", "run", exhibit, "--out",
                     str(self.work / "prewarm" / exhibit)],
                    env=env, cwd=self.root, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True, timeout=300)
                if done.returncode != 0:
                    raise ServiceError(f"pre-warm of {exhibit} failed:\n"
                                       f"{done.stderr[-2000:]}")
            marker.write_text(stamp)
        busy = wall = 0
        for exhibit in EXHIBITS:
            manifest = json.loads(
                (self.work / "prewarm" / exhibit / "manifest.json").read_text())
            host = manifest["engine"]["host"]
            if manifest["engine"]["trials"]:
                busy += host["busy_ns"]
                wall += host["wall_ns"]
        return {"busy_ns": busy, "wall_ns": wall}

    # -- one lifetime ----------------------------------------------------
    def lifetime(self, seed: int, k: int, traced: bool = False) -> dict:
        """Spawn, drive and stop one server; returns its samples."""
        shutil.rmtree(self.serve_root / "jobs", ignore_errors=True)
        serve_args = ["serve", "--root", str(self.serve_root), "--port", "0",
                      "--workers", "1"]
        profile = None
        if traced:
            profile = self.profile_dir / f"serve-{k}.json"
            cmd = [sys.executable, str(self.root / "bench" / "serve_traced.py"),
                   str(profile)] + serve_args
        else:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        rec = {"k": k, "traced": traced, "jobs": [], "requests": [],
               "failures": [], "profile": str(profile) if profile else None}
        with open(self.work / "serve.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=log,
                                    env=self.env, cwd=self.root, text=True)
            try:
                port = self._await_ready(proc, start)
                rec["setup_s"] = time.perf_counter() - start
                self._drive(port, seed, k, rec)
            finally:
                rec["exit_code"], rec["rss_kb"] = self._stop(proc)
                rec["wall_s"] = time.perf_counter() - start
        if rec["exit_code"] != 0:
            rec["failures"].append(f"server exit code {rec['exit_code']}")
        return rec

    def _await_ready(self, proc, start: float) -> int:
        line = proc.stdout.readline()
        match = re.search(r"serving on http://[\d.]+:(\d+)", line)
        if match is None:
            raise ServiceError(f"server did not start ({line!r}); see "
                               f"{self.work / 'serve.log'}")
        port = int(match.group(1))
        while True:
            try:
                if exchange(port, "GET", "/healthz", timeout=5)[0] == 200:
                    return port
            except OSError:
                pass
            if time.perf_counter() - start > 30:
                raise ServiceError("server never answered /healthz")
            time.sleep(0.002)

    def _stop(self, proc) -> tuple[int, int]:
        """SIGINT, then wait (SIGKILL after a grace period).

        Returns the server's exit code and peak RSS (KiB, from ``wait4``).
        """
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            try:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            except ChildProcessError:       # already reaped by poll()
                proc.stdout.close()
                return proc.returncode, 0
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        return proc.returncode, usage.ru_maxrss

    def _drive(self, port: int, seed: int, k: int, rec: dict) -> None:
        exhibits, requests = plan(seed, k)
        ids: dict[str, str] = {}
        for exhibit in exhibits:
            try:
                rec["jobs"].append(self._job(port, exhibit, ids, rec))
            except (OSError, ValueError, KeyError,
                    http.client.HTTPException) as exc:
                rec["failures"].append(f"job {exhibit}: {exc!r}")
        outs = [{"requests": [], "failures": []} for _ in range(CLIENTS)]
        threads = [threading.Thread(target=self._client, name=f"client-{c}",
                                    args=(port, requests[c], ids, outs[c]))
                   for c in range(CLIENTS)]
        begin = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=HTTP_TIMEOUT_S * len(requests[0]))
            if t.is_alive():
                rec["failures"].append(f"{t.name} did not finish")
        rec["phase2_s"] = time.perf_counter() - begin
        for out in outs:
            rec["requests"] += out["requests"]
            rec["failures"] += out["failures"]
        if self.collect_artifacts:
            rec["artifacts"] = self.fetch_all(port, ids)
        try:
            status, _, body = exchange(port, "GET", "/stats")
            rec["stats"] = json.loads(body) if status == 200 else {}
        except (OSError, ValueError, http.client.HTTPException) as exc:
            rec["failures"].append(f"final /stats: {exc!r}")
            rec["stats"] = {}

    # -- request phase: one closed-loop client thread ----------------------
    def _client(self, port, requests, ids, out) -> None:
        for kind, exhibit, suffix in requests:
            t0 = time.perf_counter()
            try:
                problem = self._request(port, kind, exhibit, suffix, ids)
            except (OSError, ValueError, KeyError,
                    http.client.HTTPException) as exc:
                problem = repr(exc)
            out["requests"].append({"kind": kind,
                                    "s": time.perf_counter() - t0})
            if problem is not None:
                out["failures"].append(f"{kind} {exhibit}{suffix}: {problem}")

    def _job(self, port, exhibit, ids, rec) -> dict:
        """Submit one exhibit and poll it until done; its submission is
        also recorded in ``rec`` as a request."""
        posted_at = time.time()
        t0 = time.perf_counter()
        status, _, body = exchange(port, "POST", "/experiments",
                                   {"exhibit": exhibit,
                                    "params": {"quick": True}})
        rec["requests"].append({"kind": "submit",
                                "s": time.perf_counter() - t0})
        if status != 201:
            raise ValueError(f"submit answered {status}: {body[:200]!r}")
        job_id = json.loads(body)["id"]
        ids[exhibit] = job_id
        while True:
            status, _, body = exchange(port, "GET", f"/experiments/{job_id}")
            doc = json.loads(body)
            if status != 200:
                raise ValueError(f"status poll answered {status}")
            if doc["state"] in ("done", "failed"):
                break
            if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                raise ValueError(f"job still {doc['state']} after "
                                 f"{JOB_TIMEOUT_S}s")
            time.sleep(POLL_S)
        if doc["state"] != "done":
            raise ValueError(f"job {doc['state']}: {doc.get('error')}")
        counters = doc.get("counters", {})
        # POST -> done on one host clock: the server stamps the moment the
        # job turned done, so the poll interval does not quantise it
        return {"exhibit": exhibit, "id": job_id,
                "s": doc["finished_at"] - posted_at,
                "queue_wait_s": doc["started_at"] - posted_at,
                "run_s": doc["finished_at"] - doc["started_at"],
                "cache_hits": counters.get("cache_hits", 0),
                "cache_misses": counters.get("cache_misses", 0),
                "posted_at": posted_at}

    def _request(self, port, kind, exhibit, suffix, ids) -> str | None:
        """One phase-2 request; returns what was wrong, or None."""
        job_id = ids[exhibit]
        name = exhibit + suffix
        if kind == "dedup":
            status, _, body = exchange(port, "POST", "/experiments",
                                       {"exhibit": exhibit,
                                        "params": {"quick": True}})
            doc = json.loads(body)
            if status != 200 or not doc.get("deduped") or doc["id"] != job_id:
                return f"dedup answered {status} deduped={doc.get('deduped')}"
        elif kind == "status":
            status, _, body = exchange(port, "GET", f"/experiments/{job_id}")
            if status != 200 or json.loads(body)["state"] != "done":
                return f"status answered {status}"
        elif kind == "artifact":
            status, _, body = exchange(port, "GET",
                                       f"/artifacts/{job_id}/{name}")
            if status != 200:
                return f"artifact answered {status}"
            return self._check_bytes(exhibit, name, body)
        elif kind == "revalidate":
            status, headers, _ = exchange(
                port, "GET", f"/artifacts/{job_id}/{name}",
                headers={"If-None-Match": f'"{job_id}/{name}"'})
            if status != 304:
                return f"revalidate answered {status}"
        elif kind == "events":
            status, _, body = exchange(port, "GET",
                                       f"/experiments/{job_id}/events?from=0")
            frames = body.decode().strip().split("\n\n")
            if status != 200 or len(frames) < 3 \
                    or not frames[-1].startswith("event: end") \
                    or '"done"' not in frames[-1]:
                return f"events answered {status} with {len(frames)} frames"
        elif kind == "stats":
            status, _, body = exchange(port, "GET", "/stats")
            if status != 200 or json.loads(body)["cold_runs"] != len(EXHIBITS):
                return f"stats answered {status}"
        return None

    def _check_bytes(self, exhibit: str, name: str, data: bytes) -> str | None:
        sha = hashlib.sha256(data).hexdigest()
        first = self.reference.setdefault((exhibit, name), sha)
        if first != sha:
            return f"{name} differs from the first lifetime's bytes"
        if self.expected:
            return oracle.check_artifact(self.expected, exhibit, name, data)
        return None

    def fetch_all(self, port: int, ids: dict) -> dict:
        """Every exhibit artifact's sha256 (for ``--update-expected``)."""
        digests = {}
        for exhibit, job_id in ids.items():
            for suffix in SUFFIXES:
                status, _, body = exchange(
                    port, "GET", f"/artifacts/{job_id}/{exhibit}{suffix}")
                if status != 200:
                    raise ServiceError(f"{exhibit}{suffix} answered {status}")
                digests.setdefault(exhibit, {})[exhibit + suffix] = \
                    hashlib.sha256(body).hexdigest()
        return digests
