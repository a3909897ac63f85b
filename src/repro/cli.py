"""Command-line interface: regenerate paper exhibits from a shell.

Examples::

    python -m repro list
    python -m repro testbeds
    python -m repro run fig3a
    python -m repro run fig6 --full --out results/
    python -m repro run all --jobs 8 --out results/
    python -m repro run chaos --drop-rate 0.02
    python -m repro run fig5 --jobs 4 --no-cache
    python -m repro run fig6 --shard 1/4 --out results/
    python -m repro run fig3a --jobs 4 --flaky-workers 0.2 --trial-timeout 30
    python -m repro top results/          # watch a run from another terminal
    python -m repro top results/ --once --json
    python -m repro trace fig3a --out trace.json
    python -m repro trace fig3b --out trace.json --metrics-interval 100000
    python -m repro trace chaos --out chaos.json
    python -m repro analyze fig3a
    python -m repro analyze trace.json --out results/analysis
    python -m repro serve --root served/ --port 8321
    python -m repro submit fig3a --url http://127.0.0.1:8321 --follow

``run`` executes its seeded trials through the experiment engine
(:mod:`repro.engine`): ``--jobs N`` fans independent trials out over N
supervised worker processes and the content-addressed trial cache
(under ``<out-or-results>/.cache``) skips every trial whose
configuration, seed and code fingerprint were computed before.  Both
are safe by construction -- trials are pure, so parallel and
warm-cache runs emit byte-identical artifacts -- and ``--no-cache``
forces recomputation.

The run is **crash-safe**: each computed trial is fsynced into the
trial cache the moment it finishes, so after a crash (or Ctrl-C, or
``kill -9``) rerunning the same command replays the finished trials
from the cache and computes only the missing ones, with byte-identical
artifacts.  ``--shard k/N`` computes only every N-th trial (for CI
fan-out; artifacts are suppressed, and a rerun without ``--shard``
merges the union).  Worker failures are supervised:
``--trial-timeout`` bounds each trial's wall clock, dead or wedged
workers are respawned and their trials retried with exponential
backoff up to ``--retries`` times, and ``--flaky-workers R``
chaos-tests exactly that machinery by killing/hanging a seeded
fraction of first attempts.

Every ``run --out`` is also **observable while it runs**: a telemetry
directory (``<out>/telemetry``, or ``--telemetry DIR``) receives an
append-only structured event log (``events.jsonl``), an atomically
rewritten heartbeat (``status.json``) with progress/ETA/worker state, a
Prometheus textfile (``metrics.prom``), and -- on retry exhaustion, a
crash, SIGTERM or Ctrl-C -- a ``postmortem/`` flight-recorder bundle.
``top`` renders that heartbeat as a live terminal dashboard from any
other terminal (``--once`` for one frame, ``--json`` for scripting);
``--no-telemetry`` turns the whole layer off.

``trace`` records one representative simulation of the experiment with
the virtual-time tracer attached and writes Chrome trace-event JSON --
open it at https://ui.perfetto.dev (or ``chrome://tracing``) to see one
track per simulated thread plus one per lock/CRI/queue.  Traces are
byte-identical across runs with the same seed.  ``--metrics-interval
NS`` also samples the same run's SPC time-series every NS of virtual
time into ``<out-stem>.metrics.csv`` and prints its queue depths.

``analyze`` is the offline counterpart (:mod:`repro.obs.analyze`): it
takes either a traceable experiment id (re-running its seeded
representative simulation) or an exported ``trace.json`` (no re-run at
all) and reconstructs per-message latency decomposition, the critical
path and lock blame tables; ``--out`` writes the deterministic CSVs +
text report.

``serve`` runs the long-lived experiment service (:mod:`repro.serve`):
a stdlib-only HTTP front end over the same engine where N identical
requests are content-addressed down to one simulation, running jobs
stream their telemetry over Server-Sent Events, and finished jobs
serve the byte-exact ``repro run`` artifacts with immutable ETags.
``submit`` is the matching client: POST one exhibit, optionally
``--follow`` the event stream, and ``--save DIR`` the artifacts.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys


def _interval(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"interval must be a positive number of nanoseconds, got {value}")
    return value


def _drop_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"drop rate must be in [0, 1], got {value}")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive worker count, got {value}")
    return value


def _shard(text: str) -> tuple[int, int]:
    try:
        k_text, n_text = text.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like k/N (e.g. 2/4), got {text!r}") from None
    if n < 1 or not 1 <= k <= n:
        raise argparse.ArgumentTypeError(
            f"shard k/N needs 1 <= k <= N, got {text!r}")
    return k, n


def _retries(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"retries must be >= 0, got {value}")
    return value


def _timeout(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"trial timeout must be positive seconds, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Give MPI Threading a Fair Chance' (CLUSTER'19) exhibits")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("testbeds", help="print the simulated testbed presets (Table I)")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--full", action="store_true",
                     help="paper-density parameters (slow)")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="also save ASCII + CSV under this directory")
    run.add_argument("--drop-rate", type=_drop_rate, default=None, metavar="R",
                     help="chaos only: sweep [0, R] as the packet drop axis "
                          "instead of the built-in axis (fraction in [0, 1])")
    run.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                     help="run seeded trials on N worker processes "
                          "(byte-identical to serial; default 1)")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the content-addressed trial cache and "
                          "recompute every trial (a rerun then replays "
                          "nothing, and --shard needs the cache)")
    run.add_argument("--shard", type=_shard, default=None, metavar="K/N",
                     help="compute only every N-th planned trial (shard K "
                          "of N); artifacts are suppressed -- rerun without "
                          "--shard afterwards to merge the shards' union")
    run.add_argument("--retries", type=_retries, default=2, metavar="N",
                     help="max supervised re-executions per trial after a "
                          "worker death, timeout, or trial error "
                          "(default 2; exponential backoff between tries)")
    run.add_argument("--trial-timeout", type=_timeout, default=None,
                     metavar="S",
                     help="per-trial wall-clock limit in seconds; an "
                          "overdue worker is killed and its trial retried "
                          "(default: unlimited)")
    run.add_argument("--flaky-workers", type=_drop_rate, default=None,
                     metavar="R",
                     help="chaos-test the engine: seeded fraction R of "
                          "first attempts lose their worker (half killed, "
                          "half hung past the timeout); requires "
                          "--jobs >= 2, output stays byte-identical")
    run.add_argument("--flaky-seed", type=int, default=1, metavar="S",
                     help="seed for --flaky-workers decisions (default 1)")
    run.add_argument("--telemetry", type=pathlib.Path, default=None,
                     metavar="DIR",
                     help="write live telemetry (events.jsonl, status.json, "
                          "metrics.prom, postmortem bundles) under DIR "
                          "(default: <out>/telemetry when --out is given)")
    run.add_argument("--no-telemetry", action="store_true",
                     help="disable live telemetry even when --out is given")

    top = sub.add_parser(
        "top", help="live terminal monitor for a running sweep")
    top.add_argument("run_dir", type=pathlib.Path,
                     help="the run's telemetry directory, or the --out "
                          "directory containing one")
    top.add_argument("--once", action="store_true",
                     help="print a single frame and exit (CI-friendly)")
    top.add_argument("--json", action="store_true",
                     help="print the raw status.json document instead of "
                          "rendering a frame")
    top.add_argument("--interval", type=_timeout, default=1.0, metavar="S",
                     help="refresh interval in seconds (default 1.0)")

    trace = sub.add_parser(
        "trace", help="trace one representative run (Perfetto/Chrome JSON)")
    trace.add_argument("experiment", help="a traceable experiment id")
    trace.add_argument("--out", type=pathlib.Path,
                       default=pathlib.Path("trace.json"),
                       help="output path for the trace JSON (default trace.json)")
    trace.add_argument("--seed", type=int, default=1,
                       help="simulation seed (same seed => byte-identical trace)")
    trace.add_argument("--metrics-interval", type=_interval, default=None, metavar="NS",
                       help="also emit the SPC time-series sampled every NS of "
                            "virtual time to <out>.metrics.csv")
    trace.add_argument("--top", type=int, default=12,
                       help="rows in the printed top-N report")

    analyze = sub.add_parser(
        "analyze", help="latency blame from a trace (offline; no re-run "
                        "when given a trace.json)")
    analyze.add_argument("source",
                         help="a traceable experiment id, or the path of an "
                              "exported trace.json")
    analyze.add_argument("--out", type=pathlib.Path, default=None,
                         help="write <name>.{messages,critical,blame,locks}"
                              ".csv and <name>.report.txt here")
    analyze.add_argument("--seed", type=int, default=1,
                         help="seed when re-running an experiment id "
                              "(ignored for trace files)")
    analyze.add_argument("--top", type=int, default=10,
                         help="rows per table in the printed report")

    profile = sub.add_parser(
        "profile", help="host-time profile of one experiment's "
                        "representative run, per function and layer")
    profile.add_argument("experiment", help="a traceable experiment id")
    profile.add_argument("--seed", type=int, default=1,
                        help="simulation seed (call/event counts are "
                             "byte-identical per seed)")
    profile.add_argument("--micro", action="store_true",
                        help="scaled-down scenario shape (fast; used by "
                             "the CI profile smoke)")
    profile.add_argument("--top", type=int, default=12,
                        help="rows per table in the printed report")
    profile.add_argument("--out", type=pathlib.Path, default=None,
                        help="write <exp>.{profile,counters}.txt + "
                             "manifest.json here")

    serve = sub.add_parser(
        "serve", help="run the HTTP experiment service (dedup + SSE)")
    serve.add_argument("--root", type=pathlib.Path,
                       default=pathlib.Path("served"),
                       help="service state directory: jobs/, .cache/ "
                            "(default served/)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="port to bind; 0 picks an ephemeral port "
                            "(default 8321)")
    serve.add_argument("--jobs", type=_jobs, default=1,
                       help="worker processes per job's engine (default 1)")
    serve.add_argument("--workers", type=_jobs, default=2,
                       help="concurrent jobs (service worker threads, "
                            "default 2)")
    serve.add_argument("--queue-limit", type=_jobs, default=32,
                       help="bounded admission queue size; a full queue "
                            "answers 503 (default 32)")
    serve.add_argument("--retries", type=_retries, default=2,
                       help="supervised retries per trial (default 2)")
    serve.add_argument("--trial-timeout", type=_timeout, default=None,
                       metavar="S",
                       help="per-trial wall-clock limit in seconds")
    serve.add_argument("--flaky-workers", type=_drop_rate, default=None,
                       metavar="R",
                       help="chaos-test served runs: seeded fraction R of "
                            "first attempts lose their worker; requires "
                            "--jobs >= 2, artifacts stay byte-identical")
    serve.add_argument("--flaky-seed", type=int, default=1, metavar="S",
                       help="seed for --flaky-workers decisions (default 1)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    submit = sub.add_parser(
        "submit", help="submit one experiment to a running service")
    submit.add_argument("experiment", help="experiment id from 'list'")
    submit.add_argument("--url", default="http://127.0.0.1:8321",
                        help="service base URL "
                             "(default http://127.0.0.1:8321)")
    submit.add_argument("--full", action="store_true",
                        help="paper-density parameters (slow)")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's telemetry events (SSE) "
                             "until it finishes")
    submit.add_argument("--save", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="wait for the job and download its artifacts "
                             "into DIR")
    submit.add_argument("--timeout", type=_timeout, default=600.0,
                        metavar="S",
                        help="how long to wait for the job (default 600)")
    return parser


def _emit(result, out_dir) -> None:
    from repro.experiments.artifacts import figures_of, save_figure

    for fig in figures_of(result):
        print(fig.to_ascii())
        print()
        if out_dir is not None:
            save_figure(fig, out_dir)


def _cmd_trace(args) -> int:
    from repro.obs.export import save_trace, top_report
    from repro.obs.scenarios import traced_run

    try:
        run = traced_run(args.experiment, seed=args.seed,
                         metrics_interval_ns=args.metrics_interval)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    path = save_trace(run.tracer, args.out)
    print(f"trace: {path} ({len(run.tracer.spans)} spans, "
          f"{run.elapsed_ns} ns virtual) -- open in https://ui.perfetto.dev")
    if run.metrics is not None:
        mpath = path.with_suffix(".metrics.csv")
        mpath.write_text(run.metrics.to_csv())
        print(f"metrics time-series: {mpath} ({len(run.metrics.rows)} samples)")
        print(f"queue depths: {run.metrics.depth_summary()}")
    print()
    print(top_report(run.tracer, n=args.top))
    return 0


def _cmd_analyze(args) -> int:
    from repro.obs.analyze import analyze_file, analyze_tracer

    source = pathlib.Path(args.source)
    if source.suffix == ".json" or source.exists():
        if not source.exists():
            print(f"no such trace file: {source}", file=sys.stderr)
            return 2
        analysis = analyze_file(source)
    else:
        from repro.obs.scenarios import traced_run

        try:
            run = traced_run(args.source, seed=args.seed)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        analysis = analyze_tracer(run.tracer, name=args.source)
    print(analysis.report(top=args.top))
    if args.out is not None:
        print()
        for path in analysis.save(args.out):
            print(f"wrote {path}")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_report, profile_run, save_profile

    try:
        result = profile_run(args.experiment, seed=args.seed,
                             micro=args.micro)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(profile_report(result, top=args.top))
    if args.out is not None:
        from repro.engine.manifest import build_manifest, write_manifest

        for path in save_profile(result, args.out, top=max(args.top, 20)):
            print(f"wrote {path}")
        manifest = build_manifest(
            command=["repro", "profile", args.experiment],
            experiments=[args.experiment],
            params={"micro": args.micro, "top": args.top},
            seed=args.seed,
            wall_s=result.host_wall_ns / 1e9)
        print(f"wrote {write_manifest(args.out, manifest)}")
    return 0


def _cmd_serve(args) -> int:
    """Run the experiment service until interrupted."""
    from repro.serve import ExperimentServer

    if args.flaky_workers is not None and args.jobs < 2:
        print("--flaky-workers injects faults into the supervised worker "
              "pool: use --jobs >= 2", file=sys.stderr)
        return 2
    server = ExperimentServer(
        args.root, host=args.host, port=args.port,
        quiet=not args.verbose,
        engine_jobs=args.jobs, workers=args.workers,
        queue_limit=args.queue_limit, retries=args.retries,
        trial_timeout=args.trial_timeout,
        flaky_workers=args.flaky_workers, flaky_seed=args.flaky_seed)
    print(f"serving on {server.url}  (root: {args.root}; Ctrl-C to stop)")
    server.serve_forever()
    return 0


def _cmd_submit(args) -> int:
    """Submit one experiment to a running service; optionally follow."""
    import json

    from repro.serve import ServeClient

    client = ServeClient(args.url)
    response = client.submit(args.experiment,
                             params={"quick": not args.full})
    if response.status not in (200, 201):
        print(f"submit failed ({response.status}): "
              f"{response.json().get('error', response.body.decode())}",
              file=sys.stderr)
        return 2
    doc = response.json()
    job_id = doc["id"]
    print(f"job {job_id}: {doc['state']}"
          f"{' (deduplicated)' if doc['deduped'] else ''}")
    if args.follow:
        for event, _seq, data in client.events(job_id,
                                               timeout_s=args.timeout):
            if event == "end":
                print(f"-- end: {data['state']}")
            else:
                print(json.dumps(data, sort_keys=True))
    if args.save is not None or not args.follow:
        final = client.wait(job_id, timeout_s=args.timeout)
        print(f"job {job_id}: {final['state']}")
        if final["state"] != "done":
            print(f"error: {final.get('error')}", file=sys.stderr)
            return 3
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        listing = client.artifact(job_id)
        for name in listing.json()["artifacts"]:
            blob = client.artifact(job_id, name)
            (args.save / name).write_bytes(blob.body)
            print(f"saved {args.save / name}")
    return 0


def _run_params(args) -> dict:
    """The sweep-identity params behind the telemetry run id."""
    params = {"quick": not args.full}
    if args.drop_rate is not None:
        params["drop_rate"] = args.drop_rate
    return params


def sweep_id(experiments, params=None) -> str:
    """Stable id of one sweep: experiments + params + code fingerprint.

    Order-free in ``experiments``; an edit to the simulator's code
    yields a new id, just as it invalidates the trial cache.
    """
    import hashlib
    import json

    from repro.engine.fingerprint import core_fingerprint

    blob = json.dumps({
        "experiments": sorted(str(e) for e in experiments),
        "params": dict(params or {}),
        "code": core_fingerprint(),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _build_telemetry(args, experiments):
    """The live-telemetry session for one ``run``, or None.

    Telemetry is on whenever the run writes artifacts (``--out``) or is
    pointed somewhere explicitly (``--telemetry DIR``), and off
    otherwise or under ``--no-telemetry``.  The run id is
    :func:`sweep_id`, so event contents are deterministic per sweep.
    """
    if args.no_telemetry:
        return None
    base = args.telemetry
    if base is None:
        if args.out is None:
            return None
        base = args.out / "telemetry"
    from repro.obs.live import LiveTelemetry

    params = _run_params(args)
    return LiveTelemetry(base, sweep_id(experiments, params),
                         experiments=experiments, params=params)


def _build_engine(args, telemetry=None):
    """The engine a ``run`` invocation executes its trials through.

    The cache root is ``$REPRO_TRIAL_CACHE`` when set, else ``.cache``
    under ``--out`` (or ``results/``).  The cache is what makes the run
    crash-safe: rerunning the same command replays every trial an
    earlier (interrupted, or ``--shard``) run finished.  ``telemetry``
    (a :class:`~repro.obs.live.session.LiveTelemetry` or None) is
    injected into the engine so every resolution decision emits a run
    event.
    """
    from repro.engine import Engine, TrialCache, supervision

    cache = None
    if not args.no_cache:
        root = os.environ.get("REPRO_TRIAL_CACHE")
        if root:
            cache_root = pathlib.Path(root)
        else:
            base = args.out if args.out is not None else pathlib.Path("results")
            cache_root = base / ".cache"
        cache = TrialCache(cache_root)
    policy, faults = supervision(args.retries, args.trial_timeout,
                                 args.flaky_workers, args.flaky_seed)
    return Engine(jobs=args.jobs, cache=cache, policy=policy, faults=faults,
                  shard=args.shard, telemetry=telemetry)


def _emit_engine(engine, out_dir) -> None:
    """Print the engine summary; persist its counters next to --out."""
    from repro.obs.enginestats import engine_csv

    if engine.counters.batches == 0:
        return
    print(engine.summary())
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "engine.metrics.csv").write_text(engine_csv(engine))


def _write_run_manifest(args, engine, experiments, started: float,
                        telemetry=None) -> None:
    """Provenance for one ``run --out`` invocation (see engine.manifest)."""
    import time

    from repro.engine.manifest import build_manifest, write_manifest

    params = {"quick": not args.full, "jobs": args.jobs,
              "cache": not args.no_cache, "retries": args.retries}
    if args.shard is not None:
        params["shard"] = list(args.shard)
    if args.trial_timeout is not None:
        params["trial_timeout_s"] = args.trial_timeout
    if args.flaky_workers is not None:
        params["flaky_workers"] = args.flaky_workers
        params["flaky_seed"] = args.flaky_seed
    if args.drop_rate is not None:
        params["drop_rate"] = args.drop_rate
    manifest = build_manifest(
        command=["repro", "run", args.experiment],
        experiments=experiments,
        params=params,
        engine=engine,
        wall_s=time.perf_counter() - started,
        telemetry=telemetry.summary() if telemetry is not None else None)
    print(f"manifest: {write_manifest(args.out, manifest)}")


def _cmd_run(args) -> int:
    import contextlib
    import time

    from repro.engine import TrialRetryError, use_engine
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.drop_rate is not None and args.experiment != "chaos":
        print("--drop-rate only applies to the 'chaos' experiment",
              file=sys.stderr)
        return 2
    if args.shard is not None and args.no_cache:
        print("--shard needs the trial cache, where a rerun without --shard "
              "merges the shards: drop --no-cache", file=sys.stderr)
        return 2
    if args.flaky_workers is not None and args.jobs < 2:
        print("--flaky-workers injects faults into the supervised worker "
              "pool: use --jobs >= 2", file=sys.stderr)
        return 2

    quick = not args.full
    started = time.perf_counter()
    sharded = args.shard is not None
    experiments = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    telemetry = _build_telemetry(args, experiments)
    engine = _build_engine(args, telemetry)
    # a failure escaping the sweep is narrated by LiveTelemetry.sweep
    narrated = contextlib.nullcontext() if telemetry is None \
        else telemetry.sweep()
    try:
        with narrated, use_engine(engine):
            if args.experiment == "all":
                for exp_id in EXPERIMENTS:
                    print(f"--- running {exp_id} ---")
                    result = run_experiment(exp_id, quick=quick)
                    if not sharded:
                        _emit(result, args.out)
            elif args.drop_rate is not None:
                from repro.experiments.chaos import run_chaos

                result = run_chaos(
                    quick=quick,
                    drop_rates=(0.0, args.drop_rate / 2, args.drop_rate))
            else:
                result = run_experiment(args.experiment, quick=quick)
            if args.experiment != "all" and not sharded:
                _emit(result, args.out)
            if sharded:
                k, n = args.shard
                print(f"shard {k}/{n}: artifacts suppressed (trial cache "
                      f"updated; merge by rerunning without --shard)")
            _emit_engine(engine, args.out)
            if telemetry is not None:
                telemetry.sweep_finish(True)
                print(f"telemetry: {telemetry.dir}")
            if args.out is not None:
                _write_run_manifest(args, engine, experiments, started,
                                    telemetry)
    except TrialRetryError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        print("completed trials are in the trial cache; fix the "
              "fault and rerun the same command", file=sys.stderr)
        if telemetry is not None:
            print(f"postmortem: {telemetry.recorder.dumps[-1]}",
                  file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.experiments.registry import EXPERIMENTS

        width = max(len(k) for k in EXPERIMENTS)
        for exp_id, exp in EXPERIMENTS.items():
            print(f"{exp_id:<{width}}  {exp.description}")
        return 0

    if args.command == "testbeds":
        from repro.experiments.testbeds import TESTBEDS

        for name, tb in TESTBEDS.items():
            print(f"== {name} ==")
            for key, value in tb.as_row().items():
                print(f"  {key:<14} {value}")
        return 0

    if args.command == "top":
        from repro.obs.live.top import run_top

        return run_top(args.run_dir, once=args.once, as_json=args.json,
                       interval_s=args.interval)

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "analyze":
        return _cmd_analyze(args)

    if args.command == "profile":
        return _cmd_profile(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "submit":
        return _cmd_submit(args)

    return _cmd_run(args)
