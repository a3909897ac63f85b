"""Renderers for :class:`~repro.obs.profile.ProfileResult`.

Two text surfaces with one rule between them: **deterministic columns
first, host columns last**.  :func:`counters_text` emits only gated
columns (byte-identical per seed); :func:`profile_report` is the human
report and appends the informational host-nanosecond columns;
:func:`folded_text` writes collapsed stacks as ``stack calls self_ns``
lines where stripping the final column recovers a byte-stable file.
:func:`save_profile` writes the full artifact set for ``repro profile
--out``.
"""

from __future__ import annotations

import pathlib


def _fmt_table(rows: list[dict], columns: list[str]) -> list[str]:
    """Aligned text table: header + one line per row."""
    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        cells = {c: str(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(cells[c]))
        rendered.append(cells)
    lines = ["  ".join(c.ljust(widths[c]) for c in columns).rstrip()]
    for cells in rendered:
        lines.append("  ".join(cells[c].ljust(widths[c])
                               for c in columns).rstrip())
    return lines


def counters_text(result, top: int = 20) -> str:
    """The gated-deterministic counter table (no host columns).

    Covers the run header, scheduler counters, per-lock rows
    (virtual-time wait/hold included -- they are seed-pure), phase
    boundaries with event/step counts, and the ``top`` functions by
    call count.  Byte-identical across runs of the same scenario.
    """
    lines = [f"profile {result.exp_id} seed={result.seed} "
             f"micro={str(result.micro).lower()}",
             f"label: {result.label}",
             f"elapsed_ns: {result.elapsed_ns}",
             f"events_processed: {result.events_processed}",
             "",
             "[scheduler]"]
    for key, value in result.sched.items():
        lines.append(f"{key}: {value}")
    lines.append(f"tracer_branches: {result.tracer_branches}")
    lines += ["", "[locks]"]
    lines += _fmt_table(result.locks,
                        ["name", "acquisitions", "contended", "tryfails",
                         "migrations", "wait_ns", "hold_ns",
                         "tracer_branches"])
    lines += ["", "[phases]"]
    lines += _fmt_table(result.phases,
                        ["start_ns", "end_ns", "events", "gen_steps"])
    lines += ["", f"[functions top {top} by calls]"]
    rows = sorted(result.functions,
                  key=lambda r: (-r["calls"], r["name"]))[:top]
    lines += _fmt_table(rows, ["name", "calls"])
    return "\n".join(lines) + "\n"


def profile_report(result, top: int = 12) -> str:
    """The human report: deterministic tables plus host-ns columns."""
    ms = result.host_wall_ns / 1e6
    lines = [f"host profile: {result.exp_id} (seed {result.seed}"
             f"{', micro' if result.micro else ''})",
             f"label: {result.label}",
             f"virtual elapsed: {result.elapsed_ns} ns; "
             f"host wall: {ms:.1f} ms; "
             f"events: {result.events_processed}",
             "",
             "[scheduler counters - deterministic]"]
    for key, value in result.sched.items():
        lines.append(f"  {key:<18} {value}")
    lines.append(f"  {'tracer_branches':<18} {result.tracer_branches}")
    lines += ["", "[virtual-time phases] (host_ns informational)"]
    lines += _fmt_table(result.phases,
                        ["start_ns", "end_ns", "events", "gen_steps",
                         "host_ns"])
    lines += ["", f"[locks top {top} by wait_ns, then hold_ns]"]
    locks = sorted(result.locks, key=lambda r: (-r["wait_ns"], -r["hold_ns"],
                                                r["name"]))[:top]
    lines += _fmt_table(locks,
                        ["name", "acquisitions", "contended", "tryfails",
                         "migrations", "wait_ns", "hold_ns"])
    lines += ["", f"[functions top {top} by self host ns] (informational)"]
    rows = sorted(result.functions,
                  key=lambda r: (-r["self_ns"], r["name"]))[:top]
    lines += _fmt_table(rows, ["name", "calls", "self_ns", "cum_ns"])
    return "\n".join(lines) + "\n"


def folded_text(result) -> str:
    """Collapsed stacks: ``stack calls self_ns``, sorted by stack.

    The first two columns are deterministic; dropping the final
    (host-ns) column yields a byte-stable file.  Feed either form to
    any flamegraph tool expecting Brendan Gregg's folded format.
    """
    lines = [f"{row['stack']} {row['calls']} {row['self_ns']}"
             for row in result.folded]
    return "\n".join(lines) + "\n"


def save_profile(result, out_dir, top: int = 20) -> list[pathlib.Path]:
    """Write the full artifact set under ``out_dir``; returns the paths.

    ``<exp>.profile.txt`` (human report), ``<exp>.counters.txt``
    (deterministic table), ``<exp>.folded.txt`` (collapsed stacks) and
    ``<exp>.flame.svg`` (self-rendered flamegraph, host-ns widths).
    """
    from repro.util.svg import render_flamegraph

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result.exp_id
    paths = []
    for suffix, text in (
            (".profile.txt", profile_report(result, top=top)),
            (".counters.txt", counters_text(result, top=top)),
            (".folded.txt", folded_text(result)),
            (".flame.svg", render_flamegraph(
                result.folded,
                title=f"{name} host-time flamegraph (seed {result.seed})"))):
        path = out_dir / f"{name}{suffix}"
        path.write_text(text)
        paths.append(path)
    return paths
