"""Reading an events.jsonl that a live writer is still appending to.

The satellite contract: :func:`complete_lines` / :func:`read_events` /
:class:`EventTail` must never parse a torn (newline-less) fragment, and
a tail-follower racing a real writer thread must deliver every record
exactly once, in seq order -- which is what the SSE layer and
``tools/lint_events.py`` both build on.
"""

import json
import threading
import time

from repro.obs.live import EventTail, complete_lines, read_events


def test_complete_lines_drops_the_trailing_fragment():
    assert complete_lines("") == []
    assert complete_lines('{"seq": 0}') == []            # no newline yet
    assert complete_lines('{"seq": 0}\n') == ['{"seq": 0}']
    assert complete_lines('{"seq": 0}\n{"seq": 1')  == ['{"seq": 0}']
    assert complete_lines('a\nb\nc\n') == ["a", "b", "c"]


def test_read_events_tolerates_a_mid_append_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"seq": 0, "kind": "sweep.start"}\n{"seq": 1, "ki')
    records = read_events(path)
    assert [r["seq"] for r in records] == [0]
    # the fragment completes: the record appears
    with open(path, "a") as handle:
        handle.write('nd": "sweep.finish"}\n')
    assert [r["seq"] for r in read_events(path)] == [0, 1]


def test_event_tail_holds_torn_fragments_until_their_newline(tmp_path):
    path = tmp_path / "events.jsonl"
    tail = EventTail(path)
    assert tail.poll() == []                 # file does not exist yet
    with open(path, "w") as handle:
        handle.write('{"seq": 0}\n{"seq"')
        handle.flush()
        assert [r["seq"] for r, _ in tail.poll()] == [0]
        assert tail.poll() == []             # fragment stays unparsed
        handle.write(': 1}\n')
        handle.flush()
        assert [r["seq"] for r, _ in tail.poll()] == [1]   # exactly once


def test_event_tail_min_seq_filters_replay(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps({"seq": n}) + "\n"
                            for n in range(5)))
    batch = EventTail(path, min_seq=3).poll()
    assert [r["seq"] for r, _ in batch] == [3, 4]
    # each record comes with its line as written, ready to forward
    assert [line for _, line in batch] \
        == [json.dumps({"seq": n}).encode() for n in (3, 4)]


def test_follow_races_a_real_writer_thread(tmp_path):
    # the satellite's core scenario: a writer thread appends records in
    # deliberately torn chunks while a follower tails the file
    path = tmp_path / "events.jsonl"
    total = 200
    done = threading.Event()

    def writer():
        with open(path, "w") as handle:
            for n in range(total):
                line = json.dumps({"seq": n, "kind": "trial.complete"}) \
                    + "\n"
                split = len(line) // 2
                handle.write(line[:split])
                handle.flush()               # a torn append, visibly
                if n % 16 == 0:
                    time.sleep(0.001)
                handle.write(line[split:])
                handle.flush()
        done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    seen = [record["seq"]
            for batch in EventTail(path).follow(done.is_set,
                                                poll_s=0.001,
                                                timeout_s=30.0)
            for record, _ in batch]
    thread.join()
    assert seen == list(range(total))        # every record, once, in order


def test_follow_timeout_bounds_a_wedged_writer(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"seq": 0}\n')
    started = time.monotonic()
    seen = [record for batch in EventTail(path).follow(
                lambda: False, poll_s=0.01, timeout_s=0.2)
            for record, _ in batch]
    assert [r["seq"] for r in seen] == [0]
    assert time.monotonic() - started < 5.0


def test_lint_events_passes_a_file_with_an_append_in_flight(tmp_path):
    import pathlib
    import sys

    repo = pathlib.Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(repo / "tools"))
    from lint_events import lint_events_file

    path = tmp_path / "events.jsonl"
    records = [
        {"schema": 1, "seq": 0, "run": "r1", "kind": "sweep.start",
         "ts": 1.0},
        {"schema": 1, "seq": 1, "run": "r1", "kind": "sweep.finish",
         "ts": 2.0},
    ]
    text = "".join(json.dumps(r) + "\n" for r in records)
    path.write_text(text + '{"schema": 1, "seq": 2, "run": "r1"')
    problems: list[str] = []
    linted = lint_events_file(path, problems)
    assert problems == []                    # the fragment is not a defect
    assert [r["seq"] for r in linted] == [0, 1]
