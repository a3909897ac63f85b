"""Output oracle: per-trial digests checked against committed expectations.

A simulator trial is summarised by a digest of everything it reports
that the model determines: virtual elapsed time, events processed,
message rate, the SPC counters and the delivery-latency summary.  The
simulator is deterministic per seed, so for seeds 1-3 the digest of
every trial in the first round is committed under ``expected/`` and any
difference is a failed operation.  Every result also carries a
``sim_digest`` over all its trial digests, so two runs of one seed can
be compared whatever the seed.

For the service the expectation is the SHA-256 of every artifact an
exhibit serves; those do not depend on the benchmark seed at all.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"
#: benchmark seeds whose first round is pinned under ``expected/``
EXPECTED_SEEDS = (1, 2, 3)


def digest(doc) -> str:
    """16-hex digest of a JSON-able document (key order independent)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def sim_digest(digests) -> str:
    """One digest over an ordered sequence of trial digests."""
    return digest(list(digests))


def expected_path(workload: str) -> pathlib.Path:
    """Where a workload's expectations are committed."""
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> dict:
    """The committed expectations for ``workload`` ({} when absent)."""
    path = expected_path(workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def write_expected(workload: str, doc: dict) -> pathlib.Path:
    """Commit-ready expectations file for ``workload``."""
    path = expected_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def check_trials(expected: dict, seed: int, digests: dict) -> dict:
    """``{trial index: problem}`` for digests that differ from the pinned ones.

    ``expected`` is ``{"<seed>": [digest, ...]}`` for the first round;
    ``digests`` maps trial index to the digest a run produced.  Trials
    past the pinned round, and seeds that are not pinned, pass unchecked.
    """
    pinned = expected.get(str(seed), [])
    return {i: f"digest {got} != expected {pinned[i]}"
            for i, got in digests.items()
            if i < len(pinned) and got != pinned[i]}


def check_artifact(expected: dict, exhibit: str, name: str,
                   data: bytes) -> str | None:
    """Why one served artifact is wrong, or None when it matches."""
    want = expected.get(exhibit, {}).get(name)
    if want is None:
        return f"{exhibit}/{name}: no expected digest"
    got = hashlib.sha256(data).hexdigest()
    if got != want:
        return f"{exhibit}/{name}: sha256 {got[:16]} != expected {want[:16]}"
    return None
