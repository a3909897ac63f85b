"""The gate's stray-file finding: a golden no probe writes is caught."""

import shutil

from repro.perf.probes import PROBES
from tests.perf.test_probes import GOLDENS, committed_families


def test_stray_baseline_files_fail_the_full_gate(tmp_path):
    for path in GOLDENS.glob("probe_*.json"):
        shutil.copy(path, tmp_path)
    assert committed_families(tmp_path) == set(PROBES)
    (tmp_path / "probe_bogus.json").write_text('{"x": 1}\n')
    assert committed_families(tmp_path) - set(PROBES) == {"bogus"}
