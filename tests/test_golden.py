"""The shipped scenarios and the benchmark workloads at seeds 1-3 write
the traces and make the solver counts that tests/golden.json records.

A change that moves any of them regenerates the manifest with
`python tests/golden.py --write` and names every moved entry.
"""

import json

import golden


def test_traces_and_counts_match_the_golden_manifest(tmp_path):
    expected = json.loads(golden.MANIFEST.read_text())
    got = golden.manifest(tmp_path)
    assert len(got) == 4 + len(golden.WORKLOADS) * len(golden.SEEDS)
    assert all(entry["audit"] == [] for entry in got.values())
    assert golden.moved(expected, got) == []
