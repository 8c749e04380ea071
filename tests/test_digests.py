"""The benchmark's reports stay the same bytes.

The golden reports compare floats to a relative 1e-12, so a change in the
last bit of a float passes them.  This test runs the traced inputs of each
benchmark workload at seed 7 (``perfbench/workloads.py``, unchanged) and
hashes their canonical JSON reports, as ``perfbench/run.py`` does for its
``report_digest``.  The digests have not changed since the benchmark was
added; a change that moves any float in any of these reports fails here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, canonical  # noqa: E402

DIGESTS = {
    "cosine-sums": "6ed8f37158b7f718270e36e91c69c1cf3f9ddbf7a0afddd5631300517b67d7eb",
    "planted-trig": "28892878dc72cea84bd7eab87633778b0ac7d21b1ee3748180b3f56843c4365f",
    "detour": "3fef2485f46f51653caf90578921ee6f06f80968f09bf382dda3fdfcb5f6b626",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_at_seed_7(name):
    wl = WORKLOADS[name]
    digest = hashlib.sha256()
    for item in wl.inputs(7, wl.trace_ops):
        out = wl.run(item)
        assert out.failure is None, out.failure
        digest.update(canonical(out.report) + b"\n")
    assert digest.hexdigest() == DIGESTS[name]
