"""Golden verifier output: the shipped sweeps and tail checks must reproduce every bit.

``golden_verifier.json`` holds, for ``run_inequality_suite()`` at its shipped
sizes and at the benchmark's smaller ones, each row as (name, cases, skipped,
worst.hex(), passed); for the four
``sgdcodec verify`` Hoeffding settings at 10^5 trials, the hit count and the
exact tail probability; and the sha256 of the full ``sgdcodec verify`` stdout.
``float.hex`` makes "same bits" exact rather than approximate.  The
entropy, split-entropy and Pinsker rows are exact sweeps, and each worst is
its case's value rounded once, so no row reads the host libm.  The values
may only change with a deliberate change to what the verifiers compute;
regenerate them with ``PYTHONPATH=src python tests/test_golden_verifier.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

from sgdcodec.cli import main
from sgdcodec.harness import HoeffdingCheck, run_inequality_suite, verify_hoeffding

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_verifier.json")

# The settings of harness.HOEFFDING_CHECKS, which cmd_verify runs.
HOEFFDING_SETTINGS = [(k, delta) for k in (64, 256) for delta in ("1/10", "1/5")]
TRIALS = 10**5
# The sizes bench/workloads.py runs the suite at.
SMALL_SIZES = dict(
    entropy_points=2000, split_side=20, pinsker_side=100, codec_instances=50
)


def suite_rows(**sizes) -> list[list]:
    return [
        [r.name, r.cases, r.skipped, r.worst.hex(), r.passed]
        for r in run_inequality_suite(**sizes)
    ]


def hoeffding_rows() -> list[list]:
    out = []
    results = verify_hoeffding([
        HoeffdingCheck(1024, 512, k, Fraction(delta), TRIALS, seed=11)
        for k, delta in HOEFFDING_SETTINGS
    ])
    for (k, delta), res in zip(HOEFFDING_SETTINGS, results):
        hits = res.empirical_freq * TRIALS
        exact = res.exact_prob
        out.append([k, delta, int(hits), f"{exact.numerator}/{exact.denominator}"])
    return out


def verify_stdout_sha256() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _recorded() -> dict:
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh)


def test_inequality_suite_matches_golden_rows():
    assert suite_rows() == _recorded()["suite_rows"]


def test_benchmark_size_suite_matches_golden_rows():
    assert suite_rows(**SMALL_SIZES) == _recorded()["small_suite_rows"]


def test_hoeffding_hits_match_golden():
    assert hoeffding_rows() == _recorded()["hoeffding"]


def test_cli_verify_stdout_matches_golden():
    assert verify_stdout_sha256() == _recorded()["verify_stdout_sha256"]


if __name__ == "__main__":
    golden = {
        "suite_rows": suite_rows(),
        "small_suite_rows": suite_rows(**SMALL_SIZES),
        "hoeffding": hoeffding_rows(),
        "verify_stdout_sha256": verify_stdout_sha256(),
    }
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        fh.write(json.dumps(golden, indent=2) + "\n")
