"""The package runs on the standard library alone: mpmath is a test oracle only.

Importing the package itself loads none of its modules; callers import the
modules they use.  No CLI call loads ``dataclasses`` or ``inspect``: the
records are NamedTuples and ``numerics.Record`` classes, which Python builds
without generating code."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# Runs in a fresh interpreter, so no test module has imported mpmath yet.
SCRIPT = """
import sys
import sgdcodec
loaded = [m for m in sys.modules if m.startswith("sgdcodec.")]
assert not loaded, f"import sgdcodec loaded {loaded}"
assert "mpmath" not in sys.modules, "import sgdcodec"

def unloaded(after):
    for name in ("mpmath", "dataclasses", "inspect"):
        assert name not in sys.modules, f"{after} loaded {name}"

from sgdcodec import cli
unloaded("from sgdcodec import cli")
run = ["run", "--family", "random-labels", "--n", "64", "--dim", "2",
       "--batch-size", "16", "--step-raw", "8192", "--eps", "1/4",
       "--progress-coeff", "4", "--max-epochs", "2", "--out", sys.argv[1]]
assert cli.main(run) == 0
unloaded("sgdcodec run")
for command in ("decode", "report"):
    assert cli.main([command, "--dir", sys.argv[1]]) == 0
    unloaded(f"sgdcodec {command}")
assert cli.main(["verify", "--suites", "hoeffding"]) == 0
unloaded("sgdcodec verify")
"""


def test_run_and_verify_never_import_mpmath(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "artifacts written" in proc.stdout
