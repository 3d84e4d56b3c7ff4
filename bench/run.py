"""Runs one benchmark workload and prints its metrics.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload NAME --write-pins

Run it from the root of a checkout: it imports ``sgdcodec`` from ``src/``
and never from an installed copy.  The workloads, their inputs and their
ops are defined in ``workloads.py``; every metric it reports is declared in
``BENCHMARK.json`` at the root, which this script checks its output
against.

One process runs one workload, single-threaded, one op at a time (a closed
loop with one client).  Ops run in passes over the workload's case list,
and a run stops at the first pass boundary after ``--seconds``, so every
case is measured equally often.  Every time is calibrated (``calibrate.py``)
and every per-op time is the mean over the cases of each case's median.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over fresh interpreters of import + dataset + table
  op_s         wall time of one op
  cpu_s        process CPU time of one op
  peak_rss_mb  ru_maxrss of this process
``--trace 1`` first runs half the time untraced, then hooks every public
function (``tracer.py``) and runs the other half.  It reports the per-layer
metrics: call counts and inclusive seconds per op for the hooked functions,
module self times per op, the phase metrics of the untraced half, and the
tracing overhead (traced minus untraced phase time).  The table-build count
and ``model.generate_dataset.s`` come from a traced set-up at the start of
the process; every other per-layer figure is per op.

Every run also prints the phase metrics (run_s, decode_s, verify_s,
elements_per_s, stream_bits, charged_bits, failed_share) and the output
check against ``pins.json``.  An op fails the check when its outcome
differs from the pinned one: another digest, another exception, or a clean
run whose decode exits non-zero.  A pinned exception that turns into a
clean run with a clean decode is accepted.  ``failed_share`` counts the
program's own failures by type, pinned or not.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
DECLARATION = ROOT / "BENCHMARK.json"
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120

# Per-layer metrics read straight off the tracer, per op.
CALLS = (
    "model.correctness_vector",
    "model.loss_gradient",
    "sgd_engine.forward_step",
    "sgd_engine.reverse_step",
    "epoch_codec.encode_epoch",
    "epoch_codec.decode_epoch",
    "codec.encode_set_conditional",
    "codec.decode_set_conditional",
    "numerics.verify_split_entropy",
    "numerics.FixedVector.gd_update",
    "stable.stable_log2",
    "stable.stable_entropy",
)
SECONDS = (
    "model.correctness_vector",
    "model.loss_gradient",
    "sgd_engine.run_training",
    "sgd_engine.reverse_step",
    "sgd_engine.reverse_epoch",
    "epoch_codec.encode_epoch",
    "epoch_codec.decode_epoch",
    "epoch_codec.predict_segments",
    "epoch_codec.epoch_accounting",
    "codec.encode_set_conditional",
    "codec.decode_set_conditional",
    "codec.perm_rank",
    "codec.perm_unrank",
    "numerics.verify_split_entropy",
    "numerics.FixedVector.gd_update",
    "numerics.quantize_vector",
    "stable.stable_log2",
    "harness.run_experiment",
    "harness.run_inequality_suite",
    "harness.verify_hoeffding",
)
PHASES = ("run_s", "decode_s", "verify_s")


def import_program():
    """Puts ``src/`` first on the path and imports the benchmark modules."""
    init = SRC / "sgdcodec" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from a checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import sgdcodec

    if Path(sgdcodec.__file__).resolve() != init.resolve():
        sys.exit(f"error: sgdcodec was imported from {sgdcodec.__file__}")
    import calibrate
    import tracer
    import workloads

    return calibrate, tracer, workloads


def measure_setup(name: str, reference_s: float) -> list[float]:
    """Calibrated cold set-up times, one fresh interpreter each."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
            cwd=ROOT,
        )
        setup, kernel = map(float, done.stdout.split()[-2:])
        times.append(setup * reference_s / kernel)
    return times


def run_passes(calibrate, workload, cases, seconds: float, workdir: str) -> list[list]:
    """Whole passes over the case list until ``seconds`` have elapsed.

    The calibration kernel runs before and after every op; the op's scale
    is the reference kernel time over the mean of the two.
    """
    passes: list[list] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = []
        for case in cases:
            before = calibrate.kernel_seconds()
            op = workload.op(case, workdir)
            after = calibrate.kernel_seconds()
            op.scale = 2 * calibrate.REFERENCE_S / (before + after)
            ops.append(op)
        passes.append(ops)
    return passes


def calibrated(passes, field: str) -> float:
    """Mean over the cases of each case's median calibrated ``field``."""
    by_case: dict[str, list[float]] = {}
    for ops in passes:
        for op in ops:
            by_case.setdefault(op.case, []).append(getattr(op, field) * op.scale)
    return sum(statistics.median(v) for v in by_case.values()) / len(by_case)


def check_outputs(ops, pins: dict[str, str]) -> tuple[int, Counter]:
    """Ops whose outcome disagrees with the pins, and failures by type."""
    mismatched = 0
    failures: Counter[str] = Counter()
    for op in ops:
        want = pins.get(op.case)
        pinned_raise = want is not None and want.startswith("raises:")
        if want is None:
            ok = False
        elif op.outcome == want:
            ok = op.failure is None or pinned_raise
        else:
            ok = pinned_raise and op.failure is None
            if not op.outcome.startswith("raises:") and not pinned_raise:
                op.failure = op.failure or "digest_mismatch"
        mismatched += not ok
        if op.failure:
            failures[op.failure] += 1
    return mismatched, failures


def phase_metrics(passes) -> dict[str, float]:
    """The per-op phase figures of one set of passes."""
    ops = [op for ops in passes for op in ops]
    run_total = sum(op.run_s * op.scale for op in ops)
    first = passes[0]
    out = {name: calibrated(passes, name) for name in PHASES}
    out["elements_per_s"] = (
        sum(op.elements for op in ops) / run_total if run_total else 0.0
    )
    out["stream_bits"] = float(sum(op.stream_bits for op in first))
    out["charged_bits"] = float(sum(op.charged_bits for op in first))
    out["failed_share"] = sum(op.failure is not None for op in ops) / len(ops)
    return out


def layer_metrics(tracer, tr, setup_tr, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per op."""
    ops = [op for ops in traced for op in ops]
    n = len(ops)
    scale = statistics.median(op.scale for op in ops)
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = tr.calls[name] / n
    for name in SECONDS:
        out[f"{name}.s"] = tr.inclusive[name] * scale / n
    out["model.generate_dataset.s"] = (
        setup_tr.inclusive["model.generate_dataset"] * scale
    )
    out["stable.stable_sigmoid_float.calls"] = float(
        setup_tr.calls["stable.stable_sigmoid_float"]
    )
    reverse = "sgd_engine.reverse_step"
    returned = tr.calls[reverse] - tr.raised[reverse]
    out[f"{reverse}.candidates"] = tr.reverse_candidates / n
    out[f"{reverse}.hit_ratio"] = (
        returned / tr.reverse_candidates if tr.reverse_candidates else 0.0
    )
    out[f"{reverse}.failed"] = tr.raised[reverse] / n
    out["harness.artifacts.s"] = tr.writer_seconds() * scale / n
    out["harness.artifacts.bytes"] = sum(op.artifact_bytes for op in ops) / n
    for module in tracer.MODULES:
        out[f"{module}.self_s"] = tr.self_s[module] * scale / n
    plain = phase_metrics(untraced)
    hooked = phase_metrics(traced)
    out.update(plain)
    for name in PHASES:
        out[f"trace_overhead.{name}"] = hooked[name] - plain[name]
    return out


def print_metrics(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value!r:>24} {units.get(name, '')}")


def write_pins(workload, workdir: str) -> int:
    """Records each case's outcome after checking that it repeats."""
    first = [workload.op(case, workdir) for case in workload.cases]
    again = [workload.op(case, workdir) for case in workload.cases]
    for a, b in zip(first, again):
        if a.outcome != b.outcome:
            print(f"{a.case}: outcome does not repeat", file=sys.stderr)
            return 1
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[workload.name] = {op.case: op.outcome for op in first}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    for op in first:
        print(f"{workload.name} {op.case}: {op.outcome}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    calibrate, tracer, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    cases = workload.ordered_cases(args.seed)
    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        if args.write_pins:
            return write_pins(workload, workdir)
        if args.trace:
            setup_tr = tracer.Tracer()
            setup_tr.install()
            try:
                workload.prepare()
            finally:
                setup_tr.uninstall()
            half = args.seconds / 2
            untraced = run_passes(calibrate, workload, cases, half, workdir)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = run_passes(calibrate, workload, cases, half, workdir)
            finally:
                tr.uninstall()
            passes = untraced + traced
        else:
            setup = measure_setup(workload.name, calibrate.REFERENCE_S)
            workload.prepare()
            passes = run_passes(calibrate, workload, cases, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for ops in passes for op in ops]
    pins = json.loads(PINS.read_text()).get(workload.name, {})
    mismatched, failures = check_outputs(ops, pins)
    if args.trace:
        values = layer_metrics(tracer, tr, setup_tr, traced, untraced)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_s": calibrated(passes, "wall_s"),
            "cpu_s": calibrated(passes, "cpu_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    with open(DECLARATION, encoding="utf-8") as fh:
        declaration = json.load(fh)
    wanted = declaration["per_layer" if args.trace else "end_to_end"]
    units = {
        m["name"]: m["unit"]
        for m in declaration["end_to_end"] + declaration["per_layer"]
    }
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(passes)} passes of {len(cases)} ops"
    )
    if args.trace:
        print_metrics("per-layer (per op)", values, units)
    else:
        print_metrics("end-to-end", values, units)
        print(f"  setup_s samples: {[round(t, 4) for t in setup]}")
        print_metrics("phases", phase_metrics(passes), units)
    walls = sorted(op.wall_s for op in ops)
    if len(walls) >= 4:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(
            f"uncalibrated op wall time: n={len(walls)} q1={q1:.4f} "
            f"median={q2:.4f} q3={q3:.4f} max={walls[-1]:.4f} s; "
            f"median scale {statistics.median(op.scale for op in ops):.4f}"
        )
    verdict = "PASS" if mismatched == 0 else "FAIL"
    print(
        f"output check: {verdict}: {len(ops) - mismatched}/{len(ops)} ops match "
        f"pins.json; program failures by type: {dict(sorted(failures.items()))}"
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: declared metrics not computed: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": mismatched == 0,
        "attempted": len(ops),
        "failed": mismatched,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
