"""Benchmark of the cauchykl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of cauchykl; the program is imported
from ``src/``. The workloads are defined, with the reason for each, in
workloads.py: ``batch-closed``, ``batch-numeric`` and ``verify-exact``.

One pass feeds the workload's whole input to ``cauchykl.cli.main`` in a
fresh process on one thread (worker.py); passes repeat until S seconds
have gone. Every output record of every pass is checked (check.py).
Wall times are converted to seconds on a reference core by the loop in
calib.py, run next to every timed call, because the speed of a core on
a shared machine swings by up to a factor of two within seconds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured with tracing off:

- ``setup_s``: time a fresh process takes to import ``cauchykl.cli`` and
  build its parser, median over the passes' processes and as many
  processes that only set up;
- ``pass_s``: time the program takes for the workload's whole input,
  set-up excluded, median over passes;
- ``peak_rss_mb``: peak resident memory of a pass's process, median.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones derived from the spans (spans.py), with the
tracing overhead. The line before the last is a report: the machine, the
workload-specific end-to-end figures (``records_per_s``, ``verify_s``,
``fail_frac``, ``max_err_eps``), the counts that do not depend on the
machine, and for traced runs each timing's median, upper percentile and
sample count. The input (each call's arguments in ``.args``, the batch
stream in ``.jsonl``), output and spans of the last pass of each
workload are left in ``.perfbench/``.

``python3 perfbench/selftest.py`` is the benchmark's own test: the counts
that do not depend on the machine repeat exactly. The numbers of the
commit the benchmark was written against are in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import calib
import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_PASSES = 3
WORKER_TIMEOUT_S = 120


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def _write_input(workload, path: Path) -> None:
    """Write the pass input for worker.py, and beside it each call's arguments and stdin."""
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "why": workload.why,
                   "segments": [{"argv": s.argv, "stdin": s.stdin} for s in workload.segments]}, fh)
    with open(path.with_suffix(".args"), "w") as fh:
        fh.writelines(" ".join(["cauchykl", *s.argv]) + "\n" for s in workload.segments)
    with open(path.with_suffix(".jsonl"), "w") as fh:
        fh.writelines(s.stdin for s in workload.segments)


def _run_worker(*paths: Path) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), str(SRC), *map(str, paths)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


class Checker:
    """Checks each pass's output; a segment whose text repeats an earlier one repeats its verdict."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.verdicts: dict[tuple[int, str, object], object] = {}
        self.first = None

    def check_pass(self, result: dict, output_path: Path):
        with open(output_path) as fh:
            lines = fh.read().splitlines(keepends=True)
        tally = check.Tally()
        at = 0
        for index, (segment, call) in enumerate(zip(self.workload.segments, result["calls"])):
            text = "".join(lines[at:at + call["lines"]])
            at += call["lines"]
            key = (index, text, call["rc"])
            verdict = self.verdicts.get(key)
            if verdict is None:
                if segment.argv[0] == "batch":
                    verdict = check.check_batch(text, segment.expect, call["rc"])
                else:
                    verdict = check.check_verify(text, segment.argv, call["rc"])
                if call["error"]:
                    verdict.problems.append(call["error"])
                self.verdicts[key] = verdict
            tally.merge(verdict)
        check.judge_mc(tally)
        if self.first is None:
            self.first = tally
        return tally


def _scaled_pass_s(result: dict) -> float:
    return sum(calib.scale((c["end_ns"] - c["start_ns"]) * 1e-9, c["loop_s"])
               for c in result["calls"])


def _percentile_summary(values: list[float], scale: float) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, and the count."""
    values = sorted(v * scale for v in values)
    n = len(values)
    summary = {"n": n, "median": statistics.median(values) if values else 0.0}
    for p in (99.99, 99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            summary[f"p{p:g}"] = values[min(n - 1, int(n * p / 100.0))]
            break
    return summary


# Per-layer metrics: name -> (source, key, scale, unit). Sources: "span"
# (median over span samples), "self" (layer self time per pass), "count"
# (machine-independent count per pass), "rate" (count per second of the
# spans named in key).
PER_LAYER = {
    "cli.execute_us": ("span", "cli.execute_job", 1e-3, "us"),
    "cli.validate_us": ("span", "cli.validate", 1e-3, "us"),
    "cli.format_us": ("span", "cli.format_record", 1e-3, "us"),
    "cli.io_us": ("span", "cli.io", 1e-3, "us"),
    "cli.records": ("count", "cli.records", 1, "count"),
    "cli.error_records": ("count", "cli.error_records", 1, "count"),
    "cli.self_s": ("self", "cli", 1, "s"),
    "core.kl_closed_us": ("span", "core.kl_closed", 1e-3, "us"),
    "core.cross_entropy_closed_us": ("span", "core.cross_entropy_closed", 1e-3, "us"),
    "core.entropy_closed_us": ("span", "core.entropy_closed", 1e-3, "us"),
    "core.integral_a_us": ("span", "core.integral_a", 1e-3, "us"),
    "core.prudnikov_special_us": ("span", "core.prudnikov_special", 1e-3, "us"),
    "core.calls": ("count", "core.calls", 1, "count"),
    "core.self_s": ("self", "core", 1, "s"),
    "oracle.kl_numeric_ms": ("span", "oracle.kl_numeric", 1e-6, "ms"),
    "oracle.cross_entropy_numeric_ms": ("span", "oracle.cross_entropy_numeric", 1e-6, "ms"),
    "oracle.integral_a_numeric_ms": ("span", "oracle.integral_a_numeric", 1e-6, "ms"),
    "oracle.kl_numeric_evals": ("count", "oracle.kl_numeric_evals", 1, "count"),
    "oracle.kl_numeric_evals_max": ("count", "oracle.kl_numeric_evals_max", 1, "count"),
    "oracle.cross_entropy_numeric_evals": ("count", "oracle.cross_entropy_numeric_evals", 1, "count"),
    "oracle.cross_entropy_numeric_evals_max":
        ("count", "oracle.cross_entropy_numeric_evals_max", 1, "count"),
    "oracle.integral_a_numeric_evals": ("count", "oracle.integral_a_numeric_evals", 1, "count"),
    "oracle.integral_a_numeric_evals_max":
        ("count", "oracle.integral_a_numeric_evals_max", 1, "count"),
    "oracle.ns_per_eval": ("span", "oracle.ns_per_eval", 1, "ns"),
    "oracle.unconverged": ("count", "oracle.unconverged", 1, "count"),
    "oracle.kl_monte_carlo_ms": ("span", "oracle.kl_monte_carlo", 1e-6, "ms"),
    "oracle.mc_samples_per_s":
        ("rate", ("oracle.mc_samples", ("oracle.kl_monte_carlo",)), 1, "1/s"),
    "oracle.self_s": ("self", "oracle", 1, "s"),
    "certificate.verify_telescoping_us": ("span", "certificate.verify_telescoping", 1e-3, "us"),
    "certificate.verify_ode_dadd_us": ("span", "certificate.verify_ode_dadd", 1e-3, "us"),
    "certificate.verify_integration_constant_ms":
        ("span", "certificate.verify_integration_constant", 1e-6, "ms"),
    "certificate.exact_points": ("count", "certificate.exact_points", 1, "count"),
    "certificate.exact_points_per_s":
        ("rate", ("certificate.exact_points",
                  ("certificate.verify_telescoping", "certificate.verify_ode_dadd")), 1, "1/s"),
    "certificate.nonzero_residuals": ("count", "certificate.nonzero_residuals", 1, "count"),
    "certificate.self_s": ("self", "certificate", 1, "s"),
    "suites.certificate_s": ("span", "suites.certificate_suite", 1e-9, "s"),
    "suites.ode_s": ("span", "suites.ode_suite", 1e-9, "s"),
    "suites.checks": ("count", "suites.checks", 1, "count"),
    "suites.checks_failed": ("count", "suites.checks_failed", 1, "count"),
    "suites.self_s": ("self", "suites", 1, "s"),
}


def _per_layer(traced: list[dict], untraced_pass_s: float, traced_pass_s: float,
               tally, records: int) -> tuple[dict, dict]:
    summaries = [r["trace"] for r in traced]
    metrics, report = {}, {}
    for name, (source, key, scale, unit) in PER_LAYER.items():
        if source == "span":
            values = [v for s in summaries for v in s["samples"].get(key, [])]
            detail = _percentile_summary(values, scale)
            value = detail["median"]
            report[name] = detail
        elif source == "self":
            value = statistics.median(s["self_s"].get(key, 0.0) for s in summaries)
        elif source == "count":
            value = summaries[0]["counts"][key]
        else:
            count_key, span_names = key
            rates = []
            for s in summaries:
                busy = sum(sum(s["samples"].get(n, [])) for n in span_names) * 1e-9
                if busy > 0.0:
                    rates.append(s["counts"][count_key] / busy)
            value = statistics.median(rates) if rates else 0.0
        metrics[name] = {"value": value, "unit": unit}
    metrics["core.max_err_eps"] = {"value": tally.max_err_eps, "unit": "eps"}
    metrics["check.fail_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    metrics["trace.overhead_frac"] = {"value": traced_pass_s / untraced_pass_s - 1.0,
                                      "unit": "ratio"}
    self_total = sum(statistics.median(s["self_s"].get(layer, 0.0) for s in summaries)
                     for layer in ("cli", "core", "oracle", "certificate", "suites"))
    report["accounting"] = {
        "untraced_pass_s": untraced_pass_s,
        "traced_pass_s": traced_pass_s,
        "layer_self_sum_s": self_total,
        "self_sum_minus_untraced_s": self_total - untraced_pass_s,
        "overhead_s": traced_pass_s - untraced_pass_s,
    }
    if records:
        report["accounting"]["untraced_records_per_s"] = records / untraced_pass_s
        report["accounting"]["traced_records_per_s"] = records / traced_pass_s
    return metrics, report


def _e2e_report(workload: str, untraced: list[dict], pass_s: float, tally, records: int) -> dict:
    raw = [sum((c["end_ns"] - c["start_ns"]) * 1e-9 for c in r["calls"]) for r in untraced]
    loops = [c["loop_s"] for r in untraced for c in r["calls"]]
    report = {
        "pass_s_unscaled": {"value": statistics.median(raw), "unit": "s"},
        "reference_loop_s": {"value": statistics.median(loops), "unit": "s",
                             "reference": calib.REFERENCE_S},
        "fail_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"},
    }
    if workload == "verify-exact":
        report["verify_s"] = {"value": pass_s, "unit": "s"}
    else:
        report["records_per_s"] = {"value": records / pass_s, "unit": "1/s"}
    if workload == "batch-closed":
        report["max_err_eps"] = {"value": tally.max_err_eps, "unit": "eps"}
    return report


def _counters(first) -> dict:
    counts = dict(sorted(first.counts.items()))
    for op, values in sorted(first.evaluations.items()):
        values = sorted(values)
        counts[f"evaluations.{op}.median"] = values[len(values) // 2]
        counts[f"evaluations.{op}.max"] = values[-1]
        counts[f"evaluations.{op}.total"] = sum(values)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cauchykl" / "cli.py").is_file():
        print(f"perfbench: no cauchykl sources at {SRC}", file=sys.stderr)
        return 2
    machine = _machine()
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    input_path = OUT / f"{args.workload}.input.json"
    output_path = OUT / f"{args.workload}.output.jsonl"
    spans_path = OUT / f"{args.workload}.spans.tsv"
    _write_input(workload, input_path)
    generate_s = time.perf_counter() - started

    checker = Checker(workload)
    tally_all = check.Tally()
    untraced, traced, setups = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracing = bool(args.trace) and len(traced) < len(untraced)
        try:
            result = _run_worker(input_path, output_path, *([spans_path] if tracing else []))
            setups.append(_run_worker())
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: pass failed: {exc}", file=sys.stderr)
            return 1
        tally_all.merge(checker.check_pass(result, output_path))
        (traced if tracing else untraced).append(result)
        enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    pass_s = statistics.median(_scaled_pass_s(r) for r in untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "generate_s": generate_s,
        "end_to_end": _e2e_report(args.workload, untraced, pass_s, tally_all,
                                  checker.first.attempted),
        "counters": _counters(checker.first),
        "problems": tally_all.problems,
    }
    if args.trace:
        traced_pass_s = statistics.median(_scaled_pass_s(r) for r in traced)
        records = checker.first.attempted if args.workload != "verify-exact" else 0
        metrics, report["per_layer"] = _per_layer(traced, pass_s, traced_pass_s, tally_all,
                                                  records)
        report["trace_counters"] = traced[0]["trace"]["counts"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                calib.scale(r["setup_s"], r["setup_loop_s"]) for r in untraced + traced + setups),
                "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced),
                            "unit": "MB"},
        }
    print(json.dumps(report))
    print(json.dumps({"correct": tally_all.failed == 0, "attempted": tally_all.attempted,
                      "failed": tally_all.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
