"""Benchmark of singpde: three CLI workloads, end-to-end metrics, and a traced
per-layer run.

    python3 perfbench/run.py [--workload solve_3d|verify_2d|sweep_1d|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it finds ``src/`` next to its own
directory and writes only under ``.perfbench/`` at the checkout's root.

Load is a closed loop: one harness process starts one command at a time, each
in a fresh process through the public entry point ``singpde.cli.main``, and
keeps starting commands while the next one is expected to end within
``--seconds``.  Every process runs with one BLAS/OpenMP thread.

``--trace 0`` reports the end-to-end metrics: medians over the run's
commands, plus ``setup_s`` from fresh set-up processes.  ``--trace 1``
alternates untraced and traced commands and reports the per-layer metrics of
the traced ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy loads here or in any child: with two
# OpenBLAS threads, solve_3d ran slower and its CSV bytes varied between runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
for _key in [k for k in os.environ if k.startswith("SINGPDE_")]:
    del os.environ[_key]  # config overrides would change the workload

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
WORK = ROOT / ".perfbench"

# Set-up is timed SETUP_FIRST times before the first command and once before
# each command, so its samples span the run as the machine's speed drifts.
SETUP_FIRST = 3
# A run must end within 180 s; no command starts that would end past this.
RUN_LIMIT_S = 160.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "levels_per_s": "1/s",
}
# Outcome metrics: zero on a healthy workload, so they carry no bound.  They
# are printed on every run and reported in the JSON of the traced run.
OUTCOME_UNITS = {"ops_failed_frac": "ratio", "checks_failed": "count"}
PER_LAYER_UNITS = {
    "mesh.solve_spd.calls": "count",
    "mesh.solve_spd.s": "s",
    "mesh.solve_spd.unknowns": "count",
    "mesh.solve_spd.ns_per_unknown": "ns",
    "mesh.solve_spd.failed": "count",
    "mesh.build_laplacian.calls": "count",
    "mesh.build_laplacian.s": "s",
    "mesh.build_grid.calls": "count",
    "mesh.build_grid.s": "s",
    "solver.solve_sequence.calls": "count",
    "solver.solve_sequence.distinct": "count",
    "solver.sequence_reuse": "ratio",
    "solver.levels": "count",
    "solver.picard_iterations": "count",
    "solver.solves_per_picard": "ratio",
    "solver.nonconverged": "count",
    "solver.self_s": "s",
    "singularity.h.calls": "count",
    "singularity.h.points": "count",
    "singularity.h.s": "s",
    "fields.eval.calls": "count",
    "fields.eval.s": "s",
    "measures.mollify.calls": "count",
    "measures.mollify.s": "s",
    "diagnostics.calls": "count",
    "diagnostics.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "cli.output_files": "count",
    "config.load_s": "s",
    "trace.overhead_s": "s",
    **OUTCOME_UNITS,
}


@dataclass
class Sample:
    """One command: its cost as the user sees it and what it produced."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    outcome: "workloads.Outcome"
    traced: bool = False
    layers: dict = field(default_factory=dict)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap proc with its resource usage; kill it at the deadline."""
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def time_setup(config_path: Path, deadline: float) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), "setup", str(config_path)], cwd=ROOT)
    _wait(proc, deadline)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return elapsed


def run_command(workload, gate, config_path: Path, work: Path, index: int,
                deadline: float, traced: bool) -> Sample:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    rss_path = work / f"peak_rss_{index}.txt"
    cmd = [sys.executable, str(CHILD), "run", str(rss_path)]
    spans_path = work / f"spans_{index}.json"
    if traced:
        cmd += ["--trace", str(spans_path), f"{work.name}/{index}"]
    cmd += ["--", *workload.argv(config_path, out_dir)]
    with open(work / f"command_{index}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        usage = _wait(proc, deadline)
        wall = time.perf_counter() - start
    code = proc.returncode
    try:
        peak_kb = int(rss_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):  # killed before it could tell
        peak_kb = usage.ru_maxrss
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, peak_kb / 1024.0,
                    code, gate(out_dir, code), traced)
    if traced and spans_path.is_file():
        sample.layers = spans.layer_metrics(spans.load(spans_path))
        files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.is_dir() else []
        sample.layers["cli.output_bytes"] = sum(p.stat().st_size for p in files)
        sample.layers["cli.output_files"] = len(files)
    return sample


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run of one workload; returns the result record."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.cfg"
    config_path.write_text(workload.config(seed), encoding="utf-8")

    setup = [] if trace else [time_setup(config_path, deadline) for _ in range(SETUP_FIRST)]
    gate = workload.gate(config_path)

    samples: list[Sample] = []
    costs: list[float] = []
    loop_start = time.monotonic()
    while True:
        # With tracing on, commands alternate untraced / traced so both see
        # the same machine state; the difference is the tracing overhead.
        traced = trace and len(samples) % 2 == 1
        t0 = time.monotonic()
        if not trace:
            setup.append(time_setup(config_path, deadline))
        samples.append(run_command(workload, gate, config_path, work, len(samples),
                                   deadline, traced))
        costs.append(time.monotonic() - t0)
        now = time.monotonic()
        expected = statistics.median(costs)
        if samples[-1].code < 0 or now + expected > deadline:
            break
        if trace and not any(s.traced for s in samples):
            continue
        if now - loop_start + expected > seconds:
            break

    attempted = sum(s.outcome.attempted for s in samples)
    failed = sum(s.outcome.failed for s in samples)
    outcomes = {
        "ops_failed_frac": failed / attempted,
        "checks_failed": max(s.outcome.checks_failed for s in samples),
    }
    plain = [s for s in samples if not s.traced]
    if trace:
        traced = [s for s in samples if s.traced]
        metrics = {
            name: statistics.median(s.layers.get(name, 0) for s in traced)
            for name in PER_LAYER_UNITS if name not in OUTCOME_UNITS
        }
        metrics["trace.overhead_s"] = (
            statistics.median(s.wall_s for s in traced)
            - statistics.median(s.wall_s for s in plain)
        )
        metrics.update(outcomes)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in plain),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(s.cpu_s for s in plain),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
            "levels_per_s": statistics.median(s.outcome.levels / s.wall_s for s in plain),
        }
        units = END_TO_END_UNITS
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commands": len(samples),
        "traced_commands": sum(s.traced for s in samples),
        "exit_codes": [s.code for s in samples],
        "correct": all(s.outcome.rejected == 0 for s in samples),
        "attempted": attempted,
        "failed": failed,
        "outcomes": outcomes,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_s_samples": [s.wall_s for s in plain],
        "setup_s_samples": setup,
        "elapsed_s": time.monotonic() - start,
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "thread_env": PINNED_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "commit": commit,
        "seed": seed,
    }


def report_lines(result: dict) -> list[str]:
    name = result["workload"]
    lines = []
    for metric, m in result["metrics"].items():
        lines.append(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        for metric, value in result["outcomes"].items():
            lines.append(f"{name} {metric} = {value:.6g} {OUTCOME_UNITS[metric]}")
    lines.append(
        f"{name}: {result['commands']} commands ({result['traced_commands']} traced), "
        f"exit codes {sorted(set(result['exit_codes']))}, {result['failed']}/"
        f"{result['attempted']} operations failed, correct={result['correct']}"
    )
    return lines


def main(argv=None, registry=None) -> int:
    """Run the named workloads; ``registry`` replaces the real ones in tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "singpde" / "cli.py").is_file():
        print(f"perfbench: no singpde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    if registry is None:
        from workloads import WORKLOADS as registry

    names = list(registry) if args.workload == "all" else [args.workload]
    if any(n not in registry for n in names):
        parser.error(f"--workload must be one of {list(registry)} or all")

    env = environment(args.seed)
    results = []
    for name in names:
        work = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
        result = measure(registry[name], args.seed, args.seconds, bool(args.trace), work)
        result["environment"] = env
        (work / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
        results.append(result)
        for line in report_lines(result):
            print(line)
    print("environment " + json.dumps(env))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
