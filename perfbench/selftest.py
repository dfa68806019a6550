"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

It runs a ``solve`` on 1D with 16 cells and the schedule 2, 4, 8 through
the same code as the real workloads, once untraced and once traced, and
checks that:

1. every end-to-end metric and every per-layer metric of ``BENCHMARK.json``
   is printed with its unit;
2. spans nest, self times are >= 0, and the self times add up to the root
   span's duration;
3. the correctness gates reject a corrupted solution file, a sweep row with
   a nonpositive minimum, and a malformed verify row.

It prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run  # pins the thread environment before numpy loads
import spans

TINY_SCHEDULE = (2, 4, 8)


def _fail(problems: list[str], message: str) -> None:
    problems.append(message)
    print(f"FAIL {message}")


def check_printed(problems, output: str, declared: list[dict]) -> None:
    lines = output.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(problems, f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        _fail(problems, f"tiny run not clean: {lines[-1][:200]}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        _fail(problems, f"metric names differ: {sorted(result['metrics'])}")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            _fail(problems, f"{m['name']}: reported {got}, declared unit {m['unit']}")
        if not any(line.startswith(f"tiny {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines):
            _fail(problems, f"{m['name']} not printed with its unit")


def check_spans(problems, path: Path) -> None:
    recorded = spans.load(path)
    by_id = {s["id"]: s for s in recorded}
    roots = [s for s in recorded if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != "cli.main":
        _fail(problems, f"expected one cli.main root, got {[r['name'] for r in roots]}")
        return
    root = roots[0]
    for s in recorded:
        parent = by_id.get(s["parent"])
        if s is root:
            continue
        if parent is None:
            _fail(problems, f"span {s['name']} has an unknown parent")
        elif not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            _fail(problems, f"span {s['name']} is not inside its parent {parent['name']}")
    selft = spans.self_times(recorded)
    negative = [by_id[i]["name"] for i, t in selft.items() if t < 0]
    if negative:
        _fail(problems, f"negative self time in {negative[:5]}")
    total, duration = sum(selft.values()), root["end"] - root["start"]
    if abs(total - duration) > 1e-9 * max(1.0, len(recorded)):
        _fail(problems, f"self times add to {total!r}, root lasted {duration!r}")
    layers = {s["name"].split(".")[0] for s in recorded}
    expected = {"cli", "config", "mesh", "measures", "singularity", "fields", "solver"}
    if not expected <= layers:
        _fail(problems, f"layers missing from the trace: {sorted(expected - layers)}")


def check_gates(problems, config_path: Path, out_dir: Path, scratch: Path) -> None:
    from workloads import SolveGate, SweepGate, VerifyGate

    gate = SolveGate(config_path)
    if gate(out_dir, 0).failed:
        _fail(problems, f"solve gate rejects the program's own output "
                        f"(residual {gate.residual(out_dir)!r}, bound {gate.bound!r})")
    final = f"solution_n{TINY_SCHEDULE[-1]}.csv"
    for label, edit in (("perturbed", lambda u: u * 1.001), ("negated", lambda u: -u)):
        bad = scratch / label
        shutil.copytree(out_dir, bad)
        lines = (bad / final).read_text(encoding="utf-8").splitlines()
        mid = len(lines) // 2
        *coords, value = lines[mid].split(",")
        lines[mid] = ",".join(coords + [repr(edit(float(value)))])
        (bad / final).write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcome = gate(bad, 0)
        if not (outcome.failed == 1 and outcome.rejected == 1):
            _fail(problems, f"solve gate accepts a {label} solution")

    sweep_cfg = scratch / "sweep.cfg"
    sweep_cfg.write_text(
        "domain.dim = 1\nsweep.gamma = 1.5\nsweep.cells = 16\nsweep.measure = none\n"
        "sequence.n_schedule = 2, 4, 8\n", encoding="utf-8")
    sweep_out = scratch / "sweep"
    sweep_out.mkdir()
    header = "gamma,cells,measure,status,levels,final_l1_diff,final_residual,final_l1_norm,min_K_0.125,min_K_0.25\n"
    for min_k, want_failed in (("0.1", 0), ("-0.1", 1)):
        (sweep_out / "sweep.csv").write_text(
            header + f"1.5,16,none,ok,3,1e-4,1e-11,0.3,{min_k},0.2\n", encoding="utf-8")
        if SweepGate(sweep_cfg)(sweep_out, 0).failed != want_failed:
            _fail(problems, f"sweep gate misjudges a row with min_K {min_k}")

    good = [["name", "observed", "bound", "status"]] + [
        [f"{suite}.x", "0.5", "1", "pass"] for suite in ("lower_bound", "monotone",
        "energy_law", "tails", "kato", "uniqueness", "sandwich", "manufactured")]
    if not VerifyGate.rows_ok(good, 0):
        _fail(problems, "verify gate rejects well-formed rows")
    name = good[1][0]
    for label, row, code in (
        ("a non-numeric observed value", [name, "abc", "1", "pass"], 0),
        ("an unknown status", [name, "0.5", "1", "maybe"], 0),
        ("a row with a missing field", [name, "0.5", "pass"], 0),
        ("exit 3 with no fail row", good[1], 3),
    ):
        rows = good[:1] + [row] + good[2:]
        if VerifyGate.rows_ok(rows, code):
            _fail(problems, f"verify gate accepts {label}")


def main() -> int:
    sys.path.insert(1, str(run.ROOT / "src"))
    from workloads import SolveGate, Workload, atom_config

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = Workload("tiny", "solve", lambda seed: atom_config(1, 16, seed, TINY_SCHEDULE), SolveGate)
    problems: list[str] = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "tiny", "--seconds", "1", "--trace", str(trace)],
                            registry={"tiny": tiny})
        if code != 0:
            _fail(problems, f"run.main exited {code} with --trace {trace}")
            continue
        check_printed(problems, buf.getvalue(), declared[section])

    traced = run.WORK / "tiny-seed0-trace1"
    span_files = sorted(traced.glob("spans_*.json"))
    if not span_files:
        _fail(problems, "the traced run wrote no spans")
    for path in span_files:
        check_spans(problems, path)

    plain = run.WORK / "tiny-seed0-trace0"
    scratch = run.WORK / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    check_gates(problems, plain / "config.cfg", plain / "out", scratch)

    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
