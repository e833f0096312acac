#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs; takes about a minute.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload, in both modes, it checks
that run.py prints every metric BENCHMARK.json names, with its unit, in
the human lines and in the final JSON, and that no job failed. It also
checks that the timeline is valid trace-event JSON, that a corrupted
expected digest fails the run and names the job, and that bad arguments
are refused with a diagnostic and no result.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(*args):
    return subprocess.run([*RUN, *args], capture_output=True, text=True,
                          cwd=ROOT)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_metrics(proc, names, label):
    res = result_of(proc)
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
    if res is None:
        check(False, f"{label}: no JSON result")
        return None
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(res)}")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{label}: correct={res['correct']} failed={res['failed']} "
          f"attempted={res['attempted']}")
    check(set(res["metrics"]) == set(names),
          f"{label}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(res['metrics']) ^ set(names))}")
    human = proc.stdout.splitlines()[:-1]
    for name, unit in names.items():
        got = res["metrics"].get(name, {})
        check(got.get("unit") == unit,
              f"{label}: {name} unit {got.get('unit')}, expected {unit}")
        check(isinstance(got.get("value"), (int, float)),
              f"{label}: {name} has no numeric value")
        check(any(l.split()[:1] == [name] and unit in l.split()
                  for l in human),
              f"{label}: no printed line for {name} with unit {unit}")
    check(any(l.startswith("failed_frac") and " 0 frac" in l for l in human),
          f"{label}: failed_frac is not printed as 0")
    return res


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for wl in workloads:
        common = ["--workload", wl, "--seed", "7", "--seconds", "1",
                  "--smoke"]
        check_metrics(run(*common, "--trace", "0"), end_to_end,
                      f"{wl} --trace 0")
        proc = run(*common, "--trace", "1")
        check_metrics(proc, per_layer, f"{wl} --trace 1")
        timeline = [l.split()[1] for l in proc.stdout.splitlines()
                    if l.startswith("timeline: ")]
        check(len(timeline) == 1, f"{wl}: timeline path not printed")
        if timeline:
            events = json.loads(Path(timeline[0]).read_text())["traceEvents"]
            spans = [e for e in events if e["ph"] == "X"]
            check(spans and all(isinstance(e["ts"], (int, float)) and
                                e["dur"] >= 0 for e in spans),
                  f"{wl}: timeline has no valid complete events")
        check(any(l.startswith("layer ledger") for l in
                  proc.stdout.splitlines()), f"{wl}: no layer ledger")
        print(f"ok: {wl}", flush=True)

    # A corrupted expected digest must fail the run and name the job.
    table = json.loads((BENCH_DIR / "expected.json").read_text())
    entry = table["workloads"]["analogues-deep"]["30"]["chart"]["profile"]
    hashes = entry["sections"]["low-utility data structures"].split()
    hashes[2] = "000000" if hashes[2] != "000000" else "ffffff"
    entry["sections"]["low-utility data structures"] = " ".join(hashes)
    corrupt = bench.build_dir() / "perfbench-smoke" / "expected.json"
    corrupt.parent.mkdir(parents=True, exist_ok=True)
    corrupt.write_text(json.dumps(table))
    proc = run("--workload", "analogues-deep", "--seed", "7", "--seconds",
               "1", "--trace", "0", "--smoke", "--expected", str(corrupt))
    res = result_of(proc)
    check(res is not None and res["failed"] > 0 and not res["correct"],
          "corrupted digest: run did not fail")
    check("FAILED analogues-deep/chart/profile" in proc.stdout and
          "line 3" in proc.stdout,
          "corrupted digest: failure does not name the job and line")
    print("ok: corrupted digest is caught", flush=True)

    bad = [["--seed", "12abc"], ["--seed", "99999999999999999999"],
           ["--seed", "-1"], ["--workload", "nope"], ["--scale", "0"],
           ["--scale", "5x"], ["--seconds", "0"], ["--trace", "2"],
           ["--sed", "1"]]
    for args in bad:
        base = {"--workload": "analogues-deep", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        if args[0] in base:
            base[args[0]] = args[1]
            argv = [x for kv in base.items() for x in kv]
        else:
            argv = [x for kv in base.items() for x in kv] + args
        proc = run(*argv, "--smoke")
        check(proc.returncode != 0 and result_of(proc) is None and
              proc.stderr.strip(),
              f"bad argument {args} was not refused with a diagnostic")
    print("ok: bad arguments are refused", flush=True)

    if failures:
        print(f"{len(failures)} smoke check(s) failed")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
