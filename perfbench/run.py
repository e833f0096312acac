#!/usr/bin/env python3
"""The lud benchmark: one command, three workloads, every job checked.

    python3 perfbench/run.py --workload composed-wide --seed 1 \
        --seconds 45 --trace 0

Run from the repository root. The first run builds the tools into
.bench_build (or $CARGO_TARGET_DIR) with CMake; later runs only re-check
the build. BENCHMARK.json names two of the workloads; analogues-deep is
kept for runs by hand (see NOTES.md).

--trace 0 measures the end-to-end metrics: it generates the workload's
inputs from the seed (setup_s), then repeats passes of real tool jobs
(lud-run, lud-replay) for about --seconds, at least MIN_PASSES times, with
the reference-speed loops (lud-bench-calibrate) between them, and prints
each metric with its sample count. Timed metrics are in seconds at the
reference speed. One tool job runs at a time (a closed loop with one
client), always with --engine=threaded and no --shards/--threads.

--trace 1 measures the per-layer metrics: it runs lud-bench-harness, which
repeats the same jobs in-process with a span around every public library
call, and prints per-layer costs, a layer ledger, and the path of a Chrome
trace-event timeline (open it in Perfetto or chrome://tracing).

Both modes check every job's output (see checks.py). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Maintenance: --record-table rewrites expected.json from the current build;
--smoke runs tiny inputs (see smoke_test.py); --scale overrides the
workload's scale; --expected points the checks at another table.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import traced  # noqa: E402

ROOT = BENCH_DIR.parent
DACAPO = ("antlr", "bloat", "chart", "fop", "pmd", "jython", "xalan",
          "hsqldb", "luindex", "lusearch", "eclipse", "avrora", "batik",
          "derby", "sunflow", "tomcat", "tradebeans", "tradesoap")

# Each workload runs every job kind, so every end-to-end metric exists on
# every workload; the inputs are what differ. Why each was chosen is in
# NOTES.md.
WORKLOADS = {
    "analogues-deep": dict(programs=DACAPO, scale=3000, smoke_scale=30,
                           obfuscate=False, profile=("--report", "--dead"),
                           optimize_passes=""),
    "composed-wide": dict(programs=("composed",), scale=1000, smoke_scale=40,
                          obfuscate=False, profile=("--all",),
                          optimize_passes="dead-stores"),
    "obfuscated-optimize": dict(programs=DACAPO, scale=1000, smoke_scale=30,
                                obfuscate=True, profile=("--report", "--dead"),
                                optimize_passes=""),
}

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("baseline_s", "s"), ("profile_s", "s"),
    ("profile_clients_s", "s"), ("capture_s", "s"), ("capture_mb", "MB"),
    ("replay_s", "s"), ("optimize_s", "s"), ("optimized_instr_frac", "frac"),
    ("peak_rss_mb", "MB"))

# The obfuscation seed is pinned: the junk it plants lands in hot or cold
# blocks by chance, and across seeds the workload's size varied about 2x
# (IQR/median 0.5 over five seeds), far more than any bound could allow.
# Pinned, the obfuscated programs are fixed inputs the table can hold.
OBFUSCATE_SEED = 1
TIMED = ("baseline_s", "profile_s", "profile_clients_s", "capture_s",
         "replay_s", "optimize_s")
MIN_PASSES = 3
SETUP_REPS = 2  # Then one more after each pass.
JOB_TIMEOUT_S = 60
HARD_CAP_S = 110  # Stop starting passes past this, to end well within 180 s.
TOOLS = ("lud-run", "lud-gen", "lud-replay", "lud-bench-harness",
         "lud-bench-calibrate")

# The reference-speed loops (calibrate.cpp): their checksum, and the sum of
# their quickest times on the 4-vCPU machine the bounds were set on. Timed
# metrics are reported in seconds at that speed; see NOTES.md.
CALIBRATE_CHECKSUM = "4275435322821454817"
CALIBRATE_NOMINAL_S = 0.115


def log(msg):
    print(msg, flush=True)


class BenchError(Exception):
    pass


def whole_number(lo, hi, what):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text):
            raise argparse.ArgumentTypeError(
                f"{what} wants a whole number, got '{text}'")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"{what} {text} is out of range [{lo}, {hi}]")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False,
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # Any whole number that fits in an int64; larger ones are refused
    # rather than silently folded.
    p.add_argument("--seed", required=True,
                   type=whole_number(0, 2**63 - 1, "--seed"))
    p.add_argument("--seconds", required=True,
                   type=whole_number(1, 3600, "--seconds"))
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--scale", type=whole_number(1, 1000000, "--scale"),
                   help="override the workload's scale")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one pass, for smoke_test.py")
    p.add_argument("--expected", type=Path, default=BENCH_DIR /
                   "expected.json", help="expected-output table")
    p.add_argument("--record-table", action="store_true",
                   help="rewrite the expected-output table and exit")
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# Build


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    path = Path(env) if env else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no lud sources under {ROOT}/src; run from a "
                         f"full checkout")
    bdir.mkdir(parents=True, exist_ok=True)
    logf = bdir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time costs a second and picks up targets that an
    # older build directory does not know yet.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(bdir), "-j", jobs, "--target", *TOOLS]]
    with open(logf, "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = logf.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {"lud-run": bdir / "lud" / "tools" / "lud-run",
            "lud-gen": bdir / "lud" / "tools" / "lud-gen",
            "lud-replay": bdir / "lud" / "tools" / "lud-replay",
            "lud-bench-harness": bdir / "lud-bench-harness",
            "lud-bench-calibrate": bdir / "lud-bench-calibrate"}


# --------------------------------------------------------------------------
# Jobs


def child_env():
    # LUD_ENGINE and friends would change what the tools run.
    return {k: v for k, v in os.environ.items() if not k.startswith("LUD_")}


class Job:
    """One finished child process: stdout, exit code, wall, peak RSS."""

    def __init__(self, argv, stderr_path, stdout_path=None):
        """Runs \\p argv to completion, killing it after JOB_TIMEOUT_S. The
        child is reaped on every path, exceptions included."""
        argv = [str(a) for a in argv]
        with open(stderr_path, "wb") as err, \
                open(stdout_path or os.devnull, "wb") as out_file:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out_file if stdout_path else subprocess.PIPE,
                stderr=err, env=child_env(), cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            status = None
            try:
                self.out = proc.stdout.read().decode(errors="replace") \
                    if proc.stdout else ""
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.stdout:
                    proc.stdout.close()
                if status is None:
                    proc.kill()
                    os.waitpid(proc.pid, 0)
            self.seconds = time.perf_counter() - start
        # Tell Popen the child is reaped, so it never waits for it again.
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.ok = self.code == 0
        self.error = ""
        if not self.ok:
            tail = Path(stderr_path).read_text(errors="replace").strip()
            why = "timed out" if self.code == -9 else f"exit {self.code}"
            self.error = f"{' '.join(argv[:3])} ...: {why}: " \
                         f"{tail.splitlines()[-1] if tail else ''}"


class Run:
    """State of one benchmark run over one workload."""

    def __init__(self, args, tools, bdir):
        self.args = args
        self.tools = tools
        self.wl = WORKLOADS[args.workload]
        self.scale = args.scale or (self.wl["smoke_scale"] if args.smoke
                                    else self.wl["scale"])
        self.programs = list(self.wl["programs"])
        # The seed permutes program order. composed-wide has one program, so
        # the seed changes nothing there.
        random.Random(args.seed).shuffle(self.programs)
        self.work = bdir / "perfbench-run" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = self.work / "inputs"
        self.scratch = self.work / "scratch"
        self.inputs.mkdir(parents=True)
        self.scratch.mkdir(parents=True)
        self.stderr = self.work / "stderr.txt"
        self.timeline_dir = bdir / "perfbench-timeline"
        self.snapshot = None
        self.calibrations = []
        self.samples = []  # (kind, program, seconds), in the order run

    def calibrate(self):
        """Times the reference-speed loops once and keeps both times."""
        job = self.job([self.tools["lud-bench-calibrate"]])
        fields = job.out.split()
        if not job.ok or len(fields) != 3 or fields[2] != CALIBRATE_CHECKSUM:
            raise BenchError(f"calibration failed: {job.error or job.out}")
        small, large = float(fields[0]), float(fields[1])
        self.calibrations.append((small, large))
        self.samples.append(("calibrate", "", small, large))

    def reference_s(self):
        """The run's quickest time of each loop, summed."""
        return (min(c[0] for c in self.calibrations) +
                min(c[1] for c in self.calibrations))

    def speed_factor(self):
        """CALIBRATE_NOMINAL_S over reference_s(): below 1 when the machine
        ran slower than the reference speed."""
        return CALIBRATE_NOMINAL_S / self.reference_s()

    def job(self, argv, stdout_path=None):
        return Job(argv, self.stderr, stdout_path)

    def input(self, p):
        return self.inputs / f"{p}.lud"

    # -- setup -------------------------------------------------------------

    def setup_jobs(self):
        t = self.tools
        for p in self.programs:
            if p == "composed":
                yield [t["lud-bench-harness"], "compose", self.scale,
                       self.input(p)], None
            elif self.wl["obfuscate"]:
                manifest = self.inputs / f"{p}.manifest"
                yield [t["lud-gen"], "--obfuscate",
                       f"--obfuscate-seed={OBFUSCATE_SEED}",
                       f"--obfuscate-manifest={manifest}", p,
                       self.scale], self.input(p)
                yield [t["lud-gen"], p, self.scale], \
                    self.inputs / f"{p}.orig.lud"
            else:
                yield [t["lud-gen"], p, self.scale], self.input(p)

    def setup(self):
        """Generates the inputs; returns the wall. Every generation must
        write the same bytes as the first."""
        start = time.perf_counter()
        for argv, out in self.setup_jobs():
            job = self.job(argv, out)
            if not job.ok:
                raise BenchError(f"setup failed: {job.error}")
        seconds = time.perf_counter() - start
        snapshot = {f.name: f.read_bytes()
                    for f in sorted(self.inputs.iterdir())}
        if self.snapshot is None:
            self.snapshot = snapshot
        elif snapshot != self.snapshot:
            raise BenchError("setup is not deterministic: two generations "
                             "of the inputs differ")
        return seconds

    def manifests(self):
        return {p: (self.inputs / f"{p}.manifest").read_text()
                for p in self.programs
                if (self.inputs / f"{p}.manifest").exists()}

    # -- untraced passes ---------------------------------------------------

    def tool_pass(self, pass_no, checker):
        """One pass of every job kind over every program; returns each
        timed metric's {program: seconds} and the pass's other values."""
        run, rep = self.tools["lud-run"], self.tools["lud-replay"]
        eng = "--engine=threaded"
        times = {k: {} for k in TIMED}
        trace_bytes, rss = 0, 0.0
        instrs_in = instrs_out = 0
        opt_flag = "--optimize" + (f"={self.wl['optimize_passes']}"
                                   if self.wl["optimize_passes"] else "")

        def timed(metric, kind, p, argv):
            nonlocal rss
            job = self.job(argv)
            times[metric][p] = job.seconds
            self.samples.append((metric, p, job.seconds, 0.0))
            rss = max(rss, job.rss_mb)
            return checker.add((pass_no, p, kind), job.out, job.ok,
                               job.error)

        # Calibrations spread over the pass sample the machine's speed
        # throughout the run.
        self.calibrate()
        for p in self.programs:
            timed("baseline_s", "baseline", p,
                  [run, eng, "--baseline", self.input(p)])
        for p in self.programs:
            timed("profile_s", "profile", p,
                  [run, eng, *self.wl["profile"], self.input(p)])
        self.calibrate()
        for p in self.programs:
            timed("profile_clients_s", "clients", p,
                  [run, eng, "--clients=all", "--all", self.input(p)])
        for p in self.programs:
            trace = self.scratch / f"{p}.trace"
            timed("capture_s", "capture", p,
                  [run, eng, "--baseline", f"--record={trace}",
                   self.input(p)])
            trace_bytes += trace.stat().st_size if trace.exists() else 0
            timed("replay_s", "replay", p,
                  [rep, "--report", "--dead", self.input(p), trace])
            trace.unlink(missing_ok=True)
        self.calibrate()
        for p in self.programs:
            out = self.scratch / f"{p}.opt.lud"
            timed("optimize_s", "optimize", p,
                  [run, eng, "--report", opt_flag, f"--optimize-out={out}",
                   self.input(p)])
        # Checks, untimed: the rewritten programs' observables.
        for p in self.programs:
            job = self.job([run, eng, "--baseline",
                            self.scratch / f"{p}.opt.lud"])
            oracle = checker.add((pass_no, p, "oracle"), job.out, job.ok,
                                 job.error)
            base = checker.facts(pass_no, p, "baseline")
            if oracle and base:
                instrs_in += base["instrs"]
                instrs_out += oracle["instrs"]
        values = dict(times)
        values["capture_mb"] = trace_bytes / 1e6
        # 0 only when every oracle job failed, which fails the run anyway.
        values["optimized_instr_frac"] = instrs_out / instrs_in \
            if instrs_in else 0.0
        values["peak_rss_mb"] = rss
        return values

    def originals(self, checker):
        """Baseline of each never-obfuscated original, once per run."""
        for p in self.programs:
            job = self.job([self.tools["lud-run"], "--engine=threaded",
                            "--baseline", self.inputs / f"{p}.orig.lud"])
            checker.add((0, p, "original"), job.out, job.ok, job.error)

    # -- traced passes -----------------------------------------------------

    def harness_pass(self, spans, tag):
        out = self.scratch / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        summary = out / "summary.json"
        argv = [self.tools["lud-bench-harness"], "trace",
                f"--scale={self.scale}",
                f"--programs={','.join(self.programs)}", f"--outputs={out}",
                f"--summary={summary}", f"--spans={int(spans)}"]
        if self.wl["obfuscate"]:
            argv.append(f"--obfuscate-seed={OBFUSCATE_SEED}")
        if "--all" in self.wl["profile"]:
            argv.append("--profile-all")
        if self.wl["optimize_passes"]:
            argv.append(f"--optimize-passes={self.wl['optimize_passes']}")
        job = self.job(argv)
        if not job.ok:
            raise BenchError(f"traced run failed: {job.error}")
        return out, json.loads(summary.read_text())

    def check_harness_outputs(self, out, pass_no, checker):
        for f in sorted(out.glob("*.out")):
            program, kind = f.stem.rsplit(".", 1)
            checker.add((pass_no, program, kind), f.read_text())
        manifests = {p: (out / f"{p}.manifest").read_text()
                     for p in self.programs
                     if (out / f"{p}.manifest").exists()}
        if self.wl["obfuscate"] and manifests != self.manifests():
            raise BenchError("the harness's obfuscation manifests differ "
                             "from lud-gen's")
        checker.check_pass(pass_no, self.programs, self.wl["obfuscate"],
                           manifests)


# --------------------------------------------------------------------------
# Reporting


def describe(name, unit, value, samples):
    return (f"{name:<22} {value:>12.6g} {unit:<6} (n={len(samples)}, "
            f"min {min(samples):.6g}, max {max(samples):.6g})")


def load_table(path, workload, scale):
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return data.get("workloads", {}).get(workload, {}).get(str(scale))


def measure_end_to_end(r, checker, seconds, min_passes):
    setup_times = [r.setup() for _ in range(SETUP_REPS)]
    manifests = r.manifests()
    if r.wl["obfuscate"]:
        r.originals(checker)
    start = time.perf_counter()
    passes = []
    while True:
        pass_start = time.perf_counter()
        pass_no = len(passes) + 1
        passes.append(r.tool_pass(pass_no, checker))
        checker.check_pass(pass_no, r.programs, r.wl["obfuscate"], manifests)
        # More set-up samples, spread over the run like the passes.
        setup_times.append(r.setup())
        now = time.perf_counter()
        # Stop once the next pass would end more than half a pass past
        # --seconds, so runs end close to --seconds.
        if len(passes) >= min_passes and \
                now - start + (now - pass_start) / 2 >= seconds:
            break
        if now - start >= HARD_CAP_S:
            break
    # A timed metric is each program's fastest job over the passes, summed
    # over the programs, in seconds at the reference speed. On a shared
    # machine the same job alternates between speeds in phases of seconds
    # to minutes (lud-run --all on composed-wide: 610 to 980 ms, back to
    # back). The fastest of several passes lands in the quickest phase the
    # run saw, and the quickest calibration tells how quick that phase was.
    # Samples are the raw per-pass totals.
    (r.work / "samples.json").write_text(json.dumps(r.samples))
    speed = r.speed_factor()
    log(f"{'speed_factor':<22} {speed:>12.6g} x      (calibration n="
        f"{len(r.calibrations)}, quickest {r.reference_s():.6g} s, "
        f"nominal {CALIBRATE_NOMINAL_S} s)")
    result = {"setup_s": (statistics.median(setup_times) * speed,
                          setup_times)}
    for name, _ in END_TO_END[1:]:
        if name in TIMED:
            value = sum(min(v[name][p] for v in passes) for p in r.programs)
            result[name] = (value * speed,
                            [sum(v[name].values()) for v in passes])
        else:
            samples = [v[name] for v in passes]
            result[name] = (statistics.median(samples), samples)
    return result


def record_table(args, tools, bdir):
    """Rewrites expected.json from one pass per workload, at the full and
    the smoke scale."""
    table = {"format": "lud.perfbench.expected.v1", "workloads": {}}
    for name, wl in WORKLOADS.items():
        for smoke in (False, True):
            sub = argparse.Namespace(**{**vars(args), "workload": name,
                                        "smoke": smoke, "scale": None})
            r = Run(sub, tools, bdir)
            checker = checks.Checker(name, None, log)
            r.setup()
            if wl["obfuscate"]:
                r.originals(checker)
            r.tool_pass(1, checker)
            if checker.failures():
                raise BenchError("jobs failed while recording the table")
            entry = {}
            for (_, p, kind), (facts, _) in sorted(checker.jobs.items()):
                entry.setdefault(p, {})[kind] = facts
            table["workloads"].setdefault(name, {})[str(r.scale)] = entry
            log(f"recorded {name} at scale {r.scale}")
    args.expected.write_text(json.dumps(table, indent=1, sort_keys=True) +
                             "\n")
    log(f"wrote {args.expected}")


def main(argv):
    args = parse_args(argv)
    try:
        bdir = build_dir()
        tools = build(bdir)
        if args.record_table:
            record_table(args, tools, bdir)
            return 0
        r = Run(args, tools, bdir)
        table = load_table(args.expected, args.workload, r.scale)
        if table is None:
            log(f"note: {args.expected.name} has no entry for "
                f"{args.workload} at scale {r.scale}; only the table-free "
                f"checks run")
        checker = checks.Checker(args.workload, table, log)
        min_passes = 1 if args.smoke else MIN_PASSES
        log(f"workload {args.workload}: {len(r.programs)} programs at scale "
            f"{r.scale}, seed {args.seed}, order {','.join(r.programs)}")
        if args.trace == "0":
            results = measure_end_to_end(r, checker, args.seconds,
                                         min_passes)
            metrics = {}
            for name, unit in END_TO_END:
                value, samples = results[name]
                log(describe(name, unit, value, samples))
                metrics[name] = {"value": value, "unit": unit}
        else:
            r.setup()
            metrics = traced.measure(r, checker, args.seconds, log,
                                     HARD_CAP_S)
        attempted, failed = checker.attempted(), checker.failures()
        log(f"{'failed_frac':<22} {failed / attempted:>12.6g} frac   "
            f"({failed} of {attempted} jobs failed)")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
        return 0
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
