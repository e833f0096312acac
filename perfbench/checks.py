"""Output checks for the lud benchmark.

Every job's stdout is reduced to *facts*: the run status line (status,
instruction count, result, sink hash), the Gcost node/edge counts, the
replayed event count, and one 24-bit hash per line of every report section
("=== name ===" to the next header). Timing fields and output paths are
dropped first, so facts are byte-stable across runs and machines.

The facts are checked against the table in expected.json (recorded with
`run.py --record-table`) and against invariants that need no table:

* replay ranks exactly like the live run. The `--dead` bloat line is not
  compared: under replay there is no run, so its denominator is the graph's
  frequency total (FrozenGraph::totalFreq) instead of the executed
  instruction count, and the percentages legitimately differ (IPD 13.0%
  replayed against 10.7% live on composed-wide). Both lines are still
  pinned by the table, each against its own recording.
* every job that profiles a program sees the same Gcost node/edge counts.
* the optimizer's rewritten program returns the same result and sink hash
  as its input, and as the never-obfuscated original on the obfuscated
  workload (an oracle independent of the optimizer's own validation).
* on the obfuscated workload, the manifest's junk site ranks first.
* every pass of a run produces the same facts as the first pass.

A failed check names the job (workload/program/kind and pass) and the
first differing line.
"""

import hashlib
import re

STATUS_RE = re.compile(
    r"^status: (\S+), (\d+) instructions, (?:[0-9.]+ ms, )?"
    r"result (-?\d+)(?:, sink (\d+))?$")
GCOST_RE = re.compile(r"^Gcost: (\d+) nodes, (\d+) edges, ")
REPLAY_RE = re.compile(r"^replayed (\d+) events from ")
HEADER_RE = re.compile(r"^=== (.+) ===$")
EXECUTED_RE = re.compile(r"^executed instrs: (\d+) -> (\d+) ")
# Lines naming a file the job wrote; the path differs between checkouts.
PATH_LINES = ("rewritten program written to ", "trace written to ")

RANKING = "low-utility data structures"
FACT_FIELDS = ("status", "instrs", "result", "sink", "nodes", "edges",
               "events")


def line_hash(line):
    return hashlib.blake2b(line.encode(), digest_size=3).hexdigest()


def parse(text):
    """Reduces one job's stdout to its facts.

    Returns (facts, lines): facts holds the scalar fields that appeared and
    "sections" -> {name: "h1 h2 ..."}; lines keeps each section's text for
    naming a differing line.
    """
    facts = {}
    sections = {}
    current = None
    for line in text.splitlines():
        header = HEADER_RE.match(line)
        if header:
            current = header.group(1)
            sections[current] = []
            continue
        if line.startswith(PATH_LINES):
            continue
        if current is not None:
            sections[current].append(line)
            continue
        m = STATUS_RE.match(line)
        if m:
            facts["status"] = m.group(1)
            facts["instrs"] = int(m.group(2))
            facts["result"] = int(m.group(3))
            if m.group(4) is not None:
                facts["sink"] = int(m.group(4))
        m = GCOST_RE.match(line)
        if m:
            facts["nodes"] = int(m.group(1))
            facts["edges"] = int(m.group(2))
        m = REPLAY_RE.match(line)
        if m:
            facts["events"] = int(m.group(1))
    for name in sections:
        while sections[name] and not sections[name][-1].strip():
            sections[name].pop()
    facts["sections"] = {
        name: " ".join(line_hash(l) for l in body)
        for name, body in sections.items()
    }
    return facts, sections


def first_difference(name, got_lines, expected_hashes):
    """Describes the first line where a section departs from its hashes."""
    want = expected_hashes.split() if expected_hashes else []
    for i, line in enumerate(got_lines):
        if i >= len(want):
            return f"section '{name}' line {i + 1}: unexpected extra " \
                   f"line '{line}'"
        h = line_hash(line)
        if h != want[i]:
            return f"section '{name}' line {i + 1}: got '{line}' " \
                   f"(hash {h}, expected {want[i]})"
    return f"section '{name}' ends after line {len(got_lines)}; expected " \
           f"{len(want)} lines"


def compare(facts, lines, expected):
    """First mismatch between a job's facts and an expected record, or
    None. Fields missing from the record are not compared."""
    for field in FACT_FIELDS:
        if field in expected and facts.get(field) != expected[field]:
            return f"{field} is {facts.get(field)}, expected {expected[field]}"
    want = expected.get("sections", {})
    got = facts["sections"]
    for name in want:
        if name not in got:
            return f"section '{name}' is missing"
        if got[name] != want[name]:
            return first_difference(name, lines[name], want[name])
    for name in got:
        if name not in want:
            return f"unexpected section '{name}'"
    return None


def site_of_row(row):
    """Allocation-site column of a ranking row (after the flags column)."""
    parts = row.split(None, 8)
    return parts[8] if len(parts) == 9 else None


class Checker:
    """Collects per-job facts for one run and reports failures.

    Jobs are keyed (pass, program, kind). Each job counts once toward
    `attempted`, and once toward `failed` however many checks it fails.
    """

    def __init__(self, workload, table, log):
        self.workload = workload
        self.table = table  # {program: {kind: facts}} or None
        self.log = log
        self.jobs = {}
        self.failed = set()
        self.first_pass = {}

    def job_name(self, key):
        pass_no, program, kind = key
        return f"{self.workload}/{program}/{kind} (pass {pass_no})"

    def fail(self, key, message):
        self.failed.add(key)
        self.log(f"FAILED {self.job_name(key)}: {message}")

    def add(self, key, text, ok=True, error=""):
        """Records one job. \\p ok is False when the process failed; its
        facts are then not trusted by later cross-checks."""
        if not ok:
            self.jobs[key] = None
            self.fail(key, error)
            return None
        facts, lines = parse(text)
        self.jobs[key] = (facts, lines)
        if "status" in facts and facts["status"] != "finished":
            self.fail(key, f"status: {facts['status']}")
        _, program, kind = key
        expected = (self.table or {}).get(program, {}).get(kind)
        if expected is not None:
            diff = compare(facts, lines, expected)
            if diff:
                self.fail(key, diff)
        first = self.first_pass.setdefault((program, kind), (key, facts))
        if first[0] != key:
            diff = compare(facts, lines, first[1])
            if diff:
                self.fail(key, f"differs from pass {first[0][0]}: {diff}")
        return facts

    def facts(self, pass_no, program, kind):
        entry = self.jobs.get((pass_no, program, kind))
        return entry[0] if entry else None

    def check_pass(self, pass_no, programs, obfuscated, manifests):
        """Cross-job invariants within one pass."""
        for p in programs:
            key = lambda kind: (pass_no, p, kind)
            base = self.facts(pass_no, p, "baseline")
            prof = self.facts(pass_no, p, "profile")
            self.check_same_graph(pass_no, p, prof)
            replay = self.jobs.get(key("replay"))
            if prof and replay:
                self.check_replay_ranking(key("replay"), replay,
                                          self.jobs[key("profile")][1])
            interp = self.facts(pass_no, p, "interp")
            if base and interp:
                for f in ("instrs", "result", "sink"):
                    if interp.get(f) != base.get(f):
                        self.fail(key("interp"),
                                  f"interp {f} {interp.get(f)} differs from "
                                  f"threaded {base.get(f)}")
            # Untraced runs check the originals once, as pass 0.
            reference = base if not obfuscated else (
                self.facts(pass_no, p, "original") or
                self.facts(0, p, "original"))
            if obfuscated and base and reference:
                self.check_observables(key("baseline"), base, reference,
                                       "the un-obfuscated original")
            oracle = self.facts(pass_no, p, "oracle")
            if oracle and reference:
                self.check_observables(
                    key("oracle"), oracle, reference,
                    "the un-obfuscated original" if obfuscated
                    else "the input program")
            opt = self.jobs.get(key("optimize"))
            if opt and oracle and base:
                self.check_executed(key("optimize"), opt[1], base, oracle)
            if obfuscated and prof:
                self.check_junk_first(key("profile"),
                                      self.jobs[key("profile")][1],
                                      manifests.get(p))

    def check_same_graph(self, pass_no, program, prof):
        if not prof:
            return
        for kind in ("clients", "optimize", "replay"):
            other = self.facts(pass_no, program, kind)
            if not other:
                continue
            for f in ("nodes", "edges"):
                if other.get(f) != prof.get(f):
                    self.fail((pass_no, program, kind),
                              f"Gcost {f} {other.get(f)} differs from the "
                              f"profile job's {prof.get(f)}")

    def check_replay_ranking(self, key, replay, live_lines):
        got = replay[1].get(RANKING)
        want = live_lines.get(RANKING)
        if got is None or want is None:
            self.fail(key, f"section '{RANKING}' missing")
            return
        for i in range(max(len(got), len(want))):
            g = got[i] if i < len(got) else "<end>"
            w = want[i] if i < len(want) else "<end>"
            if g != w:
                self.fail(key, f"replayed ranking line {i + 1} is '{g}', "
                               f"live run has '{w}'")
                return

    def check_observables(self, key, got, want, what):
        for f in ("result", "sink"):
            if got.get(f) != want.get(f):
                self.fail(key, f"{f} {got.get(f)} differs from {what}'s "
                               f"{want.get(f)}")
                return

    def check_executed(self, key, opt_lines, base, oracle):
        line = next((l for l in opt_lines.get("Optimizer", [])
                     if EXECUTED_RE.match(l)), None)
        if line is None:
            self.fail(key, "optimizer report has no 'executed instrs' line")
            return
        before, after = map(int, EXECUTED_RE.match(line).groups())
        if before != base.get("instrs") or after != oracle.get("instrs"):
            self.fail(key, f"'{line}' disagrees with the measured runs "
                           f"({base.get('instrs')} -> {oracle.get('instrs')})")

    def check_junk_first(self, key, lines, manifest):
        junk = [l.split("\t", 1)[1] for l in (manifest or "").splitlines()
                if l.startswith("junk\t")]
        rows = lines.get(RANKING, [])
        top = site_of_row(rows[1]) if len(rows) > 1 else None
        if not junk:
            self.fail(key, "manifest lists no junk site")
        elif top not in junk:
            self.fail(key, f"rank 1 is '{top}', manifest junk site is "
                           f"'{junk[0]}'")

    def attempted(self):
        return len(self.jobs)

    def failures(self):
        return len(self.failed)
