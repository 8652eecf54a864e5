#!/usr/bin/env python3
"""API guard for the benchmark sources.

The benchmark must compile unchanged while the simulator drops its
atomic execution mode, the reference-trace writer, the deprecated
Machine overloads and the legacy counter aggregates. So its sources
may not name any of them: every simulated number is read from the
stats registry by path, and every call uses its defaults.

    python3 hostbench/test_api_guard.py

exits 0 when the sources are clean and 1 (listing each hit) otherwise.
It also checks itself: each rule must flag a line that breaks it and
pass a line that does not. Calls of [[deprecated]] functions are
caught a second way, by building with -Werror=deprecated-declarations.
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_SUFFIXES = (".cc", ".hh")

# (rule name, pattern). Comments are stripped before matching.
RULES = [
    ("ExecMode", re.compile(r"\bExecMode\b")),
    ("TraceWriter", re.compile(r"\bTraceWriter\b")),
    ("CounterSnapshot", re.compile(r"\bCounterSnapshot\b")),
    ("timingEvents", re.compile(r"\btimingEvents\b")),
    # Every runWarmup overload takes a mode or is deprecated.
    ("runWarmup", re.compile(r"\brunWarmup\b")),
    # Deprecated Machine::warm() and every Machine::run overload (each
    # takes a mode or is deprecated). Machines are held by unique_ptr,
    # so a Machine call is `->run(`; `controller.run()` is the sampler.
    ("Machine::warm", re.compile(r"(\.|->)\s*warm\s*\(\s*\)")),
    ("Machine::run", re.compile(r"\bMachine::run\b|->\s*run\s*\(")),
    # Legacy RunResult aggregates: fields, not the Machine::cpu(n) call.
    ("RunResult.cpu", re.compile(r"\.\s*cpu\b(?!\s*\()")),
    ("RunResult.misses", re.compile(r"\.\s*misses\b(?!\s*\()")),
    ("RunResult.rac", re.compile(r"\.\s*rac\b(?!\s*\()")),
    ("RunResult.txnLat", re.compile(r"\btxnLat\w*")),
    # Other RunResult fields outside name + stats + sampling.
    ("RunResult.legacy", re.compile(
        r"\.\s*(wallTime|dbConsistent|warmupMode|execMode)\b"
        r"|\.\s*(execTime|tps)\s*\(")),
]

_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def strip_comments(text):
    """Blank out comments, keeping line numbers."""
    return _COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def scan_text(text, label="<text>"):
    hits = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), 1):
        for name, pattern in RULES:
            if pattern.search(line):
                hits.append("%s:%d: names %s: %s"
                            % (label, lineno, name, line.strip()))
    return hits


def scan_sources(directory=HERE):
    hits = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(SOURCE_SUFFIXES):
            with open(os.path.join(directory, entry)) as f:
                hits += scan_text(f.read(), entry)
    return hits


# Self-test: each rule catches its violation and spares the clean use.
SELF_TEST = {
    "ExecMode": ("m->runMeasurement(ExecMode::Timing);",
                 "m->runMeasurement();"),
    "TraceWriter": ("TraceWriter tw(path);", "Spans spans(true);"),
    "CounterSnapshot": ("obs::CounterSnapshot c;", "stats::Snapshot s;"),
    "timingEvents": ("auto n = m->timingEvents();", "auto n = m->isWarm();"),
    "runWarmup": ("m->runWarmup();", "m->runMeasurement();"),
    "Machine::warm": ("if (m->warm()) {}", "if (m->isWarm()) {}"),
    "Machine::run": ("RunResult r = m->run();",
                     "RunResult r = controller.run();"),
    "RunResult.cpu": ("auto b = r.cpu.busy;", "CpuCore &c = m->cpu(0);"),
    "RunResult.misses": ("auto x = r.misses.local;",
                         "auto x = c.at(\"misses\");"),
    "RunResult.rac": ("auto h = r.rac.hits;", "bool on = cfg.racGeom.size;"),
    "RunResult.txnLat": ("double p = r.txnLatP99Us;",
                         "double p = stat(s, \"p99\");"),
    "RunResult.legacy": ("Tick t = r.wallTime;", "Tick t = nowNs();"),
}


def self_test():
    failures = []
    names = {name for name, _ in RULES}
    if names != set(SELF_TEST):
        failures.append("self-test does not cover exactly the rules")
    for name, (bad, good) in SELF_TEST.items():
        if not any(("names %s:" % name) in h for h in scan_text(bad)):
            failures.append("rule %s missed: %s" % (name, bad))
        if scan_text(good):
            failures.append("rule set flags clean line: %s" % good)
    if scan_text("// ExecMode in a comment is fine\n"):
        failures.append("comments are not ignored")
    return failures


def main():
    problems = self_test() + scan_sources()
    for p in problems:
        print(p)
    print("api guard: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
