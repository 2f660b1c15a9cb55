#!/usr/bin/env python3
"""Boundary matrix for the vmbp command line.

Reads `vmbp --help=plain` and every subcommand's `--help=plain`
(`store scrub` included), then runs, in a fresh scratch directory:

  * every option whose value is a FILE, DIR or PATH, pointed under a
    regular file: the run must exit 2 (1 for the connect-only --socket of
    loadgen, client and top), print exactly one stderr line naming the
    path, print nothing on stdout and no "internal error", and leave the
    scratch directory as it found it;
  * every numeric option (value N, SEC, MB, P, S or BYTES) with -1, x and
    nan: the run must exit 124 naming the flag, or run as cleanly as the
    command's base invocation (same exit status); it never exits 125;
  * each domain-count option one past its limit: a usage error naming the
    flag (124).  An unusable output path that parses after the count
    follows it, so even a count the parser wrongly accepted stops there
    (exit 2) before any domain starts.

BASE gives each subcommand a cheap invocation; a subcommand missing from
it fails the matrix.  No value the matrix passes starts more than one
job, client or domain.  Every run has a timeout and is killed with its
process group.

Usage: python3 dev/cli_matrix.py [--bin _build/default/bin/main.exe]
Exits 0 when every case holds, 1 otherwise (each failure on stdout).
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile

# A cheap invocation of every subcommand, with long option names (an
# option under test replaces the base's value).  The service clients talk to a
# socket nobody listens on; `serve` never starts listening, because each
# case stops it at parsing or before its socket is bound; `report` stops
# at its first cell group, so an accepted value costs no full report.
BASE = {
    "list": ["list"],
    "run": ["run", "forth", "gray"],
    "trace": ["trace", "forth", "gray", "--take", "1"],
    "experiment": ["experiment", "table6"],
    "report": ["report", "--chaos", "worker-death=1"],
    "explain": ["explain", "forth", "gray"],
    "audit-repro": ["audit-repro", "no-such.repro"],
    "serve": ["serve", "--socket", "matrix.sock", "--store", "matrix-store"],
    "loadgen": ["loadgen", "--socket", "nobody.sock", "--requests", "1"],
    "client": ["client", "health", "--socket", "nobody.sock"],
    "top": ["top", "--socket", "nobody.sock", "--count", "1"],
    "simulate": ["simulate", "--seeds", "1"],
    "store scrub": ["store", "scrub", "."],
}

# Options whose value is a socket the command only connects to: a path
# nobody listens on is an unreachable service (exit 1), not a bad path.
CONNECT_ONLY = {("loadgen", "socket"), ("client", "socket"), ("top", "socket")}

PATH_DOCV = {"FILE", "DIR", "PATH"}
NUMERIC_DOCV = {"N", "SEC", "MB", "P", "S", "BYTES"}
BAD_NUMBERS = ["-1", "x", "nan"]

# Options that set a domain count, with their limit (OCaml 5 runs at most
# 128 domains per process), and an output option the same command parses
# after them: a count accepted by mistake meets that unusable path and
# exits 2 before any domain starts.
DOMAIN_LIMITS = [
    ("experiment", "jobs", 128, "json"),
    ("report", "jobs", 128, "json"),
    ("serve", "jobs", 127, "trace-out"),
    ("loadgen", "clients", 127, "json"),
]

TIMEOUT = 120


def run(binary, args, cwd):
    """(status, stdout, stderr); status None when the run timed out."""
    proc = subprocess.Popen(
        [binary] + args,
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err


def help_text(binary, words, cwd):
    status, out, err = run(binary, words + ["--help=plain"], cwd)
    if status != 0:
        raise SystemExit(f"vmbp {' '.join(words)} --help=plain exited {status}: {err}")
    return out


def section(text, name):
    """Lines of one top-level section of a plain help page."""
    lines, inside = [], False
    for line in text.splitlines():
        if line and not line.startswith(" "):
            inside = line.strip() == name
        elif inside:
            lines.append(line)
    return lines


def subcommands(binary, cwd):
    """Every leaf subcommand, as its words: ['run'], ['store', 'scrub'], ..."""
    leaves = []

    def walk(words):
        text = help_text(binary, words, cwd)
        names = [
            m.group(1)
            for m in (re.match(r"^ {7}([a-z][a-z-]*)\b", l) for l in section(text, "COMMANDS"))
            if m
        ]
        if not names:
            leaves.append(words)
        for n in names:
            walk(words + [n])

    walk([])
    return leaves


def options(binary, words, cwd):
    """(long name, docv) for every option of a subcommand; docv None for flags."""
    found = []
    for line in section(help_text(binary, words, cwd), "OPTIONS"):
        m = re.match(r"^ {7}(?:-\w(?: \w+)?, )?--([a-z][a-z0-9-]*)(?:=([A-Z]+))?", line)
        if m:
            found.append((m.group(1), m.group(2)))
    return found


def with_option(base, name, value):
    """The base invocation with --name replaced by --name=value."""
    args, i = [], 0
    while i < len(base):
        if base[i] == "--" + name:
            i += 2
            continue
        args.append(base[i])
        i += 1
    return args + [f"--{name}={value}"]


def listing(root):
    seen = set()
    for d, dirs, files in os.walk(root):
        for f in dirs + files:
            seen.add(os.path.relpath(os.path.join(d, f), root))
    return seen


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", default="_build/default/bin/main.exe")
    binary = os.path.abspath(ap.parse_args().bin)

    scratch = tempfile.mkdtemp(prefix="vmbp-cli-matrix-")
    failures = []
    cases = 0
    base_status = {}

    def fail(cmd, args, why, out, err):
        failures.append(f"{cmd}: vmbp {' '.join(args)}: {why}\n  stdout: {out[-300:]!r}\n  stderr: {err[-300:]!r}")

    try:
        with open(os.path.join(scratch, "notadir"), "w"):
            pass
        before = listing(scratch)
        for words in subcommands(binary, scratch):
            cmd = " ".join(words)
            if cmd not in BASE:
                failures.append(f"{cmd}: no base invocation in BASE")
                continue
            base = BASE[cmd]
            for name, docv in options(binary, words, scratch):
                if docv in PATH_DOCV:
                    cases += 1
                    path = f"notadir/{name}"
                    args = with_option(base, name, path)
                    status, out, err = run(binary, args, scratch)
                    want = 1 if (cmd, name) in CONNECT_ONLY else 2
                    lines = err.splitlines()
                    if status != want:
                        fail(cmd, args, f"exit {status}, want {want}", out, err)
                    elif len(lines) != 1 or path not in lines[0]:
                        fail(cmd, args, "want one stderr line naming the path", out, err)
                    elif out:
                        fail(cmd, args, "want empty stdout", out, err)
                    elif "internal error" in err:
                        fail(cmd, args, "internal error", out, err)
                    after = listing(scratch)
                    if after != before:
                        fail(cmd, args, f"left {sorted(after ^ before)} behind", out, err)
                        for p in sorted(after - before, reverse=True):
                            full = os.path.join(scratch, p)
                            if os.path.isdir(full) and not os.path.islink(full):
                                shutil.rmtree(full, ignore_errors=True)
                            elif os.path.lexists(full):
                                os.remove(full)
                elif docv in NUMERIC_DOCV:
                    for value in BAD_NUMBERS:
                        cases += 1
                        args = with_option(base, name, value)
                        status, out, err = run(binary, args, scratch)
                        if status == 124:
                            if f"--{name}" not in err:
                                fail(cmd, args, "usage error does not name the flag", out, err)
                            continue
                        if cmd not in base_status:
                            base_status[cmd] = run(binary, base, scratch)[0]
                        if status is None:
                            fail(cmd, args, "timed out", out, err)
                        elif status == 125 or "internal error" in err:
                            fail(cmd, args, "internal error", out, err)
                        elif status != base_status[cmd]:
                            fail(cmd, args, f"exit {status}; the base invocation exits {base_status[cmd]}", out, err)
        for cmd, name, most, poison in DOMAIN_LIMITS:
            cases += 1
            args = with_option(with_option(BASE[cmd], name, most + 1), poison, f"notadir/{poison}")
            status, out, err = run(binary, args, scratch)
            if status != 124 or f"--{name}" not in err:
                fail(cmd, args, f"exit {status}, want a usage error naming --{name}", out, err)
        if listing(scratch) != before:
            failures.append(f"scratch directory changed: {sorted(listing(scratch) ^ before)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    print(f"cli matrix: {cases} cases, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
