#!/usr/bin/env python3
"""Fail when a per-event function calls a polymorphic comparison.

Usage: python3 dev/hotpath_lint.py [--build-dir _build/default]

Disassembles the native objects of a dune build with `objdump -dr` and
checks the functions that run once per dispatch, fetch, VM call or path
range: the simulators' access, fetch and run_ranges functions, the
I-cache line-column fill (run on every quickening of a path walk), the
banked-replay walk in Trace, Engine.run_events (the one
interpreter loop, which every live run goes through),
Engine.run_functional (which records every kept VM path and runs every
training run), the path walk's
per-range function (Path_walk.range), the VM path recorder's and
replayer's per-step functions (Vm_path.record_step, Vm_path.replay_step)
and the JVM runtime's push_frame and alloc_object.  None of them may reference
`Stdlib.max`, `Stdlib.min`, `Stdlib.compare` or a polymorphic `caml_*`
compare primitive: on ints those cost a call and a tag dispatch where an
int comparison costs one instruction, and nothing inlines them away
under dune's default (`-opaque`) build.  Run `dune build` first.
Stdlib only.

Exit status: 0 clean, 1 a function references a forbidden symbol,
2 an object or a listed function is missing (a rename must update the
list below, not silence the lint).
"""

import argparse
import os
import re
import subprocess
import sys

# (object under the build dir, module symbol prefix, function names).  A
# name also covers the `_inner` body OCaml emits for functions with
# optional arguments.
HOT = [
    ("lib/machine/.vmbp_machine.objs/native/vmbp_machine__Btb.o",
     "Vmbp_machine__Btb",
     ["access", "access_unbounded", "access_finite", "find_way", "shift_down",
      "run_ranges"]),
    ("lib/machine/.vmbp_machine.objs/native/vmbp_machine__Two_level.o",
     "Vmbp_machine__Two_level", ["access", "run_ranges"]),
    ("lib/machine/.vmbp_machine.objs/native/vmbp_machine__Case_block_table.o",
     "Vmbp_machine__Case_block_table",
     ["access", "run_ranges"]),
    ("lib/machine/.vmbp_machine.objs/native/vmbp_machine__Icache.o",
     "Vmbp_machine__Icache",
     ["fetch", "fetch_lines", "touch_line", "run_ranges", "fill_lines"]),
    ("lib/machine/.vmbp_machine.objs/native/vmbp_machine__Predictor.o",
     "Vmbp_machine__Predictor",
     ["access", "run_ranges", "never_ranges"]),
    ("lib/report/.vmbp_report.objs/native/vmbp_report__Trace.o",
     "Vmbp_report__Trace",
     ["walk_blocks", "scan", "bank_predictors", "bank_icaches", "run_block"]),
    ("lib/core/.vmbp_core.objs/native/vmbp_core__Engine.o",
     "Vmbp_core__Engine", ["run_events", "run_functional"]),
    ("lib/core/.vmbp_core.objs/native/vmbp_core__Path_walk.o",
     "Vmbp_core__Path_walk", ["range", "walk"]),
    ("lib/core/.vmbp_core.objs/native/vmbp_core__Vm_path.o",
     "Vmbp_core__Vm_path", ["record_step", "replay_step"]),
    ("lib/jvm/.vmbp_jvm.objs/native/vmbp_jvm__Runtime.o",
     "Vmbp_jvm__Runtime", ["push_frame", "alloc_object"]),
]

# Symbol separators differ across OCaml versions: `__`, `.` or `$`.
SEP = r"(?:__|\.|\$)"

FORBIDDEN = re.compile(
    r"\b(camlStdlib" + SEP + r"(?:max|min|compare)_\d+"
    r"|caml_(?:compare|equal|notequal|lessthan|lessequal|greaterthan"
    r"|greaterequal))\b")

FUNC = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")


def functions(path):
    """Map each function symbol in the object to the symbols it references."""
    out = subprocess.run(["objdump", "-dr", path], capture_output=True,
                         text=True, check=True).stdout
    refs, current = {}, None
    for line in out.splitlines():
        m = FUNC.match(line)
        if m:
            current = m.group(1)
            refs[current] = set()
        elif current is not None:
            for hit in FORBIDDEN.finditer(line):
                refs[current].add(hit.group(1))
    return refs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join("_build", "default"))
    args = ap.parse_args()
    failures, missing, checked = [], [], 0
    for obj, module, names in HOT:
        path = os.path.join(args.build_dir, obj)
        if not os.path.exists(path):
            missing.append(f"{obj}: object not found (run `dune build`)")
            continue
        refs = functions(path)
        for name in names:
            sym = re.compile("^caml" + re.escape(module) + SEP
                             + re.escape(name) + r"(?:_inner)?_\d+$")
            found = [s for s in refs if sym.match(s)]
            if not found:
                missing.append(f"{module}.{name}: function not found")
            for s in found:
                checked += 1
                for bad in sorted(refs[s]):
                    failures.append(f"{s} references {bad}")
    for msg in failures + missing:
        print("hotpath-lint: " + msg, file=sys.stderr)
    if failures:
        return 1
    if missing:
        return 2
    print(f"hotpath-lint: {checked} per-event functions clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
