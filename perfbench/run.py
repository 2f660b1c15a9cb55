#!/usr/bin/env python3
"""The benchmark of the vmbp reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test        # smoke-size check of the benchmark
    python3 perfbench/run.py --gen-refs         # regenerate perfbench/refs/

It builds perfbench/perfbench.exe with dune, runs the workload in fresh
processes, checks every simulated output against perfbench/refs/, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  A line starting with "# run" before it
records the seed, host facts and wall-clock diagnostics.  See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["paper-grid", "predictor-sweep", "serve"]
# Set-up runs per end-to-end measurement; setup_s is their median.
SETUPS = 3
PROCESS_TIMEOUT = 170


class Failure(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def check_checkout():
    for path in ["dune-project", "lib", "bin", "perfbench/dune", "BENCHMARK.json"]:
        if not os.path.exists(path):
            log(f"{path} is missing: run from the root of a vmbp checkout")
            sys.exit(2)


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        log("build failed")
        sys.exit(2)


def steal_s():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / 100.0


def stop_group(pgid):
    """Kill whatever is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def pin():
    # Every measuring process, the serve daemon and its client included,
    # shares one CPU.  Across two vCPUs each request wakes the other one,
    # and on a shared host that costs steal time and CPU time that change
    # from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def proc(args):
    """Run one perfbench process in its own process group.  Returns its
    result line, with its wall time and the host's steal time over it."""
    s0, t0 = steal_s(), time.monotonic()
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                         start_new_session=True, preexec_fn=pin)
    try:
        out, _ = p.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.wait()
        raise Failure(f"{' '.join(args)}: timed out")
    finally:
        stop_group(p.pid)
    wall, steal = time.monotonic() - t0, steal_s() - s0
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise Failure(f"{' '.join(args)}: exited with {p.returncode}")
    res = json.loads(lines[-1])
    res["wall"], res["steal"] = wall, steal
    for e in res["errors"]:
        log(f"{args[0]} {args[1] if len(args) > 1 else ''}: {e}")
    return res


def value(res, name):
    return res["metrics"][name]["value"]


def source_digest():
    h = hashlib.md5()
    for top in ["lib", "bin", "perfbench"]:
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c", ".py", ".tsv")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        return "none"


def measure(workload, seed, seconds, trace, smoke=False, perturb=False, trace_dir=None):
    """One benchmark run.  Returns (attempted, failed, metrics, facts), where
    metrics maps name -> (value, unit).  With trace_dir, a traced run keeps
    its span files there."""
    base = ["run", workload, "--seed", str(seed), "--seconds", str(seconds)]
    base += (["--smoke"] if smoke else []) + (["--perturb"] if perturb else [])

    def keep(kind):
        if not trace_dir:
            return []
        os.makedirs(trace_dir, exist_ok=True)
        return ["--trace-out", os.path.join(trace_dir, f"{workload}-{kind}.json")]
    if not trace:
        runs = [proc(base + ["--setup-only"]) for _ in range(SETUPS - 1)]
        main = proc(base)
        runs.append(main)
        metrics = {k: (m["value"], m["unit"]) for k, m in main["metrics"].items()}
        metrics["setup_s"] = (statistics.median(value(r, "setup_s") for r in runs), "s")
        watched = main
    else:
        plain = proc(base)
        traced = proc(base + ["--trace"] + keep("trace"))
        layers = proc(["layers", "--seed", str(seed)]
                      + ([] if workload == "serve" else ["--service"])
                      + (["--smoke"] if smoke else []) + keep("layers"))
        runs = [plain, traced, layers]
        # The workload's own figures win; runner span self times add up
        # over the workload process and the pass's fixed runner batch.
        metrics = {k: (m["value"], m["unit"]) for k, m in layers["metrics"].items()}
        for k, m in traced["metrics"].items():
            extra = metrics[k][0] if k.endswith("_self_s") and k in metrics else 0.0
            metrics[k] = (m["value"] + extra, m["unit"])
        base_cpu = value(plain, "cpu_s")
        metrics["obs.overhead_pct"] = (
            100.0 * (value(traced, "cpu_s") - base_cpu) / base_cpu, "%")
        if plain["info"]["outputs"] != traced["info"]["outputs"]:
            log("traced run's simulated outputs differ from the untraced run's")
            traced["failed"] += 1
        watched = traced
    metrics["host.wall_s"] = (watched["wall"], "s")
    metrics["host.steal_s"] = (watched["steal"], "s")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    facts = {"ocaml": runs[-1]["info"].get("ocaml")}
    return attempted, failed, metrics, facts


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def select(metrics, wanted):
    """The metrics BENCHMARK.json names for this mode, unit-checked."""
    out, missing = {}, []
    for m in wanted:
        if m["name"] not in metrics:
            missing.append(m["name"])
            continue
        v, unit = metrics[m["name"]]
        if unit != m["unit"]:
            missing.append(f"{m['name']} (unit {unit}, expected {m['unit']})")
            continue
        out[m["name"]] = {"value": v, "unit": unit}
    return out, missing


def run_workload(a):
    b = spec()
    wanted = b["per_layer"] if a.trace else b["end_to_end"]
    try:
        attempted, failed, metrics, facts = measure(
            a.workload, a.seed, a.seconds, a.trace, smoke=a.smoke, perturb=a.perturb,
            trace_dir=a.trace_dir)
    except Failure as e:
        log(str(e))
        return 1
    chosen, missing = select(metrics, wanted)
    for name in missing:
        log(f"metric {name} was not measured")
    correct = failed == 0 and not missing
    diag = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "nproc": os.cpu_count(), "ocaml": facts["ocaml"], "commit": commit(),
        "source": source_digest(),
        "diagnostics": {k: v for k, (v, _) in metrics.items()
                        if k.startswith(("host.", "service.wall", "service.p9"))},
    }
    print("# run " + json.dumps(diag))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed + len(missing), "metrics": chosen}))
    return 0 if correct else 1


def self_test():
    """Smoke-size checks of the benchmark itself."""
    b = spec()
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    counts = [m["name"] for m in b["per_layer"]
              if m["name"].startswith("report.") and m["unit"] == "count"]
    for w in WORKLOADS:
        # The daemon's event thread and compute domain allocate
        # concurrently, so its major-collection count is not repeatable.
        repeat = counts + ([] if w == "serve" else ["gc.major_collections"])
        try:
            for trace, wanted in ((0, b["end_to_end"]), (1, b["per_layer"])):
                att, failed, metrics, _ = measure(w, 7, 1, trace, smoke=True)
                _, missing = select(metrics, wanted)
                expect(not missing, f"{w} trace={trace}: every metric present with its unit"
                       + (f" (missing {missing})" if missing else ""))
                expect(att > 0 and failed == 0, f"{w} trace={trace}: {att} attempted, {failed} failed")
                if trace:
                    first = metrics
            again = measure(w, 7, 1, 1, smoke=True)[2]
            differ = [c for c in repeat if first[c][0] != again[c][0]]
            expect(not differ, f"{w}: {', '.join(repeat)} repeat"
                   + (f" (differ: {differ})" if differ else ""))
            _, failed, _, _ = measure(w, 7, 1, 0, smoke=True, perturb=True)
            expect(failed >= 1, f"{w}: a perturbed reference is caught ({failed} failed)")
        except Failure as e:
            expect(False, f"{w}: {e}")
    print("self-test " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    ap.add_argument("--perturb", action="store_true",
                    help="check against a deliberately wrong reference value")
    ap.add_argument("--trace-dir", help="keep a traced run's span files here")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--gen-refs", action="store_true")
    a = ap.parse_args()
    check_checkout()
    build()
    if a.self_test:
        return self_test()
    if a.gen_refs:
        r = subprocess.run([EXE, "refs"], stdout=subprocess.PIPE, text=True)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        for e in res["errors"]:
            log(e)
        print(f"{res['attempted']} cells compared, {res['failed']} failed")
        return 0 if r.returncode == 0 and res["failed"] == 0 else 1
    if not a.workload:
        ap.error("--workload is required")
    return run_workload(a)


if __name__ == "__main__":
    sys.exit(main())
