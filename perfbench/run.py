#!/usr/bin/env python3
"""The repository benchmark: regenerate the paper's figures and long
sampled runs through the experiment Lab, and report end-to-end and
per-layer metrics. See perfbench/README.md.

Run from the repository root:

  python3 perfbench/run.py --workload fig-cold --seed 1 --seconds 35 --trace 0
      one measured run; the last stdout line is the result JSON
      (--trace 1: one traced run with the per-layer metrics instead)
  python3 perfbench/run.py --report [--workload W] [--seconds S] [--seed N]
      measured and traced runs, every metric printed by name and unit
  python3 perfbench/run.py --self-check
      each workload once at reduced size: metric schema against
      BENCHMARK.json, output gate, and a corrupted table that must fail
  python3 perfbench/run.py --pin
      recompute perfbench/pins.json: table digests, covered-instruction
      totals and exact reference uPCs (streaming exact simulation)

Each measured sample is a fresh worker process (perfbench/wbench.exe),
built here from source with dune.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORK = os.path.join(ROOT, ".bench_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "wbench.exe")
WORKLOADS = ["fig-cold", "fig-warm", "sample-long"]
# Seconds after which a run stops sampling, so that it ends inside 180 s.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail_setup(f"{need} not found: run from a full checkout of the repository")
    if shutil.which("dune") is None:
        fail_setup("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", str(os.cpu_count() or 1), "./perfbench/wbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        sys.exit(1)


def input_of(workload, seed):
    # The seed picks sample-long's evaluation input: A, or C on every
    # fourth seed. B trains the compiler and is never evaluated. The
    # figure workloads have fixed inputs by the paper's protocol.
    if workload == "sample-long" and seed % 4 == 3:
        return "C"
    return "A"


def pin_key(workload, size, inp):
    return f"{workload}/{size}/{inp}"


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def rm(path):
    shutil.rmtree(path, ignore_errors=True)


def worker(args, deadline):
    """Run one worker process; its stdout's last line is JSON."""
    timeout = max(1.0, deadline - time.time())
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if r.returncode != 0:
        return None, f"worker exited {r.returncode}"
    try:
        return json.loads(r.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "worker printed no result"


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------

def gate(out, pin, expected_tables=None):
    """Names of the checks this worker output fails: the worker's own
    failed jobs, each table whose digest differs from the pin (or from
    the cold fill's table, for the warm workload), and a covered-
    instruction total that differs from the pin."""
    bad = list(out.get("failures", []))
    bad += [f"job failed ({n})" for n in range(out.get("failed_jobs", 0))]
    tables = out.get("tables", {})
    for name, digest in pin["tables"].items():
        text = tables.get(name)
        if text is None:
            bad.append(f"table {name}: missing")
        elif md5(text) != digest:
            bad.append(f"table {name}: digest differs from pin")
        if expected_tables is not None and text != expected_tables.get(name):
            bad.append(f"table {name}: differs from the cold fill's output")
    if "job_insts" in out and out["job_insts"] != pin["job_insts"]:
        bad.append(f"covered instructions {out['job_insts']} != pinned {pin['job_insts']}")
    if "extra_insts" in out and out["extra_insts"] != pin.get("extra_insts", 0):
        bad.append(f"abl-wish-n instructions {out['extra_insts']} != pinned {pin.get('extra_insts', 0)}")
    return bad


def upc_err_pct(out, pin):
    ref = pin.get("ref_upc", {})
    if not ref:
        return 0.0
    errs = [abs(out["upc"][k] - v) / v * 100.0 for k, v in ref.items()]
    return sum(errs) / len(errs)


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------

def warm_fill(size, deadline):
    """The cache fig-warm reads: filled once per worker build by an
    untimed cold run of the same code, kept with that run's tables."""
    with open(EXE, "rb") as f:
        tag = hashlib.md5(f.read()).hexdigest()[:12]
    final = os.path.join(WORK, f"fill-{size}-{tag}")
    if os.path.exists(os.path.join(final, "fill.json")):
        with open(os.path.join(final, "fill.json")) as f:
            return final, json.load(f)
    os.makedirs(WORK, exist_ok=True)
    for name in os.listdir(WORK):
        if name.startswith(f"fill-{size}-"):
            rm(os.path.join(WORK, name))
    tmp = final + ".tmp"
    rm(tmp)
    out, err = worker(["sample", "--workload", "fig-warm", "--size", size,
                       "--cache", os.path.join(tmp, "cache")], deadline)
    if out is None:
        rm(tmp)
        return None, err
    with open(os.path.join(tmp, "fill.json"), "w") as f:
        json.dump(out, f)
    os.rename(tmp, final)
    return final, out


def measure(workload, seed, seconds, size="full", corrupt=False):
    """One measured run: one warm-up worker process, then fresh worker
    processes until [seconds] of samples are taken (at least three).
    Every process's output goes through the gate. Returns (result, env)."""
    start = time.time()
    deadline = start + RUN_BUDGET_S
    inp = input_of(workload, seed)
    pin = load_pins()[pin_key(workload, size, inp)]
    attempted = failed = 0
    problems = []
    expected = None
    if workload == "fig-warm":
        fill_dir, fill = warm_fill(size, deadline)
        if fill_dir is None:
            return None, {"error": fill}
        fill_bad = gate(fill, pin)
        problems += ["cold fill: " + b for b in fill_bad]
        attempted += fill["jobs"]
        failed += len(fill_bad)
        expected = fill["tables"]
        cache = os.path.join(fill_dir, "cache")
    else:
        cache = os.path.join(WORK, "cache")
    samples = []
    warmup = True
    ocaml = "unknown"
    while True:
        if workload != "fig-warm":
            rm(cache)
        t0 = time.time()
        out, err = worker(["sample", "--workload", workload, "--size", size, "--input", inp,
                           "--cache", cache], deadline)
        took = time.time() - t0
        if workload != "fig-warm":
            rm(cache)
        if out is None:
            attempted += pin["jobs"]
            failed += pin["jobs"]
            problems.append(err)
            break
        ocaml = out.get("ocaml", ocaml)
        if corrupt and warmup:
            name = sorted(out["tables"])[0]
            text = out["tables"][name]
            out["tables"][name] = text[:-1] + chr((ord(text[-1]) + 1) % 128)
        bad = gate(out, pin, expected)
        attempted += out["jobs"]
        failed += len(bad)
        problems += bad
        if warmup:
            # The first process after a pause runs slower (page cache,
            # clock ramp-up) and is not counted.
            warmup = False
            measuring = time.time()
            continue
        samples.append((out, took))
        elapsed = time.time() - measuring
        typical = statistics.median(t for _, t in samples)
        if len(samples) >= 3 and elapsed + typical > seconds:
            break
        if time.time() + 2 * typical > deadline:
            break
    env = {"workload": workload, "input": inp, "samples": len(samples), "ocaml": ocaml,
           "problems": problems}
    if not samples:
        return None, {"error": "; ".join(problems)}
    extra = pin.get("extra_insts", 0)

    def med(f):
        return statistics.median(f(o) for o, _ in samples)

    metrics = {
        "minsts_per_s": (med(lambda o: (o["job_insts"] + extra) / o["timed_s"] / 1e6), "Minst/s"),
        "setup_s": (med(lambda o: o["setup_s"]), "s"),
        "cpu_s": (med(lambda o: o["cpu_s"]), "s"),
        "peak_rss_mb": (med(lambda o: o["peak_rss_kb"] / 1024.0), "MB"),
        "ok_ratio": (max(0.0, 1.0 - failed / max(attempted, 1)), "ratio"),
        "upc_acc_pct": (100.0 - med(lambda o: upc_err_pct(o, pin)), "%"),
    }
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, env


def traced(workload, seed, size="full"):
    """One traced run: driver-level spans plus the serial replay."""
    deadline = time.time() + RUN_BUDGET_S
    inp = input_of(workload, seed)
    pin = load_pins()[pin_key(workload, size, inp)]
    expected = None
    if workload == "fig-warm":
        cache, fill = warm_fill(size, deadline)
        if cache is None:
            return None, {"error": fill}
        expected = fill["tables"]
        cache = os.path.join(cache, "cache")
    else:
        cache = os.path.join(WORK, "cache")
        rm(cache)
    scratch = os.path.join(WORK, "scratch")
    rm(scratch)
    out, err = worker(["trace", "--workload", workload, "--size", size, "--input", inp,
                       "--cache", cache, "--scratch", scratch], deadline)
    if workload != "fig-warm":
        rm(cache)
    rm(scratch)
    if out is None:
        return None, {"error": err}
    bad = gate(out, pin, expected)
    env = {"workload": workload, "input": inp, "samples": 1, "ocaml": out.get("ocaml", "unknown"),
           "problems": bad}
    return {"correct": not bad, "attempted": max(out["jobs"], 1), "failed": len(bad),
            "metrics": out["metrics"]}, env


# ---------------------------------------------------------------------------
# Environment, schema, report
# ---------------------------------------------------------------------------

def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def env_line(env):
    fields = {"rev": git_rev(), "nproc": os.cpu_count(), "ocaml": env.get("ocaml"),
              "workload": env.get("workload"), "input": env.get("input"),
              "samples": env.get("samples")}
    return "# env " + " ".join(f"{k}={v}" for k, v in fields.items())


def schema_errors(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errs = [f"missing metric {k}" for k in want if k not in got]
    errs += [f"unexpected metric {k}" for k in got if k not in want]
    errs += [f"metric {k}: unit {got[k]} != {u}" for k, u in want.items() if k in got and got[k] != u]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(result)}")
    return errs


def print_metrics(result, env):
    print(env_line(env))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for p in env.get("problems", []):
        print(f"  FAIL {p}")


def report(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    for w in workloads:
        for trace in (False, True):
            result, env = traced(w, args.seed) if trace else measure(w, args.seed, args.seconds)
            if result is None:
                print(f"{w}: {env['error']}")
                ok = False
                continue
            print_metrics(result, env)
            ok = ok and result["correct"]
    return 0 if ok else 1


def self_check():
    ok = True

    def check(label, cond, detail=""):
        nonlocal ok
        print(f"{'ok  ' if cond else 'FAIL'} {label}{': ' + detail if detail and not cond else ''}")
        ok = ok and cond

    for w in WORKLOADS:
        for seed in ([0, 3] if w == "sample-long" else [0]):
            tag = f"{w} input {input_of(w, seed)}"
            result, env = measure(w, seed, 0, size="small")
            check(f"{tag}: measured run completes", result is not None, str(env.get("error")))
            if result is None:
                continue
            check(f"{tag}: output gate passes", result["correct"] and result["failed"] == 0,
                  "; ".join(env["problems"]))
            errs = schema_errors(result, trace=False)
            check(f"{tag}: end-to-end schema matches BENCHMARK.json", not errs, "; ".join(errs))
            result, env = traced(w, seed, size="small")
            check(f"{tag}: traced run passes the gate", result is not None and result["correct"],
                  "; ".join(env.get("problems", [env.get("error", "")])))
            if result is not None:
                errs = schema_errors(result, trace=True)
                check(f"{tag}: per-layer schema matches BENCHMARK.json", not errs, "; ".join(errs))
    result, env = measure("fig-cold", 0, 0, size="small", corrupt=True)
    check("corrupted table counts as a failure",
          result is not None and not result["correct"] and result["failed"] >= 1
          and result["metrics"]["ok_ratio"]["value"] < 1.0
          and any("digest differs" in p for p in env["problems"]),
          json.dumps(env.get("problems")))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def pin():
    """Recompute every pinned value from fresh cold runs of this code."""
    pins = {}
    deadline = time.time() + 3600
    for size in ("full", "small"):
        for w in WORKLOADS:
            for inp in (["A", "C"] if w == "sample-long" else ["A"]):
                cache = os.path.join(WORK, "pin-cache")
                rm(cache)
                out, err = worker(["sample", "--workload", w, "--size", size, "--input", inp,
                                   "--cache", cache], deadline)
                rm(cache)
                ref, err2 = worker(["reference", "--workload", w, "--size", size, "--input", inp],
                                   deadline)
                if out is None or ref is None or out["failed_jobs"] or out["failures"]:
                    log(f"pin {w}/{size}/{inp} failed: {err or err2 or out['failures']}")
                    return 1
                p = {"jobs": out["jobs"], "job_insts": out["job_insts"],
                     "tables": {k: md5(v) for k, v in out["tables"].items()}}
                p.update(ref)
                pins[pin_key(w, size, inp)] = p
                log(f"pinned {pin_key(w, size, inp)}: {json.dumps(ref)}")
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    build()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.pin:
        return pin()
    if args.self_check:
        return self_check()
    if args.report:
        return report(args)
    if not args.workload:
        ap.error("--workload is required")
    result, env = traced(args.workload, args.seed) if args.trace else \
        measure(args.workload, args.seed, args.seconds)
    if result is None:
        log("perfbench: " + str(env["error"]))
        return 1
    for p in env["problems"]:
        log("perfbench: FAIL " + p)
    print(env_line(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
