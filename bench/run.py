"""circlestab benchmark runner.

    python3 bench/run.py --workload equidistribution --seed 1 --seconds 40 --trace 0

Runs one workload in a closed loop with a single client: one fresh
child interpreter per pass, one at a time, until --seconds have gone
by.  Every pass uses the inputs drawn from --seed and checks its
outputs.  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 traced and untraced passes
alternate and the per-layer metrics come from the traced ones.  The
lines before it give the provenance, the sha256 of every output and
every metric by name and unit.  See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

PASS_TIMEOUT_S = 150   # one pass; a run must end within 180 s
RUN_LIMIT_S = 150      # no pass starts that would likely end after this
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def layer_unit(name):
    if name.startswith("trace."):
        return "1"
    return "s" if name.endswith("_s") else "count"


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """Library defaults: no CIRCLESTAB_THREADS, BLAS threads <= nproc."""
    env = dict(os.environ)
    env.pop("CIRCLESTAB_THREADS", None)
    for var in BLAS_THREAD_VARS:
        val = env.get(var, "")
        if val.isdigit() and int(val) > nproc():
            env[var] = str(nproc())
    return env


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_child(env, workdir, result, **opts):
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workdir", workdir, "--result", result]
    for key, val in opts.items():
        if val is True:
            cmd.append("--" + key.replace("_", "-"))
        elif val is not None:
            cmd += ["--" + key.replace("_", "-"), str(val)]
    cmd += ["--spawned", repr(time.monotonic())]
    # stdout stays for the result; the child's own output goes to stderr
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=PASS_TIMEOUT_S)
    shutil.rmtree(workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    with open(result) as fh:
        doc = json.load(fh)
    os.remove(result)
    return doc


def spans_path(args):
    """Where a traced pass writes its spans; the last traced pass stays."""
    return os.path.join(ROOT, ".bench_out", f"spans-{args.workload}.jsonl")


def measure(args, env, scratch):
    """Passes until --seconds have gone by, and set-up samples between them.

    Returns (set-up times, untraced pass results, traced pass results).
    """
    common = dict(workload=args.workload, seed=args.seed, size=args.size)
    setups, passes, traced = [], [], []
    t0 = time.monotonic()
    while True:
        k = len(passes) + len(traced)
        trace = args.trace and k % 2 == 1
        if not args.trace:  # one more set-up sample per pass
            setups.append(run_child(env, os.path.join(scratch, "setup"),
                                    os.path.join(scratch, "setup.json"),
                                    setup_only=True, **common))
        doc = run_child(env, os.path.join(scratch, "pass"),
                        os.path.join(scratch, "pass.json"),
                        trace=spans_path(args) if trace else None, **common)
        (traced if trace else passes).append(doc)
        setups.append(doc)
        if args.trace and not traced:
            continue
        # start another pass only if it should end within --seconds
        elapsed = time.monotonic() - t0
        if elapsed * (k + 2) / (k + 1) > min(args.seconds, RUN_LIMIT_S):
            return setups, passes, traced


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke test")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "circlestab",
                                       "__init__.py")):
        sys.exit("bench: no circlestab sources under src/ in this checkout")

    env = child_env()
    scratch = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        setups, passes, traced = measure(args, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(d["attempted"] for d in passes + traced)
    failed = sum(d["failed"] for d in passes + traced)
    hashes = {json.dumps(d["sha256"], sort_keys=True) for d in passes + traced}
    correct = failed == 0 and len(hashes) == 1
    med = lambda key, docs: statistics.median(d[key] for d in docs)

    import numpy
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "git_commit": git_commit(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "nproc": nproc(),
        "CIRCLESTAB_THREADS": env.get("CIRCLESTAB_THREADS"),
        "blas_threads": {v: env.get(v) for v in BLAS_THREAD_VARS},
        "pass_wall_s": [d["wall_s"] for d in passes],
        "traced_pass_wall_s": [d["wall_s"] for d in traced],
        "pass_ref_s": [d["ref_s"] for d in passes],
        "setup_samples": len(setups),
        "pass_setup_s": [d["setup_s"] for d in setups],
        "pass_setup_raw_s": [d["setup_raw_s"] for d in setups],
        "sha256": passes[0]["sha256"],
        "spans": os.path.relpath(spans_path(args), ROOT) if traced else None,
    }}, sort_keys=True))
    for d in passes + traced:
        for line in d["failures"]:
            print("failed:", line)
    if len(hashes) != 1:
        print("failed: outputs differ between passes with the same seed")

    wall_rel = med("wall_rel", passes)
    report = {
        "wall_rel": (wall_rel, "ref"),
        "wall_s": (med("wall_s", passes), "s"),
        "ref_s": (med("ref_s", passes), "s"),
        "setup_s": (med("setup_s", setups), "s"),
        "setup_raw_s": (med("setup_raw_s", setups), "s"),
        "peak_rss_mib": (med("peak_rss_mib", passes), "MiB"),
        "fail_ratio": (failed / attempted, "1"),
    }
    if args.workload == "response":
        report["fd_rel_err"] = (med("fd_rel_err", passes), "1")
    if args.trace:
        layers = {key: (statistics.median(d["layers"][key] for d in traced),
                        layer_unit(key))
                  for key in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            med("wall_rel", traced) / wall_rel - 1, "1")
        report.update(layers)
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.6g} {unit}")

    names = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": report[n][0], "unit": report[n][1]}
                    for n in names},
    }))


if __name__ == "__main__":
    main()
