"""One benchmark pass, run by bench/run.py in a fresh interpreter.

Set-up is everything from process start to the first pipeline call:
interpreter start, `import circlestab` (with numpy) and generating the
inputs from the seed.  Its time is also reported scaled to the speed of
the host at that moment (see `REF_NOMINAL_S`).  The pass then runs the workload's pipeline
(timed up to the last output written), checks the outputs, hashes
them, and writes one JSON result to --result.  While the pipeline
runs, a timer samples the time of a fixed reference computation, and
the pipeline's time is also reported in units of it (see `Clock`).
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_s():
    """Seconds taken by a fixed computation that does not use circlestab.

    A scalar Python loop of about 10 ms.  It allocates nothing, so it
    leaves the peak memory of the pass alone.
    """
    t0 = time.monotonic()
    x = 0.0
    for i in range(120_000):
        x = x * 0.999 + (i & 7)
    return time.monotonic() - t0


# `setup_s` is the set-up time scaled to a host on which one reference
# sample takes this long.  Set-up is too short to be timed by the Clock
# below, so the host's speed is sampled just after it; raw set-up time
# drifts with the host as the pipeline's does (see README.md).
REF_NOMINAL_S = 0.010
SETUP_REF_SAMPLES = 5


class Clock:
    """Times the pipeline, and samples the host's speed while it runs.

    On a shared host the speed of a CPU drifts by up to 1.8x, in
    stretches of a second to minutes.  A timer interrupts the pipeline
    every PERIOD_S seconds and times the reference computation, so the
    samples cover the same stretches as the pipeline.  `wall_s` leaves
    the samples out, and `wall_rel` is `wall_s` over their mean: the
    pipeline's time in units of the reference, which follows the
    program more than the host.
    """

    PERIOD_S = 0.2

    def __init__(self, sample=reference_s):
        self.sample = sample

    def __enter__(self):
        self.ref_s = []
        signal.signal(signal.SIGALRM,
                      lambda signum, frame: self.ref_s.append(self.sample()))
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        elapsed = time.monotonic() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.ref_s:  # a pipeline shorter than PERIOD_S
            self.ref_s.append(self.sample())
        else:
            elapsed -= sum(self.ref_s)
        ref_s = statistics.mean(self.ref_s)
        self.result = {"wall_s": elapsed, "ref_s": ref_s,
                       "wall_rel": elapsed / ref_s}


def _tap_graphs(sink):
    """Keep (family, N, basin sizes) of every functional graph analysed.

    The CLI does not print basins, so the check that they partition the
    grid reads them here; the tap adds one call per ladder point.
    """
    from circlestab import Rotation, invariant
    from spans import package_modules, rebind

    original = invariant.analyze_functional_graph

    def analyze(mapping, N):
        result = original(mapping, N)
        fam = "rotation" if isinstance(mapping.inner, Rotation) else "diffeo"
        sink.append((fam, result.N, result.basin_sizes))
        return result

    rebind(original, analyze, package_modules())


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() when the parent started us")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", help="write spans to this path")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    # the reference and the pipeline must share a CPU: the two vCPUs of a
    # shared host drift in speed independently of each other
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed, args.size,
                                   args.workdir)
    graphs = []
    _tap_graphs(graphs)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        recorder.install([workloads])
    made = set(os.listdir(args.workdir))

    setup_raw_s = time.monotonic() - args.spawned
    setup_ref_s = statistics.mean(reference_s()
                                  for _ in range(SETUP_REF_SAMPLES))
    result = {"setup_s": setup_raw_s * REF_NOMINAL_S / setup_ref_s,
              "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        # in a traced pass each sample is a span, so that the self time
        # of the span it interrupts leaves it out
        with Clock(recorder.leaf("bench.reference", reference_s)
                   if recorder else reference_s) as clock:
            try:
                outputs = workloads.run(args.workload, inputs, args.size,
                                        args.workdir)
            except Exception:  # fails every operation; the run goes on
                traceback.print_exc()
                outputs = None
        if recorder is not None:
            recorder.stop()
        times = clock.result
        ops, extra = workloads.check(args.workload, inputs, args.size,
                                     outputs, graphs)
        result.update(extra)
        result.update({
            **times,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": len(ops.keys),
            "failed": len(ops.failed),
            "failures": [f"{k}: {why}" for k, why in ops.failed.items()][:20],
            "sha256": {name: _sha256(os.path.join(args.workdir, name))
                       for name in sorted(os.listdir(args.workdir))
                       if name not in made},
        })
        if recorder is not None:
            recorder.dump(args.trace)
            result["layers"] = spans.layer_metrics(recorder.spans,
                                                  times["wall_s"])
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
