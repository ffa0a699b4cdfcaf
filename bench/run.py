"""su2moduli benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations, at least MIN_ROUNDS and
until their timed total reaches S seconds, checks every operation's output,
and prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics, with traced rounds alternating with untraced ones that
give the tracing overhead.  Result and trace files go to ``bench/out/``.
Exits 2 without a result when the package cannot be loaded from ``src/`` of
the checkout.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# one process, one thread: the load comes from Python, not from BLAS pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

import package  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: a run has at least this many rounds (traced and untraced together), so
#: each operation's best time is taken over several repeats
MIN_ROUNDS = 3

#: (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_median_s", "s"),
              ("peak_rss_mb", "MB"))

#: per-layer metrics reported with --trace 1: (name, unit); counts and self
#: times are per round
PER_LAYER = (
    ("su2.quat_mul.calls", "count"),
    ("su2.normalize.calls", "count"),
    ("exact.ExactQuaternion.mul.calls", "count"),
    ("exact.ExactQuaternion.mul.self_s", "s"),
    ("exact.QFElement.mul.calls", "count"),
    ("classify.finite_closure.calls", "count"),
    ("classify.finite_closure.self_s", "s"),
    ("classify.classify_subgroup.self_s", "s"),
    ("torus_one.coords_of_matrices.calls", "count"),
    ("sphere_four.delta_inband.calls", "count"),
    ("sphere_four.delta_inband.self_s", "s"),
    ("sphere_four.x_level_ellipse.calls", "count"),
    ("sphere_four.y_level_extent_x.calls", "count"),
    ("torus_family.steer_t2.self_s", "s"),
    ("torus_family.coords_of_rep_t2.calls", "count"),
    ("torus_family.steer_t2.kept_per_scanned", "ratio"),
    ("orbit_lab.orbit_sample.self_s", "s"),
    ("orbit_lab.density_report.self_s", "s"),
    ("appendix.solve_case_system.self_s", "s"),
    ("appendix.decide_outcome.self_s", "s"),
    ("appendix.verify_appendix_case.self_s", "s"),
    ("repfile.parse_repfile_text.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Run:
    """Counters and timings of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.round_ops: list = []     # per measured round: operation times
        self.peak_rss_mb = None
        self.kept = 0           # steer: letters in returned words

    def fail(self, msg: str) -> None:
        self.correct = False
        print(f"check failed: {msg}", file=sys.stderr)


def run_round(wl, inputs, run: Run, tracer=None) -> list:
    """Load the package afresh, run one round and check it; returns the
    time of each operation."""
    lib = package.load(ROOT)
    if tracer is not None:
        tracer.install(lib)
    parsed = wl.parse(lib, inputs)
    results = []
    for op in wl.operations(lib, parsed, inputs):
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as e:  # an operation that raises has failed
            out, err = None, e
        results.append((op, out, err, time.perf_counter() - t0))
    if tracer is not None:
        tracer.uninstall()
    if run.peak_rss_mb is None:
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, out, err, dt in results:
        run.attempted += 1
        errors = [f"raised {err!r}"] if err is not None else op.check(out)
        if tracer is not None and err is None and wl.name == "steer":
            run.kept += len(out[0])
        if errors:
            run.failed += 1
            if op.known_fault is None:
                run.fail(f"{wl.name}/{op.name}: {'; '.join(errors)}")
    return [r[3] for r in results]


def best_times(round_ops: list) -> list:
    """Each operation's best time over the rounds.

    As with timeit, the best repeat is taken: on a shared machine the slower
    repeats measure the neighbours' load, which comes in spells of seconds."""
    return [min(t) for t in zip(*round_ops)]


def layer_metrics(tracer, run: Run, untraced: list) -> dict:
    rounds = len(run.round_ops)

    def per_round(v):
        return v / rounds
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = sum(best_times(run.round_ops)) - sum(best_times(untraced))
        elif name == "torus_family.steer_t2.kept_per_scanned":
            scanned = tracer.calls("torus_family.coords_of_rep_t2")
            value = run.kept / scanned if scanned else 0.0
        elif name.endswith(".calls"):
            value = per_round(tracer.calls(name[:-len(".calls")]))
        else:
            value = per_round(tracer.self_s(name[:-len(".self_s")]))
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    # cold set-up: import, generate the seeded inputs, parse them
    try:
        lib = package.load(ROOT)
    except (package.PackageMissing, ImportError) as e:
        print(f"cannot load su2moduli: {e}", file=sys.stderr)
        return 2
    inputs = wl.make_inputs(args.seed)
    wl.parse(lib, inputs)
    setup_s = time.perf_counter() - T_START

    run = Run()
    tracer = tracing.Tracer() if args.trace else None
    untraced: list = []   # trace mode: operation times of untraced rounds
    while (len(run.round_ops + untraced) < MIN_ROUNDS
           or sum(map(sum, run.round_ops + untraced)) < args.seconds):
        if tracer is not None:
            untraced.append(run_round(wl, inputs, run))
        run.round_ops.append(run_round(wl, inputs, run, tracer))

    if tracer is not None:
        metrics = layer_metrics(tracer, run, untraced)
        if wl.name == "orbit-generic":
            # two totals reached by independent paths must agree
            counted = tracer.calls("torus_one.coords_of_matrices")
            implied = len(run.round_ops) * wl.t1_coordinate_evaluations()
            if counted != implied:
                run.fail(f"coords_of_matrices counted {counted}, budgets imply {implied}")
    else:
        best = best_times(run.round_ops)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(best),
            "op_median_s": statistics.median(best),
            "peak_rss_mb": run.peak_rss_mb,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump({**result, "round_op_times_s": run.round_ops,
                   "untraced_round_op_times_s": untraced}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"trace-{stem}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
