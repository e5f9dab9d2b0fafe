"""polymu benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload modelcheck --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and the metrics.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))
from runner import INCORRECT, NOMINAL_SAMPLE_S, OK, percentile, run_for, speed_sample  # noqa: E402
from tracing import SIZERS, SPAN_NAMES, Tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)
CALL_COUNTS = ("cli.main", "graphs.LabeledGraph", "semantics.evaluate", "bisim.largest_bisimulation")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in print order."""
    names = [(f"{span}.busy_s", "s") for span in SPAN_NAMES]
    names += [(f"{span}.calls", "count") for span in CALL_COUNTS]
    names += [(f"{span}.{k}", "count") for span, (keys, _) in SIZERS.items() for k in keys]
    names += [(f"{span}.timeouts", "count") for span in SPAN_NAMES]
    names += [(f"xcheck.suite{i:02d}.wall_s", "s") for i in workloads.SUITES]
    names += [("trace.overhead_share", "share"), ("trace.spans", "count")]
    return names


def _import_polymu():
    """Import the library from this checkout's src/, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import polymu
        import polymu.cli
        import polymu.xcheck
    except ImportError as e:
        sys.exit(f"perfbench: cannot import polymu from {SRC}: {e}")
    if not Path(polymu.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported polymu from {polymu.__file__}, not from {SRC}")
    return polymu.cli, polymu.xcheck


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline-s", type=float, default=8.0,
                   help="per-op deadline of CLI ops (modelcheck, powers)")
    p.add_argument("--suite-deadline-s", type=float, default=60.0,
                   help="per-op deadline of xcheck suite ops")
    return p.parse_args(argv)


def _speed_scale() -> float:
    """Calibration factor for an interval just measured."""
    return NOMINAL_SAMPLE_S / statistics.median(speed_sample() for _ in range(5))


def _pass_time(outcomes) -> float:
    """Calibrated time of one pass, first op to last."""
    return sum(o.time for o in outcomes)


def _end_to_end(setup_s: float, passes, deadline: float) -> dict:
    """wall_s is the median pass.  The latency percentiles are over
    samples: each op's median time over the run's passes, and for xcheck
    each suite's over its two seeds.  A sample that failed anywhere enters
    at the deadline, above every op that completes."""
    executions = [o for outcomes in passes for o in outcomes]
    times: dict[str, list[float]] = {}
    failed = set()
    for o in executions:
        times.setdefault(o.sample, []).append(o.time)
        if o.status != OK:
            failed.add(o.sample)
    lat_ms = [deadline * 1000 if k in failed else statistics.median(ts) * 1000
              for k, ts in times.items()]
    print(f"latency samples: {len(lat_ms)}, from {len(executions)} op executions in {len(passes)} pass(es)")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(_pass_time(p) for p in passes),
        "op_p50_ms": percentile(lat_ms, 0.5),
        "op_p90_ms": percentile(lat_ms, 0.9),
        "ok_share": sum(o.status == OK for o in executions) / len(executions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(tracer: Tracer, untraced, traced) -> dict:
    n = len(traced)
    scales = [o.scale for outcomes in traced for o in outcomes]
    busy = tracer.busy_seconds(lambda op: scales[op])
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.busy_s"] = busy.get(span, 0.0) / n
    for span in CALL_COUNTS:
        out[f"{span}.calls"] = tracer.calls[span] / n
    for span, (keys, _) in SIZERS.items():
        for k in keys:
            out[f"{span}.{k}"] = tracer.sizes[f"{span}.{k}"] / n
    for span in SPAN_NAMES:
        out[f"{span}.timeouts"] = tracer.timeouts[span] / n
    for i in workloads.SUITES:
        suffix = f"/suite{i:02d}"
        per_pass = [sum(o.time for o in outcomes if o.op_id.endswith(suffix)) for outcomes in untraced]
        out[f"xcheck.suite{i:02d}.wall_s"] = statistics.median(per_pass)
    base = statistics.median(_pass_time(p) for p in untraced)
    out["trace.overhead_share"] = (statistics.median(_pass_time(p) for p in traced) - base) / base
    out["trace.spans"] = len(tracer.sid) / n
    return out


def _report(passes) -> None:
    executions = [o for outcomes in passes for o in outcomes]
    failed = [o for o in executions if o.status != OK]
    kinds: dict[str, int] = {}
    for o in failed:
        kinds[o.status] = kinds.get(o.status, 0) + 1
    print(f"passes {len(passes)}: {[round(_pass_time(p), 3) for p in passes]} s calibrated, "
          f"{[round(sum(o.elapsed for o in p), 3) for p in passes]} s raw")
    print(f"fail_share {len(failed) / len(executions)} "
          f"({len(failed)}/{len(executions)} op executions) {kinds}")
    for op_id, status, note in dict.fromkeys((o.op_id, o.status, o.note) for o in failed):
        print(f"failed {op_id}: {status} {note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli, xcheck = _import_polymu()
    import_s = time.perf_counter() - T_START
    deadline = args.suite_deadline_s if args.workload == "xcheck" else args.deadline_s
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, workdir, cli, xcheck,
                                 args.deadline_s, args.suite_deadline_s)
            builds.append(time.perf_counter() - t)
        setup_s = (import_s + statistics.median(builds)) * _speed_scale()
        print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
              f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
        print(f"corpus sha256 {wl.sha256} ({len(wl.files)} files, {len(wl.ops)} ops per pass)")

        if not args.trace:
            passes = run_for(wl.ops, args.seconds)
            metrics = _end_to_end(setup_s, passes, deadline)
            units = dict(END_TO_END)
        else:
            # the untraced half is the baseline of the overhead share
            untraced = run_for(wl.ops, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_for(wl.ops, args.seconds / 2,
                                 on_fire=tracer.on_deadline, before_op=tracer.begin_op)
            finally:
                tracer.restore()
            spans_path = HERE / ".work" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write(spans_path, [o.op_id for outcomes in traced for o in outcomes])
            print(f"spans written to {spans_path.relative_to(ROOT)}")
            metrics = _per_layer(tracer, untraced, traced)
            units = dict(per_layer_names())
            passes = untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report(passes)
    executions = [o for outcomes in passes for o in outcomes]
    print(json.dumps({
        "correct": not any(o.status in INCORRECT for o in executions),
        "attempted": len(executions),
        "failed": sum(o.status != OK for o in executions),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
