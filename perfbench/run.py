"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload base-search --seed 1 --seconds 24 \
        --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The process
is one closed-loop client with a single thread: each op is one ``diagbase``
CLI argv, run in-process through ``diagbase.cli.main`` with its output
captured, and the next op starts when the previous one returns.  Every
timed interval is scaled by a reference loop timed around it (hostspeed.py),
so that the host's own changes of speed do not read as the program's.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the ops
with every layer entry point wrapped (see spans.py) and prints the
per-layer metrics; a fresh untraced process (phase_probe.py) runs the same
first round of ops as the baseline of ``trace.overhead``.  Outputs are
checked after the timed phase (checks.py).  Human-readable lines go first;
the last line of stdout is the JSON result.  The full result, with the
environment record, is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT = 150

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_in_process(groups, tracer_factory=None):
    """Import diagbase from SRC and build the groups; (scaled seconds, raw
    seconds, tracer)."""
    ref_before = hostspeed.reference_seconds()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    diagbase = importlib.import_module("diagbase")
    importlib.import_module("diagbase.cli")
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    for name in groups:
        diagbase.get_group(name)
    elapsed = time.perf_counter() - start
    scaled = hostspeed.scale(elapsed, ref_before,
                             hostspeed.reference_seconds())
    if not Path(diagbase.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"diagbase imported from {diagbase.__file__}, "
                         f"not from {SRC}")
    return scaled, elapsed, tracer


def in_subprocess(script, *args):
    """Run a probe script of this directory in a fresh process; the numbers
    on the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT, check=True)
    return [float(x) for x in proc.stdout.strip().splitlines()[-1].split()]


def run_ops(ops):
    """Run every op in order; per-op results and the phase wall time.  The
    reference loop runs before the first op, after the last, and after each
    op that ends ``hostspeed.REF_INTERVAL_S`` or more after the previous
    pass; an op's ``seconds`` is its wall time scaled by the two passes
    around it."""
    cli = sys.modules["diagbase.cli"]
    results, pending = [], []
    phase_start = time.perf_counter()
    ref = hostspeed.reference_seconds()
    ref_end = time.perf_counter()
    for n, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # an op that crashes is a failed op
            exc = (type(e).__name__, str(e))
        elapsed = time.perf_counter() - start
        results.append({"rc": rc, "exc": exc, "out": out.getvalue(),
                        "err": err.getvalue(), "raw_seconds": elapsed})
        pending.append(results[-1])
        if (time.perf_counter() - ref_end >= hostspeed.REF_INTERVAL_S
                or n == len(ops) - 1):
            ref_after = hostspeed.reference_seconds()
            ref_end = time.perf_counter()
            for r in pending:
                r["ref_seconds"] = (ref + ref_after) / 2
                r["seconds"] = hostspeed.scale(r["raw_seconds"], ref,
                                               ref_after)
            pending, ref = [], ref_after
    return results, time.perf_counter() - phase_start


def check_all(ops, results):
    """Status per op, and the details of every op that is not ok."""
    from checks import Checker
    golden = json.loads((HERE / "golden.json").read_text())
    checker = Checker(golden)
    statuses, details = [], []
    for op, res in zip(ops, results):
        status, detail = checker.check(op, res)
        statuses.append(status)
        if detail is not None:
            details.append({"argv": op["argv"], "status": status,
                            "detail": detail})
    return statuses, details


def tail(values):
    """Highest percentile with at least ten samples above it:
    (value, percentile, samples above)."""
    s = sorted(values)
    n = len(s)
    idx = max(0, n - 11)
    return s[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def seconds_by_kind(ops, results):
    out = {}
    for op, res in zip(ops, results):
        n, t = out.get(op["kind"], (0, 0.0))
        out[op["kind"]] = (n + 1, round(t + res["seconds"], 3))
    return out


def end_to_end(ops, results, statuses, wall, setup, rss_mb):
    """Metrics from scaled times; ``setup`` holds (scaled, raw) pairs.  The
    raw figures go to the info record."""
    times = [r["seconds"] for r in results]
    raw = [r["raw_seconds"] for r in results]
    ok = statuses.count("ok")
    tail_value, tail_pct, tail_above = tail(times)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "ops_per_s": (ok / sum(times), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ops_ratio": (ok / len(results), "1"),
    }
    refs = [r["ref_seconds"] for r in results]
    info = {"op_tail_percentile": tail_pct, "op_tail_samples_above":
            tail_above, "ops": len(results), "failed_ops_ratio":
            (len(results) - ok) / len(results),
            "host_slowdown": statistics.median(refs) / hostspeed.REF_NOMINAL_S,
            "raw_setup_s": [r for _, r in setup],
            "raw_ops_per_s": ok / sum(raw),
            "raw_op_p50_ms": 1000 * statistics.median(raw),
            "raw_op_tail_ms": 1000 * tail(raw)[0],
            "wall_s": wall,
            "ops_and_seconds_by_kind": seconds_by_kind(ops, results)}
    return metrics, info


def environment(seed):
    diagbase = sys.modules["diagbase"]
    numpy = sys.modules["numpy"]
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "diagbase").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            # null once the package no longer has the numba switch
            "NUMBA_ENABLED": getattr(diagbase, "NUMBA_ENABLED", None),
            "DIAGBASE_NO_NUMBA": os.environ.get("DIAGBASE_NO_NUMBA", ""),
            "seed": seed, "src_diagbase_lines": lines}


def failures_by_class(ops, results, statuses):
    out = {}
    for op, res, status in zip(ops, results, statuses):
        if status != "ok":
            name = res["exc"][0] if res["exc"] else f"{status}:{op['kind']}"
            out[name] = out.get(name, 0) + 1
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diagbase" / "__init__.py").is_file():
        print(f"no diagbase sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, args.seed, args.seconds)
    groups = workloads.groups_for(args.workload)

    # both phases below start cold, like a CLI invocation
    if args.trace:
        from spans import METRICS, Tracer
        _, _, tracer = setup_in_process(groups, Tracer)
        results, _ = run_ops(ops)
        tracer.uninstall()
    else:
        setup_first, setup_first_raw, _ = setup_in_process(groups)
        results, wall = run_ops(ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    statuses, details = check_all(ops, results)
    correct = "failed" not in statuses
    failed = sum(s != "ok" for s in statuses)

    if args.trace:
        # same ops, so the ratio of ops_per_s is the inverse ratio of the
        # summed scaled op times; the first round is enough for that
        traced = sum(r["seconds"] for op, r in zip(ops, results)
                     if op["round"] == 0)
        [untraced] = in_subprocess("phase_probe.py", args.workload,
                                   args.seed, args.seconds)
        layer = tracer.metrics(untraced / traced)
        metrics = {k: (v, METRICS[k][0]) for k, v in layer.items()}
        info = {"absent_metrics": tracer.absent_metrics(),
                "missing_entry_points": tracer.missing,
                "traced_op_s": traced, "untraced_op_s": untraced,
                "spans": len(tracer.spans)}
    else:
        setup = [(setup_first, setup_first_raw)] + [
            tuple(in_subprocess("setup_probe.py", *groups))
            for _ in range(SETUP_SAMPLES - 1)]
        metrics, info = end_to_end(ops, results, statuses, wall, setup, rss_mb)

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT / f"{stem}.spans.tsv")
    record = {"workload": args.workload, "seconds": args.seconds,
              "environment": env, "info": info,
              "failures": failures_by_class(ops, results, statuses),
              "failure_details": details[:20],
              # kind, round, raw seconds, mean reference seconds of each op
              "op_times": [[op["kind"], op["round"], r["raw_seconds"],
                            r["ref_seconds"]] for op, r in zip(ops, results)],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} failed={failed} correct={correct}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in info.items():
        print(f"# {k} = {v}")
    for name, count in record["failures"].items():
        print(f"# failed ops: {count} x {name}")
    for d in details[:5]:
        print(f"# {d['status']}: {' '.join(d['argv'])[:120]}: {d['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        # 0 whenever nothing fails, so BENCHMARK.json lists ok_ops_ratio
        print(f"failed_ops_ratio = {info['failed_ops_ratio']:.6g} 1")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
