"""End-to-end benchmark of the ``affinetoda`` CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the package is imported from
``src/`` with no install step.  Workloads are defined in ``workloads.py``.

Untraced runs (``--trace 0``) drive the CLI as a closed loop: ops run one at
a time, each in a fresh child interpreter with its own temporary working
directory, and a pass over the op list repeats while another pass still fits
in ``--seconds``.  A run always completes at least one whole pass.  Reported
end-to-end metrics are medians over passes:

  setup_s       median time for a fresh interpreter to import affinetoda.cli
                (measured several times before the timed passes)
  wall_s        wall time of one pass over the op list
  peak_rss_mb   largest ru_maxrss of any op's child process in a pass
  ok_ratio      succeeded ops / attempted ops (1 - fail_ratio)

The summary line also gives, per pass, the wall time summed over the ops of
each kind (solve_s, verify_s, conn_check_s, lie_s).  They are not bounded
metrics: on a workload where a kind is a handful of sub-second ops, its sum
moves by more than any usable bound from one run to the next on a shared
host.

The traced run (``--trace 1``) stays in one process and calls
``affinetoda.cli.main`` for each op, in three passes: untraced, with every
layer wrapped (see ``tracing.py``), and untraced again.  It reports the
per-layer metrics of the traced pass, ``trace.overhead_s`` (the traced pass
wall time minus the mean of the two untraced ones) and, from the untraced
passes, the in-process wall time of each op kind (``cli.solve_s`` ...).

The last line of stdout is the result object; the line before it is a
summary with the environment, failures, tail percentiles and sample counts.
Both are also written, with the per-op records (and spans, when traced),
under ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from importlib import metadata
from typing import Dict, List, Optional

import stats
from workloads import KIND_METRIC, KNOWN_FAILURES, WORKLOADS, Op, check_output

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every op is killed before a run reaches this age
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def pin_threads() -> None:
    """Cap every BLAS thread variable at the CPUs this process may use, and
    put the checkout's sources first on the children's import path."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            n = int(os.environ.get(var, cap))
        except ValueError:
            n = cap
        os.environ[var] = str(max(1, min(n, cap)))
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")


def environment() -> Dict[str, object]:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "cpus": len(os.sched_getaffinity(0)),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {var: os.environ[var] for var in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# untraced ops: one child interpreter each
# ---------------------------------------------------------------------------


def _spawn(argv: List[str], cwd: str, timeout: float) -> Dict[str, object]:
    """Run argv in cwd; return wall time, exit code, peak RSS and stdout."""
    with open(os.path.join(cwd, "stdout"), "w+") as out, open(os.path.join(cwd, "stderr"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "wall_s": wall,
            "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out.read(),
            "stderr": err.read()[-400:],
        }


def measure_setup(workdir: str, repeats: int = SETUP_REPEATS) -> List[float]:
    """Wall times of fresh interpreters importing affinetoda.cli.  One
    uncounted import first, so a missing bytecode cache is not measured."""
    argv = [sys.executable, "-c", "import affinetoda.cli"]
    times = []
    for i in range(repeats + 1):
        rec = _spawn(argv, workdir, RUN_LIMIT_S)
        if rec["code"] != 0:
            raise BenchError(f"cannot import affinetoda.cli: {rec['stderr'].strip()}")
        if i:
            times.append(rec["wall_s"])
    return times


def _resolve(op: Op, dirs: Dict[str, str]) -> List[str]:
    field = os.path.join(dirs[op.source], "field.bin") if op.source else ""
    return [a.replace("{field}", field) for a in op.argv]


def run_pass(ops: List[Op], workdir: str, deadline: float) -> List[Dict]:
    """One pass over ops, each in a fresh child with its own working dir."""
    dirs: Dict[str, str] = {}
    records = []
    for i, op in enumerate(ops):
        dirs[op.id] = cwd = os.path.join(workdir, f"op{i:03d}")
        os.mkdir(cwd)
        argv = [sys.executable, "-m", "affinetoda"] + _resolve(op, dirs)
        rec = _spawn(argv, cwd, deadline - time.monotonic())
        rec["reason"] = check_output(op, rec["code"], rec.pop("stdout"))
        records.append({"id": op.id, "kind": op.kind, **rec})
    return records


def kind_times(records: List[Dict]) -> Dict[str, float]:
    """Op wall time summed per kind (solve_s, verify_s, conn_check_s, lie_s)."""
    out = dict.fromkeys(sorted(set(KIND_METRIC.values())), 0.0)
    for r in records:
        out[KIND_METRIC[r["kind"]]] += r["wall_s"]
    return out


def pass_metrics(records: List[Dict], wall: float) -> Dict[str, float]:
    return {
        "wall_s": wall,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "ok_ratio": 1.0 - stats.fail_ratio(r["reason"] is None for r in records),
    }


# ---------------------------------------------------------------------------
# traced run: one process, cli.main per op
# ---------------------------------------------------------------------------


def run_pass_inprocess(ops: List[Op], workdir: str, main, tracer=None) -> List[Dict]:
    dirs: Dict[str, str] = {}
    records = []
    home = os.getcwd()
    for i, op in enumerate(ops):
        dirs[op.id] = cwd = os.path.join(workdir, f"op{i:03d}")
        os.mkdir(cwd)
        argv = _resolve(op, dirs)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op.id
        os.chdir(cwd)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # an uncaught error is a failed op, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        finally:
            wall = time.perf_counter() - t0
            os.chdir(home)
        reason = check_output(op, code, out.getvalue()) if isinstance(code, int) else code
        records.append({"id": op.id, "kind": op.kind, "wall_s": wall, "code": code, "reason": reason,
                        "stderr": err.getvalue()[-400:]})
    return records


def traced_run(ops: List[Op], workdir: str) -> Dict[str, object]:
    sys.path.insert(0, SRC)
    from tracing import Tracer, import_layers, layer_metrics

    import_layers()  # so that no pass pays the imports
    import affinetoda.cli as cli
    tracer = Tracer()

    def timed(tag: str, tr) -> tuple:
        d = os.path.join(workdir, tag)
        os.mkdir(d)
        t0 = time.perf_counter()
        recs = run_pass_inprocess(ops, d, cli.main, tr)
        return recs, time.perf_counter() - t0

    # untraced passes on both sides of the traced one, so that warm-up
    # effects do not land on either side of the overhead
    before, wall_before = timed("before", None)
    tracer.install()
    try:
        traced, wall_traced = timed("traced", tracer)
    finally:
        tracer.uninstall()
    after, wall_after = timed("after", None)
    wall_plain = (wall_before + wall_after) / 2
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    kb, ka = kind_times(before), kind_times(after)
    metrics.update({f"cli.{k}": (kb[k] + ka[k]) / 2 for k in kb})
    return {"records": before + traced + after, "metrics": metrics, "spans": tracer.spans,
            "walls": {"untraced_s": [wall_before, wall_after], "traced_s": wall_traced}}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def untraced_run(ops: List[Op], workdir: str, seconds: float, started: float) -> Dict[str, object]:
    """Whole passes while another one fits in ``seconds``; medians over them."""
    setup = measure_setup(workdir)
    passes: List[Dict[str, float]] = []
    per_kind: List[Dict[str, float]] = []
    records: List[Dict] = []
    t0 = time.perf_counter()
    while True:
        pdir = tempfile.mkdtemp(dir=workdir)
        p0 = time.perf_counter()
        recs = run_pass(ops, pdir, started + RUN_LIMIT_S)
        wall = time.perf_counter() - p0
        shutil.rmtree(pdir)
        records += recs
        passes.append(pass_metrics(recs, wall))
        per_kind.append(kind_times(recs))
        elapsed = time.perf_counter() - t0
        if elapsed + wall > seconds or time.monotonic() - started + 2 * wall > RUN_LIMIT_S:
            break
    samples = {k: [p[k] for p in passes] for k in passes[0]}
    samples["setup_s"] = setup
    kinds = sorted({r["kind"] for r in records})
    summary = {
        "passes": len(passes),
        "metric_detail": {k: stats.summarize(v) for k, v in samples.items()},
        "kind_s": {k: stats.summarize([p[k] for p in per_kind]) for k in per_kind[0]},
        "op_latency_s": {
            k: stats.summarize([r["wall_s"] for r in records if r["kind"] == k]) for k in kinds
        },
    }
    return {"records": records, "summary": summary,
            "metrics": {k: stats.median(v) for k, v in samples.items()}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    if not os.path.isfile(os.path.join(SRC, "affinetoda", "cli.py")):
        raise BenchError(f"no affinetoda sources under {SRC}; run from a source checkout")
    env = environment()
    ops = WORKLOADS[workload](seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    started = time.monotonic()
    summary: Dict[str, object] = {"workload": workload, "seed": seed, "default_seed": DEFAULT_SEED,
                                  "trace": int(trace), "ops_per_pass": len(ops), "environment": env}
    try:
        if trace:
            res = traced_run(ops, workdir)
            summary["walls"] = res.pop("walls")
        else:
            res = untraced_run(ops, workdir, seconds, started)
            summary.update(res.pop("summary"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = res.pop("records")

    failed_records = [r for r in records if r["reason"] is not None]
    unexpected = sorted({r["id"] for r in failed_records} - KNOWN_FAILURES)
    summary["failures"] = {r["id"]: r["reason"] for r in failed_records}
    summary["unexpected_failures"] = unexpected
    summary["fail_ratio"] = stats.fail_ratio(r["reason"] is None for r in records)
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed_records),
        "metrics": res.pop("metrics"),
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"summary": summary, "result": result, "records": records, **res}, fh)
    return {"summary": summary, "result": result}


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    pin_threads()
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    if args.trace:
        from tracing import UNITS as units
    else:
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(out["summary"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
