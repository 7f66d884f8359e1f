"""ivfkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload evp-sweep --seed 1 --seconds 30 --trace 0

Each run starts ``SETUPS`` fresh workload processes one after another; each
imports ivfkit from ``src/``, builds the catalog, generates the seeded ops and
warms up.  ``setup_s`` is the median time from spawn to ready, less the time
spent generating the ops.  The last
process then runs the ops in a closed loop (one client, no threads) and checks
every output against its oracle.  With ``--trace 1`` the same ops run once
plain and once traced, and the per-layer metrics are printed instead.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds provenance and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

WORKLOADS = ("cli-cold", "evp-sweep", "point-verdicts")
SETUPS = 3
DEADLINE_S = 170


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout(f"run exceeded {DEADLINE_S} s")


def _provenance(args: argparse.Namespace) -> dict:
    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _spawn(args: argparse.Namespace) -> subprocess.Popen:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "worker",
           args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    # a session of its own, so a failed run can stop the worker and any CLI
    # process it started in one signal
    return subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)


def _wait(proc: subprocess.Popen):
    """Reaps the process and returns its resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_workload(args: argparse.Namespace) -> tuple[list[float], list[dict], dict, int]:
    """Returns set-up times, ready records, the worker's result and its peak RSS in KiB."""
    setups, readies = [], []
    result, maxrss_kb = None, 0
    for k in range(SETUPS):
        start = time.perf_counter()
        proc = _spawn(args)
        try:
            ready = json.loads(proc.stdout.readline())
            # the benchmark's own input generation is not the program's set-up
            setups.append(time.perf_counter() - start - ready["inputs_s"])
            readies.append(ready)
            last = k == SETUPS - 1
            proc.stdin.write("run\n" if last else "exit\n")
            proc.stdin.flush()
            proc.stdin.close()
            if last:
                lines = proc.stdout.read().splitlines()
                result = json.loads(lines[-1])
            proc.stdout.close()
            usage = _wait(proc)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            _wait(proc)
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        maxrss_kb = usage.ru_maxrss
    return setups, readies, result, maxrss_kb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ivfkit" / "__init__.py").is_file():
        print(f"perfbench: no ivfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        setups, readies, result, maxrss_kb = run_workload(args)
    except (Timeout, RuntimeError, ValueError, OSError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    seconds = result["seconds"]
    attempted = len(seconds)
    failed = attempted - result["ok"] - result["refused"]
    detail = {"provenance": _provenance(args), "refused": result["refused"],
              "failures": result["failures"],
              "mismatches": result["mismatches"]}
    if args.trace:
        import_s = [r["import_s"] for r in readies] + result["child_import_s"]
        deps_s = [r["deps_s"] for r in readies] + result["child_deps_s"]
        values = {
            "import.s": stats.median(import_s),
            "import.deps_s": stats.median(deps_s),
            "catalog.build_s": stats.median([r["catalog_s"] for r in readies]),
            **result["layers"],
        }
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in values.items()}
        detail["samples"] = {"traced_ops": result["trace_ops"], "plain_ops": result["trace_ops"],
                             "import": len(import_s), "catalog": len(readies)}
        detail["spans_file"] = result["spans_file"]
    else:
        tail_value, tail_pct, beyond = stats.tail(seconds)
        rss_kb = result["child_maxrss_kb"] if args.workload == "cli-cold" else maxrss_kb
        values = {
            "setup_s": stats.median(setups),
            "op_s.p50": stats.median(seconds),
            "op_s.tail": tail_value,
            "ops_per_s": attempted / sum(seconds),
            "peak_rss_mb": rss_kb / 1024.0,
            "verdict_ratio": result["ok"] / attempted,
        }
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
        detail["samples"] = {"setup_s": len(setups), "op_s.p50": attempted,
                             "op_s.tail": attempted, "ops_per_s": attempted,
                             "peak_rss_mb": 1, "verdict_ratio": attempted}
        detail["tail"] = {"percentile": tail_pct, "samples": attempted, "beyond": beyond}
        detail["setup_s_samples"] = setups
    out = {"correct": result["mismatch_count"] == 0, "attempted": attempted,
           "failed": failed, "metrics": metrics}
    record = ROOT / ".perfbench" / f"result-{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps({**detail, **out}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(out))
    return 0


E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB", "verdict_ratio": "ratio"}
LAYER_UNITS = {
    "import.s": "s", "import.deps_s": "s", "catalog.build_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.report_bytes": "bytes",
    "ivf.grid_points.calls": "count", "ivf.grid_points.points": "count",
    "ivf.grid_points.s": "s",
    "ivf.values.calls": "count", "ivf.values.points": "count", "ivf.values.s": "s",
    "ivf.values.self_s": "s",
    "expr.eval.calls": "count", "expr.eval.points": "count", "expr.eval.s": "s",
    "expr.eval.ns_per_point": "ns",
    "ivf.probe.calls": "count", "ivf.probe.s": "s", "ivf.probe.balls": "count",
    "ivf.reduce.s": "s",
    "ekeland.search.calls": "count", "ekeland.search.s": "s", "ekeland.search.self_s": "s",
    "ekeland.verify.s": "s", "ekeland.points_per_grid_point": "ratio",
    "calculus.gateaux.calls": "count", "calculus.gateaux.s": "s",
    "calculus.gateaux.nonconvergent": "count",
    "interval.calls": "count",
    "sequences.calls": "count", "sequences.terms": "count", "sequences.s": "s",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


if __name__ == "__main__":
    raise SystemExit(main())
