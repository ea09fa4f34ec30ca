"""rectcft benchmark runner.

    python3 perfbench/run.py --workload loop --seed 1 --seconds 20 --trace 0

Runs the workload in fresh worker processes, one at a time, until
--seconds of workload time are used (at least one run), and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: the medians over the runs of
wall_s (the workload's calls, after imports), cpu_s and peak_rss_mib (the
child's rusage from wait4), setup_s (spawn to imports done, also sampled by
SETUP_PROBES import-only processes), and check_pass_ratio.

--trace 1 alternates untraced and traced runs and reports the per-layer
metrics: medians over the traced runs, and trace_overhead, the median
ratio of a traced run's wall time to that of the untraced run before it.

Workload, size, check and metric definitions are in spec.py; the timed
calls and checks in workloads.py; the spans in spans.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, RUN_CHECKS, SIZES, WORKLOADS, checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(spec: dict, deadline: float):
    """Run one worker; return (result or None, exit code, setup_s, rusage)."""
    out = Path(spec["out"])
    env = dict(os.environ)
    env.pop("RECTCFT_MAX_ORDER", None)  # the fixed sizes assume the default cap
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            stdin=subprocess.DEVNULL, stdout=sys.stderr, env=env)
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = json.loads(out.read_text()) if out.is_file() else None
    setup = result["t_ready"] - t_spawn if result else None
    return result, code, setup, rusage


def bench(workload: str, seed: int, seconds: float, trace: bool,
          profile: str = "full") -> dict:
    """One benchmark run at the sizes of `profile` (see spec.SIZES)."""
    if not (ROOT / "src" / "rectcft" / "__init__.py").is_file():
        raise BenchError(f"no rectcft sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    size = SIZES[profile][workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    children = []  # (traced, result, exit code, setup_s, rusage)
    setups = []
    try:
        def child(kind, traced=False):
            cwork = work / f"c{len(children) + len(setups)}"
            cwork.mkdir()
            spec = {"workload": kind, "profile": profile, "size": size, "seed": seed,
                    "trace": traced, "work": str(cwork), "out": str(cwork / "result.json"),
                    "src": str(ROOT / "src")}
            result, code, setup, rusage = _spawn(spec, deadline)
            if result is None:
                raise BenchError(f"{kind} worker exited {code} without a result")
            return traced, result, code, setup, rusage

        if not trace:
            for _ in range(SETUP_PROBES):
                _t, result, _code, setup, _ru = child("probe")
                setups.append(setup)
            print(f"machine: {json.dumps(result['machine'])}", file=sys.stderr)
        t_work = time.monotonic()
        traced = False
        while True:
            children.append(child(workload, traced))
            elapsed = time.monotonic() - t_work
            per_run = elapsed / len(children)
            enough = elapsed + per_run > seconds and (not trace or len(children) >= 2)
            if enough or time.monotonic() + per_run > deadline:
                break
            traced = trace and not traced
        return _summarise(workload, profile, trace, children, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _summarise(workload, profile, trace, children, setups) -> dict:
    names = checks(workload, profile)
    attempted = failed = 0
    first_csv = children[0][1].get("csv_sha256")
    for _traced, result, code, _setup, _ru in children:
        for name in names:
            attempted += 1
            if name in RUN_CHECKS:
                ok = result.get("csv_sha256") is not None and result["csv_sha256"] == first_csv
            else:
                ok = result.get("checks", {}).get(name, False)
            if code != 0 or not ok:
                failed += 1
                print(f"check failed: {workload}.{name} (exit {code})", file=sys.stderr)
    med = statistics.median
    if trace:
        traced = [r for t, r, *_ in children if t]
        values = {name: med(r["layers"][name] for r in traced)
                  for name, _unit, _better in PER_LAYER if name != "trace_overhead"}
        # children alternate plain, traced: compare neighbours, which see
        # the most similar machine speed
        walls = [r["wall_s"] for _t, r, *_ in children]
        values["trace_overhead"] = med(walls[i + 1] / walls[i]
                                       for i in range(0, len(walls) - 1, 2))
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        values = {
            "wall_s": med(r["wall_s"] for _t, r, *_ in children),
            "setup_s": med(setups + [c[3] for c in children]),
            "cpu_s": med(ru.ru_utime + ru.ru_stime for *_, ru in children),
            "peak_rss_mib": med(ru.ru_maxrss / 1024 for *_, ru in children),
            "check_pass_ratio": (attempted - failed) / attempted,
        }
        units = {name: unit for name, unit, _better in END_TO_END}
    for t, r, code, setup, ru in children:
        print(f"{workload}{' traced' if t else ''}: wall {r['wall_s']:.3f} s, "
              f"setup {setup:.3f} s, cpu {ru.ru_utime + ru.ru_stime:.3f} s, "
              f"rss {ru.ru_maxrss / 1024:.1f} MiB, exit {code}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
