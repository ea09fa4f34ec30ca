"""One workload run in a fresh process: import, run the timed calls, check.

    python3 worker.py '<json spec>'

The spec names the workload ("probe" only imports), the size profile, the
seed, whether to trace, the work directory, the src/ directory to import
rectcft from, and the file to write the result to.  run.py measures
set-up time from spawning this process to `t_ready`, and CPU time and peak
RSS from its rusage.
"""

import json
import random
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace


def _machine() -> dict:
    import ctypes
    import os

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": blas.get("openblas configuration"), "openblas_threads": threads}


def _holds(predicate) -> bool:
    try:
        return bool(predicate())
    except Exception:
        traceback.print_exc()
        return False


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    # rectcft.cli imports every rectcft module, and through them numpy,
    # scipy.linalg, scipy.sparse.linalg and mpmath
    import rectcft.cli
    import spans
    import workloads
    from spec import checks
    t_ready = time.monotonic()
    if src not in Path(rectcft.__file__).resolve().parents:
        print(f"worker: rectcft imported from {rectcft.__file__}, not {src}", file=sys.stderr)
        return 3
    result = {"t_ready": t_ready}
    status = 0
    if spec["workload"] == "probe":
        result["machine"] = _machine()
    else:
        run, make_checks = workloads.WORKLOADS[spec["workload"]]
        ctx = SimpleNamespace(profile=spec["profile"], work=Path(spec["work"]),
                              size=spec["size"], rng=random.Random(spec["seed"]))
        tracer = spans.install() if spec["trace"] else None
        t0 = time.perf_counter()
        try:
            out = run(ctx)
        except Exception:
            traceback.print_exc()
            out = None
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
            tracer.restore()
        predicates = {}
        # a raised exception or a nonzero CLI exit fails every check
        if out is not None and not any(out.get("status", ())):
            try:
                predicates = make_checks(ctx, out)
            except Exception:
                traceback.print_exc()
        result["checks"] = {name: _holds(predicates[name])
                            for name in checks(spec["workload"], spec["profile"])
                            if name in predicates}
        if out is not None and "csv" in out and Path(out["csv"]).is_file():
            result["csv_sha256"] = workloads.sha256(Path(out["csv"]).read_bytes())
        status = 0 if out is not None else 1
    Path(spec["out"]).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
