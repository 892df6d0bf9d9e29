"""Benchmark worker: one client that runs ops through ``gqm.cli.main``.

Usage: ``python3 perfbench/worker.py <checkout root> <setup op JSON>``.

The worker imports ``gqm`` from ``<root>/src``, runs the setup op given on the
command line, replies on stdout, then serves requests read from stdin, one JSON
object per line, until it is told to quit. Each op is a list of CLI argument
vectors run back to back in this process; the reply carries the op's wall time
and each call's exit code, stdout and stderr. The next op starts only after the
reply is read, so the load is a closed loop with one client.

Requests: ``{"calls": [...], "trace": bool, "op": int}`` runs an op;
``{"quit": "<spans file>"}`` writes the spans, replies with the worker's peak
RSS and BLAS thread count, and exits. Every reply carries ``cal``, the time of
the calibration kernel (calib.py) run next to the op, outside its timer; for
the setup op it follows on a line of its own, after the setup reply.
"""

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter


def run_op(cli, calls):
    results = []
    start = perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught exception fails the op; keep serving
                code = None
                traceback.print_exc()
        results.append([code, out.getvalue(), err.getvalue()])
    return perf_counter() - start, results


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import gqm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"gqm imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 3
    reply = sys.stdout
    dt, results = run_op(cli, json.loads(sys.argv[2])["calls"])
    reply.write(json.dumps({"dt": dt, "results": results}) + "\n")
    reply.flush()

    import resource

    import calib
    from spans import Tracer

    reply.write(json.dumps({"cal": calib.measure(reps=3)}) + "\n")
    reply.flush()

    tracer = Tracer(cli)
    for line in sys.stdin:
        req = json.loads(line)
        if "quit" in req:
            if req["quit"]:
                Path(req["quit"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply.write(json.dumps({"peak_rss_kb": rss_kb, "blas_threads": blas_threads()}) + "\n")
            reply.flush()
            return 0
        cal = calib.measure()
        tracer.op = req["op"]
        if req["trace"]:
            tracer.install()
        try:
            dt, results = run_op(cli, req["calls"])
        finally:
            if req["trace"]:
                tracer.uninstall()
        reply.write(json.dumps({"dt": dt, "results": results, "cal": cal}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
