"""gqm benchmark: seeded CLI workloads, end-to-end metrics, traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve_dense --seed 1 --seconds 20 --trace 0

Workloads (see specgen.py and BENCHMARK.json): ``evolve_dense`` (dense
dynamics dominates), ``structure_quiver`` (construction dominates, no
dynamics) and ``small_specs`` (latency-scale specs plus the malformed specs).

An op is one freshly generated spec file, carried from bytes on disk to
artifacts on disk by the workload's verb sequence, each verb one call of
``gqm.cli.main`` in a single worker process. The worker runs a closed loop with
one client: the next op is sent only after the previous one has replied. Spec
generation and the correctness gate run in this process, outside the timer.

With ``--trace 0`` the run reports the end-to-end metrics. ``setup_s`` is the
median over several fresh workers of the time from process start through
``import gqm`` and a first op. With ``--trace 1`` every other block of ops runs with
the layer tracer installed (spans.py) and the run reports per-layer metrics: the
median over traced ops, and the traced against the untraced op median.

The host this benchmark was built on shares its cores with other machines:
the same work can take up to twice as long from one minute to the next, and
waking a second BLAS thread can cost a whole host time slice (24 ms for a
144 x 144 complex product that takes 0.45 ms on one thread). So the
benchmark pins itself and its workers to one CPU, runs BLAS on one thread,
and reports every end-to-end time at a nominal machine speed: each op's wall
time is scaled by ``calib.NOMINAL_S`` over the mean calibration-kernel time
just before and just after the op (calib.py). The raw wall times are printed and recorded
next to the scaled ones.

Seeds: the workload seed is an argument; the program under test receives only
the generated spec files. Seed 20261017 is held out: it was not used while
the benchmark was tuned, and a later claim of a gain must also hold on it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A record with machine facts, every
op time and any failures is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import gate
import spans
import specgen

HERE = Path(__file__).resolve().parent
SETUPS = 3                       # fresh workers per run; setup_s is their median
SETUP_INDEX = 1_000_000          # op indices of setup ops, apart from the timed ones
# op_tail_s percentile per workload: the highest with at least TAIL_MIN_BEYOND ops
# beyond it at the BENCHMARK.json run length on the reference machine (about 75,
# 75 and 800 ops). It is fixed, so that every run of a workload reports the same
# percentile; a run with too few ops falls back to a lower one and records it.
TAIL_PERCENTILE = {"evolve_dense": 75, "structure_quiver": 75, "small_specs": 95}
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
BLAS_THREADS = 1                 # see the module docstring
# traced runs alternate blocks of untraced and traced ops; a block spans the
# small_specs schedule, so both halves see every spec shape equally often
TRACE_BLOCK = len(specgen.SMALL_SCHEDULE)
REPLY_TIMEOUT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------- machine

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """The environment for workers: BLAS_THREADS threads, at most nproc."""
    env = dict(os.environ)
    env.update({var: str(min(BLAS_THREADS, nproc())) for var in THREAD_VARS})
    return env


def pin_to_one_cpu() -> int:
    """Pin this process, and so every worker it starts, to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; src_sha256 names it otherwise."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(root: Path, env: dict[str, str]) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    with redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "worker_thread_env": {v: env[v] for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


# -------------------------------------------------------------- worker

class Worker:
    """One worker process; ``setup_s`` is process start to first-op reply,
    ``setup_cal`` the calibration-kernel time the worker measured right after."""

    def __init__(self, root: Path, env: dict, setup_calls: list):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root), json.dumps({"calls": setup_calls})],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root,
        )
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self._buf = b""
        self.setup_reply = self._reply()
        self.setup_s = perf_counter() - start
        self.setup_cal = self._reply()["cal"]

    def _reply(self) -> dict:
        deadline = perf_counter() + REPLY_TIMEOUT_S
        while b"\n" not in self._buf:
            if not self._sel.select(max(0.0, deadline - perf_counter())):
                raise BenchError("worker did not reply in time")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited with code {self.proc.wait(timeout=30)}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        return self._reply()

    def quit(self, spans_file: str = "") -> dict:
        reply = self.request({"quit": spans_file})
        self.close()
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._sel.close()


# ------------------------------------------------------------------ ops

class OpRunner:
    """Writes each op's spec, builds its CLI calls, and gates the replies."""

    def __init__(self, root: Path, workload: str):
        self.workload = workload
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spec = self.work / "spec.json"
        self.out = self.work / "out"
        self.malformed = []
        if workload == "small_specs":
            folder = self.work / "malformed"
            folder.mkdir()
            for name, data, code in specgen.load_malformed(root):
                (folder / name).write_bytes(data)
                self.malformed.append((str(folder / name), code))

    def prepare(self, op: specgen.Op) -> tuple[list, list]:
        """Write the spec and return (calls, expected diagnostic codes)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.spec.write_bytes(op.spec)
        calls, expect = [], []
        # malformed specs are interleaved between the verbs, all of them in every op
        slots = [[] for _ in op.verbs]
        for i, m in enumerate(self.malformed):
            slots[i % len(op.verbs)].append(m)
        for verb, extra in zip(op.verbs, slots):
            calls.append([verb, "--spec", str(self.spec), "--out", str(self.out)])
            expect.append(None)
            for path, code in extra:
                calls.append(["check", "--spec", path, "--out", str(self.work / "malformed_out")])
                expect.append(code)
        return calls, expect

    def check(self, op, calls, expect, reply) -> list[str]:
        return gate.check_op(op, calls, expect, reply["results"], self.out)

    def distinct_specs(self, calls) -> int:
        return len({argv[2] for argv in calls})

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def scaled(times: list[float], cals: list[float]) -> list[float]:
    """Each time at nominal speed. ``cals[i]`` was measured just before op i,
    so op i is scaled by the mean of the kernel times just before and after it."""
    after = cals[1:] + cals[-1:]
    return [t * calib.NOMINAL_S / ((c0 + c1) / 2) for t, c0, c1 in zip(times, cals, after)]


def tail(values: list[float], highest: float) -> tuple[float, float]:
    """The workload's tail percentile, or the highest lower one that still
    has at least TAIL_MIN_BEYOND values beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if p <= highest and n * (100 - p) / 100 >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(values, p))
    return 50, float(np.median(values))


def check_reference(worker: Worker, runner: OpRunner) -> list[str]:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    bad = []
    for entry in ref["workloads"][runner.workload]:
        op = specgen.generate(runner.workload, ref["seed"], entry["index"])
        calls, expect = runner.prepare(op)
        reply = worker.request({"op": -1, "calls": calls, "trace": False})
        problems = runner.check(op, calls, expect, reply)
        if not problems:
            problems = gate.compare(gate.invariants(op, runner.out), entry["invariants"],
                                    ref["tolerance"])
        bad += [f"reference op {entry['index']}: {p}" for p in problems]
    return bad


def run(args, root: Path) -> dict:
    cpu = pin_to_one_cpu()
    env = worker_env()
    facts = dict(machine_facts(root, env), pinned_cpu=cpu)
    runner = OpRunner(root, args.workload)
    failures: list[str] = []
    workers: list[Worker] = []
    try:
        setup_s, setup_cal = [], []
        for k in range(SETUPS if not args.trace else 1):
            op = specgen.generate(args.workload, args.seed, SETUP_INDEX + k)
            calls, expect = runner.prepare(op)
            if workers:
                workers.pop().quit()
            workers.append(Worker(root, env, calls))
            setup_s.append(workers[-1].setup_s)
            setup_cal.append(workers[-1].setup_cal)
            failures += [f"setup op {k}: {p}"
                         for p in runner.check(op, calls, expect, workers[-1].setup_reply)]
        worker = workers[-1]

        times, cals, traced, failed = [], [], [], 0
        i, busy, specs = 0, 0.0, {}
        while busy < args.seconds:
            op = specgen.generate(args.workload, args.seed, i)
            calls, expect = runner.prepare(op)
            traced.append(bool(args.trace) and (i // TRACE_BLOCK) % 2 == 1)
            reply = worker.request({"op": i, "calls": calls, "trace": traced[-1]})
            problems = runner.check(op, calls, expect, reply)
            if problems:
                failed += 1
                failures += [f"op {i}: {p}" for p in problems[:3]]
            busy += reply["dt"]
            times.append(reply["dt"])
            cals.append(reply["cal"])
            specs[i] = runner.distinct_specs(calls)
            i += 1

        failures += check_reference(worker, runner)
        spans_file = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        end = workers.pop().quit(str(spans_file) if args.trace else "")
    finally:
        for w in workers:
            w.close()
        runner.close()

    norm = scaled(times, cals)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": dict(facts, blas_threads=end["blas_threads"]),
              "op_times_s": times, "cal_times_s": cals, "setup_times_s": setup_s,
              "setup_cal_s": setup_cal, "failures": failures[:50],
              "attempted": len(times), "failed": failed}
    if args.trace:
        all_spans = [tuple(s) for s in json.loads(spans_file.read_text(encoding="utf-8"))]
        traced_ops = {i: (times[i], specs[i]) for i in range(len(times)) if traced[i]}
        # the overhead compares scaled times, so machine-speed drift between
        # neighbouring traced and untraced ops cancels
        untraced = statistics.median(n for n, t in zip(norm, traced) if not t)
        traced_p50 = statistics.median(n for n, t in zip(norm, traced) if t)
        metrics = spans.layer_metrics(all_spans, traced_ops, traced_p50 / untraced - 1.0)
        record["metrics"] = {k: {"value": metrics[k], "unit": spans.METRICS[k][0]}
                             for k in spans.METRICS}
    else:
        p, tail_s = tail(norm, TAIL_PERCENTILE[args.workload])
        record["tail"] = {"percentile": p, "n": len(times)}
        record["raw"] = {"op_p50_s": statistics.median(times), "op_tail_s": tail(times, p)[1],
                         "ops_per_s": len(times) / sum(times),
                         "setup_s": statistics.median(setup_s)}
        record["metrics"] = {
            "op_p50_s": {"value": statistics.median(norm), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(norm) / sum(norm), "unit": "1/s"},
            "setup_s": {"value": statistics.median(
                t * calib.NOMINAL_S / c for t, c in zip(setup_s, setup_cal)), "unit": "s"},
            "peak_rss_mb": {"value": end["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gqm" / "__init__.py").is_file():
        print("perfbench: run from the root of a gqm checkout (src/gqm not found)", file=sys.stderr)
        return 2
    try:
        record = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out = root / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for failure in record["failures"][:10]:
        print(f"FAIL {failure}")
    print(f"workload {args.workload}  seed {args.seed}  ops {record['attempted']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op_tail_s is percentile':<40} {record['tail']['percentile']:>14} "
              f"of N = {record['tail']['n']}")
        for name, value in record["raw"].items():
            print(f"  {'raw wall ' + name:<40} {value:>14.6g}")
        print(f"  {'calibration kernel, median':<40} {statistics.median(record['cal_times_s']):>14.6g} s"
              f"  (nominal {calib.NOMINAL_S} s)")
    print(f"  {'fail_frac':<40} {record['failed'] / record['attempted']:>14.6g} "
          f"({record['failed']}/{record['attempted']})")
    print(json.dumps({"correct": not record["failures"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
