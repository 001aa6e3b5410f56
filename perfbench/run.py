"""Benchmark for the hardy toolkit.

    python3 perfbench/run.py --workload {verify,decompose,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; hardy is imported from its ``src/``.
Set-up builds the workload's inputs from the seed and warms up each op
kind.  The run then repeats whole rounds of the workload's fixed op
list, one op at a time, until ``--seconds`` have passed (and at least
the workload's minimum number of rounds has run), checking every
output.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
untraced rounds, then one more round under the span recorder
(spans.py), and reports the per-layer metrics; spans are written to
perfbench/results/.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# Set-up is timed this many times per run (here once, the rest in fresh
# processes) and reported as the median.
SETUP_REPEATS = 3
STARTUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify", "decompose", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: spoil the first z^n output of every "
                        "round (decompose and cli)")
    return p.parse_args(argv)


def import_hardy():
    """hardy from this checkout's src/, or exit non-zero."""
    pkg = os.path.join(SRC, "hardy")
    sys.path.insert(0, SRC)
    import hardy
    import hardy.cli  # noqa: F401
    if os.path.dirname(os.path.realpath(hardy.__file__)) != os.path.realpath(pkg):
        raise SystemExit(f"hardy imported from {hardy.__file__}, not {pkg}")
    return hardy


def set_up(args, workdir):
    """Import, inputs, warm-up.  Returns (workload, seconds)."""
    hardy = import_hardy()
    import workloads
    workload = workloads.WORKLOADS[args.workload](hardy, args.seed, workdir)
    if workload.children:
        workload.check_import_path(os.path.join(SRC, "hardy"))
    workload.warm_up()
    return workload, time.perf_counter() - T_START


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def openblas(name):
    """OpenBLAS's ``openblas_<name>`` function, or None when the library
    numpy loaded cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def blas_threads():
    """OpenBLAS's own thread count, when the library can be found."""
    fn = openblas("get_num_threads")
    return None if fn is None else int(fn())


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with this process's OpenBLAS on one thread.  After
    a BLAS call its second thread spins for a while; when only the
    benchmark's checks run here and the program runs in children, that
    spinning took 70-120 ms of CPU from each of four commands per round
    on a 2-core machine.  The children keep the default threading."""
    get, set_ = openblas("get_num_threads"), openblas("set_num_threads")
    if get is None or set_ is None:
        yield
        return
    before = int(get())
    set_(ctypes.c_int(1))
    try:
        yield
    finally:
        set_(ctypes.c_int(before))


def cpu_ticks():
    """(steal, total) clock ticks of the machine so far, from /proc/stat;
    steal is time the hypervisor gave this VM's CPUs to someone else."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            ticks = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


class Tally:
    """Attempted / failed ops and check failures over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.child_rss_kb = 0

    def run_round(self, ops, corrupt=False, tracer=None):
        """Run the op list once.  Returns (index, kind, seconds, cpu
        seconds) for each op that succeeded; checks are not timed.  The
        CPU time is the process's own, or the child's for an op run as a
        subprocess.  Outputs are dropped as soon as they are checked."""
        done = []
        spoil = corrupt
        for index, op in enumerate(ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op = index
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                self.failed += 1
                print(f"op {op.kind} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            seconds = time.perf_counter() - start
            cpu = time.process_time() - cpu
            if tracer is not None:
                tracer.op = -1
            if spoil and op.corrupt is not None:
                out = op.corrupt(out)
                spoil = False
            try:
                op.check(out)
            except Exception as exc:
                self.failed += 1
                self.wrong.append(f"{op.kind}: {exc}")
                print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
                continue
            child_cpu = getattr(out, "cpu_s", None)
            done.append((index, op.kind, seconds,
                         cpu if child_cpu is None else child_cpu))
            self.child_rss_kb = max(self.child_rss_kb,
                                    getattr(out, "maxrss_kb", 0))
        return done


def measure(workload, tally, seconds, corrupt):
    """Whole rounds until `seconds` have passed and the minimum round count
    is reached.  Returns each round's list of (index, kind, seconds, cpu
    seconds), one entry per op that succeeded."""
    ops = workload.ops(traced=False)
    rounds = []
    with (one_blas_thread() if workload.children
          else contextlib.nullcontext()):
        begin = time.perf_counter()
        while (time.perf_counter() - begin < seconds
               or len(rounds) < workload.min_rounds):
            rounds.append(tally.run_round(ops, corrupt))
    return rounds


def op_medians(rounds):
    """Each op's median latency and median CPU time over the rounds, by
    its index in the op list, with its kind."""
    by_index = {}
    for done in rounds:
        for index, kind, s, cpu in done:
            by_index.setdefault(index, (kind, [], []))
            by_index[index][1].append(s)
            by_index[index][2].append(cpu)
    return [(kind, statistics.median(s), statistics.median(cpu))
            for kind, s, cpu in by_index.values()]


def end_to_end(workload, rounds, setup_times, child_rss_kb):
    """wall_s, cpu_s, spaces_s and series_s add up each op's median over
    the rounds: the time of one pass through the op list, with a stall
    that hits a few of an op's runs left out."""
    import numpy as np

    medians = op_medians(rounds)
    wall = sum(s for _, s, _ in medians)
    spaces = sum(s for kind, s, _ in medians
                 if kind in workload.spaces_kinds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(cpu for _, _, cpu in medians), "s"),
    }
    if workload.children:
        rss_mb = child_rss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    lat_ms = np.array([s for done in rounds for _, _, s, _ in done]) * 1e3
    metrics["op_p50_ms"] = (float(np.percentile(lat_ms, 50)), "ms")
    metrics["op_p90_ms"] = (float(np.percentile(lat_ms, 90)), "ms")
    metrics["spaces_s"] = (spaces, "s")
    metrics["series_s"] = (wall - spaces, "s")
    return metrics, lat_ms.size


def child_setups(args):
    """Time SETUP_REPEATS - 1 more set-ups, each in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.realpath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cli_startup_s():
    """Median over fresh interpreters of `import hardy.cli`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import time; t = time.perf_counter(); import hardy.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(STARTUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def traced_round(workload, tally, rounds):
    """One round under the span recorder.  trace.overhead compares it with
    the same ops untraced: the leading ops of the measured rounds, or for
    cli, whose traced round runs the commands in-process, one extra
    in-process round."""
    import spans
    ops = workload.ops(traced=True)
    if workload.children:
        untraced_wall = sum(s for _, _, s, _ in tally.run_round(ops))
    else:
        untraced_wall = statistics.fmean(
            sum(s for index, _, s, _ in done if index < len(ops))
            for done in rounds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        done = tally.run_round(ops, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = sum(s for _, _, s, _ in done) / untraced_wall
    metrics["cli.startup_s"] = cli_startup_s()
    return tracer, metrics


def unit_of(name):
    if name == "trace.overhead":
        return "ratio"
    if name == "serialize.bytes_out":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    # A terminated run unwinds like an error: the running child is killed
    # and waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardy", "__init__.py")):
        raise SystemExit(f"no hardy package under {SRC}")
    workdir = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    workload, setup_s = set_up(args, workdir)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    import numpy as np
    env = environment(np)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    tally = Tally()
    steal, total = cpu_ticks()
    rounds = measure(workload, tally, args.seconds, args.corrupt)
    steal, total = (a - b for a, b in zip(cpu_ticks(), (steal, total)))
    print(f"host steal while measuring: {steal / max(total, 1):.1%} of CPU "
          "time")
    per_kind = {}
    for done in rounds:
        for _, kind, s, _ in done:
            per_kind.setdefault(kind, []).append(s)
    for kind, values in per_kind.items():
        print(f"  {kind:28s} n={len(values):4d} "
              f"median {statistics.median(values) * 1e3:10.3f} ms")
    if args.trace:
        tracer, values = traced_round(workload, tally, rounds)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(
            RESULTS, f"trace-{args.workload}-seed{args.seed}.csv.gz"))
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
        print(f"traced round: {len(tracer.start_col)} spans, overhead "
              f"{values['trace.overhead']:.3f}x")
    else:
        setup_times = [setup_s] + child_setups(args)
        values, samples = end_to_end(workload, rounds, setup_times,
                                     tally.child_rss_kb)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        print(f"rounds {len(rounds)}, op samples {samples}, set-ups "
              + ", ".join(f"{t:.3f}" for t in setup_times) + " s, rounds "
              + ", ".join(f"{sum(s for _, _, s, _ in done):.3f}"
                        for done in rounds) + " s")
        for name, (v, u) in values.items():
            print(f"  {name:12s} {v:12.4f} {u}")
    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as handle:
        json.dump({"environment": env, "rounds": len(rounds), **result},
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
