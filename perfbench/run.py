"""degenpoly benchmark: closed-loop CLI workloads, output checks, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness RUNS --workload NAME [--workload ...] --seconds S

Run from the repository root.  One client runs requests back to back: each
request is one ``python -m degenpoly.cli ...`` process, started only after
the previous one exited.  Requests come in rounds from ``workloads``; a run
starts rounds until its requests have taken ``--seconds`` and always finishes
the round it started.  ``setup_s`` is the median wall time of
``degenpoly --version`` spawns timed at the start, between requests and at
the end of the run.  Every request's stdout is checked against the sha256 recorded in
``digests.json``; a ``verify`` request must also report all checks passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
round of the seed instead, each request once untraced and once through
``launcher.py``, and prints the per-layer metrics reduced from the spans plus
the tracing overhead (traced minus untraced wall time).

``--steadiness RUNS`` runs RUNS seeds twice over (seeds 1..RUNS, then
1001..1000+RUNS) per workload and checks each end-to-end metric against its
bound in BENCHMARK.json: the spread of each set (interquartile range over
median) and the change of the median from the first set to the second.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A missing program or a failed setup exits 2 without that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5  # timed --version spawns at the start and at the end of a run
SETUP_INTERVAL_S = 2.0  # and one between requests at most this often
VERIFY_CHECKS = 38

# (metric, unit) reported by an untraced run; bounds live in BENCHMARK.json.
END_TO_END = (
    ("latency_p50_s", "s"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


class SetupError(RuntimeError):
    pass


class Client:
    """Spawns requests one at a time and checks what they print."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONIOENCODING="utf-8")
        self.digests = json.loads((HERE / "digests.json").read_text())
        OUT.mkdir(exist_ok=True)
        self.stderr = open(OUT / "stderr.txt", "w+b")

    def close(self):
        self.stderr.close()

    def spawn(self, cmd):
        """Run one process to exit: (wall seconds, peak RSS in MiB, exit code, stdout)."""
        self.stderr.seek(0)
        self.stderr.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr,
                                cwd=self.root, env=self.env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode, out

    def last_stderr(self) -> str:
        self.stderr.seek(0)
        return self.stderr.read().decode("utf-8", "replace").strip()

    def cli(self, argv):
        return self.spawn([sys.executable, "-m", "degenpoly.cli", *argv])

    def traced(self, argv, spans_path, request_id):
        return self.spawn([sys.executable, str(HERE / "launcher.py"), str(spans_path),
                           str(request_id), *argv])

    def problem(self, argv, code, out):
        """Why a request's result is wrong, or None when it is right."""
        if code != 0:
            return f"exit {code}: {self.last_stderr()[-300:]}"
        if hashlib.sha256(out).hexdigest() != self.digests.get(workloads.key(argv)):
            return "stdout differs from the recorded digest"
        if argv[0] == "verify":
            return verify_problem(argv, out)
        return None


def verify_problem(argv, out: bytes):
    """A failed or missing check in a verify request's output, else None."""
    text = out.decode("utf-8")
    if "json" in argv:
        statuses = [entry["status"] for entry in json.loads(text)["entries"]]
    else:
        statuses = [line.split()[0] for line in text.splitlines()[:-1]]
    bad = len(statuses) - statuses.count("pass")
    if bad or len(statuses) != VERIFY_CHECKS:
        return f"verify: {bad} of {len(statuses)} checks not passed (expected {VERIFY_CHECKS})"
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "degenpoly").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def setup(client: Client, seed: int):
    """Check the program is there, record the environment, time start-up."""
    if not (client.root / "src" / "degenpoly" / "cli.py").is_file():
        raise SetupError(f"no degenpoly sources under {client.root / 'src'}")
    for workload in workloads.WORKLOADS:
        missing = [a for a in workloads.catalogue(workload)
                   if workloads.key(a) not in client.digests]
        if missing:
            raise SetupError(f"{workload}: {len(missing)} requests lack a recorded digest")
    probe = ("import platform, degenpoly, degenpoly.scalars as s; "
             "print(degenpoly.__file__); print(platform.python_version()); "
             "print(s.Q.__module__ + '.' + s.Q.__qualname__)")
    _, _, code, out = client.spawn([sys.executable, "-c", probe])
    if code != 0:
        raise SetupError(f"cannot import degenpoly: {client.last_stderr()[-300:]}")
    module_file, python, backend = out.decode().split("\n")[:3]
    if not Path(module_file).resolve().is_relative_to(client.root / "src"):
        raise SetupError(f"degenpoly imported from {module_file}, not from this checkout")
    client.cli(["--version"])  # warms the bytecode cache
    times = time_setup(client, SETUP_REPEATS)
    environment = {
        "backend": backend,
        "python": python,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(client.root),
        "source_sha256": source_digest(client.root),
        "seed": seed,
    }
    return environment, times


def time_setup(client: Client, repeats: int):
    """Wall times of ``repeats`` spawns of ``degenpoly --version``."""
    times = []
    for _ in range(repeats):
        wall, _, code, out = client.cli(["--version"])
        if code != 0 or not out.strip():
            raise SetupError(f"degenpoly --version failed: {client.last_stderr()[-300:]}")
        times.append(wall)
    return times


def percentile(sorted_values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond it.
    The median is always given."""
    if q == 0.5:
        return statistics.median(sorted_values)
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1] if len(sorted_values) - rank >= 10 else None


def closed_loop(client: Client, workload: str, seed: int, seconds: float, setup_times):
    """Play rounds for ``seconds`` of request time.  Between requests, at most
    every SETUP_INTERVAL_S, and at the end, time more set-ups into
    ``setup_times``: a shared host's speed can shift within seconds, so
    set-ups spread over the run give a steadier median than a burst at its
    start.  The returned elapsed time leaves those set-ups out."""
    samples, failures = [], []
    stream = workloads.rounds(workload, seed)
    elapsed = last_setup = 0.0
    while elapsed < seconds:
        for argv in next(stream):
            start = time.perf_counter()
            wall, rss, code, out = client.cli(argv)
            problem = client.problem(argv, code, out)
            elapsed += time.perf_counter() - start
            samples.append((workloads.key(argv), wall, rss, problem is None))
            if problem:
                failures.append(f"{workloads.key(argv)}: {problem}")
            if elapsed - last_setup >= SETUP_INTERVAL_S:
                setup_times += time_setup(client, 1)
                last_setup = elapsed
    setup_times += time_setup(client, SETUP_REPEATS)
    return samples, failures, elapsed


def run_untraced(client, workload, seed, seconds, setup_times):
    samples, failures, elapsed = closed_loop(client, workload, seed, seconds, setup_times)
    ok = [wall for _, wall, _, good in samples if good]
    latencies = sorted(ok or [wall for _, wall, _, _ in samples])
    metrics = {
        "latency_p50_s": percentile(latencies, 0.5),
        "throughput_rps": len(ok) / elapsed,
        "peak_rss_mb": max(rss for _, _, rss, _ in samples),
        "setup_s": statistics.median(setup_times),
    }
    report = {
        "elapsed_s": elapsed,
        "setup_samples": len(setup_times),
        "fail_ratio": len(failures) / len(samples),
        "latency_p90_s": percentile(latencies, 0.9),
        "latency_p99_s": percentile(latencies, 0.99),
        "requests": samples,
    }
    print(f"  requests        {len(samples)} attempted, {len(failures)} failed, "
          f"fail_ratio {report['fail_ratio']:.4f}, {elapsed:.2f} s of closed loop")
    for name in ("latency_p50_s", "latency_p90_s", "latency_p99_s"):
        value = metrics.get(name, report.get(name))
        if value is None:
            needed = 100 if name == "latency_p90_s" else 1000
            print(f"  {name:15s} n/a (needs >= {needed} samples, have {len(latencies)})")
        else:
            print(f"  {name:15s} {value:.4f} s (n={len(latencies)})")
    units = dict(END_TO_END)
    for name in ("throughput_rps", "peak_rss_mb", "setup_s"):
        print(f"  {name:15s} {metrics[name]:.4f} {units[name]}")
    return samples, failures, {k: (v, units[k]) for k, v in metrics.items()}, report


def merge_table(total, table):
    for name, row in table.items():
        into = total.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        for field, value in row.items():
            into[field] += value


def run_traced(client, workload, seed):
    requests = next(workloads.rounds(workload, seed))
    spans_dir = OUT / "spans"
    spans_dir.mkdir(exist_ok=True)
    table, counters, failures, samples = {}, {}, [], []
    walls = {"plain": 0.0, "traced": 0.0}
    for i, argv in enumerate(requests):
        path = spans_dir / f"{workload}-{seed}-{i}.json"
        for kind, spawn in (("plain", client.cli),
                            ("traced", lambda a: client.traced(a, path, i))):
            wall, rss, code, out = spawn(argv)
            walls[kind] += wall
            problem = client.problem(argv, code, out)
            samples.append((workloads.key(argv), wall, rss, problem is None))
            if problem:
                failures.append(f"{kind} {workloads.key(argv)}: {problem}")
        if code != 0:  # the traced request wrote no spans
            continue
        spans, request_counters = tracing.load(path)
        merge_table(table, tracing.reduce_spans(spans))
        for name, value in request_counters.items():
            combine = max if name == "scalars.max_bits" else (lambda a, b: a + b)
            counters[name] = combine(counters.get(name, 0), value)
    if not counters:
        raise SetupError("no traced request completed")
    plain_s, traced_s = walls["plain"], walls["traced"]
    values = tracing.layer_metrics(table, counters, traced_s - plain_s)
    print(f"  traced {len(requests)} requests: untraced {plain_s:.3f} s, "
          f"traced {traced_s:.3f} s, overhead {traced_s - plain_s:.3f} s")
    for name, unit, _ in tracing.PER_LAYER:
        if values[name]:
            print(f"  {name:32s} {values[name]:.6g} {unit}")
    metrics = {name: (values[name], unit) for name, unit, _ in tracing.PER_LAYER}
    return samples, failures, metrics, {"requests": len(requests), "untraced_s": plain_s,
                                        "traced_s": traced_s}


def run(args) -> int:
    workload = args.workload[0]
    client = Client(ROOT)
    try:
        environment, setup_times = setup(client, args.seed)
        print(f"perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("environment " + json.dumps(environment, sort_keys=True))
        if args.trace:
            samples, failures, metrics, report = run_traced(client, workload, args.seed)
        else:
            samples, failures, metrics, report = run_untraced(
                client, workload, args.seed, args.seconds, setup_times)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "report": report, "failures": failures,
              **result}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in args.workload:
        sets, environments = [], set()
        for base in (0, 1000):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(base + 1, base + args.steadiness + 1):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=False)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                    return 2
                result = json.loads(lines[-1])
                environments.update(line.split(" ", 1)[1] for line in lines
                                    if line.startswith("environment "))
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} failed requests")
                    ok = False
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        keys = {json.dumps({k: v for k, v in json.loads(e).items() if k != "seed"},
                           sort_keys=True) for e in environments}
        if len(keys) != 1:
            print(f"{workload}: runs saw different environments: {sorted(keys)}")
            return 2
        print(f"{workload}: 2 sets x {args.steadiness} seeds, {args.seconds} s each")
        for m in spec["end_to_end"]:
            first, second = sets[0][m["name"]], sets[1][m["name"]]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            spreads = (_spread(first), _spread(second), _spread(first + second))
            within = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(spreads[:2]) <= m["bound"])
            if m["name"] == "setup_s":
                note = " (its spread is not bounded)"
            elif spreads[2] >= m["bound"] / 3:
                note = ", pooled spread above bound/3"
            else:
                note = ""
            ok = ok and within
            print(f"  {m['name']:15s} median {m1:.4f} -> {m2:.4f} ({worse:+.3f} worse), "
                  f"spread {spreads[0]:.3f} / {spreads[1]:.3f}, pooled {spreads[2]:.3f}, "
                  f"bound {m['bound']}: {'ok' if within else 'OUT OF BOUND'}{note}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="check steadiness over two sets of RUNS seeds")
    args = parser.parse_args(argv)
    if args.steadiness:
        if args.steadiness < 2:
            parser.error("--steadiness needs at least 2 runs per set")
        return steadiness(args)
    if len(args.workload) != 1:
        parser.error("give exactly one --workload outside --steadiness")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
