#!/usr/bin/env python3
"""Benchmark for repfn: seeded workloads against the library and its CLI.

Run from the repository root (stdlib only; repfn is imported from ./src):

    python3 perfbench/run.py --workload bign_count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run is one closed-loop client: the next operation starts when the last
one returns.  Operations come from the workload's seeded passes (see
workloads.py, which also says why each workload exists); their digest is
printed so two commits can be shown to have run identical inputs.  The loop
walks the passes, each in a seeded order, and stops at the first end of a
pass after --seconds with at least 100 operations done: every cell then ran
equally often, so the mix of costs is the same from run to run, and p90
always has ten samples beyond it.

Times are reported at a reference machine speed.  On a shared machine other
tenants slow every instruction by up to ~2x, in phases that outlast a run,
and each run sees a different mix.  Between operations the loop times a
fixed probe: a big-integer loop in process for the library workloads, a bare
interpreter start (`python -c pass`) where the operations are child
processes.  Every reported time is the measured time multiplied by the
probe's reference time over its mean time in the same stretch, and ops_per_s
is divided by that factor; setup_s uses the interpreter-start probe.  The raw
values and the factors are printed next to each metric.  The run and its
children are pinned to one CPU so that the probe sees the speed the
operations see.  Peak RSS is reported as measured.

Every result is checked after each pass, with the clock stopped, so results
need not pile up in memory; a wrong result, an unexpected exception or a
wrong exit code counts as a failed operation.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with timing wrappers installed around each layer
(tracing.py), then reports per-layer metrics per operation plus the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_OPS = 100  # p90 needs at least ten samples beyond it
MAX_LOOP_S = 120
SETUP_REPEATS = 7
CLI_REPEATS = 5
ORACLE_SAMPLES = 6
OUT_DIR = ".perfbench_out"

PROBE_N = 10**40 + 12345


def probe_loop() -> float:
    """Time a fixed big-integer loop, about 1 ms."""
    t0 = time.perf_counter()
    total = 0
    for lo in range(1500):
        hi = 3 * lo + 1
        total += max(lo, (PROBE_N - hi) // 7) - min(hi, PROBE_N // (lo + 5))
    return time.perf_counter() - t0


def probe_child() -> float:
    """Time a bare interpreter start, about 50-100 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=MAX_LOOP_S)
    return time.perf_counter() - t0


# Probe kind -> (probe, its time at the reference speed, seconds between probes).
PROBES = {"loop": (probe_loop, 0.001, 0.1), "child": (probe_child, 0.05, 0.5)}


class SpeedMeter:
    """Probe samples taken between the measurements of one stretch of a run."""

    def __init__(self, kind: str) -> None:
        self.probe, self.reference, self.every = PROBES[kind]
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        self.samples += [self.probe() for _ in range(count)]

    def factor(self) -> float:
        """Multiply a measured time by this to get it at the reference speed."""
        return self.reference / statistics.mean(self.samples)


def load_repfn(root: Path):
    """Import repfn from the checkout's own sources, never from elsewhere."""
    src = root / "src"
    if not (src / "repfn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repfn sources under {src}")
    sys.path.insert(0, str(src))
    import repfn

    if Path(repfn.__file__).resolve().parent != (src / "repfn").resolve():
        sys.exit(f"perfbench: imported repfn from {repfn.__file__}, not {src}")
    return repfn


class Raised:
    """An operation that raised instead of returning."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def op_digest(passes) -> str:
    return hashlib.sha256(json.dumps(passes, separators=(",", ":")).encode()).hexdigest()[:16]


class Samples:
    """What a timed loop did: (pass, cell) keys, wall times, failures, speed."""

    def __init__(self, probe_kind: str) -> None:
        self.keys: list[tuple[int, int]] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.speed = SpeedMeter(probe_kind)
        self.busy = 0.0  # loop wall time minus probes and checks

    def throughput(self) -> float:
        """Operations per second at the reference speed."""
        return len(self.latencies) / self.busy / self.speed.factor()


def timed_loop(env, passes, order, seconds: float, probe_kind: str, tracer=None) -> Samples:
    """Closed loop over `order` (cycling), whole passes, for `seconds` and MIN_OPS."""
    from workloads import execute

    out = Samples(probe_kind)
    batch = []
    paused = 0.0  # time spent checking results, off the clock
    start = last_probe = time.perf_counter()
    while True:
        key = order[len(out.keys) % len(order)]
        rec = tracer.begin_op(len(out.keys)) if tracer else None
        t0 = time.perf_counter()
        try:
            res = execute(env, passes[key[0]][key[1]])
        except Exception as exc:  # counted as a failed operation
            res = Raised(exc)
        out.latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_op(rec)
        out.keys.append(key)
        batch.append((key, res))
        if time.perf_counter() - last_probe >= out.speed.every:
            out.speed.sample()
            last_probe = time.perf_counter()
        if len(batch) == len(passes[0]):
            t0 = time.perf_counter()
            with tracer.paused() if tracer else contextlib.nullcontext():
                out.failures += check_batch(env, passes, batch)
            batch.clear()
            paused += time.perf_counter() - t0
            elapsed = time.perf_counter() - start - paused
            if elapsed >= seconds and len(out.keys) >= MIN_OPS:
                break
        if time.perf_counter() - start - paused >= MAX_LOOP_S:
            break
    out.busy = time.perf_counter() - start - paused - sum(out.speed.samples)
    with tracer.paused() if tracer else contextlib.nullcontext():
        out.failures += check_batch(env, passes, batch)  # left over only at MAX_LOOP_S
    if not out.speed.samples:
        out.speed.sample()
    if len(out.keys) < MIN_OPS:
        sys.exit(f"perfbench: only {len(out.keys)} ops in {MAX_LOOP_S} s; refusing to "
                 f"report p90 from fewer than {MIN_OPS}")
    return out


def check_batch(env, passes, batch) -> list[str]:
    """One line per failed operation among (key, result) pairs."""
    from workloads import check

    failures = []
    for (p, c), res in batch:
        reason = res.text if isinstance(res, Raised) else check(env, passes[p][c], res)
        if reason:
            failures.append(f"pass {p} cell {c} {passes[p][c][:2]}: {reason}")
    return failures


def oracle_failures(env, passes, samples: Samples, rng) -> list[str]:
    """Recheck a few window points with repfn's O(n) oracle; one line per failed op."""
    from workloads import check_with_oracle

    failures = []
    for p, c in rng.sample(sorted(set(samples.keys)), ORACLE_SAMPLES):
        reason = check_with_oracle(env, passes[p][c], rng)
        if reason:
            failures += [f"pass {p} cell {c} {passes[p][c][:2]}: {reason}"] * samples.keys.count((p, c))
    return failures


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(root: Path, workload: str, seed: int) -> tuple[list[float], SpeedMeter]:
    """Wall times of fresh interpreters that import, generate and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times, speed = [], SpeedMeter("child")
    for _ in range(SETUP_REPEATS):
        speed.sample(2)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=MAX_LOOP_S)
        times.append(time.perf_counter() - t0)
    return times, speed


def cli_layer_metrics(api, env, seed: int) -> dict:
    """Interpreter start, import of repfn.cli, and in-process main() per subcommand.

    cli.interpreter_ms is the interpreter-start probe itself, so it is
    reported raw; the import time is scaled by it and main() by the loop probe.
    """
    import repfn.cli as cli
    from workloads import CLI_SUBCOMMANDS, cli_argv, gen_cli

    def median_ms(run, speed: SpeedMeter) -> float:
        times = []
        for _ in range(CLI_REPEATS):
            speed.sample()
            t0 = time.perf_counter()
            run()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    def in_process(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                sys.exit(f"perfbench: in-process `{argv[0]}` exited {code}")
        return run

    child = SpeedMeter("child")
    child.sample(CLI_REPEATS)
    bare = statistics.median(child.samples) * 1e3
    imported = median_ms(lambda: subprocess.run(
        [sys.executable, "-c", "import repfn.cli"], env=env.child_env, check=True,
        timeout=MAX_LOOP_S), child)
    m = {"cli.interpreter_ms": (bare, "ms"),
         "cli.import_ms": ((imported - bare) * child.factor(), "ms")}
    loop = SpeedMeter("loop")
    passes, _ = gen_cli(random.Random(f"cli_oneshot/{seed}"))
    raw = {}
    for sub in CLI_SUBCOMMANDS:
        _, _, p = next(op for op in passes[0] if op[1] == sub)
        raw[sub] = median_ms(in_process(cli_argv(env, sub, p)), loop)
    m.update({f"cli.main_ms.{sub}": (ms * loop.factor(), "ms") for sub, ms in raw.items()})
    return m


def run_workload(args, root: Path, api) -> dict:
    from workloads import WORKLOADS, Env, execute

    wl = WORKLOADS[args.workload]
    passes, warm = wl.generate(random.Random(f"{wl.name}/{args.seed}"))
    work_dir = root / OUT_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    env = Env(api, root, work_dir)
    try:
        if args.setup_only:
            execute(env, warm)
            return {}
        return measure(args, root, api, wl, passes, warm, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, root, api, wl, passes, warm, env) -> dict:
    from selftest import run as selftest
    from workloads import execute

    cells = len(passes[0])
    print(f"workload {wl.name}  seed {args.seed}  inputs digest {op_digest(passes)} "
          f"({len(passes)} passes x {cells} cells)")
    print(f"  why: {wl.why}")
    summary, problems = selftest(api, env, passes[0], args.seed)
    print(f"  self-test: {summary}: {'ok' if not problems else 'FAILED'}")
    for line in problems[:10]:
        print(f"    {line}")
    execute(env, warm)
    rng = random.Random(f"order/{wl.name}/{args.seed}")
    order = [(p, c) for p in range(len(passes)) for c in rng.sample(range(cells), cells)]

    if not args.trace:
        run = timed_loop(env, passes, order, args.seconds, wl.probe)
        who = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
        rss_mib = resource.getrusage(who).ru_maxrss / 1024
        reasons = run.failures + oracle_failures(env, passes, run, rng)
        setups, setup_speed = setup_seconds(root, wl.name, args.seed)
        n, f, fs = len(run.latencies), run.speed.factor(), setup_speed.factor()
        p50, p90 = statistics.median(run.latencies), percentile(run.latencies, 90)
        metrics = {
            "ops_per_s": (run.throughput(), "ops/s"),
            "latency_p50_ms": (p50 * 1e3 * f, "ms"),
            "latency_p90_ms": (p90 * 1e3 * f, "ms"),
            "setup_s": (statistics.median(setups) * fs, "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        notes = {
            "ops_per_s": f"{n} ops in {run.busy:.2f} s, one closed-loop client; "
                         f"raw {n / run.busy:.4g} ops/s, speed factor {f:.3f}",
            "latency_p50_ms": f"n={n} samples; raw {p50 * 1e3:.4g} ms",
            "latency_p90_ms": f"n={n} samples, {n - int(0.9 * n)} beyond; raw {p90 * 1e3:.4g} ms",
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters; raw "
                       f"{statistics.median(setups):.4g} s, speed factor {fs:.3f}",
            "peak_rss_mib": "ru_maxrss of " + ("the CLI children" if wl.name == "cli_oneshot"
                                               else "this process"),
        }
    else:
        from tracing import Tracer, summarize

        plain = timed_loop(env, passes, order, args.seconds / 2, wl.probe)
        tracer = Tracer()
        tracer.install(api)
        try:
            traced = timed_loop(env, passes, order, args.seconds / 2, wl.probe, tracer)
        finally:
            tracer.uninstall()
        reasons = plain.failures + traced.failures + oracle_failures(env, passes, traced, rng)
        n = len(plain.keys) + len(traced.keys)
        metrics = summarize(tracer, len(traced.keys), traced.speed.factor())
        metrics.update(cli_layer_metrics(api, env, args.seed))
        metrics["trace.ops"] = (len(traced.keys), "count")
        metrics["trace.overhead_ratio"] = (traced.throughput() / plain.throughput(), "ratio")
        spans_path = root / OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        notes = {"trace.ops": f"{len(plain.keys)} untraced + {len(traced.keys)} traced ops; "
                              f"spans in {spans_path.relative_to(root)}"}

    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:14.6g} {unit}{note}")
    failed = len(reasons)
    print(f"  {'failed_ratio':48s} {failed / n:14.6g} fraction  ({failed}/{n} ops)")
    for line in reasons[:10]:
        print(f"    {line}")
    return {
        "correct": not problems and failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args, root: Path) -> dict:
    """Each workload in its own child process; print a combined table."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} failed (exit {proc.returncode}): {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    return combined


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        result = run_all(args, root)
    else:
        result = run_workload(args, root, load_repfn(root))
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
