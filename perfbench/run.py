"""Benchmark of the contracta command line, one fresh process per command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairwise --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

- ``pairwise``: the four characterized-versus-oracle pair scans at ct6;
- ``oracles``: five oracle partitions and the abundance check at ct7;
- ``scans``: regularity, unipotence, orthodoxy, idempotent products,
  refinement readings, one seeded ``analyze`` and six Rees quotients at n=7.

Each command runs as ``python -m contracta.cli ...`` with ``PYTHONPATH``
set to the checkout's ``src``, from an empty working directory, with
``CONTRACTA_MAX_N`` unset, under a timeout that counts as a failure.  Its
exit code and stdout are checked against a known answer.

``--trace 0`` runs every command once in the seeded order, then repeats
the slowest commands while they fit in ``--seconds``, and reports the
end-to-end metrics from per-command medians.  ``--trace 1`` runs every
command exactly once untraced and once through ``perfbench/tracer.py``,
requires the two stdouts to be byte-identical, and reports the per-layer
metrics; one pass each keeps the counts exact, so it ignores ``--seconds``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# setup_s is the median of this many imports at the start of a run plus
# one before each command.
SETUP_AT_START = 3
CMD_TIMEOUT_S = 120.0
# Every run must exit within 180 s; no command starts after this budget.
RUN_BUDGET_S = 165.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns child processes in fresh empty directories under ``work``."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.spawned = 0
        self.env = {k: v for k, v in os.environ.items() if k != "CONTRACTA_MAX_N"}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, argv: list[str], extra_env: dict | None = None) -> Sample:
        self.spawned += 1
        box = self.work / str(self.spawned)
        cwd = box / "cwd"
        cwd.mkdir(parents=True)
        env = dict(self.env, **(extra_env or {}))
        timeout = max(0.0, min(CMD_TIMEOUT_S, self.deadline - time.monotonic()))
        try:
            with open(box / "stdout", "wb") as out, open(box / "stderr", "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                timed_out = not poller.poll(timeout * 1000)
                wall = time.perf_counter() - t0
                if timed_out:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            except BaseException:
                # Interrupted while waiting: leave no child behind.
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                os.close(pidfd)
            # wait4 gives this child's own rusage, not the running total over
            # all children that RUSAGE_CHILDREN would.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return Sample(
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                returncode=proc.returncode,
                timed_out=timed_out,
                stdout=(box / "stdout").read_bytes(),
                stderr=(box / "stderr").read_bytes(),
            )
        finally:
            shutil.rmtree(box, ignore_errors=True)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def read_git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_import(runner: Runner) -> str:
    """Check that contracta.cli is imported from the checkout's src.

    The import also fills the bytecode cache before anything is timed.
    Returns numpy's version.
    """
    probe = (
        "import json, numpy, contracta.cli; "
        "print(json.dumps({'cli': contracta.cli.__file__, 'numpy': numpy.__version__}))"
    )
    s = runner.run([sys.executable, "-c", probe])
    if s.returncode != 0:
        fail("cannot import contracta.cli from the checkout:\n" + s.stderr.decode(errors="replace"))
    info = json.loads(s.stdout)
    if Path(info["cli"]).resolve() != (SRC / "contracta" / "cli.py").resolve():
        fail(f"contracta was imported from {info['cli']}, not from {SRC}")
    return info["numpy"]


def import_time(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing contracta.cli."""
    s = runner.run([sys.executable, "-c", "import contracta.cli"])
    if s.returncode != 0:
        fail("importing contracta.cli failed")
    return s.wall_s


def execute(runner: Runner, cmd: workloads.Command, traced_to: Path | None = None) -> tuple[Sample | None, list[str]]:
    """Run one command (skipped once the run budget is spent) and check it."""
    if time.monotonic() >= runner.deadline:
        return None, ["not started: run budget spent"]
    if traced_to is None:
        s = runner.run([sys.executable, "-m", "contracta.cli", *cmd.argv])
    else:
        s = runner.run(
            [sys.executable, str(HERE / "tracer.py"), *cmd.argv],
            {"PERFBENCH_TRACE_FILE": str(traced_to)},
        )
    if s.timed_out:
        return s, [f"timed out after {s.wall_s:.1f} s"]
    errors = workloads.check_output(cmd, s.returncode, s.stdout)
    if errors and s.stderr:
        errors.append("stderr tail: " + s.stderr.decode(errors="replace")[-400:])
    return s, errors


def report_errors(cmd: workloads.Command, errors: list[str]) -> None:
    for e in errors:
        print(f"perfbench: FAILED {cmd.label}: {e}", file=sys.stderr)


def run_untraced(runner: Runner, cmds, seconds: float) -> tuple[dict, int, int]:
    samples: dict[int, list[Sample]] = {i: [] for i in range(len(cmds))}
    setup = [import_time(runner) for _ in range(SETUP_AT_START)]
    attempted = failed = 0
    stop = min(time.monotonic() + seconds, runner.deadline)

    def run(i: int) -> None:
        nonlocal attempted, failed
        # One import before each command spreads the setup_s samples over
        # the whole run.
        setup.append(import_time(runner))
        s, errors = execute(runner, cmds[i])
        attempted += 1
        if errors:
            failed += 1
            report_errors(cmds[i], errors)
        if s is not None:
            samples[i].append(s)

    for i in range(len(cmds)):
        run(i)
    # Repeats go to the slowest commands first: they carry most of wall_s,
    # so extra samples steady it most.  A command repeats only if it should
    # end by the stop time, so that a run lasts about --seconds.
    order = sorted((i for i in samples if samples[i]), key=lambda i: -samples[i][0].wall_s)
    repeated = True
    while repeated:
        repeated = False
        for i in order:
            if time.monotonic() + setup[-1] + samples[i][0].wall_s <= stop:
                run(i)
                repeated = True
    walls, cpus, rss = [], [], []
    for i, cmd in enumerate(cmds):
        if samples[i]:
            walls.append(statistics.median(x.wall_s for x in samples[i]))
            cpus.append(statistics.median(x.cpu_s for x in samples[i]))
            rss.append(max(x.rss_mb for x in samples[i]))
            print(f"# {walls[-1]:8.3f} s wall {cpus[-1]:8.3f} s cpu {rss[-1]:7.1f} MB  x{len(samples[i])}  {cmd.label}")
    if not walls:
        fail("no command completed")
    # The slowest command rests on one or two processes, too few samples to
    # be steady on a shared host, so it is printed but not gated.
    print(f"# slowest_cmd_s = {max(walls)} s")
    metrics = {
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, attempted, failed


def run_traced(runner: Runner, cmds) -> tuple[dict, int, int]:
    attempted = failed = 0
    untraced_wall = traced_wall = 0.0
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    stdout_bytes = disagreeing = 0
    plain: dict[int, bytes] = {}
    for i, cmd in enumerate(cmds):
        s, errors = execute(runner, cmd)
        attempted += 1
        if errors:
            failed += 1
            report_errors(cmd, errors)
        if s is not None:
            untraced_wall += s.wall_s
            plain[i] = s.stdout
    for i, cmd in enumerate(cmds):
        trace_file = runner.work / f"trace-{i}.json"
        try:
            s, errors = execute(runner, cmd, trace_file)
            if s is not None and not s.timed_out:
                if s.stdout != plain.get(i):
                    errors.append("traced stdout differs from untraced stdout")
                try:
                    summary = json.loads(trace_file.read_text())
                except (OSError, ValueError):
                    errors.append("tracer wrote no span summary")
                    summary = {"spans": {}, "counters": {}}
                for name, v in summary["spans"].items():
                    acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    for key in acc:
                        acc[key] += v[key]
                for name, v in summary["counters"].items():
                    counters[name] = counters.get(name, 0) + v
                traced_wall += s.wall_s
                stdout_bytes += len(s.stdout)
                disagreeing += workloads.pairs_disagreeing(s.stdout)
        finally:
            trace_file.unlink(missing_ok=True)
        attempted += 1
        if errors:
            failed += 1
            report_errors(cmd, errors)

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = counters.get("partitions.crt_cache.hits", 0)
    misses = counters.get("partitions.crt_cache.misses", 0)
    metrics = {
        "relations.char.calls": (span("relations.char", "calls"), "count"),
        "relations.char.self_s": (span("relations.char", "self_s"), "s"),
        "checks.self_s": (span("checks.run_check", "self_s"), "s"),
        "checks.pairs_disagreeing": (disagreeing, "count"),
        "partitions.kernel.calls": (span("partitions.kernel", "calls"), "count"),
        "partitions.kernel.s": (span("partitions.kernel", "total_s"), "s"),
        "partitions.kernel.distinct_ratio": (
            ratio(counters.get("partitions.kernel.distinct", 0), span("partitions.kernel", "calls")),
            "ratio",
        ),
        "partitions.refinement.s": (span("partitions.refinement", "total_s"), "s"),
        "partitions.crt_cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "relations.green_oracle.s": (span("relations.green_oracle", "total_s"), "s"),
        "relations.starred_partition.s": (span("relations.starred_partition", "total_s"), "s"),
        "relations.regular_char.s": (span("relations.regular_char", "total_s"), "s"),
        "semigroups.enumerate.self_s": (span("semigroups.enumerate", "self_s"), "s"),
        "semigroups.enumerate.calls": (span("semigroups.enumerate", "calls"), "count"),
        "semigroups.table_build.s": (span("semigroups.table_build", "total_s"), "s"),
        "semigroups.table_bytes": (counters.get("semigroups.table_bytes", 0), "B"),
        "semigroups.closure.self_s": (span("semigroups.closure", "self_s"), "s"),
        "semigroups.regular_elements.s": (span("semigroups.regular_elements", "total_s"), "s"),
        "semigroups.carriers_built": (span("semigroups.carrier", "calls"), "count"),
        "maps.compose.calls": (span("maps.compose", "calls"), "count"),
        "maps.compose.s": (span("maps.compose", "total_s"), "s"),
        "rees.quotient.s": (span("rees.quotient", "total_s"), "s"),
        "rees.verify_inverse.s": (span("rees.verify_inverse", "total_s"), "s"),
        "rees.carrier_size": (counters.get("rees.carrier_size", 0), "count"),
        "cli.self_s": (span("cli.main", "self_s"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "B"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="contracta CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that children are killed and the work
    # directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "contracta" / "cli.py").is_file():
        fail(f"no contracta sources under {SRC}; run from the root of a checkout")

    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    runner = Runner(work, deadline=time.monotonic() + RUN_BUDGET_S)
    try:
        numpy_version = check_import(runner)
        print(
            f"# git {read_git_sha()}  python {platform.python_version()}  numpy {numpy_version}  "
            f"nproc {len(os.sched_getaffinity(0))}  workload {args.workload}  seed {args.seed}"
        )
        cmds = workloads.commands(args.workload, args.seed)
        if args.trace:
            metrics, attempted, failed = run_traced(runner, cmds)
        else:
            metrics, attempted, failed = run_untraced(runner, cmds, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"ops_failed_frac = {failed / attempted} fraction")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
