"""End-to-end benchmark of ``qxform run``.

    python3 perfbench/run.py --workload nmr --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload's configs run as real
``qxform run`` child processes, one at a time (a closed loop with one
client), with BLAS and OpenMP pinned to one thread and ``--jobs 1``.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
once) and reports the end-to-end metrics: median wall time per pass
(``run_s``), median import time (``setup_s``) and median peak resident memory
(``peak_rss_mb``).  Both times are scaled to a reference machine speed,
measured while they run by probe.py on the child's CPU.
``--trace 1`` runs each config once untraced and once with
every public qxform function wrapped (see tracer.py) and reports per-layer
metrics from the traced run.  Every run passes the output-correctness gate in
workloads.py; a failed, crashed or timed-out run is counted in ``failed``
and never stops the benchmark.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment record and every metric by name with its unit.
"""

from __future__ import annotations

import os

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # before numpy is loaded in this process too

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, check_result, config_text  # noqa: E402

# Import-only launches per run, half before and half after the timed passes
# so that they sample two stretches of the machine's load; setup_s is the
# median over these and the config runs.
SETUP_LAUNCHES = 8
# Every child is killed at this many seconds after the benchmark started, so
# the benchmark ends within its 180-second limit whatever the program does.
DEADLINE_S = 165.0

# Every child and the speed probe run on the first CPU this process may use:
# the probe tracks the speed of the CPU the child runs on, which a probe on
# another CPU follows less closely.
CHILD_CPUS = {min(os.sched_getaffinity(0))}


def clock() -> float:
    # CLOCK_MONOTONIC is one clock for all processes of the machine, so the
    # child's import stamp can be compared with the launch time taken here.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


@dataclass
class Child:
    start: float
    wall_s: float
    setup_s: float | None
    rss_kb: int
    error: str | None
    record: dict | None = None
    output_bytes: int = 0


def launch(args: list, work: Path, tag: str, deadline: float, trace_prefix="-", run_id="-") -> Child:
    """Run ``qxform ARGS`` in a child process and time it from launch to exit."""
    stamp = work / f"{tag}.stamp"
    cmd = [sys.executable, str(HERE / "launch.py"), str(stamp), trace_prefix, run_id, *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_VARS)
    with open(work / f"{tag}.out", "w") as out, open(work / f"{tag}.err", "w") as err:
        t0 = clock()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(0, CHILD_CPUS)
        )
        timed_out = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - t0))
            finally:
                os.close(pidfd)
            if not ready:
                timed_out = True
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (work / f"{tag}.err").read_text()
    try:
        setup = int(stamp.read_text()) / 1e9 - t0
    except (OSError, ValueError):
        setup = None
    error = None
    if timed_out:
        error = f"timed out after {wall:.1f} s"
    elif proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    elif "Traceback" in stderr:
        error = "traceback on stderr"
    if error and stderr.strip():
        error += ": " + stderr.strip().splitlines()[-1]
    return Child(t0, wall, setup, usage.ru_maxrss, error)


def run_config(name: str, seed: int, work: Path, tag: str, deadline: float, trace_prefix="-") -> Child:
    """One ``qxform run`` of a generated config, with the correctness gate applied."""
    out_dir = work / f"{tag}.result"
    args = ["run", "--config", str(work / f"{name}.json"), "--out", str(out_dir), "--jobs", "1"]
    child = launch(args, work, tag, deadline, trace_prefix, run_id=f"{name}-seed{seed}-{tag}")
    if child.error is None:
        try:
            child.record = json.loads((out_dir / "result.json").read_text())
        except (OSError, ValueError) as exc:
            child.error = f"unreadable result.json: {exc}"
        else:
            child.error = check_result(name, seed, child.record)
            child.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    shutil.rmtree(out_dir, ignore_errors=True)
    return child


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "child_cpus": sorted(CHILD_CPUS),
        "git_commit": git_commit(),
    }


class Probe:
    """probe.py running on CHILD_CPUS for as long as the ``with`` block lasts."""

    def __init__(self, path: Path, deadline: float):
        self.path = path
        self.cmd = [sys.executable, str(HERE / "probe.py"), str(path), repr(deadline)]

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(self.cmd, preexec_fn=lambda: os.sched_setaffinity(0, CHILD_CPUS))
        try:
            while not self.samples():  # numpy is still loading
                if self.proc.poll() is not None:
                    raise RuntimeError(f"speed probe exited with code {self.proc.returncode}")
                time.sleep(0.05)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()

    def samples(self) -> list:
        """(end time, CPU time) of every complete probe call so far."""
        try:
            lines = self.path.read_text().splitlines(keepends=True)
        except FileNotFoundError:
            return []
        return [tuple(map(float, line.split())) for line in lines if line.endswith("\n")]


def speed_factor(samples: list, child: Child) -> float:
    """How fast the machine ran while ``child`` ran, relative to the reference:
    REFERENCE_S times the mean of 1 / CPU time over the probe calls that ended
    in that interval (over all calls, if none did).

    The calls are spread evenly in time, so this is the time average of the
    machine's speed, which is what a wall time accumulates; a median would
    follow only the speed that held for most of a long child.
    """
    end = child.start + child.wall_s
    during = [d for t, d in samples if child.start <= t <= end] or [d for _, d in samples]
    return REFERENCE_S * statistics.fmean(1 / d for d in during)


def timed_run(configs, seed, seconds, work, deadline):
    with Probe(work / "probe.txt", deadline) as probe:
        setup = [launch(["version"], work, f"setup{k}", deadline) for k in range(SETUP_LAUNCHES // 2)]
        passes = []
        start = clock()
        while True:
            t0 = clock()
            runs = [run_config(name, seed, work, f"pass{len(passes)}-{name}", deadline) for name in configs]
            passes.append(runs)
            now = clock()
            if now - start >= seconds or now + (now - t0) >= deadline:
                break
        setup += [launch(["version"], work, f"setup{k}", deadline) for k in range(len(setup), SETUP_LAUNCHES)]
        samples = probe.samples()
    children = setup + [c for runs in passes for c in runs]
    speed = {id(c): speed_factor(samples, c) for c in children}
    stamped = [c for c in children if c.setup_s is not None]
    metrics = {
        "run_s": statistics.median(sum(c.wall_s * speed[id(c)] for c in runs) for runs in passes),
        "setup_s": statistics.median(c.setup_s * speed[id(c)] for c in stamped) if stamped else float(DEADLINE_S),
        "peak_rss_mb": statistics.median(max(c.rss_kb for c in runs) / 1024 for runs in passes),
    }
    print(f"samples: {len(passes)} passes of {len(configs)} config(s), {len(stamped)} setup stamps, "
          f"{len(samples)} probe calls")
    print(f"unscaled: run_s {statistics.median(sum(c.wall_s for c in runs) for runs in passes):.6g} s, "
          f"setup_s {statistics.median(c.setup_s for c in stamped) if stamped else float('nan'):.6g} s, "
          f"speed factor {statistics.median(speed.values()):.4f}")
    return children, metrics


def traced_run(configs, seed, work, deadline):
    from layers import SpanSet, raw_counts, workload_metrics

    children, raws, pairs = [], [], []
    output_bytes = 0
    with Probe(work / "probe.txt", deadline) as probe:
        for name in configs:
            plain = run_config(name, seed, work, f"plain-{name}", deadline)
            prefix = str(work / f"spans-{name}")
            traced = run_config(name, seed, work, f"traced-{name}", deadline, trace_prefix=prefix)
            if traced.error is None and plain.error is None and any(
                traced.record[key] != plain.record[key] for key in ("metrics", "verdicts")
            ):
                traced.error = "traced result.json differs from the untraced run's"
            children += [plain, traced]
            pairs.append((plain, traced))
            output_bytes += plain.output_bytes
            if traced.error is None:
                raws.append(raw_counts(SpanSet(prefix)))
        samples = probe.samples()
    # Overhead compares two runs made at different times, so both are scaled
    # to the reference speed; span times, like the traced wall, are as measured.
    overhead = sum(t.wall_s * speed_factor(samples, t) - p.wall_s * speed_factor(samples, p) for p, t in pairs)
    traced_wall = sum(t.wall_s for _, t in pairs)
    return children, workload_metrics(raws, traced_wall, overhead, output_bytes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()
    configs = WORKLOADS[args.workload]
    missing = [p for p in [ROOT / "src" / "qxform" / "cli.py", ROOT / "BENCHMARK.json"]
               + [ROOT / "configs" / f"{n}.json" for n in configs] if not p.exists()]
    if missing:
        print(f"error: not a qxform checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    work = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name in configs:
            (work / f"{name}.json").write_text(config_text(ROOT, name, args.seed))
        deadline = started + DEADLINE_S
        warm = launch(["version"], work, "warmup", deadline)  # fills __pycache__ and the page cache
        if args.trace:
            children, metrics = traced_run(configs, args.seed, work, deadline)
        else:
            children, metrics = timed_run(configs, args.seed, args.seconds, work, deadline)
        children.append(warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"computed metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    failed = [c for c in children if c.error]
    for c in failed:
        print(f"failed run: {c.error}", file=sys.stderr)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"{'failed_frac':40s} {len(failed) / len(children):.6g} frac ({len(failed)} of {len(children)} runs)")
    out = {}
    for m in declared:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(children), "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
