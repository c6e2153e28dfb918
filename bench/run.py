#!/usr/bin/env python3
"""tourkit benchmark: one workload per process, one client, closed loop.

    python3 bench/run.py --workload reduction --seed 0 --seconds 10 --trace 0

Set-up writes the workload's seeded input files; the timed loop then
calls ``tourkit.cli.main`` on them in-process, one job at a time, each
job starting when the previous one returns. The loop repeats the
workload's whole job list, pass after pass, until ``--seconds`` of job
CPU time are done. Outputs are checked after the loop, outside the timed
region, against independent oracles and, for the default seed, against
the digests in ``digests.json``.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` one pass is replayed under the
span recorder and the JSON carries the per-layer metrics and the tracing
overhead. Metric names come from BENCHMARK.json.
See DESIGN.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# every job of the timed loop is timed by the median of at least this
# many runs, so one slow stretch of the host moves a job's time less
MIN_PASSES = 2
# Jobs and set-up are timed in CPU seconds of this process: the host
# shares its cores, so wall time also counts other tenants' work. CPU
# time still drifts, within seconds and over minutes: one fixed pass
# took from 5.2 to 7.6 s. So times are reported in reference seconds:
# CPU time scaled by the mean CPU time of a fixed reference computation,
# sampled all through the stretch timed (set-up, timed loop, traced
# replay), as the time the work takes on a host where that computation
# takes REFERENCE_S. One sample is as noisy as a job; the mean of a
# stretch's samples tracks its mean speed, and halved the spread of pass
# times in probes.
REFERENCE_ITEMS = 25_000
REFERENCE_S = 0.025
# job CPU time between two reference samples
CALIBRATE_EVERY_S = 0.75
clock = process_time


@dataclass
class Record:
    job: object
    code: object
    stdout: str
    stderr: str
    cpu: float
    artifacts: dict
    data: object = None
    digest: str = ""
    failed: bool = False


def import_tourkit():
    """Import the package from this checkout's ``src``, never elsewhere."""
    # one thread, like the loop: a BLAS thread pool would add its CPU
    # time to the job times
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tourkit
    import tourkit.cli

    if Path(tourkit.__file__).resolve().parent != src / "tourkit":
        raise SystemExit(f"tourkit imported from {tourkit.__file__}, not {src}")
    return tourkit.cli


def execute(cli_module, job, first: dict) -> Record:
    out, err = io.StringIO(), io.StringIO()
    data = None
    try:
        argv = job.argv(first) if callable(job.argv) else job.argv
    except Exception:
        return Record(job, None, "", traceback.format_exc(), 0.0, {})
    start = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job.run is not None:
                code, text, data = job.run()
                out.write(text)
            else:
                code = cli_module.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    cpu = clock() - start
    artifacts = {}
    for path in job.artifacts:
        try:
            artifacts[path] = Path(path).read_bytes()
        except OSError:
            pass
    return Record(job, code, out.getvalue(), err.getvalue(), cpu, artifacts, data)


def reference_cpu(samples: list) -> None:
    """Append to ``samples`` the CPU seconds of the reference computation:
    a fixed pure-Python mix of the loops, tuple keys, dict and set
    operations tourkit's searches are made of. The median of three runs."""
    times = []
    for _ in range(3):
        start = clock()
        seen: dict = {}
        members = set()
        for k in range(REFERENCE_ITEMS):
            key = (k & 255, (k >> 8) & 15)
            seen[key] = seen.get(key, 0) + 1
            if k % 3:
                members.add(frozenset((k & 63, k & 7)))
        times.append(clock() - start)
    samples.append(statistics.median(times))


def run_jobs(cli_module, jobs, seconds: float, first: dict, passes: int = 1,
             samples: list | None = None) -> list[Record]:
    """Closed loop of whole passes through the job list, ending after the
    first pass that brings the job time to ``seconds``, and after no fewer
    than ``passes`` passes.

    With ``samples``, the reference computation runs whenever
    ``CALIBRATE_EVERY_S`` of job time has passed since its last run, and
    after the last job.
    """
    records = []
    elapsed = 0.0
    since = 0.0
    while len(records) < passes * len(jobs) or elapsed < seconds:
        for job in jobs:
            rec = execute(cli_module, job, first)
            first.setdefault(job.id, rec)
            records.append(rec)
            elapsed += rec.cpu
            since += rec.cpu
            if samples is not None and since >= CALIBRATE_EVERY_S:
                reference_cpu(samples)
                since = 0.0
    if samples is not None and since:
        reference_cpu(samples)
    return records


def job_digest(rec: Record, workdir: Path) -> str:
    """Hash of the exit code, sorted key: value lines and written files."""
    h = hashlib.sha256(f"{rec.job.id}\n{rec.code}\n".encode())
    lines = rec.stdout.splitlines()
    section = lines[lines.index("---") + 1 :] if "---" in lines else lines
    for line in sorted(section):
        h.update(line.replace(str(workdir), "WORKDIR").encode() + b"\n")
    for path in sorted(rec.artifacts):
        h.update(Path(path).name.encode() + b"\n")
        h.update(hashlib.sha256(rec.artifacts[path]).digest())
    return h.hexdigest()[:16]


def same_output(a: Record, b: Record) -> bool:
    return (a.code, a.stdout, a.artifacts) == (b.code, b.stdout, b.artifacts)


def median_times(records, key=lambda rec: rec.cpu) -> dict:
    """Each job's median time over its runs, CPU time by default."""
    times: dict = {}
    for rec in records:
        times.setdefault(rec.job.id, []).append(key(rec))
    return {job_id: statistics.median(t) for job_id, t in times.items()}


def failure(rec: Record, first: dict, expected_digest, reasons: dict) -> str:
    """Why a job failed, or an empty string."""
    if rec.code != rec.job.expect:
        return f"exit code {rec.code}, expected {rec.job.expect}: {rec.stderr.strip()[-300:]}"
    if "audit failure:" in rec.stderr:
        return rec.stderr.strip()[-300:]
    one = first[rec.job.id]
    if rec is not one:
        return reasons[rec.job.id] if same_output(rec, one) else "output differs from the job's first run"
    if expected_digest is not None and rec.digest != expected_digest:
        return f"digest {rec.digest} differs from recorded {expected_digest}"
    try:
        rec.job.check(rec.job, rec, first)
    except Exception as exc:
        return f"check failed: {type(exc).__name__}: {exc}"
    return ""


def check_records(records, first, workdir, recorded) -> list[str]:
    """Check every record; a rerun with the first run's output shares its verdict."""
    failures = []
    reasons: dict = {}
    for rec in records:
        if rec is first[rec.job.id]:
            rec.digest = job_digest(rec, workdir)
        expected = None
        if recorded is not None:
            # on the default seed a job without a recorded digest fails
            expected = recorded.get(rec.job.id, "(none)")
        why = failure(rec, first, expected, reasons)
        reasons.setdefault(rec.job.id, why)
        rec.failed = bool(why)
        if why:
            failures.append(f"{rec.job.id}: {why}")
    return failures


def quantile(values, q: int) -> float:
    """The q-th percentile by the inclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, jobs, setup_s: float, rss_kb: int, scale: float) -> dict:
    """Timings from each job's median CPU time over the passes of the
    run, in reference seconds (CPU seconds times ``scale``).

    The host's speed drifts by tens of percent over seconds, so each job
    is timed once per pass and its median is used; a job counts towards
    ``jobs_per_s`` only when every run of it passed its checks.
    """
    median = {i: t * scale for i, t in median_times(records).items()}
    passed: dict = {}
    for rec in records:
        passed[rec.job.id] = passed.get(rec.job.id, True) and not rec.failed
    instances: dict = {}
    for job in jobs:
        if job.instance is not None:
            instances.setdefault(job.instance, []).append(job.id)
    instance_s = [
        sum(median[i] for i in ids)
        for ids in instances.values()
        if all(i in median for i in ids)
    ]
    times = list(median.values())
    return {
        "jobs_per_s": sum(passed.values()) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": quantile(times, 90),
        "instance_s": statistics.median(instance_s),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def traced_replay(cli_module, jobs, records, first, wanted, failures, scale):
    """Replay one pass under the span recorder.

    Returns the per-layer metrics plus the tracing overhead: the replay's
    job time minus the same jobs' median untraced time, each in reference
    seconds of its own stretch (``scale`` for the untraced loop), and the
    recorder, whose spans the caller writes out.
    """
    import tracing

    samples: list = []
    reference_cpu(samples)
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        traced = run_jobs(cli_module, jobs, 0.0, {}, samples=samples)
    finally:
        recorder.uninstall()
    for rec in traced:
        if not same_output(rec, first[rec.job.id]):
            failures.append(f"{rec.job.id}: traced replay output differs")
    # each replayed job against the median of its untraced runs; the
    # first untraced pass also pays for warming up
    median = median_times(records)
    untraced_s = sum(median[rec.job.id] for rec in traced) * scale
    traced_s = sum(rec.cpu for rec in traced) * REFERENCE_S / statistics.fmean(samples)
    metrics = dict.fromkeys(wanted, 0)
    metrics.update(recorder.layer_metrics())
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="run one pass of the default seed and store its digests",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kinds]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    # set-up is scaled by the reference samples taken around it, since
    # the host's speed in set-up and in the timed loop may differ
    setup_samples: list = []
    reference_cpu(setup_samples)
    setup_start = clock()
    cli_module = import_tourkit()
    import_s = clock() - setup_start
    reference_cpu(setup_samples)
    import workloads

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build_cpu = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = clock()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            build_cpu.append(clock() - start)
            reference_cpu(setup_samples)
        setup_cpu = import_s + statistics.median(build_cpu)
        setup_s = setup_cpu * REFERENCE_S / statistics.fmean(setup_samples)
        jobs = workload.jobs

        if args.record_digests:
            if args.seed != DEFAULT_SEED:
                parser.error("digests are recorded for the default seed only")
            first: dict = {}
            records = run_jobs(cli_module, jobs, 0.0, first)
            check_records(records, first, workdir, None)
            bad = [r.job.id for r in records if r.failed]
            if bad:
                raise SystemExit(f"not recording: failed jobs {bad}")
            table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            table[args.workload] = {r.job.id: r.digest for r in records}
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"recorded {len(records)} digests for {args.workload}")
            return 0

        recorded = None
        if args.seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS.read_text())[args.workload]

        setup_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        first = {}
        samples: list = []
        reference_cpu(samples)
        loop_start = perf_counter()
        records = run_jobs(cli_module, jobs, args.seconds, first, MIN_PASSES, samples)
        loop_wall = perf_counter() - loop_start
        scale = REFERENCE_S / statistics.fmean(samples)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = check_records(records, first, workdir, recorded)
        attempted = len(records)
        if args.trace:
            metrics, recorder = traced_replay(
                cli_module, jobs, records, first, wanted, failures, scale
            )
            attempted += len(jobs)
            metrics["trace.spans"] = recorder.write(
                work_root / f"spans-{args.workload}-{args.seed}.tsv.gz"
            )
        else:
            metrics = end_to_end(records, jobs, setup_s, rss_kb, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}")
    for key, value in workload.properties.items():
        print(f"input {key}: {value}")
    print(f"peak rss before the timed loop: {setup_rss_kb / 1024:.1f} MB")
    loop_cpu = sum(r.cpu for r in records)
    for name, taken in (("set-up", setup_samples), ("timed loop", samples)):
        print(f"reference in {name}: {len(taken)} samples, mean {statistics.fmean(taken) * 1000:.2f} ms "
              f"(min {min(taken) * 1000:.2f}, max {max(taken) * 1000:.2f})")
    print(f"timed loop: {loop_wall:.3f} s wall, {loop_cpu:.3f} s CPU, "
          f"{loop_cpu * scale:.3f} reference s")
    print(f"setup: {setup_cpu:.4f} s CPU, {setup_s:.4f} reference s")
    print(f"samples: {len(records)} job runs, {len(jobs)} distinct jobs, "
          f"{len(records) // len(jobs)} passes")
    by_kind: dict = {}
    for rec in records:
        by_kind.setdefault(rec.job.kind, []).append(rec.cpu)
    for kind, times in by_kind.items():
        print(f"jobs {kind}: {len(times)} jobs, {sum(times):.3f} CPU s, "
              f"median {statistics.median(times):.4f} s, max {max(times):.4f} s")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()}
    for name, entry in result.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
