"""``serve``: an open-loop, seeded job stream against ``python -m repro serve``.

The daemon runs as a subprocess with 2 workers and a memory-only
result cache (no spill file, so no flushes); every distinct content
of a run fits its LRU.  One generator process with at most two
connections open sends each job at its scheduled time whether or not
earlier jobs have finished (evenly spaced arrivals), so a stall shows
as queueing.  Latency runs from a job's *scheduled* send time to the
``finished_at`` of its record.

Jobs come from the mixed-manifest families (``mixed_workload_jobs``).
A request is a *repeat* of content sent earlier in the run, served
from the cache (a read), or *fresh* content -- a manifest job with its
database constants renamed -- which executes and writes to the cache.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import load_spec, log, median, peak_rss_mb, percentile, python, repo_python_env
from inputs import renamed

from repro.generators.workloads import mixed_workload_jobs
from repro.runtime import BatchExecutor
from repro.runtime.jobs import job_from_manifest_entry, manifest_entry
from repro.service.client import ChaseServiceClient, ServiceError


def _spec() -> Dict[str, object]:
    return load_spec()["serve"]


# -- the daemon --------------------------------------------------------------


class Daemon:
    """A ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, work: Path, trace_path: Optional[Path] = None) -> None:
        spec = _spec()
        self.log_path = work / f"daemon-{time.monotonic_ns()}.log"
        command = [
            python(), "-m", "repro", "serve", "--port", "0",
            "--workers", str(spec["workers"]),
            "--queue-depth", str(spec["queue_depth"]),
            "--cache-max-entries", str(spec["cache_max_entries"]),
            "--ttl", "3600",
        ]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        start = time.perf_counter()
        with open(self.log_path, "w") as log_handle:
            self.process = subprocess.Popen(
                command, cwd=root, env=repo_python_env(root),
                stdout=subprocess.DEVNULL, stderr=log_handle,
            )
        try:
            port = self._await_port()
            # No backpressure retries: a 429 or 503 is counted, not hidden.
            self.client = ChaseServiceClient(
                f"http://127.0.0.1:{port}", timeout=120.0, backpressure_retries=0,
            )
            self.client.wait_until_healthy(timeout=60.0, interval=0.005)
        except BaseException:
            self.kill()
            raise
        self.startup_seconds = time.perf_counter() - start

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if "listening on http://" in line:
                    address = line.split("listening on http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_path.read_text()[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError("daemon did not report its port within 60 s")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Ask for a drained shutdown; kill if it does not exit in time."""
        try:
            self.client.shutdown()
            self.process.wait(timeout=60.0)
        except (ServiceError, OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def setup(root: Path, work: Path) -> float:
    """One cold start of the daemon: spawn to a healthy ``/healthz``.

    The idle daemon holds nothing worth draining, so it is killed.
    """
    daemon = Daemon(root, work)
    daemon.kill()
    return daemon.startup_seconds


# -- the job stream ----------------------------------------------------------


class Stream:
    """Seeded request bodies: fresh renamed manifest jobs or repeats."""

    def __init__(self, seed: int) -> None:
        spec = _spec()
        self.rng = random.Random(seed)
        self.seed = seed
        self.pool = mixed_workload_jobs(spec["pool_jobs"], spec["manifest_seed"])
        self.repeat_share = spec["repeat_share"]
        self.contents: List[Dict[str, object]] = []  # distinct entries, in first-send order
        self.requests = 0

    def _fresh(self) -> Dict[str, object]:
        base = self.pool[len(self.contents) % len(self.pool)]
        tag = f"s{self.seed}f{len(self.contents)}"
        entry = manifest_entry(dataclasses.replace(base, database=renamed(base.database, tag)))
        self.contents.append(entry)
        return entry

    def next_entry(self) -> Tuple[Dict[str, object], int]:
        """(manifest entry, content index) of the next request.

        Repeats are spread evenly (exactly ``repeat_share`` of every
        run) and fresh jobs walk the manifest in order, so each run has
        the same mix; the seed picks which earlier content repeats.
        """
        share = self.repeat_share
        repeat = int((self.requests + 1) * share) > int(self.requests * share)
        if repeat and self.contents:
            index = self.rng.randrange(len(self.contents))
            entry = self.contents[index]
        else:
            entry = self._fresh()
            index = len(self.contents) - 1
        self.requests += 1
        return dict(entry, id=f"q{self.requests}"), index


# -- one open-loop phase -------------------------------------------------------


def run_phase(daemon: Daemon, stream: Stream, rate: float, count: int) -> List[Dict[str, object]]:
    """Send ``count`` jobs, evenly spaced at ``rate``; one row per request."""
    spec = _spec()
    rows = []
    for offset in (index / rate for index in range(count)):
        entry, content = stream.next_entry()
        rows.append({"offset": offset, "entry": entry, "content": content})
    lock = threading.Lock()
    cursor = iter(range(count))
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.05
    wall_origin = time.time() - time.perf_counter()

    def sender() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                row = rows[index]
                due = start + row["offset"]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                row["scheduled_wall"] = due + wall_origin
                row["late_ms"] = (sent - due) * 1000.0
                try:
                    document = daemon.client.submit_job(row["entry"])
                except ServiceError as exc:
                    row["status"], row["error"] = exc.status, str(exc)
                    continue
                except (OSError, http.client.HTTPException) as exc:
                    row["status"], row["error"] = None, repr(exc)
                    continue
                row["submit_ms"] = (time.perf_counter() - sent) * 1000.0
                row["status"] = 202
                row["job_id"] = document["job_id"]
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=sender) for _ in range(spec["connections"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for row in rows:
        if row.get("status") != 202:
            continue
        try:
            record = daemon.client.job(row["job_id"], wait=120)
        except (ServiceError, OSError, http.client.HTTPException):
            continue  # no record: the job counts as lost
        if record["state"] == "done":
            row["record"] = record
            row["latency_ms"] = (record["finished_at"] - row["scheduled_wall"]) * 1000.0
    for row in rows:
        row["kind"] = _kind(row)
    return rows


def _kind(row: Dict[str, object]) -> str:
    """hit, miss, deduped, timeout, rejected, error or lost."""
    status = row.get("status")
    if status in (429, 503):
        return "rejected"
    if status != 202:
        return "error"
    record = row.get("record")
    if record is None:
        return "lost"
    result = record["result"] or {}
    if result.get("status") == "timeout" or result.get("outcome") == "time_budget_exceeded":
        return "timeout"
    if result.get("status") != "ok":
        return "error"
    if record.get("deduped_of") is not None:
        return "deduped"
    return "hit" if result["cache"]["hit"] else "miss"


SERVED = ("hit", "miss", "deduped")
FAILED = ("rejected", "error", "lost", "wrong")


def _percentile_or_none(values: List[float], q: float) -> Optional[float]:
    return percentile(values, q) if values else None


def phase_stats(rows: List[Dict[str, object]], rate: float) -> Dict[str, object]:
    """Latency percentiles of served requests, the limit test, backlog.

    For the limit test only, a failed, refused or lost request counts
    as an infinite latency, so any failure can push a phase over the
    limit; the reported percentiles cover served requests (failures
    reach the result through ``failed``).
    """
    limit = _spec()["p95_limit_ms"]
    counted = [r for r in rows if r["kind"] != "timeout"]
    served = [r for r in counted if r["kind"] in SERVED]
    served_latencies = [r["latency_ms"] for r in served]
    worst_case = served_latencies + [float("inf")] * (len(counted) - len(served))
    limit_p95 = percentile(worst_case, 0.95) if worst_case else float("inf")
    # Little's law: a queue that keeps up holds about rate x latency
    # jobs; more than rate x limit still unfinished when the last job
    # was due means the backlog grew through the phase.
    last_due = max(r["scheduled_wall"] for r in rows)
    outstanding = sum(1 for r in served if r["record"]["finished_at"] > last_due)
    backlog_ok = outstanding <= max(2.0, rate * limit / 1000.0)
    first_due = min(r["scheduled_wall"] for r in rows)
    last_done = max((r["record"]["finished_at"] for r in served), default=last_due)
    return {
        "rate": rate,
        "requests": len(rows),
        "p50_ms": _percentile_or_none(served_latencies, 0.5),
        "p95_ms": _percentile_or_none(served_latencies, 0.95),
        "outstanding_at_end": outstanding,
        "passed": limit_p95 <= limit and backlog_ok,
        "achieved_per_s": len(served) / max(last_done - first_due, 1e-9),
        "late_p95_ms": percentile([r["late_ms"] for r in rows], 0.95),
    }


def _phase_count(rate: float) -> int:
    """Requests in a phase: enough for a p95, at least ``phase_seconds`` long."""
    spec = _spec()
    return max(spec["phase_requests"], round(rate * spec["phase_seconds"]))


# -- correctness ---------------------------------------------------------------


def check_rows(stream: Stream, rows: List[Dict[str, object]]) -> Dict[str, int]:
    """Compare every served summary with a direct ``BatchExecutor`` run.

    Each distinct content runs once, serially, exactly as the daemon
    parses it; timeouts are not deterministic and are left out.  A
    served summary that differs marks its row ``wrong``.
    """
    used = sorted({r["content"] for r in rows if r["kind"] in SERVED})
    jobs = [job_from_manifest_entry(dict(stream.contents[i], id=f"c{i}")) for i in used]
    expected: Dict[int, str] = {}
    for index, result in zip(used, BatchExecutor(workers=1).run_all(jobs)):
        if result.status == "ok" and result.outcome != "time_budget_exceeded":
            expected[index] = result.summary_json()
    compared = 0
    for row in rows:
        if row["kind"] in SERVED and row["content"] in expected:
            compared += 1
            served = json.dumps(row["record"]["result"]["summary"], sort_keys=True)
            if served != expected[row["content"]]:
                row["kind"] = "wrong"
    return {"compared": compared, "distinct_contents": len(used)}


def _report_kinds(label: str, rows: List[Dict[str, object]]) -> None:
    kinds: Dict[str, int] = {}
    for row in rows:
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
    served = [r for r in rows if r["kind"] in SERVED]
    hits = sum(1 for r in served if r["kind"] == "hit")
    log(f"  {label}: outcomes {dict(sorted(kinds.items()))}; "
        f"served from cache {hits}/{len(served)} = {hits / max(len(served), 1):.3f}")
    timeouts = sorted(round(r["latency_ms"], 1) for r in rows if r["kind"] == "timeout")
    log(f"  {label}: time_budget_exceeded jobs {len(timeouts)}, latency ms {timeouts}")


def _ms(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.2f} ms"


def _kind_p50(rows: List[Dict[str, object]], kind: str) -> Optional[float]:
    values = [r["latency_ms"] for r in rows if r["kind"] == kind]
    return percentile(values, 0.5) if values else None


# -- runs ----------------------------------------------------------------------


def _warm_and_nominal(daemon: Daemon, stream: Stream):
    spec = _spec()
    nominal = spec["nominal_rate"]
    warm = run_phase(daemon, stream, nominal, spec["warmup_requests"])
    rows = run_phase(daemon, stream, nominal, spec["nominal_requests"])
    return warm, rows


def run(root: Path, work: Path, seed: int) -> Dict[str, object]:
    """Untraced run: the nominal rate, then every higher fixed rate.

    The top fixed rate is above what the daemon can take, so the
    completions per second it achieves are the saturation throughput.
    """
    spec = _spec()
    stream = Stream(seed)
    daemon = Daemon(root, work)
    try:
        warm, nominal_rows = _warm_and_nominal(daemon, stream)
        phases = [(spec["nominal_rate"], nominal_rows)]
        for rate in spec["rates"]:
            if rate > spec["nominal_rate"]:
                phases.append((rate, run_phase(daemon, stream, rate, _phase_count(rate))))
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    all_rows = warm + [row for _, rows in phases for row in rows]
    checks = check_rows(stream, all_rows)
    stats = [phase_stats(rows, rate) for rate, rows in phases]
    nominal, top = stats[0], stats[-1]
    # Rates ascend; the highest one reached without a miss below it.
    max_rate = 0
    for s in stats:
        if not s["passed"]:
            break
        max_rate = s["rate"]
    log(f"serve: {len(all_rows)} requests, {checks['distinct_contents']} distinct contents,"
        f" {checks['compared']} summaries compared with a direct BatchExecutor run")
    for (rate, rows), s in zip(phases, stats):
        log(f"  rate {rate}/s: {s['requests']} requests, p50 {_ms(s['p50_ms'])},"
            f" p95 {_ms(s['p95_ms'])}, achieved {s['achieved_per_s']:.1f}/s,"
            f" outstanding at end {s['outstanding_at_end']}, generator late p95"
            f" {s['late_p95_ms']:.1f} ms -> {'meets' if s['passed'] else 'misses'}"
            f" the {spec['p95_limit_ms']} ms p95 limit")
        _report_kinds(f"rate {rate}/s", rows)
    hit_p50, miss_p50 = _kind_p50(nominal_rows, "hit"), _kind_p50(nominal_rows, "miss")
    log(f"  serve_p50_ms {_ms(nominal['p50_ms'])}, serve_p95_ms {_ms(nominal['p95_ms'])}"
        f" at the nominal {spec['nominal_rate']}/s")
    log(f"  serve_hit_p50_ms {_ms(hit_p50)}, serve_miss_p50_ms {_ms(miss_p50)}")
    log(f"  serve_max_rate_per_s {max_rate} /s; saturation throughput"
        f" {top['achieved_per_s']:.1f} completions/s at {top['rate']}/s offered")
    failures = [f"request {r['entry']['id']}: {r['kind']}" for r in all_rows if r["kind"] in FAILED]
    if checks["distinct_contents"] > spec["cache_max_entries"]:
        failures.append(f"{checks['distinct_contents']} distinct contents overflow the cache LRU")
    return {
        "attempted": len(all_rows),
        "failures": failures,
        "peak_rss_mb": rss,
        "throughput_per_s": top["achieved_per_s"],
        "p50_ms": nominal["p50_ms"],
        "p95_ms": nominal["p95_ms"],
    }


def _span_ms(events: List[Dict[str, object]], name: str) -> List[float]:
    return [float(e["dur"]) / 1000.0 for e in events if e.get("name") == name]


def run_traced(root: Path, work: Path, seed: int) -> Dict[str, object]:
    """Nominal rate on an untraced and a traced daemon; per-layer figures."""
    busy = []
    traced_rows: List[Dict[str, object]] = []
    trace_path = work / "serve-trace.jsonl"
    all_rows = []
    for trace in (None, trace_path):
        stream = Stream(seed)
        daemon = Daemon(root, work, trace_path=trace)
        try:
            warm, rows = _warm_and_nominal(daemon, stream)
        finally:
            daemon.stop()
        check_rows(stream, warm + rows)
        all_rows += warm + rows
        busy.append(sum(
            r["record"]["finished_at"] - r["record"]["started_at"]
            for r in rows if r["kind"] in ("hit", "miss")
        ))
        traced_rows = rows
    events = [json.loads(line) for line in trace_path.read_text().splitlines() if line.strip()]
    lookups = [e for e in events if e.get("name") == "cache.lookup"]
    hits = sum(1 for e in lookups if (e.get("args") or {}).get("hit"))
    layer_spans = ("job.queue_wait", "job.admission", "cache.lookup", "snapshot.encode",
                   "job.execute", "cache.write")
    # Dedup members share their primary's spans; only primaries count.
    lifecycle = sum(
        float(e["dur"]) / 1000.0 for e in events
        if e.get("name") == "job.lifecycle" and not (e.get("args") or {}).get("deduped")
    )
    covered = sum(sum(_span_ms(events, name)) for name in layer_spans)
    served = [r for r in traced_rows if r["kind"] in SERVED]
    chase = {
        key: sum(int(r["record"]["result"]["summary"][key]) for r in served if r["kind"] == "miss")
        for key in ("size", "rounds", "triggers_considered", "triggers_applied")
    }
    _report_kinds("traced nominal", traced_rows)
    hit_ids = {r["entry"]["id"] for r in served if r["kind"] == "hit"}
    for name in ("job.admission", "cache.lookup"):
        hit_path = [
            float(e["dur"]) / 1000.0 for e in events
            if e.get("name") == name and (e.get("args") or {}).get("job") in hit_ids
        ]
        if hit_path:
            log(f"  hit path {name}: p50 {percentile(hit_path, 0.5):.3f} ms,"
                f" p95 {percentile(hit_path, 0.95):.3f} ms over {len(hit_path)} hits")
    failures = [f"request {r['entry']['id']}: {r['kind']}" for r in all_rows if r["kind"] in FAILED]
    return {
        "attempted": len(all_rows),
        "failures": failures,
        "layers": {
            "service.submit_ms": median([r["submit_ms"] for r in traced_rows if "submit_ms" in r]),
            "service.queue_wait_ms": median([
                (r["record"]["started_at"] - r["record"]["submitted_at"]) * 1000.0 for r in served
            ]),
            "runtime.admission_ms": median(_span_ms(events, "job.admission")),
            "runtime.cache_lookup_ms": median(_span_ms(events, "cache.lookup")),
            "runtime.snapshot_encode_ms": median(_span_ms(events, "snapshot.encode")),
            "runtime.execute_ms": median(_span_ms(events, "job.execute")),
            "runtime.cache_write_ms": median(_span_ms(events, "cache.write")),
            "runtime.cache_hit_ratio": hits / max(len(lookups), 1),
            "service.rejected": sum(1 for r in all_rows if r["kind"] == "rejected"),
            "chase.atoms": chase["size"],
            "chase.rounds": chase["rounds"],
            "chase.triggers_considered": chase["triggers_considered"],
            "chase.triggers_applied": chase["triggers_applied"],
            "chase.trigger_yield": chase["triggers_applied"] / max(chase["triggers_considered"], 1),
            "unattributed_share": 1.0 - covered / lifecycle,
            "tracing_overhead": busy[1] / busy[0],
        },
    }
