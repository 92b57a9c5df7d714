"""The tenant/job model: schema-versioned job traces and open-loop generators.

A *trace* is the complete job stream of one service run: every tenant's
deploy / checkpoint / restart / kill jobs with absolute submission times on
the simulated clock.  Traces come from two places:

* **synthesis** (:func:`synthesize_trace`): open-loop arrival processes --
  ``poisson`` (tenant arrivals uniform over the arrival window, which is the
  distribution of a homogeneous Poisson process conditioned on its count)
  or ``fixed`` (deterministic rate, tenant ``i`` arrives at ``i / rate``) --
  followed by a per-tenant job schedule drawn from that tenant's own RNG;
* **files** (:func:`load_trace`): a schema-versioned JSONL format, one
  header line plus one job per line, so real or hand-written traces replay
  through the same driver.

Determinism contract: a tenant's schedule is a function of ``(trace seed,
tenant name)`` only -- :func:`make_rng` is re-keyed per tenant -- so adding,
removing or reordering other tenants never changes an existing tenant's
jobs.  ``tests/test_service.py`` pins this down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng

#: schema identifier of the JSONL trace format
TRACE_SCHEMA = "blobcr-repro/service-trace"
#: current version of the JSONL trace format
TRACE_VERSION = 1

#: the job kinds a trace may carry, in lifecycle order
JOB_KINDS = ("deploy", "checkpoint", "restart", "kill")

#: arrival processes :func:`synthesize_trace` understands
ARRIVAL_MODES = ("poisson", "fixed")


def tenant_name(index: int) -> str:
    """Canonical tenant name of the ``index``-th synthesized tenant."""
    return f"t{index:04d}"


@dataclass(frozen=True)
class Job:
    """One job of one tenant: what to do and when it is submitted."""

    tenant: str
    #: per-tenant sequence number, 0-based and contiguous
    seq: int
    kind: str
    #: absolute submission time, simulated seconds
    at: float

    def validate(self) -> None:
        if not self.tenant:
            raise ConfigurationError("job tenant name must be non-empty")
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r} for tenant {self.tenant!r} "
                f"(kinds: {', '.join(JOB_KINDS)})"
            )
        if self.seq < 0:
            raise ConfigurationError(f"job sequence must be >= 0, got {self.seq}")
        if not math.isfinite(self.at) or self.at < 0:
            raise ConfigurationError(
                f"job time must be finite and >= 0, got {self.at} "
                f"({self.tenant}#{self.seq})"
            )


@dataclass(frozen=True)
class ServiceTrace:
    """A validated, canonically ordered job stream."""

    jobs: Tuple[Job, ...]

    def validate(self) -> None:
        """Check per-tenant structure; raises :class:`ConfigurationError`."""
        if not self.jobs:
            raise ConfigurationError("a service trace must carry at least one job")
        for job in self.jobs:
            job.validate()
        for tenant, jobs in self.by_tenant().items():
            seqs = [job.seq for job in jobs]
            if seqs != list(range(len(jobs))):
                raise ConfigurationError(
                    f"tenant {tenant!r} job sequence numbers are not contiguous "
                    f"from 0: {seqs}"
                )
            if jobs[0].kind != "deploy":
                raise ConfigurationError(
                    f"tenant {tenant!r} must start with a deploy job, "
                    f"got {jobs[0].kind!r}"
                )
            times = [job.at for job in jobs]
            if any(b < a for a, b in zip(times, times[1:])):
                raise ConfigurationError(
                    f"tenant {tenant!r} job times are not non-decreasing: {times}"
                )
            for job in jobs[1:]:
                if job.kind == "deploy":
                    raise ConfigurationError(
                        f"tenant {tenant!r} deploys twice (job #{job.seq}); "
                        "one deployment per tenant"
                    )

    def by_tenant(self) -> Dict[str, List[Job]]:
        """Jobs grouped per tenant (sequence order), tenants name-sorted.

        The name-sorted grouping is the driver's canonical enumeration: it
        depends only on the job *set*, never on the order jobs appear in.
        """
        grouped: Dict[str, List[Job]] = {}
        for job in self.jobs:
            grouped.setdefault(job.tenant, []).append(job)
        return {
            tenant: sorted(grouped[tenant], key=lambda job: job.seq)
            for tenant in sorted(grouped)
        }

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(sorted({job.tenant for job in self.jobs}))

    @property
    def end_time(self) -> float:
        return max(job.at for job in self.jobs)

    def canonical(self) -> "ServiceTrace":
        """The same trace with jobs in canonical ``(at, tenant, seq)`` order."""
        ordered = tuple(sorted(self.jobs, key=lambda job: (job.at, job.tenant, job.seq)))
        return ServiceTrace(jobs=ordered)


# -- synthesis -------------------------------------------------------------------------


def synthesize_trace(
    tenants: int,
    rate: float,
    mode: str = "poisson",
    checkpoints: int = 2,
    interval_s: float = 15.0,
    restarts: int = 1,
    hold_s: float = 10.0,
    seed: object = 0,
) -> ServiceTrace:
    """Synthesize an open-loop trace: ``tenants`` arrivals at ``rate`` per second.

    Each tenant deploys on arrival, takes ``checkpoints`` checkpoints spaced
    ``interval_s`` apart (exponentially distributed gaps with that mean under
    ``poisson``, exact gaps under ``fixed``), restarts from its latest
    checkpoint ``restarts`` times, and is killed ``hold_s`` after its last
    job.  All randomness is drawn from ``make_rng("service-trace", seed,
    tenant)``, so a tenant's schedule is independent of every other tenant.
    """
    if tenants < 1:
        raise ConfigurationError(f"tenant count must be >= 1, got {tenants}")
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
    if mode not in ARRIVAL_MODES:
        raise ConfigurationError(
            f"unknown arrival mode {mode!r} (modes: {', '.join(ARRIVAL_MODES)})"
        )
    if checkpoints < 0 or restarts < 0:
        raise ConfigurationError("checkpoint and restart counts must be >= 0")
    if interval_s <= 0 or hold_s < 0:
        raise ConfigurationError("interval must be positive and hold must be >= 0")
    window = tenants / rate
    jobs: List[Job] = []
    for index in range(tenants):
        name = tenant_name(index)
        rng = make_rng("service-trace", seed, name)
        if mode == "poisson":
            # Given its arrival count, a homogeneous Poisson process places
            # each arrival independently and uniformly over the window --
            # which is exactly what keeps per-tenant seeding order-free.
            arrival = float(rng.uniform(0.0, window))
        else:
            arrival = index / rate
        t = arrival
        seq = 0
        jobs.append(Job(name, seq, "deploy", arrival))
        for _ in range(checkpoints):
            gap = float(rng.exponential(interval_s)) if mode == "poisson" else interval_s
            t += gap
            seq += 1
            jobs.append(Job(name, seq, "checkpoint", t))
        for _ in range(restarts):
            gap = float(rng.exponential(interval_s)) if mode == "poisson" else interval_s
            t += gap
            seq += 1
            jobs.append(Job(name, seq, "restart", t))
        seq += 1
        jobs.append(Job(name, seq, "kill", t + hold_s))
    trace = ServiceTrace(jobs=tuple(jobs)).canonical()
    trace.validate()
    return trace


# -- JSONL round trip ------------------------------------------------------------------


def dumps_trace(trace: ServiceTrace) -> str:
    """Serialise a trace as schema-versioned JSONL (canonical job order)."""
    canonical = trace.canonical()
    lines = [
        json.dumps(
            {"schema": TRACE_SCHEMA, "version": TRACE_VERSION, "jobs": len(canonical.jobs)},
            separators=(",", ":"),
        )
    ]
    for job in canonical.jobs:
        lines.append(
            json.dumps(
                {"tenant": job.tenant, "seq": job.seq, "kind": job.kind, "at": job.at},
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


def _parse_line(number: int, raw: str) -> Dict[str, Any]:
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"trace line {number} is not valid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise ConfigurationError(f"trace line {number} is not a JSON object")
    return parsed


def loads_trace(text: str) -> ServiceTrace:
    """Parse schema-versioned JSONL into a validated :class:`ServiceTrace`.

    Blank lines are skipped; an error names the physical line it is about.
    """
    lines = [(n, line) for n, line in enumerate(map(str.strip, text.splitlines()), 1) if line]
    if not lines:
        raise ConfigurationError("trace file is empty")
    header = _parse_line(*lines[0])
    if header.get("schema") != TRACE_SCHEMA:
        raise ConfigurationError(
            f"trace header schema is {header.get('schema')!r}, expected {TRACE_SCHEMA!r}"
        )
    if header.get("version") != TRACE_VERSION:
        raise ConfigurationError(
            f"trace schema version {header.get('version')!r} is not supported "
            f"(this reader understands version {TRACE_VERSION})"
        )
    jobs: List[Job] = []
    for number, raw in lines[1:]:
        record = _parse_line(number, raw)
        missing = [key for key in ("tenant", "seq", "kind", "at") if key not in record]
        if missing:
            raise ConfigurationError(
                f"trace line {number} misses key(s): {', '.join(missing)}"
            )
        unknown = sorted(set(record) - {"tenant", "seq", "kind", "at"})
        if unknown:
            raise ConfigurationError(
                f"trace line {number} carries unknown key(s): {', '.join(unknown)}"
            )
        try:
            job = Job(
                tenant=str(record["tenant"]),
                seq=int(record["seq"]),
                kind=str(record["kind"]),
                at=float(record["at"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"trace line {number} is malformed: {exc}") from None
        jobs.append(job)
    declared = header.get("jobs")
    if declared is not None and declared != len(jobs):
        raise ConfigurationError(
            f"trace header declares {declared} job(s) but the file carries {len(jobs)}"
        )
    trace = ServiceTrace(jobs=tuple(jobs)).canonical()
    trace.validate()
    return trace


def load_trace(path: str) -> ServiceTrace:
    """Read and validate a JSONL trace file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file {path}: {exc}") from None
    try:
        return loads_trace(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
