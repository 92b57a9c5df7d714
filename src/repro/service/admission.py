"""Admission control: bounded slots, FIFO/fair queueing, rejection, timeouts.

The service layer bounds two provider resources: concurrent VM boots
(``boot_slots`` -- deploy and restart jobs) and concurrent repository
snapshot operations (``repo_slots`` -- checkpoint jobs).  Jobs claim a slot
through an :class:`AdmissionQueue`:

* a free slot is granted immediately;
* a full queue rejects the ticket *synchronously* (the open-loop arrival is
  simply turned away -- nothing waits);
* otherwise the ticket queues until a slot frees up, a configured timeout
  expires, or the run ends.

Two dequeue policies exist.  ``fifo`` grants strictly in submission order.
``fair`` grants the waiting tenant with the fewest grants so far (ties
broken by submission order), which stops one chatty tenant from starving
the rest.  Both are deterministic: ties always resolve through the global
submission counter, so the grant order is a pure function of the job
stream.

The admission queue deliberately does not reuse
:class:`repro.sim.resources.Resource`: rejection and tenant-aware dequeue
need the queue to be inspectable at submit time, and the SLO accounting
needs the grant timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.core import Environment, Event
from repro.util.errors import ConfigurationError

#: the dequeue policies an :class:`AdmissionQueue` understands
POLICIES = ("fifo", "fair")

#: terminal ticket outcomes delivered through :attr:`Ticket.ready`
GRANTED, REJECTED, TIMED_OUT = "granted", "rejected", "timeout"


@dataclass(frozen=True)
class AdmissionConfig:
    """Provider-side admission knobs of one service run."""

    policy: str = "fifo"
    #: concurrent VM boots (deploy + restart jobs)
    boot_slots: int = 4
    #: concurrent repository snapshot operations (checkpoint jobs)
    repo_slots: int = 8
    #: waiting tickets beyond which submissions are rejected outright
    max_queue: int = 64
    #: seconds a queued ticket waits before timing out (0 disables timeouts)
    timeout_s: float = 0.0

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {self.policy!r} (policies: {', '.join(POLICIES)})"
            )
        if self.boot_slots < 1 or self.repo_slots < 1:
            raise ConfigurationError(
                f"admission slots must be >= 1, got boot={self.boot_slots} "
                f"repo={self.repo_slots}"
            )
        if self.max_queue < 0:
            raise ConfigurationError(f"max queue must be >= 0, got {self.max_queue}")
        if self.timeout_s < 0:
            raise ConfigurationError(f"timeout must be >= 0, got {self.timeout_s}")


class Ticket:
    """One admission claim: submitted, then granted / rejected / timed out.

    The holding job does ``outcome = yield ticket.ready``; the event fires
    with one of :data:`GRANTED` / :data:`REJECTED` / :data:`TIMED_OUT`
    (rejections fire immediately at submit time).
    """

    __slots__ = ("tenant", "kind", "order", "submitted_at", "granted_at", "state", "ready")

    def __init__(self, env: Environment, tenant: str, kind: str, order: int):
        self.tenant = tenant
        self.kind = kind
        #: global submission index; the deterministic tie-breaker
        self.order = order
        self.submitted_at = env.now
        self.granted_at: Optional[float] = None
        self.state = "queued"
        self.ready = Event(env, f"admission:{tenant}:{kind}")

    @property
    def wait_s(self) -> float:
        """Queue wait of a granted ticket, simulated seconds."""
        if self.granted_at is None:
            raise ConfigurationError(f"ticket {self.tenant}:{self.kind} was never granted")
        return self.granted_at - self.submitted_at


class AdmissionQueue:
    """Bounded slots with FIFO or fair dequeue, rejection and timeouts."""

    def __init__(
        self,
        env: Environment,
        slots: int,
        policy: str = "fifo",
        max_queue: int = 64,
        timeout_s: float = 0.0,
        name: str = "admission",
    ):
        if slots < 1:
            raise ConfigurationError(f"admission slots must be >= 1, got {slots}")
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {policy!r} (policies: {', '.join(POLICIES)})"
            )
        self.env = env
        self.policy = policy
        self.max_queue = max_queue
        self.timeout_s = timeout_s
        self.name = name
        self._free = slots
        self._waiting: List[Ticket] = []
        self._orders = 0
        #: grants per tenant so far (the fair policy's ledger)
        self._grants: Dict[str, int] = {}
        #: lifetime counters for the SLO report
        self.submitted = 0
        self.rejected = 0
        self.timed_out = 0

    def submit(self, tenant: str, kind: str) -> Ticket:
        """Claim a slot; the outcome arrives through ``ticket.ready``."""
        ticket = Ticket(self.env, tenant, kind, self._orders)
        self._orders += 1
        self.submitted += 1
        if self._free > 0:
            self._grant(ticket)
        elif len(self._waiting) >= self.max_queue:
            ticket.state = REJECTED
            self.rejected += 1
            ticket.ready.succeed(REJECTED)
        else:
            self._waiting.append(ticket)
            if self.timeout_s > 0:
                self.env.process(
                    self._expire(ticket), name=f"{self.name}:timeout:{ticket.order}"
                )
        return ticket

    def release(self, ticket: Ticket) -> None:
        """Return a granted slot; grants the next waiting ticket per policy."""
        if ticket.state != GRANTED:
            raise ConfigurationError(
                f"cannot release a {ticket.state!r} ticket on {self.name}"
            )
        ticket.state = "released"
        self._free += 1
        self._dispatch()

    # -- internals ---------------------------------------------------------------------

    def _grant(self, ticket: Ticket) -> None:
        self._free -= 1
        ticket.state = GRANTED
        ticket.granted_at = self.env.now
        self._grants[ticket.tenant] = self._grants.get(ticket.tenant, 0) + 1
        ticket.ready.succeed(GRANTED)

    def _pick(self) -> Ticket:
        if self.policy == "fifo":
            return self._waiting.pop(0)
        # fair: fewest grants so far wins; submission order breaks ties,
        # which keeps the choice deterministic for same-instant submissions.
        best = min(self._waiting, key=lambda t: (self._grants.get(t.tenant, 0), t.order))
        self._waiting.remove(best)
        return best

    def _dispatch(self) -> None:
        while self._free > 0 and self._waiting:
            self._grant(self._pick())

    def _expire(self, ticket: Ticket):
        yield self.env.timeout(self.timeout_s)
        if ticket.state == "queued":
            self._waiting.remove(ticket)
            ticket.state = TIMED_OUT
            self.timed_out += 1
            ticket.ready.succeed(TIMED_OUT)
