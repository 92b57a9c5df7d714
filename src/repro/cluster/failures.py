"""Fail-stop failure injection.

The paper assumes the fail-stop model: when a machine fails, every VM it
hosts and all locally stored data are lost.  The injector schedules such
failures, either at explicit times or drawn from an exponential distribution
(a standard assumption for independent hardware failures), and the
checkpoint-restart strategies are expected to recover by rolling back to the
most recent globally consistent checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from repro.cluster.cloud import Cloud
from repro.util.errors import SimulationError
from repro.util.rng import make_rng


@dataclass
class FailureEvent:
    """Record of one injected failure."""

    time: float
    node: str


class FailureInjector:
    """Schedules fail-stop crashes of compute nodes."""

    def __init__(self, cloud: Cloud, seed: object = "failures"):
        self.cloud = cloud
        self._rng = make_rng("failure-injector", cloud.spec.seed, seed)
        self.history: List[FailureEvent] = []

    # -- scheduling --------------------------------------------------------------------

    def fail_at(self, time: float, node_name: str) -> None:
        """Schedule a crash of ``node_name`` at absolute simulated time ``time``."""
        if time < self.cloud.now:
            raise SimulationError(f"cannot schedule a failure in the past ({time})")
        self.cloud.process(
            self._fail_later(time - self.cloud.now, node_name), name=f"fail:{node_name}"
        )

    def fail_random_at(self, time: float, candidates: Optional[Sequence[str]] = None) -> str:
        """Schedule a crash of a random live compute node; returns its name."""
        pool = list(candidates) if candidates is not None else [
            n.name for n in self.cloud.live_compute_nodes()
        ]
        if not pool:
            raise SimulationError("no live compute node available to fail")
        victim = pool[int(self._rng.integers(0, len(pool)))]
        self.fail_at(time, victim)
        return victim

    def poisson_failures(
        self, mtbf: float, horizon: float, candidates: Optional[Sequence[str]] = None
    ) -> List[float]:
        """Schedule failures with exponentially distributed inter-arrival times.

        ``mtbf`` is the mean time between failures across the whole candidate
        set.  Returns the scheduled failure times (may be empty).
        """
        if mtbf <= 0:
            raise SimulationError(f"MTBF must be positive, got {mtbf}")
        times: List[float] = []
        clock = self.cloud.now
        while True:
            clock += float(self._rng.exponential(mtbf))
            if clock >= self.cloud.now + horizon:
                break
            self.fail_random_at(clock, candidates)
            times.append(clock)
        return times

    # -- internals -------------------------------------------------------------------------

    def _fail_later(self, delay: float, node_name: str) -> Generator:
        yield self.cloud.env.timeout(delay)
        node = self.cloud.node(node_name)
        if not node.alive:
            return
        node.fail()
        self.history.append(FailureEvent(time=self.cloud.now, node=node_name))
        tracer = self.cloud.env.tracer
        if tracer is not None:
            tracer.instant("failure", node_name, self.cloud.now, cat="failure")
