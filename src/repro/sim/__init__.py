"""A small discrete-event simulation (DES) kernel.

The cluster, network, storage services and checkpoint-restart protocols of
the reproduction are all expressed as cooperating simulation processes
(Python generators) scheduled by an :class:`~repro.sim.core.Environment`.
The kernel is intentionally SimPy-like so the modelling code reads like the
textbook idiom, but it is implemented from scratch here (no external
dependency) and adds a max-min fair bandwidth-sharing primitive
(:mod:`repro.sim.bandwidth`) that the network and disk models rely on.

Public API
----------

* :class:`Environment` -- event loop, simulated clock, ``process`` / ``timeout``
* :class:`Event`, :class:`Timeout`, :class:`Process` -- waitable primitives
* :class:`Interrupt` -- exception thrown into a process by ``Process.interrupt``
* :class:`AllOf` / :class:`AnyOf` -- event combinators
* :class:`Resource` -- FIFO capacity-limited resource (servers, boot slots)
* :class:`FairShareChannel`, :class:`BandwidthSystem` -- processor-sharing
  bandwidth channels with max-min fair allocation across multi-link flows
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Resource
from repro.sim.bandwidth import BandwidthSystem, FairShareChannel

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "BandwidthSystem",
    "FairShareChannel",
]
