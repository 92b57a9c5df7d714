"""The communication cost model of the guest applications.

The applications the paper evaluates are MPI programs.  This package charges
the simulated time of the communication they do -- barriers and neighbour
(halo) exchanges -- from the same network spec as the storage traffic, plus
the hooks the coordinated checkpoint protocol uses to quiesce communication.

It is intentionally not a drop-in mpi4py replacement: a communicator is a
rank count over the instances of a :class:`~repro.core.strategy.Deployment`,
and no message payload is modelled.
"""

from repro.mpi.runtime import MPICommunicator

__all__ = ["MPICommunicator"]
