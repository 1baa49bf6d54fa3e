"""Discrete-event simulated cluster.

The simulator executes one Python thread per simulated process ("image"),
but hands the CPU to exactly one thread at a time under the control of a
virtual clock, so runs are fully deterministic. Communication layers
(:mod:`repro.mpi`, :mod:`repro.gasnet`) charge modeled costs to the clock
while performing real data movement between NumPy buffers, so applications
compute verifiable answers *and* produce modeled performance numbers.
"""

from repro.sim.cluster import Cluster, RankCtx
from repro.sim.engine import Engine, Proc
from repro.sim.memory import MemoryMeter
from repro.sim.network import MachineSpec, NetFabric
from repro.sim.profiler import Profiler
from repro.sim.sync import Channel, SimEvent

__all__ = [
    "Channel",
    "Cluster",
    "Engine",
    "MachineSpec",
    "MemoryMeter",
    "NetFabric",
    "Proc",
    "Profiler",
    "RankCtx",
    "SimEvent",
]
