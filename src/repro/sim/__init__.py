"""Virtual-time simulation substrate: clock, scheduler, faults, world."""

from repro.sim.clock import Clock
from repro.sim.events import ScheduledEvent, Scheduler
from repro.sim.faults import Fault, FaultPlan
from repro.sim.random import RngFactory
from repro.sim.world import World

__all__ = [
    "Clock",
    "Scheduler",
    "ScheduledEvent",
    "Fault",
    "FaultPlan",
    "RngFactory",
    "World",
]
