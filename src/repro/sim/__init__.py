"""Discrete-event machine simulator: cores, interrupts, routing, DVFS, VMs."""

from repro.sim.events import MS, SEC, US, Event, EventQueue, SimulationClock
from repro.sim.frequency import FrequencyConfig, FrequencyTrace, IterationRateModel, TurboGovernor
from repro.sim.interrupts import (
    DEFAULT_LATENCIES,
    MOVABLE_TYPES,
    NON_MOVABLE_TYPES,
    PIGGYBACK_TYPES,
    HandlerLatencyModel,
    InterruptBatch,
    InterruptType,
    LatencySpec,
    is_movable,
)
from repro.sim.machine import (
    CoreIndexError,
    InterruptSynthesizer,
    MachineConfig,
    MachineRun,
)
from repro.sim.routing import (
    AffinitySourceRouting,
    PinnedRouting,
    RoutingPolicy,
    SoftirqPlacement,
    SpreadRouting,
)
from repro.sim.scheduler import SchedulerConfig
from repro.sim.timeline import CoreTimeline, GapTimeline, InterruptRecord, serialize_handlers
from repro.sim.vm import BARE_METAL, SEPARATE_VMS, VmConfig

__all__ = [
    "MS", "SEC", "US", "Event", "EventQueue", "SimulationClock",
    "FrequencyConfig", "FrequencyTrace", "IterationRateModel", "TurboGovernor",
    "DEFAULT_LATENCIES", "MOVABLE_TYPES", "NON_MOVABLE_TYPES", "PIGGYBACK_TYPES",
    "HandlerLatencyModel", "InterruptBatch", "InterruptType", "LatencySpec",
    "is_movable", "CoreIndexError", "InterruptSynthesizer", "MachineConfig",
    "MachineRun",
    "AffinitySourceRouting", "PinnedRouting", "RoutingPolicy",
    "SoftirqPlacement", "SpreadRouting", "SchedulerConfig", "CoreTimeline",
    "GapTimeline", "InterruptRecord", "serialize_handlers", "BARE_METAL",
    "SEPARATE_VMS", "VmConfig",
]
