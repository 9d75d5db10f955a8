"""topodisc: deterministic discrete-event simulation of SDN topology
discovery.  Implements an event-driven protocol (BFD liveness + windowed,
hashed LLDP) next to the periodic OFDP and OFDPv2 baselines, with timing
predictors, an adversary harness and a CLI."""

from .core import (  # noqa: F401
    MS,
    NS,
    SEC,
    US,
    BfdParams,
    ControlChannel,
    Link,
    LldpFrame,
    PortRef,
    Protocol,
    ScenarioSpec,
    SimTime,
    SwitchDecl,
    SwitchId,
    decode_scenario,
    encode_scenario,
    validate_scenario,
)

__version__ = "0.1.0"
