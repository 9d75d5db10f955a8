"""Ready-made scenario builders: the walkthrough topologies, the attack
testbed, and the randomized churn scenarios, with seeded random delays,
used for convergence checking.

Port numbering convention: declared ports that no link references are
host-facing.  Chains give end switches a single port so the per-port
message formulas count inter-switch ports only.
"""
from __future__ import annotations

import random

from .core import (
    SEC,
    US,
    AttackDecl,
    AttackStart,
    BfdParams,
    ControlChannel,
    Link,
    LinkAdd,
    LinkRemove,
    PortRef,
    Protocol,
    ScenarioSpec,
    SwitchDecl,
    SwitchId,
    SwitchJoin,
    SwitchLeave,
    from_ms,
)

DEFAULT_BFD = BfdParams(interval=from_ms(1), multiplier=1)
DEFAULT_PERIOD = 1 * SEC
UNIFORM = from_ms(1)

# Random per-edge one-way delays are drawn from this band (whole ns).
DELAY_LO = 500 * US
DELAY_HI = 1500 * US


def _mac(dpid: int) -> str:
    return f"02:00:00:00:{(dpid >> 8) & 0xFF:02x}:{dpid & 0xFF:02x}"


def _switch(dpid: int, ports: int) -> SwitchDecl:
    return SwitchDecl(SwitchId(dpid, _mac(dpid)), ports)


def _uniform_channels(dpids, delay=UNIFORM):
    return tuple(ControlChannel(d, delay, delay) for d in dpids)


def _rand_delay(rng: random.Random) -> int:
    return rng.randint(DELAY_LO, DELAY_HI)


def _rand_channels(dpids, rng: random.Random):
    return tuple(ControlChannel(d, _rand_delay(rng), _rand_delay(rng))
                 for d in dpids)


# ---------------------------------------------------------------------------
# walkthrough topologies

def square(protocol: Protocol = Protocol.SOFTDP, timeline=(),
           bfd: BfdParams = DEFAULT_BFD) -> ScenarioSpec:
    """Four switches in a cycle, two inter-switch ports each, no hosts."""
    links = (
        Link(PortRef(1, 1), PortRef(2, 1), UNIFORM, UNIFORM),
        Link(PortRef(2, 2), PortRef(3, 1), UNIFORM, UNIFORM),
        Link(PortRef(3, 2), PortRef(4, 1), UNIFORM, UNIFORM),
        Link(PortRef(4, 2), PortRef(1, 2), UNIFORM, UNIFORM),
    )
    return ScenarioSpec(
        switches=tuple(_switch(d, 2) for d in (1, 2, 3, 4)),
        links=links,
        control_channels=_uniform_channels((1, 2, 3, 4)),
        bfd=bfd, protocol=protocol, discovery_period=DEFAULT_PERIOD,
        timeline=tuple(timeline))


def chain(n: int, protocol: Protocol = Protocol.SOFTDP, timeline=(),
          delay: int = UNIFORM) -> ScenarioSpec:
    """Linear chain; end switches expose one port, middles two, so every
    declared port is inter-switch."""
    if n < 2:
        raise ValueError("chain needs at least 2 switches")
    switches = tuple(_switch(i, 1 if i in (1, n) else 2) for i in range(1, n + 1))
    links = []
    for i in range(1, n):
        left = PortRef(i, 1 if i == 1 else 2)
        links.append(Link(left, PortRef(i + 1, 1), delay, delay))
    return ScenarioSpec(
        switches=switches, links=tuple(links),
        control_channels=_uniform_channels(range(1, n + 1)),
        bfd=DEFAULT_BFD, protocol=protocol, discovery_period=DEFAULT_PERIOD,
        timeline=tuple(timeline))


def mesh(n: int, protocol: Protocol = Protocol.SOFTDP) -> ScenarioSpec:
    """Full mesh; switch i reaches peer j through port j (or j-1 past
    itself), so every switch has n-1 inter-switch ports."""
    if n < 2:
        raise ValueError("mesh needs at least 2 switches")

    def port_toward(i: int, j: int) -> PortRef:
        return PortRef(i, j - 1 if j > i else j)

    links = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            links.append(Link(port_toward(i, j), port_toward(j, i),
                              UNIFORM, UNIFORM))
    return ScenarioSpec(
        switches=tuple(_switch(i, n - 1) for i in range(1, n + 1)),
        links=tuple(links),
        control_channels=_uniform_channels(range(1, n + 1)),
        bfd=DEFAULT_BFD, protocol=protocol, discovery_period=DEFAULT_PERIOD)


def empty_scenario(protocol: Protocol) -> ScenarioSpec:
    return ScenarioSpec(switches=(), links=(), control_channels=(),
                        bfd=DEFAULT_BFD, protocol=protocol,
                        discovery_period=DEFAULT_PERIOD)


def walkthrough(protocol: Protocol = Protocol.SOFTDP) -> ScenarioSpec:
    """The full event walkthrough on one timeline: a chain s1-s2-s3, then
    s4 joins completing a second path, s2 leaves, a direct s1-s3 link
    appears, and the s3-s4 link fails."""
    switches = (_switch(1, 3), _switch(2, 2), _switch(3, 3), _switch(4, 2))
    links = (
        Link(PortRef(1, 1), PortRef(2, 1), UNIFORM, UNIFORM),
        Link(PortRef(2, 2), PortRef(3, 1), UNIFORM, UNIFORM),
        Link(PortRef(1, 2), PortRef(4, 1), UNIFORM, UNIFORM),   # dead until s4 joins
        Link(PortRef(4, 2), PortRef(3, 2), UNIFORM, UNIFORM),   # dead until s4 joins
        Link(PortRef(1, 3), PortRef(3, 3), UNIFORM, UNIFORM, alive=False),
    )
    timeline = (
        SwitchJoin(1 * SEC, 4),
        SwitchLeave(2 * SEC, 2),
        LinkAdd(3 * SEC, PortRef(1, 3), PortRef(3, 3)),
        LinkRemove(4 * SEC, PortRef(4, 2), PortRef(3, 2)),
    )
    return ScenarioSpec(
        switches=switches, links=links,
        control_channels=_uniform_channels((1, 2, 3, 4)),
        bfd=DEFAULT_BFD, protocol=protocol, discovery_period=DEFAULT_PERIOD,
        timeline=timeline)


def adaptation_scenario(protocol: Protocol = Protocol.SOFTDP) -> ScenarioSpec:
    """Square plus a dormant diagonal that comes up mid-run: the new
    one-hop primary triggers group installs at both endpoints."""
    base = square(protocol)
    switches = (_switch(1, 3), _switch(2, 2), _switch(3, 3), _switch(4, 2))
    links = base.links + (
        Link(PortRef(1, 3), PortRef(3, 3), UNIFORM, UNIFORM, alive=False),)
    return ScenarioSpec(
        switches=switches, links=links,
        control_channels=base.control_channels,
        bfd=base.bfd, protocol=protocol, discovery_period=DEFAULT_PERIOD,
        timeline=(LinkAdd(1 * SEC, PortRef(1, 3), PortRef(3, 3)),))


def failover_scenario(protocol: Protocol = Protocol.SOFTDP) -> ScenarioSpec:
    """Square losing one edge of the s1..s3 primary path mid-run; pair
    traffic must switch to the other side of the cycle."""
    return square(protocol, timeline=(
        LinkRemove(1 * SEC, PortRef(1, 1), PortRef(2, 1)),))


# ---------------------------------------------------------------------------
# attack testbed

def testbed_chain(protocol: Protocol, timeline=()) -> ScenarioSpec:
    """Three-switch chain with a host hanging off each end switch: the
    compromised-host attack surface."""
    links = (
        Link(PortRef(1, 1), PortRef(2, 1), UNIFORM, UNIFORM),
        Link(PortRef(2, 2), PortRef(3, 1), UNIFORM, UNIFORM),
    )
    return ScenarioSpec(
        switches=(_switch(1, 2), _switch(2, 2), _switch(3, 2)),
        links=links,
        control_channels=_uniform_channels((1, 2, 3)),
        bfd=DEFAULT_BFD, protocol=protocol, discovery_period=DEFAULT_PERIOD,
        timeline=tuple(timeline))


H1 = PortRef(1, 2)   # host-facing port on s1
H2 = PortRef(3, 2)   # host-facing port on s3


def attack_scenario(kind: str, protocol: Protocol, *,
                    in_window: bool = False) -> ScenarioSpec:
    """Two-host testbed with one attack on the timeline.  ``in_window``
    starts the window-racing variants while the boot-time 500 ms LLDP
    windows are still open."""
    if kind == "spoof":
        attack = AttackDecl("spoof", {"observe": H1, "duration": "3s"})
        at = 0
    elif kind == "inject":
        attack = AttackDecl("inject", {
            "inject": H1, "victim_port": H2, "count": 3, "spacing": "500ms"})
        at = from_ms(100) if in_window else 1 * SEC
    elif kind == "relay":
        attack = AttackDecl("relay", {
            "observe": H1, "inject": H2, "observe_b": H2, "inject_b": H1,
            "tunnel_delay": "1ms", "duration": "3s"})
        at = 0 if in_window else 1 * SEC
    elif kind == "flood":
        attack = AttackDecl("flood", {
            "inject": H1, "rate": 10000, "duration": "1s"})
        at = from_ms(100) if in_window else 1 * SEC
    elif kind == "fingerprint":
        attack = AttackDecl("fingerprint", {"observe": H1, "duration": "3500ms"})
        at = 0
    else:
        raise ValueError(f"unknown attack kind {kind!r}")
    return testbed_chain(protocol, timeline=(AttackStart(at, attack),))


# ---------------------------------------------------------------------------
# randomized churn

def random_scenario(seed: int, n_switches: int = 0,
                    n_events: int = 50) -> ScenarioSpec:
    """Connected random topology with random delays and a timeline of
    link/switch churn, one event per second.  Event feasibility is
    tracked while generating (only live links fail, only dead links with
    both ends present come up, and so on)."""
    rng = random.Random(seed)
    n = n_switches or rng.randint(8, 30)
    dpids = list(range(1, n + 1))

    # spanning tree first, then extra edges for cycles
    edges: set[tuple[int, int]] = set()
    order = dpids[:]
    rng.shuffle(order)
    for i, v in enumerate(order[1:], start=1):
        u = rng.choice(order[:i])
        edges.add((min(u, v), max(u, v)))
    extra = rng.randint(n // 4, max(1, n // 2))
    for _ in range(extra * 3):
        if len(edges) >= n - 1 + extra:
            break
        u, v = rng.sample(dpids, 2)
        edges.add((min(u, v), max(u, v)))

    degree = {d: 0 for d in dpids}
    port_of: dict[tuple[int, int], PortRef] = {}
    links = []
    for (u, v) in sorted(edges):
        degree[u] += 1
        degree[v] += 1
        pu, pv = PortRef(u, degree[u]), PortRef(v, degree[v])
        port_of[(u, v)] = pu
        port_of[(v, u)] = pv
        links.append(Link(pu, pv, _rand_delay(rng), _rand_delay(rng)))

    alive = {l.key() for l in links}
    dead: set = set()
    present = set(dpids)
    link_by_key = {l.key(): l for l in links}
    timeline = []
    for k in range(1, n_events + 1):
        at = k * SEC
        choices = []
        if alive:
            choices.append("remove")
        feasible_adds = [key for key in sorted(dead)
                         if key[0].dpid in present and key[1].dpid in present]
        if feasible_adds:
            choices.append("add")
        if len(present) > 2:
            choices.append("leave")
        absent = sorted(set(dpids) - present)
        if absent:
            choices.append("join")
        kind = rng.choice(choices)
        if kind == "remove":
            key = rng.choice(sorted(alive))
            alive.discard(key)
            dead.add(key)
            timeline.append(LinkRemove(at, key[0], key[1]))
        elif kind == "add":
            key = rng.choice(feasible_adds)
            dead.discard(key)
            alive.add(key)
            timeline.append(LinkAdd(at, key[0], key[1]))
        elif kind == "leave":
            d = rng.choice(sorted(present))
            present.discard(d)
            for key in sorted(alive):
                if key[0].dpid == d or key[1].dpid == d:
                    alive.discard(key)
                    dead.add(key)
            timeline.append(SwitchLeave(at, d))
        else:
            d = rng.choice(absent)
            present.add(d)
            # joining re-activates links whose peer is present
            for key in sorted(dead):
                if d in (key[0].dpid, key[1].dpid) and \
                        key[0].dpid in present and key[1].dpid in present:
                    dead.discard(key)
                    alive.add(key)
            timeline.append(SwitchJoin(at, d))

    return ScenarioSpec(
        switches=tuple(_switch(d, degree[d]) for d in dpids),
        links=tuple(links),
        control_channels=_rand_channels(dpids, rng),
        bfd=DEFAULT_BFD, protocol=Protocol.SOFTDP,
        discovery_period=DEFAULT_PERIOD,
        timeline=tuple(timeline), rng_seed=seed)


BUILDERS = {
    "square": lambda: square(),
    "chain4": lambda: chain(4),
    "testbed": lambda: testbed_chain(Protocol.OFDP),
    "walkthrough": lambda: walkthrough(),
    "adaptation": lambda: adaptation_scenario(),
    "failover": lambda: failover_scenario(),
}
