"""Controller-side discovery engines and the topology memory.

Three engines share one controller shell.  The event-driven engine
(sOFTDP) reacts to PORT_STATUS and BFD_STATUS, confines hashed LLDP
exchanges to short per-port windows, and keeps primary/backup path tags
with fast-failover groups pushed to the path endpoints.  The two baseline
engines rediscover the whole fabric every period with cleartext LLDP:
one PACKET_OUT per port (classic), or one per switch with switch-side
replication (the v2 optimization).

The controller is a passive event handler bound to injected services
(now / send_control / schedule / record); the harness owns the clock.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import inf
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import (
    CONTROLLER,
    WINDOW_RULE_PRIORITY,
    BfdStatusBody,
    ControlMessage,
    FeatureReplyBody,
    FlowModBody,
    GroupBucket,
    GroupModBody,
    LldpFrame,
    MsgKind,
    PacketInBody,
    PacketOutBody,
    PortRef,
    PortStatusBody,
    Protocol,
    ScenarioSpec,
    SwitchId,
    link_key,
    mac_bytes,
)

DEFAULT_PRODUCT = b"aster-ctl/2.1"

DIGEST_LEN = 16
NONCE_LEN = 8


class IdentityHasher:
    """Salted digests for every identity field that leaves the controller
    in an LLDP frame, plus per-probe nonces.  The salt is derived from the
    scenario seed so two scenarios hash the same chassis differently."""

    def __init__(self, salt: bytes):
        self.salt = salt
        self._nonce_counter = 0

    def digest(self, data: bytes) -> bytes:
        return hashlib.sha256(self.salt + b"|" + data).digest()[:DIGEST_LEN]

    def next_nonce(self) -> bytes:
        self._nonce_counter += 1
        payload = self.salt + b"|nonce|" + str(self._nonce_counter).encode()
        return hashlib.sha256(payload).digest()[:NONCE_LEN]

    @classmethod
    def from_seed(cls, seed: int) -> "IdentityHasher":
        return cls(hashlib.sha256(b"scenario-salt|" + str(seed).encode()).digest())


@dataclass
class PendingWindow:
    port: PortRef
    nonce: bytes
    timer: object = None  # the scheduled expiry


@dataclass(frozen=True)
class PathTags:
    primary: tuple[int, ...]
    backups: tuple[tuple[int, ...], ...] = ()

    def edges(self) -> set[tuple[int, int]]:
        """Switch edges, as (low, high) dpid pairs, that the primary or a
        backup crosses."""
        return {(u, v) if u < v else (v, u)
                for path in (self.primary, *self.backups)
                for u, v in zip(path, path[1:])}

    @property
    def limit(self) -> int:
        """Hop count of the backup, or of the primary without one.  A
        walk through a changed edge no longer than this can shorten or
        re-tie either path."""
        return len((self.backups or (self.primary,))[0]) - 1


@dataclass
class RegisteredSwitch:
    id: SwitchId
    port_count: int
    ports_up_at_join: tuple[int, ...]


class TopologyMap:
    """What the controller believes about the fabric: present switches,
    directed confirmed links, and per-pair path tags.

    Links change only through ``add_link``/``remove_link`` and tags only
    through ``set_tags``/``drop_tags``, which keep the indexes below in
    step, so every lookup here costs the degree of a switch, not the
    size of the map."""

    def __init__(self) -> None:
        self.switches: dict[int, SwitchId] = {}
        self.directed_links: set[tuple[PortRef, PortRef]] = set()
        self.path_tags: dict[tuple[int, int], PathTags] = {}
        self.safe_to_remove: set[tuple[PortRef, PortRef]] = set()
        # switch -> the directed links touching it
        self._touching: dict[int, set[tuple[PortRef, PortRef]]] = {}
        # switch -> neighbour switch -> its links to that neighbour that
        # are confirmed in both directions, as (own port, far port); a
        # neighbour stays while one of several parallel links remains
        self.adj: dict[int, dict[int, set[tuple[PortRef, PortRef]]]] = {}
        # switch edge -> tagged pairs whose primary or backup crosses it
        self.pairs_on: dict[tuple[int, int], set[tuple[int, int]]] = {}
        # switch -> tag limit -> the switches it shares a tag of that limit with
        self.partners: dict[int, dict[int, set[int]]] = {}

    def has_link(self, a: PortRef, b: PortRef) -> bool:
        return (a, b) in self.directed_links

    def bidirectional(self, a: PortRef, b: PortRef) -> bool:
        return (a, b) in self.directed_links and (b, a) in self.directed_links

    def add_link(self, a: PortRef, b: PortRef) -> bool:
        """Record the directed link a -> b; False when it was known."""
        if (a, b) in self.directed_links:
            return False
        self.directed_links.add((a, b))
        for dpid in {a.dpid, b.dpid}:
            self._touching.setdefault(dpid, set()).add((a, b))
        if (b, a) in self.directed_links:
            for p, q in ((a, b), (b, a)):
                self.adj.setdefault(p.dpid, {}).setdefault(q.dpid, set()).add((p, q))
        return True

    def remove_link(self, a: PortRef, b: PortRef) -> bool:
        """Forget the directed link a -> b; False when it was unknown."""
        if (a, b) not in self.directed_links:
            return False
        self.directed_links.remove((a, b))
        for dpid in {a.dpid, b.dpid}:
            links = self._touching[dpid]
            links.remove((a, b))
            if not links:
                del self._touching[dpid]
        if (b, a) in self.directed_links:
            for p, q in ((a, b), (b, a)):
                hops = self.adj[p.dpid]
                hops[q.dpid].remove((p, q))
                if not hops[q.dpid]:
                    del hops[q.dpid]
                    if not hops:
                        del self.adj[p.dpid]
        return True

    def links_touching(self, port: PortRef) -> list[tuple[PortRef, PortRef]]:
        return sorted(l for l in self._touching.get(port.dpid, ()) if port in l)

    def links_of_switch(self, dpid: int) -> list[tuple[PortRef, PortRef]]:
        return sorted(self._touching.get(dpid, ()))

    def first_hop_port(self, src: int, nxt: int) -> Optional[PortRef]:
        """Lowest port of switch ``src`` on a link to switch ``nxt`` that is
        confirmed in both directions; None when there is no such link."""
        links = self.adj.get(src, {}).get(nxt)
        return min(links)[0] if links else None

    def set_tags(self, pair: tuple[int, int], tags: PathTags) -> None:
        old = self.path_tags.get(pair)
        self.path_tags[pair] = tags
        self._reindex(pair, old, tags)

    def drop_tags(self, pair: tuple[int, int]) -> None:
        self._reindex(pair, self.path_tags.pop(pair), None)

    def _reindex(self, pair: tuple[int, int], old: Optional[PathTags],
                 new: Optional[PathTags]) -> None:
        """Move ``pair`` in the tag indexes from tag ``old`` to ``new``."""
        before = old.edges() if old else set()
        after = new.edges() if new else set()
        for edge in after - before:
            self.pairs_on.setdefault(edge, set()).add(pair)
        for edge in before - after:
            pairs = self.pairs_on[edge]
            pairs.remove(pair)
            if not pairs:
                del self.pairs_on[edge]
        if old and new and old.limit == new.limit:
            return
        for x, y in (pair, pair[::-1]):
            if old:
                by_limit = self.partners[x]
                by_limit[old.limit].remove(y)
                if not by_limit[old.limit]:
                    del by_limit[old.limit]
                    if not by_limit:
                        del self.partners[x]
            if new:
                self.partners.setdefault(x, {}).setdefault(new.limit, set()).add(y)

    def dump(self) -> str:
        lines = ["switches: " + (", ".join(
            f"s{d}" for d in sorted(self.switches)) or "(none)")]
        for a, b in sorted(self.directed_links):
            lines.append(f"link {a} -> {b}")
        for (x, y) in sorted(self.path_tags):
            t = self.path_tags[(x, y)]
            prim = "-".join(f"s{d}" for d in t.primary)
            lines.append(f"pair s{x}<->s{y} primary {prim}")
            for bk in t.backups:
                lines.append(f"pair s{x}<->s{y} backup  "
                             + "-".join(f"s{d}" for d in bk))
        for a, b in sorted(self.safe_to_remove):
            lines.append(f"safe-to-remove {a} <-> {b}")
        return "\n".join(lines)


def _both_ways(links: Iterable[tuple[PortRef, PortRef]]) -> list:
    """Each directed link followed by its reverse, in the given order."""
    return [entry for (a, b) in links for entry in ((a, b), (b, a))]


class Controller:
    """Single controller instance for one scenario run."""

    def __init__(self, spec: ScenarioSpec, services,
                 product: bytes = DEFAULT_PRODUCT):
        self.spec = spec
        self.services = services
        self.protocol = spec.protocol
        self.product = product
        self.map = TopologyMap()
        self.registry: dict[int, RegisteredSwitch] = {}
        self.mac_to_dpid: dict[str, int] = {}
        self.hasher = IdentityHasher.from_seed(spec.rng_seed)
        self.counters: Counter = Counter()
        self.te_override = False
        self.link_learned_hook: Optional[Callable] = None

        # Each open window is in both maps; _close_window takes it out of
        # both.  A rotated-out nonce stays superseded for one window length.
        self.windows: dict[PortRef, PendingWindow] = {}
        self._window_of_nonce: dict[bytes, PendingWindow] = {}
        self._superseded: set[bytes] = set()
        self.port_epoch: dict[PortRef, int] = {}

        self._await_boot: set[int] = {d for d in spec.initially_present()}
        self.bootstrap_done = False
        self.round_no = 0
        self._last_confirm: dict[tuple[PortRef, PortRef], int] = {}
        # bridges, edges and component labels of the graph the last
        # retag saw
        self._bridges: set[tuple[int, int]] = set()
        self._edges: set[tuple[int, int]] = set()
        self._comp: dict[int, int] = {}
        self._sent_groups: dict[tuple[int, int], tuple] = {}

    # -- plumbing ----------------------------------------------------------
    @property
    def suspicious(self) -> int:
        return self.counters["suspicious"]

    def _send(self, kind: MsgKind, dpid: int, body) -> None:
        self.services.send_control(
            ControlMessage(kind=kind, src=CONTROLLER, dst=dpid, body=body))

    def accept_switch_session(self, claimed_chassis: bytes) -> bool:
        """Admission check for a chassis identity presented by a connecting
        datapath.  Accepts only a well-formed MAC that belongs to a known
        switch, so a captured hashed identity is useless to an impostor."""
        try:
            mac = claimed_chassis.decode("ascii")
        except UnicodeDecodeError:
            return False
        return mac in self.mac_to_dpid

    # -- top-level dispatch ------------------------------------------------
    def handle(self, msg: ControlMessage) -> None:
        if msg.kind is MsgKind.HELLO:
            self._send(MsgKind.HELLO, msg.src, None)
            self._send(MsgKind.FEATURE_REQUEST, msg.src, None)
        elif msg.kind is MsgKind.FEATURE_REPLY:
            self._register(msg.body)
        elif msg.kind is MsgKind.PACKET_IN:
            if self.protocol is Protocol.SOFTDP:
                self._packet_in_event_driven(msg.body)
            else:
                self._packet_in_baseline(msg.body)
        elif msg.kind is MsgKind.PORT_STATUS:
            if self.protocol is Protocol.SOFTDP:
                self.on_port_status(msg.body)
            else:
                self.counters["ignored_port_status"] += 1
        elif msg.kind is MsgKind.BFD_STATUS:
            if self.protocol is Protocol.SOFTDP:
                self.on_bfd_status(msg.body)
            else:
                self.counters["ignored_bfd_status"] += 1
        else:
            self.counters["protocol_error"] += 1
            self.services.record("protocol_error", msg=msg.kind.name, src=msg.src)

    # -- registration and bootstrap ---------------------------------------
    def _register(self, body: FeatureReplyBody) -> None:
        sid = SwitchId(body.dpid, body.local_mac)
        self.registry[body.dpid] = RegisteredSwitch(sid, body.port_count,
                                                    body.ports_up)
        self.mac_to_dpid[body.local_mac] = body.dpid
        # the topology map only lists a switch once a learned link touches
        # it; registration alone keeps session state in the registry
        self.services.record("switch_registered", dpid=body.dpid,
                             ports_up=list(body.ports_up))
        if not self.bootstrap_done:
            self._boot_settled(body.dpid)
        elif self.protocol is Protocol.SOFTDP:
            # PORT_STATUS sent before the FEATURE_REPLY was refused
            self._probe_ports_up(body.dpid)

    def _boot_settled(self, dpid: int) -> None:
        """Stop waiting for a boot switch that registered or left."""
        self._await_boot.discard(dpid)
        if not self._await_boot:
            self._bootstrap()

    def _probe_ports_up(self, dpid: int) -> int:
        ports_up = self.registry[dpid].ports_up_at_join
        for port_no in ports_up:
            port = PortRef(dpid, port_no)
            self.port_epoch.setdefault(port, 1)
            self._probe(port)
        return len(ports_up)

    def _bootstrap(self) -> None:
        self.bootstrap_done = True
        if self.protocol is Protocol.SOFTDP:
            probes = sum(self._probe_ports_up(dpid) for dpid in sorted(self.registry))
            self.services.record("bootstrap_dispatch",
                                 protocol=self.protocol.value, probes=probes)
        else:
            self.services.record("bootstrap_dispatch",
                                 protocol=self.protocol.value, probes=0)
            self._dispatch_round()

    # -- windows and probes ------------------------------------------------
    def _close_window(self, window: PendingWindow, event: str) -> None:
        """The one way a window ends: expiry, consumption, rotation and
        port-down all come here, with the trace record to write."""
        del self.windows[window.port]
        del self._window_of_nonce[window.nonce]
        window.timer.cancel()
        self.services.record(event, port=str(window.port))

    def _probe(self, port: PortRef) -> None:
        """Open a fresh window on ``port``, rotating out any open one, and
        send the probe carrying its nonce."""
        old = self.windows.get(port)
        if old is not None:
            # Returns for the rotated-out probe are no longer acceptable,
            # but they are our own traffic, not an attack: remember the
            # nonce so the late return is discarded quietly.
            self._superseded.add(old.nonce)
            self.services.schedule(self.spec.lldp_window, "superseded_purge",
                                   lambda: self._superseded.discard(old.nonce))
            self._close_window(old, "window_rotated")
        window = PendingWindow(port, self.hasher.next_nonce())
        self.windows[port] = self._window_of_nonce[window.nonce] = window
        window.timer = self.services.schedule(
            self.spec.lldp_window, "window_expiry",
            lambda: self._close_window(window, "window_expired"))
        self.services.record("window_open", port=str(port))
        reg = self.registry[port.dpid]
        frame = LldpFrame(
            chassis_id=self.hasher.digest(mac_bytes(reg.id.local_mac)),
            port_id=self.hasher.digest(str(port).encode()),
            system_description=self.hasher.digest(self.product),
            nonce=window.nonce)
        self._send(MsgKind.PACKET_OUT, port.dpid, PacketOutBody(port, frame))

    # -- event-driven engine ----------------------------------------------
    def on_port_status(self, body: PortStatusBody) -> None:
        port = body.port
        if port.dpid not in self.registry:
            self.counters["protocol_error"] += 1
            self.services.record("protocol_error", msg="PORT_STATUS",
                                 src=port.dpid)
            return
        self.port_epoch[port] = max(self.port_epoch.get(port, 0), body.epoch)
        if body.up:
            # The reporting switch armed its own window rule at the carrier
            # transition; this FLOW_MOD re-asserts it so a switch with a
            # wiped table still forwards the probe.
            self._send(MsgKind.FLOW_MOD, port.dpid, FlowModBody(
                dpid=port.dpid, priority=WINDOW_RULE_PRIORITY, match_ingress=port,
                action=("to_controller",), hard_timeout=self.spec.lldp_window))
            self._probe(port)
            # A link needs confirming probes in both directions, and its
            # far end may have reported earlier.  Re-arm every other open
            # window so all pending confirmations restart from the latest
            # report: learning completes at max(report) + probe round trip.
            for other in sorted(p for p in self.windows if p != port):
                self._probe(other)
        else:
            removed = self.map.links_touching(port)
            if removed:
                self._remove_links(_both_ways(removed), cause="port_down")
            if port in self.windows:
                self._close_window(self.windows[port], "window_expired")

    def _packet_in_event_driven(self, body: PacketInBody) -> None:
        frame = body.frame
        if not isinstance(frame, LldpFrame):
            self.counters["ignored_data_packet_in"] += 1
            return
        if frame.nonce in self._superseded:
            self._superseded.remove(frame.nonce)
            self.counters["superseded_probe"] += 1
            self.services.record("superseded_probe_return", port=str(body.ingress))
            return
        window = self._window_of_nonce.get(frame.nonce)
        if window is None:
            self.counters["suspicious"] += 1
            self.services.record("suspicious_packet_in",
                                 reason="no_open_window_for_nonce",
                                 ingress=str(body.ingress))
            return
        egress, ingress = window.port, body.ingress
        if (ingress.dpid == egress.dpid
                or ingress.dpid not in self.registry
                or not 1 <= ingress.port_no <= self.registry[ingress.dpid].port_count):
            self.counters["suspicious"] += 1
            self.services.record("suspicious_packet_in",
                                 reason="implausible_ingress",
                                 ingress=str(ingress))
            return
        self._close_window(window, "window_consumed")
        self._learn_directed(egress, ingress)

    def _learn_directed(self, egress: PortRef, ingress: PortRef) -> None:
        if not self.map.add_link(egress, ingress):
            return
        for dpid in (egress.dpid, ingress.dpid):
            if dpid not in self.map.switches and dpid in self.registry:
                self.map.switches[dpid] = self.registry[dpid].id
        self.services.record("map_add_link", egress=str(egress),
                             ingress=str(ingress))
        if self.map.has_link(ingress, egress):
            a, b = link_key(egress, ingress)
            self.services.record("map_link_bidirectional", a=str(a), b=str(b))
            if self.protocol is Protocol.SOFTDP:
                # the baselines keep no path tags, so a learned link has no
                # group updates to wait for and no adaptation to report
                sends = self.retag_paths([(a, b)])
                if self.link_learned_hook is not None:
                    self.link_learned_hook((a, b), sends)

    def on_bfd_status(self, body: BfdStatusBody) -> None:
        port = body.port
        reg = self.registry.get(port.dpid)
        if reg is None or not 1 <= port.port_no <= reg.port_count:
            self.counters["suspicious"] += 1
            self.services.record("suspicious_bfd_status", port=str(port))
            return
        if body.epoch < self.port_epoch.get(port, 0):
            self.counters["stale_bfd_status"] += 1
            self.services.record("stale_bfd_status", port=str(port),
                                 epoch=body.epoch)
            return
        touching = self.map.links_touching(port)
        if not touching:
            self.counters["redundant_bfd_status"] += 1
            self.services.record("redundant_bfd_status", port=str(port))
            return
        self._remove_links(_both_ways(touching), cause="bfd")

    def _remove_links(self, directed: Iterable[tuple[PortRef, PortRef]],
                      cause: str) -> None:
        """Remove exactly the given directed entries, drop switches that
        lost their last link, then retag."""
        removed_keys = set()
        for entry in directed:
            if self.map.remove_link(*entry):
                self._last_confirm.pop(entry, None)
                self.services.record("map_remove_link", egress=str(entry[0]),
                                     ingress=str(entry[1]), cause=cause)
            removed_keys.add(link_key(*entry))
        for key in sorted(removed_keys):
            self.map.safe_to_remove.discard(key)
        for dpid in sorted({p.dpid for pair in removed_keys for p in pair}):
            if dpid in self.map.switches and not self.map.links_of_switch(dpid):
                del self.map.switches[dpid]
                self.services.record("map_remove_switch", dpid=dpid, cause=cause)
        self.retag_paths(sorted(removed_keys))

    def on_channel_closed(self, dpid: int) -> None:
        """Graceful teardown: the control session for a switch went away,
        so the switch and everything attached to it leaves the map.  A
        switch is in the map only while a link touches it, so removing its
        links removes the switch too."""
        if dpid in self._await_boot:
            self._boot_settled(dpid)
        links = self.map.links_of_switch(dpid)
        if links:
            self._remove_links(_both_ways(links), cause="channel_closed")

    # -- baseline engines --------------------------------------------------
    def _cleartext_frame(self, reg: RegisteredSwitch, port: Optional[PortRef]) -> LldpFrame:
        return LldpFrame(
            chassis_id=reg.id.local_mac.encode(),
            port_id=str(port).encode() if port is not None else b"",
            system_description=self.product)

    def _dispatch_round(self) -> None:
        r = self.round_no
        stale = sorted(l for l, c in self._last_confirm.items() if c < r - 1)
        if stale:
            # only the direction that went unconfirmed is pruned
            self._remove_links(stale, cause="round_prune")
        packet_outs = 0
        for dpid in sorted(self.registry):
            reg = self.registry[dpid]
            if self.protocol is Protocol.OFDP:
                for port_no in range(1, reg.port_count + 1):
                    port = PortRef(dpid, port_no)
                    self._send(MsgKind.PACKET_OUT, dpid,
                               PacketOutBody(port, self._cleartext_frame(reg, port)))
                    packet_outs += 1
            else:
                self._send(MsgKind.PACKET_OUT, dpid,
                           PacketOutBody(None, self._cleartext_frame(reg, None)))
                packet_outs += 1
        self.services.record("round_dispatch", protocol=self.protocol.value,
                             round=r, packet_outs=packet_outs)
        self.round_no = r + 1
        self.services.schedule(self.spec.discovery_period, "discovery_round",
                               self._dispatch_round)

    def _packet_in_baseline(self, body: PacketInBody) -> None:
        frame = body.frame
        if not isinstance(frame, LldpFrame):
            self.counters["ignored_data_packet_in"] += 1
            return
        try:
            mac = frame.chassis_id.decode("ascii")
        except UnicodeDecodeError:
            self.counters["suspicious"] += 1
            self.services.record("suspicious_packet_in", reason="unreadable_chassis",
                                 ingress=str(body.ingress))
            return
        dpid = self.mac_to_dpid.get(mac)
        if dpid is None:
            self.counters["suspicious"] += 1
            self.services.record("suspicious_packet_in", reason="unknown_chassis",
                                 ingress=str(body.ingress))
            return
        try:
            egress = PortRef.parse(frame.port_id.decode("ascii"))
        except (ValueError, UnicodeDecodeError):
            self.counters["suspicious"] += 1
            self.services.record("suspicious_packet_in", reason="unreadable_port",
                                 ingress=str(body.ingress))
            return
        if egress.dpid != dpid:
            self.counters["suspicious"] += 1
            self.services.record("suspicious_packet_in", reason="chassis_port_mismatch",
                                 ingress=str(body.ingress))
            return
        self._last_confirm[(egress, body.ingress)] = self.round_no - 1
        self._learn_directed(egress, body.ingress)

    # -- path tagging ------------------------------------------------------
    @staticmethod
    def _bfs(adj: dict, src: int) -> dict[int, int]:
        """Hop counts from ``src``, inserted in nondecreasing order."""
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for n in adj.get(v, ()):
                    if n not in dist:
                        dist[n] = dist[v] + 1
                        nxt.append(n)
            frontier = nxt
        return dist

    @staticmethod
    def _bridges_and_components(adj: dict) -> tuple[set[tuple[int, int]], dict[int, int]]:
        """Edges whose removal disconnects their component (iterative
        low-link computation), and each switch's component, labelled by
        the switch its search started from."""
        visited: dict[int, int] = {}
        low: dict[int, int] = {}
        comp: dict[int, int] = {}
        bridges: set[tuple[int, int]] = set()
        counter = 0
        for root in adj:
            if root in visited:
                continue
            stack = [(root, None, iter(adj[root]))]
            visited[root] = low[root] = counter
            comp[root] = root
            counter += 1
            while stack:
                v, parent, children = stack[-1]
                advanced = False
                for n in children:
                    if n not in visited:
                        visited[n] = low[n] = counter
                        comp[n] = root
                        counter += 1
                        stack.append((n, v, iter(adj[n])))
                        advanced = True
                        break
                    if n != parent:
                        low[v] = min(low[v], visited[n])
                if advanced:
                    continue
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > visited[parent]:
                        bridges.add((parent, v) if parent < v else (v, parent))
        return bridges, comp

    def _lex_min_shortest(self, a: int, b: int, dist_from_b: dict,
                          step: dict) -> tuple[int, ...]:
        """Among all shortest a-b paths, the one whose switch-id sequence
        is lexicographically smallest: always step to the smallest
        neighbor one hop closer to b.  ``step`` memoizes those steps."""
        path = [a]
        while a != b:
            a = step.get(a) or self._step(a, dist_from_b, step)
            path.append(a)
        return tuple(path)

    def _step(self, v: int, dist_from_b: dict, step: dict) -> int:
        """Memoize and return v's smallest neighbour one hop closer to b."""
        k = dist_from_b[v] - 1
        step[v] = min(n for n in self.map.adj[v] if dist_from_b[n] == k)
        return step[v]

    def _backup_path(self, primary: tuple[int, ...], dist_from_b: dict,
                     step: dict, detours: dict,
                     bridges: set) -> Optional[tuple[int, ...]]:
        """Shortest alternative to ``primary`` that avoids its first edge
        whose removal keeps its ends connected, lexicographically
        smallest among equals; None when the primary is the only path
        (every primary edge is a bridge).  The primary up to that edge
        is bridges that every path crosses, so the alternative is that
        stretch plus a detour from the edge's near end, which
        ``detours`` shares between the pairs with the same far end."""
        for i, (p, q) in enumerate(zip(primary, primary[1:])):
            if ((p, q) if p < q else (q, p)) not in bridges:
                break
        else:
            return None
        if p not in detours:
            detours[p] = self._detour(p, q, primary[-1], dist_from_b, step)
        return primary[:i] + detours[p]

    def _detour(self, p: int, q: int, b: int, dist_from_b: dict,
                step: dict) -> tuple[int, ...]:
        """The lexicographically smallest shortest p-b path without the
        edge p-q, where q is one hop closer to b than p.

        Without that edge only the switches all of whose shortest routes
        to b cross it, the cut, get farther from b; every other distance
        stands, and so does every step toward b that neither leaves nor
        enters the cut.  The cut is found level by level outward from p,
        and only as far as the walk from p can need it: p's own level
        when p keeps its distance, otherwise while the cut's new
        distances are settled from its intact neighbours in increasing
        order, until p's is."""
        adj, dist = self.map.adj, dist_from_b
        cut: set[int] = set()
        settled: dict[int, int] = {}     # new distances within the cut
        heap: list[tuple[int, int]] = []
        level, top = [p], dist[p]        # the candidates at level `top`

        def classify() -> None:
            nonlocal level, top
            new = [v for v in level
                   if all(n in cut for n in adj[v]
                          if dist[n] == top - 1 and (v, n) != (p, q))]
            cut.update(new)
            for v in new:
                for n in adj[v]:
                    if n in settled:
                        heappush(heap, (settled[n] + 1, v))
                    elif n not in cut and dist[n] <= top and (v, n) != (p, q):
                        heappush(heap, (dist[n] + 1, v))
            for w in level:
                if w not in cut:
                    # an intact switch one level above the cut
                    for n in adj[w]:
                        if n in cut and dist[n] == top - 1:
                            heappush(heap, (top + 1, n))
            level = {n for v in new for n in adj[v] if dist[n] == top + 1}
            top += 1

        classify()
        while p in cut and p not in settled:
            # a distance d settles only once every level below d is known
            while level and (not heap or heap[0][0] > top):
                classify()
            d, v = heappop(heap)
            if v not in settled:
                settled[v] = d
                for n in adj[v]:
                    if n in cut and n not in settled:
                        heappush(heap, (d + 1, n))
        path = [p]
        cur = p
        while cur != b:
            nxt = None if cur in cut else step.get(cur) or self._step(cur, dist, step)
            if nxt is None or nxt in cut or (cur, nxt) == (p, q):
                k = (settled[cur] if cur in cut else dist[cur]) - 1
                nxt = min(n for n in adj[cur]
                          if (settled.get(n, -1) if n in cut else dist[n]) == k
                          and (cur, n) != (p, q))
            path.append(nxt)
            cur = nxt
        return tuple(path)

    def _newly_connected(self, comp: dict[int, int]) -> set[tuple[int, int]]:
        """Pairs in one component now that were in different components,
        or not in the graph, at the last retag."""
        groups: dict[int, dict] = {}
        for v, root in comp.items():
            # a switch the last retag did not see is a group of its own
            groups.setdefault(root, {}).setdefault(
                self._comp.get(v, (v,)), []).append(v)
        pairs = set()
        for parts in groups.values():
            for xs, ys in combinations(parts.values(), 2):
                pairs.update((x, y) if x < y else (y, x) for x in xs for y in ys)
        return pairs

    def _walk_hits(self, du: dict, dv: dict) -> set[tuple[int, int]]:
        """Tagged pairs (x, y) with a walk x..u-v..y no longer than their
        tag's limit, given the hop counts from the edge's ends u and v."""
        balls: list[set] = []       # balls[k]: switches within k hops of v
        for n, k in dv.items():
            if k == len(balls):
                balls.append(set(balls[-1]) if balls else set())
            balls[k].add(n)
        hits = set()
        for x, dx in du.items():
            for limit, ys in self.map.partners.get(x, {}).items():
                k = min(limit - 1 - dx, len(balls) - 1)
                if k >= 0:
                    hits.update((x, y) if x < y else (y, x) for y in ys & balls[k])
        return hits

    def retag_paths(self, changed_links: Iterable[tuple[PortRef, PortRef]]) -> list:
        """Recompute path tags for every switch pair the change could have
        affected, and push fast-failover groups to pair endpoints whose
        tags changed and have a backup.  Returns the (dpid, group_id)
        pairs actually pushed.

        A pair keeps its tag unless it is newly connected, its distance
        changed, a tag edge went stale (died or flipped bridge status), or
        a changed edge lies on a walk no longer than the tag's limit.
        Only pairs that can meet one of these are visited, in sorted
        order: those the map indexes under a stale edge, those newly
        connected, and those a changed edge's walk test reaches.  A
        distance grows only when a primary edge died, and shrinks only
        through an added edge, which the caller names; an added edge it
        does not name puts every tagged pair under test."""
        if self.protocol is not Protocol.SOFTDP:
            return []
        changed_links = list(changed_links)
        adj, tags = self.map.adj, self.map.path_tags
        bridges, comp = self._bridges_and_components(adj)
        alive_edges = {(u, v) for u in adj for v in adj[u] if u <= v}
        # Every tag edge was alive at the previous retag, so the tag edges
        # that died since are among the edges the graph lost.
        stale_pairs = set().union(*(
            self.map.pairs_on.get(e, ()) for e in
            (bridges ^ self._bridges) | (self._edges - alive_edges)))
        tested = {(min(a.dpid, b.dpid), max(a.dpid, b.dpid))
                  for (a, b) in changed_links} & alive_edges
        # per switch: hop counts from it, and the memoized lex-min steps
        # and backup detours toward it
        dist: dict[int, dict[int, int]] = {}
        steps: dict[int, dict[int, int]] = {}
        detours: dict[int, dict[int, tuple[int, ...]]] = {}

        def dist_from(v: int) -> dict[int, int]:
            if v not in dist:
                dist[v] = self._bfs(adj, v)
            return dist[v]

        candidates = stale_pairs | self._newly_connected(comp)
        walks = []
        for (u, v) in tested:
            du, dv = dist_from(u), dist_from(v)
            walks.append((du, dv))
            candidates |= self._walk_hits(du, dv)
        if alive_edges - self._edges - tested:
            candidates.update(tags)

        group_sends: list[tuple[int, int]] = []
        recomputed = 0
        for (a, b) in sorted(candidates):
            old = tags.get((a, b))
            root = comp.get(a)
            if root is None or root != comp.get(b):
                if old is not None:
                    self.map.drop_tags((a, b))
                continue
            db = dist_from(b)
            if (old is not None and len(old.primary) - 1 == db[a]
                    and (a, b) not in stale_pairs
                    and all(1 + min(du.get(a, inf) + dv.get(b, inf),
                                    dv.get(a, inf) + du.get(b, inf)) > old.limit
                            for du, dv in walks)):
                continue
            step = steps.setdefault(b, {})
            primary = self._lex_min_shortest(a, b, db, step)
            backup = self._backup_path(primary, db, step,
                                       detours.setdefault(b, {}), bridges)
            entry = PathTags(primary, (backup,) if backup is not None else ())
            recomputed += 1
            if old != entry:
                self.map.set_tags((a, b), entry)
                group_sends.extend(self._push_groups(a, b, entry))

        self._bridges, self._edges, self._comp = bridges, alive_edges, comp
        for (pa, pb) in changed_links:
            key = link_key(pa, pb)
            pair = (min(pa.dpid, pb.dpid), max(pa.dpid, pb.dpid))
            entry = tags.get(pair)
            if pair in alive_edges and entry and entry.backups:
                self.map.safe_to_remove.add(key)
            else:
                self.map.safe_to_remove.discard(key)
        if changed_links or recomputed:
            self.services.record("retag", pairs_recomputed=recomputed,
                                 changed=[f"{a}~{b}" for (a, b) in changed_links])
        return group_sends

    def _push_groups(self, a: int, b: int, entry: PathTags) -> list[tuple[int, int]]:
        """Fast-failover groups at both endpoints of a tagged pair: first
        bucket follows the primary, second the backup; liveness is the
        watch port's link flag so switchover needs no controller round
        trip.  TE override suppresses installation."""
        if self.te_override:
            return []
        sends = []
        # the second switch of each path seen from a, and from b
        for src, dst, hop in ((a, b, 1), (b, a, -2)):
            watch = tuple(port for port in (
                self.map.first_hop_port(src, path[hop])
                for path in (entry.primary, *entry.backups[:1]))
                if port is not None)
            if not watch:
                continue
            if not entry.backups and (src, dst) not in self._sent_groups:
                # Nothing installed earlier and no alternative to fail
                # over to: a single-bucket group buys nothing.
                continue
            if self._sent_groups.get((src, dst)) == watch:
                continue
            self._sent_groups[(src, dst)] = watch
            buckets = tuple(GroupBucket(watch=port, out=port) for port in watch)
            self._send(MsgKind.GROUP_MOD, src,
                       GroupModBody(dpid=src, group_id=dst, buckets=buckets))
            self.services.record("group_dispatch", dpid=src, group_id=dst,
                                 buckets=[str(port) for port in watch])
            sends.append((src, dst))
        return sends
