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
from math import inf
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import (
    CONTROLLER,
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

WINDOW_FLOW_PRIORITY = 100
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


@dataclass
class RegisteredSwitch:
    id: SwitchId
    port_count: int
    ports_up_at_join: tuple[int, ...]


class TopologyMap:
    """What the controller believes about the fabric: present switches,
    directed confirmed links, and per-pair path tags."""

    def __init__(self) -> None:
        self.switches: dict[int, SwitchId] = {}
        self.directed_links: set[tuple[PortRef, PortRef]] = set()
        self.path_tags: dict[tuple[int, int], PathTags] = {}
        self.safe_to_remove: set[tuple[PortRef, PortRef]] = set()

    def has_link(self, a: PortRef, b: PortRef) -> bool:
        return (a, b) in self.directed_links

    def bidirectional(self, a: PortRef, b: PortRef) -> bool:
        return (a, b) in self.directed_links and (b, a) in self.directed_links

    def links_touching(self, port: PortRef) -> list[tuple[PortRef, PortRef]]:
        return sorted(l for l in self.directed_links if port in l)

    def links_of_switch(self, dpid: int) -> list[tuple[PortRef, PortRef]]:
        return sorted(l for l in self.directed_links
                      if l[0].dpid == dpid or l[1].dpid == dpid)

    def first_hop_port(self, src: int, nxt: int) -> Optional[PortRef]:
        """Lowest port of switch ``src`` on a link to switch ``nxt`` that is
        confirmed in both directions; None when there is no such link."""
        options = [p for (p, q) in self.directed_links
                   if p.dpid == src and q.dpid == nxt
                   and (q, p) in self.directed_links]
        return min(options) if options else None

    def bidirectional_edges(self) -> set[tuple[PortRef, PortRef]]:
        """Canonical (a, b) port pairs confirmed in both directions."""
        return {link_key(a, b) for (a, b) in self.directed_links
                if (b, a) in self.directed_links}

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
        # bridges and edges of the graph the last retag saw
        self._bridges: set[frozenset] = set()
        self._edges: set[frozenset] = set()
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
            self._await_boot.discard(body.dpid)
            if not self._await_boot:
                self._bootstrap()

    def _bootstrap(self) -> None:
        self.bootstrap_done = True
        if self.protocol is Protocol.SOFTDP:
            probes = 0
            for dpid in sorted(self.registry):
                reg = self.registry[dpid]
                for port_no in reg.ports_up_at_join:
                    port = PortRef(dpid, port_no)
                    self.port_epoch.setdefault(port, 1)
                    self._probe(port)
                    probes += 1
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
                dpid=port.dpid, priority=WINDOW_FLOW_PRIORITY, match_ingress=port,
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
        if (egress, ingress) in self.map.directed_links:
            return
        self.map.directed_links.add((egress, ingress))
        for dpid in (egress.dpid, ingress.dpid):
            if dpid not in self.map.switches and dpid in self.registry:
                self.map.switches[dpid] = self.registry[dpid].id
        self.services.record("map_add_link", egress=str(egress),
                             ingress=str(ingress))
        if (ingress, egress) in self.map.directed_links:
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
            if entry in self.map.directed_links:
                self.map.directed_links.remove(entry)
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
    def _graph(self) -> tuple[dict[int, tuple[int, ...]], set[frozenset]]:
        """Undirected adjacency over links confirmed in both directions."""
        adj: dict[int, set] = {}
        edges: set[frozenset] = set()
        for (a, b) in self.map.bidirectional_edges():
            adj.setdefault(a.dpid, set()).add(b.dpid)
            adj.setdefault(b.dpid, set()).add(a.dpid)
            edges.add(frozenset((a.dpid, b.dpid)))
        return ({v: tuple(sorted(n)) for v, n in sorted(adj.items())}, edges)

    @staticmethod
    def _bfs(adj: dict, src: int) -> dict[int, int]:
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
    def _bridge_set(adj: dict) -> set[frozenset]:
        """Edges whose removal disconnects their component (iterative
        low-link computation)."""
        visited: dict[int, int] = {}
        low: dict[int, int] = {}
        bridges: set[frozenset] = set()
        counter = 0
        for root in sorted(adj):
            if root in visited:
                continue
            stack = [(root, None, iter(adj[root]))]
            visited[root] = low[root] = counter
            counter += 1
            while stack:
                v, parent, children = stack[-1]
                advanced = False
                for n in children:
                    if n not in visited:
                        visited[n] = low[n] = counter
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
                        bridges.add(frozenset((parent, v)))
        return bridges

    @staticmethod
    def _lex_min_shortest(a: int, b: int, dist_from_b: dict, adj: dict) -> tuple[int, ...]:
        """Among all shortest a-b paths, the one whose switch-id sequence
        is lexicographically smallest: always step to the smallest
        neighbor one hop closer to b."""
        path = [a]
        cur = a
        while cur != b:
            cur = min(n for n in adj[cur]
                      if dist_from_b.get(n, -1) == dist_from_b[cur] - 1)
            path.append(cur)
        return tuple(path)

    def _backup_path(self, a: int, b: int, primary: tuple[int, ...],
                     adj: dict, bridges: set) -> Optional[tuple[int, ...]]:
        """Shortest alternative that avoids the first primary edge whose
        removal keeps a and b connected; None when the primary is the only
        path (every primary edge is a bridge)."""
        avoid = None
        for u, v in zip(primary, primary[1:]):
            if frozenset((u, v)) not in bridges:
                avoid = frozenset((u, v))
                break
        if avoid is None:
            return None
        pruned = {v: tuple(n for n in ns if frozenset((v, n)) != avoid)
                  for v, ns in adj.items()}
        return self._lex_min_shortest(a, b, self._bfs(pruned, b), pruned)

    def retag_paths(self, changed_links: Iterable[tuple[PortRef, PortRef]]) -> list:
        """Recompute path tags for every switch pair the change could have
        affected, and push fast-failover groups to pair endpoints whose
        tags changed and have a backup.  Returns the (dpid, group_id)
        pairs actually pushed."""
        if self.protocol is not Protocol.SOFTDP:
            return []
        changed_links = list(changed_links)
        adj, alive_edges = self._graph()
        nodes = sorted(adj)
        dist = {v: self._bfs(adj, v) for v in nodes}
        bridges = self._bridge_set(adj)
        # Every tag edge was alive at the previous retag, so the tag edges
        # that died since are among the edges the graph lost.
        stale = (bridges ^ self._bridges) | (self._edges - alive_edges)
        changed_present = [(a.dpid, b.dpid) for (a, b) in changed_links
                           if frozenset((a.dpid, b.dpid)) in alive_edges]

        old_tags = self.map.path_tags
        new_tags: dict[tuple[int, int], PathTags] = {}
        group_sends: list[tuple[int, int]] = []
        recomputed = 0
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                d = dist[a].get(b)
                if d is None:
                    continue
                old = old_tags.get((a, b))
                if old is not None and len(old.primary) - 1 == d and not any(
                        frozenset(e) in stale
                        for path in (old.primary, *old.backups)
                        for e in zip(path, path[1:])):
                    # The tag still holds unless a changed edge lies on an
                    # a-b walk no longer than the backup (d without one):
                    # such an edge can shorten or re-tie the backup, or lie
                    # on a shortest path.  A walk through a live edge is
                    # never shorter than d and a backup never shorter than
                    # its primary, so this one limit covers both.  Full-
                    # graph distance bounds pruned-graph distance below.
                    limit = len(old.backups[0]) - 1 if old.backups else d
                    da, db = dist[a], dist[b]
                    if all(1 + min(da.get(u, inf) + db.get(v, inf),
                                   da.get(v, inf) + db.get(u, inf)) > limit
                           for (u, v) in changed_present):
                        new_tags[(a, b)] = old
                        continue
                primary = self._lex_min_shortest(a, b, dist[b], adj)
                backup = self._backup_path(a, b, primary, adj, bridges)
                entry = PathTags(primary, (backup,) if backup is not None else ())
                new_tags[(a, b)] = entry
                recomputed += 1
                if old != entry:
                    group_sends.extend(self._push_groups(a, b, entry))

        self.map.path_tags = new_tags
        self._bridges, self._edges = bridges, alive_edges
        for (pa, pb) in changed_links:
            key = link_key(pa, pb)
            pair = (min(pa.dpid, pb.dpid), max(pa.dpid, pb.dpid))
            tags = new_tags.get(pair)
            if frozenset((pa.dpid, pb.dpid)) in alive_edges and tags and tags.backups:
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
        for src, dst, path in ((a, b, entry.primary),
                               (b, a, tuple(reversed(entry.primary)))):
            hops = [path]
            if entry.backups:
                bk = entry.backups[0]
                hops.append(bk if src == a else tuple(reversed(bk)))
            buckets = []
            for p in hops:
                port = self.map.first_hop_port(src, p[1])
                if port is not None:
                    buckets.append(GroupBucket(watch=port, out=port))
            if not buckets:
                continue
            config = tuple(buckets)
            if not entry.backups and (src, dst) not in self._sent_groups:
                # Nothing installed earlier and no alternative to fail
                # over to: a single-bucket group buys nothing.
                continue
            if self._sent_groups.get((src, dst)) == config:
                continue
            self._sent_groups[(src, dst)] = config
            self._send(MsgKind.GROUP_MOD, src,
                       GroupModBody(dpid=src, group_id=dst, buckets=config))
            self.services.record("group_dispatch", dpid=src, group_id=dst,
                                 buckets=[f"{bk.watch}" for bk in config])
            sends.append((src, dst))
        return sends
