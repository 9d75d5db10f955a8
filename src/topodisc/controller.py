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
from itertools import chain, combinations
from math import inf
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

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


class SwitchEdges(dict):
    """Each crossing (u, v) of a switch edge -> the edge as one (low,
    high) tuple that every span holding the edge shares, so that a span
    costs a set and no tuples of its own: spans of fresh tuples raised
    the peak RSS of an sOFTDP run of ``random_scenario(7, 200, 100)``
    from 243 to 256 MB."""

    def __missing__(self, crossed: tuple[int, int]) -> tuple[int, int]:
        u, v = crossed
        edge = self[crossed] = crossed if u <= v else self[v, u]
        return edge


class PathTags(NamedTuple):
    primary: tuple[int, ...]
    backups: tuple[tuple[int, ...], ...] = ()


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
    size of the map.  Each tag is kept with its span, the switch edges
    its primary or backup crosses and its limit, which the retag reads
    off the ``PathsToward`` that built the tag, so no tag's edges are
    built twice; a tag change moves its pair only under the edges the
    old and new spans do not share.
    The map keeps no shortest-path state: a retag reads ``adj`` into one
    ``PathsToward`` per target switch and drops them when it ends."""

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
        # tagged pair -> its span: (the switch edges, as (low, high)
        # dpid pairs, that its primary or backup crosses; the hop count
        # of its backup, or of its primary without one: a walk through a
        # changed edge no longer than this can shorten or re-tie either
        # path)
        self.tag_spans: dict[tuple[int, int], tuple[frozenset, int]] = {}
        # switch edge -> tagged pairs whose primary or backup crosses it
        self.pairs_on: dict[tuple[int, int], set[tuple[int, int]]] = {}
        self.edge_of = SwitchEdges()
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

    def set_tags(self, pair: tuple[int, int], tags: PathTags,
                 edges: frozenset, limit: int) -> None:
        """Tag ``pair`` with ``tags``, whose span is ``edges`` and
        ``limit`` (see ``tag_spans``)."""
        self.path_tags[pair] = tags
        old = self.tag_spans.get(pair)
        self.tag_spans[pair] = (edges, limit)
        if old is None:
            added, removed = edges, ()
            self._partner(pair, limit)
        else:
            old_edges, old_limit = old
            added, removed = edges - old_edges, old_edges - edges
            if old_limit != limit:
                self._unpartner(pair, old_limit)
                self._partner(pair, limit)
        self._file(pair, added, removed)

    def drop_tags(self, pair: tuple[int, int]) -> None:
        del self.path_tags[pair]
        edges, limit = self.tag_spans.pop(pair)
        self._unpartner(pair, limit)
        self._file(pair, (), edges)

    def _file(self, pair: tuple[int, int], added: Iterable,
              removed: Iterable) -> None:
        """File ``pair`` in ``pairs_on`` under the ``added`` edges, and
        take it out from under the ``removed`` ones."""
        pairs_on = self.pairs_on
        for edge in added:
            pairs = pairs_on.get(edge)
            if pairs is None:
                pairs_on[edge] = {pair}
            else:
                pairs.add(pair)
        for edge in removed:
            pairs = pairs_on[edge]
            pairs.remove(pair)
            if not pairs:
                del pairs_on[edge]

    def _partner(self, pair: tuple[int, int], limit: int) -> None:
        partners = self.partners
        for x, y in (pair, pair[::-1]):
            by_limit = partners.get(x)
            if by_limit is None:
                partners[x] = {limit: {y}}
            else:
                ys = by_limit.get(limit)
                if ys is None:
                    by_limit[limit] = {y}
                else:
                    ys.add(y)

    def _unpartner(self, pair: tuple[int, int], limit: int) -> None:
        partners = self.partners
        for x, y in (pair, pair[::-1]):
            by_limit = partners[x]
            ys = by_limit[limit]
            ys.remove(y)
            if not ys:
                del by_limit[limit]
                if not by_limit:
                    del partners[x]

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


class PathsToward:
    """The shortest paths toward one target switch ``b`` in the switch
    graph a retag sees, built once per target and retag by one search
    from b: each switch's hop count to b and its lex-min step, its
    smallest neighbour one hop closer.  The lex-min paths, the near ends
    of the backups and the detours are worked out from it on demand and
    kept on it, so the pairs with target b share them, and a tag's span
    is read off the two memoized paths its backup is made of."""

    def __init__(self, adj: dict[int, dict], b: int,
                 bridges: set[tuple[int, int]]):
        self.adj, self.bridges = adj, bridges
        dist = {b: 0}                      # inserted in nondecreasing order
        # switch -> its smallest neighbour one hop closer, the first to
        # reach it from a frontier taken in increasing order
        step: dict[int, int] = {}
        frontier, k = [b], 0
        while frontier:
            k += 1
            nxt = []
            for v in frontier:
                for n in adj[v]:
                    if n not in dist:
                        dist[n] = k
                        step[n] = v
                        nxt.append(n)
            nxt.sort()
            frontier = nxt
        self.dist, self.step = dist, step
        self._paths: dict[int, tuple[int, ...]] = {b: (b,)}
        # switch -> near end of the first non-bridge edge of its path
        self._near: dict[int, Optional[int]] = {b: None}
        self._detours: dict[int, tuple[int, ...]] = {}

    def path(self, a: int) -> tuple[int, ...]:
        """Among all shortest a-b paths, the one whose switch-id sequence
        is lexicographically smallest: always step to the smallest
        neighbour one hop closer to b."""
        paths = self._paths
        path = paths.get(a)
        if path is None:
            step, near, bridges = self.step, self._near, self.bridges
            walked = []
            while path is None:
                walked.append(a)
                a = step[a]
                path = paths.get(a)
            for v in reversed(walked):
                q = path[0]
                near[v] = near[q] if ((v, q) if v < q else (q, v)) in bridges else v
                path = paths[v] = (v,) + path
        return path

    def backup(self, a: int) -> Optional[tuple[int, ...]]:
        """Shortest alternative to ``path(a)`` that avoids its first edge
        whose removal keeps its ends connected, lexicographically
        smallest among equals; None when the primary is the only path
        (every primary edge is a bridge).  The primary up to that edge
        is bridges that every path crosses, so the alternative is that
        stretch plus a detour from the edge's near end p."""
        primary = self.path(a)
        p = self._near[a]
        if p is None:
            return None
        detour = self._detours.get(p) or self._detour(p)
        return primary[:self.dist[a] - self.dist[p]] + detour

    def edges(self, a: int, edge_of: SwitchEdges) -> frozenset:
        """The switch edges, as (low, high) dpid pairs taken from
        ``edge_of``, that ``path(a)`` or ``backup(a)`` crosses; read after
        ``backup(a)``.  The backup leaves the primary only at its detour,
        so these are the edges of the two memoized paths."""
        path = self._paths[a]
        p = self._near[a]
        crossed = zip(path, path[1:])
        if p is not None:
            detour = self._detours[p]
            crossed = chain(crossed, zip(detour, detour[1:]))
        return frozenset(map(edge_of.__getitem__, crossed))

    def _detour(self, p: int) -> tuple[int, ...]:
        """The lexicographically smallest shortest p-b path without the
        edge p-q, where q is p's lex-min step toward b.

        Most detours are local (``_local_detour``).  Failing those, every
        neighbour u of p but q is one hop farther, with p its only closer
        neighbour, so p is u's step.  If u is p's only other neighbour, a
        path from p without p-q goes on from u, and a path from u without
        u-p never passes p: p's detour is p followed by u's.  Such a chain
        of switches is climbed to its first switch that is not one, whose
        detour is local or found by ``_cut_detour``, and every switch of
        the chain keeps its own."""
        detours, adj, step = self._detours, self.adj, self.step
        climbed = []
        while True:
            q = step[p]
            detour = self._local_detour(p, q)
            if detour is not None:
                break
            if len(adj[p]) != 2:
                detour = self._cut_detour(p, q)
                break
            climbed.append(p)
            for u in adj[p]:
                if u != q:
                    break
            p = u
            detour = detours.get(p)
            if detour is not None:
                break
        detours[p] = detour
        for v in reversed(climbed):
            detour = detours[v] = (v,) + detour
        return detour

    def _local_detour(self, p: int, q: int) -> Optional[tuple[int, ...]]:
        """p's detour when it is at most two hops longer than p's hop
        count, else None.

        Without the edge p-q, p stays as far from b when it has another
        neighbour one hop closer, gets one hop farther when it has a
        neighbour as far as itself, and two when a neighbour one hop
        farther has a closer neighbour besides p; the smallest such
        neighbour of the nearest kind leads the way.  (Plain loops: each
        comprehension would be a call of its own.)"""
        adj, dist = self.adj, self.dist
        top = dist[p]
        closer = level = None
        for n in adj[p]:
            d = dist[n]
            if d < top:
                if n != q and (closer is None or n < closer):
                    closer = n
            elif d == top and (level is None or n < level):
                level = n
        if closer is not None:
            return (p,) + self.path(closer)
        if level is not None:
            return (p,) + self.path(level)
        # every neighbour but q is one hop farther than p
        for u in sorted(adj[p]):
            if u != q:
                for n in adj[u]:
                    if dist[n] == top and n != p and (level is None or n < level):
                        level = n
                if level is not None:
                    return (p, u) + self.path(level)
        return None

    def _cut_detour(self, p: int, q: int) -> tuple[int, ...]:
        """p's detour, p having no local way round, so that q is its only
        neighbour as close to b as itself or closer.

        Every switch as close to b as p or closer, p aside, keeps its
        hop count without p-q, since none of its shortest routes crosses
        p.  So a detour climbs from p through farther switches to one
        with a neighbour as close as p, a way out, and then follows that
        neighbour's lex-min path: the fewer hops to a way out, the
        shorter the detour.  One search outward from p through the
        farther switches, layer by layer, stops at the first layer with
        a way out.  The switches on a shortest climb to one are marked
        from that layer in, and the walk from p takes the smallest
        marked neighbour at each step, then the smallest way out."""
        adj, dist = self.adj, self.dist
        top = dist[p]
        layer = [u for u in adj[p] if u != q]
        seen = {p, *layer}
        layers, out = [], []
        while layer and not out:
            layers.append(layer)
            for w in layer:
                for n in adj[w]:
                    if dist[n] <= top and n != p:
                        out.append(w)
                        break
            if not out:
                # no way out here, so every closer neighbour of this
                # layer is p
                nxt = []
                for w in layer:
                    for n in adj[w]:
                        if n not in seen:
                            seen.add(n)
                            nxt.append(n)
                layer = nxt
        marked = set(out)
        climb = [marked]
        for layer in reversed(layers[:-1]):
            marked = {w for w in layer if not marked.isdisjoint(adj[w])}
            climb.append(marked)
        walk = [p]
        for marked in reversed(climb):
            walk.append(min(marked.intersection(adj[walk[-1]])))
        out = min([n for n in adj[walk[-1]] if dist[n] <= top and n != p])
        return tuple(walk) + self.path(out)


class Controller:
    """Single controller instance for one scenario run."""

    def __init__(self, spec: ScenarioSpec, services):
        self.spec = spec
        self.services = services
        self.protocol = spec.protocol
        self.product = DEFAULT_PRODUCT
        self.map = TopologyMap()
        self.registry: dict[int, RegisteredSwitch] = {}
        self.mac_to_dpid: dict[str, int] = {}
        self.hasher = IdentityHasher.from_seed(spec.rng_seed)
        self.counters: Counter = Counter()
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
        # the ports of registered switches as text, as the port ids of
        # cleartext frames, and back: filled at registration only, so
        # frames cannot grow them
        self._port_text: dict[PortRef, str] = {}
        self._port_id: dict[PortRef, bytes] = {}
        self._port_of_text: dict[bytes, PortRef] = {}

    # -- plumbing ----------------------------------------------------------
    @property
    def suspicious(self) -> int:
        return self.counters["suspicious"]

    def _send(self, kind: MsgKind, dpid: int, body) -> None:
        # built in C, without the NamedTuple's Python-level __new__
        self.services.send_control(
            tuple.__new__(ControlMessage, (kind, CONTROLLER, dpid, body)))

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
        kind, src, _, body = msg
        if kind is MsgKind.PACKET_IN:
            if self.protocol is Protocol.SOFTDP:
                self._packet_in_event_driven(body)
            else:
                self._packet_in_baseline(body)
        elif kind is MsgKind.HELLO:
            self._send(MsgKind.HELLO, src, None)
            self._send(MsgKind.FEATURE_REQUEST, src, None)
        elif kind is MsgKind.FEATURE_REPLY:
            self._register(body)
        elif kind is MsgKind.PORT_STATUS:
            if self.protocol is Protocol.SOFTDP:
                self.on_port_status(body)
            else:
                self.counters["ignored_port_status"] += 1
        elif kind is MsgKind.BFD_STATUS:
            if self.protocol is Protocol.SOFTDP:
                self.on_bfd_status(body)
            else:
                self.counters["ignored_bfd_status"] += 1
        else:
            self.counters["protocol_error"] += 1
            self.services.record("protocol_error", msg=kind.name, src=src)

    # -- registration and bootstrap ---------------------------------------
    def _register(self, body: FeatureReplyBody) -> None:
        sid = SwitchId(body.dpid, body.local_mac)
        self.registry[body.dpid] = RegisteredSwitch(sid, body.port_count,
                                                    body.ports_up)
        self.mac_to_dpid[body.local_mac] = body.dpid
        for port_no in range(1, body.port_count + 1):
            port = PortRef(body.dpid, port_no)
            text = self._port_text[port] = str(port)
            port_id = self._port_id[port] = text.encode()
            self._port_of_text[port_id] = port
            # a registering switch is a fresh boot: its port epochs
            # restart, so those of an earlier session would make its
            # BFD reports look stale
            self.port_epoch.pop(port, None)
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
            self._suspicious_packet_in("no_open_window_for_nonce", body.ingress)
            return
        egress, ingress = window.port, body.ingress
        if (ingress.dpid == egress.dpid
                or ingress.dpid not in self.registry
                or not 1 <= ingress.port_no <= self.registry[ingress.dpid].port_count):
            self._suspicious_packet_in("implausible_ingress", ingress)
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
        links removes the switch too.  The controller forgets the switch,
        so no round probes it and no window on its ports stays open; a
        rejoin registers it afresh."""
        if dpid in self._await_boot:
            self._boot_settled(dpid)
        reg = self.registry.pop(dpid, None)
        if reg is not None:
            del self.mac_to_dpid[reg.id.local_mac]
        for port in sorted(p for p in self.windows if p.dpid == dpid):
            self._close_window(self.windows[port], "window_expired")
        links = self.map.links_of_switch(dpid)
        if links:
            self._remove_links(_both_ways(links), cause="channel_closed")

    # -- baseline engines --------------------------------------------------
    def _cleartext_frame(self, reg: RegisteredSwitch, port: Optional[PortRef]) -> LldpFrame:
        return LldpFrame(
            chassis_id=reg.id.local_mac.encode(),
            port_id=self._port_id[port] if port is not None else b"",
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
            self._suspicious_packet_in("unreadable_chassis", body.ingress)
            return
        dpid = self.mac_to_dpid.get(mac)
        if dpid is None:
            self._suspicious_packet_in("unknown_chassis", body.ingress)
            return
        # a port id this controller wrote is a registered port's text
        egress = self._port_of_text.get(frame.port_id)
        if egress is None:
            try:
                egress = PortRef.parse(frame.port_id.decode("ascii"))
            except (ValueError, UnicodeDecodeError):
                self._suspicious_packet_in("unreadable_port", body.ingress)
                return
        if egress.dpid != dpid:
            self._suspicious_packet_in("chassis_port_mismatch", body.ingress)
            return
        self._last_confirm[(egress, body.ingress)] = self.round_no - 1
        self._learn_directed(egress, body.ingress)

    def _suspicious_packet_in(self, reason: str, ingress: PortRef) -> None:
        self.counters["suspicious"] += 1
        self.services.record("suspicious_packet_in", reason=reason,
                             ingress=self._port_text.get(ingress) or str(ingress))

    # -- path tagging ------------------------------------------------------
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
        does not name puts every tagged pair under test.

        A visited pair (a, b), a < b, reads the shortest paths toward b,
        built once per target switch and retag (``PathsToward``): its
        primary and backup are lookups there, shared with the other
        pairs toward b, and so is the detour its backup is made of.  A
        pair whose tags come out unchanged builds no tag and sends
        nothing.  A changed tag's span is read off those two memoized
        paths, once, and kept with the tag, so the map files the pair by
        what the two spans do not share; each (switch, neighbour)
        first-hop port is looked up once per retag."""
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
        # per target switch: the shortest paths toward it
        toward: dict[int, PathsToward] = {}
        for v in {v for edge in tested for v in edge}:
            toward[v] = PathsToward(adj, v, bridges)

        candidates = stale_pairs | self._newly_connected(comp)
        walks = []
        for (u, v) in tested:
            du, dv = toward[u].dist, toward[v].dist
            walks.append((du, dv))
            candidates |= self._walk_hits(du, dv)
        if alive_edges - self._edges - tested:
            candidates.update(tags)

        group_sends: list[tuple[int, int]] = []
        recomputed = 0
        hops: dict[tuple[int, int], tuple] = {}
        spans, edge_of = self.map.tag_spans, self.map.edge_of
        set_tags = self.map.set_tags
        for pair in sorted(candidates):
            a, b = pair
            old = tags.get(pair)
            root = comp.get(a)
            if root is None or root != comp.get(b):
                if old is not None:
                    self.map.drop_tags(pair)
                continue
            paths = toward.get(b)
            if paths is None:
                paths = toward[b] = PathsToward(adj, b, bridges)
            if (old is not None and len(old.primary) - 1 == paths.dist[a]
                    and pair not in stale_pairs):
                limit = spans[pair][1]
                for du, dv in walks:
                    if 1 + min(du.get(a, inf) + dv.get(b, inf),
                               dv.get(a, inf) + du.get(b, inf)) <= limit:
                        break
                else:
                    continue
            primary = paths.path(a)
            backup = paths.backup(a)
            backups = (backup,) if backup is not None else ()
            recomputed += 1
            if old == (primary, backups):
                continue
            # built in C, without the NamedTuple's Python-level __new__
            entry = tuple.__new__(PathTags, (primary, backups))
            set_tags(pair, entry, paths.edges(a, edge_of),
                     len(backup or primary) - 1)
            self._push_groups(a, b, entry, hops, group_sends)

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

    def _hop(self, src: int, nxt: int, hops: dict) -> tuple:
        """The first-hop port from ``src`` toward neighbour ``nxt``, with
        the group bucket and the text a send builds from it, looked up
        once per retag in ``hops``."""
        port = self.map.first_hop_port(src, nxt)
        hop = hops[(src, nxt)] = (port, GroupBucket(port, port), str(port))
        return hop

    def _push_groups(self, a: int, b: int, entry: PathTags, hops: dict,
                     sends: list[tuple[int, int]]) -> None:
        """Fast-failover groups at both endpoints of a tagged pair, each
        send appended to ``sends``: first bucket follows the primary,
        second the backup; liveness is the watch port's link flag so
        switchover needs no controller round trip.  Every hop of a path
        the retag just built is a confirmed link, so each bucket has a
        port."""
        sent = self._sent_groups
        primary, backups = entry
        # the second switch of each path seen from a, and from b
        for src, dst, hop in ((a, b, 1), (b, a, -2)):
            group = (src, dst)
            installed = sent.get(group)
            if not backups and installed is None:
                # Nothing installed earlier and no alternative to fail
                # over to: a single-bucket group buys nothing.
                continue
            nxt = primary[hop]
            first = hops.get((src, nxt)) or self._hop(src, nxt, hops)
            if backups:
                nxt = backups[0][hop]
                second = hops.get((src, nxt)) or self._hop(src, nxt, hops)
                watch = (first[0], second[0])
                if installed == watch:
                    continue
                buckets, texts = (first[1], second[1]), [first[2], second[2]]
            else:
                watch = (first[0],)
                if installed == watch:
                    continue
                buckets, texts = (first[1],), [first[2]]
            sent[group] = watch
            self._send(MsgKind.GROUP_MOD, src,
                       tuple.__new__(GroupModBody, (src, dst, buckets)))
            self.services.record("group_dispatch", dpid=src, group_id=dst,
                                 buckets=texts)
            sends.append(group)
