"""Differential oracle for sOFTDP path tagging.

``ReferenceRetag`` is the path tagger as it stood before the topology
map kept indexes: it rebuilds the switch graph from every directed link
on each call, runs a BFS from every switch and a fresh BFS per backup on
a copied adjacency, visits every connected pair, and finds a first-hop
port by scanning all directed links.  It keeps its own copy of the map
state it reads and writes.

The controller and the reference see the same history of link learning,
link removal, map edits that no retag follows at once, explicit retags
and TE-override toggles, on random
multigraphs with parallel links and links confirmed in one direction
only.  After every step they must agree on the path tags, the
``safe_to_remove`` set, the group sends a retag returns, the GROUP_MOD
messages and the ``retag`` and ``group_dispatch`` trace records, and the
map's tag indexes must equal a rebuild from its path tags.
"""

import random
from math import inf

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from topodisc.core import GroupBucket, GroupModBody, MsgKind, PortRef, link_key
from topodisc.controller import PathsToward, PathTags

from test_controller import _registered

COMPARED_RECORDS = ("retag", "group_dispatch")


class ReferenceRetag:
    """Full-recompute path tagging over its own copy of the map."""

    def __init__(self) -> None:
        self.directed_links: set = set()
        self.path_tags: dict = {}
        self.safe_to_remove: set = set()
        self._bridges: set = set()
        self._edges: set = set()
        self._sent_groups: dict = {}
        self.records: list = []
        self.group_mods: list = []

    # -- map mutation, as the controller's learn and remove paths do it --
    def learn(self, egress, ingress) -> list:
        if (egress, ingress) in self.directed_links:
            return []
        self.directed_links.add((egress, ingress))
        if (ingress, egress) in self.directed_links:
            return self.retag_paths([link_key(egress, ingress)])
        return []

    def remove(self, directed) -> list:
        removed_keys = set()
        for entry in directed:
            self.directed_links.discard(entry)
            removed_keys.add(link_key(*entry))
        for key in sorted(removed_keys):
            self.safe_to_remove.discard(key)
        return self.retag_paths(sorted(removed_keys))

    # -- the tagger ------------------------------------------------------
    def first_hop_port(self, src, nxt):
        options = [p for (p, q) in self.directed_links
                   if p.dpid == src and q.dpid == nxt
                   and (q, p) in self.directed_links]
        return min(options) if options else None

    def _graph(self):
        adj: dict = {}
        edges: set = set()
        for (a, b) in {link_key(a, b) for (a, b) in self.directed_links
                       if (b, a) in self.directed_links}:
            adj.setdefault(a.dpid, set()).add(b.dpid)
            adj.setdefault(b.dpid, set()).add(a.dpid)
            edges.add(frozenset((a.dpid, b.dpid)))
        return ({v: tuple(sorted(n)) for v, n in sorted(adj.items())}, edges)

    @staticmethod
    def _bfs(adj, src):
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
    def _bridge_set(adj):
        visited: dict = {}
        low: dict = {}
        bridges: set = set()
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
    def _lex_min_shortest(a, b, dist_from_b, adj):
        path = [a]
        cur = a
        while cur != b:
            cur = min(n for n in adj[cur]
                      if dist_from_b.get(n, -1) == dist_from_b[cur] - 1)
            path.append(cur)
        return tuple(path)

    def _backup_path(self, a, b, primary, adj, bridges):
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

    def retag_paths(self, changed_links) -> list:
        changed_links = list(changed_links)
        adj, alive_edges = self._graph()
        nodes = sorted(adj)
        dist = {v: self._bfs(adj, v) for v in nodes}
        bridges = self._bridge_set(adj)
        stale = (bridges ^ self._bridges) | (self._edges - alive_edges)
        changed_present = [(a.dpid, b.dpid) for (a, b) in changed_links
                           if frozenset((a.dpid, b.dpid)) in alive_edges]

        old_tags = self.path_tags
        new_tags: dict = {}
        group_sends: list = []
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

        self.path_tags = new_tags
        self._bridges, self._edges = bridges, alive_edges
        for (pa, pb) in changed_links:
            key = link_key(pa, pb)
            pair = (min(pa.dpid, pb.dpid), max(pa.dpid, pb.dpid))
            tags = new_tags.get(pair)
            if frozenset((pa.dpid, pb.dpid)) in alive_edges and tags and tags.backups:
                self.safe_to_remove.add(key)
            else:
                self.safe_to_remove.discard(key)
        if changed_links or recomputed:
            self.records.append(("retag", {
                "pairs_recomputed": recomputed,
                "changed": [f"{a}~{b}" for (a, b) in changed_links]}))
        return group_sends

    def _push_groups(self, a, b, entry) -> list:
        sends = []
        for src, dst, path in ((a, b, entry.primary),
                               (b, a, tuple(reversed(entry.primary)))):
            hops = [path]
            if entry.backups:
                bk = entry.backups[0]
                hops.append(bk if src == a else tuple(reversed(bk)))
            buckets = []
            for p in hops:
                port = self.first_hop_port(src, p[1])
                if port is not None:
                    buckets.append(GroupBucket(watch=port, out=port))
            if not buckets:
                continue
            config = tuple(buckets)
            if not entry.backups and (src, dst) not in self._sent_groups:
                continue
            if self._sent_groups.get((src, dst)) == config:
                continue
            self._sent_groups[(src, dst)] = config
            self.group_mods.append(
                (src, GroupModBody(dpid=src, group_id=dst, buckets=config)))
            self.records.append(("group_dispatch", {
                "dpid": src, "group_id": dst,
                "buckets": [f"{bk.watch}" for bk in config]}))
            sends.append((src, dst))
        return sends


def rebuilt_indexes(path_tags) -> tuple[dict, dict, dict]:
    """``tag_spans``, ``pairs_on`` and ``partners`` as they follow from
    the path tags, read off the path tuples alone.  A pair's span is the
    set of switch edges, as (low, high) pairs, that its primary or backup
    crosses, with the hop count of its backup (or of the primary without
    one); each such edge maps to the pairs whose span holds it; and each
    switch maps, per that hop count, to the switches it shares such a tag
    with."""
    spans: dict = {}
    pairs_on: dict = {}
    partners: dict = {}
    for (x, y), tags in path_tags.items():
        paths = [tags.primary, *tags.backups]
        assert all(path[0] == x and path[-1] == y for path in paths)
        crossed = set()
        for path in paths:
            for i in range(len(path) - 1):
                crossed.add(tuple(sorted(path[i:i + 2])))
        for edge in crossed:
            pairs_on.setdefault(edge, set()).add((x, y))
        hops = len(paths[1] if tags.backups else paths[0]) - 1
        spans[(x, y)] = (crossed, hops)
        for a, b in ((x, y), (y, x)):
            partners.setdefault(a, {}).setdefault(hops, set()).add(b)
    return spans, pairs_on, partners


# -- histories -------------------------------------------------------------

def _physical_links(n: int, pairs):
    """One cable per switch pair listed (repeats make parallel cables),
    each end on the next free port of its switch."""
    next_port = {d: 0 for d in range(1, n + 1)}
    links = []
    for (u, v) in pairs:
        next_port[u] += 1
        next_port[v] += 1
        links.append((PortRef(u, next_port[u]), PortRef(v, next_port[v])))
    return links


def replay(n: int, links, ops) -> None:
    """Apply ``ops`` to a controller and to the reference, comparing every
    observable after each step.  Ops: ``("learn", i, reverse)`` confirms
    one direction of cable i; ``("remove", [(i, reverse), ...])`` removes
    directed entries; ``("edit", i, reverse, add)`` adds or removes one
    directed entry in the map with no retag, so a later retag meets a
    change nobody named; ``("retag", [i, ...])`` retags naming cables."""
    ctrl, services = _registered(n)
    ref = ReferenceRetag()

    def directed(i, reverse):
        a, b = links[i]
        return (b, a) if reverse else (a, b)

    def check_indexes(where):
        assert (ctrl.map.tag_spans, ctrl.map.pairs_on, ctrl.map.partners) \
            == rebuilt_indexes(ctrl.map.path_tags), where

    seen_records = 0
    seen_sent = 0
    for step, op in enumerate(ops):
        where = f"step {step}: {op}"
        if op[0] == "learn":
            egress, ingress = directed(op[1], op[2])
            calls = []
            ctrl.link_learned_hook = lambda pair, sends: calls.append(sends)
            ctrl._learn_directed(egress, ingress)
            got = calls[0] if calls else []
            want = ref.learn(egress, ingress)
        elif op[0] == "remove":
            entries = [directed(i, r) for (i, r) in op[1]]
            ctrl._remove_links(entries, cause="oracle")
            ref.remove(entries)
            got = want = None   # _remove_links discards the sends
        elif op[0] == "edit":
            link = directed(op[1], op[2])
            if op[3]:
                ctrl.map.add_link(*link)
                ref.directed_links.add(link)
            else:
                ctrl.map.remove_link(*link)
                ref.directed_links.discard(link)
            check_indexes(where)
            continue
        else:
            changed = [link_key(*links[i]) for i in op[1]]
            got = ctrl.retag_paths(changed)
            want = ref.retag_paths(changed)
        check_indexes(where)
        assert got == want, where
        assert ctrl.map.directed_links == ref.directed_links, where
        assert ctrl.map.path_tags == ref.path_tags, where
        assert ctrl.map.safe_to_remove == ref.safe_to_remove, where
        records = [(k, d) for (k, d) in services.records[seen_records:]
                   if k in COMPARED_RECORDS]
        seen_records = len(services.records)
        mods = [(m.dst, m.body) for m in services.sent[seen_sent:]
                if m.kind is MsgKind.GROUP_MOD]
        seen_sent = len(services.sent)
        assert records == ref.records, where
        assert mods == ref.group_mods, where
        ref.records.clear()
        ref.group_mods.clear()


def _random_history(rng: random.Random, n: int, cables: int, steps: int):
    pairs = []
    for _ in range(cables):
        u, v = rng.sample(range(1, n + 1), 2)
        pairs.append((u, v))
        if rng.random() < 0.15:
            pairs.append((u, v))    # a parallel cable
    links = _physical_links(n, pairs)
    ops = []
    for _ in range(steps):
        r = rng.random()
        i = rng.randrange(len(links))
        if r < 0.6:
            ops.append(("learn", i, rng.random() < 0.5))
        elif r < 0.85:
            k = rng.randint(1, 3)
            ops.append(("remove", [(rng.randrange(len(links)), rng.random() < 0.5)
                                   for _ in range(k)]))
        elif r < 0.9:
            ops.append(("retag", rng.sample(range(len(links)),
                                            rng.randint(0, min(2, len(links))))))
        else:
            ops.append(("edit", i, rng.random() < 0.5, rng.random() < 0.7))
    return links, ops


@pytest.mark.parametrize("seed", range(16))
def test_retag_matches_reference_on_random_histories(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    links, ops = _random_history(rng, n, cables=rng.randint(n, 2 * n + 4),
                                 steps=160)
    replay(n, links, ops)


def test_retag_matches_reference_when_a_graph_is_built_then_torn_down():
    # learn every cable both ways, then remove them one by one
    rng = random.Random(5)
    n = 12
    links, _ = _random_history(rng, n, cables=24, steps=0)
    order = list(range(len(links)))
    ops = [("learn", i, r) for i in order for r in (False, True)]
    rng.shuffle(order)
    ops += [("remove", [(i, False), (i, True)]) for i in order]
    replay(n, links, ops)


@st.composite
def _histories(draw):
    n = draw(st.integers(2, 7))
    node = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=12))
    links = _physical_links(n, pairs)
    cable = st.integers(0, len(links) - 1)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("learn"), cable, st.booleans()),
        st.tuples(st.just("remove"),
                  st.lists(st.tuples(cable, st.booleans()), min_size=1,
                           max_size=3)),
        st.tuples(st.just("retag"), st.lists(cable, max_size=2)),
        st.tuples(st.just("edit"), cable, st.booleans(), st.booleans())),
        max_size=40))
    return n, links, ops


@settings(max_examples=60, deadline=None)
@given(_histories())
def test_retag_matches_reference_property(history):
    replay(*history)


# -- backups against networkx ------------------------------------------------

@st.composite
def _chained_graphs(draw):
    """A sparse random graph whose edges are stretched into degree-2
    chains, hung off switch s of a theta: s and t joined by three chains,
    the first at least five hops shorter than the other two.  Toward s,
    t then has no way round within two hops of its own distance, so
    its detour takes the cut search.  Switch ids are shuffled, so ties
    break differently from one example to the next."""
    short = draw(st.integers(1, 3))
    arms = [short, draw(st.integers(short + 5, short + 8)),
            draw(st.integers(short + 5, short + 9))]
    extra = draw(st.integers(0, 6))
    base = [(draw(st.integers(0, i)), i + 1) for i in range(extra)]
    base += draw(st.lists(st.tuples(st.integers(0, extra), st.integers(0, extra))
                          .filter(lambda e: e[0] != e[1]), max_size=3))
    # s is 0 and t is 1; base switch i > 0 is i + 1; then chain links
    edges, nxt = [], extra + 2
    for (u, v), hops in [((0, 1), h) for h in arms] + [
            ((u + (u > 0), v + (v > 0)), draw(st.integers(1, 4)))
            for u, v in base]:
        walk = [u] + list(range(nxt, nxt + hops - 1)) + [v]
        nxt += hops - 1
        edges += zip(walk, walk[1:])
    nodes = sorted({x for e in edges for x in e})
    labels = draw(st.permutations(range(1, len(nodes) + 1)))
    name = dict(zip(nodes, labels))
    return [(name[u], name[v]) for u, v in edges], name[0], name[1]


def _lex_min_shortest(g, a, b):
    return min(tuple(p) for p in nx.all_shortest_paths(g, a, b))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_chained_graphs())
def test_backup_matches_networkx_on_chained_graphs(graph):
    """``PathsToward.backup`` is the lex-min shortest path in the graph
    without the primary's first non-bridge edge (which keeps the
    primary's bridge stretch in front), or None when every primary edge
    is a bridge; networkx finds both the paths and the bridges."""
    edges, s, t = graph
    g = nx.Graph(edges)
    adj = {v: set(g[v]) for v in g}
    bridges = {(min(e), max(e)) for e in nx.bridges(g)}
    cut_searches = []
    real = PathsToward._cut_detour

    def counted(paths, p, q):
        cut_searches.append((paths.path(p)[-1], p))
        return real(paths, p, q)

    PathsToward._cut_detour = counted
    try:
        for b in sorted(g):
            paths = PathsToward(adj, b, bridges)
            for a in sorted(g):
                if a == b:
                    continue
                primary = _lex_min_shortest(g, a, b)
                assert paths.path(a) == primary
                cut = next(((u, v) for u, v in zip(primary, primary[1:])
                            if (min(u, v), max(u, v)) not in bridges), None)
                if cut is None:
                    assert paths.backup(a) is None, (a, b)
                    continue
                g.remove_edge(*cut)
                want = _lex_min_shortest(g, a, b)
                g.add_edge(*cut)
                assert want[:primary.index(cut[0]) + 1] \
                    == primary[:primary.index(cut[0]) + 1]
                assert paths.backup(a) == want, (a, b)
    finally:
        PathsToward._cut_detour = real
    assert (s, t) in cut_searches
