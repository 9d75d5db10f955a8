"""Opt-in large tier: ``python -m pytest -m large``.

``random_scenario(7, n, 100)`` at 100 and 200 switches under all three
protocols.  Each run must keep its full trace digest (pinned before the
topology map was indexed and path tagging made incremental), end with a
map equal to ground truth, and under sOFTDP hold primary and backup tags
equal to the networkx oracle over the live links and meet the timing
formulas of criteria 2 and 3: every link add learned exactly when
predicted, every link removal no later than one BFD interval after.
The six runs and the two oracles take about two minutes on two cores,
so the tier is kept out of the default run (``addopts`` in
``pyproject.toml``).
"""
import dataclasses

import pytest

from topodisc import scenarios
from topodisc.core import Protocol
from topodisc.harness import Simulation

from test_controller import _oracle_tags

PINS = {
    (100, Protocol.OFDP): "ba30c098870c12652868e22d6d3fa31657ccbad598545322577cee40562da6bc",
    (100, Protocol.OFDPV2): "537034208fe5e3709f9fb7f7dc79eb620147b7f558f55e43d455ad9b5d67c0b5",
    (100, Protocol.SOFTDP): "9eede26eb82ee30a82382db4bdd894decaacdf45ab4e786cddc8a69e917148c8",
    (200, Protocol.OFDP): "e5976a208bce05640111698a2b1592b41d3fffc6b02eee7fcdd521129c654734",
    (200, Protocol.OFDPV2): "a802464508770110d1a822f6f98e10f35f7ebf21c006ef4490c3bb79466e34b6",
    (200, Protocol.SOFTDP): "464a005aa177ec03919179e52cba738f1d78ed851b084081fe8c46a3eebeda2a",
}


@pytest.mark.large
@pytest.mark.parametrize("n, protocol", sorted(PINS, key=lambda k: (k[0], k[1].value)),
                         ids=lambda v: getattr(v, "value", v))
def test_large_random_scenario(n, protocol):
    spec = dataclasses.replace(scenarios.random_scenario(7, n, 100),
                               protocol=protocol)
    sim = Simulation(spec).run()
    assert sim.engine.trace.digest() == PINS[(n, protocol)]
    assert sim.map_matches_ground_truth()
    if protocol is Protocol.SOFTDP:
        live = {(min(a.dpid, b.dpid), max(a.dpid, b.dpid))
                for (a, b) in sim.ground_truth()[1]}
        assert sim.controller.map.path_tags == _oracle_tags(sorted(live))
        deltas = [d for d in sim.report()["prediction_deltas"] if d is not None]
        adds = [d["delta"] for d in deltas if d["quantity"] == "link_add_learn"]
        removes = [d["delta"] for d in deltas
                   if d["quantity"] == "link_remove_learn"]
        assert adds and all(delta == 0 for delta in adds)
        assert removes and all(delta is not None and 0 <= delta <= spec.bfd.interval
                               for delta in removes)
