"""Behaviour-identity gate: full trace digests of a fixed set of runs.

Every digest below was taken before the map-update paths of the three
engines were merged and the dead code was removed; a refactor that keeps
these digests keeps every trace byte of these runs.  A change that moves
one on purpose re-pins it and says why in CHANGES.md.
"""

import dataclasses

import pytest

from topodisc import cli, scenarios
from topodisc.core import SEC, Protocol
from topodisc.harness import Simulation

PROTOCOLS = (Protocol.OFDP, Protocol.OFDPV2, Protocol.SOFTDP)
ATTACKS = ("spoof", "inject", "relay", "flood", "fingerprint")
CHURN_HORIZON = 20 * SEC


def _churn_chain(n, protocol):
    spec = scenarios.chain(n, protocol=protocol)
    spec = dataclasses.replace(
        spec, timeline=cli._churn_timeline(spec, CHURN_HORIZON))
    return spec, CHURN_HORIZON


def _cases():
    """Case id -> zero-argument builder returning (spec, until)."""
    out = {}
    for p in PROTOCOLS:
        out[f"walkthrough-{p.value}"] = \
            lambda p=p: (scenarios.walkthrough(p), None)
        for seed in (1, 2, 3):
            out[f"random{seed}-{p.value}"] = lambda p=p, seed=seed: (
                dataclasses.replace(scenarios.random_scenario(
                    seed, n_switches=12, n_events=20), protocol=p), None)
        for kind in ATTACKS:
            out[f"{kind}-{p.value}"] = lambda p=p, kind=kind: (
                scenarios.attack_scenario(kind, p), None)
        out[f"relay-in-window-{p.value}"] = lambda p=p: (
            scenarios.attack_scenario("relay", p, in_window=True), None)
        for n in (4, 8):
            out[f"chain{n}-churn-{p.value}"] = \
                lambda p=p, n=n: _churn_chain(n, p)
    return out


CASES = _cases()

PINS = {
    "chain4-churn-ofdp": "96d78467c2bedcff466e1b7b0bff148c4b4b33876c738aeb0f40d1c377171c88",
    "chain4-churn-ofdpv2": "c5ffbc80cd7d916e2ac9ce090097525ce88a171ccbee2658b1b11eb7e08d5889",
    "chain4-churn-softdp": "fdafc175b36ad4e7170391856fa245b0760af77aabbd9fdc9c00d364d4b7cce4",
    "chain8-churn-ofdp": "a683b76319ec1818ceaa8ae992e9c48440961beaeff58f9dbe563820541d2f07",
    "chain8-churn-ofdpv2": "a3a25715a6c644448966bfdb19cd9122bf905dd4c94387e66f649d176ad90b3e",
    "chain8-churn-softdp": "5b26e1306575883a59f2d082234d7aac7d32df922b37687d3ccf1028309bc6f6",
    "fingerprint-ofdp": "c895cedb0e449e6ff2bdc9ecce30e76e13f7d2d8c672ddd36f0463880a7025c2",
    "fingerprint-ofdpv2": "1a4f94168db0d18634a6dfef140e77b1ff93dc47f69c17b91332c7a5ba3c9b33",
    "fingerprint-softdp": "4c6e58ff820ca61dff5c237ac7b6fef268e6920747ebee5a950eef6f8ffa9a6d",
    "flood-ofdp": "330fc0da014ca92895ec9a01b29203c42299a7cb8cc6749fad3ab3637766653e",
    "flood-ofdpv2": "a1bdedcdc4371c16e213aa8a4435bcbac93518a0f5f886cb7e16d94ad26508e5",
    "flood-softdp": "b5ea6e58c92b059def48a2b54962e296c99fea336d046550860707203f395071",
    "inject-ofdp": "f5e985839cae7efc1ae0ec24db90546ecacd9ef6fb3d91722672330f00ac765b",
    "inject-ofdpv2": "63f6169c8afc0312e6e2e23ca089e4e70d89f546af72e1332c51b99a03df69bd",
    "inject-softdp": "2b354b5d6c03afbfb9ed940b4b2971533f83c0ac3efd4bc0f8f721e6b1b74929",
    "random1-ofdp": "f39895068d5a395191a0780a7d673236d61513d8f028b0cce1970fdb612a6896",
    "random1-ofdpv2": "31eb282f7e8da8714853e0fdd086c24fefa7c3c1c39f87043874b23ebbce9cc0",
    "random1-softdp": "3f9d38e1d0c4107bed65c6a885c87cc341dcb36d82ca285a64e3ae891dd5be9d",
    "random2-ofdp": "27e44d464dfc02c9ae774fbce70eaae9d34740130b9613da5c2d7d7cdb9b4c36",
    "random2-ofdpv2": "973cf4c805ffcbae8a90d367588c3af2dbaecc358295fb38db5c34f83d0d5e82",
    "random2-softdp": "1ff65fd98fe76a1ad2a0168bebca05b298a4add19dcadc29af10b29c700d861b",
    "random3-ofdp": "370fa14990af65161d28c2d76a43b4691c494a3e643c677df9be8d2adefe38b2",
    "random3-ofdpv2": "d19df9dea28e53d01c1e1d89eaadc2fd8a9784f994e337e1d67a70241acfd328",
    "random3-softdp": "4f00c11ea0611c4c19bb31bb52565ed8411a0d7cdac5fe3f345753500861790f",
    "relay-in-window-ofdp": "81a110c18a2036172e81c854052a7e7edfead4c38e71517ffdf11cca94cf8376",
    "relay-in-window-ofdpv2": "3f459761cbea2b626a2b2e62dd85df1f68d5809d5643fa0089c7b2cf8f0a633d",
    "relay-in-window-softdp": "e66e5e728d68c6b04e532bed03934b92c182f7951709da25058c42a800bd8888",
    "relay-ofdp": "7ec7c42b9db8b33b56dffca509259ba5fd88bce4626bffdbfc7f460f042b5be3",
    "relay-ofdpv2": "58089e09a904b1508e7406a3822022aac34678e44bffdb637c69a1d20f4d3ce3",
    "relay-softdp": "6969a05ce93b0e75eef714a9077ab2b64d6b71b654eac5d710ddba84c4542e31",
    "spoof-ofdp": "6581c62a32cfe294a7d56850a65dd77823865c1d678cd6552bf1c2ebe1a53f47",
    "spoof-ofdpv2": "7678a1f389afcf09c336bbd3be8f89adca92899d1c063597fad5626a51b82c96",
    "spoof-softdp": "fc33ad6aaf57347c868dba01b08622c1b7c3a9ad8bce69b6ec6b721e51622751",
    "walkthrough-ofdp": "c5fc9afdd97e79547782717a997eb9ebb38fa86e3c840a6c780c1ea270378f82",
    "walkthrough-ofdpv2": "2f8bfd63a4151e1e8d64e03a4688c78a6a303cfb288a9e3c2ad00613b3cc1e30",
    "walkthrough-softdp": "2088af6bb811f656d2fc52153a01ea76c757f2d12a7fd469d0f0441038a00b03",
}


def digest_of(case: str) -> str:
    spec, until = CASES[case]()
    return Simulation(spec, name=case).run(until).engine.trace.digest()


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_pinned(case):
    assert digest_of(case) == PINS[case]
