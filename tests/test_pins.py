"""Behaviour-identity gate: full trace digests of a fixed set of runs,
plus the sha256 of the ``report.json``, ``metrics.csv`` and
``trace.ndjson`` text of the same runs.  The report's map dump covers
state the trace does not, such as ``safe_to_remove`` and the path tags
of pairs that pushed no group.

The trace digests were taken before the map-update paths of the three
engines were merged and the dead code was removed, the report and
metrics pins before the sOFTDP discovery state was simplified, and the
ndjson pins before the trace export was streamed; a refactor that keeps
them keeps every trace byte and every output byte of these runs.  A
change that moves one on purpose re-pins it and says why in CHANGES.md.
"""

import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topodisc import cli, scenarios
from topodisc.core import SEC, Protocol
from topodisc.harness import Simulation
from topodisc.metrics import to_csv_text

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
    # the benchmark's seed-7 churn_softdp spec: path retagging dominates it
    out["churn60-softdp"] = lambda: (scenarios.random_scenario(7, 60, 20), None)
    return out


CASES = _cases()

PINS = {
    "chain4-churn-ofdp": "96d78467c2bedcff466e1b7b0bff148c4b4b33876c738aeb0f40d1c377171c88",
    "chain4-churn-ofdpv2": "c5ffbc80cd7d916e2ac9ce090097525ce88a171ccbee2658b1b11eb7e08d5889",
    "chain4-churn-softdp": "fdafc175b36ad4e7170391856fa245b0760af77aabbd9fdc9c00d364d4b7cce4",
    "chain8-churn-ofdp": "a683b76319ec1818ceaa8ae992e9c48440961beaeff58f9dbe563820541d2f07",
    "chain8-churn-ofdpv2": "a3a25715a6c644448966bfdb19cd9122bf905dd4c94387e66f649d176ad90b3e",
    "chain8-churn-softdp": "5b26e1306575883a59f2d082234d7aac7d32df922b37687d3ccf1028309bc6f6",
    "churn60-softdp": "f4472d4f312c2eb9ecbf59b21998e8e1b5a02cd2d4b39714583314b81009e04a",
    "fingerprint-ofdp": "c895cedb0e449e6ff2bdc9ecce30e76e13f7d2d8c672ddd36f0463880a7025c2",
    "fingerprint-ofdpv2": "1a4f94168db0d18634a6dfef140e77b1ff93dc47f69c17b91332c7a5ba3c9b33",
    "fingerprint-softdp": "4c6e58ff820ca61dff5c237ac7b6fef268e6920747ebee5a950eef6f8ffa9a6d",
    "flood-ofdp": "330fc0da014ca92895ec9a01b29203c42299a7cb8cc6749fad3ab3637766653e",
    "flood-ofdpv2": "a1bdedcdc4371c16e213aa8a4435bcbac93518a0f5f886cb7e16d94ad26508e5",
    "flood-softdp": "b5ea6e58c92b059def48a2b54962e296c99fea336d046550860707203f395071",
    "inject-ofdp": "f5e985839cae7efc1ae0ec24db90546ecacd9ef6fb3d91722672330f00ac765b",
    "inject-ofdpv2": "63f6169c8afc0312e6e2e23ca089e4e70d89f546af72e1332c51b99a03df69bd",
    "inject-softdp": "2b354b5d6c03afbfb9ed940b4b2971533f83c0ac3efd4bc0f8f721e6b1b74929",
    "random1-ofdp": "72828499ea7a6ad79e7b5e629929d3c00942aa24dc3466468ac2bd88949d01a5",
    "random1-ofdpv2": "ed03bec1c8f8e8c561337b513452183e76a1e8e4152dfd36420cc40435206523",
    "random1-softdp": "3f9d38e1d0c4107bed65c6a885c87cc341dcb36d82ca285a64e3ae891dd5be9d",
    "random2-ofdp": "0bd12aea17d1b2d8533f885c06c4e196f01c15901b8d78273bc237a2a6aaf099",
    "random2-ofdpv2": "595864551331786847e7366784a56cb091fb7569ae367e17a61871ce7e76d24f",
    "random2-softdp": "1ff65fd98fe76a1ad2a0168bebca05b298a4add19dcadc29af10b29c700d861b",
    "random3-ofdp": "4ad34bb9f79b602d53d1734bf85610e118b5cba2881d3035eb8a645b05ee1042",
    "random3-ofdpv2": "549de5d1c640ddf4dfbc6748560c75ae8bb384ff5a5d4dda9827a18d7ad8b381",
    "random3-softdp": "293e007ee346af7a83f29dd62b2c97eefbfd96e85999708a10f8d7305bf07f11",
    "relay-in-window-ofdp": "81a110c18a2036172e81c854052a7e7edfead4c38e71517ffdf11cca94cf8376",
    "relay-in-window-ofdpv2": "3f459761cbea2b626a2b2e62dd85df1f68d5809d5643fa0089c7b2cf8f0a633d",
    "relay-in-window-softdp": "e66e5e728d68c6b04e532bed03934b92c182f7951709da25058c42a800bd8888",
    "relay-ofdp": "7ec7c42b9db8b33b56dffca509259ba5fd88bce4626bffdbfc7f460f042b5be3",
    "relay-ofdpv2": "58089e09a904b1508e7406a3822022aac34678e44bffdb637c69a1d20f4d3ce3",
    "relay-softdp": "6969a05ce93b0e75eef714a9077ab2b64d6b71b654eac5d710ddba84c4542e31",
    "spoof-ofdp": "6581c62a32cfe294a7d56850a65dd77823865c1d678cd6552bf1c2ebe1a53f47",
    "spoof-ofdpv2": "7678a1f389afcf09c336bbd3be8f89adca92899d1c063597fad5626a51b82c96",
    "spoof-softdp": "fc33ad6aaf57347c868dba01b08622c1b7c3a9ad8bce69b6ec6b721e51622751",
    "walkthrough-ofdp": "0b937c1434a44e4ee9095860e3ef5c7b89f0e26f3d8c8c54862a402fe82783c2",
    "walkthrough-ofdpv2": "f23b1a05cbd056a960258cffce10ad084bf0b3cf0185f7457d5e8f1b314e81d9",
    "walkthrough-softdp": "2088af6bb811f656d2fc52153a01ea76c757f2d12a7fd469d0f0441038a00b03",
}


REPORT_PINS = {
    "chain4-churn-ofdp": "e7a0bec10be71fd45cc2671fa9bf654c08e9aa203633ffd3c5b5a240dfdead95",
    "chain4-churn-ofdpv2": "488d415c73d2df09d6ccddf30986087255184a8ce7bb8f6ab5278e106a8b56ea",
    "chain4-churn-softdp": "dc5e193375f2ba292297a47e97615325b1875b3e9890456aede3a8585c50a34c",
    "chain8-churn-ofdp": "65a7f1bcb96ebb9b768a72bd397a779baef3283fb5e31975b237c60791c724df",
    "chain8-churn-ofdpv2": "5b81a77759afcfb7d6cd397013986ec2d995f1f49998359a15d7615744254b2f",
    "chain8-churn-softdp": "4c725e7853afc1d38ca7f54b05bf75d75da25eedbae07eb4bf5f79550d29b882",
    "churn60-softdp": "9ff6fb194d5be1eeabe02b8f218b2fa5cc991fae1aeaac4e320101c832f001ee",
    "fingerprint-ofdp": "f23b70fff7cfad46f4aa3d10d46e7f1b1e78361519311e7b1dd56f86de284644",
    "fingerprint-ofdpv2": "18d6f77c6e726cf1d635c4fbb656068727139842b693ba6851a2ed78cb8b76b8",
    "fingerprint-softdp": "6cc9bedbf6f5d6a42ed92a25a464ed461c8635835f4a5c3627110ef9e0cc48a4",
    "flood-ofdp": "f91d77e5da6e605be1e4a6accce3b8e56dd4a2dd46418345b038879d2d754faa",
    "flood-ofdpv2": "6581ccf753bd4f02548c2e5d0a70bac90d068160b557ab603aa83cd1e993144f",
    "flood-softdp": "0f610413faa14872abeed294105fee57f7c31cf8a67e0029211ea670d2dcc490",
    "inject-ofdp": "32ba606c53d403340acd7a1cd03a41a207aad90252a5fecdb9589066171190e4",
    "inject-ofdpv2": "1ad38000a4744856a98092a19ae2ee4c8663c766c332ea7c9269dafe385fee35",
    "inject-softdp": "afc189dcd2de8f4f28524b9c573dade4efb13ebe67572750058d131c9bdb351a",
    "random1-ofdp": "a08fcfb34c62ea12ebfd05be29a32d3c55b1f4a24f6cd0784f9418a01249bf90",
    "random1-ofdpv2": "98fd80b512ab41c40f1b0ea1241e22d4068d7ff2aca7ca14e2ffe05205065877",
    "random1-softdp": "bef34dc25c69c348b7d5d8d0053e6d5fdffb25b5fa773fe314da4d8153a44602",
    "random2-ofdp": "07c117715324410fff343c9e450d939b77415234edb82890f673e3a9101ff097",
    "random2-ofdpv2": "77462448a864e75d257db852a61d57226b10fd7a74a25c04013731b4672d4942",
    "random2-softdp": "47edae7bd271b22e11aaafad21d38a4881462cd307c790aaf466e1315aaf9bb9",
    "random3-ofdp": "163925448c35124d8825a3bf57a723330874021ac65bfbd43eceda237a19a8e0",
    "random3-ofdpv2": "bc8430ab74e60cd51016e4cebd96ce5e677d584da64c9a7e50c4cde6684c9add",
    "random3-softdp": "db17da6718d7c037d396a35cf4b6c7cbf6e02ada010e447a83b7c316f3b4421e",
    "relay-in-window-ofdp": "cb3fda589b49635465052691d3664098f8419a3febac974fc678e06138b01ca1",
    "relay-in-window-ofdpv2": "f9a95ce5f5d6cb3d71e53552764d48bc5a55749f3305bb56dd46bc2bddb83261",
    "relay-in-window-softdp": "979566d0801de951970c3fd81b234b87562e717cfbdcb603ca7ec3a149a92309",
    "relay-ofdp": "a6c9418f79c7cc9630eafdc33b6ae2cbdaebd64dcadffb50680836f0c29921e3",
    "relay-ofdpv2": "7f37c47a32e61c9b8d81c232b07ce14b4b9367cf67f0cfb89b9bc425396c7485",
    "relay-softdp": "99fe5dce8e14d84edf596ddce4072fc174da74d7fd9561cc483855075557addf",
    "spoof-ofdp": "d30a030f618a289770bfa21c14bf3be7e4c8083d32ff267c6b465aa30fa17251",
    "spoof-ofdpv2": "62764b9847cf0d5ef8892315c8b3dd9de890ed93c15d5bd8a973506ba1b3e23d",
    "spoof-softdp": "209b107824138b13d533d53fcecbfc92ae9f99741d5efd857a39af07a0ec5b83",
    "walkthrough-ofdp": "232cd91c7bdd51892b778a549fa9a8f47ba676b5faa3cc43234fda1929641da5",
    "walkthrough-ofdpv2": "ab9b787e708f854eb6be77077131c731a5cce7adf446c9b959d7094bd9c8bdad",
    "walkthrough-softdp": "d7ddd20970c7c04b54f448306c7fccca3bcebcabf4b2dc6bb65f692871beaa04",
}
CSV_PINS = {
    "chain4-churn-ofdp": "0f52265981b105fa6b414060fa4a66fa7ec8ca445d6d841faa4b315e4e81a60d",
    "chain4-churn-ofdpv2": "67600ba17349954308651d1ab22358842c5aba2ea783c0ccaf21dd61ac35fed7",
    "chain4-churn-softdp": "03d70740ae5407d258ef4b512f45977bcc4eb2f2d4a5b5eef3eb70e1feec7017",
    "chain8-churn-ofdp": "6ea7c6bf0d4b43e7d573281fc09bed84a42cc1c345031821a9eb52fbf7785640",
    "chain8-churn-ofdpv2": "7800211fa9d66e3c7cf8acd81f1ca7addb68c17228c0497068ea18b520e55b70",
    "chain8-churn-softdp": "c10394ad44eb97aa0efabb3fc65e48bd72894b02631a6c2e03acf2a9cb48d7a6",
    "churn60-softdp": "86ec3a2da3e843d25a0dd7f8178a9a6bc6957ec17d60625ade1ba89dca5ca469",
    "fingerprint-ofdp": "c7b7567837bc5f19f47aca832d32a87c6d31882efbdb7497915147561488edbd",
    "fingerprint-ofdpv2": "7d48b7930aa64d76676e74b624fe4dc69bc640aed70b72de9fd18617cc15b5bc",
    "fingerprint-softdp": "f5a05b5e9710f5cc5cc48d2d9d03c4600f96772f7de9e1ee5f72222f76636b4b",
    "flood-ofdp": "d83bed032f5510fe9510755c87a2bf2d1324e93fedbd3761d8e10e9949d724ff",
    "flood-ofdpv2": "213b98289968826cd644565460c536a29258404df1164fd844a6ed86fbe9cd76",
    "flood-softdp": "77a3771fb7bbd8a0cfd4ca64edd07f4167ae947ebe22fb8155e0fa2544bd0912",
    "inject-ofdp": "4290835b63a0a9774676f7b78991c23961b1ef4b6d5ad4d10f61ed466c36a29e",
    "inject-ofdpv2": "567c5ea05833c424e3dc02cdd2162091e20a7902c92c99d64937b9e346a278ce",
    "inject-softdp": "58812d7484289459f264f5377bb0d8dc2b6f2830d9078529599889f9c8e5e58d",
    "random1-ofdp": "d4b3068fa2994daf0c2ff05df5493046e7613194c52369972ecd3ce829a0e43e",
    "random1-ofdpv2": "41dc80ba1f40035c2ec39e566b3381fc047ea2b7d5401a76dd2d3eba7f770093",
    "random1-softdp": "8ae75acf5972244ed819e0a138f533fbf25a129282b08b4c3177ee62bfd99a43",
    "random2-ofdp": "77648160e2352321910086556355c1a034c46ab0e5c1b0ee894a1122d54ad788",
    "random2-ofdpv2": "d26803677ab0a2e7fd50aa492ae8d9c201b64b79edfdf54391278d538c2e941c",
    "random2-softdp": "a8e5b195d858f82c0ac45ac4c7cd8003f8038968a590ed14fe106296134d97b9",
    "random3-ofdp": "d86a8e9adcc6cc8c803586d8d81f82982d5797c97f25bc89bff9e859850cef76",
    "random3-ofdpv2": "bd5a900e748f0a2e29210fd63e742eca50c5f9d0863441bce72c8097bd8f145d",
    "random3-softdp": "f35159d05789725610a912bf0358f2281a034bc4ae340eebf7d885ae52374b74",
    "relay-in-window-ofdp": "266dfbf355e44153f102465671f2a2649d63ef89af3044eeb157c26ace0b5ff0",
    "relay-in-window-ofdpv2": "d10c915e021ec5db33ca2f52627051b0eafcc982983f307cac31a6ed72b7f299",
    "relay-in-window-softdp": "e84cdd1a51af3ea225c60211570bab0f3704b4ff83bd4693428b32a72db82aea",
    "relay-ofdp": "67efa742c45ecd86cb7910ec989d969b937f4055bb3c40b9750582740328eea4",
    "relay-ofdpv2": "598138219a6946ffd2a56910a0aabafb9c3932006738253171d4c95e4c67cb59",
    "relay-softdp": "5a16b172eebb9e9934417dbb20ff79fd796419ea8d5badfd2d8a5747a3e8c0f2",
    "spoof-ofdp": "bfc034c3395947f3c52ee744d46683f1c8330afe7801b27efd6c778ce732eaa1",
    "spoof-ofdpv2": "0dda801f70c03066ff76bd37f441898641050999f71a719a53b74e7d4c5e3e63",
    "spoof-softdp": "69c3ebcde02bee28cdb43285b4dd0269a6c993b3989accc98096b46478e18136",
    "walkthrough-ofdp": "f715c43581e13304c50f16319d96b599f22c130d9ba878f3c2353cd864abd302",
    "walkthrough-ofdpv2": "df5bc92df20e34b0c3e509fc12f85a65941d0ca4a75e90b9058e8ba3ef478b24",
    "walkthrough-softdp": "fdd0f0823777ab50540d049580c6118261a5576a2581a979590684eb3667dca3",
}
NDJSON_PINS = {
    "chain4-churn-ofdp": "81c042e7f2cdab493d88475e45945d3c734ad28acb11d3443a1c9cf4e7f60025",
    "chain4-churn-ofdpv2": "d2912464a99e36228440d2ef973a5ffd78b891d08bc67487cc4bd72229a166c3",
    "chain4-churn-softdp": "4f740c9cbf1dd4770ef97ae0736923a11a071a99c7a6ab21dfba4c6c604d9993",
    "chain8-churn-ofdp": "b3b5065f7ba2a525b5829ac89ff2364fd559881ae38f283f3bc189765ce2af2b",
    "chain8-churn-ofdpv2": "029575018caf434733bd9bc99a97b1766841e70d01a569d10fe7bbad0476b68d",
    "chain8-churn-softdp": "d361d3899979c2d3da32089240e8a0022a9a402268515416b50e3696c10713a8",
    "churn60-softdp": "03b6c5d32bd496cefcc1063c0c85453b3d308d2c1f21b8b0398a96e9b8aa33ad",
    "fingerprint-ofdp": "c8c4e391f8798d5e760f09da2e11454e8b32db8554069d9d9f99d03cd3ef5dd7",
    "fingerprint-ofdpv2": "da65cfdb38bf07a002b221ac346d7270deda081fe2b842a919ebeaa340881d2c",
    "fingerprint-softdp": "8616129a6af3b393ce818fb0f5858952587b68120b8d655fb1b6d767360b2e4d",
    "flood-ofdp": "a83710d2d32e2d3fec0b3d1cb6c556cbf6d9d4598c33c7fbd01b9d48354b0c24",
    "flood-ofdpv2": "7c244d9aef5e56e2a924e37931313bed06eb0061bd7205d9dc8b612e5088ca7a",
    "flood-softdp": "b07c4ca1c94ac944f9ceb2cd8c459ca3ec2e1a98a307ebe41663e11f916b6483",
    "inject-ofdp": "b527497616a87892f87675fdc0503e6f7f89b479ad254f8902821763a52c649a",
    "inject-ofdpv2": "79cc1c7fe680c113c3af5f5970846b67c70f75e88e45595016450622bfaba3b2",
    "inject-softdp": "9e443dbc658800c6b4faf6f6ac7f8952031b9c67adcb6856c2849141d96b6327",
    "random1-ofdp": "dd784cbdb90b033fa4534a3b471523a24886310f65ff2ef80ff7cd4dcc8874a7",
    "random1-ofdpv2": "028d17992f23dcf0450090e533f603f7cde0485f0829cdff14198718ea3bea94",
    "random1-softdp": "6e68e1f82f89066bedb4d333f07af7c67035cf4cda5a0b8f63618a0c2b3c52f7",
    "random2-ofdp": "916a25723ba9a56ef848f249368e1f21643f8ca920a0a49735cc4d79c7d20e4b",
    "random2-ofdpv2": "975184df19802f57307e9bc3bd2f4a1c25e903ea65136330d15fb9212d9cb866",
    "random2-softdp": "c2f84b867e363b668f74f286a1fed3ee9823ef400be42e985bcd05b243964374",
    "random3-ofdp": "7e140b5e37d7a3cb41df632ed20f19db1a475f3e67d29a994ededbed71e22578",
    "random3-ofdpv2": "9d75ae5b18e03608f06b05831e2b993e8a056fb78a1ddd3f998735b9057b7b3a",
    "random3-softdp": "dde30e13fe0b996972be51a79bef9f6f09436a2d2b3b8cbe3f45ec5de56d309d",
    "relay-in-window-ofdp": "fcc53a19eff546b36d38e3d7f1d1623a948a77f8a21f80106d35ee3f82ab3983",
    "relay-in-window-ofdpv2": "fb83a9256450ab537350c33f95ca5b499b42110d85603b54dcf7dd91249473ab",
    "relay-in-window-softdp": "b4547854ebb531ac2f26434d334ed80ce9ca1702f35028c43c2bce595a5982ed",
    "relay-ofdp": "6787e895a59e472c368f738868768fb021dccf6efd0d33bcf88ddaa45a4b2202",
    "relay-ofdpv2": "97690b1365c9dba259b8b61f9b35960e89b33f8dc5b447265cec073eea3b32fe",
    "relay-softdp": "7240797193c51597484da379e285127c4b6d736e76b84267c60439edc8e39317",
    "spoof-ofdp": "f705f8d1e605c591fed49c22ff82294f201675f02da5f5af8a535866c299ca69",
    "spoof-ofdpv2": "fd36b3e120e790d2385053b13190215e6e1e447b54e5d466b4cd67086dccfd56",
    "spoof-softdp": "c64e9c2f921d0f723cf6f1fc4955852e6256f84a2cb766d83d5b57c07aac95cb",
    "walkthrough-ofdp": "e0d0bf2123321f5d167f21c7513df36bf3c6b3eb8ad1f4b13e26e46cc3a3fa9b",
    "walkthrough-ofdpv2": "97ebd6412151204a93c4b6392a10a109e5e600480f5289447cfe63488396da02",
    "walkthrough-softdp": "ce139ac92a4748e32625d03633161334cae0d1466652421d701f2d6f8570519e",
}


@functools.lru_cache(maxsize=None)
def outputs_of(case: str) -> tuple[str, str, str, str]:
    """(trace digest, sha256 of report.json, sha256 of metrics.csv, sha256
    of trace.ndjson), with the three files rendered exactly as
    ``topodisc run --out`` writes them."""
    spec, until = CASES[case]()
    sim = Simulation(spec, name=case).run(until)
    # every writer passes primitives, so a record's detail is its JSON
    for r in sim.engine.trace.records:
        assert r.detail == json.loads(r.payload_json()), r
    report = json.dumps(sim.report(), indent=2, default=str) + "\n"
    csv = to_csv_text(sim.run_metrics())
    ndjson = io.StringIO()
    cli.trace_ndjson(sim.engine.trace, ndjson)
    return (sim.engine.trace.digest(),
            hashlib.sha256(report.encode()).hexdigest(),
            hashlib.sha256(csv.encode()).hexdigest(),
            hashlib.sha256(ndjson.getvalue().encode()).hexdigest())


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(REPORT_PINS) == sorted(CSV_PINS) \
        == sorted(NDJSON_PINS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_pinned(case):
    assert outputs_of(case)[0] == PINS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_and_metrics_are_pinned(case):
    _, report, csv, _ = outputs_of(case)
    assert (report, csv) == (REPORT_PINS[case], CSV_PINS[case])


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_ndjson_is_pinned(case):
    assert outputs_of(case)[3] == NDJSON_PINS[case]


# Run again under another hash seed: the flood writes one record pair per
# frame through the shared details and the text memos, the sOFTDP
# walkthrough exercises every sOFTDP mechanism, and the 60-switch churn
# runs the retag's tag index, spans and detour memos at scale.
HASH_SEED_CASES = ("flood-ofdp", "walkthrough-softdp", "churn60-softdp")


def test_pinned_outputs_do_not_depend_on_the_hash_seed():
    """No set, dict or memo order may reach an output: a subprocess with
    another PYTHONHASHSEED gives the pinned digest, report, metrics and
    ndjson of each case."""
    here = Path(__file__).resolve().parent
    seed = "7" if os.environ.get("PYTHONHASHSEED") == "4242" else "4242"
    path = os.pathsep.join(filter(None, (
        str(here.parent / "src"), os.environ.get("PYTHONPATH"))))
    script = ("import sys, test_pins\n"
              "for case in sys.argv[1:]:\n"
              "    print(*test_pins.outputs_of(case))\n")
    done = subprocess.run(
        [sys.executable, "-c", script, *HASH_SEED_CASES], cwd=here,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [
        [PINS[case], REPORT_PINS[case], CSV_PINS[case], NDJSON_PINS[case]]
        for case in HASH_SEED_CASES]
