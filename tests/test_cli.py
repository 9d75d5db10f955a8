"""Exit codes, file outputs, determinism, and table shape of the three
subcommands, driven through main() the way the console script would."""
import csv
import io
import json
import subprocess
import sys

import pytest
import yaml

from topodisc import cli
from topodisc.core import (
    ControlChannel,
    Link,
    LinkAdd,
    LinkRemove,
    OFPP_MAX,
    PortRef,
    Protocol,
    ScenarioSpec,
    SEC,
    SwitchLeave,
    encode_scenario,
)
from topodisc import scenarios
from topodisc.simnet import Engine

from test_simnet import reference_ndjson


def run_cli(*argv):
    return cli.main(list(argv))


# -- run ---------------------------------------------------------------------

def test_run_builder_writes_all_three_outputs(tmp_path):
    out = tmp_path / "res"
    assert run_cli("run", "--scenario", "walkthrough", "--out", str(out)) == 0
    trace = (out / "trace.ndjson").read_text().splitlines()
    assert all(json.loads(line)["kind"] for line in trace)
    rows = list(csv.reader((out / "metrics.csv").open()))
    assert rows[0][0] == "row_type"
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "walkthrough"
    # the composite walkthrough yields five event entries: bootstrap
    # plus join, leave, add, remove
    assert len(report["metrics"]["events"]) == 5


def test_trace_ndjson_failing_mid_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "trace.ndjson"
    path.write_text("old\n")
    eng = Engine()
    eng.record("ok", value=1)
    eng.record("bad", blob=b"\x00")  # not a JSON primitive
    with pytest.raises(TypeError):
        with cli.atomic_write(str(path)) as fh:
            cli.trace_ndjson(eng.trace, fh)
    assert [p.name for p in tmp_path.iterdir()] == ["trace.ndjson"]
    assert path.read_text() == "old\n"


def test_run_trace_ndjson_is_the_per_record_export(tmp_path, monkeypatch):
    """Over several export chunks, ``trace.ndjson`` holds what encoding
    each record of the run on its own gives."""
    sims = []
    run_closed = cli._run_closed

    def keep(*args):
        sims.append(run_closed(*args))
        return sims[-1]
    monkeypatch.setattr(cli, "_run_closed", keep)
    out = tmp_path / "res"
    assert run_cli("run", "--scenario", "random", "--seed", "1",
                   "--out", str(out)) == 0
    records = sims[0].engine.trace.records
    assert len(records) > 2 * 512
    assert (out / "trace.ndjson").read_text() == reference_ndjson(records)


def test_empty_trace_writes_an_empty_file():
    buf = io.StringIO()
    cli.trace_ndjson(Engine().trace, buf)
    assert buf.getvalue() == ""


def test_run_without_out_prints_report(capsys):
    assert run_cli("run", "--scenario", "square") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["protocol"] == "softdp"
    assert report["metrics"]["suspicious"] == 0


def test_run_protocol_override_and_until(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "--scenario", "square", "--protocol", "ofdp",
                   "--until", "2.5", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["protocol"] == "ofdp"
    assert report["horizon"] == int(2.5 * SEC)
    assert report["metrics"]["rounds"]


def test_run_yaml_file_round_trip(tmp_path):
    path = tmp_path / "sq.yaml"
    path.write_text(encode_scenario(scenarios.square()))
    out = tmp_path / "res"
    assert run_cli("run", "--scenario", str(path), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "sq"


def test_run_missing_file_is_a_scenario_error(capsys):
    assert run_cli("run", "--scenario", "no/such/file.yaml") == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_unparsable_yaml_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    assert run_cli("run", "--scenario", str(path)) == 2
    assert "cannot parse scenario" in capsys.readouterr().err


def test_run_malformed_yaml_is_a_located_scenario_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("switches: [\n")
    assert run_cli("run", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "cannot parse scenario" in err and "bad.yaml" in err
    assert "line 2, column 1" in err


@pytest.mark.parametrize("bad", [b"\xff\xfe", b"\xed\xa0\x80"],  # \xed..: a surrogate
                         ids=["ff-fe", "surrogate"])
def test_run_non_utf8_file_is_a_scenario_error(tmp_path, capsys, bad):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"protocol: softdp\n" + bad + b" bad\n")
    assert run_cli("run", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "bad.yaml" in err and "not UTF-8" in err
    assert "at byte offset 17" in err


def test_run_invalid_scenario_lists_violations(tmp_path, capsys):
    spec = scenarios.square()
    bad = ScenarioSpec(**{**spec.__dict__, "links": spec.links + (
        Link(PortRef(1, 9), PortRef(7, 1), 1000, 1000),)})
    path = tmp_path / "broken.yaml"
    path.write_text(encode_scenario(bad))
    assert run_cli("run", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "undeclared port s1.p9" in err
    assert "unknown switch s7" in err


def _set_attack_kind(doc):
    doc["timeline"][0]["kind"] = "nope"


def _set_attack_duration(doc):
    doc["timeline"][0]["params"]["duration"] = "soon"


def _set_attack_params(doc):
    doc["timeline"][0]["params"] = [1, 2]


def _set_bfd(doc):
    doc["bfd"] = 3


def _inject_without_victim(doc):
    doc["timeline"][0].update(kind="inject", params={"inject": [1, 1]})


def _set_victim_port(doc):
    doc["timeline"][0].update(kind="inject",
                              params={"inject": [1, 1], "victim_port": [9, 1]})


def _relay_without_inject_b(doc):
    doc["timeline"][0].update(kind="relay", params={
        "observe": [1, 1], "inject": [3, 1], "observe_b": [3, 1]})


def _relay_without_observe_b(doc):
    doc["timeline"][0].update(kind="relay", params={
        "observe": [1, 1], "inject": [3, 1], "inject_b": [1, 1]})


def _unknown_params_with_an_integer_key(doc):
    doc["timeline"][0]["params"].update({1: 2, "zz": 3})


def _inject_with_misspelled_spacing(doc):
    doc["timeline"][0].update(kind="inject", params={
        "inject": [1, 1], "victim_port": [3, 1], "spacng": "2s",
        "duration": "10s"})


def _set_field(*path):
    """Edit that sets the field at ``path`` (keys and list indexes) to
    the last element of ``path``."""
    *keys, value = path

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit, element", [
    (_set_attack_kind, "timeline[0]: unknown attack kind 'nope'"),
    (_set_attack_duration, "timeline[0].params.duration"),
    (_set_attack_params, "timeline[0].params: expected a mapping"),
    (_set_bfd, "bfd: expected a mapping"),
    (_inject_without_victim, "timeline[0].params.victim_port: missing"),
    (_set_victim_port,
     "timeline[0].params.victim_port: references unknown switch s9"),
    (_relay_without_inject_b, "timeline[0].params.inject_b: missing"),
    (_relay_without_observe_b, "timeline[0].params.observe_b: missing"),
    (_inject_with_misspelled_spacing,
     "timeline[0].params.spacng: unknown param: inject never reads it"),
    (_unknown_params_with_an_integer_key,
     "timeline[0].params.1: unknown param: spoof never reads it"),
    (_set_field("timeline", 0, "params", "observe", [1, 99]),
     "timeline[0].params.observe: references undeclared port s1.p99"),
    (_set_field("switches", 3), "switches: expected a list"),
    (_set_field("links", 5), "links: expected a list"),
    (_set_field("switches", 0, "dpid", "abc"),
     "switches[0].dpid: expected an integer"),
    (_set_field("switches", 0, "ports", "many"),
     "switches[0].ports: expected an integer"),
    (_set_field("bfd", "multiplier", "x"),
     "bfd.multiplier: expected an integer"),
    (_set_field("rng_seed", 1.5), "rng_seed: expected an integer"),
    (_set_field("timeline", 0, "params", "count", "abc"),
     "timeline[0].params.count: expected an integer >= 1"),
    (_set_field("timeline", 0, "params", "count", 0),
     "timeline[0].params.count: expected an integer >= 1"),
    (_set_field("timeline", 0, "params", "count", 2.5),
     "timeline[0].params.count: expected an integer >= 1"),
    (_set_field("timeline", 0, "params", "count", True),
     "timeline[0].params.count: expected an integer >= 1"),
    (_set_field("timeline", 0, "params", "rate", "abc"),
     "timeline[0].params.rate: expected an integer >= 1"),
    (_set_field("links", 0, "alive", "false"),
     "links[0].alive: expected true or false"),
    (_set_field("protocol", "bogus"),
     "protocol: 'bogus' is not a valid Protocol"),
    (_set_field("protocol", ["softdp"]),
     "protocol: ['softdp'] is not a valid Protocol"),
], ids=["unknown_kind", "bad_duration", "params_not_mapping",
        "bfd_not_mapping", "inject_without_victim_port",
        "victim_port_unknown_switch", "relay_without_inject_b",
        "relay_without_observe_b",
        "inject_misspelled_spacing", "unknown_params_integer_key",
        "observe_undeclared_port", "switches_not_list", "links_not_list",
        "dpid_not_integer", "ports_not_integer", "multiplier_not_integer",
        "rng_seed_not_integer", "count_not_integer", "count_zero",
        "count_float", "count_bool", "rate_not_integer",
        "alive_not_boolean", "protocol_unknown", "protocol_not_string"])
def test_run_bad_document_names_the_element(tmp_path, capsys, edit, element):
    doc = yaml.safe_load(encode_scenario(
        scenarios.attack_scenario("spoof", Protocol.OFDP)))
    edit(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli("run", "--scenario", str(path)) == 2
    assert element in capsys.readouterr().err


@pytest.mark.parametrize("kind, key", [
    ("flood", "duration"), ("inject", "spacing"), ("relay", "tunnel_delay"),
    ("relay", "duration"), ("spoof", "duration"), ("fingerprint", "duration")])
def test_run_negative_attack_duration_is_a_scenario_error(tmp_path, capsys,
                                                          kind, key):
    doc = yaml.safe_load(encode_scenario(
        scenarios.attack_scenario(kind, Protocol.OFDP)))
    doc["timeline"][0]["params"][key] = -5
    path = tmp_path / "negative.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli("run", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert f"timeline[0].params.{key}: negative duration -5" in err
    assert "Traceback" not in err


def test_run_port_count_above_ofpp_max_is_a_scenario_error(tmp_path, capsys):
    doc = yaml.safe_load(encode_scenario(scenarios.square()))
    doc["switches"][0]["ports"] = OFPP_MAX + 1
    path = tmp_path / "ports.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli("run", "--scenario", str(path)) == 2
    assert "s1: port count 65281 above OFPP_MAX (65280)" in capsys.readouterr().err


def test_run_link_add_to_an_absent_switch_is_a_scenario_error(tmp_path, capsys):
    spec = scenarios.square(timeline=(
        SwitchLeave(SEC, 2), LinkAdd(2 * SEC, PortRef(1, 1), PortRef(2, 1))))
    path = tmp_path / "absent.yaml"
    path.write_text(encode_scenario(spec))
    assert run_cli("run", "--scenario", str(path)) == 2
    assert "timeline[1]: link_add while s2 is absent" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_run_rejects_bad_until(capsys, value):
    assert run_cli("run", "--scenario", "square", "--until", value) == 2
    assert "--until" in capsys.readouterr().err


def test_run_until_is_bounded_by_max_time(capsys):
    # 2**63 - 1 ns is 9223372036.854775807 s
    for argv in (("run", "--scenario", "square"), ("attack", "--attack", "flood")):
        assert run_cli(*argv, "--until", "9223372036.854775808") == 2
        err = capsys.readouterr().err
        assert "--until" in err and "MAX_TIME" in err
        assert "Traceback" not in err


def test_run_event_past_max_time_is_a_scenario_error(tmp_path, capsys):
    spec = scenarios.square(timeline=(
        LinkRemove(300_000_000_000 * SEC, PortRef(1, 1), PortRef(2, 1)),))
    path = tmp_path / "late.yaml"
    path.write_text(encode_scenario(spec))
    assert run_cli("run", "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "timeline[0]: event time above MAX_TIME" in err
    assert "Traceback" not in err


def test_run_until_is_exact_to_the_ns(capsys):
    assert run_cli("run", "--scenario", "square",
                   "--until", "1.000000007") == 0
    assert json.loads(capsys.readouterr().out)["horizon"] == 1_000_000_007


def test_run_same_seed_is_byte_identical(tmp_path):
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        assert run_cli("run", "--scenario", "random", "--seed", "5",
                       "--out", str(out)) == 0
        outs.append(out)
    assert (outs[0] / "trace.ndjson").read_bytes() == \
        (outs[1] / "trace.ndjson").read_bytes()
    d0 = json.loads((outs[0] / "report.json").read_text())["digest"]
    d1 = json.loads((outs[1] / "report.json").read_text())["digest"]
    assert d0 == d1


def test_run_seed_changes_the_random_scenario(tmp_path):
    digests = []
    for seed in ("5", "6"):
        out = tmp_path / seed
        assert run_cli("run", "--scenario", "random", "--seed", seed,
                       "--out", str(out)) == 0
        digests.append(json.loads((out / "report.json").read_text())["digest"])
    assert digests[0] != digests[1]


# -- compare -----------------------------------------------------------------

def test_compare_table_and_csv(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--sizes", "0,2,4", "--out", str(out)) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[:3] == ["n", "protocol", "packet_outs_per_round"]
    rows = list(csv.DictReader((out / "compare.csv").open()))
    assert len(rows) == 9
    cell = {(r["n"], r["protocol"]): r for r in rows}
    # four-switch chain: six inter-switch ports vs one out per switch
    assert cell[("4", "ofdp")]["packet_outs_per_round"] == "6"
    assert cell[("4", "ofdpv2")]["packet_outs_per_round"] == "4"
    assert cell[("4", "softdp")]["packet_outs_per_round"] == "0"
    # empty network: nothing moves at all
    assert all(cell[("0", p)]["total_ctrl_msgs"] == "0"
               for p in ("ofdp", "ofdpv2", "softdp"))
    # identical discovery coverage for the two baselines
    assert cell[("4", "ofdp")]["packet_ins"] == \
        cell[("4", "ofdpv2")]["packet_ins"]


def test_compare_ordering_holds_per_size(tmp_path):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--sizes", "2,4,8", "--out", str(out)) == 0
    rows = list(csv.DictReader((out / "compare.csv").open()))
    by = {(r["n"], r["protocol"]): int(r["packet_outs_per_round"])
          for r in rows}
    for n in ("2", "4", "8"):
        assert by[(n, "ofdp")] >= by[(n, "ofdpv2")] >= by[(n, "softdp")]


def test_compare_rejects_unbuildable_sizes(capsys):
    assert run_cli("compare", "--sizes", "2,1") == 2
    assert "not buildable" in capsys.readouterr().err


def test_compare_rejects_garbage_sizes(capsys):
    assert run_cli("compare", "--sizes", "2,x") == 2
    assert "--sizes" in capsys.readouterr().err


# -- attack ------------------------------------------------------------------

def test_attack_default_testbed(tmp_path, capsys):
    out = tmp_path / "atk"
    assert run_cli("attack", "--attack", "spoof", "--protocol", "ofdp",
                   "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "attack=spoof protocol=ofdp succeeded=True" in stdout
    assert "session_accepted" in stdout
    payload = json.loads((out / "attack.json").read_text())
    assert payload["verdicts"][0]["kind"] == "spoof"
    assert payload["verdicts"][0]["succeeded"] is True


def test_attack_failed_verdict_still_exits_zero(capsys):
    assert run_cli("attack", "--attack", "flood",
                   "--protocol", "softdp") == 0
    assert "succeeded=False" in capsys.readouterr().out


def test_attack_scenario_must_declare_the_attack(capsys):
    assert run_cli("attack", "--attack", "spoof",
                   "--scenario", "square") == 2
    assert "declares no 'spoof' attack" in capsys.readouterr().err


def test_attack_accepts_matching_scenario_file(tmp_path, capsys):
    spec = scenarios.attack_scenario("inject", Protocol.OFDP)
    path = tmp_path / "inj.yaml"
    path.write_text(encode_scenario(spec))
    assert run_cli("attack", "--attack", "inject",
                   "--scenario", str(path)) == 0
    assert "attack=inject" in capsys.readouterr().out


def test_attack_non_utf8_scenario_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "inj.yaml"
    path.write_bytes(encode_scenario(scenarios.attack_scenario(
        "inject", Protocol.OFDP)).encode() + b"# \xff\n")
    assert run_cli("attack", "--attack", "inject",
                   "--scenario", str(path)) == 2
    err = capsys.readouterr().err
    assert "inj.yaml" in err and "not UTF-8" in err


def test_attack_horizon_too_short_for_verdict(capsys):
    assert run_cli("attack", "--attack", "spoof", "--protocol", "ofdp",
                   "--until", "1") == 3
    assert "no verdict" in capsys.readouterr().err


def test_attack_rejects_unknown_kind():
    with pytest.raises(SystemExit) as exc:
        run_cli("attack", "--attack", "mitm")
    assert exc.value.code == 2


# -- plumbing ----------------------------------------------------------------

def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "res"
    proc = subprocess.run(
        [sys.executable, "-m", "topodisc.cli", "run", "--scenario", "square",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
    assert "digest=" in proc.stdout
