"""Event queue determinism and fabric delivery semantics."""

from hypothesis import given, strategies as st

from topodisc.core import (
    CONTROLLER,
    ControlMessage,
    LldpFrame,
    MS,
    MsgKind,
    PortRef,
    Protocol,
)
from topodisc.harness import Simulation
from topodisc.simnet import Engine, Fabric
from topodisc import scenarios


# -- engine ordering --------------------------------------------------------

def test_fifo_at_same_timestamp():
    eng = Engine()
    out = []
    for tag in "abc":
        eng.schedule_at(5, "t", lambda t=tag: out.append(t))
    eng.schedule_at(1, "t", lambda: out.append("first"))
    eng.run_all()
    assert out == ["first", "a", "b", "c"]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=60))
def test_fires_in_time_then_insertion_order(times):
    eng = Engine()
    out = []
    for i, t in enumerate(times):
        eng.schedule_at(t, "t", lambda i=i, t=t: out.append((t, i)))
    eng.run_all()
    assert out == sorted(out)


def test_run_until_inclusive_and_clock_lands_on_target():
    eng = Engine()
    out = []
    eng.schedule_at(10, "t", lambda: out.append(10))
    eng.schedule_at(11, "t", lambda: out.append(11))
    eng.run_until(10)
    assert out == [10] and eng.now == 10
    eng.run_until(20)
    assert out == [10, 11] and eng.now == 20


def test_events_scheduled_while_running_fire_in_order():
    eng = Engine()
    out = []

    def chain():
        out.append(eng.now)
        if eng.now < 30:
            eng.schedule(10, "t", chain)

    eng.schedule_at(0, "t", chain)
    eng.run_all()
    assert out == [0, 10, 20, 30]


def test_cancelled_event_does_not_fire():
    eng = Engine()
    out = []
    ev = eng.schedule_at(5, "t", lambda: out.append("no"))
    ev.cancel()
    eng.run_all()
    assert out == []


# -- event series -----------------------------------------------------------

# (delay, delays of the children the event's action schedules); small
# times, so that events of every origin collide at one instant
_timed = st.tuples(st.integers(0, 6), st.lists(st.integers(0, 3), max_size=2))
# (delay, spacing, count, delays of the children each event schedules)
_series = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 6),
                    st.lists(st.integers(0, 3), max_size=2))
_programs = st.fixed_dictionaries({
    "start": st.integers(0, 3),
    "before": st.lists(_timed, max_size=4),
    "series": st.lists(_series, min_size=1, max_size=3),
    "after": st.lists(_timed, max_size=4),
    "cut": st.integers(0, 20),
    "late": st.lists(_timed, max_size=4),
})


def _fired(program, series: bool) -> list:
    """Run ``program`` and return the fired (time, kind, tag) sequence.
    With ``series`` each series goes through ``schedule_series``, else
    through ``count`` schedule() calls up front."""
    eng = Engine()
    fired = []

    def event(kind, tag, children):
        def act():
            fired.append((eng.now, kind, tag))
            for i, delay in enumerate(children):
                eng.schedule(delay, "child", event("child", f"{kind}.{tag}/{i}", ()))
        return act

    def timed(name, items):
        for i, (delay, children) in enumerate(items):
            eng.schedule(delay, name, event(name, i, children))

    eng.run_until(program["start"])
    timed("before", program["before"])
    for j, (delay, spacing, count, children) in enumerate(program["series"]):
        kind = f"series{j}"
        if series:
            eng.schedule_series(
                delay, spacing, count, kind,
                lambda k, kind=kind, ch=children: event(kind, k, ch)())
        else:
            for k in range(count):
                eng.schedule(delay + k * spacing, kind, event(kind, k, children))
    timed("after", program["after"])
    eng.run_until(eng.now + program["cut"])  # often in the middle of a series
    timed("late", program["late"])
    eng.run_all()
    return fired


@given(_programs)
def test_series_fires_like_schedule_calls_made_up_front(program):
    assert _fired(program, series=True) == _fired(program, series=False)


def test_launched_flood_keeps_one_event_pending():
    spec = scenarios.attack_scenario("flood", Protocol.OFDP)
    sim = Simulation(spec)
    (launch,) = [ev.at for ev in spec.timeline]

    def pending():
        return sum(ev.kind == "attack_flood" for _, _, ev in sim.engine._heap)

    for t in (launch, launch + 100 * MS, launch + 500 * MS):
        sim.engine.run_until(t)
        assert pending() == 1
    sim.run()
    assert pending() == 0
    assert sim.fabric.counters["frames_injected"] == 10_000


# -- trace ------------------------------------------------------------------

def test_trace_digest_stable_and_sensitive():
    def build(flip):
        eng = Engine()
        eng.schedule_at(3, "x", lambda: eng.record("mark", value=2 if flip else 1))
        eng.run_all()
        return eng.trace.digest()

    assert build(False) == build(False)
    assert build(False) != build(True)


def test_trace_find_matches_detail():
    eng = Engine()
    eng.record("mark", value=1)
    eng.record("mark", value=2)
    assert len(eng.trace.find("mark")) == 2
    assert [dict(r.detail)["value"] for r in eng.trace.find("mark", value=2)] == [2]


# -- fabric -----------------------------------------------------------------

def _fabric():
    spec = scenarios.square()
    eng = Engine()
    return spec, eng, Fabric(eng, spec)


def test_control_delivery_delay_and_drop_on_closed_channel():
    spec, eng, fab = _fabric()
    got = []
    fab.deliver_to_controller = got.append
    fab.deliver_to_switch = lambda dpid, msg: got.append((dpid, msg))
    fab.open_channel(1)
    fab.send_control(ControlMessage(MsgKind.HELLO, src=1, dst=CONTROLLER,
                                    body=None))
    assert got == []
    eng.run_all()
    assert len(got) == 1 and eng.now == spec.channel(1).delay_to_controller

    fab.send_control(ControlMessage(MsgKind.HELLO, src=2, dst=CONTROLLER,
                                    body=None))  # channel 2 never opened
    eng.run_all()
    assert len(got) == 1
    assert fab.counters["ctrl_dropped"] == 1


def test_channel_close_drops_in_flight():
    spec, eng, fab = _fabric()
    got = []
    fab.deliver_to_switch = lambda dpid, msg: got.append(msg)
    fab.deliver_to_controller = got.append
    fab.open_channel(1)
    fab.send_control(ControlMessage(MsgKind.HELLO, src=CONTROLLER, dst=1,
                                    body=None))
    fab.close_channel(1)
    eng.run_all()
    assert got == []


def test_frame_flight_time_and_down_link_drop():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append((port, eng.now))
    link = spec.links[0]
    frame = LldpFrame(b"c", b"p", b"d")
    fab.send_frame(link.a, frame)
    eng.run_all()
    assert seen == [(link.b, link.delay_ab)]

    fab.set_link_alive(link.a, link.b, False)
    fab.send_frame(link.a, frame)
    eng.run_all()
    assert len(seen) == 1
    assert fab.counters["frames_dropped"] >= 1


def test_link_death_drops_in_flight_frame():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append(port)
    link = spec.links[0]
    fab.send_frame(link.a, LldpFrame(b"c", b"p", b"d"))
    # kill the link while the frame is mid-flight
    eng.schedule_at(link.delay_ab // 2, "cut",
                    lambda: fab.set_link_alive(link.a, link.b, False))
    eng.run_all()
    assert seen == []


def test_flap_generation_isolates_old_traffic():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append(port)
    link = spec.links[0]
    fab.send_frame(link.a, LldpFrame(b"c", b"p", b"d"))
    half = link.delay_ab // 2
    eng.schedule_at(half, "cut", lambda: fab.set_link_alive(link.a, link.b, False))
    eng.schedule_at(half + 1, "heal", lambda: fab.set_link_alive(link.a, link.b, True))
    eng.run_all()
    # the pre-flap frame died with its generation even though the link is
    # alive again by its scheduled arrival
    assert seen == []


def test_host_port_frame_is_observable():
    spec = scenarios.testbed_chain(scenarios.Protocol.OFDP)
    eng = Engine()
    fab = Fabric(eng, spec)
    host_port = PortRef(1, 2)
    fab.send_frame(host_port, LldpFrame(b"c", b"p", b"d"))
    eng.run_all()
    assert fab.counters["frames_to_hosts"] == 1
    assert eng.trace.find("frame_at_host", port=str(host_port))


def test_inject_frame_arrives_immediately():
    spec, eng, fab = _fabric()
    seen = []
    fab.frame_arrival = lambda port, frame: seen.append(port)
    fab.inject_frame(PortRef(1, 1), LldpFrame(b"c", b"p", b"d"))
    assert seen == [PortRef(1, 1)]
