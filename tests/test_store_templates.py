"""The WAL's record templates against the generic record encoder.

Refused grabs, admissions and sightings are written from templates
their sink compiles once (:class:`repro.store.wal.RecordTemplate`);
every other record goes through :func:`encode_record`.  A templated
record must be the one :func:`encode_record` writes for the same
payload, in CRC, line and size, for any address, time and sequence
number, and must travel the same funnel:

* the templates equal :func:`encode_record` for any payload and hole
  values, and refuse the same payloads with the same error;
* a group of refused grabs, any non-empty subset of the default
  probes in probe order under either scan label, encodes record by
  record as their generic encodings, and a group of one as the
  template's own encoding; every admission and sighting record equals
  its generic encoding; both across the whole address space
  (including the two ranges ``format_address`` hands to
  :mod:`ipaddress`), for ``float`` and ``int`` times and sequence
  numbers up to 2^40;
* a refused builder whose grab varies in more than address and time
  cannot be templated;
* a store attached after the engine's first probe writes what one
  attached before it writes, without encoding any settled grab;
* the ``pre-append``/``post-append`` fault points and the store
  counters see each templated record once, whether its target's
  probes were all settled, some dispatched or all dispatched, and the
  counters match the WAL after a fault hook raises at any point inside
  a group;
* a resume whose refused builder changed fails at that probe's first
  record.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io.jsonl import grab_to_json
from repro.ipv6 import format_address, parse
from repro.net.clock import VirtualClock
from repro.net.simnet import Network, SimpleSession
from repro.obs.metrics import use_registry
from repro.runtime.registry import ProbeRegistry, ProbeSpec, default_registry
from repro.scan.engine import ScanEngine
from repro.scan.modules.mqtt import refused_mqtt
from repro.scan.result import ScanResults
from repro.store import RecoveryError, RunStore, StoreWriter, fault_injection
from repro.store.wal import RecordTemplate, encode_group, encode_record

from tests.test_store_codec import PAYLOADS, SEQS, VALUES
from tests.wal_reference import read_all

ADDRESSES = st.one_of(
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),                # ::/96
    st.integers(min_value=0xFFFF << 32, max_value=(0xFFFF << 32) | 0xFFFFFFFF),
)
TIMES = st.one_of(st.floats(), st.integers(min_value=0, max_value=2**40))
WAL_SEQS = st.integers(min_value=1, max_value=2**40)
SERVERS = st.one_of(st.text(max_size=12),
                    st.sampled_from(["Köln", "São Paulo", "東京", 'a"b\\']))
LABELS = ("ntp", "hitlist")
SPECS = tuple(default_registry())
#: A non-empty subset of the default probes, as member indices in
#: probe order.
MEMBERS = st.sets(st.integers(min_value=0, max_value=len(SPECS) - 1),
                  min_size=1).map(sorted)

SRC = parse("2001:db8:5c::1")
#: Targets without a host (every probe settles as refused) around one
#: host with HTTP open (its HTTP probe is delivered).
OPEN = parse("2001:db8:700::4")
TARGETS = (parse("2001:db8:700::1"), OPEN, parse("::ffff:192.0.2.7"),
           parse("2001:db8:700::9"))


def expect_same_encoding(template, seq, holes, payload):
    """``template`` with ``holes`` encodes as ``encode_record`` does
    ``payload``, or raises its error."""
    try:
        expected = encode_record(seq, payload)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            template.encode(seq, *holes)
        assert str(raised.value) == str(error)
        return
    assert template.encode(seq, *holes) == expected


class TestRecordTemplate:
    @given(st.data(), SEQS, PAYLOADS)
    def test_equals_encode_record_for_any_hole_values(self, data, seq,
                                                      sample):
        try:
            encode_record(seq, sample)
        except ValueError:
            return
        holes = sorted(data.draw(st.sets(st.sampled_from(sorted(sample))))
                       if sample else ())
        values = [data.draw(VALUES) for _ in holes]
        template = RecordTemplate(sample, holes)
        expect_same_encoding(template, seq, values,
                             {**sample, **dict(zip(holes, values))})

    @pytest.mark.parametrize("sample", [
        {"t": "mark", "seq": 99}, {"t": "mark", "crc": "00000000"},
        {"addr": {"crc": "00000000"}, "t": "x"},
    ])
    def test_refused_sample_raises_the_same_error(self, sample):
        with pytest.raises(ValueError) as error:
            encode_record(0, sample)
        with pytest.raises(ValueError) as raised:
            RecordTemplate(sample, ())
        assert str(raised.value) == str(error.value)

    def test_hole_nesting_crc_below_crc_raises_the_same_error(self):
        template = RecordTemplate({"addr": "::", "t": "x"}, ("addr",))
        expect_same_encoding(template, 3, [{"crc": "00000000"}],
                             {"addr": {"crc": "00000000"}, "t": "x"})
        expect_same_encoding(template, 3, [{"crc": 5}],
                             {"addr": {"crc": 5}, "t": "x"})

    @pytest.mark.parametrize("holes", [("time", "addr"), ("addr", "addr"),
                                       ("port",)])
    def test_holes_are_distinct_sample_keys_in_key_order(self, holes):
        with pytest.raises(ValueError, match="key order"):
            RecordTemplate({"addr": "::", "t": "x", "time": 0.0}, holes)

    def test_int_and_float_times_keep_their_form(self):
        template = RecordTemplate({"t": "x", "time": 0.0}, ("time",))
        assert b'"time": 86400}' in template.encode(1, 86400)[1]
        assert b'"time": 86400.0}' in template.encode(1, 86400.0)[1]


class _Encoder(StoreWriter):
    """A writer whose funnel keeps its records' encodings, from
    ``seq`` on, instead of appending them."""

    seq = 1
    encoded = None
    #: The templates of the last group.
    group = None

    def emit(self, payload, *holes):
        if isinstance(payload, dict):
            self.encoded = [encode_record(self.seq, payload)]
        else:
            self.group = ((payload,) if isinstance(payload, RecordTemplate)
                          else tuple(payload))
            self.encoded = encode_group(self.seq, self.group, holes)
        return self.seq + len(self.encoded) - 1


@pytest.fixture(scope="module")
def encoder(tmp_path_factory):
    """One writer and its sinks, shared by every example, so the
    examples also exercise the shared address memo across records."""
    run_dir = tmp_path_factory.mktemp("templates") / "run"
    with use_registry():
        writer = _Encoder(RunStore.create(run_dir, config={},
                                          cooldown_ttl=0.0))
    refused = {label: writer.refused_sink(label, SPECS) for label in LABELS}
    admits = {label: writer.admit_sink(label) for label in LABELS}
    yield writer, refused, admits
    writer.close()


@given(ADDRESSES, TIMES, WAL_SEQS, st.sampled_from(LABELS), MEMBERS)
def test_refused_grab_records_equal_encode_record(encoder, address, time,
                                                  seq, label, members):
    writer, refused, _ = encoder
    writer.seq = seq
    refused[label](address, time, members)
    assert writer.encoded == [
        encode_record(seq + offset, {
            "t": "grab", "label": label,
            **grab_to_json(SPECS[member].refused(address, time,
                                                 SPECS[member].port))})
        for offset, member in enumerate(members)]
    # A group of one is the template's own encoding.
    template = writer.group[0]
    refused[label](address, time, members[:1])
    assert writer.encoded == [template.encode(seq, format_address(address),
                                              time)]


@given(ADDRESSES, TIMES, WAL_SEQS, SERVERS)
def test_admission_and_sighting_records_equal_encode_record(
        encoder, address, time, seq, server):
    writer, _, admits = encoder
    writer.seq = seq
    addr = format_address(address)
    for engine, sink in admits.items():
        sink(address, time)
        assert writer.encoded == [encode_record(
            seq, {"t": "admit", "engine": engine, "addr": addr,
                  "time": time})]
    writer.sighting(address, time, server)
    assert writer.encoded == [encode_record(
        seq, {"t": "sighting", "addr": addr, "time": time,
              "server": server})]


@pytest.mark.parametrize("refused", [
    lambda address, time, port: refused_mqtt(address, time,
                                             port + address % 2),
    lambda address, time, port: refused_mqtt(address, time,
                                             port + int(time)),
], ids=["port-from-address", "port-from-time"])
def test_refused_builder_varying_beyond_address_and_time_is_refused(
        tmp_path, refused):
    spec = ProbeSpec("mqtt", default_registry().get("mqtt").probe, 1883,
                     refused=refused)
    writer = _writer(tmp_path / "run")
    with pytest.raises(ValueError, match="more than address and time"):
        writer.refused_sink("ntp", [spec])
    writer.close()


class _SilentService:
    """Accepts every connection; the session never answers."""

    def accept(self, peer, peer_port):
        return SimpleSession(respond=lambda data: None)


def _engine(registry=None):
    network = Network(VirtualClock(start=1234.5))
    network.add_host(SRC)
    network.add_host(OPEN).bind_tcp(80, _SilentService())
    return ScanEngine(network, SRC, registry=registry, name="ntp")


def _scan(engine):
    """Feed every target, the last one at an ``int`` clock reading."""
    results = ScanResults()
    for index, target in enumerate(TARGETS):
        if index == len(TARGETS) - 1:
            engine.network.clock.advance_to(2000)
        engine.feed(target, results)
    return results


def _writer(run_dir):
    return StoreWriter(RunStore.create(run_dir, config={}, cooldown_ttl=0.0))


def _wal_bytes(run_dir):
    return {path.name: path.read_bytes()
            for path in sorted((run_dir / "wal").iterdir())}


def test_store_attached_after_first_probe_writes_the_same_bytes(
        tmp_path, monkeypatch):
    import repro.io.jsonl

    encoded = []
    real = repro.io.jsonl.grab_to_json

    def counting(grab):
        encoded.append(grab.address)
        return real(grab)

    monkeypatch.setattr(repro.io.jsonl, "grab_to_json", counting)
    scans = {}
    for when in ("before", "after"):
        with use_registry():
            engine = _engine()
            writer = _writer(tmp_path / when)
            if when == "after":
                # Builds the plan, no store.
                engine.execute_into(OPEN, [].append)
            engine.attach_store(writer, label="ntp")
            scans[when] = _scan(engine)
            writer.close()
    assert _wal_bytes(tmp_path / "after") == _wal_bytes(tmp_path / "before")
    assert ([repr(grab) for protocol in scans["after"].protocols()
             for grab in scans["after"].grabs(protocol)]
            == [repr(grab) for protocol in scans["before"].protocols()
                for grab in scans["before"].grabs(protocol)])
    # Only delivered grabs (and each refused template's two samples, at
    # the lowest and highest address) went through grab_to_json.
    assert set(encoded) == {0, 2**128 - 1, OPEN}
    assert encoded.count(OPEN) == 2


def test_fault_points_and_counters_see_each_templated_record_once(
        tmp_path):
    points = []
    with use_registry() as metrics:
        writer = _writer(tmp_path / "run")
        engine = _engine()
        engine.attach_store(writer, label="ntp")
        with fault_injection(lambda point, seq, acked:
                             points.append((point, seq))):
            _scan(engine)
            writer.sighting(TARGETS[0], 1234.5, "Köln")
        writer.close()
        records, _ = read_all(tmp_path / "run" / "wal")
        kinds = Counter(record["t"] for record in records)
        assert kinds == {"admit": 4, "grab": 32, "sighting": 1}
        appends = [(point, seq) for point, seq in points
                   if point.endswith("-append")]
        assert appends == [(point, seq) for seq in range(1, 38)
                           for point in ("pre-append", "post-append")]
        for kind, count in kinds.items():
            assert metrics.counter("store_records_total",
                                   kind=kind).value == count
        assert metrics.counter("store_bytes_total").value == sum(
            len(data) for data in _wal_bytes(tmp_path / "run").values())


#: An address with every default probe's port bound: no probe settles.
FULL = parse("2001:db8:700::5")
#: An all-refused target, a partly open one (HTTP dispatched, seven
#: probes settled after it), an open one and another all-refused one.
MIXED = (TARGETS[0], OPEN, FULL, TARGETS[3])
#: Seq of the last target's admission; its eight refused records follow.
LAST_ADMIT = 28


class _Crash(BaseException):
    """Raised from a fault hook, as a crash would stop the writer."""


def _mixed_scan(writer, hook=lambda point, seq, acked: None):
    """Scan :data:`MIXED` into ``writer`` under ``hook``."""
    engine = _engine()
    host = engine.network.add_host(FULL)
    for spec in SPECS:
        if spec.name == "coap":
            host.bind_udp(spec.port, lambda datagram: None)
        else:
            host.bind_tcp(spec.port, _SilentService())
    engine.attach_store(writer, label="ntp")
    with fault_injection(hook):
        for target in MIXED:
            engine.feed(target, ScanResults())


def _assert_counters_match_the_wal(metrics, run_dir):
    """Every store counter equals what the WAL on disk holds; returns
    its records."""
    records, _ = read_all(run_dir / "wal")
    for kind, count in Counter(record["t"] for record in records).items():
        assert metrics.counter("store_records_total",
                               kind=kind).value == count
    assert metrics.counter("store_bytes_total").value == sum(
        len(data) for data in _wal_bytes(run_dir).values())
    return records


def test_groups_keep_fault_points_and_counters_per_record(tmp_path):
    points = []
    with use_registry() as metrics:
        writer = _writer(tmp_path / "run")
        _mixed_scan(writer, lambda point, seq, acked:
                    points.append((point, seq)))
        writer.close()
        records = _assert_counters_match_the_wal(metrics, tmp_path / "run")
    assert Counter(record["t"] for record in records) == {"admit": 4,
                                                           "grab": 32}
    appends = [(point, seq) for point, seq in points
               if point.endswith("-append")]
    assert appends == [(point, seq) for seq in range(1, len(records) + 1)
                       for point in ("pre-append", "post-append")]


@pytest.mark.parametrize("point", ["pre-append", "post-append"])
@pytest.mark.parametrize("member", range(8))
def test_counters_match_the_wal_after_a_hook_raises_mid_group(
        tmp_path, point, member):
    crash_at = LAST_ADMIT + 1 + member

    def hook(at, seq, acked):
        if at == point and seq == crash_at:
            raise _Crash()

    with use_registry() as metrics:
        writer = _writer(tmp_path / "run")
        with pytest.raises(_Crash):
            _mixed_scan(writer, hook)
        records = _assert_counters_match_the_wal(metrics, tmp_path / "run")
        assert records[-1]["seq"] == crash_at - (point == "pre-append")
        writer.close()


def test_resume_with_a_changed_refused_builder_fails_at_its_record(
        tmp_path):
    run_dir = tmp_path / "run"
    with use_registry():
        writer = _writer(run_dir)
        engine = _engine()
        engine.attach_store(writer, label="ntp")
        _scan(engine)
        writer.close()

    def resume(registry):
        with use_registry():
            store = RunStore.open(run_dir)
            writer = StoreWriter(store, recovery=store.recover())
            assert writer.mode == "verify"
            engine = _engine(registry)
            engine.attach_store(writer, label="ntp")
            _scan(engine)
            return writer

    writer = resume(default_registry())
    assert writer.mode == "live"
    writer.close()
    changed = ProbeRegistry(
        ProbeSpec(spec.name, spec.probe, spec.port,
                  refused=(lambda address, time, port:
                           refused_mqtt(address, time, port + 1))
                  if spec.name == "mqtt" else spec.refused)
        for spec in default_registry())
    # MQTT is the fourth probe: its first record follows the first
    # target's admission and three grabs.
    with pytest.raises(RecoveryError, match=r"replay diverged at seq 5:"):
        resume(changed)
