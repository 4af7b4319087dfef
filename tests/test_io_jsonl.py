"""Roundtrip tests for the JSONL persistence formats, and the grab
codec's totality: a record with a missing or mistyped member decodes to
a grab or raises :class:`FormatError` naming the member, nothing else."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.core.collector import CollectedDataset
from repro.io import (
    FormatError,
    grab_from_json,
    grab_to_json,
    load_results,
    save_dataset,
    save_results,
    to_canonical_json,
)
from repro.ipv6 import parse
from repro.scan.result import (
    BrokerGrab,
    CoapGrab,
    HttpGrab,
    NtpGrab,
    ScanResults,
    SshGrab,
    TlsObservation,
)
from tests.io_reference import load_dataset


@pytest.fixture()
def dataset():
    data = CollectedDataset(label="test-campaign")
    data.record(parse("2001:db8::1"), 10.0, "Germany")
    data.record(parse("2001:db8::1"), 20.0, "India", requests=3)
    data.record(parse("2001:db8::2"), 15.0, "Germany")
    return data


@pytest.fixture()
def results():
    data = ScanResults(label="test-scan")
    data.targets_seen = 42
    data.add(HttpGrab(address=parse("2001:db8::1"), time=1.0, port=443,
                      ok=True, status=200, title="FRITZ!Box",
                      server="AVM",
                      tls=TlsObservation(ok=True, fingerprint=b"\x01\x02",
                                         subject="fritz.box",
                                         issuer="fritz.box",
                                         self_signed=True, expired=False)))
    data.add(HttpGrab(address=parse("2001:db8::2"), time=2.0, port=80,
                      ok=False))
    data.add(SshGrab(address=parse("2001:db8::3"), time=3.0, ok=True,
                     banner="SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3",
                     software="OpenSSH_9.2p1", comment="Debian-2+deb12u3",
                     key_algorithm="ssh-ed25519", key_fingerprint=b"\xaa"))
    data.add(BrokerGrab(address=parse("2001:db8::4"), time=4.0, port=1883,
                        protocol="mqtt", ok=True, open_access=True,
                        detail="connack=0"))
    data.add(CoapGrab(address=parse("2001:db8::5"), time=5.0, ok=True,
                      resources=("/castDeviceSearch",)))
    return data


class TestDatasetRoundtrip:
    def test_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "dataset.jsonl"
        count = save_dataset(dataset, path)
        assert count >= 4  # header + servers + addresses
        loaded = load_dataset(path)
        assert loaded.label == "test-campaign"
        assert loaded.addresses == dataset.addresses
        assert loaded.total_requests == dataset.total_requests
        assert loaded.per_server_counts() == dataset.per_server_counts()
        original = dataset.observations[parse("2001:db8::1")]
        restored = loaded.observations[parse("2001:db8::1")]
        assert restored.first_seen == original.first_seen
        assert restored.requests == original.requests

    def test_file_is_line_json(self, dataset, tmp_path):
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset, path)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_rejects_wrong_kind(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        save_results(results, path)
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(FormatError):
            load_dataset(path)


class TestResultsRoundtrip:
    def test_roundtrip(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        save_results(results, path)
        loaded = load_results(path)
        assert loaded.label == "test-scan"
        assert loaded.targets_seen == 42
        assert len(loaded.https) == 1
        # The refused HTTP grab is written, but a loaded result set,
        # like every result set, holds the answered grabs only.
        assert '"ok": false' in path.read_text(encoding="utf-8")
        assert loaded.http == []
        assert len(loaded.ssh) == 1
        assert len(loaded.mqtt) == 1
        assert len(loaded.coap) == 1

    def test_grab_fields_survive(self, results, tmp_path):
        path = tmp_path / "results.jsonl"
        save_results(results, path)
        loaded = load_results(path)
        https = loaded.https[0]
        assert https.title == "FRITZ!Box"
        assert https.tls.fingerprint == b"\x01\x02"
        assert https.tls.self_signed is True
        ssh = loaded.ssh[0]
        assert ssh.key_fingerprint == b"\xaa"
        assert ssh.comment == "Debian-2+deb12u3"
        coap = loaded.coap[0]
        assert coap.resources == ("/castDeviceSearch",)

    def test_analyses_work_on_loaded_results(self, results, tmp_path):
        from repro.analysis import devicetypes

        path = tmp_path / "results.jsonl"
        save_results(results, path)
        loaded = load_results(path)
        groups = devicetypes.http_title_groups(loaded)
        assert groups[0].representative == "FRITZ!Box"
        assert loaded.unique_fingerprints("ssh") == {b"\xaa"}

    def test_extra_buckets_round_trip(self, tmp_path):
        """A non-paper bucket (here ``ntp``) is saved after the paper
        protocols and reloads into ``extra``."""
        data = ScanResults(label="extra-scan")
        ntp = NtpGrab(address=parse("2001:db8::7"), time=7.0, ok=True,
                      version="ntpd 4.2.6p5", monlist=True, entries=6,
                      response_packets=1, request_bytes=72,
                      response_bytes=440)
        ssh = SshGrab(address=parse("2001:db8::3"), time=3.0, ok=True)
        data.add(ntp)
        data.add(ssh)
        path = tmp_path / "results.jsonl"
        assert save_results(data, path) == 4  # header, meta, two grabs
        loaded = load_results(path)
        assert loaded.ssh == [ssh]
        assert loaded.extra == {"ntp": [ntp]}
        assert loaded.protocols() == data.protocols()

    def test_roundtrip_experiment_scan(self, experiment, tmp_path):
        """The real pipeline's output survives a save/load cycle."""
        path = tmp_path / "ntp_scan.jsonl"
        save_results(experiment.ntp_scan, path)
        loaded = load_results(path)
        for protocol in ("http", "https", "ssh", "coap"):
            assert loaded.responsive_addresses(protocol) == \
                experiment.ntp_scan.responsive_addresses(protocol)
            assert loaded.unique_fingerprints(protocol) == \
                experiment.ntp_scan.unique_fingerprints(protocol)


class TestCanonicalForm:
    """The byte-level guarantees the repro.store WAL's CRCs lean on."""

    def test_non_ascii_titles_roundtrip(self, tmp_path):
        from repro.io import save_results

        data = ScanResults(label="umlaut-scan")
        data.targets_seen = 1
        data.add(HttpGrab(address=parse("2001:db8::1"), time=1.0, port=80,
                          ok=True, status=200, title="FRITZ!Box — Köln ✓",
                          server="Heißgerät/1.0"))
        path = tmp_path / "results.jsonl"
        save_results(data, path)
        loaded = load_results(path)
        assert loaded.http[0].title == "FRITZ!Box — Köln ✓"
        assert loaded.http[0].server == "Heißgerät/1.0"
        # Canonical form stores raw unicode, not \u escapes: the bytes
        # the CRC covers are the bytes on disk.
        assert "Köln" in path.read_text(encoding="utf-8")
        assert "\\u" not in path.read_text(encoding="utf-8")

    def test_canonical_json_is_sorted_and_newline_free(self):
        from repro.io import to_canonical_json

        line = to_canonical_json({"b": 1, "a": "día\n二"})
        assert line == '{"a": "día\\n二", "b": 1}'
        assert "\n" not in line  # one record == one line, always

    def test_files_end_with_exactly_one_newline(self, results, tmp_path):
        from repro.io import save_results

        path = tmp_path / "results.jsonl"
        save_results(results, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_integers_beyond_2_53_are_exact(self):
        """Sequence numbers are Python ints end to end — no float hop
        (JavaScript-style 2^53 truncation) in the canonical form."""
        from repro.io import to_canonical_json

        big = 2**53 + 1
        line = to_canonical_json({"seq": big})
        assert json.loads(line)["seq"] == big
        assert str(big) in line


# -- the grab codec is total --------------------------------------------------

_ADDRESSES = st.integers(0, 2**128 - 1)
_TIMES = st.one_of(st.integers(0, 10**9),
                   st.floats(0, 1e9, allow_nan=False))
_TEXT = st.one_of(st.none(), st.text(max_size=8))
_FINGERPRINTS = st.one_of(st.none(), st.binary(min_size=1, max_size=8))
_FLAGS = st.one_of(st.none(), st.booleans())
_TLS = st.one_of(st.none(), st.builds(
    TlsObservation, ok=st.booleans(),
    alert=st.one_of(st.none(), st.integers(0, 255)),
    fingerprint=_FINGERPRINTS, subject=_TEXT, issuer=_TEXT,
    self_signed=_FLAGS, expired=_FLAGS))
_GRABS = st.one_of(
    st.builds(HttpGrab, address=_ADDRESSES, time=_TIMES,
              port=st.sampled_from([80, 443]), ok=st.booleans(),
              status=st.one_of(st.none(), st.integers(100, 599)),
              title=_TEXT, server=_TEXT, tls=_TLS),
    st.builds(SshGrab, address=_ADDRESSES, time=_TIMES, ok=st.booleans(),
              banner=_TEXT, software=_TEXT, comment=_TEXT,
              key_algorithm=_TEXT, key_fingerprint=_FINGERPRINTS),
    st.builds(BrokerGrab, address=_ADDRESSES, time=_TIMES,
              port=st.sampled_from([1883, 8883, 5672, 5671]),
              protocol=st.sampled_from(["mqtt", "mqtts", "amqp", "amqps"]),
              ok=st.booleans(), open_access=_FLAGS, detail=_TEXT, tls=_TLS),
    st.builds(CoapGrab, address=_ADDRESSES, time=_TIMES, ok=st.booleans(),
              resources=st.lists(st.text(max_size=8), max_size=3)
              .map(tuple)),
    st.builds(NtpGrab, address=_ADDRESSES, time=_TIMES, ok=st.booleans(),
              version=_TEXT, monlist=st.booleans(),
              entries=st.integers(0, 600),
              response_packets=st.integers(0, 100),
              request_bytes=st.integers(0, 72),
              response_bytes=st.integers(0, 50_000),
              port=st.sampled_from([123, 10123])),
)
#: Any JSON value, for the type mutations.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)


def _record(grab) -> dict:
    """``grab``'s record as a results file or the WAL holds it."""
    return json.loads(to_canonical_json(grab_to_json(grab)))


def _valid(**members) -> dict:
    record = {"type": "ssh", "addr": "2001:db8::1", "time": 1.0, "ok": True,
              "key_fingerprint": "aa"}
    record.update(members)
    return record


#: The members of an ``ntp`` record, every one required.
_NTP_MEMBERS = ("version", "monlist", "entries", "response_packets",
                "request_bytes", "response_bytes", "port")


def _ntp(*, drop=None, **members) -> dict:
    record = {"type": "ntp", "addr": "2001:db8::1", "time": 1.0, "ok": True,
              "version": "ntpd 4.2.8p15", "monlist": False, "entries": 0,
              "response_packets": 0, "request_bytes": 0,
              "response_bytes": 0, "port": 123}
    record.update(members)
    record.pop(drop, None)
    return record


@given(_GRABS)
def test_grab_records_round_trip(grab):
    assert grab_from_json(_record(grab)) == grab


@given(_GRABS, st.data())
def test_mutated_grab_record_decodes_or_raises_format_error(grab, data):
    """Drop one member of a valid record, or give it a value of another
    JSON type, at the top level or inside ``tls``: the decoder returns
    a grab or raises FormatError, never anything else."""
    record = _record(grab)
    members = [(record, key) for key in record]
    if isinstance(record.get("tls"), dict):
        members += [(record["tls"], key) for key in record["tls"]]
    owner, key = data.draw(st.sampled_from(members))
    if data.draw(st.booleans()):
        del owner[key]
    else:
        kind = type(owner[key])
        owner[key] = data.draw(_JSON.filter(lambda value: type(value)
                                            is not kind))
    try:
        decoded = grab_from_json(record)
    except FormatError:
        return
    assert type(decoded) in (HttpGrab, SshGrab, BrokerGrab, CoapGrab,
                             NtpGrab)


@pytest.mark.parametrize("record,member", [
    ({"type": "http", "time": 1.0, "ok": True, "port": 80}, "addr"),
    ({"type": "http", "addr": "2001:db8::1", "time": 1.0, "ok": True},
     "port"),
    ({"type": "broker", "addr": "2001:db8::1", "time": 1.0, "ok": True,
      "port": 1883}, "protocol"),
    (_valid(time=None), "time"),
    (_valid(time=True), "time"),
    (_valid(addr="not-an-address"), "addr"),
    (_valid(addr=5), "addr"),
    (_valid(ok="yes"), "ok"),
    (_valid(ok=1), "ok"),
    (_valid(key_fingerprint="zz"), "key_fingerprint"),
    (_valid(key_fingerprint=7), "key_fingerprint"),
    ({"type": "coap", "addr": "2001:db8::1", "time": 1.0, "ok": True,
      "resources": 5}, "resources"),
    ({"type": "coap", "addr": "2001:db8::1", "time": 1.0, "ok": True,
      "resources": ["/a", 5]}, "resources"),
    ({"type": "http", "addr": "2001:db8::1", "time": 1.0, "ok": True,
      "port": 443, "tls": {"ok": True, "fingerprint": "xyz"}},
     "tls.fingerprint"),
    ({"type": "http", "addr": "2001:db8::1", "time": 1.0, "ok": True,
      "port": 443, "tls": {"alert": 40}}, "tls.ok"),
    ({"type": "http", "addr": "2001:db8::1", "time": 1.0, "ok": True,
      "port": 443, "tls": []}, "tls"),
    *((_ntp(drop=member), member) for member in _NTP_MEMBERS),
    (_ntp(version=4), "version"),
    (_ntp(monlist=1), "monlist"),
    (_ntp(monlist=None), "monlist"),
    (_ntp(entries=True), "entries"),
    (_ntp(entries=6.0), "entries"),
    (_ntp(response_packets="1"), "response_packets"),
    (_ntp(request_bytes=None), "request_bytes"),
    (_ntp(response_bytes=[440]), "response_bytes"),
    (_ntp(port="123"), "port"),
])
def test_bad_member_raises_format_error_naming_it(record, member):
    with pytest.raises(FormatError, match=f"'{member}'"):
        grab_from_json(record)


@pytest.mark.parametrize("record", [
    [], "grab", None, {"addr": "2001:db8::1", "time": 1.0, "ok": True},
])
def test_not_a_grab_record_raises_format_error(record):
    with pytest.raises(FormatError):
        grab_from_json(record)


def _results_file(path, *lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in (
        {"type": "header", "kind": "scan-results", "label": "x",
         "version": 1},
        {"type": "meta", "targets_seen": 3}) + lines), encoding="utf-8")
    return path


class TestLoadResults:
    def test_refused_records_are_skipped_undecoded(self, tmp_path):
        path = _results_file(
            tmp_path / "scan.jsonl", _valid(),
            # Refused: skipped before decoding, so its bad member is moot.
            _valid(ok=False, key_fingerprint="zz"))
        loaded = load_results(path)
        assert loaded.targets_seen == 3
        assert [grab.address for grab in loaded.ssh] == \
            [parse("2001:db8::1")]

    def test_bad_record_names_file_and_member(self, tmp_path):
        path = _results_file(tmp_path / "scan.jsonl", _valid(ok="yes"))
        with pytest.raises(FormatError, match=r"scan\.jsonl: .*'ok'"):
            load_results(path)

    def test_line_that_is_not_an_object_is_a_format_error(self, tmp_path):
        path = _results_file(tmp_path / "scan.jsonl", [1, 2])
        with pytest.raises(FormatError, match="not a JSON object"):
            load_results(path)

    def test_analyze_on_a_bad_file_exits_2_naming_the_member(
            self, results, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        save_results(results, good)
        record = _valid()
        del record["addr"]
        bad = _results_file(tmp_path / "bad.jsonl", record)
        assert main(["analyze", "--ntp", str(bad),
                     "--hitlist", str(good)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'addr'" in err
