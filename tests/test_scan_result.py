"""Unit tests for scan result accumulation and aggregates, and for the
refused-grab builders."""

import dataclasses
import pickle

import pytest

from repro.ipv6 import parse
from repro.runtime.registry import ProbeSpec, default_registry
from repro.scan.modules.ntp import refused_ntp, scan_ntp
from repro.scan.result import (
    BrokerGrab,
    CoapGrab,
    HttpGrab,
    NtpGrab,
    ScanResults,
    SshGrab,
    TlsObservation,
    refused_builder,
)


def _http(address, ok=True, port=80, status=200, title=None, tls=None):
    return HttpGrab(address=address, time=0.0, port=port, ok=ok,
                    status=status, title=title, tls=tls)


def _tls(fingerprint=b"fp1", ok=True):
    return TlsObservation(ok=ok, fingerprint=fingerprint if ok else None)


class TestRouting:
    def test_http_grab_port_routing(self):
        results = ScanResults()
        results.add(_http(1, port=80))
        results.add(_http(2, port=443))
        assert len(results.http) == 1
        assert len(results.https) == 1

    def test_broker_protocol_routing(self):
        results = ScanResults()
        results.add(BrokerGrab(address=1, time=0, port=1883,
                               protocol="mqtt", ok=True))
        results.add(BrokerGrab(address=1, time=0, port=8883,
                               protocol="mqtts", ok=True))
        assert len(results.mqtt) == 1
        assert len(results.mqtts) == 1

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            ScanResults().grabs("gopher")

    def test_non_grab_rejected(self):
        with pytest.raises(TypeError):
            ScanResults().add("not a grab")


class TestAggregates:
    def test_responsive_addresses_dedup(self):
        results = ScanResults()
        results.add(_http(1))
        results.add(_http(1))
        results.add(_http(2, ok=False))
        assert results.responsive_addresses("http") == {1}

    def test_tls_addresses_require_handshake_success(self):
        results = ScanResults()
        results.add(_http(1, port=443, tls=_tls(ok=True)))
        results.add(_http(2, port=443, tls=_tls(ok=False)))
        results.add(_http(3, port=443, tls=None))
        assert results.tls_addresses("https") == {1}

    def test_unique_fingerprints_https(self):
        results = ScanResults()
        results.add(_http(1, port=443, tls=_tls(b"a")))
        results.add(_http(2, port=443, tls=_tls(b"a")))
        results.add(_http(3, port=443, tls=_tls(b"b")))
        assert len(results.unique_fingerprints("https")) == 2

    def test_unique_fingerprints_ssh(self):
        results = ScanResults()
        results.add(SshGrab(address=1, time=0, ok=True,
                            key_fingerprint=b"k1"))
        results.add(SshGrab(address=2, time=0, ok=True,
                            key_fingerprint=b"k1"))
        assert len(results.unique_fingerprints("ssh")) == 1

    def test_merged_http(self):
        results = ScanResults()
        results.add(_http(1, port=80))
        results.add(_http(2, port=443, tls=_tls()))
        assert len(results.merged_http()) == 2

    def test_hit_rate_counts_any_protocol(self):
        results = ScanResults()
        results.targets_seen = 10
        results.add(_http(1))
        results.add(CoapGrab(address=2, time=0, ok=True))
        results.add(SshGrab(address=1, time=0, ok=True))  # same address
        assert results.hit_rate() == pytest.approx(0.2)

    def test_hit_rate_empty(self):
        assert ScanResults().hit_rate() == 0.0


SPECS = tuple(default_registry()) + (
    ProbeSpec(name="ntp", probe=scan_ntp, port=123, refused=refused_ntp),)


def _broker(protocol):
    return lambda address, time, port: BrokerGrab(
        address=address, time=time, port=port, protocol=protocol, ok=False)


#: Each probe's refused grab built from keywords: ``ok=False``, every
#: field not named at its default.
CONSTRUCTED = {
    "http": lambda address, time, port: HttpGrab(
        address=address, time=time, port=port, ok=False),
    "https": lambda address, time, port: HttpGrab(
        address=address, time=time, port=port, ok=False),
    "ssh": lambda address, time, port: SshGrab(
        address=address, time=time, ok=False),
    "mqtt": _broker("mqtt"),
    "mqtts": _broker("mqtts"),
    "amqp": _broker("amqp"),
    "amqps": _broker("amqps"),
    "coap": lambda address, time, port: CoapGrab(
        address=address, time=time, ok=False),
    "ntp": lambda address, time, port: NtpGrab(
        address=address, time=time, ok=False),
}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
class TestRefusedBuilders:
    """Each module's refused builder skips the dataclass ``__init__``;
    its grab must still be the constructor's, in every way a consumer
    can look at one."""

    def _pair(self, spec):
        args = (parse("2001:db8:700::9"), 1234.5, spec.port)
        return spec.refused(*args), CONSTRUCTED[spec.name](*args)

    def test_equals_the_constructor(self, spec):
        built, constructed = self._pair(spec)
        assert type(built) is type(constructed)
        assert built == constructed and constructed == built
        assert hash(built) == hash(constructed)
        assert repr(built) == repr(constructed)
        assert dataclasses.astuple(built) == dataclasses.astuple(constructed)
        assert (built.protocol, built.ok) == (spec.name, False)

    def test_pickle_round_trip(self, spec):
        built, constructed = self._pair(spec)
        clone = pickle.loads(pickle.dumps(built))
        assert clone == constructed
        assert repr(clone) == repr(constructed)
        assert hash(clone) == hash(constructed)

    def test_frozen(self, spec):
        built, _ = self._pair(spec)
        for field in dataclasses.fields(built):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, field.name, getattr(built, field.name))


def test_builder_needs_each_field_without_default():
    with pytest.raises(TypeError, match="protocol"):
        refused_builder(BrokerGrab)
    with pytest.raises(TypeError, match="banner"):
        refused_builder(SshGrab, banner="x")
