"""Unit tests for the address collector."""


from repro.core.collector import CaptureServer, CollectedDataset
from repro.ipv6 import parse
from repro.ntp.client import NtpClient
from repro.obs.metrics import use_registry

SERVER = parse("2001:500::1")
CLIENT_A = parse("2001:db8::a")
CLIENT_B = parse("2001:db8::b")


class TestDataset:
    def test_record_new_and_repeat(self):
        dataset = CollectedDataset()
        assert dataset.record(CLIENT_A, 1.0, "Germany") is True
        assert dataset.record(CLIENT_A, 2.0, "Germany") is False
        assert len(dataset) == 1
        observation = dataset.observations[CLIENT_A]
        assert observation.first_seen == 1.0
        assert observation.last_seen == 2.0
        assert observation.requests == 2

    def test_request_weighting(self):
        dataset = CollectedDataset()
        dataset.record(CLIENT_A, 1.0, "Germany", requests=10)
        assert dataset.total_requests == 10
        assert dataset.observations[CLIENT_A].requests == 10

    def test_per_server_counts(self):
        dataset = CollectedDataset()
        dataset.record(CLIENT_A, 1.0, "Germany")
        dataset.record(CLIENT_B, 1.0, "Germany")
        dataset.record(CLIENT_A, 1.0, "India")
        assert dataset.per_server_counts() == {"Germany": 2, "India": 1}

    def test_new_address_hook_fires_once(self):
        with use_registry() as registry:
            dataset = CollectedDataset()
        seen = []

        def hook(name):
            return lambda address, time, location: seen.append(
                (name, address, location))

        dataset.add_new_address_hook(hook("first"))
        dataset.add_new_address_hook(hook("second"))
        assert not registry.find("bus_events_total")
        dataset.record(CLIENT_A, 1.0, "Germany")
        dataset.record(CLIENT_A, 2.0, "India")
        # Hooks run in the order they were added: the store's sighting
        # record must follow the scan queue's admit and grab records.
        assert seen == [("first", CLIENT_A, "Germany"),
                        ("second", CLIENT_A, "Germany")]
        (_, sightings), = registry.find("bus_events_total",
                                        event="AddressSighted")
        assert sightings.value == 1

    def test_sightings_counted_in_the_building_run(self):
        """Every first sighting counts, in the registry the dataset was
        built under, even when it is recorded outside that scope."""
        with use_registry() as registry:
            dataset = CollectedDataset()
        with use_registry() as other:
            for time, client in enumerate((CLIENT_A, CLIENT_B, CLIENT_A)):
                dataset.record(client, float(time), "Germany")
        assert registry.value("bus_events_total",
                              event="AddressSighted") == 2
        assert not other.find("bus_events_total")

    def test_membership_and_views(self):
        dataset = CollectedDataset()
        dataset.record(CLIENT_A, 1.0, "Germany")
        assert CLIENT_A in dataset
        assert CLIENT_B not in dataset
        assert dataset.addresses == {CLIENT_A}
        assert dataset.first_seen(CLIENT_A) == 1.0
        assert dataset.first_seen(CLIENT_B) is None

    def test_new_addresses_per_day(self):
        dataset = CollectedDataset()
        dataset.record(CLIENT_A, 100.0, "x")
        dataset.record(CLIENT_B, 86_500.0, "x")
        histogram = dataset.new_addresses_per_day()
        assert histogram == {0: 1, 1: 1}


class TestCaptureServer:
    def test_wire_capture(self, network):
        dataset = CollectedDataset()
        CaptureServer(network, SERVER, "Germany", dataset)
        client = NtpClient(network, CLIENT_A)
        assert client.query(SERVER) is not None
        assert CLIENT_A in dataset
        assert dataset.per_server_counts() == {"Germany": 1}

    def test_record_direct_matches_wire_semantics(self, network):
        dataset = CollectedDataset()
        capture = CaptureServer(network, SERVER, "Germany", dataset)
        capture.record_direct(CLIENT_B, 5.0, requests=3)
        assert CLIENT_B in dataset
        assert dataset.observations[CLIENT_B].requests == 3
        assert capture.stats.requests == 3
        assert capture.stats.responses == 3

    def test_capture_server_still_serves_time(self, network):
        dataset = CollectedDataset()
        CaptureServer(network, SERVER, "Germany", dataset)
        client = NtpClient(network, CLIENT_A)
        result = client.query(SERVER)
        assert result is not None and result.stratum == 2
