"""Per-process zone sharing: one sealed zone per distinct build input.

Environments that differ only in what they *run* (volume, fleet filter,
Q-min override, fault plan) must share one authoritative zone object, the
shared zone must refuse changes, its cached orderings must match a fresh
sort, and a run on a warm zone memo must capture exactly what a cold one
does.
"""

import dataclasses

import numpy as np
import pytest

from repro.dnscore import Name, NSRdata, RRType, canonical_sort_key
from repro.faults import FaultPlan
from repro.sim import build_vantage_zone, run_dataset
from repro.sim import driver
from repro.sim.driver import build_environment
from repro.telemetry import MetricsRegistry
from repro.workload import dataset
from repro.zones import RRset, ZoneSealedError, domains_of


@pytest.fixture(scope="module")
def nl():
    return dataset("nl-w2020")


def _zones(descriptor, seed=11):
    env = build_environment(descriptor, seed, MetricsRegistry())
    root_zone = env.server_sets["root"].servers[0].zone
    return env.vantage_zone, root_zone


class TestSharedAcrossDescriptors:
    @pytest.mark.parametrize("change", [
        {"client_queries": 123},
        {"providers_only": ("Google",)},
        {"qmin_override": True},
        {"fault_plan": FaultPlan(name="loss", packet_loss=0.05)},
    ], ids=lambda change: next(iter(change)))
    def test_same_zone_object(self, nl, change):
        base_zone, base_root = _zones(nl)
        other_zone, other_root = _zones(dataclasses.replace(nl, **change))
        assert other_zone is base_zone
        assert other_root is base_root

    def test_build_vantage_zone_returns_shared_zone(self, nl):
        zone, _ = _zones(nl)
        assert build_vantage_zone(nl) is zone

    def test_other_seed_shares_zones(self, nl):
        assert _zones(nl, seed=1) == _zones(nl, seed=2)

    def test_different_size_gets_own_zone(self, nl):
        smaller = dataclasses.replace(nl, zone_second_level=50)
        zone = build_vantage_zone(smaller)
        assert zone is not build_vantage_zone(nl)
        assert len(domains_of(zone)) == 50

    def test_root_vantage_has_no_registry_zone(self):
        assert build_vantage_zone(dataset("root-2020")) is None


class TestSealed:
    def test_add_rrset_raises(self, nl):
        for zone in _zones(nl):
            count = zone.record_count()
            child = zone.origin.prepend(b"new")
            with pytest.raises(ZoneSealedError):
                zone.add_rrset(
                    RRset(child, RRType.NS, 300,
                          [NSRdata(Name.from_text("ns.x.net"))])
                )
            assert zone.record_count() == count

    def test_add_delegation_raises(self, nl):
        for zone in _zones(nl):
            child = zone.origin.prepend(b"new")
            with pytest.raises(ZoneSealedError):
                zone.add_delegation(child, [Name.from_text("ns.x.net")])
            assert child not in domains_of(zone)

    def test_cached_domains_match_fresh_sort(self, nl):
        zone = build_vantage_zone(nl)
        fresh = sorted(zone.delegation_names)
        assert domains_of(zone) == fresh
        # Callers get their own list; the cached ordering is untouched.
        domains_of(zone).clear()
        assert domains_of(zone) == fresh

    def test_cached_nsec_order_matches_fresh_sort(self, nl):
        zone, root_zone = _zones(nl)
        for shared in (zone, root_zone):
            assert shared._sorted() == sorted(shared._names)

    def test_sort_key_matches_name_order(self):
        names = [Name.from_text(text) for text in (
            "nl", "a.nl", "B.nl", "b.a.nl", "z.nl", "a.z.nl", "com", "a.com",
            "xn--bcher-kva.nl", "a-b.nl", "a.b.c.nl", "*.nl", ".",
        )]
        by_key = sorted(names, key=canonical_sort_key)
        assert by_key == sorted(names)
        for earlier, later in zip(by_key, by_key[1:]):
            assert earlier < later


_COLUMNS = ("timestamp", "qname", "qtype", "rcode", "server_id", "transport")


def _columns(run):
    """Capture columns as raw bytes (numeric) or value lists (text)."""
    view = run.capture.view()
    columns = {}
    for column in _COLUMNS:
        values = np.asarray(getattr(view, column))
        columns[column] = values.tolist() if values.dtype == object else values.tobytes()
    return columns


class TestColdWarmDifferential:
    def test_warm_memo_capture_is_byte_identical(self, nl, monkeypatch):
        # No environment reuse: the second run rebuilds servers and fleets
        # around the zones the first run left in the memo.
        monkeypatch.setenv("REPRO_ENV_CACHE", "0")
        memos = (driver._registry_zone, driver._root_zone)
        for memo in memos:
            memo.cache_clear()

        cold = run_dataset(nl, client_queries=1500, seed=3)
        assert all(memo.cache_info().currsize == 1 for memo in memos)
        warm = run_dataset(nl, client_queries=1500, seed=3)
        assert all(memo.cache_info().hits >= 1 for memo in memos)

        assert warm.vantage_zone is cold.vantage_zone
        cold_columns, warm_columns = _columns(cold), _columns(warm)
        assert cold_columns["qname"]
        for column in _COLUMNS:
            assert cold_columns[column] == warm_columns[column], column
