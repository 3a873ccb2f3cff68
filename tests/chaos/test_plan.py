"""Planner tests: determinism, serialisation, and planning constraints."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.chaos.corpus import ENTRY_VERSION, Corpus, CorpusEntry
from repro.chaos.plan import (
    FAULT_KINDS,
    SEGMENT_KINDS,
    ChaosPlan,
    partition_keys,
    plan_from_seed,
)
from repro.common.errors import ConfigurationError

#: Recorded at the parent commit (4e23d86), before the five behaviour
#: toggles left ``ConfigPoint``: per seed, a digest of the planned scenario
#: minus those five keys.
PINS = os.path.join(os.path.dirname(__file__), "data", "pins-parent-4e23d86.json")


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        for seed in range(20):
            assert plan_from_seed(seed).to_dict() == plan_from_seed(seed).to_dict()

    def test_different_seeds_differ(self):
        plans = {str(plan_from_seed(seed).to_dict()) for seed in range(20)}
        assert len(plans) > 15  # near-certain: 20 independent draws

    def test_json_round_trip(self):
        for seed in (0, 7, 13):
            plan = plan_from_seed(seed)
            assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_plans_are_the_parents_minus_the_removed_toggles(self):
        # The planner consumed its main-stream draws in the historical order
        # when the toggles went: every seed keeps its segments, faults,
        # groups and surviving config coordinates (perfbench's chaos_faults
        # workload takes its fault schedules from these plans).
        with open(PINS, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)["plan_digests"]
        for seed in range(100):
            encoded = json.dumps(plan_from_seed(seed).to_dict(), sort_keys=True)
            digest = hashlib.sha256(encoded.encode()).hexdigest()[:16]
            assert digest == pinned[seed], f"seed {seed} plans a different scenario"


class TestLoadingFailsClosed:
    """Plans written by another version are rejected by name, not replayed."""

    def test_unknown_config_keys_are_named(self):
        data = plan_from_seed(3).to_dict()
        data["config"].update(archive_enabled=True, failover_enabled=True)
        with pytest.raises(ConfigurationError) as error:
            ChaosPlan.from_dict(data, "chaos-repro-3.json")
        message = str(error.value)
        assert "chaos-repro-3.json" in message and "ConfigPoint" in message
        assert "archive_enabled" in message and "failover_enabled" in message

    @pytest.mark.parametrize(
        "section, cls", [("segments", "WorkloadSegment"), ("faults", "FaultEvent")]
    )
    def test_missing_and_unknown_entry_keys_are_named(self, section, cls):
        data = plan_from_seed(3).to_dict()
        del data[section][0]["kind"]
        data[section][0]["flavour"] = "x"
        with pytest.raises(ConfigurationError) as error:
            ChaosPlan.from_dict(data, "old.json")
        message = str(error.value)
        assert "old.json" in message and cls in message
        assert "'kind'" in message and "'flavour'" in message

    def test_missing_top_level_key_is_named(self):
        data = plan_from_seed(3).to_dict()
        del data["groups"]
        with pytest.raises(ConfigurationError, match="groups"):
            ChaosPlan.from_dict(data)

    def test_corpus_entry_of_another_version_is_rejected_with_its_path(self, tmp_path):
        entry = CorpusEntry("e1", plan_from_seed(3), ("health:crashed",), "fp", "td")
        assert CorpusEntry.from_dict(entry.to_dict()).plan == entry.plan
        stale = dict(entry.to_dict(), version=ENTRY_VERSION - 1)
        path = tmp_path / "entry-e1.json"
        path.write_text(json.dumps(stale))
        with pytest.raises(ConfigurationError) as error:
            Corpus(str(tmp_path))
        assert str(path) in str(error.value)
        assert f"version {ENTRY_VERSION - 1}" in str(error.value)


class TestPlanningConstraints:
    def test_every_fault_kind_is_known(self):
        for seed in range(40):
            for event in plan_from_seed(seed).faults:
                assert event.kind in FAULT_KINDS

    def test_every_segment_kind_is_known_and_group_traffic_present(self):
        for seed in range(40):
            plan = plan_from_seed(seed)
            kinds = [segment.kind for segment in plan.segments]
            assert all(kind in SEGMENT_KINDS for kind in kinds)
            assert "group-write" in kinds
            assert "group-read" in kinds

    def test_at_most_f_concurrent_crashes_per_partition(self):
        for seed in range(60):
            plan = plan_from_seed(seed)
            windows = {}
            for event in plan.faults:
                if event.kind not in ("crash", "leader-kill"):
                    continue
                intervals = windows.setdefault(event.partition, [])
                for start, end in intervals:
                    assert not (
                        event.at_ms < end and start < event.at_ms + event.duration_ms
                    ), f"seed {seed}: overlapping crash windows in partition {event.partition}"
                intervals.append((event.at_ms, event.at_ms + event.duration_ms))

    def test_byzantine_proxies_only_with_edge_tier(self):
        for seed in range(60):
            plan = plan_from_seed(seed)
            if any(event.kind == "byzantine-proxy" for event in plan.faults):
                assert plan.config.edge_enabled

    def test_groups_are_reserved_cross_partition_keys(self):
        for seed in range(20):
            plan = plan_from_seed(seed)
            by_partition = partition_keys(plan.config)
            placement = {
                key: partition
                for partition, keys in by_partition.items()
                for key in keys
            }
            seen = set()
            for group in plan.groups:
                partitions = {placement[key] for key in group}
                assert len(partitions) == 2  # spans two partitions
                assert not (set(group) & seen)  # groups never share keys
                seen.update(group)

    def test_config_point_expands_to_valid_system_config(self):
        for seed in range(20):
            config = plan_from_seed(seed).config.to_system_config()
            assert config.num_partitions >= 2
