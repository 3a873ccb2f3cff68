"""Tests for repro.common.config."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common import config as config_module
from repro.common.config import (
    BatchConfig,
    CostConfig,
    EdgeConfig,
    FailoverConfig,
    FreshnessConfig,
    LatencyConfig,
    MonitorConfig,
    PerfConfig,
    ReliabilityConfig,
    SystemConfig,
    paper_scale_config,
    small_test_config,
)
from repro.common.errors import ConfigurationError


class TestSystemConfig:
    def test_defaults_are_valid(self):
        config = SystemConfig()
        assert config.validate() is config

    def test_cluster_size_is_3f_plus_1(self):
        assert SystemConfig(fault_tolerance=1).cluster_size == 4
        assert SystemConfig(fault_tolerance=2).cluster_size == 7
        assert SystemConfig(fault_tolerance=3).cluster_size == 10

    def test_quorum_size_is_2f_plus_1(self):
        assert SystemConfig(fault_tolerance=2).quorum_size == 5

    def test_certificate_size_is_f_plus_1(self):
        assert SystemConfig(fault_tolerance=2).certificate_size == 3

    def test_rejects_zero_partitions(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_partitions=0).validate()

    def test_rejects_zero_fault_tolerance(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(fault_tolerance=0).validate()

    def test_rejects_unknown_crypto_backend(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(crypto_backend="ed25519").validate()

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(initial_keys=0).validate()

    def test_with_updates_returns_validated_copy(self):
        base = SystemConfig()
        updated = base.with_updates(num_partitions=3)
        assert updated.num_partitions == 3
        assert base.num_partitions == 5
        assert updated is not base

    def test_with_updates_rejects_invalid_change(self):
        with pytest.raises(ConfigurationError):
            SystemConfig().with_updates(num_partitions=-1)

    def test_paper_scale_matches_section_5_1(self):
        config = paper_scale_config()
        assert config.num_partitions == 5
        assert config.fault_tolerance == 2
        assert config.cluster_size == 7

    def test_small_test_config_is_small_and_valid(self):
        config = small_test_config()
        assert config.num_partitions == 2
        assert config.cluster_size == 4
        assert config.initial_keys <= 256


class TestNestedConfigs:
    def test_latency_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LatencyConfig(intra_cluster_ms=-1).validate()

    def test_latency_rejects_bad_jitter(self):
        with pytest.raises(ConfigurationError):
            LatencyConfig(jitter_fraction=1.5).validate()

    def test_latency_accepts_zero_extra(self):
        LatencyConfig(inter_cluster_extra_ms=0.0).validate()

    def test_cost_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            CostConfig(verify_cache_miss_penalty_ms=-0.1).validate()

    def test_batch_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            BatchConfig(max_size=0).validate()

    def test_batch_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            BatchConfig(timeout_ms=0).validate()

    def test_freshness_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            FreshnessConfig(client_staleness_bound_ms=0).validate()

    def test_nested_validation_runs_from_system_config(self):
        config = SystemConfig(batch=BatchConfig(max_size=0))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_perf_rejects_bad_archive_bounds(self):
        with pytest.raises(ConfigurationError):
            PerfConfig(archive_max_batches=0).validate()

    def test_failover_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            FailoverConfig(progress_timeout_ms=0).validate()
        FailoverConfig().validate()  # defaults are sane


#: Fields retired because nothing ever gave them a second value (PR 22), or
#: nothing but a unit test shrinking a ring or a timer did (PR 24): constants
#: now, so the constructors refuse the names outright.
RETIRED = {
    CostConfig: (
        "signature_sign_ms", "signature_verify_ms", "hash_ms", "read_op_ms",
        "write_op_ms", "merkle_proof_per_level_ms", "conflict_check_ms",
        "batch_base_ms", "message_handling_ms",
    ),
    FailoverConfig: ("max_suspect_rounds", "two_pc_retry_ms", "two_pc_max_retries"),
    PerfConfig: ("verify_cache_size",),
    EdgeConfig: (
        "cache_capacity", "announce_interval_batches", "routing", "fetch_timeout_ms",
        "read_timeout_ms",
    ),
    ReliabilityConfig: (
        "rebroadcast_interval_ms", "commit_retry_attempts", "commit_retry_backoff_ms",
        "ack_delay_ms", "retransmit_base_ms", "retransmit_cap_ms",
        "retransmit_jitter_fraction",
    ),
    MonitorConfig: (
        "max_windows", "latency_samples_per_window", "healthy_after_quiet_windows",
        "max_health_transitions",
    ),
    FreshnessConfig: ("acceptance_window_ms",),
}


class TestOptionSurface:
    @pytest.mark.parametrize(
        "cls, name",
        [(cls, name) for cls, names in RETIRED.items() for name in names],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_retired_names_fail_closed(self, cls, name):
        with pytest.raises(TypeError):
            cls(**{name: 1})

    def test_option_count_is_pinned(self):
        classes = [
            value
            for value in vars(config_module).values()
            if dataclasses.is_dataclass(value)
        ]
        assert sum(len(dataclasses.fields(cls)) for cls in classes) == 42

    def test_cost_constants_are_not_options(self):
        assert [f.name for f in dataclasses.fields(CostConfig)] == [
            "verify_cache_miss_penalty_ms"
        ]
        # ... but still one readable block the cost model reads through.
        assert CostConfig().hash_ms == CostConfig.hash_ms == 0.001
        with pytest.raises(dataclasses.FrozenInstanceError):
            CostConfig().hash_ms = 0.5
