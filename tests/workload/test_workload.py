"""Tests for the workload generator and key distributions."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.common.types import TxnKind
from repro.storage.partitioner import HashPartitioner
from repro.workload.distributions import UniformKeyChooser, ZipfianKeyChooser, make_chooser
from repro.workload.generator import WorkloadGenerator, WorkloadProfile


@pytest.fixture
def keys():
    return [f"key-{i:05d}" for i in range(500)]


@pytest.fixture
def partitioner():
    return HashPartitioner(5)


@pytest.fixture
def generator(keys, partitioner):
    return WorkloadGenerator(keys, partitioner, seed=3)


class TestDistributions:
    def test_uniform_chooser_covers_population(self, keys, rng):
        chooser = UniformKeyChooser(keys)
        seen = {chooser.choose(rng) for _ in range(2000)}
        assert len(seen) > 300

    def test_uniform_distinct_has_no_duplicates(self, keys, rng):
        chooser = UniformKeyChooser(keys)
        chosen = chooser.choose_distinct(50, rng)
        assert len(chosen) == len(set(chosen)) == 50

    def test_uniform_distinct_caps_at_population(self, rng):
        chooser = UniformKeyChooser(["a", "b"])
        assert sorted(chooser.choose_distinct(10, rng)) == ["a", "b"]

    def test_zipfian_is_skewed_towards_low_ranks(self, keys, rng):
        chooser = ZipfianKeyChooser(keys, theta=0.99)
        counts = Counter(chooser.choose(rng) for _ in range(5000))
        top_key_hits = counts[keys[0]]
        median_key_hits = counts.get(keys[len(keys) // 2], 0)
        assert top_key_hits > 10 * max(1, median_key_hits)

    def test_zipfian_distinct_has_no_duplicates(self, keys, rng):
        chooser = ZipfianKeyChooser(keys, theta=0.9)
        chosen = chooser.choose_distinct(20, rng)
        assert len(chosen) == len(set(chosen)) == 20

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            UniformKeyChooser([])
        with pytest.raises(ValueError):
            ZipfianKeyChooser([])

    def test_make_chooser_factory(self, keys):
        assert isinstance(make_chooser(keys, "uniform"), UniformKeyChooser)
        assert isinstance(make_chooser(keys, "zipfian"), ZipfianKeyChooser)
        with pytest.raises(ValueError):
            make_chooser(keys, "gaussian")


class TestWorkloadProfile:
    def test_defaults_follow_section_5_1(self):
        profile = WorkloadProfile().validate()
        assert profile.read_ops == 5
        assert profile.write_ops == 3
        assert profile.read_only_ops == 5
        assert profile.value_size == 256

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            WorkloadProfile(read_only_fraction=1.5).validate()

    def test_rejects_bad_value_size(self):
        with pytest.raises(ValueError):
            WorkloadProfile(value_size=0).validate()


class TestGenerator:
    def test_local_transactions_stay_in_one_partition(self, generator, partitioner):
        for _ in range(20):
            spec = generator.local_read_write()
            touched = partitioner.group_keys(list(spec.read_keys) + list(spec.writes))
            assert len(touched) == 1
            assert spec.kind is TxnKind.LOCAL_READ_WRITE

    def test_local_write_only_has_no_reads(self, generator):
        spec = generator.local_write_only()
        assert spec.kind is TxnKind.LOCAL_WRITE_ONLY
        assert spec.read_keys == ()
        assert len(spec.writes) >= 1

    def test_distributed_transactions_span_partitions(self, generator, partitioner):
        spec = generator.distributed_read_write()
        assert spec.kind is TxnKind.DISTRIBUTED_READ_WRITE
        assert len(spec.read_keys) == 5 and len(spec.writes) == 3
        touched = partitioner.group_keys(list(spec.read_keys) + list(spec.writes))
        assert len(touched) > 1

    def test_distributed_read_write_skew_override(self, generator):
        spec = generator.distributed_read_write(read_ops=1, write_ops=5)
        assert len(spec.read_keys) == 1 and len(spec.writes) == 5

    def test_read_only_reads_one_key_per_cluster_by_default(self, generator, partitioner):
        spec = generator.read_only(clusters=5)
        assert spec.kind is TxnKind.READ_ONLY
        assert not spec.writes
        assert len(spec.read_keys) == 5
        assert len(partitioner.group_keys(spec.read_keys)) == 5

    def test_read_only_cluster_count_clamped(self, generator, partitioner):
        spec = generator.read_only(clusters=50)
        assert len(partitioner.group_keys(spec.read_keys)) == 5

    def test_long_running_read_only(self, generator):
        spec = generator.read_only(clusters=5, ops=250)
        assert len(spec.read_keys) == 250

    def test_values_are_unique_and_sized(self, generator):
        a, b = generator.next_value(), generator.next_value()
        assert a != b
        assert len(a) == generator.profile.value_size

    def test_mixed_stream_respects_fractions(self, keys, partitioner):
        generator = WorkloadGenerator(
            keys,
            partitioner,
            profile=WorkloadProfile(read_only_fraction=0.5, local_fraction=0.25),
            seed=9,
        )
        kinds = Counter(spec.kind for spec in generator.mixed_stream(400))
        assert kinds[TxnKind.READ_ONLY] > 120
        assert kinds[TxnKind.LOCAL_READ_WRITE] > 40
        assert kinds[TxnKind.DISTRIBUTED_READ_WRITE] > 40

    def test_stream_of_single_kind(self, generator):
        specs = list(generator.stream_of(10, TxnKind.LOCAL_WRITE_ONLY))
        assert len(specs) == 10
        assert all(spec.kind is TxnKind.LOCAL_WRITE_ONLY for spec in specs)

    def test_generator_is_deterministic_for_a_seed(self, keys, partitioner):
        a = WorkloadGenerator(keys, partitioner, seed=42)
        b = WorkloadGenerator(keys, partitioner, seed=42)
        specs_a = [a.distributed_read_write() for _ in range(5)]
        specs_b = [b.distributed_read_write() for _ in range(5)]
        assert [s.read_keys for s in specs_a] == [s.read_keys for s in specs_b]

    def test_empty_key_population_rejected(self, partitioner):
        with pytest.raises(ValueError):
            WorkloadGenerator([], partitioner)

    def test_op_count(self, generator):
        spec = generator.distributed_read_write()
        assert spec.op_count() == 8
