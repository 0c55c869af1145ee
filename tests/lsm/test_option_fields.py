"""The option surfaces are pinned: adding a knob means editing this list.

A field stays only if a test or bench sets a non-default value and that
value changes a measured outcome; anything else is a module constant.
"""

from dataclasses import fields

import pytest

from repro.lsm.options import DBOptions
from repro.lsm.serving import ServingOptions
from repro.lsm.torture import TortureConfig
from tests.lsm.chaos_harness import ChaosOptions

_FIELDS = {
    DBOptions: (
        "key_bits",
        "memtable_size_bytes",
        "sst_size_bytes",
        "block_size_bytes",
        "level0_file_num_compaction_trigger",
        "max_bytes_for_level_base",
        "filter_factory",
        "filter_salt_seed",
        "quarantine_filters",
        "block_cache_bytes",
        "use_filter_dictionary",
        "device",
        "use_wal",
        "io_retry_attempts",
        "manifest_fsync",
        "env_factory",
    ),
    ServingOptions: (
        "num_shards",
        "max_queue_depth",
        "queue_policy",
        "breaker_enabled",
        "breaker_backoff_initial_s",
        "breaker_backoff_max_s",
    ),
    TortureConfig: ("num_ops", "key_space", "filter_salt_seed"),
    ChaosOptions: (
        "queue_policy",
        "default_deadline_s",
        "breaker_enabled",
        "inject_faults",
    ),
}


@pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda cls: cls.__name__)
def test_field_names_are_pinned(cls):
    assert tuple(field.name for field in fields(cls)) == _FIELDS[cls]
