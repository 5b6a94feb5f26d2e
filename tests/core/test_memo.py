"""Tests for the on-disk exact-chain memo (repro.core.memo)."""

import json

import pytest

import repro.core.memo as memo_module
from repro.chains.scu import (
    clear_exact_chain_caches,
    scu_success_probability,
    scu_system_latency_exact,
)
from repro.core.memo import (
    MEMO_DIR_ENV,
    MEMO_SCHEMA_VERSION,
    DiskMemo,
    active_memo,
    clear_disk_entries,
    configure_memo,
    disk_memoized,
    memo_counters,
    reset_memo_counters,
)


@pytest.fixture(autouse=True)
def isolated_memo():
    """No test inherits (or leaks) a process-wide memo configuration."""
    previous = memo_module._active
    configure_memo(None)
    reset_memo_counters()
    yield
    memo_module._active = previous
    clear_exact_chain_caches()
    reset_memo_counters()


def computes() -> int:
    return memo_counters().get("computes", 0)


class TestDiskMemo:
    def test_put_get_round_trips_floats_exactly(self, tmp_path):
        memo = DiskMemo(tmp_path)
        value = 1.0 / 3.0 + 1e-16
        memo.put("solver", (4, 2), value)
        assert memo.get("solver", (4, 2)) == value

    def test_missing_entry_is_a_miss(self, tmp_path):
        memo = DiskMemo(tmp_path)
        assert memo.get("solver", (4, 2)) is memo_module._MISS
        assert memo_counters().get("disk_misses") == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            '{"schema": 999, "key": ["solver", [4, 2]], "value": 1.0}',
            '{"schema": 1, "key": ["other", [4, 2]], "value": 1.0}',
            '{"schema": 1, "key": ["solver", [4, 2]], "value": true}',
            '{"schema": 1, "key": ["solver", [4, 2]], "value": "x"}',
            '{"schema": 1, "key": ["solver", [4, 2]]}',
            '{"schema": 1, "key": ["solver",',  # torn write of a legacy file
            "[]",
        ],
    )
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, payload):
        memo = DiskMemo(tmp_path)
        path = memo.entry_path("solver", (4, 2))
        path.parent.mkdir(parents=True)
        path.write_text(payload)
        assert memo.get("solver", (4, 2)) is memo_module._MISS
        assert memo_counters().get("disk_corrupt") == 1
        # put() overwrites the corrupt entry with a good one.
        memo.put("solver", (4, 2), 2.5)
        assert memo.get("solver", (4, 2)) == 2.5

    def test_entry_payload_layout(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("solver", (4, 2), 2.5)
        payload = json.loads(memo.entry_path("solver", (4, 2)).read_text())
        assert payload == {
            "schema": MEMO_SCHEMA_VERSION,
            "key": ["solver", [4, 2]],
            "value": 2.5,
        }

    def test_put_swallows_unwritable_root(self, tmp_path):
        # A root that is a plain file makes every mkdir/write fail with
        # OSError (works even when the test runs as root, unlike chmod).
        blocked = tmp_path / "blocked"
        blocked.write_text("in the way")
        memo = DiskMemo(blocked)
        memo.put("solver", (4, 2), 2.5)  # must not raise
        assert memo.get("solver", (4, 2)) is memo_module._MISS

    def test_clear_by_name_and_all(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("a", (1,), 1.0)
        memo.put("a", (2,), 2.0)
        memo.put("b", (1,), 3.0)
        assert memo.clear("a") == 2
        assert memo.get("a", (1,)) is memo_module._MISS
        assert memo.get("b", (1,)) == 3.0
        assert memo.clear() == 1


class TestConfiguration:
    def test_unconfigured_active_memo_is_none(self):
        assert active_memo() is None

    def test_configure_and_disable(self, tmp_path):
        memo = configure_memo(tmp_path)
        assert active_memo() is memo
        assert memo.root == tmp_path
        assert configure_memo(None) is None
        assert active_memo() is None

    def test_env_var_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MEMO_DIR_ENV, str(tmp_path / "env-memo"))
        monkeypatch.setattr(memo_module, "_active", memo_module._UNRESOLVED)
        memo = active_memo()
        assert memo is not None
        assert memo.root == tmp_path / "env-memo"

    def test_explicit_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MEMO_DIR_ENV, str(tmp_path / "env-memo"))
        configure_memo(tmp_path / "explicit")
        assert active_memo().root == tmp_path / "explicit"

    def test_clear_disk_entries_without_memo_is_noop(self):
        assert clear_disk_entries(["anything"]) == 0


class TestDiskMemoized:
    def test_warm_start_skips_recompute_and_is_bit_equal(self, tmp_path):
        configure_memo(tmp_path)
        calls = []

        @disk_memoized("expensive")
        def expensive(n):
            calls.append(n)
            return n / 7.0

        cold = expensive(3)
        assert calls == [3]
        # A new process has an empty lru_cache but the same disk.
        expensive.cache_clear()
        warm = expensive(3)
        assert calls == [3]  # no recompute
        assert warm == cold
        assert memo_counters().get("disk_hits") == 1

    def test_without_memo_behaves_like_plain_lru_cache(self):
        calls = []

        @disk_memoized("plain")
        def plain(n):
            calls.append(n)
            return float(n)

        assert plain(1) == plain(1) == 1.0
        assert calls == [1]
        counters = memo_counters()
        assert counters.get("disk_hits", 0) == 0
        assert counters.get("disk_writes", 0) == 0

    def test_memo_name_attribute_exposed(self):
        @disk_memoized("named")
        def named(n):
            return float(n)

        assert named.memo_name == "named"


class TestScuIntegration:
    ARGS = (3,)

    def test_cold_then_warm_solve_is_bit_identical(self, tmp_path):
        configure_memo(tmp_path)
        clear_exact_chain_caches()
        reset_memo_counters()
        cold_p = scu_success_probability(*self.ARGS)
        cold_latency = scu_system_latency_exact(*self.ARGS)
        cold_computes = computes()
        assert cold_computes >= 2

        # Simulate a fresh process: empty in-process caches, same disk.
        for solver in (scu_success_probability, scu_system_latency_exact):
            solver.cache_clear()
        reset_memo_counters()
        assert scu_success_probability(*self.ARGS) == cold_p
        assert scu_system_latency_exact(*self.ARGS) == cold_latency
        assert computes() == 0  # the warm start skipped every solve
        assert memo_counters().get("disk_hits") == 2

    def test_clear_exact_chain_caches_clears_disk_layer_too(self, tmp_path):
        configure_memo(tmp_path)
        clear_exact_chain_caches()
        reset_memo_counters()
        scu_success_probability(*self.ARGS)
        assert computes() == 1
        clear_exact_chain_caches()
        reset_memo_counters()
        scu_success_probability(*self.ARGS)
        # Both layers were cleared, so the solver really ran again.
        assert computes() == 1
        assert memo_counters().get("disk_hits", 0) == 0


class TestListValues:
    """Values are numbers only: a list entry (the service's point
    triples, before it kept its own journal) is corrupt on disk, and a
    list put raises."""

    def write_entry(self, memo, args, value):
        path = memo.entry_path("triples", args)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"schema": 1, "key": ["triples", list(args)], "value": value}
            )
        )

    def test_list_entry_on_disk_is_corruption(self, tmp_path):
        memo = DiskMemo(tmp_path)
        self.write_entry(memo, (2, 0), [1.5, 2.5, 3.5])
        reset_memo_counters()
        assert memo.get("triples", (2, 0)) is memo_module._MISS
        assert memo_counters()["disk_corrupt"] == 1

    @pytest.mark.parametrize(
        "value", [[1.5, 2.5, 3.5], (1.0, 2.0, 3.0)], ids=["list", "tuple"]
    )
    def test_list_put_raises_naming_the_type(self, tmp_path, value):
        memo = DiskMemo(tmp_path)
        with pytest.raises(TypeError, match=type(value).__name__):
            memo.put("triples", (2, 1), value)
        assert not memo.entry_path("triples", (2, 1)).exists()

    def test_non_numeric_list_is_corruption(self, tmp_path):
        memo = DiskMemo(tmp_path)
        self.write_entry(memo, (4, 0), [1.0, "oops", 3.0])
        reset_memo_counters()
        assert memo.get("triples", (4, 0)) is memo_module._MISS
        assert memo_counters()["disk_corrupt"] == 1

    def test_empty_list_is_corruption(self, tmp_path):
        memo = DiskMemo(tmp_path)
        self.write_entry(memo, (4, 1), [])
        assert memo.get("triples", (4, 1)) is memo_module._MISS


class TestDegradedPut:
    """A full or read-only disk degrades the memo, never the solve."""

    @pytest.fixture(autouse=True)
    def reset_warn_flag(self):
        memo_module._warned_put_failure = False
        yield
        memo_module._warned_put_failure = False

    def test_put_failure_warns_once_and_counts(self, tmp_path, monkeypatch):
        import errno
        import warnings as warnings_module

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        memo = DiskMemo(tmp_path)
        monkeypatch.setattr(memo_module.tempfile, "mkstemp", refuse)
        reset_memo_counters()
        with pytest.warns(RuntimeWarning, match="memo write failed"):
            memo.put("solve", (1,), 2.0)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            memo.put("solve", (2,), 3.0)  # silent after the first warning
        counters = memo_counters()
        assert counters["put_failures"] == 2
        assert "disk_writes" not in counters
        # nothing was stored; reads are misses, not errors
        assert memo.get("solve", (1,)) is memo_module._MISS

    def test_memoized_function_survives_put_failure(
        self, tmp_path, monkeypatch
    ):
        import errno

        def refuse(*args, **kwargs):
            raise OSError(errno.EPERM, "read-only")

        configure_memo(tmp_path)
        monkeypatch.setattr(memo_module.tempfile, "mkstemp", refuse)

        @disk_memoized("flaky-disk")
        def double(x):
            return 2.0 * x

        with pytest.warns(RuntimeWarning, match="memo write failed"):
            assert double(3) == 6.0
