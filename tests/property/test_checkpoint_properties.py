"""Property-based tests: store round-trips preserve triples exactly, and
no corruption of a store or of the service ledger escapes as anything
but CheckpointError."""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import CheckpointError, sweep_fingerprint
from repro.core.scheduler import (
    EpsilonUniformScheduler,
    UniformStochasticScheduler,
)
from repro.core.store import ColumnarSweepStore
from repro.service.ledger import JobLedger

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

triples = st.dictionaries(
    keys=st.tuples(
        st.integers(min_value=1, max_value=1024),
        st.integers(min_value=0, max_value=255),
    ),
    values=st.tuples(finite, finite, finite),
    max_size=40,
)

fingerprints = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "steps": st.integers(min_value=1, max_value=10**7),
        "scheduler": st.one_of(
            st.none(),
            st.builds(UniformStochasticScheduler),
            st.builds(
                EpsilonUniformScheduler,
                st.floats(min_value=0.0, max_value=1.0),
            ),
        ),
        "repeats": st.integers(min_value=2, max_value=64),
        "burn_in": st.one_of(
            st.none(), st.integers(min_value=0, max_value=10**6)
        ),
        "n_values": st.lists(
            st.integers(min_value=1, max_value=1024),
            min_size=1,
            max_size=8,
            unique=True,
        ),
    }
)


@settings(max_examples=50, deadline=None)
@given(triples, fingerprints)
def test_round_trip_preserves_triples_exactly(tmp_path_factory, data, fields):
    # Bit-exact floats through JSON: Python's json writes repr(float),
    # which round-trips every finite double exactly.
    path = tmp_path_factory.mktemp("ckpt") / "store"
    fingerprint = sweep_fingerprint(crash_times=None, **fields)
    with ColumnarSweepStore.open(path, fingerprint, compact_every=7) as store:
        for (n, r), triple in data.items():
            store.record(n, r, triple)
    reopened = ColumnarSweepStore.open(path, fingerprint, resume=True)
    try:
        assert reopened.completed == data
        assert reopened.fingerprint == fingerprint
    finally:
        reopened.close()


@settings(max_examples=50, deadline=None)
@given(triples)
def test_load_completed_matches_open(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ckpt") / "store"
    fingerprint = sweep_fingerprint(
        seed=0,
        steps=100,
        n_values=[2],
        repeats=2,
        burn_in=None,
    )
    with ColumnarSweepStore.open(path, fingerprint, compact_every=7) as store:
        for (n, r), triple in data.items():
            store.record(n, r, triple)
    assert ColumnarSweepStore.load_completed(path) == data


# -- corruption robustness -------------------------------------------------
#
# Whatever a crash, a flaky disk, or an editor does to the journal, a
# resume either succeeds (torn-tail repair) or raises CheckpointError —
# never an uncaught KeyError/IndexError/JSONDecodeError.  The "journal"
# below is the store's write-ahead tail as a kill before compaction
# leaves it: every record in tail.jsonl, no chunk.

FINGERPRINT = sweep_fingerprint(
    seed=0,
    steps=100,
    n_values=[2, 4],
    repeats=4,
    burn_in=None,
    crash_times=None,
)


def _journal_bytes(tmp_path_factory, data) -> tuple:
    """A store whose records all sit in its tail; returns the tail."""
    root = tmp_path_factory.mktemp("ckpt") / "store"
    with ColumnarSweepStore.open(root, FINGERPRINT) as store:
        for (n, r), triple in data.items():
            store.record(n, r, triple)
    tail = root / "tail.jsonl"
    return tail, tail.read_bytes()


def _assert_load_is_contained(tail):
    root = tail.parent
    try:
        completed = ColumnarSweepStore.load_completed(root)
    except CheckpointError:
        return
    assert isinstance(completed, dict)
    # Resume-open agrees with the standalone loader on mutated input.
    reopened = ColumnarSweepStore.open(
        root, ColumnarSweepStore.load_fingerprint(root), resume=True
    )
    try:
        assert reopened.completed == completed
    finally:
        reopened.close()


@settings(max_examples=60, deadline=None)
@given(triples, st.data())
def test_truncated_journal_never_raises_uncaught(
    tmp_path_factory, data, draw
):
    path, original = _journal_bytes(tmp_path_factory, data)
    cut = draw.draw(st.integers(min_value=0, max_value=len(original)))
    path.write_bytes(original[:cut])
    _assert_load_is_contained(path)


@settings(max_examples=60, deadline=None)
@given(triples, st.data())
def test_byte_flipped_journal_never_raises_uncaught(
    tmp_path_factory, data, draw
):
    path, original = _journal_bytes(tmp_path_factory, data)
    mutated = bytearray(original)
    position = draw.draw(
        st.integers(min_value=0, max_value=max(0, len(mutated) - 1))
    )
    flip = draw.draw(st.integers(min_value=1, max_value=255))
    if mutated:
        mutated[position] ^= flip
    path.write_bytes(bytes(mutated))
    _assert_load_is_contained(path)


@settings(max_examples=60, deadline=None)
@given(triples, st.data())
def test_injected_lines_and_bytes_never_raise_uncaught(
    tmp_path_factory, data, draw
):
    path, original = _journal_bytes(tmp_path_factory, data)
    injected = draw.draw(
        st.binary(min_size=1, max_size=64).map(
            lambda b: b.replace(b"\r", b" ")
        )
    )
    position = draw.draw(st.integers(min_value=0, max_value=len(original)))
    as_line = draw.draw(st.booleans())
    if as_line:
        # Inject a whole garbage line at a line boundary.
        lines = original.split(b"\n")
        index = draw.draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(index, injected.replace(b"\n", b" "))
        mutated = b"\n".join(lines)
    else:
        mutated = original[:position] + injected + original[position:]
    path.write_bytes(mutated)
    _assert_load_is_contained(path)


@settings(max_examples=40, deadline=None)
@given(triples, st.data())
def test_store_tail_and_chunk_corruption_never_raises_uncaught(
    tmp_path_factory, data, draw
):
    # The columnar store has three corruptible files: header.json, the
    # npz chunks, and the write-ahead tail.  Mutate one at random.
    root = tmp_path_factory.mktemp("store") / "store"
    with ColumnarSweepStore.open(root, FINGERPRINT, compact_every=5) as store:
        for (n, r), triple in data.items():
            store.record(n, r, triple)
    targets = sorted(p for p in root.iterdir() if p.is_file())
    target = targets[
        draw.draw(st.integers(min_value=0, max_value=len(targets) - 1))
    ]
    original = target.read_bytes()
    mode = draw.draw(st.sampled_from(["truncate", "flip", "inject"]))
    if mode == "truncate":
        cut = draw.draw(st.integers(min_value=0, max_value=len(original)))
        mutated = original[:cut]
    elif mode == "flip" and original:
        position = draw.draw(
            st.integers(min_value=0, max_value=len(original) - 1)
        )
        flip = draw.draw(st.integers(min_value=1, max_value=255))
        mutated = bytearray(original)
        mutated[position] ^= flip
        mutated = bytes(mutated)
    else:
        injected = draw.draw(st.binary(min_size=1, max_size=64))
        position = draw.draw(
            st.integers(min_value=0, max_value=len(original))
        )
        mutated = original[:position] + injected + original[position:]
    target.write_bytes(mutated)
    try:
        completed = ColumnarSweepStore.load_completed(root)
    except CheckpointError:
        return
    assert isinstance(completed, dict)


# -- any interleaving of store operations ----------------------------------
#
# Whatever order records, compactions, closes and reopens come in, and
# whether close-time tails are short or long, every reader agrees with
# the last-wins fold of the records: the standalone loader, a resumed
# handle's ``completed`` and an open handle's ``triples()``.  A kill
# leaves the files as they are after the last flushed record, so a copy
# of the directory taken then must load everything recorded so far.

store_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.tuples(
                st.sampled_from([2, 4]),
                st.integers(min_value=0, max_value=3),
            ),
            st.tuples(finite, finite, finite),
        ),
        st.tuples(st.just("compact")),
        st.tuples(st.just("reopen")),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(store_ops, st.sampled_from([1, 2, 5, 4096]))
def test_any_interleaving_folds_last_wins(tmp_path_factory, ops, compact_every):
    root = tmp_path_factory.mktemp("ops")
    path = root / "store"
    fold = {}
    store = ColumnarSweepStore.open(
        path, FINGERPRINT, compact_every=compact_every
    )
    try:
        for op in ops:
            if op[0] == "record":
                _, key, triple = op
                store.record(*key, triple)
                fold[key] = triple
                killed = root / f"killed-{len(fold)}-{key}"
                shutil.copytree(path, killed)
                assert ColumnarSweepStore.load_completed(killed) == fold
                shutil.rmtree(killed)
            elif op[0] == "compact":
                store.compact()
            else:
                store.close()
                store = ColumnarSweepStore.open(
                    path, FINGERPRINT, resume=True, compact_every=compact_every
                )
                assert store.completed == fold
            assert store.triples() == fold
    finally:
        store.close()
    assert store.triples() == fold
    assert ColumnarSweepStore.load_completed(path) == fold
    reopened = ColumnarSweepStore.open(path, FINGERPRINT, resume=True)
    try:
        assert reopened.completed == fold
        assert reopened.triples() == fold
    finally:
        reopened.close()


# -- the service ledger ----------------------------------------------------
#
# The job ledger is the daemon's durable state.  Opening and replaying a
# truncated or byte-flipped ledger either succeeds or raises
# CheckpointError naming the ledger — never a raw UnicodeDecodeError
# from a flip to invalid UTF-8, nor a ValueError from float("...").

LEDGER_SPEC = {"workload": "cas-counter", "n_values": [2], "steps": 100}


def _ledger_bytes(tmp_path_factory, jobs) -> tuple:
    path = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
    with JobLedger(path, clock=iter(range(1, 10**6)).__next__) as ledger:
        for index in range(jobs):
            job = f"j{index}"
            ledger.append("submitted", job, spec=LEDGER_SPEC)
            ledger.append(
                "leased", job, owner="1:w", attempt=1, expires=9.5
            )
            ledger.append("heartbeat", job, owner="1:w", expires=12.25)
            ledger.append("completed", job, result={"recomputed": 2})
    return path, path.read_bytes()


def _assert_ledger_is_contained(path):
    try:
        with JobLedger(path) as ledger:
            jobs = ledger.replay()
    except CheckpointError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(jobs, dict)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_truncated_ledger_never_raises_uncaught(tmp_path_factory, jobs, draw):
    path, original = _ledger_bytes(tmp_path_factory, jobs)
    cut = draw.draw(st.integers(min_value=0, max_value=len(original)))
    path.write_bytes(original[:cut])
    _assert_ledger_is_contained(path)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.data())
def test_byte_flipped_ledger_never_raises_uncaught(
    tmp_path_factory, jobs, draw
):
    path, original = _ledger_bytes(tmp_path_factory, jobs)
    mutated = bytearray(original)
    position = draw.draw(
        st.integers(min_value=0, max_value=len(mutated) - 1)
    )
    mutated[position] ^= draw.draw(st.integers(min_value=1, max_value=255))
    path.write_bytes(bytes(mutated))
    _assert_ledger_is_contained(path)
