"""Property-based tests: the service's point journal under truncation
and byte flips.

A torn final line is repaired and its point recomputed bit-identically;
any other corruption raises :class:`CheckpointError` naming the journal
and the line or schema; no corruption ever serves a wrong triple; and a
second writer on the same root fails naming the holder's PID.
"""

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import CheckpointError
from repro.service import SweepService, run_sweep_job, validate_spec
from repro.service.ledger import PointJournal

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

identities = st.sampled_from(
    [
        ("cas-counter", -1, -1, "uniform", 1000, -1, "none", 7),
        ("scu", 2, 2, "epsilon:0.4", 5000, 10, "0f1e2d3c4b5a6978", 3),
    ]
)

journals = st.dictionaries(
    keys=st.tuples(
        identities,
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=9),
    ).map(lambda key: key[0] + key[1:]),
    values=st.tuples(finite, finite, finite),
    min_size=1,
    max_size=20,
)


def write_journal(path, points):
    """Journal ``points`` in order; returns the file's bytes."""
    with PointJournal(path) as journal:
        for key, triple in points.items():
            journal.append(key, triple)
    return path.read_bytes()


def served(journal, points):
    """``{key: triple}`` for every key of ``points`` the journal serves."""
    found = {key: journal.get(key) for key in points}
    return {key: triple for key, triple in found.items() if triple is not None}


@settings(max_examples=60, deadline=None)
@given(journals, st.data())
def test_truncated_journal_serves_exactly_its_complete_lines(
    tmp_path_factory, points, data
):
    path = tmp_path_factory.mktemp("journal") / "points.jsonl"
    raw = write_journal(path, points)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
    path.write_bytes(raw[:cut])
    # A point survives when its whole record precedes the cut; a record
    # that lost only its newline is kept by the tail repair.
    lines = raw.split(b"\n")
    offset = len(lines[0]) + 1
    expected = {}
    for key, line in zip(points, lines[1:-1]):
        if offset + len(line) <= cut:
            expected[key] = points[key]
        offset += len(line) + 1
    with PointJournal(path) as journal:
        assert served(journal, points) == expected
        assert len(journal) == len(expected)


@settings(max_examples=150, deadline=None)
@given(journals, st.data())
def test_flipped_byte_never_serves_a_wrong_triple(
    tmp_path_factory, points, data
):
    path = tmp_path_factory.mktemp("journal") / "points.jsonl"
    raw = write_journal(path, points)
    at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    byte = data.draw(
        st.integers(min_value=0, max_value=255).filter(lambda b: b != raw[at])
    )
    path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
    try:
        journal = PointJournal(path)
    except CheckpointError as exc:
        message = str(exc)
        assert str(path) in message
        assert "line" in message or "schema" in message
        assert not path.with_name("points.jsonl.lock").exists()
        return
    with journal:
        found = served(journal, points)
        # Only a flipped final newline loads: that line is dropped as torn.
        assert all(points[key] == triple for key, triple in found.items())
        assert len(journal) == len(found)
        assert len(found) >= len(points) - 1


def test_torn_final_line_is_recomputed_bit_identical(tmp_path):
    spec = validate_spec(
        {"n_values": [2, 3], "steps": 300, "repeats": 2, "seed": 9}
    )
    path = tmp_path / "points.jsonl"
    with PointJournal(path) as journal:
        first = run_sweep_job(spec, journal)
    raw = path.read_bytes()
    last = raw.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(raw[: last + (len(raw) - last) // 2])
    with PointJournal(path) as journal:
        assert len(journal) == 3
        again = run_sweep_job(spec, journal)
    assert (again["warm_points"], again["recomputed"]) == (3, 1)
    assert again["triples"] == first["triples"]
    assert again["points"] == first["points"]
    # The repair dropped the torn bytes; the recomputed point took their
    # place, so the journal holds each point once.
    assert path.read_bytes().count(b'"kind":"point"') == 4
    with PointJournal(path) as journal:
        assert len(journal) == 4


POINTS = {
    ("cas-counter", -1, -1, "uniform", 1000, -1, "none", 7, n, 0): (
        1.25 * n,
        2.5,
        3.75,
    )
    for n in (2, 3, 4)
}


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda line: b"{not json" + line[9:], id="unparseable"),
        # Still valid JSON, with another first latency: only the
        # checksum tells this triple is wrong.
        pytest.param(
            lambda line: line.replace(b'"v":[3.75', b'"v":[7.75'),
            id="wrong-triple",
        ),
        pytest.param(lambda line: line.replace(b',"crc"', b',"crs"'), id="no-crc"),
    ],
)
def test_corrupt_non_final_line_names_path_and_line(tmp_path, corrupt):
    path = tmp_path / "points.jsonl"
    lines = write_journal(path, POINTS).split(b"\n")
    damaged = corrupt(lines[2])
    assert damaged != lines[2]
    path.write_bytes(b"\n".join(lines[:2] + [damaged] + lines[3:]))
    with pytest.raises(CheckpointError) as info:
        PointJournal(path)
    assert f"point journal {path} line 3" in str(info.value)
    assert not path.with_name("points.jsonl.lock").exists()


@pytest.mark.parametrize(
    "header, named",
    [
        ({"kind": "header", "journal": "points", "schema": 2}, "schema 2"),
        ({"kind": "header", "schema": 1}, "is not a point journal"),
    ],
    ids=["newer-schema", "ledger-header"],
)
def test_foreign_header_names_path_and_schema(tmp_path, header, named):
    path = tmp_path / "points.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(CheckpointError) as info:
        PointJournal(path)
    assert str(path) in str(info.value)
    assert named in str(info.value)


def test_second_service_on_a_root_names_the_holder(tmp_path):
    holder = f"PID {os.getpid()}"
    with SweepService(tmp_path, workers=1) as service:
        with pytest.raises(CheckpointError, match=holder):
            SweepService(tmp_path, workers=1)
        with pytest.raises(CheckpointError, match=holder):
            PointJournal(tmp_path / "points.jsonl")
        # The refused second writers took nothing from the first.
        job_id = service.submit(
            {"n_values": [2], "steps": 300, "repeats": 2}
        )["job_id"]
        deadline = time.monotonic() + 60
        while service.status(job_id)["state"] != "completed":
            assert time.monotonic() < deadline, service.status(job_id)
            time.sleep(0.02)
        assert service.result(job_id)["recomputed"] == 2
