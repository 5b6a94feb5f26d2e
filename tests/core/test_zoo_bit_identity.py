"""Pinned zoo tables: the departure-curve output may not move by a bit.

Each digest is the SHA-256 of the canonical JSON (sorted keys, compact
separators) of ``zoo_departure_table([s], n_processes=8, steps=2000,
seed=k)``.  They were computed before operations and markers became
slotted dataclasses and before the batched engine began drawing a
contention scheduler's uniforms per block, so they pin both changes to
the exact schedules, completions and statistics of the per-step
``select`` path.  The serial engine (``batched=False``) must produce
the same table, hence the same digest.
"""

import hashlib
import json

import pytest

from repro.core.uniformity import zoo_departure_table

DIGESTS = {
    ("msqueue", 1): "fad27f0941abb5fc6a84763a0bf9626a1cd7cda4bf023887c37497f7fb0ae6cf",
    ("msqueue", 7): "f32764d10ee50a5f23645b02235b844a9d0646133e1f06b0e9fb6967684d5cc2",
    ("treiber", 1): "2f5e0904b505f3e3239dbccdc66ebc231c47c18d564b2c4420c764806c023cd3",
    ("treiber", 7): "5934473e819f41a97e9762e41d022145953f9e0f20f486d05429ef9076a453a1",
    ("harris-set", 1): "b8e868a96b8291ad8c4da7c05bc6c4a91812a6cbe3a838af9199f900f896f89b",
    ("harris-set", 7): "a79a593caa4d6b1b0d5256f9013219f5b4fe95a5bd911d47017b485c684ded2f",
    ("rtas-lock", 1): "4a142d3960114f5ae18f0fc2dbdf7d9bd1d04646dc37f1b6afe081e80d42d4ca",
    ("rtas-lock", 7): "5f2163009038b7cf4d7b381f68cd17f383f240043f54c713dad5152c743d7309",
}


def table_digest(structure: str, seed: int, *, batched: bool = True) -> str:
    table = zoo_departure_table(
        [structure], n_processes=8, steps=2000, seed=seed, batched=batched
    )
    canonical = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("structure, seed", sorted(DIGESTS))
def test_batched_zoo_table_matches_pinned_digest(structure, seed):
    assert table_digest(structure, seed) == DIGESTS[structure, seed]


def test_serial_zoo_table_matches_pinned_digest():
    assert table_digest("msqueue", 1, batched=False) == DIGESTS["msqueue", 1]
