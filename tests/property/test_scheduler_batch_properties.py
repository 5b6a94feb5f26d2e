"""Property test: ``select_batch`` is exactly ``size`` sequential selects.

The batched-execution contract (see ``Scheduler.select_batch``) demands,
for a fixed active set: the same pids in the same order *and* the same
RNG word consumption as sequential ``select`` calls, plus
``state_snapshot``/``state_restore`` sufficient to rewind a block that
was cut short and replay only its consumed prefix.  This file checks
the full contract for every shipped scheduler family — including the
contention adversary and the epsilon departure dial — under shrinking
active sets (hypothesis draws arbitrary non-empty pid subsets, the
post-crash shapes the executor produces).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    _COMPILED_DRAW_MIN_SIZE,
    AdversarialScheduler,
    ContentionScheduler,
    DistributionScheduler,
    EpsilonUniformScheduler,
    HardwareLikeScheduler,
    LotteryScheduler,
    MarkovModulatedScheduler,
    SkewedStochasticScheduler,
    UniformStochasticScheduler,
)
from repro.sim import kernels
from repro.sim.kernels import pcg64_seed_states, uniform_draw

N_TOTAL = 8


def _skewed_weights(variant: int) -> np.ndarray:
    return np.random.default_rng(variant).uniform(0.5, 3.0, N_TOTAL)


def _uniform_pi(time, active):
    share = 1.0 / len(active)
    return {pid: share for pid in active}


FAMILY_BUILDERS = {
    "uniform": lambda variant: UniformStochasticScheduler(),
    "skewed": lambda variant: SkewedStochasticScheduler(_skewed_weights(variant)),
    "lottery": lambda variant: LotteryScheduler(
        [1 + (variant + k) % 5 for k in range(N_TOTAL)]
    ),
    "distribution": lambda variant: DistributionScheduler(_uniform_pi),
    "adversarial-round-robin": lambda variant: AdversarialScheduler.round_robin(),
    "adversarial-starve": lambda variant: AdversarialScheduler.starve(
        variant % N_TOTAL
    ),
    "adversarial-spoiler": lambda variant: AdversarialScheduler.alternating_spoiler(
        variant % N_TOTAL
    ),
    "markov": lambda variant: MarkovModulatedScheduler(
        slowdown=2.0 + variant % 3, mean_dwell=5.0
    ),
    "hardware": lambda variant: HardwareLikeScheduler(
        mean_quantum=1.5 + 0.5 * (variant % 3)
    ),
    "epsilon": lambda variant: EpsilonUniformScheduler(
        0.1 * (variant % 10), favored=variant % N_TOTAL
    ),
    "contention": lambda variant: ContentionScheduler(focus=2.0 + variant % 4),
}


def _make(family: str, variant: int):
    scheduler = FAMILY_BUILDERS[family](variant)
    if family == "contention":
        # The contention set only ever changes through the executor's
        # observe_pending hook, never inside select — feed a varied
        # pending map so the block runs with non-trivial weights.
        registers = ["top", "counter", None]
        draws = np.random.default_rng(variant).integers(3, size=N_TOTAL)
        scheduler.observe_pending(
            {pid: registers[draws[pid]] for pid in range(N_TOTAL)}
        )
    return scheduler


@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
@settings(max_examples=25, deadline=None)
@given(
    variant=st.integers(min_value=0, max_value=11),
    active=st.lists(
        st.integers(min_value=0, max_value=N_TOTAL - 1),
        min_size=1,
        max_size=N_TOTAL,
        unique=True,
    ).map(sorted),
    size=st.integers(min_value=1, max_value=12),
    prefix=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_select_batch_is_sequential_select(
    family, variant, active, size, prefix, seed
):
    consumed = min(prefix, size)

    batch_sched = _make(family, variant)
    seq_sched = _make(family, variant)
    batch_rng = np.random.default_rng(seed)
    seq_rng = np.random.default_rng(seed)

    rng_state = batch_rng.bit_generator.state
    snapshot = batch_sched.state_snapshot()

    batch = batch_sched.select_batch(0, active, batch_rng, size)
    sequential = [seq_sched.select(t, active, seq_rng) for t in range(size)]

    assert list(batch) == sequential
    assert batch_rng.bit_generator.state == seq_rng.bit_generator.state
    assert batch_sched.state_snapshot() == seq_sched.state_snapshot()

    # The run_batched rewind: a block cut short restores the pre-block
    # snapshot and replays exactly the consumed prefix.  Afterwards the
    # scheduler and RNG must sit precisely where a sequential run of
    # `consumed` selects would have left them.
    batch_sched.state_restore(snapshot)
    batch_rng.bit_generator.state = rng_state
    if consumed:
        replay = batch_sched.select_batch(0, active, batch_rng, consumed)
        assert list(replay) == sequential[:consumed]
    reference = _make(family, variant)
    reference_rng = np.random.default_rng(seed)
    for t in range(consumed):
        reference.select(t, active, reference_rng)
    assert batch_rng.bit_generator.state == reference_rng.bit_generator.state
    assert batch_sched.state_snapshot() == reference.state_snapshot()


# -- the uniform draw's stream, pinned to numpy ------------------------------------
#
# From _COMPILED_DRAW_MIN_SIZE pids on, UniformStochasticScheduler draws
# through the cc library's PCG64 step (repro.sim.kernels.uniform_draw),
# and ensembles seed (seed, n, r) tuples in one compiled pass.  Both are
# re-implementations of numpy's Generator.integers and SeedSequence, so
# these cases compare them with numpy itself: a numpy release that
# changes either stream fails here, loudly, before any engine suite.

DRAW_NS = (2, 3, 7, 64, 2**31 - 1, 3_000_000_001)


def _compiled_draw_available() -> bool:
    return uniform_draw(np.random.default_rng(0), 2, 1) is not None


needs_compiled_draw = pytest.mark.skipif(
    not _compiled_draw_available(),
    reason="the cc library (with 128-bit integers) is not available",
)


def _generator(seed: int, carry):
    """A seeded PCG64 generator; with ``carry`` set, it enters holding
    the high half of a 64-bit word (``has_uint32 = 1``)."""
    rng = np.random.default_rng(seed)
    if carry is not None:
        state = rng.bit_generator.state
        state["has_uint32"] = 1
        state["uinteger"] = carry
        rng.bit_generator.state = state
    return rng


@needs_compiled_draw
@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(
        st.sampled_from(DRAW_NS), st.integers(min_value=2, max_value=2**32 - 1)
    ),
    size=st.one_of(
        st.integers(
            min_value=_COMPILED_DRAW_MIN_SIZE - 64,
            max_value=_COMPILED_DRAW_MIN_SIZE + 64,
        ),
        st.integers(min_value=1, max_value=20_000),
    ),
    carry=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_uniform_select_batch_is_numpys_stream(n, size, carry, seed):
    numpy_rng = _generator(seed, carry)
    batch_rng = _generator(seed, carry)
    expected = numpy_rng.integers(n, size=size)
    batch = UniformStochasticScheduler().select_batch(0, range(n), batch_rng, size)
    assert np.array_equal(batch, expected)
    assert batch.dtype == expected.dtype
    assert batch_rng.bit_generator.state == numpy_rng.bit_generator.state
    assert batch_rng.random() == numpy_rng.random()


@needs_compiled_draw
@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(DRAW_NS),
    size=st.integers(min_value=1, max_value=64),
    carry=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_compiled_draw_matches_numpy_below_the_crossover(n, size, carry, seed):
    # The scheduler leaves short draws to numpy; the compiled draw itself
    # must still match it at every size, odd ones and a carried half
    # included.
    numpy_rng = _generator(seed, carry)
    compiled_rng = _generator(seed, carry)
    expected = numpy_rng.integers(n, size=size)
    assert np.array_equal(uniform_draw(compiled_rng, n, size), expected)
    assert compiled_rng.bit_generator.state == numpy_rng.bit_generator.state
    assert compiled_rng.random() == numpy_rng.random()


@needs_compiled_draw
@pytest.mark.parametrize("n", [n for n in DRAW_NS if n % 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_compiled_draw_rejects_exactly_where_numpy_does(n, offset):
    # Lemire's method rejects a 32-bit value u iff (u * n) mod 2**32 is
    # below 2**32 mod n.  A random stream lands on that boundary about
    # once in 2**32 draws, so the carried half is set to the u that
    # lands on it (n odd, so n is invertible mod 2**32), and one below
    # and above it.
    threshold = (1 << 32) % n
    carry = ((threshold + offset) * pow(n, -1, 1 << 32)) % (1 << 32)
    numpy_rng = _generator(11, carry)
    compiled_rng = _generator(11, carry)
    expected = numpy_rng.integers(n, size=5)
    assert np.array_equal(uniform_draw(compiled_rng, n, 5), expected)
    assert compiled_rng.bit_generator.state == numpy_rng.bit_generator.state


_SEED_WORD = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**256),
)


@needs_compiled_draw
@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(
        _SEED_WORD,
        st.lists(_SEED_WORD, min_size=0, max_size=9).map(tuple),
    )
)
def test_one_pass_seeding_is_default_rngs_state(seed):
    # Zero, single-word and multi-word entropy, alone or in tuples longer
    # than SeedSequence's four-word pool.
    (state,) = pcg64_seed_states([seed])
    expected = np.random.PCG64(seed).state
    assert state == (expected["state"]["state"], expected["state"]["inc"])


def test_one_pass_seeding_leaves_other_seeds_to_numpy():
    generator = np.random.default_rng(1)
    seeds = [None, -1, (1, -2), 1.5, True, (np.int64(3),), "7", generator]
    assert pcg64_seed_states(seeds) in (None, [None] * len(seeds))


def _assert_numpys_own_draw(rng_factory, n, size):
    numpy_rng = rng_factory()
    batch_rng = rng_factory()
    expected = numpy_rng.integers(n, size=size)
    batch = UniformStochasticScheduler().select_batch(0, range(n), batch_rng, size)
    assert np.array_equal(batch, expected)
    np.testing.assert_equal(
        batch_rng.bit_generator.state, numpy_rng.bit_generator.state
    )
    assert uniform_draw(rng_factory(), n, size) is None


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64DXSM, np.random.MT19937, np.random.Philox]
)
def test_uniform_draw_falls_back_for_other_bit_generators(bit_generator):
    _assert_numpys_own_draw(
        lambda: np.random.Generator(bit_generator(5)),
        7,
        2 * _COMPILED_DRAW_MIN_SIZE,
    )


@pytest.mark.parametrize("n", [1, 2**32, 2**32 + 5])
def test_uniform_draw_falls_back_outside_its_range(n):
    _assert_numpys_own_draw(
        lambda: np.random.default_rng(9), n, 2 * _COMPILED_DRAW_MIN_SIZE
    )


def test_uniform_draw_falls_back_without_the_cc_library(monkeypatch):
    def unavailable():
        raise kernels.KernelUnavailable("forced off")

    monkeypatch.setattr(kernels, "_KERNELS", {})
    monkeypatch.setattr(kernels, "_FAILURES", {})
    monkeypatch.setattr(kernels, "_build_cc_library", unavailable)
    _assert_numpys_own_draw(
        lambda: np.random.default_rng(4), 7, 2 * _COMPILED_DRAW_MIN_SIZE
    )
    assert pcg64_seed_states([(4, 7, 0)]) is None
