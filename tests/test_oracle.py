import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from secindex.index import INFINITE, EnumerationCapError
from secindex.io import parse_system
from secindex.linking import max_linking_size
from secindex import index, oracle
from secindex.model import Sensor, StructuredSystem, build_attack_graph, random_structured_system
from secindex.oracle import (
    DEFAULT_TOLERANCE,
    Agreement,
    EIGENVALUE_MARGIN,
    MAGNITUDES,
    RankProbe,
    Realization,
    SingularFrequencyError,
    _ranks,
    _Stack,
    annulus_frequencies,
    default_probe,
    generic_normal_rank,
    numeric_index_vector,
    numeric_index_vectors,
    sample_realization,
    transfer_matrix,
    transfer_rank,
)

from . import reference
from .reference import pencil_rank
from .strategies import (
    everyone_reads_everything,
    parallel_pairs,
    structured_systems,
    systems_with_loops_and_coloops,
)


@pytest.fixture(scope="module")
def probe():
    return default_probe(seed=3)


def test_chain_realization_support(chain_system):
    r = sample_realization(chain_system, seed=7)
    assert sorted(zip(*np.nonzero(r.W))) == [(2, 1), (3, 2)]
    assert sorted(zip(*np.nonzero(r.B_a))) == [(0, 0), (1, 1)]
    assert sorted(zip(*np.nonzero(r.C))) == [(0, 0), (1, 1), (2, 2), (2, 3)]
    assert sorted(zip(*np.nonzero(r.D_a))) == [(0, 2)]
    assert r.D_a[0, 2] == 1.0


def test_sampling_is_deterministic(chain_system):
    a = sample_realization(chain_system, seed=21)
    b = sample_realization(chain_system, seed=21)
    for x, y in ((a.W, b.W), (a.B_a, b.B_a), (a.C, b.C), (a.D_a, b.D_a)):
        assert np.array_equal(x, y)
    c = sample_realization(chain_system, seed=22)
    assert not np.array_equal(a.W, c.W)


def test_sampling_magnitudes_and_signs(chain_system):
    r = sample_realization(chain_system, seed=5)
    values = np.concatenate([r.W[r.W != 0], r.B_a[r.B_a != 0], r.C[r.C != 0]])
    low, high = MAGNITUDES
    assert np.all((np.abs(values) >= low) & (np.abs(values) <= high))
    # With enough draws both signs must show up.
    wide = StructuredSystem(
        states=[f"x{k}" for k in range(1, 7)],
        sensors=[("y1", True)],
        w_edges=[(f"x{a}", f"x{b}") for a in range(1, 7) for b in range(1, 7)],
    )
    values = sample_realization(wide, seed=5).W.ravel()
    assert (values > 0).any() and (values < 0).any()


@given(
    st.one_of(structured_systems(), systems_with_loops_and_coloops()),
    st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=4),
)
def test_batched_draw_is_bitwise_the_scalar_draw(system, seeds):
    stack = _Stack.drawn(system, seeds)
    for k, seed in enumerate(seeds):
        expected = reference.sample_realization(system, seed)
        alone = sample_realization(system, seed)
        for name, stacked in (("W", stack.W[k]), ("B_a", stack.B_a[k]), ("C", stack.C[k]), ("D_a", stack.D_a)):
            want = getattr(expected, name)
            for got in (getattr(alone, name), stacked):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(stack.support, expected._support)


def test_realization_arrays_read_only(chain_system):
    r = sample_realization(chain_system, seed=1)
    with pytest.raises(ValueError):
        r.W[0, 0] = 1.0


def test_probe_validation():
    with pytest.raises(ValueError):
        RankProbe(frequencies=())
    with pytest.raises(ValueError):
        RankProbe(frequencies=(2.0 + 0.5j,), tolerance=0.0)
    with pytest.raises(ValueError):
        RankProbe(frequencies=(2.0 + 0.5j,), tolerance=1.5)


def test_annulus_frequencies_live_on_annulus():
    freqs = annulus_frequencies(32, seed=1)
    radii = np.abs(np.array(freqs))
    assert np.all((radii >= 1.5) & (radii <= 2.5))
    assert freqs == annulus_frequencies(32, seed=1)


def test_transfer_rank_on_chain(chain_system, probe):
    r = sample_realization(chain_system, seed=7)
    z = probe.frequencies[0]
    assert transfer_rank(r, [0, 2], z) == 1  # u1 and a_y1 collide at y1
    assert transfer_rank(r, [], z) == 0
    # rank [W - zI, B; C, D] = n + rank G(z) off the spectrum of W.
    assert pencil_rank(r, [0, 1, 2], z) - chain_system.n_states == transfer_rank(r, [0, 1, 2], z) == 2


def test_transfer_rank_on_collider(collider_system, probe):
    r = sample_realization(collider_system, seed=11)
    assert transfer_rank(r, [0, 1, 2], probe.frequencies[0]) == 2


def test_transfer_rank_monotone_in_columns(probe):
    for seed in range(6):
        system = random_structured_system(seed + 900)
        r = sample_realization(system, seed=seed)
        z = probe.frequencies[seed % len(probe.frequencies)]
        width = r.attack_width
        previous = 0
        for k in range(width + 1):
            rank = transfer_rank(r, range(k), z)
            assert rank >= previous
            previous = rank


def test_transfer_rank_at_an_eigenvalue_raises():
    one = np.ones((1, 1))
    r = Realization(W=0.5 * one, B_a=one, C=one, D_a=0.0 * one, seed=0)
    assert transfer_rank(r, [0], 1.5) == 1
    with pytest.raises(SingularFrequencyError):
        transfer_rank(r, [0], 0.5)


def test_stacked_transfer_matrix_matches_one_solve_per_frequency(
    chain_system, collider_system
):
    systems = [chain_system, collider_system]
    systems += [random_structured_system(1700 + k) for k in range(12)]
    frequencies = annulus_frequencies(5, seed=4)
    for k, system in enumerate(systems):
        r = sample_realization(system, seed=k)
        stack = transfer_matrix(r, frequencies)
        assert stack.shape == (5, system.n_sensors, r.attack_width)
        assert np.array_equal(stack, reference.transfer_matrices(r, frequencies))


def test_rank_tolerance_treats_small_values_as_zero(chain_system):
    r = sample_realization(chain_system, seed=7)
    z = 2.0 + 0.4j
    # An absurdly coarse tolerance collapses everything to rank <= 1.
    assert transfer_rank(r, [0, 1, 2], z, tolerance=0.999999) <= 1


def test_pencil_identity_on_fixtures_and_random_structures(
    chain_system, collider_system, probe
):
    systems = [chain_system, collider_system]
    systems += [random_structured_system(1300 + k) for k in range(8)]
    for k, system in enumerate(systems):
        r = sample_realization(system, seed=50 + k)
        n = r.W.shape[0]
        width = r.attack_width
        for z in probe.frequencies:
            for cols in ([], list(range(width)), list(range(width // 2))):
                assert pencil_rank(r, cols, z) - n == transfer_rank(r, cols, z)


def test_generic_normal_rank_on_fixtures(chain_system, collider_system, probe):
    assert generic_normal_rank(chain_system, [[0, 1, 2], [0, 2], []], probe) == (2, 1, 0)
    assert generic_normal_rank(collider_system, [[0, 1, 2]], probe) == (2,)
    assert generic_normal_rank(chain_system, [], probe) == ()
    with pytest.raises(IndexError):
        generic_normal_rank(chain_system, [[0], [3]], probe)


@given(structured_systems(max_states=4, max_actuators=2, max_sensors=2), st.data())
def test_batched_rank_matches_per_set_reference(system, data):
    probe = default_probe(
        freqs=data.draw(st.integers(min_value=1, max_value=3)),
        seed=data.draw(st.integers(min_value=0, max_value=10**6)),
    )
    for trial in range(oracle.RANK_TRIALS):
        eigenvalues = np.linalg.eigvals(sample_realization(system, probe.seed + trial).W)
        for z in probe.frequencies:
            # The reference does not resample colliding frequencies.
            assume(np.min(np.abs(eigenvalues - z)) >= EIGENVALUE_MARGIN)
    width = system.attack_width
    columns = (
        st.lists(st.integers(min_value=0, max_value=width - 1), max_size=width + 2)
        if width
        else st.just([])
    )
    sets = data.draw(st.lists(columns, min_size=1, max_size=6))
    sets += [[], sets[0][::-1]]  # the empty set, and a repeat in another order
    expected = tuple(reference.generic_normal_rank(system, cols, probe) for cols in sets)
    assert generic_normal_rank(system, sets, probe) == expected


def test_single_actuator_reaching_sensors_has_rank_one(probe):
    system = StructuredSystem(
        states=["x1"],
        actuators=["u1"],
        sensors=[("y1", True)],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    graph = build_attack_graph(system)
    assert max_linking_size(graph, graph.attack_set, graph.targets) == 1
    assert generic_normal_rank(system, [[0]], probe) == (1,)


def test_rank_matches_linking_for_sampled_pairs(chain_system, collider_system, probe):
    # Realization-level check: the transfer rank at a random frequency
    # matches the linking size for at least 99% of sampled pairs.
    total = 0
    hits = 0
    for system in (chain_system, collider_system):
        graph = build_attack_graph(system)
        subsets = [[0], [0, 1], [0, 2], [0, 1, 2], [1, 2]]
        for trial in range(10):
            r = sample_realization(system, seed=3000 + trial)
            for z in probe.frequencies:
                for cols in subsets:
                    expected = max_linking_size(
                        graph, [graph.attack_set[c] for c in cols], graph.targets
                    )
                    total += 1
                    hits += transfer_rank(r, cols, z) == expected
    assert hits / total >= 0.99


def test_numeric_indices_on_chain(chain_system, probe):
    r = sample_realization(chain_system, seed=7)
    assert numeric_index_vector(r, probe) == (2, INFINITE, 2)


def test_numeric_indices_on_collider(collider_system, probe):
    r = sample_realization(collider_system, seed=11)
    assert numeric_index_vector(r, probe) == (INFINITE, 2, 2)


def test_numeric_index_of_scalar_chain_is_infinite(probe):
    system = StructuredSystem(
        states=["x1"],
        actuators=["u1"],
        sensors=[("y1", True)],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    r = sample_realization(system, seed=2)
    assert numeric_index_vector(r, probe)[0] == INFINITE


def test_numeric_index_cap(chain_system, probe):
    r = sample_realization(chain_system, seed=7)
    with pytest.raises(EnumerationCapError):
        numeric_index_vector(r, probe, cap=2)


def test_eigenvalue_collision_is_resampled():
    system = StructuredSystem(
        states=["x1"],
        actuators=["u1"],
        sensors=[("y1", False)],
        w_edges=[("x1", "x1")],
        b_edges=[("u1", "x1")],
        c_edges=[("x1", "y1")],
    )
    r = sample_realization(system, seed=5)
    eigenvalue = complex(r.W[0, 0])
    probe = RankProbe(frequencies=(eigenvalue,), seed=9)
    # The collision is detected and replaced by an off-spectrum frequency:
    # one sensor bounds the rank at 1, and either attack column makes the
    # other redundant.
    assert generic_normal_rank(system, [[0, 1]], probe) == (1,)
    assert numeric_index_vector(r, probe) == (2, 2)


def test_rank_kernel_on_a_stack_equals_it_on_each_slice():
    rng = np.random.default_rng(17)
    frequencies, sets, rows = 3, 5, 4
    for size in (0, 1, 3, 6):
        shape = (frequencies, sets, rows, size)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack[0, 1] = 0.0
        if size:
            stack[1, 2] = np.outer(stack[1, 2, :, 0], rng.normal(size=size))
        if size >= 3:
            stack[2, 3, :, 2] = stack[2, 3, :, 0] - 2.0 * stack[2, 3, :, 1]
        stack[2, 4] *= 1e-12  # the tolerance is relative to the largest singular value
        ranks = _ranks(stack, DEFAULT_TOLERANCE)
        assert ranks.shape == (frequencies, sets)
        for f, k in np.ndindex(frequencies, sets):
            alone = int(_ranks(stack[f, k], DEFAULT_TOLERANCE))
            assert ranks[f, k] == alone == reference.rank(stack[f, k], DEFAULT_TOLERANCE)
        assert ranks[0, 1] == 0
        assert ranks[1, 2] == min(size, 1)
        assert ranks[0, 0] == ranks[2, 4] == min(size, rows)
        if size >= 3:
            assert ranks[2, 3] == min(size - 1, rows)


@given(structured_systems(max_states=4, max_actuators=3, max_sensors=2), st.data())
def test_numeric_index_vector_matches_per_subset_reference(system, data):
    realization = sample_realization(system, seed=data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans(), label="drop every sensor"):
        realization = Realization(
            W=realization.W,
            B_a=realization.B_a,
            C=realization.C[:0],
            D_a=realization.D_a[:0],
            seed=realization.seed,
        )
    probe = default_probe(
        freqs=data.draw(st.integers(min_value=1, max_value=3)),
        seed=data.draw(st.integers(min_value=0, max_value=10**6)),
    )
    eigenvalues = np.linalg.eigvals(realization.W)
    for z in probe.frequencies:
        # The reference does not resample colliding frequencies.
        assume(np.min(np.abs(eigenvalues - z)) >= EIGENVALUE_MARGIN)
    assert numeric_index_vector(realization, probe) == reference.numeric_index_vector(
        realization, probe
    )


def test_rank_memory_stays_bounded_on_a_shallow_width_16_sweep():
    # u1..u15 each reach two of seven sensors, so their indices are 3 (u1,
    # u8 and u15 reach the same two) or 4, and the sweep over their core
    # stops at level 4; u16 alone reaches y8, a coloop settled as infinite
    # without a sweep.  Every column of the full width is resolved.
    width = 16
    states = [f"x{k}" for k in range(1, width + 1)]
    system = StructuredSystem(
        states=states,
        actuators=[f"u{k}" for k in range(1, width + 1)],
        sensors=[Sensor(f"y{k}", True) for k in range(1, 9)],
        b_edges=[(f"u{k}", f"x{k}") for k in range(1, width + 1)],
        c_edges=[(f"x{k}", f"y{k % 7 + 1}") for k in range(1, width)]
        + [(f"x{k}", f"y{(k + 3) % 7 + 1}") for k in range(1, width)]
        + [(f"x{width}", "y8")],
    )
    realization = sample_realization(system, seed=16)
    probe = default_probe(seed=16)
    tracemalloc.start()
    try:
        indices = numeric_index_vector(realization, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert indices == (3, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 4, 3, INFINITE)
    assert peak < 20 * 2**20


@given(systems_with_loops_and_coloops(), st.data())
def test_loops_and_coloops_settle_indices_and_stay_out_of_witnesses(system, data):
    # The facts the fast index path rests on, checked on the slow reference.
    realization = sample_realization(system, seed=data.draw(st.integers(0, 10**6)))
    probe = default_probe(
        freqs=data.draw(st.integers(min_value=1, max_value=3)),
        seed=data.draw(st.integers(min_value=0, max_value=10**6)),
    )
    eigenvalues = np.linalg.eigvals(realization.W)
    for z in probe.frequencies:
        # The reference does not resample colliding frequencies.
        assume(np.min(np.abs(eigenvalues - z)) >= EIGENVALUE_MARGIN)
    width = realization.attack_width
    every = range(width)

    def ranks(cols):
        return [transfer_rank(realization, cols, z) for z in probe.frequencies]

    full = ranks(every)
    loop = [[r == 0 for r in ranks([c])] for c in every]
    coloop = [
        [r < f for r, f in zip(ranks([k for k in every if k != c]), full)] for c in every
    ]
    settled = [all(a or b for a, b in zip(loop[c], coloop[c])) for c in every]
    for c in every:
        index, witness, _ = reference.numeric_witness(realization, probe, c)
        assert (index == INFINITE) == any(coloop[c])
        assert (index == 1) == all(loop[c])
        if index not in (1, INFINITE):
            assert not any(settled[k] for k in witness)


def test_rank_memory_stays_bounded_on_a_deep_width_16_sweep():
    # Seven sensors read all sixteen states, so any seven columns are
    # independent and any eight dependent: every index is 8, and the sweep
    # ranks every level of the full-width core up to size 8.
    width = 16
    states = [f"x{k}" for k in range(1, width + 1)]
    system = StructuredSystem(
        states=states,
        actuators=[f"u{k}" for k in range(1, width + 1)],
        sensors=[Sensor(f"y{k}", True) for k in range(1, 8)],
        b_edges=[(f"u{k}", f"x{k}") for k in range(1, width + 1)],
        c_edges=[(x, f"y{k}") for x in states for k in range(1, 8)],
    )
    realization = sample_realization(system, seed=16)
    probe = default_probe(seed=16)
    tracemalloc.start()
    try:
        indices = numeric_index_vector(realization, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert indices == (8,) * width
    assert peak < 20 * 2**20


def test_numeric_index_vector_matches_reference_on_wider_systems():
    # Widths up to 9 with mixed finite indices, so the core sweep runs
    # several levels below the core's own size.
    probe = default_probe(seed=5)
    for seed in range(40):
        system = random_structured_system(seed, max_states=8, max_actuators=5, max_sensors=4)
        realization = sample_realization(system, seed=seed)
        assert numeric_index_vector(realization, probe) == reference.numeric_index_vector(
            realization, probe
        )


def test_loop_or_coloop_at_one_frequency_only():
    # y1 = x1 + x2 with x1' = u1 and x2' = -1.5 x1 + 0.5 x2 + u2: u1's
    # transfer (z - 2) / (z (z - 0.5)) vanishes at z = 2, where u1 is a loop
    # and u2 a coloop; elsewhere the two columns are parallel.  u3 drives a
    # copy of x1 read only by y2, so it is a loop at z = 2 and a coloop
    # elsewhere.
    block = np.array([[0.0, 0.0], [-1.5, 0.5]])
    realization = Realization(
        W=np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]),
        B_a=np.eye(4)[:, :3],
        C=np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
        D_a=np.zeros((2, 3)),
        seed=0,
    )
    probe = RankProbe(frequencies=(2.0, 1.7 + 0.9j))
    assert [transfer_rank(realization, [c], 2.0) for c in range(3)] == [0, 1, 0]
    assert [transfer_rank(realization, [c], 1.7 + 0.9j) for c in range(3)] == [1, 1, 1]
    assert numeric_index_vector(realization, probe) == (2, INFINITE, INFINITE)
    assert reference.numeric_index_vector(realization, probe) == (2, INFINITE, INFINITE)


def reference_index_vector(system, seed, probe):
    """``reference.numeric_index_vector`` of one seed's realization at its resampled frequencies."""
    realization = reference.sample_realization(system, seed)
    frequencies = reference.probe_frequencies(realization, probe, stream=seed)
    return reference.numeric_index_vector(realization, RankProbe(frequencies, probe.tolerance))


@given(
    st.one_of(
        structured_systems(max_states=4, max_actuators=3, max_sensors=2),
        systems_with_loops_and_coloops(max_extra=1),
    ),
    st.data(),
)
def test_numeric_index_vectors_match_per_realization_reference(system, data):
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3, unique=True))
    probe = default_probe(
        freqs=data.draw(st.integers(min_value=1, max_value=3)),
        seed=data.draw(st.integers(min_value=0, max_value=10**6)),
    )
    if data.draw(st.booleans(), label="first frequency on one realization's spectrum"):
        victim = data.draw(st.sampled_from(seeds))
        eigenvalue = np.linalg.eigvals(sample_realization(system, victim).W)[0]
        probe = RankProbe((eigenvalue,) + probe.frequencies[1:], seed=probe.seed)
    expected = tuple(reference_index_vector(system, seed, probe) for seed in seeds)
    assert numeric_index_vectors(system, seeds, probe) == expected
    assert numeric_index_vectors(system, seeds[:1], probe) == expected[:1]


def test_batched_resampling_follows_each_realizations_own_stream():
    # W is lower triangular, so its x1 self-loop W[0, 0] is an eigenvalue.
    # The first probe frequency is seed 6's: only that realization
    # resamples, from stream 6, whatever else shares the batch.
    system = StructuredSystem(
        states=["x1", "x2"],
        actuators=["u1", "u2"],
        sensors=[("y1", False), ("y2", True)],
        w_edges=[("x1", "x1"), ("x1", "x2")],
        b_edges=[("u1", "x1"), ("u2", "x2")],
        c_edges=[("x1", "y1"), ("x2", "y2")],
    )
    seeds = [5, 6, 7]
    eigenvalue = complex(sample_realization(system, 6).W[0, 0])
    probe = RankProbe(frequencies=(eigenvalue, 2.0 + 0.5j), seed=9)
    moved = [
        reference.probe_frequencies(sample_realization(system, seed), probe, seed) != probe.frequencies
        for seed in seeds
    ]
    assert moved == [False, True, False]
    expected = tuple(reference_index_vector(system, seed, probe) for seed in seeds)
    assert numeric_index_vectors(system, seeds, probe) == expected
    assert expected == tuple(numeric_index_vector(sample_realization(system, s), probe) for s in seeds)
    assert numeric_index_vectors(system, [], probe) == ()


def test_seed_blocks_leave_every_vector_unchanged(monkeypatch, probe):
    system = random_structured_system(4, max_states=6)
    seeds = list(range(100, 110))
    expected = tuple(numeric_index_vector(sample_realization(system, s), probe) for s in seeds)
    blocks = []
    index_vectors = oracle._index_vectors

    def recorded(stack, probe, streams, cap):
        blocks.append(len(streams))
        return index_vectors(stack, probe, streams, cap)

    monkeypatch.setattr(oracle, "SEED_BLOCK", 3)
    monkeypatch.setattr(oracle, "_index_vectors", recorded)
    assert numeric_index_vectors(system, seeds, probe) == expected
    assert blocks == [3, 3, 3, 1]


def test_agreement_gate():
    # Ranks must agree on every subset; indices on 98% of the pairs, and
    # only when there are pairs.
    assert not Agreement(255, 256, 150, 150, 50).passed
    assert Agreement(256, 256, 147, 150, 47).passed
    assert not Agreement(256, 256, 146, 150, 46).passed
    assert Agreement(8, 8, 0, 0, 5).passed


@given(st.one_of(structured_systems(), systems_with_loops_and_coloops()), st.data())
def test_level_r_indices_match_the_sweep(system, data):
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
    probe = default_probe(
        freqs=data.draw(st.integers(min_value=1, max_value=3)),
        seed=data.draw(st.integers(min_value=0, max_value=10**6)),
    )
    assert numeric_index_vectors(system, seeds, probe) == reference.swept_index_vectors(system, seeds, probe)


def test_level_r_indices_match_the_sweep_on_wider_systems():
    probe = default_probe(seed=21)
    for seed in range(30):
        system = random_structured_system(seed + 4000, max_states=10, max_actuators=6, max_sensors=5)
        seeds = [seed, seed + 1, seed + 2]
        assert numeric_index_vectors(system, seeds, probe) == reference.swept_index_vectors(
            system, seeds, probe
        ), seed


def sweeps_recorded(monkeypatch):
    """The realizations of each fallback sweep the oracle runs, as group counts.

    A sweep is an ``index._level_keys`` call with no budget; the guard of
    ``index.circuit_keys`` always passes one.
    """
    calls = []
    level_keys = index._level_keys

    def recorded(rank, singles, pending, budget=math.inf):
        if budget == math.inf:
            calls.append(singles.shape[1])
        return level_keys(rank, singles, pending, budget)

    monkeypatch.setattr(index, "_level_keys", recorded)
    return calls


def test_frequency_disagreement_on_the_settle_step_takes_the_sweep(monkeypatch):
    # The realization of ``test_loop_or_coloop_at_one_frequency_only``: u1
    # is a loop at z = 2 and not at the other frequency, so the two
    # frequencies classify it differently and only the sweep answers.
    block = np.array([[0.0, 0.0], [-1.5, 0.5]])
    realization = Realization(
        W=np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]),
        B_a=np.eye(4)[:, :3],
        C=np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
        D_a=np.zeros((2, 3)),
        seed=0,
    )
    calls = sweeps_recorded(monkeypatch)
    assert numeric_index_vector(realization, RankProbe(frequencies=(2.0, 1.7 + 0.9j))) == (2, INFINITE, INFINITE)
    assert calls == [1]
    calls.clear()
    assert numeric_index_vector(realization, RankProbe(frequencies=(1.7 + 0.9j,))) == (2, 2, INFINITE)
    assert calls == []


def test_unresolved_core_columns_take_the_sweep(monkeypatch, probe):
    # A core column that level r leaves unresolved (0) sends its
    # realization, and only it, to the sweep, which answers it in full.
    system = random_structured_system(4, max_states=6)
    seeds = list(range(100, 106))
    expected = reference.swept_index_vectors(system, seeds, probe)
    circuits = index.circuit_keys

    def first_unresolved(rank, singles, r, wanted):
        keys = circuits(rank, singles, r, wanted)
        keys[0, 0] = 0
        return keys

    calls = sweeps_recorded(monkeypatch)
    monkeypatch.setattr(index, "circuit_keys", first_unresolved)
    assert numeric_index_vectors(system, seeds, probe) == expected
    assert calls and all(count == 1 for count in calls)


@pytest.mark.parametrize(
    "system, size",
    [(parallel_pairs(6), 2), (everyone_reads_everything(12, 5), 6), (everyone_reads_everything(8, 6), 7)],
)
def test_level_r_ranks_at_most_twice_the_cheaper_route(monkeypatch, probe, system, size):
    # The sweep ranks levels 2 .. size and level r ranks C(c, r) sets;
    # the guard keeps the sets ranked within twice the smaller of the two.
    ranked = []
    circuits = index.circuit_keys

    def counted(rank, singles, r, wanted):
        def counting(sets):
            ranked.append(len(sets))
            return rank(sets)

        return circuits(counting, singles, r, wanted)

    monkeypatch.setattr(index, "circuit_keys", counted)
    calls = sweeps_recorded(monkeypatch)
    width = system.attack_width
    assert numeric_index_vectors(system, [1, 2], probe) == ((size,) * width,) * 2
    assert calls == []
    r = system.n_sensors
    sweep = sum(math.comb(width, level) for level in range(2, size + 1))
    assert 0 < sum(ranked) <= 2 * min(sweep, math.comb(width, r))


def test_swept_realizations_rank_only_sets_inside_their_own_core(monkeypatch):
    # ``secindex verify --input fixtures/chain.json --tol 0.5``: so coarse a
    # tolerance that many realizations take the fallback sweep.  After the
    # settle step, every set ranked under a realization, by the sweep or
    # by ``circuit_keys``, lies inside that realization's own core.
    system = parse_system((Path(__file__).resolve().parent.parent / "fixtures" / "chain.json").read_text())
    probe = default_probe(3, tolerance=0.5, seed=0)
    seeds = list(range(1000, 1050))
    asked = []  # (realizations, sets) of each rank call past the settle step
    engine = oracle.witness_sets

    def recorded(width, ranks, member=None):
        def recording(among):
            rank = ranks(among)

            def ranked(sets):
                if not isinstance(among, slice):
                    asked.append((among, sets.tolist()))
                return rank(sets)

            return ranked

        return engine(width, recording, member)

    monkeypatch.setattr(oracle, "witness_sets", recorded)
    calls = sweeps_recorded(monkeypatch)
    vectors = numeric_index_vectors(system, seeds, probe)
    assert vectors == reference.swept_index_vectors(system, seeds, probe)
    assert sum(calls) > 0 and asked
    width = system.attack_width
    cores = [set(reference.own_core(width, table)) for table in reference.rank_tables(system, seeds, probe)]
    for among, sets in asked:
        for g in among:
            assert all(set(s) <= cores[g] for s in sets), (seeds[g], cores[g], sets)


def test_level_r_memory_stays_within_the_sweeps():
    # Twelve columns of rank 5, every index 6, under 64 realizations: the
    # sweep's levels 2 .. 6 peaked at 15.0 MiB (tracemalloc); the guard
    # stops the sweep at level 4, and level 5 is compared in chunks.
    system = everyone_reads_everything(12, 5)
    probe = default_probe(seed=16)
    tracemalloc.start()
    try:
        vectors = numeric_index_vectors(system, range(64), probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vectors == ((6,) * 12,) * 64
    assert peak < 15 * 2**20


def matrices_ranked(monkeypatch):
    """The number of matrices each ``_ranks`` call receives."""
    counts = []
    ranks = oracle._ranks

    def counted(stack, tolerance):
        counts.append(math.prod(stack.shape[:-2]))
        return ranks(stack, tolerance)

    monkeypatch.setattr(oracle, "_ranks", counted)
    return counts


def test_left_invertible_system_ranks_each_set_once_and_no_deletion(monkeypatch, probe):
    # Each actuator drives its own state, read by its own sensor: every set
    # of columns is independent, so the rank check's first matrix already
    # reaches the shape cap, and the settle step finds r(A) = w.
    width = 4
    states = [f"x{k}" for k in range(1, width + 1)]
    system = StructuredSystem(
        states=states,
        actuators=[f"u{k}" for k in range(1, width + 1)],
        sensors=[Sensor(f"y{k}", True) for k in range(1, width + 1)],
        b_edges=[(f"u{k}", x) for k, x in enumerate(states, 1)],
        c_edges=[(x, f"y{k}") for k, x in enumerate(states, 1)],
    )
    sets = oracle._rank_check_subsets(width, probe.seed)
    counts = matrices_ranked(monkeypatch)
    assert generic_normal_rank(system, sets, probe) == tuple(len(s) for s in sets)
    assert sum(counts) == len(sets) - 1  # the empty set takes no matrix
    counts.clear()
    seeds = [3, 4]
    assert numeric_index_vectors(system, seeds, probe) == ((INFINITE,) * width,) * len(seeds)
    # The singles and the attack set, under each realization and frequency.
    assert sum(counts) == (width + 1) * len(seeds) * len(probe.frequencies)


@pytest.mark.parametrize("width", [9, 10, 12, 64])
def test_rank_check_draws_distinct_subsets(width):
    # Above width 8 the rank check samples 256 of the 2**width subsets;
    # drawn with replacement, only about 200 of them would be distinct at
    # width 9.  Width 64 takes masks past the range of a fixed-width integer.
    for seed in range(4):
        subsets = oracle._rank_check_subsets(width, seed)
        assert len(set(subsets)) == len(subsets) == 256


def test_one_column_ranks_like_its_singular_value():
    rng = np.random.default_rng(5)
    column = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    stack = np.stack([0.0 * column, 1e-300 * column, column])
    for tolerance in (DEFAULT_TOLERANCE, 0.5, 0.999999):
        ranks = _ranks(stack, tolerance)
        expected = [reference.rank(matrix, tolerance) for matrix in stack]
        assert ranks.tolist() == expected == [0, 1, 1]
        singular_values = np.linalg.svd(stack, compute_uv=False)
        assert ranks.tolist() == np.count_nonzero(
            singular_values > tolerance * singular_values[..., :1], axis=-1
        ).tolist()
    assert _ranks(np.zeros((2, 0, 1)), DEFAULT_TOLERANCE).tolist() == [0, 0]
