"""Numerical ground truth for the structural computations.

Samples concrete parameter values for a sparsity pattern, evaluates the
attack-to-sensor transfer matrix at complex frequencies, and reads ranks
off the singular values.  The maximum rank over several realizations and
frequencies estimates the generic normal rank, and a column-redundancy
rank test yields a realization-level security index.  Both are used to
cross-validate the graph-theoretic path: linking sizes must match generic
normal ranks, and structural indices must match realization indices for
almost every draw.

Realizations of one pattern are handled as a stack: drawn with one
generator call per seed, checked against their spectra with one
eigenvalue call, and solved at every probe frequency with one batched
solve.  Ranks come from one kernel that ranks a stack of matrices with a
single SVD call, in chunks of at most ``RANK_CHUNK`` matrices, and tells
a one-column matrix's rank by whether the column is nonzero.  The generic
normal ranks of a batch of column sets take one call per set size and
chunk under the first realization and frequency, and one more for the
sets still below their shape cap, min(sensors, columns), under the rest.

Index vectors come from ``index.witness_sets``, the engine the
structural route runs too, with one group of F rank functions per
realization: the column ranks at its probe frequencies.  The settle step
ranks the single columns, the whole attack set and each set missing one
column (none when the attack set is independent) under every
realization; a realization whose frequencies agree on all of them has its
loops (index 1), coloops (infinite) and core, of rank r = r(A) less its
number of coloops.  Every index in a core of rank r is at most r + 1,
and is the size of the smallest circuit through the column, a
fundamental circuit of a basis in level r (the r-subsets of the core).
``index.circuit_keys`` reads it off level r (``key >> c`` for a core of c
columns), ranked once under all the realizations that share a core and
r; a guard sweeps the cheap low levels bottom-up first, while they hold
fewer sets than level r, so the parallel pairs whose indices are 2 never
rank level r.  A realization whose frequencies disagree on the settle
step or on level r, or with a core column on no fundamental circuit, is
swept bottom-up instead, from the settle ranks already taken: the
guard's keyed level loop, run with no budget over its own core, together
with the other such realizations of that core, until every column is
resolved.  At the default tolerance every answer equals the sweep's; a
tolerance so coarse that the ranks are not a matroid's, such as 0.5, can
change a few of them.
``numeric_index_vector`` is the one-realization case and
``numeric_index_vectors`` the batched one, which takes its seeds in
blocks of ``SEED_BLOCK``.

``agreement`` is the numerical check of the graph computations that
``secindex verify`` and ``scripts/genericity_sweep.py`` run: generic
normal ranks against linking sizes on attack subsets, and realization
index vectors against the structural ones, passed when the shares that
agree reach ``RANK_AGREEMENT`` and ``INDEX_AGREEMENT``.  Its generic
normal ranks take ``RANK_TRIALS`` realizations, and its subsets are
distinct reflected Gray-code words, drawn and asked in ascending order,
which is the order the warm-started linking flows are asked in.

Attack columns are ordered like the graph's attack set: actuators in
declaration order, then unprotected sensors in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from secindex.index import DEFAULT_SUBSET_CAP, INFINITE, EnumerationCapError, all_indices, witness_sets
from secindex.linking import max_linking_size
from secindex.model import AttackGraph, StructuredSystem

# Frequencies closer than this to an eigenvalue of W are treated as
# collisions and resampled.
EIGENVALUE_MARGIN = 1e-6

DEFAULT_TOLERANCE = 1e-9

# Sampling annulus for probe frequencies, away from typical spectra of the
# sampled dynamics.
ANNULUS = (1.5, 2.5)

# Matrices ranked per SVD call (at least one set's worth); bounds the
# memory of the stacked copy.
RANK_CHUNK = 1024

# Range of the magnitude of every sampled free parameter.
MAGNITUDES = (0.5, 1.5)

# Realizations drawn, solved and swept together by ``numeric_index_vectors``;
# bounds the memory of the solve stack and of each level's ranks.
SEED_BLOCK = 64

# Pass gate of ``agreement``: generic normal rank equals linking size
# exactly, while index agreement holds only for almost every draw.
RANK_AGREEMENT = 1.0
INDEX_AGREEMENT = 0.98

# Realizations behind each generic normal rank, drawn from seeds
# ``probe.seed + t`` for ``t < RANK_TRIALS``.
RANK_TRIALS = 3

# Attack subsets of the rank check: all of them up to this many, else this
# many drawn at random.
_RANK_CHECK_SUBSET_BUDGET = 256


class SingularFrequencyError(ArithmeticError):
    """The probe frequency coincides with an eigenvalue of the dynamics."""


@dataclass(frozen=True, eq=False)
class Realization:
    """One numerical instance of a structured system under attack.

    Entries are nonzero exactly on the free-parameter pattern; dedicated
    sensor-attack entries are pinned to 1.  Arrays are read-only.
    """

    W: np.ndarray
    B_a: np.ndarray
    C: np.ndarray
    D_a: np.ndarray
    seed: int

    def __post_init__(self):
        for arr in (self.W, self.B_a, self.C, self.D_a):
            arr.flags.writeable = False

    @property
    def attack_width(self) -> int:
        return self.B_a.shape[1]

    @cached_property
    def _support(self) -> np.ndarray:
        return _support_mask(self.W, self.B_a, self.C, self.D_a)


def _support_mask(W: np.ndarray, B_a: np.ndarray, C: np.ndarray, D_a: np.ndarray) -> np.ndarray:
    """Boolean mask of transfer entries that can be nonzero at all, (m, p).

    Entry (sensor, column) is structurally nonzero iff the component has
    a directed propagation path to the sensor (or a dedicated
    feedthrough).  Everything else is an exact zero of every realization
    with the same nonzero pattern.
    """
    arrives = (W != 0.0).astype(np.int64)  # arrives[j, i]: state i to j
    n = arrives.shape[0]
    closure = np.eye(n, dtype=bool)
    for _ in range(n):
        extended = closure | (arrives @ closure.astype(np.int64) > 0)
        if (extended == closure).all():
            break
        closure = extended
    reads = (C != 0.0).astype(np.int64)
    drives = (B_a != 0.0).astype(np.int64)
    through_states = (reads @ closure.astype(np.int64) @ drives) > 0
    mask = through_states | (D_a != 0.0)
    mask.flags.writeable = False
    return mask


class _Stack(NamedTuple):
    """R realizations of one pattern, stacked on a leading axis.

    ``W`` is (R, n, n), ``B_a`` (R, n, p) and ``C`` (R, m, n).  ``D_a``
    and the transfer ``support`` are (m, p), shared by every realization,
    since the draws of a pattern all have its nonzeros.
    """

    W: np.ndarray
    B_a: np.ndarray
    C: np.ndarray
    D_a: np.ndarray
    support: np.ndarray

    @classmethod
    def drawn(cls, system: StructuredSystem, seeds: Sequence[int]) -> "_Stack":
        """The realizations ``sample_realization`` draws for ``seeds``, at least one."""
        W, B_a, C, D_a = _parameters(system, seeds)
        return cls(W, B_a, C, D_a, _support_mask(W[0], B_a[0], C[0], D_a))

    @classmethod
    def of(cls, r: Realization) -> "_Stack":
        """One realization as a stack of one."""
        return cls(r.W[None], r.B_a[None], r.C[None], r.D_a, r._support)


@dataclass(frozen=True)
class RankProbe:
    """Evaluation protocol for rank estimates.

    Every rank is taken as the count of singular values above
    ``tolerance`` times the largest one, maximized over ``frequencies``;
    generic normal ranks also maximize over ``RANK_TRIALS`` realizations
    drawn from ``seed``.
    """

    frequencies: tuple[complex, ...]
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(complex(z) for z in self.frequencies))
        if not self.frequencies:
            raise ValueError("a probe needs at least one frequency")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")


def _annulus(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` area-uniform draws from ``ANNULUS``: all radii, then all angles."""
    low, high = ANNULUS
    radii = np.sqrt(rng.uniform(low**2, high**2, size=count))
    return radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=count))


def annulus_frequencies(count: int, seed: int = 0) -> tuple[complex, ...]:
    """Area-uniform complex samples from the standard probing annulus."""
    return tuple(_annulus(np.random.default_rng((seed, 0x5EED)), count))


def default_probe(freqs: int = 3, tolerance: float = DEFAULT_TOLERANCE, seed: int = 0) -> RankProbe:
    return RankProbe(frequencies=annulus_frequencies(freqs, seed), tolerance=tolerance, seed=seed)


def _parameters(
    system: StructuredSystem, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """W, B_a and C stacked over ``seeds``, (R, ...) each, and the shared D_a.

    Free parameters are taken in the order of the sorted W edges, then
    the sorted b edges, then the sorted c edges.  Each seed's generator
    yields two doubles per parameter, in that order: the first sets the
    magnitude (``rng.uniform`` on ``MAGNITUDES`` consumes one double the
    same way), the second the sign, negative when it is at least 0.5.
    """
    n, q, m = system.n_states, system.n_actuators, system.n_sensors
    unprotected = system.unprotected_sensors
    p = q + len(unprotected)
    si, ai, yi = system.state_index, system.actuator_index, system.sensor_index
    # (row, column) of each free parameter of W, B_a and C, in draw order.
    slots = (
        [(si[dst], si[src]) for src, dst in sorted(system.w_edges)],
        [(si[dst], ai[src]) for src, dst in sorted(system.b_edges)],
        [(yi[dst], si[src]) for src, dst in sorted(system.c_edges)],
    )
    count = sum(len(at) for at in slots)
    doubles = np.array(
        [np.random.default_rng(seed).random(2 * count) for seed in seeds]
    ).reshape(len(seeds), 2 * count)
    low, high = MAGNITUDES
    magnitude = low + (high - low) * doubles[:, 0::2]
    values = np.where(doubles[:, 1::2] < 0.5, magnitude, -magnitude)
    W, B_a, C = (np.zeros((len(seeds), *shape)) for shape in ((n, n), (n, p), (m, n)))
    start = 0
    for matrix, at in zip((W, B_a, C), slots):
        rows, cols = np.array(at, dtype=np.intp).reshape(-1, 2).T
        matrix[:, rows, cols] = values[:, start : start + len(at)]
        start += len(at)
    D_a = np.zeros((m, p))
    for col, sensor_ordinal in enumerate(unprotected):
        D_a[sensor_ordinal, q + col] = 1.0
    return W, B_a, C, D_a


def sample_realization(system: StructuredSystem, seed: int) -> Realization:
    """Assign random values to every free parameter of the pattern.

    Magnitudes are uniform on ``MAGNITUDES`` with random sign: bounded away
    from zero so the draw stays on the pattern, and from large values so
    the rank computations stay well conditioned.  Fixed zeros remain
    exactly zero; dedicated attack entries are exactly 1.  Deterministic
    in ``seed``.
    """
    W, B_a, C, D_a = _parameters(system, (seed,))
    return Realization(W=W[0], B_a=B_a[0], C=C[0], D_a=D_a, seed=seed)


def _solve(stack: _Stack, z: np.ndarray) -> np.ndarray:
    """Each realization's transfer matrices at its own frequencies ``z`` (R, F): (R, F, m, p).

    One batched solve for the whole stack.  Entries outside the support
    are pinned to exact zero: they vanish identically for every parameter
    value, and leaving the linear solver's rounding noise in them would
    fake rank.
    """
    R, n, p = stack.B_a.shape
    shifted = z[:, :, None, None] * np.eye(n)
    shifted -= stack.W[:, None]
    try:
        # B_a is broadcast explicitly: numpy < 2 would read a right-hand
        # side with one axis fewer than the matrices as a stack of vectors.
        x = np.linalg.solve(shifted, np.broadcast_to(stack.B_a[:, None], (R, z.shape[1], n, p)))
    except np.linalg.LinAlgError as exc:
        raise SingularFrequencyError(f"a frequency in {z.ravel().tolist()} is an eigenvalue") from exc
    g = stack.C[:, None] @ x + stack.D_a
    g[:, :, ~stack.support] = 0.0
    return g


def transfer_matrix(realization: Realization, frequencies: Sequence[complex]) -> np.ndarray:
    """The attack-to-sensor transfer matrices C (zI - W)^-1 B_a + D_a, (F, m, p).

    One matrix per frequency z, all from one batched solve.  Entries
    without a propagation path are exact zeros.
    """
    return _solve(_Stack.of(realization), np.asarray(frequencies, dtype=complex)[None])[0]


def _ranks(stack: np.ndarray, tolerance: float) -> np.ndarray:
    """Numerical rank of every matrix in ``stack``, over its last two axes.

    One SVD call for the whole stack.  A rank counts the singular values
    above ``tolerance`` times the largest one, so a zero or empty matrix
    has rank 0.  One-column matrices skip the SVD: the only singular value
    of a column is its norm, above any tolerance below 1 times itself
    unless the column is zero.
    """
    if stack.shape[-1] == 1:
        return np.count_nonzero(stack[..., 0], axis=-1).clip(max=1)
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(singular_values > tolerance * singular_values[..., :1], axis=-1)


def _column_ranks(transfer: np.ndarray, columns: np.ndarray, tolerance: float) -> np.ndarray:
    """Rank of each equal-size column set under each realization and frequency, (N, R, F).

    ``transfer`` stacks R realizations' matrices at F frequencies,
    (R, F, m, p), and ``columns`` holds one set per row, (N, s).  Sets are
    ranked in chunks of ``RANK_CHUNK`` // (R * F) (and at least one), so
    each SVD call takes at most ``RANK_CHUNK`` matrices, or the R * F of
    one set; empty sets have rank 0 without one.
    """
    R, F = transfer.shape[:2]
    ranks = np.zeros((len(columns), R, F), dtype=np.intp)
    if columns.shape[1]:
        step = max(1, RANK_CHUNK // (R * F))
        for start in range(0, len(columns), step):
            chunk = columns[start : start + step]
            # (R, F, m, N, s) -> (N, R, F, m, s): one m x s matrix per set,
            # realization and frequency.
            ranks[start : start + step] = _ranks(
                transfer[..., chunk].transpose(3, 0, 1, 2, 4), tolerance
            )
    return ranks


def transfer_rank(
    realization: Realization,
    columns: Iterable[int],
    z: complex,
    tolerance: float = DEFAULT_TOLERANCE,
) -> int:
    """Numerical rank of the transfer matrix restricted to attack columns."""
    cols = _column_tuple(realization.attack_width, columns)
    if not cols:
        return 0
    return int(_ranks(transfer_matrix(realization, (z,))[0][:, cols], tolerance))


def _column_tuple(width: int, columns: Iterable[int]) -> tuple[int, ...]:
    cols = tuple(sorted(set(int(c) for c in columns)))
    for c in cols:
        if not 0 <= c < width:
            raise IndexError(f"attack column {c} out of range 0..{width - 1}")
    return cols


def _resampled(eigenvalues: np.ndarray, probe: RankProbe, stream: int) -> list[complex]:
    """The probe's frequencies, each moved off the spectrum ``eigenvalues``.

    A frequency closer than ``EIGENVALUE_MARGIN`` to an eigenvalue is
    replaced by annulus draws from ``stream`` until it is not.
    """
    rng = np.random.default_rng((probe.seed, stream, 0xA17))
    frequencies = []
    for z in probe.frequencies:
        while np.min(np.abs(eigenvalues - z)) < EIGENVALUE_MARGIN:
            (z,) = _annulus(rng, 1)
        frequencies.append(z)
    return frequencies


def _transfers(stack: _Stack, probe: RankProbe, streams: Sequence[int]) -> np.ndarray:
    """Transfer matrices of every realization at the probe frequencies, (R, F, m, p).

    One eigenvalue call for the stack finds the realizations with a
    frequency on their spectrum; only those are resampled, each from its
    own ``streams`` entry, so a realization's frequencies do not depend
    on the others in the stack.
    """
    z = np.tile(np.array(probe.frequencies), (len(stack.W), 1))
    eigenvalues = np.linalg.eigvals(stack.W)
    near = np.abs(eigenvalues[:, None, :] - z[:, :, None]) < EIGENVALUE_MARGIN
    for r in near.any(axis=(1, 2)).nonzero()[0].tolist():
        z[r] = _resampled(eigenvalues[r], probe, streams[r])
    return _solve(stack, z)


def generic_normal_rank(
    system: StructuredSystem, column_sets: Iterable[Iterable[int]], probe: RankProbe
) -> tuple[int, ...]:
    """Empirical generic normal rank of each set of attack columns, in input order.

    Each is the maximum of ``transfer_rank`` over ``RANK_TRIALS``
    realizations and the probe's frequencies.  The realizations are drawn
    and solved once, as one stack, for the whole batch.  Each set size is
    ranked under the first realization and frequency, and the sets whose
    rank there is below min(m, s), for m sensors and s columns, under the
    others too; no rank exceeds that shape cap.  It matches the maximum
    linking size from those components to the sensor set for almost every
    draw.
    """
    sets = [_column_tuple(system.attack_width, cols) for cols in column_sets]
    by_size: dict[int, list[int]] = {}
    for k, cols in enumerate(sets):
        by_size.setdefault(len(cols), []).append(k)
    trials = range(RANK_TRIALS)
    transfer = _transfers(_Stack.drawn(system, [probe.seed + t for t in trials]), probe, trials)
    R, F, m, p = transfer.shape
    # The first matrix of each set, then the other R * F - 1 of those below
    # the shape cap min(m, s), which no rank exceeds.
    first, others = transfer[:1, :1], transfer.reshape(1, R * F, m, p)[:, 1:]
    best = np.zeros(len(sets), dtype=np.int64)
    for size, members in by_size.items():
        columns = np.array([sets[k] for k in members], dtype=np.intp).reshape(len(members), size)
        ranks = _column_ranks(first, columns, probe.tolerance)[:, 0, 0]
        below = (ranks < min(m, size)).nonzero()[0]
        if len(below):
            ranks[below] = np.maximum(
                ranks[below], _column_ranks(others, columns[below], probe.tolerance).max(axis=(1, 2))
            )
        best[members] = ranks
    return tuple(best.tolist())


def _index_vectors(
    stack: _Stack, probe: RankProbe, streams: Sequence[int], cap: int
) -> tuple[tuple[int | float, ...], ...]:
    """Every realization's index vector, the sizes of its ``index.witness_sets`` answer.

    Each realization is one group of F rank functions, the column ranks at
    its probe frequencies, and a set is ranked under all the realizations
    that ask for it at once.
    """
    R, _, width = stack.B_a.shape
    if not width:
        return ((),) * R
    if width > cap:
        raise EnumerationCapError(width, cap)
    transfer = _transfers(stack, probe, streams)

    def ranks(among: list[int] | slice) -> Callable[[np.ndarray], np.ndarray]:
        chosen = transfer[among]
        return lambda sets: _column_ranks(chosen, sets, probe.tolerance)

    found = witness_sets(width, ranks)
    return tuple(tuple(INFINITE if p is None else len(p) for p in group) for group in found)


def numeric_index_vector(
    realization: Realization, probe: RankProbe, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[int | float, ...]:
    """Realization-level index of every attack column, sharing rank work.

    A column's index is the smallest subset size for which it is
    rationally redundant: dropping it leaves the transfer-matrix rank
    unchanged at every probe frequency, so a perfectly undetectable attack
    using it exists for this exact parameter draw.  Infinite when no
    subset qualifies.

    The ranks at each frequency are taken to behave as exact ranks, that
    is, as the rank function of a matroid on the columns.  Loops and
    coloops are settled from the ranks of the single columns, of the whole
    attack set and of each set missing one column.  When the frequencies
    agree on these, the core left, of rank r, is answered by
    ``index.circuit_keys``: bottom-up levels while they are cheaper than
    level r, then each column's smallest fundamental circuit among the
    bases of level r.  Otherwise, or when the frequencies disagree on
    level r or a column lies on no fundamental circuit, the core is swept
    bottom-up, one size level at a time, until every column is resolved
    (``index.witness_sets``).  A threshold so coarse that the ranks
    are no longer those of a matroid can change the result.  This is
    ``numeric_index_vectors`` for one realization.  Raises
    ``EnumerationCapError`` when the attack set is wider than ``cap``.
    """
    (vector,) = _index_vectors(_Stack.of(realization), probe, (realization.seed,), cap)
    return vector


def numeric_index_vectors(
    system: StructuredSystem,
    seeds: Iterable[int],
    probe: RankProbe,
    cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[tuple[int | float, ...], ...]:
    """``numeric_index_vector`` of ``sample_realization(system, seed)`` for each seed, in order.

    The realizations are drawn, solved and ranked together, in blocks of
    ``SEED_BLOCK`` seeds: one eigenvalue call and one solve per block.
    The settle step ranks each set under every realization of the block
    at once; each level of a core is ranked once under all the block's
    realizations with that core and core rank (``index.circuit_keys``),
    and the realizations of a core left to the fallback sweep share one.
    Each realization is answered on its own ranks, so every vector equals
    the one-realization result, and memory does not grow with the number
    of seeds.  Raises ``EnumerationCapError`` when the attack set is
    wider than ``cap``.
    """
    seeds = list(seeds)
    blocks = (seeds[start : start + SEED_BLOCK] for start in range(0, len(seeds), SEED_BLOCK))
    return tuple(
        vector
        for block in blocks
        for vector in _index_vectors(_Stack.drawn(system, block), probe, block, cap)
    )


class Agreement(NamedTuple):
    """Counts of one ``agreement`` check; counts of several add field by field.

    ``rank_hits`` of ``subsets`` attack subsets have a generic normal rank
    equal to their linking size, ``pair_hits`` of ``pairs`` (component,
    realization) pairs have equal numerical and structural indices, and
    ``identical_vectors`` realizations agree on every component.
    """

    rank_hits: int
    subsets: int
    pair_hits: int
    pairs: int
    identical_vectors: int

    @property
    def rank_rate(self) -> float:
        return self.rank_hits / self.subsets if self.subsets else 1.0

    @property
    def pair_rate(self) -> float:
        return self.pair_hits / self.pairs if self.pairs else 1.0

    @property
    def passed(self) -> bool:
        """Both rates reach their gate; with no pairs, only the ranks count."""
        return self.rank_rate >= RANK_AGREEMENT and self.pair_rate >= INDEX_AGREEMENT


def _rank_check_subsets(width: int, seed: int) -> list[tuple[int, ...]]:
    """The rank check's attack subsets, in reflected Gray-code order.

    Subset i is the bit mask of the i-th Gray code word, i ^ i >> 1, for
    every i below 2 ** width when there are at most
    ``_RANK_CHECK_SUBSET_BUDGET``, else for that many distinct indices i,
    sorted.  Those are drawn uniformly from ``seed`` as rows of ``width``
    random bits, that many rows at a time, until that many distinct ones
    have come up; the first to come up are taken.  Consecutive subsets of
    the full enumeration differ in one column.
    """
    if 2**width <= _RANK_CHECK_SUBSET_BUDGET:
        indices: Iterable[int] = range(2**width)
    else:
        rng = np.random.default_rng((seed, 0x5EB5))
        drawn: dict[int, None] = {}  # distinct indices, in draw order
        while len(drawn) < _RANK_CHECK_SUBSET_BUDGET:
            bits = rng.integers(0, 2, size=(_RANK_CHECK_SUBSET_BUDGET, width))
            drawn.update((sum(1 << k for k in np.flatnonzero(row).tolist()), None) for row in bits)
        indices = sorted(list(drawn)[:_RANK_CHECK_SUBSET_BUDGET])
    return [tuple(k for k in range(width) if (i ^ i >> 1) >> k & 1) for i in indices]


def agreement(
    system: StructuredSystem,
    graph: AttackGraph,
    probe: RankProbe,
    seeds: Sequence[int],
    cap: int = DEFAULT_SUBSET_CAP,
) -> Agreement:
    """Numerical check of the graph computations on ``graph``, the attack graph of ``system``.

    The rank check compares ``generic_normal_rank`` with the maximum
    linking size to the sensors on every attack subset, or on 256 distinct
    subsets drawn from ``probe.seed`` when there are more, asked in reflected
    Gray-code order (``_rank_check_subsets``), so each warm-started flow
    adds or drops few sources.  The index check compares
    ``numeric_index_vectors`` for ``seeds`` with ``all_indices``, per
    component and realization.
    Raises ``EnumerationCapError`` before any rank work when the attack
    set is wider than ``cap``.
    """
    # Computed first: it refuses an attack set wider than the cap before any
    # rank work.  The rank check below reuses the graph's network; its
    # random subsets are mostly not in the size memo, which holds only the
    # linking sizes the reduced index search asked for.
    structural = tuple(r.index for r in all_indices(graph, cap=cap).results)
    width = len(graph.attack_set)
    subsets = _rank_check_subsets(width, probe.seed)
    ranks = generic_normal_rank(system, subsets, probe)
    rank_hits = sum(
        rank == max_linking_size(graph, [graph.attack_set[k] for k in subset], graph.targets)
        for subset, rank in zip(subsets, ranks)
    )
    hits = [
        sum(a == b for a, b in zip(numeric, structural))
        for numeric in numeric_index_vectors(system, seeds, probe, cap)
    ]
    return Agreement(
        rank_hits, len(subsets), sum(hits), width * len(hits), sum(h == width for h in hits)
    )
