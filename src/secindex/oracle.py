"""Numerical ground truth for the structural computations.

Samples concrete parameter values for a sparsity pattern, evaluates the
attack-to-sensor transfer matrix at complex frequencies, and reads ranks
off the singular values.  The maximum rank over several realizations and
frequencies estimates the generic normal rank, and a column-redundancy
rank test yields a realization-level security index.  Both are used to
cross-validate the graph-theoretic path: linking sizes must match generic
normal ranks, and structural indices must match realization indices for
almost every draw.

Each realization's transfer matrices are built once, stacked over the
probe frequencies, by one batched solve.  Ranks come from one kernel that
ranks a stack of matrices with a single SVD call, in chunks of at most
``RANK_CHUNK`` column sets: the generic normal ranks of a batch of column
sets take one call per realization and set size.  The indices of a
realization come from ``index.redundancy_sweep``, the structural search's
engine, run over these ranks in place of linking sizes: it settles every
loop and coloop from the ranks of single columns, of the whole attack set
and of each set missing one column, then sweeps only the remaining core,
one subset-size level at a time.  That reduction takes the thresholded
ranks to be the rank functions of matroids, as exact ranks are.

Attack columns are ordered like the graph's attack set: actuators in
declaration order, then unprotected sensors in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from secindex.index import DEFAULT_SUBSET_CAP, INFINITE, redundancy_sweep
from secindex.model import StructuredSystem

# Frequencies closer than this to an eigenvalue of W are treated as
# collisions and resampled.
EIGENVALUE_MARGIN = 1e-6

DEFAULT_TOLERANCE = 1e-9

# Sampling annulus for probe frequencies, away from typical spectra of the
# sampled dynamics.
ANNULUS = (1.5, 2.5)

# Column sets ranked per SVD call; bounds the memory of the stacked copy.
RANK_CHUNK = 1024

# Range of the magnitude of every sampled free parameter.
MAGNITUDES = (0.5, 1.5)


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
        """Boolean mask of transfer entries that can be nonzero at all.

        Entry (sensor, column) is structurally nonzero iff the component has
        a directed propagation path to the sensor (or a dedicated
        feedthrough).  Everything else is an exact zero of every realization.
        """
        arrives = (self.W != 0.0).astype(np.int64)  # arrives[j, i]: state i to j
        n = arrives.shape[0]
        closure = np.eye(n, dtype=bool)
        for _ in range(n):
            extended = closure | (arrives @ closure.astype(np.int64) > 0)
            if (extended == closure).all():
                break
            closure = extended
        reads = (self.C != 0.0).astype(np.int64)
        drives = (self.B_a != 0.0).astype(np.int64)
        through_states = (reads @ closure.astype(np.int64) @ drives) > 0
        mask = through_states | (self.D_a != 0.0)
        mask.flags.writeable = False
        return mask


@dataclass(frozen=True)
class RankProbe:
    """Evaluation protocol for rank estimates.

    ``trials`` realizations are drawn from ``seed``, and every rank is
    taken as the count of singular values above ``tolerance`` times the
    largest one, maximized over ``frequencies``.
    """

    frequencies: tuple[complex, ...]
    tolerance: float = DEFAULT_TOLERANCE
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(complex(z) for z in self.frequencies))
        if not self.frequencies:
            raise ValueError("a probe needs at least one frequency")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")


def annulus_frequencies(count: int, seed: int = 0) -> tuple[complex, ...]:
    """Area-uniform complex samples from the standard probing annulus."""
    rng = np.random.default_rng((seed, 0x5EED))
    low, high = ANNULUS
    radii = np.sqrt(rng.uniform(low**2, high**2, size=count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return tuple(radii * np.exp(1j * angles))


def default_probe(
    freqs: int = 3, trials: int = 3, tolerance: float = DEFAULT_TOLERANCE, seed: int = 0
) -> RankProbe:
    return RankProbe(
        frequencies=annulus_frequencies(freqs, seed),
        tolerance=tolerance,
        trials=trials,
        seed=seed,
    )


def sample_realization(system: StructuredSystem, seed: int) -> Realization:
    """Assign random values to every free parameter of the pattern.

    Magnitudes are uniform on ``MAGNITUDES`` with random sign: bounded away
    from zero so the draw stays on the pattern, and from large values so
    the rank computations stay well conditioned.  Fixed zeros remain
    exactly zero; dedicated attack entries are exactly 1.  Deterministic
    in ``seed``.
    """
    rng = np.random.default_rng(seed)
    low, high = MAGNITUDES

    def draw() -> float:
        magnitude = rng.uniform(low, high)
        return magnitude if rng.random() < 0.5 else -magnitude

    n, q, m = system.n_states, system.n_actuators, system.n_sensors
    unprotected = system.unprotected_sensors
    p = q + len(unprotected)
    si, ai, yi = system.state_index, system.actuator_index, system.sensor_index

    W = np.zeros((n, n))
    for src, dst in sorted(system.w_edges):
        W[si[dst], si[src]] = draw()
    B_a = np.zeros((n, p))
    for src, dst in sorted(system.b_edges):
        B_a[si[dst], ai[src]] = draw()
    C = np.zeros((m, n))
    for src, dst in sorted(system.c_edges):
        C[yi[dst], si[src]] = draw()
    D_a = np.zeros((m, p))
    for col, sensor_ordinal in enumerate(unprotected):
        D_a[sensor_ordinal, q + col] = 1.0
    return Realization(W=W, B_a=B_a, C=C, D_a=D_a, seed=seed)


def transfer_matrix(realization: Realization, frequencies: Sequence[complex]) -> np.ndarray:
    """The attack-to-sensor transfer matrices C (zI - W)^-1 B_a + D_a, (F, m, p).

    One matrix per frequency z, all from one batched solve.  Entries
    without a propagation path are pinned to exact zero: they vanish
    identically for every parameter value, and leaving the linear solver's
    rounding noise in them would fake rank.
    """
    n, p = realization.B_a.shape
    z = np.asarray(frequencies, dtype=complex)
    shifted = z[:, None, None] * np.eye(n) - realization.W
    try:
        # B_a is broadcast explicitly: numpy < 2 would read a 2-D right-hand
        # side against a stack of matrices as a stack of vectors.
        x = np.linalg.solve(shifted, np.broadcast_to(realization.B_a, (len(z), n, p)))
    except np.linalg.LinAlgError as exc:
        raise SingularFrequencyError(f"a frequency in {z.tolist()} is an eigenvalue") from exc
    g = realization.C @ x + realization.D_a
    g[:, ~realization._support] = 0.0
    return g


def _ranks(stack: np.ndarray, tolerance: float) -> np.ndarray:
    """Numerical rank of every matrix in ``stack``, over its last two axes.

    One SVD call for the whole stack.  A rank counts the singular values
    above ``tolerance`` times the largest one, so a zero or empty matrix
    has rank 0.
    """
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(singular_values > tolerance * singular_values[..., :1], axis=-1)


def _column_ranks(transfer: np.ndarray, columns: np.ndarray, tolerance: float) -> np.ndarray:
    """Rank of each equal-size column set at each probe frequency, (N, F).

    ``transfer`` stacks F matrices, (F, m, p), and ``columns`` holds one set
    per row, (N, s).  Sets are ranked in chunks of at most ``RANK_CHUNK``,
    one SVD call each; empty sets have rank 0 without one.
    """
    ranks = np.zeros((len(columns), transfer.shape[0]), dtype=np.intp)
    if columns.shape[1]:
        for start in range(0, len(columns), RANK_CHUNK):
            chunk = columns[start : start + RANK_CHUNK]
            # (F, m, N, s) -> (N, F, m, s): one m x s matrix per set and frequency.
            ranks[start : start + RANK_CHUNK] = _ranks(
                transfer[:, :, chunk].transpose(2, 0, 1, 3), tolerance
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


def _transfers(realization: Realization, probe: RankProbe, stream: int) -> np.ndarray:
    """Transfer matrices at the probe frequencies, stacked (F, m, p).

    Collisions with the spectrum are resampled from ``stream``.
    """
    eigenvalues = np.linalg.eigvals(realization.W)
    rng = None
    frequencies = []
    for z in probe.frequencies:
        while np.min(np.abs(eigenvalues - z)) < EIGENVALUE_MARGIN:
            if rng is None:
                rng = np.random.default_rng((probe.seed, stream, 0xA17))
            low, high = ANNULUS
            radius = np.sqrt(rng.uniform(low**2, high**2))
            z = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        frequencies.append(z)
    return transfer_matrix(realization, frequencies)


def generic_normal_rank(
    system: StructuredSystem, column_sets: Iterable[Iterable[int]], probe: RankProbe
) -> tuple[int, ...]:
    """Empirical generic normal rank of each set of attack columns, in input order.

    Each is the maximum of ``transfer_rank`` over the probe's realizations
    and frequencies; every realization is drawn once for the whole batch.
    It matches the maximum linking size from those components to the
    sensor set for almost every draw.
    """
    sets = [_column_tuple(system.attack_width, cols) for cols in column_sets]
    by_size: dict[int, list[int]] = {}
    for k, cols in enumerate(sets):
        by_size.setdefault(len(cols), []).append(k)
    groups = [
        (members, np.array([sets[k] for k in members], dtype=np.intp).reshape(len(members), size))
        for size, members in by_size.items()
    ]
    best = np.zeros(len(sets), dtype=np.int64)
    for trial in range(probe.trials):
        transfer = _transfers(sample_realization(system, seed=probe.seed + trial), probe, trial)
        for members, columns in groups:
            ranks = _column_ranks(transfer, columns, probe.tolerance).max(axis=1)
            best[members] = np.maximum(best[members], ranks)
    return tuple(best.tolist())


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
    is, as the rank function of a matroid on the columns, so
    ``index.redundancy_sweep`` finds the indices from them: it settles
    loops and coloops from the ranks of the single columns, of the whole
    attack set and of each set missing one column, then ranks the core
    left, a whole size level at once, until every column is resolved.  A
    threshold so coarse that the ranks are no longer those of a matroid
    can change the result.  Raises ``EnumerationCapError`` when the attack
    set is wider than ``cap``.
    """
    width = realization.attack_width
    if not width:
        return ()
    transfer = _transfers(realization, probe, stream=realization.seed)
    found = redundancy_sweep(
        width, lambda sets: _column_ranks(transfer, sets, probe.tolerance), range(width), cap
    )
    return tuple(INFINITE if positions is None else len(positions) for positions in found)
