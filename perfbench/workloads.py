"""Seeded generators of entailment batches with known verdicts.

Each workload is one shipped library plus a batch of goals whose sizes,
kinds and break points follow a fixed schedule.  The seed only chooses what
does not change the amount of work: conjunct order, goal order and which
cells are aligned.  So two seeds give different inputs of the same shape and
the same step count, and the known verdict of every goal follows from how
the goal was built, never from running the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PURIFIED = "purified"
FRAME_INFERRED = "frame_inferred"
STUCK = "stuck"


@dataclass(frozen=True, slots=True)
class Goal:
    text: str
    expected: str
    size: int


@dataclass(frozen=True, slots=True)
class Batch:
    workload: str
    library: str
    goals: tuple[Goal, ...]

    @property
    def text(self) -> str:
        """The batch as one `.sle` file: goals separated by blank lines."""
        return "\n\n".join(g.text for g in self.goals) + "\n"


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _goal(universals: list[str], lhs: list[str], existentials: list[str], rhs: list[str]) -> str:
    ex = f"exists {' '.join(existentials)}, " if existentials else ""
    return (
        f"forall {' '.join(universals)},\n"
        f"  {' && '.join(lhs)}\n"
        f"  |-- {ex}{' * '.join(rhs) or 'emp'}"
    )


# ---------------------------------------------------------------------------
# cells: the `common` library.  Chosen because its per-step cost grows with
# the heap: com_ptr_neq saturates all k(k-1) ordered pointer pairs, and each
# candidate pair re-checks left_absent by a linear scan of the antecedent's
# pures.  That is the target of an indexed engine.  No solver calls.

CELLS_SIZES = (4, 5, 6, 7)


def cells_goal(rng: random.Random, k: int, aligned: int) -> Goal:
    """k distinct data_at cells; `aligned` of them (chosen by the seed) are
    demanded on the right.  All aligned purifies; a strict subset, or none
    (emp), leaves the rest as frame."""
    idx = list(range(1, k + 1))
    universals = [f"p{i}" for i in idx] + [f"v{i}" for i in idx]
    lhs = " * ".join(f"data_at(p{i}, v{i})" for i in _shuffled(rng, idx))
    chosen = _shuffled(rng, idx)[:aligned]
    rhs = [f"data_at(p{i}, w{i})" for i in chosen]
    existentials = [f"w{i}" for i in sorted(chosen)]
    expected = PURIFIED if aligned == k else FRAME_INFERRED
    return Goal(_goal(universals, [lhs], existentials, rhs), expected, k)


def cells(seed: int, n_goals: int = 100, sizes: tuple[int, ...] = CELLS_SIZES) -> Batch:
    rng = random.Random(seed)
    goals = []
    for g in range(n_goals):
        k = sizes[g % len(sizes)]
        rounds = g // len(sizes)  # every size gets both kinds
        aligned = k if rounds % 2 == 0 else (rounds // 2) % k
        goals.append(cells_goal(rng, k, aligned))
    return Batch("cells", "common", tuple(_shuffled(rng, goals)))


# ---------------------------------------------------------------------------
# sll: the `sll` library.  Chosen because it is dominated by action,
# fresh-name and well-formedness work: every absorbed segment adds an
# existential and walks the whole entailment again.  A chain with a
# self-loop segment stops the absorption, so those goals stick and exercise
# the matcher's all-miss path.  No checks, no solver.

SLL_SIZES = (8, 12, 16, 20, 24)


def sll_goal(rng: random.Random, k: int, loop_at: int | None) -> Goal:
    """Segments x0 -> x1 -> ... -> xk and a trailing listrep(xk, _) against
    exists L, listrep(x0, L).  With loop_at = j the j-th segment is the
    self-loop lseg(x_{j-1}, x_{j-1}, _): the chain from x0 no longer reaches
    the trailing list, so no strategy can remove the right-hand listrep."""
    universals = [f"x{i}" for i in range(k + 1)] + [f"l{i}" for i in range(1, k + 2)]
    segs = [f"lseg(x{i - 1}, x{i if i != loop_at else i - 1}, l{i})" for i in range(1, k + 1)]
    lhs = " * ".join(_shuffled(rng, segs + [f"listrep(x{k}, l{k + 1})"]))
    expected = STUCK if loop_at is not None else PURIFIED
    return Goal(_goal(universals, [lhs], ["L"], ["listrep(x0, L)"]), expected, k)


def sll(seed: int, n_goals: int = 100, sizes: tuple[int, ...] = SLL_SIZES) -> Batch:
    rng = random.Random(seed)
    goals = []
    for g in range(n_goals):
        k = sizes[g % len(sizes)]
        loop_at = 1 + (g // 4) % k if g % 4 == 3 else None
        goals.append(sll_goal(rng, k, loop_at))
    return Batch("sll", "sll", tuple(_shuffled(rng, goals)))


# ---------------------------------------------------------------------------
# arrays: the `array` library.  Chosen because it is the only workload where
# the side-condition solver dominates, and because it mixes proven queries
# with unknown ones: a faster proof path that slows the no-refutation path
# shows up here.

ARRAYS_SIZES = (4, 5, 6, 7, 8)


def arrays_goal(rng: random.Random, k: int, bound: int) -> Goal:
    """k arrays a_j[0:n], read at i_j with 0 <= i_1, i_{j+1} == i_j + 1 and
    i_bound < n.  With bound = k every read is in range (frame: the holes).
    With bound < k the read at i_{bound+1} has the countermodel
    i_{bound+1} = n, so its side condition cannot be proven and the goal
    sticks."""
    idx = list(range(1, k + 1))
    universals = ["n"] + [f"{v}{j}" for j in idx for v in ("a", "l", "i")]
    pures = ["0 <= i1"] + [f"i{j + 1} == i{j} + 1" for j in idx[:-1]] + [f"i{bound} < n"]
    arrays = " * ".join(f"store_array(a{j}, 0, n, l{j})" for j in _shuffled(rng, idx))
    reads = [f"data_at(a{j} + 4 * i{j}, v{j})" for j in _shuffled(rng, idx)]
    expected = FRAME_INFERRED if bound == k else STUCK
    return Goal(_goal(universals, pures + [arrays], [f"v{j}" for j in idx], reads), expected, k)


def arrays(seed: int, n_goals: int = 100, sizes: tuple[int, ...] = ARRAYS_SIZES) -> Batch:
    rng = random.Random(seed)
    goals = []
    for g in range(n_goals):
        k = sizes[g % len(sizes)]
        # Every other goal is in range; the others have 1, 2 or 3 reads past
        # the bound, by a fixed schedule so the work per batch stays even.
        bound = k if g % 2 == 0 else max(1, k - 1 - (g // 2) % 3)
        goals.append(arrays_goal(rng, k, bound))
    return Batch("arrays", "array", tuple(_shuffled(rng, goals)))


WORKLOADS = {"cells": cells, "sll": sll, "arrays": arrays}
