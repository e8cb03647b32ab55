"""Tableaux as chains of partitions.

A (dual) semistandard Young tableau with entries at most n is the same thing
as a chain of n+1 partitions whose consecutive differences are horizontal
(dual: vertical) strips: entry i fills the cells of chain[i]/chain[i-1].
Skew tableaux are chains starting at a nonempty partition.  Every view is
one pass over the chain, for either strip kind: row r holds entry i
chain[i]_r - chain[i-1]_r times, so chain[i]_r counts row r's entries <= i,
and the weight is the differences of consecutive sizes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .partitions import (
    EMPTY,
    Partition,
    is_horizontal_strip,
    is_vertical_strip,
    size,
)


class StepKind(str, Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


def strip_kind(dual: bool) -> StepKind:
    """The strip kind of a (dual) growth's j-steps: vertical when dual."""
    return StepKind.VERTICAL if dual else StepKind.HORIZONTAL


def step_kind(steps: StepKind | str) -> StepKind:
    """A step kind given as a member or by name; anything else is refused as ``steps``."""
    try:
        return StepKind(steps)
    except ValueError:
        raise ValueError(f"steps: unknown step kind {steps!r}") from None


#: the refusal of an entry v < w + strict, w its neighbour: v is less than w
#: (strict = 0) or not greater than w (strict = 1)
_ORDER = ("less than", "not greater than")


@dataclass(frozen=True)
class TableauChain:
    chain: tuple[Partition, ...]
    steps: StepKind = StepKind.HORIZONTAL

    def __post_init__(self) -> None:
        if type(self.steps) is not StepKind:  # a name; members skip the lookup
            object.__setattr__(self, "steps", step_kind(self.steps))
        if not self.chain:
            raise ValueError("a tableau chain needs at least one partition")
        ok = is_horizontal_strip if self.steps is StepKind.HORIZONTAL else is_vertical_strip
        for a, b in zip(self.chain, self.chain[1:]):
            if not ok(a, b):
                raise ValueError(f"{b}/{a} is not a {self.steps.value} strip")

    @property
    def entries(self) -> int:
        """Largest allowed entry (the number of steps)."""
        return len(self.chain) - 1

    @property
    def shape(self) -> Partition:
        return self.chain[-1]

    @property
    def inner_shape(self) -> Partition:
        return self.chain[0]

    def weight(self) -> Counter[int]:
        """Multiset of entries: weight[i] = |chain[i]/chain[i-1]|."""
        sizes = [size(shape) for shape in self.chain]
        return Counter({i: b - a for i, (a, b) in enumerate(zip(sizes, sizes[1:]), 1) if b > a})

    def to_rows(self) -> list[list[int]]:
        """Row fillings, bottom row first; only for straight shapes."""
        if self.inner_shape != EMPTY:
            raise ValueError("to_rows only renders straight-shape tableaux")
        # row r's part along the chain rises to cell c first at c's entry
        height = len(self.shape)
        parts = zip(*(shape + (0,) * (height - len(shape)) for shape in self.chain))
        return [[bisect_left(run, c) for c in range(1, run[-1] + 1)] for run in parts]

    @classmethod
    def from_rows(cls, rows: list[list[int]], entries: int | None = None,
                  steps: StepKind = StepKind.HORIZONTAL) -> "TableauChain":
        """Build a chain from a straight-shape filling (bottom row first): nonempty
        rows of ints in 1..entries, by default up to the largest, none longer than
        the row below it, with weakly increasing rows and strictly increasing
        columns (vertical steps: strictly increasing rows, weakly increasing columns)."""
        dual = step_kind(steps) is StepKind.VERTICAL  # strict rows, weak columns
        for r, row in enumerate(rows):
            if not row:
                raise ValueError(f"rows[{r}]: expected at least one entry")
            if r and len(row) > len(rows[r - 1]):
                raise ValueError(f"rows[{r}]: {len(row)} entries, more than the row below it")
            for c, v in enumerate(row):
                if type(v) is not int or v < 1:
                    raise ValueError(f"rows[{r}][{c}]: expected a positive integer, got {v!r}")
                if entries is not None and v > entries:
                    raise ValueError(f"rows[{r}][{c}]: entry {v} exceeds {entries}")
                if c and v < row[c - 1] + dual:
                    raise ValueError(f"rows[{r}][{c}]: {v} is {_ORDER[dual]} the entry before it")
                if r and v < rows[r - 1][c] + (not dual):
                    raise ValueError(f"rows[{r}][{c}]: {v} is {_ORDER[not dual]} the entry below it")
        n = max((v for row in rows for v in row), default=0) if entries is None else entries
        # chain[i]: each sorted row's count of entries <= i; the counts weakly
        # decrease, so dropping the zeros leaves a partition
        chain = tuple(tuple(filter(None, map(bisect_right, rows, repeat(i)))) for i in range(n + 1))
        return cls(chain, steps)

    @classmethod
    def trivial(cls, base: Partition, length: int,
                steps: StepKind = StepKind.HORIZONTAL) -> "TableauChain":
        """The constant chain (base, base, ..., base) of the given length."""
        return cls((base,) * (length + 1), steps)


def check_chain(field: str, chain: TableauChain, steps: StepKind = StepKind.HORIZONTAL,
                entries: int | None = None) -> tuple[Partition, ...]:
    """The one check of a chain argument: refuse, under its field name, a chain
    of the wrong strip kind or, when ``entries`` fixes it, of the wrong number of
    steps.  Return its partitions."""
    if chain.steps is not steps:
        raise ValueError(f"{field}: expected a {steps.value}-strip chain")
    if entries is not None and chain.entries != entries:
        raise ValueError(f"{field}: expected {entries} steps, got {chain.entries}")
    return chain.chain
