"""Generic finite-semigroup machinery over an indexed Cayley table.

A FiniteSemigroup is an immutable label list plus the full addition table
as an m x m matrix of element indices. Subsets of elements travel as
IndexSet values backed by int bitmasks, so closure and search loops stay
bit-parallel. Everything here is pure and safe to share between threads.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from typing import Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import (
    ClosureViolationError,
    InvalidParameterError,
    TableParseError,
    TableValidationError,
)


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class IndexSet:
    """A subset of [0, m) supporting size, union, insert and ordered iteration."""

    __slots__ = ("m", "bits")

    def __init__(self, m: int, indices: Iterable[int] = ()):
        if m < 0:
            raise InvalidParameterError("universe size must be nonnegative")
        self.m = m
        self.bits = 0
        for i in indices:
            self.add(i)

    @classmethod
    def from_bits(cls, m: int, bits: int) -> "IndexSet":
        if bits < 0 or bits >> m:
            raise InvalidParameterError("bitmask exceeds universe size")
        out = cls(m)
        out.bits = bits
        return out

    def add(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise InvalidParameterError(f"index {i} out of range [0, {self.m})")
        self.bits |= 1 << i

    def union(self, other: "IndexSet") -> "IndexSet":
        if not isinstance(other, IndexSet) or other.m != self.m:
            raise InvalidParameterError("universe size mismatch in union")
        return IndexSet.from_bits(self.m, self.bits | other.bits)

    __or__ = union

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.m and (self.bits >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IndexSet) and other.m == self.m and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.m, self.bits))

    def __repr__(self) -> str:
        return f"IndexSet(m={self.m}, indices={list(self)})"


def _associativity_failure(
    table: np.ndarray, rows: list[list[int]], cols: list[list[int]]
) -> tuple[int, int, int] | None:
    """Return a violating triple (x, g, y), or None if the table is associative.

    Light's test (Clifford & Preston, Algebraic Theory of Semigroups I, 1.2):
    in any magma the elements g with (x + g) + y = x + (g + y) for all x and
    y form a closed set, so it is enough to check g over a generating set G.
    A greedy pass in ascending index order puts an element into G when it is
    not yet in the closure of the earlier ones (|G| = 12, 33 and 120 for
    A+(B_n) at n = 2, 3, 4), so the check costs m * m * |G| lookups. It is
    the G whose columns ``FiniteSemigroup.from_elements`` computes.
    """
    by_col = np.ascontiguousarray(table.T)  # by_col[b][a] = a + b
    # Both products go into reused buffers: with a fresh pair of m x m
    # temporaries for each g, the n = 4 check ran about twice as slow
    # whenever the allocator returned them to the OS between iterations.
    # "clip" lets numpy write into ``out`` without a buffer; every index is
    # in range.
    left_t, right = np.empty_like(by_col), np.empty_like(by_col)
    bits = 0
    elems: list[int] = []
    for g in range(len(rows)):
        if bits >> g & 1:
            continue
        bits = extend_closure(rows, cols, bits, elems, g)
        # left_t[x, y] = (x + g) + y against right[y, x] = x + (g + y)
        np.take(table, by_col[g], axis=0, out=left_t, mode="clip")
        np.take(by_col, table[g], axis=0, out=right, mode="clip")
        if not np.array_equal(left_t.T, right):
            y, x = np.argwhere(left_t.T != right)[0]
            return int(x), g, int(y)
    return None


class FiniteSemigroup:
    """An indexed element list with labels plus its full Cayley table.

    Every table is checked in full for associativity at construction, by
    Light's test. ``rows`` holds the table as plain Python lists
    (``rows[a][b] = a + b``) for tight search loops, and ``cols`` the
    transposed table (``cols[b][a] = a + b``), built from ``rows`` so that
    both share their int objects (at n = 4, ``table.T.tolist()`` would box
    another 431k ints). Instances are immutable after construction; an
    int32 array given as ``table`` is kept as ``table`` without a copy and
    made read-only.
    """

    def __init__(self, labels, table, n: int | None = None):
        labels = tuple(str(x) for x in labels)
        m = len(labels)
        if m == 0:
            raise TableValidationError("empty element list")
        if len(set(labels)) != m:
            raise TableValidationError("labels must be distinct")
        try:
            arr = np.asarray(table)
        except Exception:
            raise TableValidationError("table must be a square integer matrix") from None
        if not np.issubdtype(arr.dtype, np.integer):
            raise TableValidationError("table entries must be integers")
        if arr.shape != (m, m):
            raise TableValidationError(
                f"table shape {arr.shape} does not match {m} labels"
            )
        # range-check before narrowing, so no entry can wrap into range
        if int(arr.min()) < 0 or int(arr.max()) >= m:
            raise TableValidationError("table entries must be element indices in [0, m)")
        arr = arr.astype(np.int32, copy=False)
        rows = arr.tolist()
        cols = [list(c) for c in zip(*rows)]
        bad = _associativity_failure(arr, rows, cols)
        if bad is not None:
            a, b, c = bad
            raise TableValidationError(
                f"associativity fails at ({labels[a]}, {labels[b]}, {labels[c]})"
            )
        arr.setflags(write=False)
        self.labels = labels
        self.table = arr
        self.rows = rows
        self.cols = cols
        self.n = n

    @property
    def m(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def ideals(self) -> list[int]:
        """Bitmask of the principal two-sided ideal S¹xS¹ of each element x.

        S¹xS¹ is the union over u in {x} ∪ (x + S) of {u} ∪ (S + u): the
        right ideal read from ``rows``, then the left ideal of each of its
        members from ``cols``. Built on first use (about 1 ms at n = 3 and
        20 ms at n = 4), so tables that never test independence skip it.
        """
        left = _one_sided_ideals(self.cols)
        out = []
        for x, row in enumerate(self.rows):
            bits = left[x]
            for u in set(row):
                bits |= left[u]
            out.append(bits)
        return out

    @classmethod
    def from_elements(
        cls,
        elements: Sequence,
        add_fn: Callable,
        labels: Sequence[str] | None = None,
        n: int | None = None,
    ) -> "FiniteSemigroup":
        """Build the Cayley table of ``elements`` under the associative ``add_fn``.

        Only the columns x + g for g in a generating set G call ``add_fn``;
        every other column is derived from them (the right Cayley graph of
        Froidure & Pin, *Algorithms for computing finite semigroups*, 1997).
        Since x + (y + g) = (x + y) + g, the column of y + g is the column
        of g read at the entries of the column of y. The elements are walked
        in index order: one not yet reached becomes a generator, its column
        costs m calls, and the reached set is closed again by adding each
        generator on the right. This is the greedy G of Light's test
        (|G| = 12, 33 and 120 for A+(B_n) at n = 2, 3, 4), so ``add_fn`` is
        called m * |G| times instead of m * m.

        ``add_fn`` must be associative, and a non-associative one is not
        detected: the table is derived from the x + g columns, so it may
        differ from ``add_fn`` elsewhere (it is still validated like every
        table). Raises ClosureViolationError naming (x, g) if a sum x + g
        falls outside the element list; if none does, the list is closed.
        """
        elements = list(elements)
        if not elements:
            raise InvalidParameterError("element list must be nonempty")
        lab = [str(e) for e in elements] if labels is None else [str(s) for s in labels]
        index: dict = {}
        for i, e in enumerate(elements):
            if e in index:
                raise InvalidParameterError(f"duplicate element {lab[i]!r}")
            index[e] = i
        m = len(elements)
        cols: list[list[int] | None] = [None] * m  # cols[b][a] = a + b
        gen_cols: list[list[int]] = []
        reached: list[int] = []
        for g in range(m):
            if cols[g] is not None:
                continue
            col = list(map(index.get, map(add_fn, elements, itertools.repeat(elements[g], m))))
            if None in col:
                raise ClosureViolationError(lab[col.index(None)], lab[g])
            cols[g] = col
            gen_cols.append(col)
            # the new members: g, x + g for x reached before, then their
            # right multiples by every generator, breadth first
            new = [g]
            for x in reached:
                c = col[x]
                if cols[c] is None:
                    cols[c] = list(map(col.__getitem__, cols[x]))
                    new.append(c)
            for y in new:
                cy = cols[y]
                for ch in gen_cols:
                    c = ch[y]
                    if cols[c] is None:
                        cols[c] = list(map(ch.__getitem__, cy))
                        new.append(c)
            reached += new
        table = np.array(cols, dtype=np.int32).T.copy()
        del cols, gen_cols  # free the boxed columns before __init__ boxes the rows
        return cls(lab, table, n=n)

    def label_list(self, indices: Iterable[int]) -> list[str]:
        return [self.labels[i] for i in indices]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidParameterError(f"unknown element label {label!r}") from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteSemigroup)
            and self.labels == other.labels
            and self.n == other.n
            and np.array_equal(self.table, other.table)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FiniteSemigroup(m={self.m}, n={self.n})"


# --- closure and generation ------------------------------------------------


# Below this many members a popped element's products are scanned member by
# member; from it on they are read by C-level ``map`` into a set, whose
# set-up costs more than it saves on small sets. Swept with perfbench/run.py
# (2-vCPU Xeon VM, times at nominal speed, two 15 s runs per value):
#   threshold                 8      16      24      32      48   never
#   verify-n2 wall_s (s)   2.12    1.83    1.80    1.79    1.81    1.80
#   search-r4-n3 nodes/s  3.09k   3.09k   3.01k   3.10k   2.83k   1.87k
# 16 to 32 are alike within the noise; 24 sits in the middle of that range.
# That sweep predates the ideal filter of the leave-one-out closures
# (``independent_bits``, ``ranks.upper_rank_search``), which leaves far fewer
# and mostly smaller extensions. The two extremes were checked again after
# it (same VM, nominal speed, two 15 s runs per value):
#   threshold                 0      24   never
#   verify-n2 wall_s (s)   1.40    1.17    1.15
#   search-r4-n3 nodes/s  41.4k   42.0k   29.2k
#   verify-n4 wall_s (s)   0.73    0.76    0.86
# Small sets still favour the loop and large ones the set, so 24 stays.
SCAN_SET_MIN = 24


def extend_closure(
    rows: list[list[int]], cols: list[list[int]], bits: int, elems: list[int], x: int
) -> int:
    """Absorb element ``x`` into a closed set given as (bits, member list).

    ``elems`` must list exactly the members of ``bits`` and is mutated by
    appending the newly reachable elements; the updated bitmask is returned.
    Callers that need rollback truncate ``elems`` back to its prior length.
    ``cols`` is the transposed table (``FiniteSemigroup.cols``).

    Each popped element a is combined with every member b present at that
    time, as a + b and b + a. A new element is appended before it is popped,
    so each pair is formed when the later of its two elements is popped.
    """
    if bits >> x & 1:
        return bits
    bits |= 1 << x
    elems.append(x)
    stack = [x]
    pop = stack.pop
    push = stack.append
    add = elems.append
    while stack:
        a = pop()
        if len(elems) >= SCAN_SET_MIN:
            found = set(map(rows[a].__getitem__, elems))
            found.update(map(cols[a].__getitem__, elems))
            for c in found:
                if not bits >> c & 1:
                    bits |= 1 << c
                    add(c)
                    push(c)
            continue
        ra = rows[a]
        ca = cols[a]
        for b in elems:
            c = ra[b]
            if not bits >> c & 1:
                bits |= 1 << c
                add(c)
                push(c)
            c = ca[b]
            if not bits >> c & 1:
                bits |= 1 << c
                add(c)
                push(c)
    return bits


def closure_bits(rows: list[list[int]], cols: list[list[int]], seed_bits: int) -> int:
    """Bitmask of the subsemigroup generated by ``seed_bits`` (empty -> empty)."""
    bits = 0
    elems: list[int] = []
    for x in iter_bits(seed_bits):
        bits = extend_closure(rows, cols, bits, elems, x)
    return bits


def _coerce_bits(sg: FiniteSemigroup, subset) -> int:
    if isinstance(subset, IndexSet):
        if subset.m != sg.m:
            raise InvalidParameterError("IndexSet universe does not match semigroup")
        return subset.bits
    bits = 0
    for i in subset:
        if not 0 <= int(i) < sg.m:
            raise InvalidParameterError(f"index {i} out of range [0, {sg.m})")
        bits |= 1 << int(i)
    return bits


def closure(sg: FiniteSemigroup, subset) -> IndexSet:
    """Least superset of ``subset`` closed under the table; empty stays empty."""
    return IndexSet.from_bits(sg.m, closure_bits(sg.rows, sg.cols, _coerce_bits(sg, subset)))


def is_generating(sg: FiniteSemigroup, subset) -> bool:
    return closure_bits(sg.rows, sg.cols, _coerce_bits(sg, subset)) == (1 << sg.m) - 1


def independent_bits(
    rows: list[list[int]], cols: list[list[int]], ideals: list[int], bits: int
) -> bool:
    """True iff no member of ``bits`` lies in the closure of the other members.

    A sum g_1 + ... + g_k lies in the principal ideal S¹g_iS¹ of every term
    (Clifford & Preston I, 2.1), so a member c is generated by the others
    iff it is generated by those whose ideal (``ideals``, as in
    ``FiniteSemigroup.ideals``) holds c. Each member is therefore tested
    against the closure of only those members, which stops as soon as c
    appears. For the 388-element witness I at n = 4 this skips most of the
    other members.
    """
    gens = list(iter_bits(bits))
    for c in gens:
        up = [g for g in gens if g != c and ideals[g] >> c & 1]
        closed = 0
        elems: list[int] = []
        for g in up:
            closed = extend_closure(rows, cols, closed, elems, g)
            if closed >> c & 1:
                return False
    return True


def is_independent(sg: FiniteSemigroup, subset) -> bool:
    """True iff no member lies in the subsemigroup generated by the others.

    See ``independent_bits`` for the ideal-filtered leave-one-out closures.
    """
    bits = _coerce_bits(sg, subset)
    if bits == 0:
        raise InvalidParameterError("independence is defined for nonempty subsets")
    return independent_bits(sg.rows, sg.cols, sg.ideals, bits)


# --- structural predicates ---------------------------------------------------


def _one_sided_ideals(lines: list[list[int]]) -> list[int]:
    """Bitmask of {a} ∪ set(lines[a]) for each a: the principal right ideal
    {a} ∪ (a + S) when ``lines`` is ``rows``, the left one for ``cols``."""
    out = []
    for a, line in enumerate(lines):
        bits = 1 << a
        for c in set(line):
            bits |= 1 << c
        out.append(bits)
    return out


def greens_classes(sg: FiniteSemigroup, side: Literal["R", "L"]) -> list[list[int]]:
    """Partition of [0, m) by equality of principal one-sided ideals.

    a R b iff {a} + aS equals {b} + bS as sets (monoid-completion semantics),
    read from the rows of the table; L mirrors with left products, read from
    its columns.
    """
    if side not in ("R", "L"):
        raise InvalidParameterError("side must be 'R' or 'L'")
    sigs: dict[int, list[int]] = {}
    for a, bits in enumerate(_one_sided_ideals(sg.rows if side == "R" else sg.cols)):
        sigs.setdefault(bits, []).append(a)
    return sorted(sigs.values())


def is_band(sg: FiniteSemigroup) -> bool:
    """True iff every element is idempotent."""
    rows = sg.rows
    return all(rows[a][a] == a for a in range(sg.m))


def indecomposables(sg: FiniteSemigroup) -> IndexSet:
    """Elements with no expression b + c where both b and c differ from it.

    In a one-element semigroup the single element is returned (there are no
    candidate witnesses), a documented edge case of the definition.
    """
    rows = sg.rows
    m = sg.m
    decomposable = bytearray(m)
    for a in range(m):
        row = rows[a]
        for b in range(m):
            c = row[b]
            if c != a and c != b:
                decomposable[c] = 1
    return IndexSet(m, (i for i in range(m) if not decomposable[i]))


def is_prime_subset(sg: FiniteSemigroup, subset) -> bool:
    """True iff a + b in U always forces a in U or b in U (U nonempty).

    That is, no two non-members add up to a member: the complement of U is
    closed, which the closure kernel decides. The whole set is prime, since
    its complement is empty.
    """
    bits = _coerce_bits(sg, subset)
    if bits == 0:
        raise InvalidParameterError("prime subsets are nonempty by definition")
    rest = ((1 << sg.m) - 1) & ~bits
    return closure_bits(sg.rows, sg.cols, rest) == rest


# --- table IO ----------------------------------------------------------------


def export_table(sg: FiniteSemigroup, fmt: Literal["json", "csv"] = "json") -> str:
    """Serialize labels plus table; ``import_table`` inverts this bit-exactly."""
    if fmt == "json":
        payload = {
            "n": sg.n,
            "labels": list(sg.labels),
            "table": [[int(x) for x in row] for row in sg.rows],
        }
        return json.dumps(payload)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(sg.labels)
        for row in sg.rows:
            writer.writerow(row)
        return buf.getvalue()
    raise InvalidParameterError(f"unknown format {fmt!r}")


def import_table(data: bytes | str) -> FiniteSemigroup:
    """Parse a JSON or CSV table file and validate it (incl. associativity).

    Malformed input raises TableParseError, and a well-formed table that is
    no semigroup raises TableValidationError.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TableParseError(f"input is not UTF-8 at byte {exc.start}: {exc.reason}") from None
    else:
        text = data
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TableParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except RecursionError:
            raise TableParseError("JSON nested too deeply") from None
        if not isinstance(payload, dict) or "labels" not in payload or "table" not in payload:
            raise TableParseError("JSON table needs 'labels' and 'table' keys")
        n = payload.get("n")
        if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
            raise TableParseError("'n' must be null or a positive integer")
        labels = payload["labels"]
        table = payload["table"]
        if not isinstance(labels, list) or not isinstance(table, list):
            raise TableParseError("'labels' and 'table' must be lists")
        return FiniteSemigroup(labels, table, n=n)
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise TableParseError(f"invalid CSV: {exc}") from None
    if not rows:
        raise TableParseError("empty CSV input")
    labels = rows[0]
    m = len(labels)
    if len(rows) != m + 1:
        raise TableParseError(f"expected {m} table rows after the label row, got {len(rows) - 1}")
    table = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != m:
            raise TableParseError(f"line {r}: expected {m} entries, got {len(row)}")
        try:
            table.append([int(x) for x in row])
        except ValueError as exc:
            raise TableParseError(f"line {r}: {exc}") from None
    return FiniteSemigroup(labels, table, n=None)
