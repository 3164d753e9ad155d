"""Generic finite-semigroup machinery over an indexed Cayley table.

A FiniteSemigroup is an immutable label list plus the full addition table
as an m x m matrix of element indices. Subsets of elements come in as
iterables of indices and go out as ascending tuples of them; inside, the
closure and search loops work on int bitmasks, so they stay bit-parallel.
Everything here is pure and safe to share between threads.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

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


def transpose_bits(rows: Iterable[tuple[int, Iterable[int]]], m: int) -> list[int]:
    """Bit j of ``out[i]`` is set iff i is among the members of j in ``rows``."""
    out = [0] * m
    for j, members in rows:
        bit = 1 << j
        for i in members:
            out[i] |= bit
    return out


def _left_cayley_walk(
    m: int, row: Callable[[int], Sequence[int]]
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Walk the left Cayley graph of a finite semigroup (Froidure & Pin,
    *Algorithms for computing finite semigroups*, 1997).

    ``row(g)`` gives the row of g (``row(g)[x] = g + x``). The elements are
    walked in index order: one not yet reached becomes a generator, and
    only its row is read; the reached set is then closed again by adding
    each generator on the left, breadth first. Every element is reached,
    as a sum of generators, so G generates under any binary operation
    (|G| = 12, 33 and 120 for A+(B_n) at n = 2, 3, 4).

    Returns G and the steps (c, y, h) in discovery order, with c = h + y,
    h in G, and y reached before c. For an associative table
    (h + y) + x = h + (y + x), so row c is row h read at row y:
    ``from_elements`` builds the table that way, and Light's test checks
    associativity over G.
    """
    seen = [False] * m
    gens: list[int] = []
    gen_rows: list[Sequence[int]] = []
    steps: list[tuple[int, int, int]] = []
    reached: list[int] = []
    for g in range(m):
        if seen[g]:
            continue
        line = row(g)
        seen[g] = True
        gens.append(g)
        gen_rows.append(line)
        # the new members: g, g + x for x reached before, then their left
        # multiples by every generator, breadth first
        new = [g]
        for x in reached:
            c = line[x]
            if not seen[c]:
                seen[c] = True
                steps.append((c, x, g))
                new.append(c)
        for y in new:
            for h, rh in zip(gens, gen_rows):
                c = rh[y]
                if not seen[c]:
                    seen[c] = True
                    steps.append((c, y, h))
                    new.append(c)
        reached += new
    return gens, steps


def _row_views(table: np.ndarray) -> list[memoryview]:
    """The rows of a C-contiguous int16 table as int16 memoryview slices of
    its own buffer: indexing one gives a plain int, as a list would."""
    m = len(table)
    flat = memoryview(table).cast("B").cast("h")
    return [flat[a : a + m] for a in range(0, m * m, m)]


def _associativity_failure(table: np.ndarray) -> tuple[int, int, int] | None:
    """Return a violating triple (x, g, y), or None if the table is associative.

    Light's test (Clifford & Preston, Algebraic Theory of Semigroups I, 1.2):
    in any magma the elements g with (x + g) + y = x + (g + y) for all x and
    y form a closed set, so it is enough to check g over a generating set G,
    here the G of ``_left_cayley_walk`` over the table's rows. The check
    costs m * m * |G| lookups, gathered and compared by rows.
    """
    gens, _ = _left_cayley_walk(len(table), _row_views(table).__getitem__)
    # Both products and their comparison go into reused buffers: with fresh
    # m x m temporaries for each g, the n = 4 check ran about twice as slow
    # whenever the allocator returned them to the OS between iterations.
    # "clip" lets numpy write into ``out`` without a buffer; every index is
    # in range.
    left, right = np.empty_like(table), np.empty_like(table)
    ne = np.empty(table.shape, dtype=bool)
    for g in gens:
        # left[x, y] = (x + g) + y against right[x, y] = x + (g + y)
        np.take(table, table[:, g], axis=0, out=left, mode="clip")
        np.take(table, table[g], axis=1, out=right, mode="clip")
        np.not_equal(left, right, out=ne)
        if ne.any():
            x, y = np.argwhere(ne)[0]
            return int(x), g, int(y)
    return None


def _check_representation(
    labels: Sequence[str], table: np.ndarray, values, codomain: FiniteSemigroup
) -> None:
    """Certify ``table`` through a representation, or raise TableValidationError.

    ``values`` is an m x k matrix whose row a gives element a as k elements
    of the semigroup T = ``codomain`` (indices into T's table), and the
    direct power T^k adds coordinatewise. T is a FiniteSemigroup, whose
    table was validated when it was made, so it is not checked again; a
    codomain of any other type is refused. The checks: every value is in
    range; the m rows are distinct; and for every coordinate p and all a, b,
    T[values[a, p], values[b, p]] == values[table[a, b], p]. Then
    a -> values[a] is an injective homomorphism into the semigroup T^k, so
    a + (b + c) and (a + b) + c have the same image and are equal: the
    table is associative, and it is the table of those value rows under
    T^k, which Light's test cannot tell. It costs m² k lookups against
    Light's m² |G| (k = 17 against |G| = 120 for A+(B_4)).

    For each p, the pointwise side is a row gather of the t x m matrix
    T[:, values[:, p]] and the table's side a gather of values[:, p] at the
    table's entries. All k coordinates are gathered at once, with the k
    matrices stacked, a block of rows at a time, so a block's temporaries
    hold about ``_BLOCK_ENTRIES`` bytes whatever m and k are. About 9 ms at
    n = 4 and 0.4-0.7 s at n = 5 on a 2-vCPU VM, against 60-80 ms and 18 s
    for Light's test.
    """
    if not isinstance(codomain, FiniteSemigroup):
        raise TableValidationError("codomain must be a FiniteSemigroup")
    t_arr, t, v_arr = codomain.table, codomain.m, np.asarray(values)
    m = len(table)
    if not np.issubdtype(v_arr.dtype, np.integer) or v_arr.ndim != 2 or len(v_arr) != m:
        raise TableValidationError(f"values must be an integer matrix with {m} rows")
    if v_arr.size and (int(v_arr.min()) < 0 or int(v_arr.max()) >= t):
        raise TableValidationError(f"values must be codomain indices in [0, {t})")
    # the narrowest dtype that holds [0, t): the gathers move bytes, not words
    small = np.min_scalar_type(t - 1)
    rows = np.ascontiguousarray(v_arr, dtype=small)
    first: dict[bytes, int] = {}
    for a, row in enumerate(rows):
        b = first.setdefault(row.tobytes(), a)
        if b != a:
            raise TableValidationError(f"{labels[b]} and {labels[a]} have the same values")
    k = rows.shape[1]
    cols = np.ascontiguousarray(rows.T)
    # pointwise[p * t + u, b] = T[u, values[b, p]]; keys[p, a] is the row
    # of (a, p), p * t + values[a, p]
    pointwise = t_arr.astype(small)[:, cols].transpose(1, 0, 2).reshape(k * t, m)
    keys = cols + np.arange(0, k * t, t)[:, None]
    lines = max(1, _BLOCK_ENTRIES // (m * k or 1))
    for lo in range(0, m, lines):
        # [p, a, b]: the value at p of (lo + a) + b, pointwise and from the table
        want = pointwise.take(keys[:, lo : lo + lines], axis=0)
        got = cols.take(table[lo : lo + lines], axis=1)
        if not np.array_equal(want, got):
            p, a, b = np.argwhere(want != got)[0].tolist()
            a += lo
            raise TableValidationError(
                f"{labels[a]} + {labels[b]} = {labels[table[a, b]]} is not "
                f"their sum at coordinate {p}"
            )


def _holds_bools(rows) -> bool:
    """True iff the iterables in ``rows`` hold a bool or numpy bool.

    ``map(type, row)`` runs in C: at n = 5 the scan of A+(B_5)'s table as
    lists takes about 0.37 s, against 2.1 s for an isinstance test per entry.
    """
    kinds: set[type] = set()
    for row in rows:
        kinds.update(map(type, row))
    return bool in kinds or np.bool_ in kinds


def _bitmasks(packed: np.ndarray) -> list[int]:
    """Each row of a bit matrix packed little-endian as an int bitmask."""
    width = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]


# Table entries per block of lines in ``_line_fibers``, and entries times
# coordinates in ``_check_representation``. A block's numpy temporaries take a
# few bytes per entry, so they stay near 1 MB whatever m is; whole-table
# arrays peaked at 14 MB under tracemalloc at n = 4 (m = 657) and, from their
# shapes, would take about 0.4 GB per side at n = 5 (m = 3,651). Measured at
# n = 4 on a 2-vCPU VM, blocks of 2^14 to 2^17 entries build both sides of
# ``sums`` in about the same 47 ms, against 67 ms for one whole-table block
# and 108 ms for one line per block (about 45 µs of numpy calls per block);
# 2^16 keeps 17 lines per block at n = 5.
_BLOCK_ENTRIES = 1 << 16


def _block_lines(m: int) -> int:
    """Lines of length m per block: at most ``_BLOCK_ENTRIES`` entries, one
    line at least, and no more than the m lines there are."""
    return min(m, max(1, _BLOCK_ENTRIES // m))


def _line_fibers(lines: np.ndarray) -> tuple[list[int], list[dict[int, int]]]:
    """Value mask and fibers of each line a of ``lines``: bit c of
    ``values[a]`` iff some lines[a, b] = c, and ``fibers[a][c]`` the bitmask
    of those b, one key per value.

    The m x m lines are taken ``_block_lines(m)`` at a time, so no
    temporary grows with m²; every block gets the same pass.
    """
    m = len(lines)
    width = (m + 7) // 8
    k = _block_lines(m)
    # index arrays for a full block, sliced for the last one
    starts = np.arange(0, k * m, m, dtype=np.int32)[:, None]
    b = np.tile(np.arange(m, dtype=np.int32), k)
    byte, bit = b >> 3, (1 << (b & 7)).astype(np.uint8)
    values: list[int] = []
    fibers: list[dict[int, int]] = []
    for lo in range(0, m, k):
        block = lines[lo : lo + k]
        size = block.size
        flat = (block + starts[: len(block)]).ravel()  # a * m + lines[lo + a, b]
        present = np.zeros(size, dtype=bool)
        present[flat] = True  # present[a * m + c]: c is a value of line lo + a
        # the fiber of each (a, b), numbered line by line, values ascending
        seen = np.cumsum(present, dtype=np.int32)
        ids = seen[flat] - 1
        packed = np.zeros(int(seen[-1]) * width, dtype=np.uint8)
        # each bit is set once, so adding is or-ing
        np.add.at(packed, ids * width + byte[:size], bit[:size])
        present = present.reshape(-1, m)
        masks = iter(zip(np.nonzero(present)[1].tolist(), _bitmasks(packed.reshape(-1, width))))
        fibers += [dict(itertools.islice(masks, c)) for c in present.sum(axis=1).tolist()]
        values += _bitmasks(np.packbits(present, axis=1, bitorder="little"))
    return values, fibers


class Sums(NamedTuple):
    """The sums of a table grouped by value, for the closure kernel.

    ``row_values[a]`` is the bitmask of a + S and ``col_values[a]`` that of
    S + a. ``row_fibers[a]`` maps each value c of a + S to the bitmask of the
    b with a + b = c, and ``col_fibers[a]`` each value c of S + a to that of
    the b with b + a = c. ``rows[a]`` and ``cols[a]`` are row and column a
    of the table as read-only int16 memoryviews into the table's own buffer
    (``rows[a][b] = a + b``, ``cols[b][a] = a + b``), for the kernel's
    member scans: no second copy of the table is kept.
    """

    rows: list[memoryview]
    cols: list[memoryview]
    row_values: list[int]
    col_values: list[int]
    row_fibers: list[dict[int, int]]
    col_fibers: list[dict[int, int]]


# Element indices are stored as int16, which holds 0 .. 32,767. A+(B_6),
# with 27,253 elements, is under the cap, but ``affine.check_table_n``
# refuses its table before the build.
_MAX_ELEMENTS = np.iinfo(np.int16).max + 1


class FiniteSemigroup:
    """An indexed element list with labels plus its full Cayley table.

    Every table is checked in full at construction, here and nowhere else.
    Given a ``representation`` (values, codomain), an m x k matrix of
    elements of another FiniteSemigroup and that semigroup, it is
    certified as an injective homomorphism into the codomain's direct power,
    which proves it associative and equal to the pointwise sums
    (``_check_representation``); ``a_plus_semigroup`` passes each map's
    values in ``brandt_semigroup(n)``. Any other table gets Light's test for
    associativity (``_associativity_failure``).

    Construction validates and stores the table, nothing more: ``sums``,
    which groups each row and column by value for the closure kernel and
    views its lines, is built on first use. Instances are immutable after
    construction. ``table`` is one C-contiguous int16 array, the only
    layout kept (int16 caps m at ``_MAX_ELEMENTS`` = 32,768): one given in
    that layout is kept without a copy and made read-only, and any other
    integer table is copied to it after its range check. Python booleans
    among the entries are refused, though numpy would read them as 1 and
    0, and an ``n`` that is not None or a positive integer raises
    InvalidParameterError.
    """

    def __init__(self, labels, table, n: int | None = None, representation=None):
        if n is not None and (n := _as_int(n, "n")) < 1:
            raise InvalidParameterError(f"n {n} is not a positive integer")
        labels = tuple(str(x) for x in labels)
        m = len(labels)
        if m == 0:
            raise TableValidationError("empty element list")
        if m > _MAX_ELEMENTS:
            raise TableValidationError(
                f"{m} labels: a table holds at most {_MAX_ELEMENTS} elements"
            )
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
        # numpy reads True and False among integers as 1 and 0
        if not isinstance(table, np.ndarray) and _holds_bools(table):
            raise TableValidationError("table entries must be integers, not booleans")
        # range-check before narrowing, so no entry can wrap into range
        if int(arr.min()) < 0 or int(arr.max()) >= m:
            raise TableValidationError("table entries must be element indices in [0, m)")
        # one C-order layout for every reader; ``sums`` views its lines
        arr = np.ascontiguousarray(arr, dtype=np.int16)
        if representation is not None:
            _check_representation(labels, arr, *representation)
        elif (bad := _associativity_failure(arr)) is not None:
            a, b, c = bad
            raise TableValidationError(
                f"associativity fails at ({labels[a]}, {labels[b]}, {labels[c]})"
            )
        arr.setflags(write=False)
        self.labels = labels
        self.table = arr
        self.n = n

    @property
    def m(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def sums(self) -> Sums:
        """The table's sums grouped by value (``Sums``), for the closure kernel.

        Built on first use, so tables that are only built and validated
        skip it. The masks and fibers come from two numpy passes, a block of
        lines at a time (about 30-45 ms for both sides at n = 4 on a 2-vCPU
        VM, with a tracemalloc peak of about 4.4 MB, of which 2.7 MB is
        kept). The rows (``_row_views``) and the columns are m plain and m
        strided slices of the table's own buffer, built in about 1 ms.
        """
        m, table = self.m, self.table
        row_values, row_fibers = _line_fibers(table)
        col_values, col_fibers = _line_fibers(table.T)
        flat = memoryview(table).cast("B").cast("h")
        cols = [flat[b::m] for b in range(m)]
        return Sums(_row_views(table), cols, row_values, col_values, row_fibers, col_fibers)

    @functools.cached_property
    def ideals(self) -> list[int]:
        """Bitmask of the principal two-sided ideal S¹xS¹ of each element x.

        S¹xS¹ is the union over u in {x} ∪ (x + S) of {u} ∪ (S + u): the
        right ideal read from the values of x's row (the keys of its fibers
        in ``sums``), then the left ideal of each of its members from the
        column value masks.
        """
        sums = self.sums
        left = [1 << u | bits for u, bits in enumerate(sums.col_values)]
        out = []
        for x, fibers in enumerate(sums.row_fibers):
            bits = left[x]
            for u in fibers:
                bits |= left[u]
            out.append(bits)
        return out

    @functools.cached_property
    def indecomposable_bits(self) -> int:
        """Bitmask of the elements with no expression a + b where both a and
        b differ from it, read off the row fibers of ``sums`` on first use:
        c is decomposable iff some row a != c has a fiber at c with a member
        b != c.

        In a one-element semigroup the single element is indecomposable
        (there are no candidate witnesses), a documented edge case of the
        definition.
        """
        decomposable = 0
        for a, fibers in enumerate(self.sums.row_fibers):
            for c, bs in fibers.items():
                if c != a and bs & ~(1 << c):
                    decomposable |= 1 << c
        return ((1 << self.m) - 1) & ~decomposable

    @classmethod
    def from_elements(
        cls,
        elements: Sequence,
        add_fn: Callable,
        labels: Sequence[str] | None = None,
        n: int | None = None,
        representation=None,
    ) -> "FiniteSemigroup":
        """Build the Cayley table of ``elements`` under the associative ``add_fn``.

        Only the rows g + x for g in the generating set G of
        ``_left_cayley_walk`` call ``add_fn``, m calls each, and go straight
        into the int16 table; every other row is composed in place from them
        along the walk's steps, one ``np.take`` each (row c = row h read at
        row y), so ``add_fn`` is called m * |G| times instead of m * m. A
        wrong label count, a duplicate element or more than
        ``_MAX_ELEMENTS`` elements raise InvalidParameterError first.

        ``add_fn`` must be associative: the table is derived from the g + x
        rows, so it may differ from ``add_fn`` elsewhere. Without a
        ``representation`` that is not detected (Light's test only proves the
        derived table associative); with one, passed on to ``__init__``,
        a table that is not the representation's pointwise sums is refused.
        Raises ClosureViolationError naming (g, x) if a sum g + x
        falls outside the element list; if none does, the list is closed.
        """
        elements = list(elements)
        if not elements:
            raise InvalidParameterError("element list must be nonempty")
        m = len(elements)
        lab = [str(e) for e in elements] if labels is None else [str(s) for s in labels]
        if len(lab) != m:
            raise InvalidParameterError(f"{len(lab)} labels for {m} elements")
        index: dict = {}
        for i, e in enumerate(elements):
            if index.setdefault(e, i) != i:
                raise InvalidParameterError(f"duplicate element {lab[i]!r}")
        if m > _MAX_ELEMENTS:
            raise InvalidParameterError(f"{m} elements: a table holds at most {_MAX_ELEMENTS}")

        table = np.empty((m, m), dtype=np.int16)
        views = _row_views(table)

        def row(g: int) -> memoryview:
            line = list(map(index.get, map(add_fn, itertools.repeat(elements[g], m), elements)))
            if None in line:
                raise ClosureViolationError(lab[g], lab[line.index(None)])
            table[g] = line
            return views[g]

        _, steps = _left_cayley_walk(m, row)
        # "clip" lets numpy write into ``out`` without a buffer; every index
        # is in range
        for c, y, h in steps:
            np.take(table[h], table[y], out=table[c], mode="clip")
        return cls(lab, table, n=n, representation=representation)

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


def extend_closure(sums: Sums, bits: int, x: int, stop: int = -1) -> int:
    """The closure of the closed set ``bits`` with element ``x``, as a bitmask,
    or, once ``stop`` joins, a set that holds ``stop`` and may not be closed.

    Since ``bits`` is closed, every new element is a sum (b + x) + g_1 + ...
    + g_k with b in ``bits`` or absent and each g_i a member or x, so the
    kernel adds right multiples only, as in the right Cayley walk of
    Froidure & Pin (1997): the line of sums it absorbs is first x's column
    (b + x for b in ``bits`` and x), then the row of each element popped as
    it joins (a + b for every member b present at that time). Each line is
    absorbed the shorter of two ways, by sizes it already has: where the
    set has more members than the line has values, each missing value c
    joins iff its fiber meets the set; otherwise the line is read at every
    member.

    The result holds ``stop`` exactly when the closure does (for a stop in
    ``bits`` or equal to x that closure is the result), and it is the
    closure whenever it does not; the default -1 never joins.
    """
    if bits >> x & 1:
        return bits
    rows, cols, row_values, col_values, row_fibers, col_fibers = sums
    bits |= 1 << x
    size = bits.bit_count()
    stack = [x]
    push = stack.append
    line, values, fibers = cols[x], col_values[x], col_fibers[x]
    while True:
        if len(fibers) > size:
            scan = bits
            while scan:
                low = scan & -scan
                scan ^= low
                c = line[low.bit_length() - 1]
                if not bits >> c & 1:
                    bits |= 1 << c
                    if c == stop:
                        return bits
                    size += 1
                    push(c)
        else:
            new = values & ~bits
            while new:
                low = new & -new
                new ^= low
                c = low.bit_length() - 1
                if fibers[c] & bits:
                    bits |= low
                    if c == stop:
                        return bits
                    size += 1
                    push(c)
        if not stack:
            return bits
        a = stack.pop()
        line, values, fibers = rows[a], row_values[a], row_fibers[a]


def closure_bits(sums: Sums, seed_bits: int) -> int:
    """Bitmask of the subsemigroup generated by ``seed_bits`` (empty -> empty)."""
    bits = 0
    for x in iter_bits(seed_bits):
        bits = extend_closure(sums, bits, x)
    return bits


def _as_int(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integer raises InvalidParameterError."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{what} {value!r} is not an integer") from None


def _coerce_bits(sg: FiniteSemigroup, subset) -> int:
    """Bitmask of an iterable of element indices; each must be an integer
    (not a bool) in [0, m)."""
    bits = 0
    for i in subset:
        k = _as_int(i, "index")
        if not 0 <= k < sg.m:
            raise InvalidParameterError(f"index {k} out of range [0, {sg.m})")
        bits |= 1 << k
    return bits


def closure(sg: FiniteSemigroup, subset) -> tuple[int, ...]:
    """Least superset of ``subset`` closed under the table, ascending; empty
    stays empty."""
    return tuple(iter_bits(closure_bits(sg.sums, _coerce_bits(sg, subset))))


def is_generating(sg: FiniteSemigroup, subset) -> bool:
    return closure_bits(sg.sums, _coerce_bits(sg, subset)) == (1 << sg.m) - 1


def independent_bits(sums: Sums, ideals: list[int], bits: int) -> bool:
    """True iff no member of ``bits`` lies in the closure of the other members.

    A sum g_1 + ... + g_k lies in the principal ideal S¹g_iS¹ of every term
    (Clifford & Preston I, 2.1), so a member c is generated by the others
    iff it is generated by its up-set, the other members whose ideal
    (``ideals``, as in ``FiniteSemigroup.ideals``) holds c. One pass over
    the members' ideals collects every up-set; each member c is then tested
    against the closure of its up-set, folded in ascending order with c as
    the kernel's ``stop``, so it ends as soon as c appears. For the
    388-element witness I at n = 4 the up-sets hold 2,700 members in all.
    """
    up = transpose_bits(((g, iter_bits(ideals[g] & bits & ~(1 << g))) for g in iter_bits(bits)),
                        len(ideals))
    for c in iter_bits(bits):
        closed = 0
        for g in iter_bits(up[c]):
            closed = extend_closure(sums, closed, g, c)
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
    return independent_bits(sg.sums, sg.ideals, bits)


# --- structural predicates ---------------------------------------------------


def greens_classes(sg: FiniteSemigroup, side: Literal["R", "L"]) -> list[list[int]]:
    """Partition of [0, m) by equality of principal one-sided ideals.

    a R b iff {a} + aS equals {b} + bS as sets (monoid-completion semantics),
    read from the row value masks of ``sg.sums``; L mirrors with left
    products, read from the column value masks.
    """
    if side not in ("R", "L"):
        raise InvalidParameterError("side must be 'R' or 'L'")
    sums = sg.sums
    sigs: dict[int, list[int]] = {}
    for a, bits in enumerate(sums.row_values if side == "R" else sums.col_values):
        sigs.setdefault(1 << a | bits, []).append(a)
    return sorted(sigs.values())


def is_band(sg: FiniteSemigroup) -> bool:
    """True iff every element is idempotent."""
    return bool((np.diagonal(sg.table) == np.arange(sg.m)).all())


def indecomposables(sg: FiniteSemigroup) -> tuple[int, ...]:
    """Elements with no expression b + c where both b and c differ from it,
    ascending; see ``FiniteSemigroup.indecomposable_bits``."""
    return tuple(iter_bits(sg.indecomposable_bits))


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
    return closure_bits(sg.sums, rest) == rest


# --- table IO ----------------------------------------------------------------


def export_table(sg: FiniteSemigroup, fmt: Literal["json", "csv"] = "json") -> str:
    """Serialize labels plus table; ``import_table`` inverts this bit-exactly."""
    if fmt == "json":
        return json.dumps({"n": sg.n, "labels": list(sg.labels), "table": sg.table.tolist()})
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(sg.labels)
        writer.writerows(sg.table.tolist())
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
        labels, table = payload["labels"], payload["table"]
        if not isinstance(labels, list) or not isinstance(table, list):
            raise TableParseError("'labels' and 'table' must be lists")
        # numpy would read true and false as 1 and 0
        if _holds_bools(row for row in table if isinstance(row, list)):
            raise TableParseError("'table' entries must be integers, not true or false")
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
