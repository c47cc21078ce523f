"""Histories, count vectors, realizability, and threshold constants.

The count calculus lives entirely in integer vectors.  A history N
records how many leaf expansions of each gate type were used; the counts
of the resulting tree are an exact linear function of N:

    L = L(base) + (M - Id) N        I = I(base) + <I_carets, N>

where column j of M is the terminal-leaf census of the type-j caret and
I_carets are the caret interior counts.  Anything in here that needs a
caret table only touches ``table.M`` (k x k rows) and ``table.I``
(length-k tuple), so the table type itself lives with the tree patches.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import DicksonBoxExhausted, ValidationError

Vec = tuple[int, ...]

DEFAULT_DICKSON_BOX = 64


@dataclass(frozen=True, order=True)
class History:
    """Expansion counts per gate type, a vector in N_0^k."""

    expansions: Vec

    def __post_init__(self):
        if any(n < 0 for n in self.expansions):
            raise ValidationError("histories are componentwise nonnegative")

    @property
    def total(self) -> int:
        return sum(self.expansions)


@dataclass(frozen=True, order=True)
class CountVector:
    """Interior-vertex count and typed leaf counts (I, (L_1..L_k))."""

    interior: int
    leaves: Vec

    @property
    def height(self) -> int:
        return sum(self.leaves)


def _check_dims(table, base: CountVector) -> int:
    k = len(table.I)
    if len(table.M) != k or any(len(row) != k for row in table.M):
        raise ValidationError("caret table M must be k x k")
    if len(base.leaves) != k:
        raise ValidationError("base counts have the wrong number of gate types")
    return k


def expansion_matrix(table) -> tuple[Vec, ...]:
    """Rows of (M - Id)."""
    k = len(table.I)
    return tuple(
        tuple(table.M[i][j] - (1 if i == j else 0) for j in range(k)) for i in range(k)
    )


def predict_counts(history: History, table, base: CountVector) -> CountVector:
    """Exact counts of any tree with the given history over ``base``."""
    k = _check_dims(table, base)
    n = history.expansions
    if len(n) != k:
        raise ValidationError("history has the wrong number of gate types")
    mm = expansion_matrix(table)
    leaves = tuple(base.leaves[i] + sum(mm[i][j] * n[j] for j in range(k)) for i in range(k))
    interior = base.interior + sum(table.I[j] * n[j] for j in range(k))
    return CountVector(interior, leaves)


def weighted_vectors(total: int, weights: Sequence[int]) -> Iterator[Vec]:
    """All nonnegative integer vectors n with sum n_j * weights_j == total.

    Every weight must be >= 1, which makes the search finite.
    """
    if any(w < 1 for w in weights):
        raise ValidationError("weights must be positive")
    k = len(weights)

    def rec(j: int, rest: int, acc: list[int]) -> Iterator[Vec]:
        if j == k - 1:
            q, r = divmod(rest, weights[j])
            if r == 0:
                yield tuple(acc + [q])
            return
        for n in range(rest // weights[j] + 1):
            yield from rec(j + 1, rest - n * weights[j], acc + [n])

    if k == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total, [])


def order_feasible(n: Vec, table, base: CountVector) -> bool:
    """Is there an ordering of the expansion multiset ``n`` in which every
    type-j step finds a type-j leaf available?

    Leaf counts along the way are exact by the count formula, and whenever
    L_j >= 1 an actual type-j leaf exists to expand, so this count-level
    search decides genuine realizability.
    """
    k = _check_dims(table, base)
    mm = expansion_matrix(table)
    n = tuple(n)
    # depth-first search over the expansions still to do; a state is
    # reached at most once, so the search is linear in the states
    seen = {n}
    stack = [n]
    while stack:
        remaining = stack.pop()
        if not any(remaining):
            return True
        done = [n[j] - remaining[j] for j in range(k)]
        cur = [base.leaves[i] + sum(mm[i][j] * done[j] for j in range(k)) for i in range(k)]
        for j in range(k):
            if remaining[j] > 0 and cur[j] >= 1:
                nxt = tuple(r - (i == j) for i, r in enumerate(remaining))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def realizable(c: CountVector, table, base: CountVector, viral: bool) -> frozenset[History]:
    """All histories N with predict_counts(N) == c.

    The interior equation pins sum N_j * I_j = I - I_0 with every I_j >= 1,
    so the search is finite.  Under the viral expansion property every
    count-level solution is a genuine history; otherwise each solution is
    additionally checked by an expansion-order search.
    """
    k = _check_dims(table, base)
    if len(c.leaves) != k:
        raise ValidationError("count vector has the wrong number of gate types")
    d_interior = c.interior - base.interior
    if d_interior < 0 or any(l < 0 for l in c.leaves):
        return frozenset()
    mm = expansion_matrix(table)
    out = []
    for n in weighted_vectors(d_interior, table.I):
        leaves = tuple(
            base.leaves[i] + sum(mm[i][j] * n[j] for j in range(k)) for i in range(k)
        )
        if leaves != c.leaves:
            continue
        if viral or order_feasible(n, table, base):
            out.append(History(n))
    return frozenset(out)


# -- minimal elements of monotone predicates ------------------------------


@dataclass(frozen=True)
class DicksonBasis:
    """Antichain of minimal true points of an upward-closed predicate.

    ``complete`` is True when the upward closure of the antichain provably
    covers the whole truth set, i.e. either some l1-layer inside the box
    consisted solely of dominated points, or every point on the upper faces
    of the box dominates a basis element.
    """

    minimal: tuple[Vec, ...]
    complete: bool
    box: int
    description: str = ""

    def dominates(self, p: Vec) -> bool:
        return any(all(p[i] >= b[i] for i in range(len(p))) for b in self.minimal)


def _layer(total: int, dim: int, box: int) -> Iterator[Vec]:
    def rec(j: int, rest: int, acc: list[int]) -> Iterator[Vec]:
        if j == dim - 1:
            if rest <= box:
                yield tuple(acc + [rest])
            return
        for n in range(min(rest, box) + 1):
            yield from rec(j + 1, rest - n, acc + [n])

    if dim == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total, [])


def dickson_minimal(
    pred: Callable[[Vec], bool],
    dim: int,
    box: int = DEFAULT_DICKSON_BOX,
    description: str = "",
) -> DicksonBasis:
    """Minimal true points of a monotone predicate within [0, box]^dim.

    Searches breadth-first by l1-norm with dominance pruning; stops early
    once a whole layer is dominated (then every larger point is too).
    Monotonicity is spot-checked above each basis element and a violation
    raises ValidationError.
    """
    basis: list[Vec] = []

    def dominated(p: Vec) -> bool:
        return any(all(p[i] >= b[i] for i in range(dim)) for b in basis)

    complete = False
    for total in range(0, dim * box + 1):
        saw_gap = False
        for p in _layer(total, dim, box):
            if dominated(p):
                continue
            if pred(p):
                basis.append(p)
            else:
                saw_gap = True
        if not saw_gap:
            complete = True
            break

    if not complete and basis:
        # complete iff every upper-face point dominates a basis element:
        # any point beyond the box clamps onto an upper face without
        # increasing coordinates.
        complete = True
        for axis in range(dim):
            for rest in itertools.product(range(box + 1), repeat=dim - 1):
                p = rest[:axis] + (box,) + rest[axis:]
                if not dominated(p):
                    complete = False
                    break
            if not complete:
                break

    for b in basis:
        for i in range(dim):
            up = tuple(x + (j == i) for j, x in enumerate(b))
            if max(up) <= box and not pred(up):
                raise ValidationError(
                    f"predicate is not monotone: true at {b} but false at {up}"
                )

    return DicksonBasis(tuple(sorted(basis)), complete, box, description)


# -- the rearrangement predicate and its constants ------------------------


def elementary_expansion_ok(c: CountVector, mu: Sequence[int], table, base: CountVector) -> bool:
    """Count-level test: can a tree with counts ``c`` be rearranged into an
    elementary expansion by the caret-type multiset ``mu`` (multiplicity
    per type)?

    True iff the residual counts (subtract each caret's interior and leaf
    contribution) keep at least the base interior, leave at least mu[t]
    leaves of every type t to attach the carets to (so none is negative),
    and are realizable.  Assumes the viral property.
    """
    res_i = c.interior - sum(map(operator.mul, table.I, mu))
    # a caret of type j removes its M[i][j] type-i leaves and restores
    # the type-j leaf it was attached at
    res_l = tuple(
        l + m - sum(map(operator.mul, row, mu)) for l, m, row in zip(c.leaves, mu, table.M)
    )
    return (
        res_i >= base.interior
        and all(l >= m for l, m in zip(res_l, mu))
        and bool(realizable(CountVector(res_i, res_l), table, base, viral=True))
    )


def elementary_expansion_predicate(
    rho: Sequence[int], table, base: CountVector
) -> Callable[[Vec], bool]:
    """``elementary_expansion_ok`` as a predicate on histories N, for the
    caret collection ``rho`` (a list of caret types).  Under the viral
    property the predicate is upward closed.
    """
    k = _check_dims(table, base)
    rho = tuple(rho)
    if not rho:
        raise ValidationError("the caret collection must be nonempty")
    if any(j < 0 or j >= k for j in rho):
        raise ValidationError("unknown caret type in collection")
    mult = tuple(rho.count(j) for j in range(k))

    def pred(n: Vec) -> bool:
        return elementary_expansion_ok(
            predict_counts(History(tuple(n)), table, base), mult, table, base
        )

    return pred


def alpha(rho: Sequence[int], i: int, table, base: CountVector, box: int = DEFAULT_DICKSON_BOX) -> int:
    """The i-th coordinate bound for subhistories rearranging to an
    elementary ``rho``-expansion: the max i-th coordinate over the minimal
    elements of the rearrangement predicate.

    Raises DicksonBoxExhausted (with the partial antichain) if the search
    box is used up before the basis provably stabilises.
    """
    k = _check_dims(table, base)
    if i < 0 or i >= k:
        raise ValidationError("gate type out of range")
    return _alphas(rho, table, base, box, reported=i)[i]


def _alphas(rho: Sequence[int], table, base: CountVector, box: int, reported: int = 0) -> Vec:
    """alpha(rho, i) for every type i, read off one Dickson search; an
    exhausted box reports the partial bound of type ``reported``."""
    k = len(table.I)
    pred = elementary_expansion_predicate(rho, table, base)
    basis = dickson_minimal(pred, k, box, description=f"elementary expansion by {tuple(sorted(rho))}")
    if not basis.complete:
        partial = max((b[reported] for b in basis.minimal), default=0)
        raise DicksonBoxExhausted(
            f"minimal-element search for rho={tuple(sorted(rho))} exhausted box {box}; "
            f"partial bound {partial}",
            basis,
            partial,
        )
    if not basis.minimal:
        raise ValidationError(
            f"collection {tuple(sorted(rho))} is never attachable; no finite bound"
        )
    return tuple(max(b[i] for b in basis.minimal) for i in range(k))


NOTE_BEYOND_CAPS = (
    "links at height >= r(m) are beyond construction caps (not desk-scale); "
    "descending-link oracle equivalence at desk scale substitutes for direct "
    "verification of the connectivity claim"
)
NOTE_HOMOLOGY_PROXY = (
    "connectivity is checked homologically plus path-connectedness, a necessary "
    "condition; it is not a proof of m-connectedness"
)


@dataclass(frozen=True)
class Thresholds:
    """The connectivity-threshold constants for a caret table.

    beta: the maximal number of terminal leaves of a caret.
    C: the least power of two with floor(C / 2 beta) - 1 >= m.
    alpha_value: max of alpha(rho, i) over caret-type multisets of size
    <= m + 2 and all types i (a lower bound when incomplete).
    r: k * (alpha + C(m)) leaf expansions.
    """

    m: int
    beta: int
    C: int
    alpha_value: int
    alpha_complete: bool
    r: int
    k: int
    alpha_table: tuple[tuple[Vec, tuple[int, ...]], ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "beta": self.beta,
            "C": self.C,
            "alpha": self.alpha_value,
            "alpha_is_lower_bound_only": not self.alpha_complete,
            "r": self.r,
            "r_is_lower_bound_only": not self.alpha_complete,
            "k": self.k,
            "alpha_table": [
                {"rho": list(rho), "alpha_per_type": list(vals)}
                for rho, vals in self.alpha_table
            ],
            "notes": list(self.notes),
        }


def thresholds(m: int, table, base: CountVector, box: int = DEFAULT_DICKSON_BOX) -> Thresholds:
    """Assemble the connectivity threshold constants for height m."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    k = _check_dims(table, base)
    beta = max(sum(table.M[i][j] for i in range(k)) for j in range(k))
    c = 1
    while c // (2 * beta) - 1 < m:
        c *= 2

    rhos = [
        rho
        for size in range(1, m + 3)
        for rho in itertools.combinations_with_replacement(range(k), size)
    ]

    def alphas_for(rho: Vec) -> tuple[Vec, tuple[int, ...] | None]:
        try:
            return rho, _alphas(rho, table, base, box)
        except DicksonBoxExhausted:
            return rho, None

    results = [alphas_for(rho) for rho in rhos]
    complete = all(vals is not None for _, vals in results)
    table_rows = tuple((rho, vals) for rho, vals in results if vals is not None)
    best = max((v for _, vals in table_rows for v in vals), default=0)
    notes = (NOTE_BEYOND_CAPS, NOTE_HOMOLOGY_PROXY) if complete else (
        "alpha search box exhausted for some collections; alpha and r are lower bounds",
        NOTE_BEYOND_CAPS,
        NOTE_HOMOLOGY_PROXY,
    )
    return Thresholds(
        m=m,
        beta=beta,
        C=c,
        alpha_value=best,
        alpha_complete=complete,
        r=k * (best + c),
        k=k,
        alpha_table=table_rows,
        notes=notes,
    )
