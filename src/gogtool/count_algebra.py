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

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

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


class CountVector(NamedTuple):
    """Interior-vertex count and typed leaf counts (I, (L_1..L_k)); a tuple,
    so equality, hashing and order run in C."""

    interior: int
    leaves: Vec

    @property
    def height(self) -> int:
        return sum(self.leaves)

    def to_json_dict(self) -> dict:
        return {"interior": self.interior, "leaves": list(self.leaves)}


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


def _bounded_vectors(total: int, weights: Sequence[int], box: int) -> Iterator[Vec]:
    """Nonnegative n with sum n_j * weights_j == total and every n_j <= box,
    in lexicographic order, for weights >= 1: an odometer over the first
    k-1 coordinates, the last one solved for, so no recursion."""
    k = len(weights)
    if k == 0:
        if total == 0:
            yield ()
        return
    last = k - 1
    n = [0] * last
    rest = total  # total minus the weighted sum of n
    while True:
        q, r = divmod(rest, weights[last])
        if r == 0 and 0 <= q <= box:
            yield (*n, q)
        # advance the rightmost coordinate that can grow, zeroing those after it
        j = last - 1
        while j >= 0 and (n[j] == box or rest < weights[j]):
            rest += n[j] * weights[j]
            n[j] = 0
            j -= 1
        if j < 0:
            return
        n[j] += 1
        rest -= weights[j]


def weighted_vectors(total: int, weights: Sequence[int]) -> Iterator[Vec]:
    """All nonnegative integer vectors n with sum n_j * weights_j == total,
    in lexicographic order.

    Every weight must be >= 1, which makes the search finite.
    """
    if any(w < 1 for w in weights):
        raise ValidationError("weights must be positive")
    yield from _bounded_vectors(total, weights, total)


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

    ``complete`` is True when the search stabilised: some l1-layer held
    no undominated point inside the box, and, where the layer reaches
    beyond the box, no true undominated point outside it.  A layer inside
    the box proves the antichain covers the whole truth set; one beyond it
    only shows the box cut off no minimal point of that layer.
    """

    minimal: tuple[Vec, ...]
    complete: bool
    box: int

    def dominates(self, p: Vec) -> bool:
        return any(all(p[i] >= b[i] for i in range(len(p))) for b in self.minimal)


def dickson_minimal(
    pred: Callable[[Vec], bool],
    dim: int,
    box: int = DEFAULT_DICKSON_BOX,
) -> DicksonBasis:
    """Minimal true points of a monotone predicate within [0, box]^dim.

    Searches breadth-first by l1-norm with dominance pruning; stops at the
    first layer whose in-box points are all dominated (then so are those
    of every later layer).  Monotonicity is spot-checked above each basis
    element and a violation raises ValidationError.

    A complete basis is never empty.  The search completes only at a layer
    with no gap, and every layer it reaches holds an in-box point.  Every
    undominated in-box point of that layer is true and joins the basis,
    and with an empty basis nothing is dominated.
    """
    basis: list[Vec] = []

    def dominated(p: Vec) -> bool:
        return any(all(map(operator.ge, p, b)) for b in basis)

    complete = False
    ones = (1,) * dim
    for total in range(0, dim * box + 1):
        saw_gap = False
        for p in _bounded_vectors(total, ones, box):
            if dominated(p):
                continue
            if pred(p):
                basis.append(p)
            else:
                saw_gap = True
        if not saw_gap:
            # a true undominated point of this layer beyond the box is a
            # minimal point the box cut off
            complete = total <= box or not any(
                pred(p) for p in _bounded_vectors(total, ones, total) if max(p) > box and not dominated(p)
            )
            break

    for b in basis:
        for i in range(dim):
            up = tuple(x + (j == i) for j, x in enumerate(b))
            if max(up) <= box and not pred(up):
                raise ValidationError(
                    f"predicate is not monotone: true at {b} but false at {up}"
                )

    return DicksonBasis(tuple(sorted(basis)), complete, box)


# -- the rearrangement predicate and its constants ------------------------


def fits(mu: Sequence[int], M: Sequence[Sequence[int]], leaves: Sequence[int]) -> bool:
    """M mu <= L: leaf counts L can hold the carets of ``mu``."""
    return all(sum(map(operator.mul, row, mu)) <= n for row, n in zip(M, leaves))


def allowed_multisets(c: CountVector, table, base: CountVector) -> frozenset[Vec]:
    """The allowed set A(c): the nonzero caret-type multisets mu with
    M mu <= L and mu <= N for some history N of c, from one ``realizable``
    search; a downward-closed set.  Assumes the viral property.

    A(c) holds the mu by which a tree with counts c can be rearranged into
    an elementary expansion: its residual counts (c minus each caret's
    interior and leaf contribution) keep at least the base interior, leave
    at least mu[t] leaves of every type t to attach the carets to, and are
    realizable.  Proof: with Phi(n) = (<I, n>, (M - Id) n) the count map,
    c = base + Phi(N), so the residual is base + Phi(N - mu), and its leaf
    test res_l >= mu reads M mu <= L.  If mu <= N, N - mu is a history of
    the residual, whose interior is then at least the base's; conversely,
    a history N' of the residual gives the history N' + mu >= mu of c.
    """
    return frozenset(
        mu
        for n in realizable(c, table, base, viral=True)
        for mu in itertools.product(*(range(t + 1) for t in n.expansions))
        if any(mu) and fits(mu, table.M, c.leaves)
    )


def elementary_expansion_predicate(
    rho: Sequence[int], table, base: CountVector
) -> Callable[[Vec], bool]:
    """mult(rho) in A(c) for c = predict_counts(N), as a predicate on
    histories N, for the caret collection ``rho`` (a list of caret types):
    M mult <= L(c) and mult <= N' for some history N' of c, by the reading
    of ``allowed_multisets``.  Upward closed under the viral property.  It
    reads N only through c, so a memo on c is exact: each count class
    costs at most one ``realizable`` search.
    """
    return _expansion_predicate(rho, table, base, _viral_histories(table, base))


def _viral_histories(table, base: CountVector) -> Callable[[CountVector], frozenset[History]]:
    """``realizable`` under the viral property, memoised on the count class."""
    return functools.cache(lambda c: realizable(c, table, base, viral=True))


def _expansion_predicate(
    rho: Sequence[int], table, base: CountVector, histories: Callable[[CountVector], frozenset[History]]
) -> Callable[[Vec], bool]:
    """``elementary_expansion_predicate`` reading the histories of each
    count class from ``histories``, which predicates may share."""
    k = _check_dims(table, base)
    rho = tuple(rho)
    if not rho:
        raise ValidationError("the caret collection must be nonempty")
    if any(j < 0 or j >= k for j in rho):
        raise ValidationError("unknown caret type in collection")
    mult = tuple(rho.count(j) for j in range(k))

    @functools.cache
    def allows(c: CountVector) -> bool:
        return fits(mult, table.M, c.leaves) and any(
            all(map(operator.le, mult, n.expansions)) for n in histories(c)
        )

    return lambda n: allows(predict_counts(History(tuple(n)), table, base))


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
    return _alphas(rho, table, base, box, _viral_histories(table, base), reported=i)[i]


def _alphas(
    rho: Sequence[int],
    table,
    base: CountVector,
    box: int,
    histories: Callable[[CountVector], frozenset[History]],
    reported: int = 0,
) -> Vec:
    """alpha(rho, i) for every type i, read off one Dickson search whose
    predicate reads the histories of each count class from ``histories``;
    an exhausted box reports the partial bound of type ``reported``."""
    k = len(table.I)
    pred = _expansion_predicate(rho, table, base, histories)
    basis = dickson_minimal(pred, k, box)
    if not basis.complete:
        partial = max((b[reported] for b in basis.minimal), default=0)
        raise DicksonBoxExhausted(
            f"minimal-element search for rho={tuple(sorted(rho))} exhausted box {box}; "
            f"partial bound {partial}",
            basis,
            partial,
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

    # every rho's predicate reads one memo: the histories of c do not depend on rho
    histories = _viral_histories(table, base)

    def alphas_for(rho: Vec) -> tuple[Vec, tuple[int, ...] | None]:
        try:
            return rho, _alphas(rho, table, base, box, histories)
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
