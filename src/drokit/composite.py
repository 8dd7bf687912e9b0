"""Composite (nested) worst-case functionals along filtrations.

The composite functional folds the conditional functional backward through a
filtration; it dominates the static worst case, and the gap is generically
strict. On the two-stage filtration ``(trivial, G)`` the composite value is
``R(R_{|G}(Z))``, so its dominance is the tower inequality
``R(Z) <= R(R_{|G}(Z))``. In the rectangular setting -- one marginal
ambiguity set per stage, the product set on the scenario space -- the fold
collapses to a stagewise backward recursion, and the nested and conditional
evaluations coincide; both routes are implemented and compared.

The static worst case over the product set and, for two stages, the induced
set (each first-stage vertex with every selector of second-stage vertices,
whose static worst case is the composite value) are built on each stage
set's ``vertices``, so both are exact for every family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    FiniteFamily,
    robust_expectation,
    vertices,
    worst_case,
)
from .conditional import _conditional_values
from .spaces import (
    NEG_INF,
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    RandomVariable,
    ScenarioTree,
    ValidationError,
    tree_filtration,
)


class UnreachableAtomError(ValidationError):
    """A composite fold hit an atom no member charges; at desk scale that is
    a modeling error, so the fold aborts instead of returning ``-inf``."""


def composite_functional(
    M: AmbiguitySet, F: Filtration, Z: RandomVariable, P: DiscreteMeasure
) -> float:
    """Backward fold of the conditional functional through the filtration.

    Every stage after the first replaces ``Z`` by its conditional values,
    lifted through ``atom_index``; an atom no member charges (``-inf``) aborts
    the fold. The first stage is trivial, and on the trivial partition the
    conditional functional is the worst case itself, so the fold ends in one
    oracle call. ``P`` is only validated as a probability on the set's space.
    """
    P.require_probability("P")
    if F.n != M.n or P.n != M.n or Z.n != M.n:
        raise ValidationError("Z, the filtration, P and the ambiguity set sizes differ")
    vals = Z.values
    for G in reversed(F.stages[1:]):
        cond = _conditional_values(M, vals, G)
        if cond.min() == NEG_INF:
            bad = int(cond.argmin())
            raise UnreachableAtomError(f"atom {G.atoms[bad]} unreachable by every member")
        vals = cond[G.atom_index]
    return float(worst_case(M, vals)[0])


@dataclass(frozen=True)
class DominanceCheck:
    static_value: float
    composite_value: float
    holds: bool


def composite_dominates_static(
    M: AmbiguitySet, F: Filtration, Z: RandomVariable, P: DiscreteMeasure
) -> DominanceCheck:
    """Check ``R(Z) <= composite(Z)`` to ``1e-9 max|Z|``; the inequality is
    never strict the other way."""
    static, _ = robust_expectation(M, Z)
    comp = composite_functional(M, F, Z, P)
    return DominanceCheck(static, comp, static <= comp + 1e-9 * float(np.abs(Z.values).max()))


# ---------------------------------------------------------------------------
# rectangular setting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RectangularSpec:
    """Per-stage marginal ambiguity sets over finite stage spaces.

    Scenarios are tuples of stage outcomes; the product space enumerates them
    in row-major order (last stage fastest).
    """

    stage_spaces: tuple[FiniteSpace, ...]
    stage_sets: tuple[AmbiguitySet, ...]

    def __post_init__(self):
        spaces = tuple(self.stage_spaces)
        sets = tuple(self.stage_sets)
        object.__setattr__(self, "stage_spaces", spaces)
        object.__setattr__(self, "stage_sets", sets)
        if len(spaces) != len(sets) or not spaces:
            raise ValidationError("one ambiguity set per stage space required")
        for sp, M in zip(spaces, sets):
            if M.n != sp.n:
                raise ValidationError("stage set does not match its stage space")

    @property
    def horizon(self) -> int:
        return len(self.stage_spaces)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sp.n for sp in self.stage_spaces)

    @property
    def product_size(self) -> int:
        return int(np.prod(self.sizes))

    def as_product_array(self, Z: RandomVariable | np.ndarray) -> np.ndarray:
        arr = Z.values if isinstance(Z, RandomVariable) else np.asarray(Z, dtype=float)
        if arr.shape == self.sizes:
            return arr
        if arr.size != self.product_size:
            raise ValidationError("Z does not match the product space")
        return arr.reshape(self.sizes)

    @property
    def finitely_generated(self) -> bool:
        """Whether every stage set is a ``FiniteFamily`` (the hull of listed
        measures), so that worst cases are attained at listed members."""
        return all(isinstance(M, FiniteFamily) for M in self.stage_sets)


def product_filtration(spec: RectangularSpec) -> Filtration:
    """History filtration on the product space, knowing the first k stage
    outcomes for k = 0..T: the filtration of the uniform tree with the stage
    sizes as branching, whose depth-first leaves are the row-major outcomes."""
    return tree_filtration(ScenarioTree.from_branching(spec.sizes))


def product_family(spec: RectangularSpec) -> FiniteFamily:
    """Vertex products of the per-stage sets: the extreme points of the
    rectangular product set (extreme points of a product of polytopes are
    products of extreme points). One outer product per stage of the
    ``vertices`` matrices; the first stage's vertex varies slowest."""
    W, *later = map(vertices, spec.stage_sets)
    for mat in later:
        W = (W[:, None, :, None] * mat[:, None]).reshape(len(W) * len(mat), -1)
    return FiniteFamily(W)


@dataclass(frozen=True)
class NestedResult:
    """Backward-recursion value plus every intermediate stage table;
    ``tables[t]`` has shape ``sizes[:t]`` (``tables[T]`` is the input)."""

    value: float
    tables: tuple[np.ndarray, ...]


def rectangular_nested(spec: RectangularSpec, Z) -> NestedResult:
    """Stagewise backward recursion: fold the last stage with its marginal
    worst case, conditioning on the history prefix, down to a scalar."""
    table = spec.as_product_array(Z)
    tables = [table]
    for M in reversed(spec.stage_sets):
        table, _ = worst_case(M, table)
        tables.append(table)
    tables.reverse()
    return NestedResult(value=float(tables[0]), tables=tuple(tables))


@dataclass(frozen=True)
class EquivalenceCheck:
    nested_value: float
    composite_value: float
    agree: bool


#: How far the nested and composite values may differ and still agree, in
#: units of ``max |Z|``.
_EQUIVALENCE_TOL = 1e-7


def rectangular_equivalence_check(spec: RectangularSpec, Z) -> EquivalenceCheck:
    """Nested recursion vs. conditional composition over the product family
    with the history filtration; under rectangularity the two evaluation
    paths must agree to ``_EQUIVALENCE_TOL`` times ``max |Z|``."""
    table = spec.as_product_array(Z)
    nested = rectangular_nested(spec, table).value
    family = product_family(spec)
    filt = product_filtration(spec)
    reference = DiscreteMeasure.uniform(spec.product_size)
    flat = RandomVariable(table.reshape(-1))
    comp = composite_functional(family, filt, flat, reference)
    tol = _EQUIVALENCE_TOL * float(np.abs(table).max())
    return EquivalenceCheck(nested, comp, abs(nested - comp) <= tol)


@dataclass(frozen=True)
class StaticRectangularResult:
    """Worst case over product measures and one product attaining it."""

    value: float
    members: tuple[DiscreteMeasure, ...]


#: Most cells the vertex scan of one array holds; a stack is scanned in
#: slices of at most this many cells, and a larger single array is rejected.
_SCAN_CELLS = 1 << 20


def _static_scan(spec: RectangularSpec, stack: np.ndarray):
    """Exact worst case over product measures of each array of a stack,
    shape ``(P, *spec.sizes)``, and for each the first product attaining it,
    as one ``(P, n_t)`` array of measures per stage.

    The value is linear in each stage's measure with the others fixed, so
    its maximum over stage 1 is convex in each later stage's measure on its
    own and peaks at a vertex (Horst & Tuy 1996). The stack is contracted
    with the ``vertices`` of stages T, ..., 2, last stage first, and one
    batched ``worst_case`` call on stage 1 prices every vertex product of
    the later stages, taken in row-major order (stage 2 slowest).
    """
    verts = [vertices(M) for M in spec.stage_sets[1:]]
    counts = [len(V) for V in verts]
    cells = max(math.prod(spec.sizes[:t]) * math.prod(counts[t - 1 :])
                for t in range(1, spec.horizon + 1))
    if cells > _SCAN_CELLS:
        raise ValidationError(f"the vertex scan needs {cells} cells (cap {_SCAN_CELLS})")
    values, members = [], []
    for X in np.split(stack, range(_SCAN_CELLS // cells, len(stack), _SCAN_CELLS // cells)):
        for V in reversed(verts):  # axes (array, m_t, ..., m_T, s_1, ..., s_{t-1})
            X = np.moveaxis(X @ V.T, -1, 1)
        vals, first = worst_case(spec.stage_sets[0], X.reshape(len(X), -1, spec.sizes[0]))
        k = vals.argmax(axis=1)
        values.append(vals.max(axis=1))
        picks = np.unravel_index(k, counts) if counts else ()
        members.append([first[np.arange(len(k)), k]] + [V[i] for V, i in zip(verts, picks)])
    return np.concatenate(values), [np.concatenate(q) for q in zip(*members)]


def static_rectangular(spec: RectangularSpec, Z, rng=None) -> StaticRectangularResult:
    """sup over stagewise-independent products ``Q_1 x ... x Q_T``, exact for
    every family: ``_static_scan`` on a stack of one. ``rng`` is ignored, kept
    for callers of the former random-restart search (perfbench's ``deep``)."""
    values, members = _static_scan(spec, spec.as_product_array(Z)[None])
    return StaticRectangularResult(float(values[0]), tuple(DiscreteMeasure(q[0]) for q in members))


@dataclass(frozen=True)
class PermutationCheck:
    """Static values under each permutation (must all agree) and nested
    values for comparison (order-sensitive in general)."""

    static_values: tuple[float, ...]
    static_invariant: bool
    nested_values: tuple[float, ...]
    nested_changed: bool
    max_nested_change: float


def permute_spec(spec: RectangularSpec, perm: Sequence[int]) -> RectangularSpec:
    return RectangularSpec(
        tuple(spec.stage_spaces[i] for i in perm),
        tuple(spec.stage_sets[i] for i in perm),
    )


#: Values of permuted specs within this times ``max |Z|`` of the first count
#: as unchanged.
_PERMUTATION_TOL = 1e-9


def permutation_invariance_check(
    spec: RectangularSpec, Z, permutations: Sequence[Sequence[int]]
) -> PermutationCheck:
    table = spec.as_product_array(Z)
    statics, nesteds = [], []
    for perm in permutations:
        permuted, z_perm = permute_spec(spec, perm), np.transpose(table, axes=perm)
        statics.append(static_rectangular(permuted, z_perm).value)
        nesteds.append(rectangular_nested(permuted, z_perm).value)
    tol = _PERMUTATION_TOL * float(np.abs(table).max())
    max_change = max(abs(v - nesteds[0]) for v in nesteds)
    return PermutationCheck(
        static_values=tuple(statics),
        static_invariant=all(abs(v - statics[0]) <= tol for v in statics),
        nested_values=tuple(nesteds),
        nested_changed=max_change > tol,
        max_nested_change=max_change,
    )


# ---------------------------------------------------------------------------
# induced two-stage ambiguity set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedSet(FiniteFamily):
    """Selector products for a two-stage rectangular spec, as a family.

    Each member pairs a first-stage generator with a selector assigning a
    second-stage generator to every first-stage outcome; constant selectors
    reproduce the plain product family. ``pre_dedup_count`` is the number of
    products built, ``m1 * m2 ** n1``, before duplicates are removed.
    """

    pre_dedup_count: int


#: Largest product array ``induced_set`` builds, in cells (products times
#: ``n1 * n2``); larger specs are rejected. Deduplication holds several copies
#: of the array, about 42 bytes a cell at its peak, so about 90 MB at the cap.
_INDUCED_SET_CAP = 1 << 21


def induced_set(spec: RectangularSpec) -> InducedSet:
    """Enumerate the selector products exactly (no sampling fallback), at
    most ``_INDUCED_SET_CAP`` cells of them before duplicates are removed.

    All products are built as one array: first-stage generator slowest, then
    the selectors in row-major order (last first-stage outcome fastest).
    Products equal after rounding to 12 decimals are duplicates; the first
    of each is kept, in order.
    """
    if spec.horizon != 2:
        raise ValidationError("the induced set is built for two-stage specs")
    mat1, mat2 = map(vertices, spec.stage_sets)
    (m1, n1), (m2, n2) = mat1.shape, mat2.shape
    count = m1 * m2**n1
    if count * n1 * n2 > _INDUCED_SET_CAP:
        raise ValidationError(
            f"induced set would hold {count} measures of {n1 * n2} cells "
            f"(cap {_INDUCED_SET_CAP} cells); use a smaller instance"
        )
    selectors = np.indices((m2,) * n1).reshape(n1, -1).T
    flat = (mat1[:, None, :, None] * mat2[selectors]).reshape(count, -1)
    _, first = np.unique(np.round(flat, 12), axis=0, return_index=True)
    return InducedSet(flat[np.sort(first)], count)


# ---------------------------------------------------------------------------
# history-dependent trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryDependentSpec:
    """Scenario tree with one ambiguity set per internal node, defined over
    that node's children."""

    tree: ScenarioTree
    node_sets: Mapping[int, AmbiguitySet]

    def __post_init__(self):
        for v in self.tree.nodes:
            if v.children:
                if v.index not in self.node_sets:
                    raise ValidationError(f"node {v.index} lacks an ambiguity set")
                if self.node_sets[v.index].n != len(v.children):
                    raise ValidationError(
                        f"node {v.index}: set size differs from child count"
                    )


def nested_tree_value(
    spec: HistoryDependentSpec, leaf_values: Sequence[float]
) -> tuple[float, dict[int, float]]:
    """Backward recursion on the tree: each internal node takes the worst
    expected child value over its own ambiguity set. Every parent precedes
    its children, so nodes are folded in reverse index order, and tree depth
    is not bounded by the interpreter's recursion limit."""
    tree = spec.tree
    leaves = tree.leaves
    if len(leaf_values) != len(leaves):
        raise ValidationError("one value per leaf required")
    values: dict[int, float] = {
        leaf: float(v) for leaf, v in zip(leaves, leaf_values)
    }
    for node in reversed(tree.nodes):
        if node.children:
            child_vals = [values[c] for c in node.children]
            values[node.index] = float(worst_case(spec.node_sets[node.index], child_vals)[0])
    return values[0], values
