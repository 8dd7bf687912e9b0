"""Composite (nested) worst-case functionals along filtrations.

The composite functional folds the conditional functional backward through a
filtration; it dominates the static worst case, and the gap is generically
strict. In the rectangular setting -- one marginal ambiguity set per stage,
the product set on the scenario space -- the fold collapses to a stagewise
backward recursion, and the nested and conditional evaluations coincide; both
routes are implemented and compared.

For two-stage rectangular instances the module also enumerates the induced
ambiguity set: all first-stage generators paired with every selector mapping
first-stage outcomes to second-stage generators. Its static worst case
reproduces the composite value exactly at finite scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    FiniteFamily,
    reachable_outcomes,
    robust_expectation,
    worst_case,
)
from .conditional import conditional_robust
from .rng import Rng
from .spaces import (
    NEG_INF,
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    Partition,
    RandomVariable,
    ScenarioTree,
    ValidationError,
)


class UnreachableAtomError(ValidationError):
    """A composite fold hit an atom no member charges; at desk scale that is
    a modeling error, so the fold aborts instead of returning ``-inf``."""


def composite_functional(
    M: AmbiguitySet, F: Filtration, Z: RandomVariable, P: DiscreteMeasure
) -> float:
    """Backward fold of the conditional functional through the filtration.

    With a trivial first stage the result is a scalar. Singleton partitions
    act as the identity on reachable outcomes, so they shortcut to a
    reachability mask rather than one fractional solve per outcome.
    """
    if F.n != M.n:
        raise ValidationError("filtration and ambiguity set sizes differ")
    reachable = reachable_outcomes(M)
    vals = Z.values
    for G in reversed(F.stages):
        if G.is_singleton:
            if not reachable.all():
                bad = int(np.argmin(reachable))
                raise UnreachableAtomError(f"outcome {bad} unreachable by every member")
            continue  # identity fold
        cond = conditional_robust(M, RandomVariable(vals), G, P)
        if not cond.finite:
            bad = cond.atom_values.index(NEG_INF)
            raise UnreachableAtomError(f"atom {G.atoms[bad]} unreachable by every member")
        vals = cond.per_outcome()
    if not F.stages[0].is_trivial:
        raise ValidationError("filtrations start with the trivial partition")
    return float(vals[0])


@dataclass(frozen=True)
class DominanceCheck:
    static_value: float
    composite_value: float
    holds: bool


def composite_dominates_static(
    M: AmbiguitySet, F: Filtration, Z: RandomVariable, P: DiscreteMeasure
) -> DominanceCheck:
    """Check ``R(Z) <= composite(Z)``; the inequality is never strict the
    other way."""
    static, _ = robust_expectation(M, Z)
    comp = composite_functional(M, F, Z, P)
    return DominanceCheck(static, comp, static <= comp + 1e-9)


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

    def require_finite_families(self) -> tuple[FiniteFamily, ...]:
        for M in self.stage_sets:
            if not isinstance(M, FiniteFamily):
                raise ValidationError(
                    "this operation needs finitely generated stage sets"
                )
        return self.stage_sets


def product_filtration(spec: RectangularSpec) -> Filtration:
    """History filtration on the product space: knowing the first k stage
    outcomes for k = 0..T. Atoms are contiguous ranges in row-major order."""
    sizes = spec.sizes
    total = spec.product_size
    stages = []
    for k in range(len(sizes) + 1):
        block = int(np.prod(sizes[k:])) if k < len(sizes) else 1
        atoms = tuple(
            tuple(range(start, start + block)) for start in range(0, total, block)
        )
        stages.append(Partition(total, atoms))
    return Filtration(tuple(stages))


def _product_weights(members: Sequence[DiscreteMeasure]) -> np.ndarray:
    w = members[0].weights
    for q in members[1:]:
        w = np.multiply.outer(w, q.weights)
    return w.reshape(-1)


def product_family(spec: RectangularSpec) -> FiniteFamily:
    """Vertex products of the per-stage families: the extreme points of the
    rectangular product set (extreme points of a product of polytopes are
    products of extreme points)."""
    families = spec.require_finite_families()
    members = []
    for combo in itertools.product(*[f.measures for f in families]):
        members.append(DiscreteMeasure(_product_weights(combo)))
    return FiniteFamily(tuple(members))


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


def rectangular_equivalence_check(
    spec: RectangularSpec, Z, tol: float = 1e-7
) -> EquivalenceCheck:
    """Nested recursion vs. conditional composition over the product family
    with the history filtration; under rectangularity the two evaluation
    paths must agree."""
    nested = rectangular_nested(spec, Z).value
    family = product_family(spec)
    filt = product_filtration(spec)
    reference = DiscreteMeasure.uniform(spec.product_size)
    flat = RandomVariable(spec.as_product_array(Z).reshape(-1))
    comp = composite_functional(family, filt, flat, reference)
    return EquivalenceCheck(nested, comp, abs(nested - comp) <= tol)


@dataclass(frozen=True)
class StaticRectangularResult:
    """Worst case over product measures. ``exact`` is false when stage sets
    are not finitely generated and alternating maximization was used."""

    value: float
    members: tuple[DiscreteMeasure, ...]
    exact: bool


def static_rectangular(
    spec: RectangularSpec,
    Z,
    rng: Optional[Rng] = None,
    restarts: int = 4,
    max_sweeps: int = 50,
) -> StaticRectangularResult:
    """sup over stagewise-independent products ``Q_1 x ... x Q_T``.

    Finitely generated stages reduce to a scan of vertex products. Otherwise
    the supremum is approached by alternating per-stage maximization with
    random restarts and flagged non-exact: each sweep fixes all but one stage
    and solves the induced linear stage problem, so the value only climbs.
    """
    table = spec.as_product_array(Z)
    T = spec.horizon
    try:
        families = spec.require_finite_families()
    except ValidationError:
        families = None
    if families is not None:
        best_val, best_members = -np.inf, None
        for combo in itertools.product(*[f.measures for f in families]):
            val = table
            for q in reversed(combo):
                val = val @ q.weights
            if val > best_val:
                best_val, best_members = float(val), combo
        return StaticRectangularResult(best_val, tuple(best_members), exact=True)

    rng = rng or Rng()
    overall_best, overall_members = -np.inf, None
    for restart in range(restarts):
        members = []
        for M in spec.stage_sets:
            direction = RandomVariable(rng.uniforms(M.n, -1.0, 1.0))
            members.append(robust_expectation(M, direction)[1])
        current = -np.inf
        for _ in range(max_sweeps):
            improved = False
            for t in range(T):
                # contract every axis except t with the fixed measures;
                # removing axes in decreasing order keeps indices valid
                g = table
                for s in range(T - 1, -1, -1):
                    if s == t:
                        continue
                    g = np.tensordot(g, members[s].weights, axes=([s], [0]))
                val, q_new = robust_expectation(spec.stage_sets[t], RandomVariable(g))
                if val > current + 1e-12:
                    current = val
                    members[t] = q_new
                    improved = True
            if not improved:
                break
        if current > overall_best:
            overall_best, overall_members = current, tuple(members)
    return StaticRectangularResult(overall_best, overall_members, exact=False)


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


def permutation_invariance_check(
    spec: RectangularSpec, Z, permutations: Sequence[Sequence[int]], tol: float = 1e-9
) -> PermutationCheck:
    table = spec.as_product_array(Z)
    statics, nesteds = [], []
    for perm in permutations:
        perm = list(perm)
        permuted = permute_spec(spec, perm)
        z_perm = np.transpose(table, axes=perm)
        statics.append(static_rectangular(permuted, z_perm).value)
        nesteds.append(rectangular_nested(permuted, z_perm).value)
    base_s = statics[0]
    static_invariant = all(abs(v - base_s) <= tol for v in statics)
    base_n = nesteds[0]
    max_change = max(abs(v - base_n) for v in nesteds)
    return PermutationCheck(
        static_values=tuple(statics),
        static_invariant=static_invariant,
        nested_values=tuple(nesteds),
        nested_changed=max_change > tol,
        max_nested_change=max_change,
    )


# ---------------------------------------------------------------------------
# induced two-stage ambiguity set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedSet:
    """Selector products for a two-stage rectangular spec.

    Each measure pairs a first-stage generator with a selector assigning a
    second-stage generator to every first-stage outcome; constant selectors
    reproduce the plain product family. ``pre_dedup_count`` is exactly
    ``m1 * m2 ** n`` before removing duplicates.
    """

    measures: tuple[DiscreteMeasure, ...]
    pre_dedup_count: int
    m1: int
    m2: int
    n_first: int

    def family(self) -> FiniteFamily:
        return FiniteFamily(self.measures)


def induced_set(spec: RectangularSpec, cap: int = 10**6) -> InducedSet:
    """Enumerate the selector products exactly (no sampling fallback)."""
    if spec.horizon != 2:
        raise ValidationError("the induced set is built for two-stage specs")
    fam1, fam2 = spec.require_finite_families()
    n1 = spec.sizes[0]
    m1, m2 = len(fam1.measures), len(fam2.measures)
    count = m1 * m2**n1
    if count > cap:
        raise ValidationError(
            f"induced set would hold {count} measures (cap {cap}); use a smaller instance"
        )
    mat2 = fam2.matrix()
    seen: dict[bytes, None] = {}
    measures: list[DiscreteMeasure] = []
    for q1 in fam1.measures:
        for selector in itertools.product(range(m2), repeat=n1):
            w = np.vstack([q1.weights[i] * mat2[selector[i]] for i in range(n1)])
            flat = w.reshape(-1)
            key = np.round(flat, 12).tobytes()
            if key not in seen:
                seen[key] = None
                measures.append(DiscreteMeasure(flat))
    return InducedSet(tuple(measures), count, m1, m2, n1)


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
    expected child value over its own ambiguity set. Nodes are folded stage
    by stage from the deepest one, so tree depth is not bounded by the
    interpreter's recursion limit."""
    tree = spec.tree
    leaves = tree.leaves
    if len(leaf_values) != len(leaves):
        raise ValidationError("one value per leaf required")
    values: dict[int, float] = {
        leaf: float(v) for leaf, v in zip(leaves, leaf_values)
    }
    for node in sorted(tree.nodes, key=lambda v: v.stage, reverse=True):
        if node.children:
            child_vals = [values[c] for c in node.children]
            values[node.index] = float(worst_case(spec.node_sets[node.index], child_vals)[0])
    return values[tree.root.index], values
