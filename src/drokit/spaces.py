"""Finite probability spaces, measures, random variables, partitions, and trees.

Everything downstream computes on these types: outcomes are integer indices
``0..n-1``, measures are nonnegative weight vectors, partitions generate the
finite sigma-subalgebras used for conditioning, and scenario trees induce
filtrations over their leaves.

All types are immutable after construction and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

#: Absolute tolerance for equality comparisons on accumulated float arithmetic.
ATOL = 1e-9

NEG_INF = float("-inf")

#: Most (i, k, j) cells the triangle-inequality check of a metric compares at
#: once, so that its memory stays O(n**2) per chunk of k.
_TRIANGLE_CELLS = 1 << 18


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def as_weights(w, ndim: int, what: str) -> np.ndarray:
    """``w`` as a read-only, nonempty, finite and nonnegative float array with
    ``ndim`` axes: one measure (1) or one per row (2). Entries in
    ``[-ATOL, 0)`` are solver dust and are clipped to zero."""
    try:
        w = np.array(w, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    if w.ndim != ndim or w.size < 1:
        raise ValidationError(f"{what} must be a nonempty array with {ndim} axes")
    if not np.isfinite(w).all():
        raise ValidationError(f"{what} must be finite")
    if w.min() < 0.0:
        if w.min() < -ATOL:
            raise ValidationError(f"{what} must be nonnegative")
        w[w < 0.0] = 0.0
    return _readonly(w)


@dataclass(frozen=True)
class FiniteSpace:
    """Finite sample space of ``n`` outcomes, optionally metrized.

    Parameters
    ----------
    n : int
        Number of outcomes (>= 1). Outcome identity is by index; labels are
        decorative only.
    labels : sequence of str, optional
        One label per outcome.
    metric : array_like, optional
        Symmetric nonnegative distance table ``d(i, j)`` with zero diagonal
        satisfying the triangle inequality (validated on construction, to
        ``ATOL`` times the largest distance).
    """

    n: int
    labels: Optional[tuple[str, ...]] = None
    metric: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("a finite space needs at least one outcome")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
            if len(self.labels) != self.n:
                raise ValidationError("labels must match the outcome count")
        if self.metric is not None:
            d = np.asarray(self.metric, dtype=float)
            if d.shape != (self.n, self.n):
                raise ValidationError("metric must be an n-by-n table")
            if not np.isfinite(d).all():
                raise ValidationError("metric entries must be finite")
            tol = ATOL * float(np.abs(d).max())  # the axioms hold in any unit
            if np.any(d < -tol):
                raise ValidationError("metric entries must be nonnegative")
            if np.any(np.abs(np.diag(d)) > tol):
                raise ValidationError("metric diagonal must be zero")
            if np.any(np.abs(d - d.T) > tol):
                raise ValidationError("metric must be symmetric")
            # triangle inequality d[i, j] <= d[i, k] + d[k, j] + tol over all
            # index triples, as (i, k, j) cells for a chunk of k at a time
            chunk = max(1, _TRIANGLE_CELLS // self.n**2)
            for k in range(0, self.n, chunk):
                ks = slice(k, k + chunk)
                if np.any(d[:, None, :] > d[:, ks, None] + d[None, ks, :] + tol):
                    raise ValidationError("metric violates the triangle inequality")
            object.__setattr__(self, "metric", _readonly(d))

    def require_metric(self) -> np.ndarray:
        if self.metric is None:
            raise ValidationError("this operation needs a metrized space")
        return self.metric

    @property
    def outcomes(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weight per outcome; a probability when the mass is one."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", as_weights(self.weights, 1, "weights"))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The weights, so that a sequence of measures converts to the
        matrix of its rows."""
        return np.array(self.weights, dtype=dtype, copy=copy)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteMeasure":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, outcome: int) -> "DiscreteMeasure":
        w = np.zeros(n)
        w[outcome] = 1.0
        return cls(w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= ATOL

    def of(self, outcomes: Iterable[int]) -> float:
        """Mass of a subset of outcomes."""
        idx = list(outcomes)
        return float(self.weights[idx].sum()) if idx else 0.0

    def normalized(self) -> "DiscreteMeasure":
        mass = self.total_mass
        if mass <= 0.0:
            raise ValidationError("cannot normalize a zero measure")
        return DiscreteMeasure(self.weights / mass)

    def require_probability(self, what: str = "measure") -> "DiscreteMeasure":
        if not self.is_probability:
            raise ValidationError(f"{what} must be a probability (mass {self.total_mass:.12g})")
        return self


@dataclass(frozen=True)
class RandomVariable:
    """Real value per outcome. Finite on construction; extended values only
    ever arise inside conditional results, never here."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValidationError("values must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValidationError("random variables must be finite-valued")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return self.values.size

    def __add__(self, other):
        if isinstance(other, RandomVariable):
            return RandomVariable(self.values + other.values)
        return RandomVariable(self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RandomVariable):
            return RandomVariable(self.values - other.values)
        return RandomVariable(self.values - float(other))

    def __mul__(self, scalar):
        return RandomVariable(self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of ``0..n-1`` by nonempty atoms; the read-only
    ``atom_index[w]`` is the index of the atom holding outcome ``w``."""

    n: int
    atoms: tuple[tuple[int, ...], ...]
    atom_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple(tuple(sorted(int(i) for i in atom)) for atom in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        index = [-1] * self.n
        for a, atom in enumerate(atoms):
            if not atom:
                raise ValidationError("partition atoms must be nonempty")
            for i in atom:
                if i < 0 or i >= self.n:
                    raise ValidationError(f"outcome {i} outside space of size {self.n}")
                if index[i] >= 0:
                    raise ValidationError(f"outcome {i} appears in two atoms")
                index[i] = a
        if self.n < 0 or -1 in index:
            raise ValidationError("atoms must cover every outcome")
        index = np.array(index, dtype=int)
        index.setflags(write=False)
        object.__setattr__(self, "atom_index", index)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple((i,) for i in range(n)))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def atom_of(self, outcome: int) -> int:
        """Index of the atom containing ``outcome``."""
        return int(self.atom_index[outcome])

    @property
    def is_trivial(self) -> bool:
        return self.n_atoms == 1

    @property
    def is_singleton(self) -> bool:
        return self.n_atoms == self.n

    def expand(self, atom_values: Sequence[float]) -> np.ndarray:
        """Per-outcome array from per-atom values (atom-measurable lift)."""
        return np.asarray(atom_values, dtype=float)[self.atom_index]


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every atom of ``fine`` lies inside a single atom of ``coarse``:
    each fine atom takes the coarse atom of one of its outcomes; the rest must agree."""
    if fine.n != coarse.n:
        raise ValidationError("partitions live on spaces of different sizes")
    owner = np.empty(fine.n_atoms, dtype=int)
    owner[fine.atom_index] = coarse.atom_index
    return bool(np.array_equal(owner[fine.atom_index], coarse.atom_index))


@dataclass(frozen=True)
class Filtration:
    """Increasing sequence of partitions, coarsest (trivial) first.

    The first stage must be the trivial partition. The last stage is the
    singleton partition whenever the filtration represents the full
    information flow; helpers that need that property check ``is_complete``.
    """

    stages: tuple[Partition, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValidationError("a filtration needs at least one stage")
        n = stages[0].n
        if any(p.n != n for p in stages):
            raise ValidationError("all stages must partition the same space")
        if not stages[0].is_trivial:
            raise ValidationError("the first stage must be the trivial partition")
        for t in range(1, len(stages)):
            if not refines(stages[t], stages[t - 1]):
                raise ValidationError(f"stage {t + 1} does not refine stage {t}")

    @property
    def n(self) -> int:
        return self.stages[0].n

    @property
    def horizon(self) -> int:
        return len(self.stages)

    @property
    def is_complete(self) -> bool:
        return self.stages[-1].is_singleton


@dataclass(frozen=True)
class TreeNode:
    index: int
    stage: int
    parent: Optional[int]
    children: tuple[int, ...]


@dataclass(frozen=True)
class ScenarioTree:
    """Staged tree given by its parent array: node 0 is the root at stage 1
    (parent ``None``), and every other node's parent is an earlier node.

    One pass over ``parents`` derives each node's stage and its children in
    ascending order as ``nodes``; every leaf must sit at the final stage. A
    depth-first walk then lists the leaf indices as ``leaves``: leaves
    enumerate scenarios in that order, and grouping them by their stage-t
    ancestor yields the induced filtration (see ``tree_filtration``).
    """

    parents: tuple[Optional[int], ...]
    nodes: tuple[TreeNode, ...] = field(init=False, repr=False, compare=False)
    leaves: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parents = tuple(self.parents)
        object.__setattr__(self, "parents", parents)
        if not parents or parents[0] is not None:
            raise ValidationError("node 0 must be the root")
        stages = [1]
        children: list[list[int]] = [[] for _ in parents]
        for i, p in enumerate(parents[1:], 1):
            if p is None or not 0 <= p < i:
                raise ValidationError(f"node {i}: its parent must be an earlier node")
            stages.append(stages[p] + 1)
            children[p].append(i)
        # the last node is a leaf, so it sits at the final stage
        if any(not c and s != stages[-1] for s, c in zip(stages, children)):
            raise ValidationError("all leaves must sit at the final stage")
        nodes = tuple(map(TreeNode, range(len(parents)), stages, parents, map(tuple, children)))
        object.__setattr__(self, "nodes", nodes)
        leaves: list[int] = []
        stack = [0]
        while stack:
            v = stack.pop()
            if not children[v]:
                leaves.append(v)
            stack.extend(reversed(children[v]))
        object.__setattr__(self, "leaves", tuple(leaves))

    @classmethod
    def from_branching(cls, branching: Sequence[int]) -> "ScenarioTree":
        """Uniform tree whose stage-t nodes all have ``branching[t-1]`` children,
        numbered in preorder."""
        parents: list[Optional[int]] = []
        stack: list[tuple[Optional[int], int]] = [(None, 0)]
        while stack:
            parent, t = stack.pop()
            parents.append(parent)
            if t < len(branching):
                stack.extend([(len(parents) - 1, t + 1)] * branching[t])
        return cls(tuple(parents))

    @property
    def depth(self) -> int:
        return self.nodes[-1].stage

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def ancestor_at_stage(self, node: int, stage: int) -> int:
        v = self.nodes[node]
        while v.stage > stage:
            v = self.nodes[v.parent]
        return v.index


def tree_filtration(tree: ScenarioTree) -> Filtration:
    """Filtration over leaves: the stage-t partition groups leaves that share
    a stage-t ancestor. Stage 1 is trivial, the final stage is singletons.

    Built from the final stage up: each stage's ancestors are the parents of
    the next stage's, so every parent link is followed once per leaf."""
    leaves = tree.leaves
    ancestors = list(leaves)
    stages = []
    for t in range(tree.depth, 0, -1):
        groups: dict[int, list[int]] = {}
        for k, v in enumerate(ancestors):
            groups.setdefault(v, []).append(k)
        stages.append(Partition(len(leaves), tuple(tuple(g) for _, g in sorted(groups.items()))))
        if t > 1:
            ancestors = [tree.parents[v] for v in ancestors]
    return Filtration(tuple(reversed(stages)))


def expectation(Z: RandomVariable, Q: DiscreteMeasure) -> float:
    """Expectation of a finite random variable under a probability measure."""
    Q.require_probability("Q")
    if Z.n != Q.n:
        raise ValidationError("Z and Q live on different spaces")
    return float(np.dot(Z.values, Q.weights))


def conditional_expectation(
    Z: RandomVariable, Q: DiscreteMeasure, G: Partition
) -> np.ndarray:
    """Per-outcome conditional expectation of ``Z`` given the partition ``G``.

    On an atom with positive ``Q``-mass the value is the renormalized atom
    average; on a null atom the value is ``-inf``, the essential-infimum-of-
    versions convention that makes the conditional computable rather than a
    class of versions.
    """
    Q.require_probability("Q")
    if Z.n != Q.n or G.n != Q.n:
        raise ValidationError("Z, Q, and G must share one space")
    mass = np.bincount(G.atom_index, Q.weights, G.n_atoms)
    total = np.bincount(G.atom_index, Q.weights * Z.values, G.n_atoms)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mass > 0.0, total / mass, NEG_INF)[G.atom_index]
