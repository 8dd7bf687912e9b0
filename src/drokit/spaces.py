"""Finite probability spaces, measures, random variables, partitions, and trees.

Everything downstream computes on these types: outcomes are integer indices
``0..n-1``, measures are nonnegative weight vectors, partitions generate the
finite sigma-subalgebras used for conditioning, and scenario trees induce
filtrations over their leaves.

All types are immutable after construction and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: Absolute tolerance for equality comparisons on accumulated float arithmetic.
ATOL = 1e-9

NEG_INF = float("-inf")


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


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
        satisfying the triangle inequality (validated on construction).
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
            if np.any(d < -ATOL):
                raise ValidationError("metric entries must be nonnegative")
            if np.any(np.abs(np.diag(d)) > ATOL):
                raise ValidationError("metric diagonal must be zero")
            if np.any(np.abs(d - d.T) > ATOL):
                raise ValidationError("metric must be symmetric")
            # triangle inequality over all index triples
            for k in range(self.n):
                if np.any(d > d[:, [k]] + d[[k], :] + ATOL):
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
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValidationError("weights must be a nonempty vector")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if w.min() < 0.0:
            if w.min() < -ATOL:
                raise ValidationError("weights must be nonnegative")
            w[w < 0.0] = 0.0  # clip solver dust inside tolerance
        object.__setattr__(self, "weights", _readonly(w))

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
    """Disjoint cover of ``0..n-1`` by nonempty atoms."""

    n: int
    atoms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        atoms = tuple(tuple(sorted(int(i) for i in atom)) for atom in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        seen: set[int] = set()
        for atom in atoms:
            if not atom:
                raise ValidationError("partition atoms must be nonempty")
            for i in atom:
                if i < 0 or i >= self.n:
                    raise ValidationError(f"outcome {i} outside space of size {self.n}")
                if i in seen:
                    raise ValidationError(f"outcome {i} appears in two atoms")
                seen.add(i)
        if len(seen) != self.n:
            raise ValidationError("atoms must cover every outcome")
        lookup = np.empty(self.n, dtype=int)
        for a, atom in enumerate(atoms):
            for i in atom:
                lookup[i] = a
        lookup.setflags(write=False)
        object.__setattr__(self, "_atom_of", lookup)

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
        return int(self._atom_of[outcome])

    @property
    def is_trivial(self) -> bool:
        return self.n_atoms == 1

    @property
    def is_singleton(self) -> bool:
        return self.n_atoms == self.n

    def expand(self, atom_values: Sequence[float]) -> np.ndarray:
        """Per-outcome array from per-atom values (atom-measurable lift)."""
        out = np.empty(self.n)
        for a, atom in enumerate(self.atoms):
            out[list(atom)] = atom_values[a]
        return out


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every atom of ``fine`` lies inside a single atom of ``coarse``."""
    if fine.n != coarse.n:
        raise ValidationError("partitions live on spaces of different sizes")
    for atom in fine.atoms:
        owner = coarse.atom_of(atom[0])
        if any(coarse.atom_of(i) != owner for i in atom[1:]):
            return False
    return True


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
    label: str = ""


@dataclass(frozen=True)
class ScenarioTree:
    """Staged tree: one root at stage 1, all leaves at stage T.

    Leaves enumerate scenarios in depth-first order; grouping leaves by their
    stage-t ancestor yields the induced filtration (see ``tree_filtration``).
    """

    nodes: tuple[TreeNode, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ValidationError("a tree needs at least one node")
        roots = [v for v in nodes if v.parent is None]
        if len(roots) != 1 or roots[0].stage != 1:
            raise ValidationError("exactly one root at stage 1 is required")
        for i, v in enumerate(nodes):
            if v.index != i:
                raise ValidationError("node indices must match their position")
            if v.parent is not None:
                p = nodes[v.parent]
                if v.stage != p.stage + 1:
                    raise ValidationError("child stage must be parent stage + 1")
                if v.index not in p.children:
                    raise ValidationError("parent/child links inconsistent")
            for c in v.children:
                if nodes[c].parent != v.index:
                    raise ValidationError("parent/child links inconsistent")
        depth = max(v.stage for v in nodes)
        for v in nodes:
            if not v.children and v.stage != depth:
                raise ValidationError("all leaves must sit at the final stage")
        object.__setattr__(self, "_depth", depth)

    @classmethod
    def from_branching(cls, branching: Sequence[int]) -> "ScenarioTree":
        """Uniform tree whose stage-t nodes all have ``branching[t-1]`` children.

        Nodes are numbered in preorder, children in ascending order."""
        parents: list[Optional[int]] = []
        stages: list[int] = []
        stack: list[tuple[Optional[int], int]] = [(None, 1)]
        while stack:
            parent, stage = stack.pop()
            parents.append(parent)
            stages.append(stage)
            if stage <= len(branching):
                stack.extend([(len(parents) - 1, stage + 1)] * branching[stage - 1])
        children: list[list[int]] = [[] for _ in parents]
        for i, p in enumerate(parents):
            if p is not None:
                children[p].append(i)
        return cls(
            tuple(
                TreeNode(i, s, p, tuple(c))
                for i, (s, p, c) in enumerate(zip(stages, parents, children))
            )
        )

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def root(self) -> TreeNode:
        return next(v for v in self.nodes if v.parent is None)

    @property
    def leaves(self) -> tuple[int, ...]:
        """Leaf node indices in depth-first order."""
        order: list[int] = []
        stack = [self.root.index]
        while stack:
            v = self.nodes[stack.pop()]
            if not v.children:
                order.append(v.index)
            stack.extend(reversed(v.children))
        return tuple(order)

    def ancestor_at_stage(self, node: int, stage: int) -> int:
        v = self.nodes[node]
        while v.stage > stage:
            v = self.nodes[v.parent]
        return v.index


def tree_filtration(tree: ScenarioTree) -> Filtration:
    """Filtration over leaves: the stage-t partition groups leaves that share
    a stage-t ancestor. Stage 1 is trivial, the final stage is singletons."""
    leaves = tree.leaves
    pos = {leaf: k for k, leaf in enumerate(leaves)}
    stages = []
    for t in range(1, tree.depth + 1):
        groups: dict[int, list[int]] = {}
        for leaf in leaves:
            groups.setdefault(tree.ancestor_at_stage(leaf, t), []).append(pos[leaf])
        atoms = tuple(tuple(g) for _, g in sorted(groups.items()))
        stages.append(Partition(len(leaves), atoms))
    return Filtration(tuple(stages))


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
    out = np.empty(Q.n)
    for atom in G.atoms:
        idx = list(atom)
        mass = float(Q.weights[idx].sum())
        if mass > 0.0:
            out[idx] = float(np.dot(Q.weights[idx], Z.values[idx])) / mass
        else:
            out[idx] = NEG_INF
    return out
