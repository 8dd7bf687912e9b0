"""Problem-file ingestion: one self-describing JSON document per problem.

Objects are named and cross-reference each other by name, never by position,
so golden files stay reviewable. Every module-level invariant is revalidated
on load; a failed lookup, a malformed document, or an invariant violation
raises ``InputError`` (CLI exit code 2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .ambiguity import (
    AmbiguitySet,
    AVaRSet,
    FiniteFamily,
    MomentSet,
    WassersteinBall,
)
from .composite import RectangularSpec
from .dp import MultistageProblem
from .spaces import (
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    Partition,
    RandomVariable,
    ScenarioTree,
    ValidationError,
    tree_filtration,
)
from .transport import MultistageBoundSpec, TreeProcess


class InputError(ValueError):
    """Unusable input document (schema, reference, or invariant failure)."""


@dataclass
class ProblemFile:
    """Parsed and cross-resolved problem document."""

    digest: str
    spaces: dict[str, FiniteSpace] = field(default_factory=dict)
    measures: dict[str, DiscreteMeasure] = field(default_factory=dict)
    random_variables: dict[str, RandomVariable] = field(default_factory=dict)
    partitions: dict[str, Partition] = field(default_factory=dict)
    filtrations: dict[str, Filtration] = field(default_factory=dict)
    trees: dict[str, ScenarioTree] = field(default_factory=dict)
    ambiguity_sets: dict[str, AmbiguitySet] = field(default_factory=dict)
    rectangular_specs: dict[str, RectangularSpec] = field(default_factory=dict)
    problems: dict[str, MultistageProblem] = field(default_factory=dict)
    processes: dict[str, TreeProcess] = field(default_factory=dict)
    bound_specs: dict[str, dict] = field(default_factory=dict)
    measure_space: dict[str, str] = field(default_factory=dict)

    def lookup(self, table: str, name: str):
        store = getattr(self, table)
        if name not in store:
            raise InputError(f"unknown {table.rstrip('s')} name: {name!r}")
        return store[name]


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: must be an object")
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    return obj[key]


def _field(obj: dict, key: str, where: str, parse, optional: bool = False):
    """``parse`` applied to a field. A value it cannot read raises
    ``InputError`` naming the field's JSON path; an absent optional field
    gives ``None``."""
    if optional and key not in obj:
        return None
    value = _require(obj, key, where)
    try:
        return parse(value)
    except (TypeError, ValueError, IndexError, OverflowError) as e:
        raise InputError(f"{where}.{key}: {e}") from e


def _float(value) -> float:
    """A JSON number; bools, strings and nulls are rejected, never converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _numbers(value):
    """``value`` with every entry of its nested arrays read by ``_float``."""
    return [_numbers(v) for v in value] if isinstance(value, list) else _float(value)


def _floats(value) -> np.ndarray:
    return np.asarray(_numbers(value), dtype=float)


def _float_tuple(value) -> tuple[float, ...]:
    return tuple(_float(x) for x in value)


def _int(value) -> int:
    """A JSON integer (``2.0`` too); bools, fractions and non-numbers are
    rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _int_tuple(value) -> tuple[int, ...]:
    return tuple(_int(x) for x in value)


def _names(value, null_first: bool = False) -> tuple:
    """A JSON array of strings (``null`` allowed first when ``null_first``);
    a lone string or any other entry is rejected, never split or converted."""
    if not isinstance(value, list) or not all(
        isinstance(v, str) or (v is None and null_first and i == 0) for i, v in enumerate(value)
    ):
        raise ValueError(f"expected an array of names, got {value!r}")
    return tuple(value)


def _as_mapping(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise InputError(f"section {key!r} must be an object")
    return section


def load_problem_file(path: str) -> ProblemFile:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: document root must be an object")
    version = doc.get("version", "1")
    if str(version) != "1":
        raise InputError(f"unsupported problem-file version {version!r}")
    pf = ProblemFile(digest=hashlib.sha256(raw).hexdigest())
    try:
        _load_sections(doc, pf)
    except InputError:
        raise
    except ValidationError as e:
        raise InputError(f"{path}: {e}") from e
    except (TypeError, ValueError, KeyError, IndexError, AttributeError, OverflowError) as e:
        # a node of the wrong JSON type where the loader expected another
        raise InputError(f"{path}: malformed document ({type(e).__name__}: {e})") from e
    return pf


def _load_sections(doc: dict, pf: ProblemFile) -> None:
    for name, spec in _as_mapping(doc, "spaces").items():
        where = f"spaces.{name}"
        pf.spaces[name] = FiniteSpace(
            n=_field(spec, "n", where, _int),
            labels=_field(spec, "labels", where, _names, optional=True),
            metric=_field(spec, "metric", where, _floats, optional=True),
        )
    for name, spec in _as_mapping(doc, "measures").items():
        where = f"measures.{name}"
        space_name = _require(spec, "space", where)
        space = pf.lookup("spaces", space_name)
        m = DiscreteMeasure(_field(spec, "weights", where, _floats))
        if m.n != space.n:
            raise InputError(f"{where}: weight count differs from the space size")
        pf.measures[name] = m
        pf.measure_space[name] = space_name
    for name, spec in _as_mapping(doc, "random_variables").items():
        where = f"random_variables.{name}"
        space = pf.lookup("spaces", _require(spec, "space", where))
        rv = RandomVariable(_field(spec, "values", where, _floats))
        if rv.n != space.n:
            raise InputError(f"{where}: value count differs from the space size")
        pf.random_variables[name] = rv
    for name, spec in _as_mapping(doc, "partitions").items():
        where = f"partitions.{name}"
        space = pf.lookup("spaces", _require(spec, "space", where))
        atoms = _field(spec, "atoms", where, lambda v: tuple(_int_tuple(atom) for atom in v))
        pf.partitions[name] = Partition(space.n, atoms)
    for name, spec in _as_mapping(doc, "trees").items():
        pf.trees[name] = _load_tree(name, spec)
    for name, spec in _as_mapping(doc, "filtrations").items():
        where = f"filtrations.{name}"
        if "tree" in spec:
            pf.filtrations[name] = tree_filtration(pf.lookup("trees", spec["tree"]))
            continue
        stages = tuple(pf.lookup("partitions", p) for p in _field(spec, "stages", where, _names))
        pf.filtrations[name] = Filtration(stages)
    for name, spec in _as_mapping(doc, "ambiguity_sets").items():
        pf.ambiguity_sets[name] = _load_ambiguity(pf, name, spec)
    for name, spec in _as_mapping(doc, "rectangular_specs").items():
        where = f"rectangular_specs.{name}"
        spaces = tuple(pf.lookup("spaces", s) for s in _field(spec, "stage_spaces", where, _names))
        sets = tuple(
            pf.lookup("ambiguity_sets", s) for s in _field(spec, "stage_sets", where, _names)
        )
        pf.rectangular_specs[name] = RectangularSpec(spaces, sets)
    for name, spec in _as_mapping(doc, "problems").items():
        pf.problems[name] = _load_problem(pf, name, spec)
    for name, spec in _as_mapping(doc, "processes").items():
        where = f"processes.{name}"
        spaces = tuple(pf.lookup("spaces", s) for s in _field(spec, "stage_spaces", where, _names))
        kernels = _field(spec, "kernels", where, lambda v: tuple(_floats(k) for k in v))
        pf.processes[name] = TreeProcess(spaces, kernels)
    for name, spec in _as_mapping(doc, "bound_specs").items():
        pf.bound_specs[name] = _check_bound_spec(pf, name, spec)


def _load_tree(name: str, spec: dict) -> ScenarioTree:
    """Either a uniform ``branching`` profile or an explicit ``parents``
    array (``null`` for the root, node 0; every other parent is an earlier
    index). ``ScenarioTree`` derives the stages and children."""
    where = f"trees.{name}"
    if "branching" in spec:
        return ScenarioTree.from_branching(_field(spec, "branching", where, _int_tuple))
    return ScenarioTree(
        _field(spec, "parents", where, lambda v: tuple(None if p is None else _int(p) for p in v))
    )


def _load_ambiguity(pf: ProblemFile, name: str, spec: dict) -> AmbiguitySet:
    where = f"ambiguity_sets.{name}"
    kind = _require(spec, "kind", where)
    if kind == "finite_family":
        names = _field(spec, "measures", where, _names)
        return FiniteFamily([pf.lookup("measures", m) for m in names])
    if kind == "avar":
        return AVaRSet(
            alpha=_field(spec, "alpha", where, _float),
            reference=pf.lookup("measures", _require(spec, "reference", where)),
        )
    if kind == "moment":
        return MomentSet(
            support=pf.lookup("spaces", _require(spec, "support", where)),
            psi=tuple(
                pf.lookup("random_variables", f) for f in _field(spec, "functions", where, _names)
            ),
            targets=_field(spec, "targets", where, _float_tuple),
        )
    if kind == "wasserstein":
        return WassersteinBall(
            center=pf.lookup("measures", _require(spec, "center", where)),
            radius=_field(spec, "radius", where, _float),
            space=pf.lookup("spaces", _require(spec, "space", where)),
        )
    raise InputError(f"{where}: unknown ambiguity kind {kind!r}")


def _load_problem(pf: ProblemFile, name: str, spec: dict) -> MultistageProblem:
    where = f"problems.{name}"
    set_names = _field(spec, "stage_sets", where, lambda v: _names(v, null_first=True))
    sets = tuple(
        None if s is None else pf.lookup("ambiguity_sets", s) for s in set_names
    )
    costs = _field(spec, "costs", where, lambda v: tuple(_floats(c) for c in v))
    feasible = _field(
        spec,
        "feasible",
        where,
        lambda v: (_int_tuple(v[0]),)
        + tuple(
            tuple(tuple(_int_tuple(actions) for actions in per_prev) for per_prev in stage)
            for stage in v[1:]
        ),
    )
    return MultistageProblem(
        n_actions=_field(spec, "n_actions", where, _int_tuple),
        stage_sizes=_field(spec, "stage_sizes", where, _int_tuple),
        stage_sets=sets,
        costs=costs,
        feasible=feasible,
    )


def _check_bound_spec(pf: ProblemFile, name: str, spec: dict) -> dict:
    where = f"bound_specs.{name}"
    kind = _require(spec, "kind", where)
    if kind == "multistage":
        process = pf.lookup("processes", _require(spec, "process", where))
        bound = MultistageBoundSpec(
            eps=_field(spec, "eps", where, _float_tuple),
            kappa=_field(spec, "kappa", where, _float_tuple),
            weights=_field(spec, "weights", where, _float_tuple),
            lipschitz=_field(spec, "lipschitz", where, _float),
        )
        objective = _require(spec, "rv", where)
        if objective not in pf.random_variables:
            raise InputError(f"{where}: unknown random variable {objective!r}")
        return {"kind": kind, "process": process, "bound": bound, "rv": objective}
    if kind == "ball_sweep":
        measure = pf.lookup("measures", _require(spec, "measure", where))
        space = pf.lookup("spaces", _require(spec, "space", where))
        rv = _require(spec, "rv", where)
        if rv not in pf.random_variables:
            raise InputError(f"{where}: unknown random variable {rv!r}")
        grid = _field(spec, "eps_grid", where, _float_tuple)
        if not all(0.0 <= e < np.inf for e in grid):
            raise InputError(f"{where}.eps_grid: radii must be finite and nonnegative")
        return {"kind": kind, "measure": measure, "space": space, "rv": rv, "grid": grid}
    raise InputError(f"{where}: unknown bound-spec kind {kind!r}")
