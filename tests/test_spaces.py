"""Measure/partition/tree substrate tests."""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drokit import spaces
from drokit.rng import Rng
from drokit.spaces import (
    ATOL,
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    Partition,
    RandomVariable,
    ScenarioTree,
    ValidationError,
    conditional_expectation,
    expectation,
    refines,
    tree_filtration,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_expectation_uniform_mean():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    assert expectation(Z, DiscreteMeasure.uniform(4)) == pytest.approx(2.5)


def test_expectation_constant_is_translation_of_zero():
    Q = DiscreteMeasure([0.2, 0.5, 0.3])
    assert expectation(RandomVariable([7.0, 7.0, 7.0]), Q) == pytest.approx(7.0)


def test_expectation_indicator_mass():
    Q = DiscreteMeasure([0.2, 0.5, 0.3])
    assert expectation(RandomVariable([1.0, 0.0, 0.0]), Q) == pytest.approx(0.2)


def test_expectation_rejects_non_probability():
    with pytest.raises(ValidationError):
        expectation(RandomVariable([1.0, 2.0]), DiscreteMeasure([0.5, 0.7]))


def test_conditional_expectation_per_atom_means():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    G = Partition(4, ((0, 1), (2, 3)))
    out = conditional_expectation(Z, DiscreteMeasure.uniform(4), G)
    assert out == pytest.approx([1.5, 1.5, 3.5, 3.5])


def test_conditional_expectation_trivial_partition():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    out = conditional_expectation(Z, DiscreteMeasure.uniform(4), Partition.trivial(4))
    assert out == pytest.approx([2.5] * 4)


def test_conditional_expectation_null_atom_is_minus_inf():
    Z = RandomVariable([1.0, 2.0, 3.0, 4.0])
    Q = DiscreteMeasure([0.5, 0.5, 0.0, 0.0])
    out = conditional_expectation(Z, Q, Partition(4, ((0, 1), (2, 3))))
    assert out[0] == pytest.approx(1.5)
    assert out[1] == pytest.approx(1.5)
    assert out[2] == float("-inf") and out[3] == float("-inf")


def test_refines_basic_cases():
    assert refines(Partition.singletons(3), Partition.trivial(3))
    assert not refines(Partition.trivial(3), Partition.singletons(3))
    fine = Partition(3, ((0,), (1, 2)))
    coarse = Partition(3, ((0, 1), (2,)))
    assert not refines(fine, coarse)


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition(3, ((0, 1),))  # not a cover
    with pytest.raises(ValidationError):
        Partition(3, ((0, 1), (1, 2)))  # overlap


@pytest.mark.parametrize(
    "n, atoms, message",
    [
        (3, ((0, 1), (3,), (2,)), "outcome 3 outside space of size 3"),
        (3, ((1, 0, -1), (2,)), "outcome -1 outside space of size 3"),
        (3, ((2, 1), (0, 1)), "outcome 1 appears in two atoms"),
        (3, ((0, 1),), "atoms must cover every outcome"),
        (3, ((0, 1), (), (2,)), "partition atoms must be nonempty"),
        (3, ((0,), (0, 5), ()), "outcome 0 appears in two atoms"),
        (-1, (), "atoms must cover every outcome"),
    ],
)
def test_partition_error_messages(n, atoms, message):
    """Each malformed partition is named by the first fault met, atom by
    atom and outcome by outcome in sorted order, then by the cover."""
    with pytest.raises(ValidationError) as err:
        Partition(n, atoms)
    assert str(err.value) == message


def random_partition(rng, n):
    """Outcomes dealt to random labels; atoms listed in shuffled order, each
    with its outcomes unsorted."""
    atoms: dict = {}
    for w in range(n):
        atoms.setdefault(rng.randint(1 + rng.randint(n)), []).append(w)
    return Partition(n, tuple(tuple(reversed(a)) for a in rng.shuffled(list(atoms.values()))))


def loop_atom_of(G):
    return {i: a for a, atom in enumerate(G.atoms) for i in atom}


def loop_refines(fine, coarse):
    owner = loop_atom_of(coarse)
    return all(len({owner[i] for i in atom}) == 1 for atom in fine.atoms)


def test_atom_index_expand_and_refines_match_loop_references():
    rng = Rng(19)
    refined = 0
    for _ in range(300):
        n = 1 + rng.randint(8)
        G, H = random_partition(rng, n), random_partition(rng, n)
        lookup = loop_atom_of(G)
        assert G.atom_index.tolist() == [lookup[w] for w in range(n)]
        assert [G.atom_of(w) for w in range(n)] == [lookup[w] for w in range(n)]
        assert not G.atom_index.flags.writeable
        vals = rng.uniforms(G.n_atoms, -3.0, 3.0)
        want = np.empty(n)
        for a, atom in enumerate(G.atoms):
            want[list(atom)] = vals[a]
        assert G.expand(vals).tobytes() == want.tobytes()
        assert G.expand(tuple(vals.tolist())).tobytes() == want.tobytes()
        meet: dict = {}
        for w in range(n):
            meet.setdefault((G.atom_of(w), H.atom_of(w)), []).append(w)
        M = Partition(n, tuple(map(tuple, meet.values())))
        for fine, coarse in ((M, G), (M, H), (Partition.singletons(n), G), (G, Partition.trivial(n))):
            assert refines(fine, coarse) and loop_refines(fine, coarse)
        for fine, coarse in ((G, H), (H, G), (G, M), (Partition.trivial(n), G)):
            assert refines(fine, coarse) == loop_refines(fine, coarse)
            refined += refines(fine, coarse)
    assert 50 <= refined <= 1000  # both answers occur among the open pairs


def test_conditional_expectation_matches_the_atom_loop():
    """Atom masses and sums accumulate in another order than the per-atom
    dot products, so they agree to a few units in the last place."""
    rng = Rng(23)
    nulls = 0
    for _ in range(200):
        n = 1 + rng.randint(8)
        G = random_partition(rng, n)
        Q = DiscreteMeasure(rng.simplex(n) * (rng.uniforms(n) < 0.7) + (np.arange(n) == 0))
        Q = Q.normalized()
        Z = RandomVariable(rng.uniforms(n, -5.0, 5.0))
        want = np.empty(n)
        for atom in G.atoms:
            idx = list(atom)
            mass = float(Q.weights[idx].sum())
            want[idx] = float(Q.weights[idx] @ Z.values[idx]) / mass if mass > 0.0 else -np.inf
        got = conditional_expectation(Z, Q, G)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        nulls += bool(np.isneginf(want).any())
        live = np.isfinite(want)
        assert np.abs(got[live] - want[live]).max(initial=0.0) <= 1e-14 * 5.0
    assert nulls >= 20


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_tower_property(n, seed):
    """E[ E[Z | fine] | coarse ] equals E[Z | coarse] for positive Q."""
    rnd = np.random.default_rng(seed)
    q = rnd.uniform(0.1, 1.0, size=n)
    Q = DiscreteMeasure(q / q.sum())
    Z = RandomVariable(rnd.uniform(-5, 5, size=n))
    cut = sorted(rnd.choice(range(1, n), size=min(2, n - 1), replace=False))
    bounds = [0] + list(cut) + [n]
    coarse = Partition(n, tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))
    fine = Partition.singletons(n)
    inner = conditional_expectation(Z, Q, fine)
    outer = conditional_expectation(RandomVariable(inner), Q, coarse)
    direct = conditional_expectation(Z, Q, coarse)
    assert outer == pytest.approx(direct, abs=1e-9)


def test_conditional_translation_equivariance_on_positive_atoms():
    Q = DiscreteMeasure([0.1, 0.2, 0.3, 0.4])
    G = Partition(4, ((0, 1), (2, 3)))
    Z = RandomVariable([1.0, -2.0, 0.5, 3.0])
    Y = G.expand([2.0, -1.0])  # G-measurable shift
    lhs = conditional_expectation(RandomVariable(Z.values + Y), Q, G)
    rhs = conditional_expectation(Z, Q, G) + Y
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tree_filtration_binary_depth_two():
    tree = ScenarioTree.from_branching([2, 2])
    # nodes are numbered in preorder, leaves listed depth-first
    assert [v.children for v in tree.nodes] == [(1, 4), (2, 3), (), (), (5, 6), (), ()]
    assert tree.leaves == (2, 3, 5, 6)
    filt = tree_filtration(tree)
    assert filt.horizon == 3
    assert filt.stages[0].atoms == ((0, 1, 2, 3),)
    assert filt.stages[1].atoms == ((0, 1), (2, 3))
    assert filt.stages[2].atoms == ((0,), (1,), (2,), (3,))
    assert filt.is_complete


def test_tree_filtration_chain():
    tree = ScenarioTree.from_branching([1, 1, 1])
    filt = tree_filtration(tree)
    assert all(p.atoms == ((0,),) for p in filt.stages)


def test_tree_filtration_ternary():
    tree = ScenarioTree.from_branching([3, 3])
    filt = tree_filtration(tree)
    assert len(tree.leaves) == 9
    assert filt.stages[1].n_atoms == 3
    assert all(len(a) == 3 for a in filt.stages[1].atoms)


def ancestor_walk_filtration(tree):
    """The filtration built by walking every leaf up to its stage-t ancestor,
    stage by stage: the definition, at quadratic cost in the depth."""
    leaves = tree.leaves
    stages = []
    for t in range(1, tree.depth + 1):
        groups = {}
        for k, leaf in enumerate(leaves):
            groups.setdefault(tree.ancestor_at_stage(leaf, t), []).append(k)
        stages.append(Partition(len(leaves), tuple(tuple(g) for _, g in sorted(groups.items()))))
    return Filtration(tuple(stages))


def test_tree_filtration_matches_ancestor_walk():
    from drokit.schema import load_problem_file

    golden = os.path.join(GOLDEN, "conditional_composite.json")
    trees = [ScenarioTree.from_branching(b) for b in ([2, 2], [1, 1, 1], [3, 3], [3, 1, 2], [2])]
    trees += list(load_problem_file(golden).trees.values())
    for tree in trees:
        assert tree_filtration(tree) == ancestor_walk_filtration(tree)
    chain = ScenarioTree.from_branching([1] * 3999)
    filt = tree_filtration(chain)
    assert filt.horizon == 4000
    assert filt.stages == (Partition(1, ((0,),)),) * 4000


def test_tree_from_a_level_order_parent_array():
    tree = ScenarioTree((None, 0, 0, 1, 1, 2, 2))
    assert [v.stage for v in tree.nodes] == [1, 2, 2, 3, 3, 3, 3]
    assert [v.children for v in tree.nodes] == [(1, 2), (3, 4), (5, 6), (), (), (), ()]
    assert tree.root.index == 0 and tree.depth == 3
    assert tree.leaves == (3, 4, 5, 6)
    assert tree == ScenarioTree([None, 0, 0, 1, 1, 2, 2])


BAD_PARENTS = {
    "root not first": (0, None, 1),
    "parent after its child": (None, 2, 0, 1),
    "two roots": (None, 0, None, 1, 2),
    "leaf above the final stage": (None, 0, 0, 1),
}


@pytest.mark.parametrize("parents", BAD_PARENTS.values(), ids=BAD_PARENTS.keys())
def test_bad_parent_arrays_raise_and_exit_2(tmp_path, capsys, parents):
    from drokit.cli import main

    with pytest.raises(ValidationError):
        ScenarioTree(parents)
    with open(os.path.join(GOLDEN, "conditional_composite.json")) as fh:
        doc = json.load(fh)
    doc["trees"]["explicit"]["parents"] = parents
    bad = tmp_path / "bad_tree.json"
    bad.write_text(json.dumps(doc))
    argv = ["eval-composite", str(bad), "--rv", "zigzag", "--set", "avar_half", "--filtration", "steps"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


def test_metric_axioms_hold_in_any_unit():
    """The axioms are checked relative to the largest distance: rounding in
    a line metric passes at every scale, and a triangle excess of 1e-6
    relative fails at every scale."""
    rng = Rng(5)
    lines = []
    for _ in range(40):
        x = rng.uniforms(8, 0.0, 1.0)
        lines.append(np.abs(np.subtract.outer(x, x)))
    bent = np.array([[0.0, 1.0, 2.000002], [1.0, 0.0, 1.0], [2.000002, 1.0, 0.0]])
    for scale in (1e-8, 1.0, 1e8):
        for d in lines:
            FiniteSpace(8, metric=d * scale)
        with pytest.raises(ValidationError, match="triangle"):
            FiniteSpace(3, metric=bent * scale)


def bent_metric(d01):
    """Four points whose largest distance is 4, where d[0, 1] = ``d01`` and
    the only triangle that can bind is d[0, 1] <= d[0, 2] + d[2, 1] = 2."""
    return np.array([
        [0.0, d01, 1.0, 3.0],
        [d01, 0.0, 1.0, 3.0],
        [1.0, 1.0, 0.0, 4.0],
        [3.0, 3.0, 4.0, 0.0],
    ])


def violating_k(d, tol):
    """The k through which some d[i, j] > d[i, k] + d[k, j] + tol, by loops."""
    n = len(d)
    return {k for i, j, k in itertools.product(range(n), repeat=3) if d[i, j] > d[i, k] + d[k, j] + tol}


@pytest.mark.parametrize("cells", [1, 32, 48, 1 << 18])
@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 0, 1, 2)])
def test_triangle_check_decides_per_k_at_every_chunk_size(cells, order, monkeypatch):
    """A violation through one k only is caught whichever chunk holds that
    k, and a triangle sitting exactly at the tolerance passes."""
    monkeypatch.setattr(spaces, "_TRIANGLE_CELLS", cells)
    tol = ATOL * 4.0
    at_tol = (1.0 + 1.0) + tol
    perm = np.ix_(order, order)
    bad = bent_metric(2.5)[perm]
    assert violating_k(bad, tol) == {order.index(2)}
    with pytest.raises(ValidationError, match="triangle"):
        FiniteSpace(4, metric=bad)
    assert violating_k(bent_metric(at_tol)[perm], tol) == set()
    FiniteSpace(4, metric=bent_metric(at_tol)[perm])
    with pytest.raises(ValidationError, match="triangle"):
        FiniteSpace(4, metric=bent_metric(np.nextafter(at_tol, np.inf))[perm])


def test_filtration_must_refine():
    bad = (Partition.trivial(4), Partition(4, ((0, 1), (2, 3))), Partition(4, ((0, 2), (1, 3))))
    with pytest.raises(ValidationError):
        Filtration(bad)


def test_measure_clips_solver_dust_but_rejects_negatives():
    m = DiscreteMeasure([1.0, -1e-12])
    assert m.weights[1] == 0.0
    with pytest.raises(ValidationError):
        DiscreteMeasure([1.0, -1e-3])
