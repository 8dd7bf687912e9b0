"""Conditional worst-case functional tests."""

import dataclasses
import warnings

import numpy as np
import pytest

from drokit.ambiguity import AVaRSet, FiniteFamily, MomentSet, WassersteinBall, membership_system
from drokit.composite import UnreachableAtomError, composite_dominates_static
from drokit.conditional import (
    _conditional_values,
    conditional_avar_nested,
    conditional_robust,
    conditional_strict_monotonicity_check,
    has_property_p,
)
from drokit.lp import EQ, LinearProgram, linear_fractional_max, solve
from drokit.rng import Rng
from drokit.spaces import (
    DiscreteMeasure,
    Filtration,
    FiniteSpace,
    Partition,
    RandomVariable,
)

U4 = DiscreteMeasure.uniform(4)
G22 = Partition(4, ((0, 1), (2, 3)))
Z1527 = RandomVariable([1.0, 5.0, 2.0, 7.0])
TRIVIAL_G22 = Filtration((Partition.trivial(4), G22))  # the tower inequality's filtration


def full_simplex(n):
    return FiniteFamily(tuple(DiscreteMeasure.point_mass(n, i) for i in range(n)))


def line_space(n):
    return FiniteSpace(n, metric=np.abs(np.subtract.outer(range(n), range(n))).astype(float))


def test_full_simplex_gives_atom_max():
    cv = conditional_robust(full_simplex(4), Z1527, G22, U4)
    assert cv.atom_values == pytest.approx((5.0, 7.0))
    assert cv.te_holds
    assert cv.per_outcome() == pytest.approx([5.0, 5.0, 7.0, 7.0])


def test_trivial_partition_reduces_to_static():
    M = AVaRSet(0.3, U4)
    cv = conditional_robust(M, Z1527, Partition.trivial(4), U4)
    from drokit.ambiguity import robust_expectation

    static, _ = robust_expectation(M, Z1527)
    assert cv.atom_values[0] == pytest.approx(static, abs=1e-7)


def test_avar_set_atom_max_when_atoms_small():
    # P(atom) = 0.5 <= alpha = 0.5: property (P) holds and the conditional is
    # the atom maximum
    M = AVaRSet(0.5, U4)
    cv = conditional_robust(M, Z1527, G22, U4)
    assert cv.atom_values == pytest.approx((5.0, 7.0), abs=1e-7)
    assert has_property_p(M, G22)


def test_unreachable_atom_minus_inf_and_te():
    M = FiniteFamily((DiscreteMeasure([0.5, 0.5, 0.0, 0.0]),))
    cv = conditional_robust(M, Z1527, G22, U4)
    assert cv.atom_values[0] == pytest.approx(3.0)
    assert cv.atom_values[1] == float("-inf")
    assert not cv.te_holds


def charnes_cooper_atom_values(M, Z, G):
    """Reference atom values computed apart from ``conditional_robust``: one
    Charnes-Cooper LP per atom over the membership polytope, ``-inf`` where
    no member charges the atom."""
    sys = membership_system(M)
    values = []
    for atom in G.atoms:
        sel = np.zeros(M.n)
        sel[list(atom)] = 1.0
        res = linear_fractional_max(
            (Z.values * sel) @ sys.q_map, 0.0, sel @ sys.q_map, 0.0, sys.A, sys.senses, sys.b
        )
        values.append(float("-inf") if res is None else res.value)
    return tuple(values)


def test_fractional_path_matches_vertex_scan():
    rng = Rng(19)
    for _ in range(20):
        n = 4 + rng.randint(3)
        members = tuple(DiscreteMeasure(rng.simplex(n)) for _ in range(3))
        M = FiniteFamily(members)
        Z = RandomVariable(rng.uniforms(n, -3, 3))
        cut = 1 + rng.randint(n - 1)
        G = Partition(n, (tuple(range(cut)), tuple(range(cut, n))))
        P = DiscreteMeasure(rng.simplex(n))
        scan = conditional_robust(M, Z, G, P)
        frac = charnes_cooper_atom_values(M, Z, G)
        assert scan.atom_values == pytest.approx(frac, abs=1e-7)
        vertex = tuple(
            max(float(q.weights[list(a)] @ Z.values[list(a)]) / q.of(a) for q in members)
            for a in G.atoms
        )
        assert scan.atom_values == pytest.approx(vertex, abs=1e-12)


def test_conditional_matches_charnes_cooper_all_families():
    rng = Rng(53)
    for trial in range(12):
        n = 4 + rng.randint(3)
        space = line_space(n)
        P = DiscreteMeasure(rng.simplex(n))
        sets = [
            FiniteFamily(tuple(DiscreteMeasure(rng.simplex(n)) for _ in range(3))),
            AVaRSet(rng.uniform(0.0, 0.9), P),
            MomentSet(space, (RandomVariable(np.arange(n, dtype=float)),), (float(P.weights @ np.arange(n)),)),
            WassersteinBall(P, rng.uniform(0.05, 1.5), space),
        ]
        cuts = sorted({1 + rng.randint(n - 1), 1 + rng.randint(n - 1)})
        bounds = [0, *cuts, n]
        G = Partition(n, tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))
        Z = RandomVariable(rng.uniforms(n, -3, 3))
        if trial % 3 == 0:
            Z = RandomVariable(np.round(Z.values))  # ties
        for M in sets:
            got = conditional_robust(M, Z, G, P)
            assert got.atom_values == pytest.approx(charnes_cooper_atom_values(M, Z, G), abs=1e-7)


def test_zero_mass_atom_is_minus_inf_for_every_family():
    """An atom no member charges comes back ``-inf``, as the Charnes-Cooper
    LP (infeasible there) says, while the other atoms stay finite."""
    P = DiscreteMeasure([0.5, 0.5, 0.0, 0.0])
    sets = [
        FiniteFamily((P, DiscreteMeasure([0.2, 0.8, 0.0, 0.0]))),
        AVaRSet(0.6, P),
        MomentSet(FiniteSpace(4), (RandomVariable([0.0, 0.0, 1.0, 1.0]),), (0.0,)),
        WassersteinBall(P, 0.0, line_space(4)),
    ]
    for M in sets:
        got = conditional_robust(M, Z1527, G22, P)
        assert got.atom_values[1] == float("-inf")
        assert np.isfinite(got.atom_values[0])
        assert not got.te_holds
        assert got.atom_values == pytest.approx(charnes_cooper_atom_values(M, Z1527, G22), abs=1e-7)


def test_dinkelbach_reaches_a_member_that_barely_charges_the_atom():
    """The best member may put almost no mass on the atom: ``F(theta)`` is
    then tiny although ``theta`` is far from the supremum, so the iteration
    must stop on the rise of ``theta``, not on ``F``."""
    Z = RandomVariable([0.0, 0.0, 1.0])
    G = Partition(3, ((0,), (1, 2)))
    P = DiscreteMeasure.uniform(3)
    members = (DiscreteMeasure([0.5, 0.5, 0.0]), DiscreteMeasure([1 - 1e-13, 0.0, 1e-13]))
    vertex = tuple(
        max(float(q.weights[list(a)] @ Z.values[list(a)]) / q.of(a) for q in members if q.of(a) > 0)
        for a in G.atoms
    )
    assert vertex == (0.0, 1.0)
    assert conditional_robust(FiniteFamily(members), Z, G, P).atom_values == vertex
    # the indicator's best member puts 1e-5 on outcome 1 (Z = 0); emptying
    # outcome 1 and moving 9e-14 to outcome 2 (Z = 1) fits in the radius
    space = FiniteSpace(3, metric=np.array([[0.0, 1e-8, 1.0], [1e-8, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    M = WassersteinBall(DiscreteMeasure([1 - 1e-6, 1e-6, 0.0]), 1e-13, space)
    assert conditional_robust(M, Z, G, P).atom_values == (0.0, 1.0)


def test_tiny_positive_mass_keeps_the_atom_for_exact_oracles():
    """Finite families, AVaR sets and balls return exact measures, so an atom
    some member charges with a mass of at most 1e-9 is still live and gets
    its conditional supremum, here the largest value of ``Z`` on it."""
    Z = RandomVariable([0.0, 0.0, 1.0])
    G = Partition(3, ((0,), (1, 2)))
    P = DiscreteMeasure.uniform(3)
    sets = [
        FiniteFamily((DiscreteMeasure([1 - 1e-13, 0.0, 1e-13]),)),
        AVaRSet(0.5, DiscreteMeasure([1 - 2e-13, 1e-13, 1e-13])),
        WassersteinBall(DiscreteMeasure([1.0, 0.0, 0.0]), 1e-13, line_space(3)),
    ]
    for M in sets:
        got = conditional_robust(M, Z, G, P)
        assert got.atom_values == (0.0, 1.0)
        assert got.te_holds


def test_property_p_cases():
    assert has_property_p(full_simplex(4), G22)
    # singleton family with a two-outcome positive atom cannot zero a co-atom
    assert not has_property_p(FiniteFamily((U4,)), G22)
    # small-atom condition P(atom) <= alpha is sufficient but not necessary:
    # zeroing one outcome of a 0.5-mass atom only needs the co-outcome mass
    # (0.25) to fit under alpha
    assert has_property_p(AVaRSet(0.25, U4), G22)
    assert not has_property_p(AVaRSet(0.2, U4), G22)
    # transport balls: a radius of 2 lets either outcome take its atom's mass
    space = line_space(4)
    ball = WassersteinBall(DiscreteMeasure([0.4, 0.1, 0.1, 0.4]), 2.0, space)
    assert has_property_p(ball, G22)
    tight = WassersteinBall(DiscreteMeasure([0.4, 0.1, 0.1, 0.4]), 0.0, space)
    assert not has_property_p(tight, G22)
    # finite families: (P) reads Q(w) / Q(atom), not a mass, so a co-atom
    # mass of 5e-10 against 0.3 fails and a lone mass of 1e-12 on w holds
    rest = tuple(DiscreteMeasure(np.eye(4)[w]) for w in (1, 2, 3))
    near = DiscreteMeasure([0.3, 5e-10, 0.7 - 5e-10, 0.0])
    assert not has_property_p(FiniteFamily((near, *rest)), G22)
    lone = DiscreteMeasure([1e-12, 0.0, 1.0 - 1e-12, 0.0])
    assert has_property_p(FiniteFamily((lone, *rest)), G22)


def pinned_outcome_property_p(M, G):
    """Reference decision of (P) apart from the oracle: per atom and outcome
    ``w``, the membership LP maximizing ``Q(w)`` with the rest of the atom
    pinned to zero; (P) fails where it is infeasible or at most 1e-9."""
    sys = membership_system(M)
    for atom in G.atoms:
        for w in atom:
            pinned = sys.q_map[[i for i in atom if i != w]]
            sol = solve(
                LinearProgram(
                    c=sys.q_map[w],
                    A=np.vstack([sys.A, pinned]),
                    senses=sys.senses + (EQ,) * len(pinned),
                    b=np.concatenate([sys.b, np.zeros(len(pinned))]),
                    maximize=True,
                )
            )
            assert sol.status in ("optimal", "infeasible")
            if not sol.optimal or sol.value <= 1e-9:
                return False
    return True


def random_partition(rng, n):
    cuts = sorted({1 + rng.randint(n - 1), 1 + rng.randint(n - 1)})
    bounds = [0, *cuts, n]
    return Partition(n, tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))


def random_sets(rng, n):
    """One set of each family, two-moment sets included, drawn so that (P)
    comes out both ways: sparse members, small and large levels and radii,
    targets anywhere in the range of ``psi``."""
    space = line_space(n)
    P = DiscreteMeasure(rng.simplex(n))
    sparse = []
    for _ in range(1 + rng.randint(4)):
        q = rng.simplex(n) * (rng.uniforms(n, 0.0, 1.0) < 0.5)
        sparse.append(DiscreteMeasure(q / q.sum() if q.sum() > 0 else np.eye(n)[rng.randint(n)]))
    psi = np.round(rng.uniforms(n, -1.0, 2.0), 1)
    second = rng.uniforms(n, -1.0, 1.0)
    Q = rng.simplex(n)
    return {
        "finite": FiniteFamily(tuple(sparse)),
        "avar": AVaRSet(rng.uniform(0.0, 0.95), P),
        "ball": WassersteinBall(P, rng.uniform(0.0, 2.5), space),
        "moment": MomentSet(FiniteSpace(n), (RandomVariable(psi),), (float(Q @ psi),)),
        "two_moments": MomentSet(
            FiniteSpace(n),
            (RandomVariable(psi), RandomVariable(second)),
            (float(Q @ psi), float(Q @ second)),
        ),
    }


def test_property_p_matches_pinned_outcome_lp():
    rng = Rng(67)
    seen = {}
    for _ in range(25):
        n = 3 + rng.randint(3)
        G = random_partition(rng, n)
        for kind, M in random_sets(rng, n).items():
            got = has_property_p(M, G)
            assert got == pinned_outcome_property_p(M, G), kind
            seen.setdefault(kind, set()).add(got)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def test_property_p_holds_with_a_tiny_positive_mass():
    """The member ``(1 - 8e-13, 0, 8e-13)`` charges outcome 2 and vanishes on
    outcome 1, the rest of its atom; AVaR sets are exact, so a mass far
    below 1e-9 still witnesses (P)."""
    M = AVaRSet(0.5, DiscreteMeasure([0.5, 0.5 - 4e-13, 4e-13]))
    assert has_property_p(M, Partition(3, ((0,), (1, 2))))


def test_batched_conditional_values_match_row_by_row():
    rng = Rng(71)
    n = 5
    G = Partition(n, ((0, 1), (2,), (3, 4)))
    P = DiscreteMeasure([0.3, 0.3, 0.0, 0.2, 0.2])  # no mass on atom {2}
    sets = [*random_sets(rng, n).values(), FiniteFamily((P,)), AVaRSet(0.4, P)]
    Z = rng.uniforms(3 * 4 * n, -2.0, 2.0).reshape(3, 4, n)
    Z[1, 2] = 0.5  # all outcomes tied
    for M in sets:
        values = _conditional_values(M, Z, G)
        assert values.shape == (3, 4, G.n_atoms)
        for idx in np.ndindex(3, 4):
            row = conditional_robust(M, RandomVariable(Z[idx]), G, DiscreteMeasure.uniform(n))
            assert tuple(values[idx]) == row.atom_values
    assert np.all(_conditional_values(AVaRSet(0.4, P), Z, G)[..., 1] == float("-inf"))


def test_flat_pairs_take_their_constant_without_the_oracle(monkeypatch):
    """A row constant on an atom has that constant as its conditional value,
    exactly; on a two-moment set, where each oracle row is an LP, (P) pays
    for the (outcome, own atom) pairs only, and a pair whose theta has
    reached 1, the largest value of its unit vector, makes no further step."""
    import drokit.conditional

    M = FiniteFamily((DiscreteMeasure([0.1, 0.2, 0.3, 0.4]), DiscreteMeasure([0.7, 0.1, 0.1, 0.1])))
    values = _conditional_values(M, np.array([[0.1, 0.1, 2.0, -1.0], [3.0, 1.0, 0.3, 0.3]]), G22)
    assert values[0, 0] == 0.1 and values[1, 1] == 0.3
    rng = Rng(9)
    n = 8
    psi, second, Q = rng.uniforms(n, -1, 2), rng.uniforms(n, -1, 1), rng.simplex(n)
    M = MomentSet(
        FiniteSpace(n), (RandomVariable(psi), RandomVariable(second)), (Q @ psi, Q @ second)
    )
    rows = []
    original = drokit.conditional.worst_case

    def counting(M, Z):
        rows.append(len(Z))
        return original(M, Z)

    monkeypatch.setattr(drokit.conditional, "worst_case", counting)
    assert has_property_p(M, Partition(n, ((0, 1, 2), (3, 4), (5, 6, 7))))
    # 3 atom indicators, then Dinkelbach steps for the 8 own-atom pairs; the
    # 16 pairs whose unit vector is zero on the atom make none
    assert rows[0] == 3 and sum(rows) <= 13


def test_property_p_implies_reference_free_atom_max():
    rng = Rng(23)
    M = AVaRSet(0.5, U4)
    assert has_property_p(M, G22)
    base = conditional_robust(M, Z1527, G22, U4).atom_values
    for _ in range(5):
        P2 = DiscreteMeasure(rng.simplex(4))
        again = conditional_robust(M, Z1527, G22, P2).atom_values
        assert again == pytest.approx(base, abs=1e-7)


def test_nested_avar_alpha_zero_is_conditional_mean():
    cv = conditional_avar_nested(AVaRSet(0.0, U4), Z1527, G22)
    assert cv.atom_values == pytest.approx((3.0, 4.5))


def test_nested_avar_near_one_is_atom_max():
    cv = conditional_avar_nested(AVaRSet(0.99, U4), Z1527, G22)
    assert cv.atom_values == pytest.approx((5.0, 7.0))


def test_nested_avar_half_uniform():
    cv = conditional_avar_nested(AVaRSet(0.5, U4), Z1527, G22)
    assert cv.atom_values == pytest.approx((5.0, 7.0))


def test_nested_avar_null_atom():
    P = DiscreteMeasure([0.5, 0.5, 0.0, 0.0])
    cv = conditional_avar_nested(AVaRSet(0.5, P), Z1527, G22)
    assert cv.atom_values[1] == float("-inf")
    assert not cv.te_holds


def test_level_one_conditional_is_the_atom_maximum_on_the_support():
    """At alpha = 1 each atom's value is the largest Z on the atom's outcomes
    that the reference charges; an atom it does not charge gets -inf."""
    from drokit.verify import rand_partition

    rng = Rng(37)
    for k in range(40):
        n = 2 + rng.randint(6)
        p = rng.simplex(n)
        if k % 2:
            p[rng.subset(n)[: n // 2]] = 0.0
        P = DiscreteMeasure(p / p.sum())
        G = rand_partition(rng, n)
        Z = RandomVariable(rng.uniforms(n, -1.0, 1.0))
        got = conditional_robust(AVaRSet(1.0, P), Z, G, P).atom_values
        want = [max((Z.values[w] for w in atom if p[w] > 0.0), default=-np.inf) for atom in G.atoms]
        assert list(got) == want


def test_stored_discrepancy_witness():
    """Worst-case conditional and nested AVaR genuinely differ."""
    from drokit.verify import witness_conditional_discrepancy

    M, nested_set, Z, G, P = witness_conditional_discrepancy()
    ess = conditional_robust(M, Z, G, P)
    nested = conditional_avar_nested(nested_set, Z, G)
    assert ess.atom_values == pytest.approx((5.0, 7.0), abs=1e-7)
    assert nested.atom_values == pytest.approx((3.0, 4.5))
    assert max(
        abs(a - b) for a, b in zip(ess.atom_values, nested.atom_values)
    ) > 1e-3


def test_conditional_translation_equivariance_when_te_holds():
    rng = Rng(29)
    M = AVaRSet(0.4, U4)
    Y = G22.expand([0.7, -1.3])
    for _ in range(10):
        Z = RandomVariable(rng.uniforms(4, -2, 2))
        base = conditional_robust(M, Z, G22, U4)
        shifted = conditional_robust(M, RandomVariable(Z.values + Y), G22, U4)
        assert base.te_holds
        assert shifted.per_outcome() == pytest.approx(base.per_outcome() + Y, abs=1e-7)


def test_singleton_partition_returns_z_on_reachable():
    M = AVaRSet(0.5, U4)
    cv = conditional_robust(M, Z1527, Partition.singletons(4), U4)
    assert cv.per_outcome() == pytest.approx(Z1527.values, abs=1e-7)


def test_tower_upper_bound_randomized():
    rng = Rng(31)
    space = line_space(4)
    for _ in range(10):
        P = DiscreteMeasure(rng.simplex(4))
        sets = [
            FiniteFamily(tuple(DiscreteMeasure(rng.simplex(4)) for _ in range(3))),
            AVaRSet(rng.uniform(0.0, 0.9), P),
            WassersteinBall(P, rng.uniform(0.05, 1.0), space),
        ]
        Z = RandomVariable(rng.uniforms(4, -3, 3))
        for M in sets:
            assert composite_dominates_static(M, TRIVIAL_G22, Z, P).holds


def test_tower_check_rejects_unreachable():
    M = FiniteFamily((DiscreteMeasure([0.5, 0.5, 0.0, 0.0]),))
    with pytest.raises(UnreachableAtomError):
        composite_dominates_static(M, TRIVIAL_G22, Z1527, U4)


def test_conditional_strict_monotonicity_battery():
    M = FiniteFamily((DiscreteMeasure([0.5, 0.5]), DiscreteMeasure([0.7, 0.3])))
    G = Partition.singletons(2)
    rep = conditional_strict_monotonicity_check(M, G, DiscreteMeasure.uniform(2), 200, Rng(37))
    assert rep.checked
    assert rep.violations == 0


def test_conditional_strict_monotonicity_singleton_reference():
    M = FiniteFamily((DiscreteMeasure.uniform(3),))
    G = Partition(3, ((0, 1), (2,)))
    rep = conditional_strict_monotonicity_check(M, G, DiscreteMeasure.uniform(3), 100, Rng(41))
    assert rep.checked and rep.violations == 0
    # no member charges atom {2}: both of its values are -inf, their
    # difference is nan and counts as no violation, without a warning
    P = DiscreteMeasure([0.5, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = conditional_strict_monotonicity_check(FiniteFamily((P,)), G, P, 20, Rng(5))
    assert rep.checked and rep.violations == 0


def loop_violations(M, G, P, trials, rng, epsilon):
    """The battery's violation count, one trial and one atom at a time, on
    the same draws and the same batched conditional values."""
    positive = [i for i in range(M.n) if P.weights[i] > 0.0]
    Z = np.empty((2, trials, M.n))
    bumps = []
    for k in range(trials):
        Z[:, k] = rng.uniforms(M.n, -2.0, 2.0)
        bump_set = [positive[i] for i in rng.subset(len(positive))]
        gamma = rng.uniform(0.1, 1.0)
        Z[1, k, bump_set] += gamma
        bumps.append((bump_set, gamma))
    values = _conditional_values(M, Z, G)
    violations = 0
    for (bump_set, gamma), old, new in zip(bumps, values[0].tolist(), values[1].tolist()):
        for a, atom in enumerate(G.atoms):
            delta = new[a] - old[a]
            if delta < -1e-9:
                violations += 1
                continue
            meets = P.weights[[i for i in atom if i in bump_set]].sum()
            if meets > 0.0 and delta < gamma * epsilon - 1e-7:
                violations += 1
    return violations


@pytest.mark.parametrize("epsilon", [None, 0.3, 1.0])
def test_strict_monotonicity_violations_match_the_per_atom_loop(monkeypatch, epsilon):
    """The array count equals the loop count. The set's own epsilon gives
    none; an inflated epsilon makes bumps that meet an atom fall short, so
    the count also checks which atoms a bump meets."""
    import drokit.conditional as conditional
    from drokit.verify import SET_KINDS, rand_ambiguity_set, rand_partition

    real = conditional.is_strictly_monotone

    def inflated(M, P):
        base = real(M, P)
        return base if epsilon is None else dataclasses.replace(base, epsilon=epsilon)

    monkeypatch.setattr(conditional, "is_strictly_monotone", inflated)
    rng = Rng(61)
    checked = total = 0
    for i in range(40):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, SET_KINDS[i % 4])
        G = rand_partition(rng, n)
        P = DiscreteMeasure(rng.simplex(n) * (rng.uniforms(n) < 0.8))  # may miss outcomes
        P = P.normalized() if P.total_mass > 0.0 else DiscreteMeasure.uniform(n)
        seed = rng.randint(1 << 30)
        rep = conditional_strict_monotonicity_check(M, G, P, 25, Rng(seed))
        if not rep.checked:
            continue
        checked += 1
        total += rep.violations
        assert rep.violations == loop_violations(M, G, P, 25, Rng(seed), rep.epsilon), i
    assert checked >= 12
    assert (total == 0) == (epsilon is None)


def test_tower_check_holds_in_the_units_of_z():
    """On trivial and singleton partitions both sides of the tower
    inequality are one worst case, equal up to rounding; with Z scaled by
    1e8 the rounding exceeds 1e-9 absolute, not 1e-9 max|Z|."""
    from drokit.verify import SET_KINDS, rand_ambiguity_set

    rng = Rng(1)
    for i in range(80):
        n = 3 + rng.randint(4)
        M = rand_ambiguity_set(rng, n, SET_KINDS[i % 4])
        Z = RandomVariable(1e8 * rng.uniforms(n, -3.0, 3.0))
        G = Partition.singletons(n) if i % 2 else Partition.trivial(n)
        P = DiscreteMeasure(rng.simplex(n))
        F = Filtration((Partition.trivial(n), G))
        assert composite_dominates_static(M, F, Z, P).holds, i


def test_conditional_strict_monotonicity_skipped_when_not_strict():
    M = FiniteFamily((DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 1.0])))
    rep = conditional_strict_monotonicity_check(
        M, Partition.singletons(2), DiscreteMeasure.uniform(2), 50, Rng(43)
    )
    assert not rep.checked
    assert "skipped" in rep.note


def test_conditional_fractional_dominates_sampled_members():
    """The per-atom value upper-bounds the conditional mean of every sampled
    member and is attained up to tolerance by the best of many samples on
    small instances."""
    from drokit.ambiguity import sample_measures

    rng = Rng(47)
    space = line_space(4)
    sets = [
        AVaRSet(0.4, DiscreteMeasure(rng.simplex(4))),
        WassersteinBall(DiscreteMeasure(rng.simplex(4)), 0.5, space),
        MomentSet(space, (RandomVariable([0.0, 1.0, 2.0, 3.0]),), (1.3,)),
    ]
    for M in sets:
        Z = RandomVariable(rng.uniforms(4, -2, 2))
        cond = conditional_robust(M, Z, G22, DiscreteMeasure.uniform(4))
        members = sample_measures(M, 60, rng)
        for a, atom in enumerate(G22.atoms):
            idx = list(atom)
            best = float("-inf")
            for q in members:
                mass = float(q.weights[idx].sum())
                if mass > 1e-9:
                    best = max(best, float(q.weights[idx] @ Z.values[idx]) / mass)
            assert best <= cond.atom_values[a] + 1e-7


def test_moment_set_conditional_via_fractional():
    grid = FiniteSpace(3)
    M = MomentSet(grid, (RandomVariable([0.0, 0.5, 1.0]),), (0.3,))
    cv = conditional_robust(
        M,
        RandomVariable([1.0, 4.0, 2.0]),
        Partition(3, ((0, 1), (2,))),
        DiscreteMeasure.uniform(3),
    )
    # atom {0,1}: with q2 in [0, 0.3], q1 = 0.6 - 2 q2 and q0 = 0.4 + q2, the
    # ratio (q0 + 4 q1)/(q0 + q1) = (2.8 - 7 q2)/(1 - q2) peaks at q2 = 0
    assert cv.atom_values[0] == pytest.approx(2.8, abs=1e-7)
    assert cv.atom_values[1] == pytest.approx(2.0, abs=1e-7)


@pytest.mark.parametrize("scale", [1e-8, 1e4, 1e8])
def test_positive_homogeneity_at_extreme_scales(scale):
    """Static and conditional values scale with ``Z`` on AVaR sets and
    transport balls, far outside the unit range of the other tests."""
    from drokit.ambiguity import robust_expectation

    rng = Rng(61)
    n = 8
    for _ in range(40):
        P = DiscreteMeasure(rng.simplex(n))
        pts = np.sort(rng.uniforms(n, 0.0, 2.0))
        space = FiniteSpace(n, metric=np.abs(np.subtract.outer(pts, pts)))
        cuts = sorted({1 + rng.randint(n - 1), 1 + rng.randint(n - 1)})
        bounds = [0, *cuts, n]
        G = Partition(n, tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))
        Z = rng.uniforms(n, -1.0, 1.0)
        tol = 1e-9 * scale * float(np.abs(Z).max())
        for M in (AVaRSet(rng.uniform(0.0, 0.9), P), WassersteinBall(P, rng.uniform(0.05, 1.0), space)):
            base, _ = robust_expectation(M, RandomVariable(Z))
            scaled, _ = robust_expectation(M, RandomVariable(scale * Z))
            assert scaled == pytest.approx(scale * base, rel=0, abs=tol)
            base_atoms = np.array(conditional_robust(M, RandomVariable(Z), G, P).atom_values)
            scaled_atoms = conditional_robust(M, RandomVariable(scale * Z), G, P).atom_values
            assert scaled_atoms == pytest.approx(tuple(scale * base_atoms), rel=0, abs=tol)
