"""Weighted independence systems, Frobenius numbers, and the one-call strategy."""

import itertools
import random

import pytest

from latticeopt.indepsys import (
    IndependenceSystem,
    PrimitiveTuple,
    WeightProfile,
    frobenius,
    min_below,
    naive_strategy,
    r_bound,
)


# ---------------------------------------------------------------------------
# oracles

def brute_frobenius(vals, bound):
    """Largest non-representable integer, by saturating sums from zero."""
    reach = {0}
    changed = True
    while changed:
        changed = False
        for r in list(reach):
            for v in vals:
                s = r + v
                if s <= bound and s not in reach:
                    reach.add(s)
                    changed = True
    missing = [i for i in range(bound + 1) if i not in reach]
    return max(missing) if missing else 0


def down_closure(gens):
    n = len(gens[0])
    return {x for x in itertools.product((0, 1), repeat=n)
            if any(all(a <= b for a, b in zip(x, g)) for g in gens)}


def random_generators(rng, n, k):
    return [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)]


def random_profile(rng, n, pool=((1, 2), (2, 3), (3, 5), (1, 2, 4), (2, 3, 5))):
    a = pool[rng.randrange(len(pool))]
    w = tuple(a[rng.randrange(len(a))] for _ in range(n))
    return WeightProfile(a, w)


def random_table(rng, top):
    vals = [rng.randint(0, 20) for _ in range(top + 1)]
    return lambda v: vals[v]


def brute_min_below(xbar, profile, f):
    supp = [j for j, v in enumerate(xbar) if v]
    best = None
    for bits in itertools.product((0, 1), repeat=len(supp)):
        x = [0] * profile.n
        for j, b in zip(supp, bits):
            x[j] = b
        val = f(profile.weight(x))
        if best is None or val < best:
            best = val
    return best


class Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def gap_instance(m):
    """Two disjoint half-supports, weights 1 and 2, f favoring odd totals.

    The heaviest member is the all-twos half, whose subcube only
    reaches even totals, so the m odd values 1, 3, ..., 2m-1 attained
    on the other half stay out of reach of the one-call strategy.
    """
    n = 4 * m
    y = (1,) * (2 * m) + (0,) * (2 * m)
    z = (0,) * (2 * m) + (1,) * (2 * m)
    system = IndependenceSystem.from_generators(n, (y, z))
    profile = WeightProfile((1, 2), (1,) * (2 * m) + (2,) * (2 * m))

    def f(k):
        return k if k % 2 else 2 * m

    return system, profile, f


# ---------------------------------------------------------------------------
# weight data

def test_primitive_tuple_basics():
    a = PrimitiveTuple((2, 3))
    assert a.p == 2
    assert list(a) == [2, 3]
    assert len(a) == 2


@pytest.mark.parametrize("bad", [(), (2, 4), (2, 2, 3), (0, 3), (-1, 2), (3,)])
def test_primitive_tuple_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        PrimitiveTuple(bad)


def test_divisible_chain_detection():
    assert PrimitiveTuple((1, 2, 4, 8)).divisible
    assert PrimitiveTuple((8, 2, 1, 4)).divisible
    assert PrimitiveTuple((1,)).divisible
    assert PrimitiveTuple((1, 3, 9)).divisible
    assert not PrimitiveTuple((2, 3)).divisible
    assert not PrimitiveTuple((2, 3, 5)).divisible


def test_weight_profile_classes_and_counts():
    prof = WeightProfile((1, 2), (1, 2, 1, 2, 2))
    assert prof.n == 5
    assert prof.classes == ((0, 2), (1, 3, 4))
    assert prof.lam((1, 1, 0, 0, 1)) == (1, 2)
    assert prof.weight((1, 1, 0, 0, 1)) == 5


def test_weight_identity_on_random_points():
    rng = random.Random(7)
    for _ in range(50):
        prof = random_profile(rng, rng.randint(1, 9))
        x = tuple(rng.randint(0, 1) for _ in range(prof.n))
        lam = prof.lam(x)
        assert prof.weight(x) == sum(l * a for l, a in zip(lam, prof.a))
        assert sum(lam) == sum(x)


def test_weight_profile_validation():
    with pytest.raises(ValueError):
        WeightProfile((1, 2), (1, 3))
    with pytest.raises(ValueError):
        WeightProfile((1, 2), ())
    prof = WeightProfile(PrimitiveTuple((1, 2)), (2, 2))
    assert prof.a.values == (1, 2)


# ---------------------------------------------------------------------------
# independence systems

def test_explicit_family_requires_down_closure():
    ok = IndependenceSystem.explicit({(0, 0), (1, 0), (0, 1), (1, 1)})
    assert ok.n == 2
    with pytest.raises(ValueError):
        IndependenceSystem.explicit({(1, 1), (0, 0)})
    with pytest.raises(ValueError):
        IndependenceSystem.explicit(set())
    with pytest.raises(ValueError):
        IndependenceSystem.explicit({(0, 0), (0, 0, 0)})
    with pytest.raises(ValueError):
        IndependenceSystem.explicit({(0, 2)})


def test_explicit_oracle_matches_enumeration():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 8)
        fam = down_closure(random_generators(rng, n, rng.randint(1, 3)))
        system = IndependenceSystem.explicit(fam)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        x = system.maximize(c)
        assert x in fam
        assert sum(ci * xi for ci, xi in zip(c, x)) == \
            max(sum(ci * yi for ci, yi in zip(c, y)) for y in fam)


def test_generator_oracle_matches_explicit():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 8)
        gens = random_generators(rng, n, rng.randint(1, 3))
        fam = down_closure(gens)
        lazy = IndependenceSystem.from_generators(n, gens)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        x = lazy.maximize(c)
        assert x in fam
        assert sum(ci * xi for ci, xi in zip(c, x)) == \
            max(sum(ci * yi for ci, yi in zip(c, y)) for y in fam)


def test_members_enumeration():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 7)
        gens = random_generators(rng, n, rng.randint(1, 3))
        lazy = IndependenceSystem.from_generators(n, gens)
        assert lazy.members() == frozenset(down_closure(gens))
    explicit = IndependenceSystem.explicit({(0, 0), (1, 0)})
    assert explicit.members() == frozenset({(0, 0), (1, 0)})


def test_members_unavailable_for_user_oracle():
    system = IndependenceSystem(2, lambda c: (0, 0))
    assert system.maximize((1, 1)) == (0, 0)
    with pytest.raises(ValueError):
        system.members()


def test_maximize_validates_shapes():
    system = IndependenceSystem(2, lambda c: (0,))
    with pytest.raises(ValueError):
        system.maximize((1, 1))
    crooked = IndependenceSystem(2, lambda c: (2, 0))
    with pytest.raises(ValueError):
        crooked.maximize((1, 1))
    honest = IndependenceSystem(2, lambda c: (0, 0))
    with pytest.raises(ValueError):
        honest.maximize((1, 1, 1))
    with pytest.raises(ValueError):
        IndependenceSystem.from_generators(2, [])
    with pytest.raises(ValueError):
        IndependenceSystem(0, lambda c: ())


# ---------------------------------------------------------------------------
# Frobenius numbers and the quality bound

def test_frobenius_known_values():
    assert frobenius((2, 3)) == 1
    assert frobenius((3, 5)) == 7
    assert frobenius((1, 7)) == 0
    assert frobenius((1, 2)) == 0
    assert frobenius((3, 5, 7)) == 4
    assert frobenius((6, 10, 15)) == 29
    assert frobenius((2, 3, 5)) == 1
    assert frobenius(PrimitiveTuple((2, 7))) == 5


@pytest.mark.parametrize("bad", [(2, 4), (2, 2, 3), (0, 1), (6, 10)])
def test_frobenius_rejects_non_primitive(bad):
    with pytest.raises(ValueError):
        frobenius(bad)


def test_frobenius_matches_independent_table():
    rng = random.Random(19)
    from math import gcd
    seen = 0
    while seen < 20:
        p = rng.randint(2, 4)
        vals = tuple(sorted(rng.sample(range(2, 13), p)))
        if gcd(*vals) != 1:
            continue
        seen += 1
        assert frobenius(vals) == brute_frobenius(vals, 2 * vals[0] * vals[-1])


def test_r_bound_cases():
    assert r_bound((2, 3)) == 1
    assert r_bound((1, 2, 4, 8)) == 0
    assert r_bound((2, 3, 5)) == 1000
    assert r_bound((3, 5)) == 7
    assert r_bound((1, 9)) == 0
    assert r_bound((1, 3, 9)) == 0
    assert r_bound((3, 5, 7)) == 14 ** 3


# ---------------------------------------------------------------------------
# the subcube minimization

def test_min_below_zero_point():
    prof = WeightProfile((1, 2), (1, 2, 2))
    f = Counter(lambda v: v)
    assert min_below((0, 0, 0), prof, f) == (0, 0, 0)
    assert f.calls == 1


def test_min_below_matches_subset_enumeration():
    rng = random.Random(23)
    for _ in range(30):
        prof = random_profile(rng, rng.randint(1, 9))
        xbar = tuple(rng.randint(0, 1) for _ in range(prof.n))
        f = random_table(rng, prof.weight(xbar))
        x = min_below(xbar, prof, f)
        assert all(a <= b for a, b in zip(x, xbar))
        assert f(prof.weight(x)) == brute_min_below(xbar, prof, f)


def test_min_below_keeps_class_prefixes():
    rng = random.Random(29)
    for _ in range(20):
        prof = random_profile(rng, rng.randint(2, 9))
        xbar = tuple(rng.randint(0, 1) for _ in range(prof.n))
        f = random_table(rng, prof.weight(xbar))
        x = min_below(xbar, prof, f)
        for Ni in prof.classes:
            kept = [j for j in Ni if xbar[j]]
            taken = [j for j in Ni if x[j]]
            assert taken == kept[:len(taken)]
    # ties keep the earliest count vector, so class 2 supplies weight 2
    prof = WeightProfile((1, 2), (1, 1, 2))
    assert min_below((1, 1, 1), prof, lambda v: abs(v - 2)) == (0, 0, 1)


def test_min_below_query_budget():
    rng = random.Random(31)
    for _ in range(15):
        prof = random_profile(rng, rng.randint(1, 10),
                              pool=((1, 2), (2, 3, 5), (1, 2, 4)))
        xbar = tuple(rng.randint(0, 1) for _ in range(prof.n))
        expected = 1
        for t in prof.lam(xbar):
            expected *= t + 1
        f = Counter(random_table(rng, prof.weight(xbar)))
        min_below(xbar, prof, f)
        assert f.calls == expected
        table = random_table(rng, prof.weight(xbar))
        leq = Counter(lambda y, z, t=table: t(y) <= t(z))
        min_below(xbar, prof, leq=leq)
        assert leq.calls == expected - 1


def test_min_below_comparison_oracle_agrees():
    rng = random.Random(37)
    for _ in range(20):
        prof = random_profile(rng, rng.randint(1, 9))
        xbar = tuple(rng.randint(0, 1) for _ in range(prof.n))
        f = random_table(rng, prof.weight(xbar))
        by_value = min_below(xbar, prof, f)
        by_leq = min_below(xbar, prof, leq=lambda y, z: f(y) <= f(z))
        assert by_value == by_leq


def test_min_below_validation():
    prof = WeightProfile((1, 2), (1, 2))
    with pytest.raises(ValueError):
        min_below((0, 0), prof)
    with pytest.raises(ValueError):
        min_below((0, 0), prof, lambda v: v, leq=lambda y, z: True)
    with pytest.raises(ValueError):
        min_below((0, 2), prof, lambda v: v)
    with pytest.raises(ValueError):
        min_below((0,), prof, lambda v: v)


# ---------------------------------------------------------------------------
# the one-call strategy

def test_full_cube_increasing_objective():
    system = IndependenceSystem.from_generators(5, [(1, 1, 1, 1, 1)])
    prof = WeightProfile((1, 2), (1, 2, 1, 2, 2))
    x, report = naive_strategy(system, prof, lambda v: v)
    assert x == (0, 0, 0, 0, 0)
    assert report.best_weight == 0
    assert report.max_weight == 8
    assert report.x_max == (1, 1, 1, 1, 1)
    assert report.gap == 0


def test_gap_instance_structure():
    system, prof, f = gap_instance(2)
    x, report = naive_strategy(system, prof, f)
    assert report.x_max == (0, 0, 0, 0, 1, 1, 1, 1)
    assert report.max_weight == 8
    assert report.lower_image == (0, 2, 4, 6, 8)
    assert report.image == (0, 1, 2, 3, 4, 6, 8)
    assert f(report.best_weight) == 4
    assert report.better_values == (1, 3)
    assert report.gap == 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gap_instance_scales(m):
    system, prof, f = gap_instance(m)
    _, report = naive_strategy(system, prof, f)
    assert report.gap == m
    assert report.better_values == tuple(range(1, 2 * m, 2))


def test_strategy_reports_exact_gap_on_random_families():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 9)
        fam = down_closure(random_generators(rng, n, rng.randint(1, 3)))
        system = IndependenceSystem.explicit(fam)
        prof = random_profile(rng, n)
        f = random_table(rng, sum(prof.weights))
        x, report = naive_strategy(system, prof, f)
        assert x in fam
        image = sorted({prof.weight(y) for y in fam})
        assert report.image == tuple(image)
        assert set(report.lower_image) <= set(image)
        assert set(image) <= set(range(report.max_weight + 1))
        assert report.max_weight == image[-1]
        best = f(report.best_weight)
        assert report.better_values == tuple(v for v in image if f(v) < best)
        assert (report.gap == 0) == (best == min(f(v) for v in image))
        assert best == min(f(v) for v in report.lower_image)


def test_divisible_tuple_not_shielded_from_gaps():
    # the recoverable quality for divisible tuples (r_bound 0) needs the
    # partition refinement; one oracle call can still miss odd totals
    system = IndependenceSystem.explicit({(0, 0), (1, 0), (0, 1)})
    prof = WeightProfile((1, 2), (1, 2))
    table = {0: 5, 1: 0, 2: 7}
    x, report = naive_strategy(system, prof, table.__getitem__)
    assert report.x_max == (0, 1)
    assert report.lower_image == (0, 2)
    assert report.better_values == (1,)
    assert report.gap == 1
    # whenever the subcube of the heaviest member spans the whole image,
    # the strategy is exact; single-generator families always qualify
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(2, 8)
        gens = random_generators(rng, n, 1)
        system = IndependenceSystem.from_generators(n, gens)
        prof = random_profile(rng, n, pool=((1, 2), (1, 2, 4), (1, 3, 9)))
        f = random_table(rng, sum(prof.weights))
        _, report = naive_strategy(system, prof, f)
        assert set(report.lower_image) == set(report.image)
        assert report.gap == 0


def test_strategy_with_comparison_oracle():
    system, prof, f = gap_instance(1)
    x_val, rep_val = naive_strategy(system, prof, f)
    x_leq, rep_leq = naive_strategy(system, prof, leq=lambda y, z: f(y) <= f(z))
    assert x_val == x_leq
    assert rep_val == rep_leq


def test_strategy_validation_and_lying_oracles():
    system = IndependenceSystem.explicit({(0, 0), (1, 0), (0, 1)})
    prof = WeightProfile((1, 2), (1, 2))
    with pytest.raises(ValueError):
        naive_strategy(system, prof)
    with pytest.raises(ValueError):
        naive_strategy(system, prof, lambda v: v, leq=lambda y, z: True)
    with pytest.raises(ValueError):
        naive_strategy(system, WeightProfile((1, 2), (1, 2, 2)), lambda v: v)
    system._oracle = lambda c: (0, 0)
    with pytest.raises(RuntimeError):
        naive_strategy(system, prof, lambda v: v)


def test_image_sandwich_on_generator_systems():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 9)
        gens = random_generators(rng, n, rng.randint(1, 3))
        system = IndependenceSystem.from_generators(n, gens)
        prof = random_profile(rng, n)
        _, report = naive_strategy(system, prof, lambda v: v)
        image = set(report.image)
        assert set(report.lower_image) <= image
        assert image <= set(range(report.max_weight + 1))
        assert report.best_weight == 0
