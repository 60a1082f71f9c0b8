import bisect
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinset import ideals
from thinset.ideals import (FiniteSet, Geometric, IdealDescriptor, Outcome,
                            Progression, Shifted, UnionSet, certified_disjoint,
                            density_estimate, descriptor_from_json,
                            ideal_member, non_snt_witness, parse_ideal,
                            prefix_density, translation_invariant_in)


class TestDescriptors:
    def test_finite(self):
        s = FiniteSet([3, 1, 2, 2])
        assert list(s.iter_members()) == [1, 2, 3]
        assert s.count_upto(2) == 2
        assert s.contains(2) and not s.contains(5)
        assert s.growth().density == 0

    def test_progression(self):
        evens = Progression(2, 2)
        assert list(itertools.islice(evens.iter_members(), 4)) == [2, 4, 6, 8]
        assert evens.count_upto(10) == 5
        assert evens.contains(100) and not evens.contains(99)
        assert evens.growth().density == Fraction(1, 2)

    def test_geometric(self):
        g = Geometric(2)
        assert list(itertools.islice(g.iter_members(), 4)) == [2, 4, 8, 16]
        assert g.count_upto(1024) == 10
        assert g.contains(64) and not g.contains(12) and not g.contains(1)
        assert g.growth().density == 0

    def test_shifted(self):
        s = Shifted(Geometric(2), 1)
        assert list(itertools.islice(s.iter_members(), 4)) == [3, 5, 9, 17]
        assert s.count_upto(17) == 4
        assert s.contains(9) and not s.contains(8)
        assert s.growth().density == 0

    def test_shift_clipping(self):
        s = Shifted(FiniteSet([1, 2]), -1)
        assert list(s.iter_members()) == [1]

    def test_union_merges_without_duplicates(self):
        u = UnionSet([Progression(2, 4), Progression(2, 6), FiniteSet([2, 3])])
        members = list(itertools.islice(u.iter_members(), 6))
        assert members == sorted(set(members))
        assert u.contains(3) is True

    def test_union_density_disjoint_parts(self):
        u = UnionSet([Progression(1, 3), Progression(2, 3)])
        assert u.growth().density == Fraction(2, 3)

    def test_union_density_overlapping_unknown(self):
        u = UnionSet([Progression(1, 2), Progression(1, 4)])
        assert u.growth().density is None

    @settings(max_examples=200, deadline=None)
    @given(step=st.integers(1, 12),
           starts=st.lists(st.integers(1, 40), min_size=1, max_size=10),
           extra=st.one_of(st.none(), st.builds(Progression, st.integers(1, 40),
                                                st.integers(1, 12)),
                           st.builds(FiniteSet, st.lists(st.integers(1, 40), max_size=4))))
    def test_union_density_matches_pairwise_rule(self, step, starts, extra):
        parts = [Progression(a, step) for a in starts] + ([extra] if extra else [])
        densities = [p.growth().density for p in parts]
        if all(d == 0 for d in densities):
            expected = Fraction(0)
        elif all(certified_disjoint(a, b)
                 for a, b in itertools.combinations(parts, 2)):
            expected = sum(densities, Fraction(0))
        else:
            expected = None
        assert UnionSet(parts).growth().density == expected

    def test_next_member(self):
        for base in (2, 3, 6, 10):
            g = Geometric(base)
            probes = list(range(-2, 400)) + [base ** e + d for e in (30, 200)
                                             for d in (-1, 0, 1)]
            for k in probes:
                expected = next(m for m in g.iter_members() if m >= k)
                assert g.next_member(k) == expected
        assert Progression(3, 5).next_member(10) == 13
        assert Shifted(Geometric(2), 1).next_member(6) == 9
        assert FiniteSet([1, 4]).next_member(5) is None

    def test_union_equality_and_repr(self):
        parts = [Progression(1, 2), Progression(2, 4)]
        u = UnionSet(parts)
        assert u == UnionSet(parts) and hash(u) == hash(UnionSet(parts))
        assert repr(u) == repr(UnionSet(parts))

    def test_json_round_trip(self):
        for s in (FiniteSet([1, 5]), Progression(5, 3), Geometric(3),
                  Shifted(Geometric(2), 1),
                  UnionSet([Progression(1, 2), FiniteSet([4])])):
            assert descriptor_from_json(s.to_json()).to_json() == s.to_json()


class TestDensity:
    def test_prefix_density_examples(self):
        assert prefix_density(Progression(2, 2), 10) == Fraction(1, 2)
        assert prefix_density(FiniteSet([1, 2, 3]), 100) == Fraction(3, 100)
        assert prefix_density(Geometric(2), 1024) == Fraction(10, 1024)

    def test_exact_density_examples(self):
        assert Progression(5, 3).growth().density == Fraction(1, 3)
        assert Geometric(2).growth().density == 0

    def test_estimate_brackets_exact(self):
        est = density_estimate(Progression(1, 4), cutoff=1000)
        assert est.lower <= Fraction(1, 4) <= est.upper
        assert est.exact == Fraction(1, 4)

    def test_estimate_refuses_cutoff_below_one(self):
        # prefix_density refuses n < 1; the estimate used to measure at n = 1
        for cutoff in (0, -5):
            with pytest.raises(ValueError, match="cutoff must be >= 1"):
                density_estimate(Progression(1, 2), cutoff=cutoff)
        assert density_estimate(Progression(1, 2), cutoff=1).lower == 1


class TestIdealMember:
    def test_fin(self):
        fin = IdealDescriptor.fin()
        assert ideal_member(fin, FiniteSet([1, 2])).outcome is Outcome.MEMBER
        assert ideal_member(fin, Geometric(2)).outcome is Outcome.NOT_MEMBER

    def test_density(self):
        d = IdealDescriptor.density()
        assert ideal_member(d, Geometric(2)).outcome is Outcome.MEMBER
        v = ideal_member(d, Progression(2, 2))
        assert v.outcome is Outcome.NOT_MEMBER
        assert v.diagnostics["density"] == Fraction(1, 2)

    def test_density_unknown_but_linear_is_not_member(self):
        # the overlap hides the density, but a linear count has a positive
        # lower density; no prefix scan is asked for
        d = IdealDescriptor.density()
        overlapping = UnionSet([Progression(1, 2), Progression(1, 4)])
        with mock.patch.object(ideals, "density_estimate", side_effect=AssertionError):
            v = ideal_member(d, overlapping)
        assert (v.outcome, v.certificate) == (Outcome.NOT_MEMBER, "positive-lower-density")
        assert v.diagnostics == {}

    def test_summable(self):
        s = IdealDescriptor.summable()
        assert ideal_member(s, Geometric(2)).outcome is Outcome.MEMBER
        assert ideal_member(s, Progression(1, 2)).outcome is Outcome.NOT_MEMBER
        assert ideal_member(s, FiniteSet([7])).outcome is Outcome.MEMBER
        assert ideal_member(s, Shifted(Geometric(2), 3)).outcome is Outcome.MEMBER

    def test_summable_union_rules(self):
        s = IdealDescriptor.summable()
        good = UnionSet([Geometric(2), Geometric(3)])
        assert ideal_member(s, good).outcome is Outcome.MEMBER
        bad = UnionSet([Geometric(2), Progression(1, 2)])
        assert ideal_member(s, bad).outcome is Outcome.NOT_MEMBER

    def test_downward_closure_on_samples(self):
        # any subset (finite restriction) of a member stays a member
        d = IdealDescriptor.density()
        sub = FiniteSet(list(itertools.islice(Geometric(2).iter_members(), 8)))
        assert ideal_member(d, sub).outcome is Outcome.MEMBER

    def test_union_subadditivity_on_samples(self):
        d = IdealDescriptor.density()
        u = UnionSet([Geometric(2), Geometric(3)])
        assert ideal_member(d, u).outcome is Outcome.MEMBER


class TestIdealDescriptor:
    def test_parse(self):
        assert parse_ideal("fin").kind == "fin"
        assert parse_ideal("density").kind == "density"
        assert parse_ideal("summable").exponent == 1
        assert parse_ideal("summable:1/2").exponent == Fraction(1, 2)
        with pytest.raises(ValueError):
            parse_ideal("weird")

    def test_exponent_catalog_bounds(self):
        with pytest.raises(ValueError):
            IdealDescriptor.summable(Fraction(3, 2))
        with pytest.raises(ValueError):
            IdealDescriptor.summable(0)

    def test_json_round_trip(self):
        for ideal in (IdealDescriptor.fin(), IdealDescriptor.density(),
                      IdealDescriptor.summable(Fraction(1, 2))):
            assert IdealDescriptor.from_json(ideal.to_json()) == ideal


class TestTranslationInvariance:
    def test_density_always_invariant(self):
        v = translation_invariant_in(IdealDescriptor.density(), Geometric(2))
        assert v.outcome is Outcome.MEMBER

    def test_fin_finite(self):
        v = translation_invariant_in(IdealDescriptor.fin(), FiniteSet([1, 2]))
        assert v.outcome is Outcome.MEMBER

    def test_summable_invariant(self):
        v = translation_invariant_in(IdealDescriptor.summable(), Geometric(2))
        assert v.outcome is Outcome.MEMBER

    def test_requires_member_precondition(self):
        with pytest.raises(ValueError):
            translation_invariant_in(IdealDescriptor.density(), Progression(2, 2))

    def test_no_density_estimate_before_refusal(self, monkeypatch):
        def estimate(*args, **kwargs):
            raise AssertionError("density_estimate called")
        monkeypatch.setattr(ideals, "density_estimate", estimate)
        overlapping = UnionSet([Progression(1, 2), Progression(1, 4)])
        with pytest.raises(ValueError, match="certified member"):
            translation_invariant_in(IdealDescriptor.density(), overlapping)


class TestNonSntWitness:
    def test_fin_has_none(self):
        assert non_snt_witness(IdealDescriptor.fin()) is None

    def test_density_and_summable_witness(self):
        for ideal in (IdealDescriptor.density(), IdealDescriptor.summable()):
            w = non_snt_witness(ideal)
            assert w is not None
            assert ideal_member(ideal, w).outcome is Outcome.MEMBER
            assert translation_invariant_in(ideal, w).outcome is Outcome.MEMBER


def test_certified_disjoint():
    assert certified_disjoint(Progression(1, 2), Progression(2, 2))
    assert not certified_disjoint(Progression(1, 2), Progression(3, 4))
    assert certified_disjoint(FiniteSet([1, 3]), Progression(2, 2))


@st.composite
def progressions(draw, starts=st.integers(1, 40), steps=st.integers(1, 12)):
    """{start + j + k*step : j in offsets}: offset 0 and any others below step."""
    start, step = draw(starts), draw(steps)
    rest = draw(st.lists(st.booleans(), min_size=step - 1, max_size=step - 1))
    return Progression(start, step, (0, *(j for j, on in enumerate(rest, 1) if on)))


def members_by_definition(p: Progression, top: int) -> list[int]:
    return sorted(m for j in p.offsets for m in range(p.start + j, top + 1, p.step))


@settings(max_examples=300, deadline=None)
@given(a=progressions(), b=progressions())
def test_periodic_progression_matches_brute_force(a, b):
    top = 300       # past both starts and one lcm of the steps
    members = members_by_definition(a, top)
    assert list(itertools.takewhile(lambda m: m <= top, a.iter_members())) == members
    for n in range(-2, top + 1):
        assert a.count_upto(n) == bisect.bisect_right(members, n)
        assert a.contains(n) is (n in members)
    assert a.growth().density == Fraction(len(a.offsets), a.step)
    assert a.count_upto(a.start - 1 + 7 * a.step) == 7 * len(a.offsets)
    common = set(members) & set(members_by_definition(b, top))
    assert certified_disjoint(a, b) is certified_disjoint(b, a) is not common
    doc = a.to_json()
    assert ("offsets" in doc) is (len(a.offsets) > 1)
    assert descriptor_from_json(doc) == a
    assert descriptor_from_json(doc).to_json() == doc


def test_progression_refuses_bad_offsets():
    for offsets in ((), (1,), (0, 3), (0, 2, 1), (0, 1, 1), (0, -1)):
        doc = {"type": "progression", "start": "1", "step": "3",
               "offsets": [str(j) for j in offsets]}
        for make in (lambda: Progression(1, 3, offsets), lambda: descriptor_from_json(doc)):
            with pytest.raises(ValueError, match="offsets must increase from 0"):
                make()
    with pytest.raises(ValueError, match="offsets must be a list"):
        descriptor_from_json({"type": "progression", "start": "1", "step": "3",
                              "offsets": "01"})
    # one offset writes the document of a plain progression
    assert Progression(4, 3, [0]).to_json() == {"type": "progression", "start": "4",
                                                "step": "3"}


def test_finite_set_refuses_a_string_of_elements():
    # a string is iterable too, and "123" would be read as the set {1, 2, 3}
    for elements in ("123", {"1": "1"}, "1"):
        with pytest.raises(ValueError, match="elements must be a list"):
            descriptor_from_json({"type": "finite", "elements": elements})
    assert descriptor_from_json({"type": "finite", "elements": ["1", "2", "3"]}) == \
        FiniteSet([1, 2, 3])


# ---------------------------------------------------------------------------
# The counting-class kernel against brute-force counting
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.builds(FiniteSet, st.lists(st.integers(1, 40), max_size=6)),
    progressions(),
    st.builds(Geometric, st.integers(2, 5)))


def _trees(depth):
    if depth == 1:
        return _LEAVES
    sub = _trees(depth - 1)
    return st.one_of(_LEAVES,
                     st.builds(Shifted, sub, st.integers(-20, 20)),
                     st.lists(sub, min_size=1, max_size=4).map(UnionSet))


def _budget(s):
    """(G, F, P, S): Geometric leaves, total FiniteSet size, sum of
    ceil((start + j)/step) over the classes j of Progression leaves (the most
    a class's count strays from n/step), and sum of |offset| over Shifted
    nodes."""
    if isinstance(s, Geometric):
        return (1, 0, 0, 0)
    if isinstance(s, FiniteSet):
        return (0, len(s.elements), 0, 0)
    if isinstance(s, Progression):
        return (0, 0, sum(-(-(s.start + j) // s.step) for j in s.offsets), 0)
    if isinstance(s, Shifted):
        g, f, p, t = _budget(s.inner)
        return (g, f, p, t + abs(s.offset))
    return tuple(map(sum, zip(*(_budget(p) for p in s.parts))))


@settings(max_examples=150, deadline=None)
@given(_trees(3))
def test_growth_class_matches_brute_force_counts(s):
    N = 4000
    members = list(itertools.takewhile(lambda m: m <= N, s.iter_members()))
    for n in range(301):
        assert s.count_upto(n) == bisect.bisect_right(members, n)
    count = s.count_upto(N)
    assert count == len(members)
    g = s.growth()
    G, F, P, S = _budget(s)
    if g.kind == "finite":
        assert s.count_upto(200) == count == len(list(s.iter_members()))
    else:
        assert count > s.count_upto(200)
    if g.kind == "log":
        assert count <= G * math.log2(N) + F
    if g.kind == "linear" and g.density is not None:
        assert abs(count - g.density * N) <= F + P + S
    else:
        assert g.density in (0, None)
