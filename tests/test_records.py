"""The engine's immutable records: equality, hash, repr, immutability, copying,
pickling, defaults and constructor signatures of every record class."""

import copy
import pickle

import pytest

from omegaramsey import barriers, ellentuck, games, ground, mathias, ramsey
from omegaramsey.ground import FALSE, TRUE

FAM = ground.Family.of(5, [{1, 2, 3}, {3, 4, 5}, {1, 4, 5}, {2, 4, 5}])
SUB = ground.Subfamily(FAM, (2, 3))
EXPLICIT = ellentuck.ExplicitRegion(frozenset({(1, 2), (2, 3, 4)}))
BASIC = ellentuck.EllentuckBasic((1,), SUB)
BASIC_UNION = ellentuck.BasicUnionRegion((BASIC,))
COND = mathias.Condition((1,), SUB)

#: class -> (a factory making a fresh representative instance, its field names
#: in declaration order)
RECORDS = {
    ground.Universe: (lambda: ground.Universe(5), ("size",)),
    ground.Family: (lambda: ground.Family.of(5, [{1, 2, 3}, {3, 4, 5}, {1, 4, 5}, {2, 4, 5}]),
                    ("universe", "members")),
    ground.Subfamily: (lambda: ground.Subfamily(FAM, (2, 3)), ("family", "indices")),
    ground.LargenessParams: (lambda: ground.LargenessParams(2, 3, 500),
                             ("d", "min_size", "search_bound")),
    ground.CoverVerdict: (lambda: ground.CoverVerdict(FALSE, frozenset({1, 2})),
                          ("status", "witness")),
    ellentuck.EllentuckBasic: (lambda: ellentuck.EllentuckBasic((1,), SUB),
                               ("stem", "reservoir")),
    ellentuck.ExplicitRegion: (lambda: ellentuck.ExplicitRegion(frozenset({(1, 2), (2, 3, 4)})),
                               ("member_sets",)),
    ellentuck.BasicUnionRegion: (lambda: ellentuck.BasicUnionRegion((BASIC,)), ("basics",)),
    ellentuck.UnionRegion: (lambda: ellentuck.UnionRegion((EXPLICIT, BASIC_UNION)),
                            ("parts",)),
    ellentuck.IntersectionRegion: (lambda: ellentuck.IntersectionRegion((EXPLICIT,)),
                                   ("parts",)),
    ellentuck.ComplementRegion: (lambda: ellentuck.ComplementRegion(EXPLICIT), ("inner",)),
    ellentuck.MeagerPresentation: (lambda: ellentuck.MeagerPresentation((EXPLICIT,)),
                                   ("levels",)),
    ellentuck.DecideOutcome: (lambda: ellentuck.DecideOutcome("accepts", SUB),
                              ("kind", "witness")),
    ellentuck.CrOutcome: (lambda: ellentuck.CrOutcome("accepts", SUB), ("kind", "witness")),
    ellentuck.NwdOutcome: (lambda: ellentuck.NwdOutcome("accepts", SUB), ("kind", "witness")),
    ellentuck.StrongRejectResult: (lambda: ellentuck.StrongRejectResult(SUB, TRUE),
                                   ("subfamily", "admissible")),
    games.Transcript: (lambda: games.Transcript((SUB,), (2,), "TWO", {"pool": (3,)},
                                                ({"inning": 1},)),
                       ("moves", "picks", "winner", "state", "certificates")),
    games.Selection: (lambda: games.Selection((1, 2)), ("indices",)),
    games.NotFound: (lambda: games.NotFound("no pick"), ("reason",)),
    games.DecidedAll: (lambda: games.DecidedAll(SUB, ground.Subfamily(FAM, (3,)),
                                                (((), "accepts"), ((3,), "rejects"))),
                       ("terminal", "picks", "table")),
    games.DecideAllFailed: (lambda: games.DecideAllFailed(2, "stuck"), ("inning", "reason")),
    ramsey.PartitionTree: (lambda: ramsey.PartitionTree(FAM, 1, (((), (1, 2, 3, 4)),
                                                                 ((0,), (2,)))),
                           ("family", "depth", "nodes")),
    ramsey.BranchResult: (lambda: ramsey.BranchResult(FAM, (1, 2), (0, 1), (1, 2, 3, 4)),
                          ("family", "pivots", "colors", "domain")),
    ramsey.PartitionResult: (lambda: ramsey.PartitionResult(SUB, 1, TRUE, "branch"),
                             ("subfamily", "color", "admissible", "route")),
    ramsey.Step: (lambda: ramsey.Step(1, (0,), (2, 3), 4, SUB),
                  ("k", "node_path", "node", "escape", "continuation")),
    ramsey.NoStep: (lambda: ramsey.NoStep(), ()),
    ramsey.LargenessFailure: (lambda: ramsey.LargenessFailure(2), ("k",)),
    barriers.FiniteSetFamily: (lambda: barriers.FiniteSetFamily(FAM, frozenset({(1,), (2, 3)})),
                               ("family", "stems")),
    barriers.FgOutcome: (lambda: barriers.FgOutcome("accepts", SUB), ("kind", "witness")),
    barriers.NwOutcome: (lambda: barriers.NwOutcome("homogeneous", SUB, 0),
                         ("kind", "witness", "part")),
    mathias.Condition: (lambda: mathias.Condition((1,), SUB), ("stem", "side")),
    mathias.Chain: (lambda: mathias.Chain((COND,)), ("conditions",)),
}

CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def values(x, fields):
    return tuple(getattr(x, name) for name in fields)


def test_every_record_class_is_covered():
    # with PredicateRegion, which compares by identity and is tested below, the
    # engine has 33 record classes
    assert len(CLASSES) == 32


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_to_a_fresh_equal_instance(cls):
    make, _ = RECORDS[cls]
    x, y = make(), make()
    assert type(x) is cls and x is not y
    assert x == y and not x != y


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    make, fields = RECORDS[cls]
    x = make()
    try:
        expected = hash(values(x, fields))
    except TypeError:
        # a dict among the fields: the record is unhashable too
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_names_every_field(cls):
    make, fields = RECORDS[cls]
    x = make()
    inner = ", ".join(f"{name}={getattr(x, name)!r}" for name in fields)
    assert repr(x) == f"{cls.__qualname__}({inner})"


def test_repr_literals():
    assert repr(ground.Universe(5)) == "Universe(size=5)"
    assert repr(ground.LargenessParams(d=1, min_size=3)) == \
        "LargenessParams(d=1, min_size=3, search_bound=1000000)"
    assert repr(ground.Subfamily(ground.Family.of(3, [{1}, {2, 3}]), (2,))) == (
        "Subfamily(family=Family(universe=Universe(size=3), "
        "members=(frozenset({1}), frozenset({2, 3}))), indices=(2,))")
    assert repr(ramsey.NoStep()) == "NoStep()"
    assert repr(games.DecideAllFailed(None, "x")) == "DecideAllFailed(inning=None, reason='x')"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    make, fields = RECORDS[cls]
    x = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.no_such_field = 1
    assert values(x, fields) == values(make(), fields)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_record(cls):
    make, _ = RECORDS[cls]
    x = make()
    for twin in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL)),
                 pickle.loads(pickle.dumps(x, protocol=0))):
        assert type(twin) is cls
        assert twin == x


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_keywords_are_the_field_names(cls):
    make, fields = RECORDS[cls]
    x = make()
    assert cls(**dict(zip(fields, values(x, fields)))) == x


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_trusted_sets_the_fields_in_order(cls):
    make, fields = RECORDS[cls]
    x = make()
    y = cls._trusted(*values(x, fields))
    assert type(y) is cls and y == x
    assert values(y, fields) == values(x, fields)


#: the records the engine builds unchecked: a Subfamily on indices it listed
#: itself, and a Condition over such a Subfamily with a normalized stem
TRUSTED = {
    ground.Subfamily: (lambda: ground.Subfamily._trusted(FAM, (2, 3)),
                       lambda: ground.Subfamily(FAM, (2, 3))),
    mathias.Condition: (lambda: mathias.Condition._trusted(
                            (1,), ground.Subfamily._trusted(FAM, (2, 3))),
                        lambda: mathias.Condition((1,), SUB)),
}


@pytest.mark.parametrize("cls", list(TRUSTED), ids=[c.__name__ for c in TRUSTED])
class TestTrusted:
    def test_equal_to_the_validated_instance(self, cls):
        trusted, checked = TRUSTED[cls]
        x, y = trusted(), checked()
        assert type(x) is cls
        assert x == y and y == x and not x != y
        assert hash(x) == hash(y)
        assert repr(x) == repr(y)
        assert len({x, y}) == 1

    def test_copies_and_pickles_like_the_validated_instance(self, cls):
        trusted, checked = TRUSTED[cls]
        x, y = trusted(), checked()
        for twin in (copy.copy(x), copy.deepcopy(x),
                     pickle.loads(pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL)),
                     pickle.loads(pickle.dumps(x, protocol=0))):
            assert type(twin) is cls
            assert twin == y and hash(twin) == hash(y)
        assert pickle.dumps(x) == pickle.dumps(y)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        trusted, _ = TRUSTED[cls]
        x = trusted()
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


#: the classes with a field that has no default
REQUIRED = [c for c in CLASSES if c not in (ramsey.NoStep, games.NotFound)]


@pytest.mark.parametrize("cls", REQUIRED, ids=[c.__name__ for c in REQUIRED])
def test_missing_argument_is_a_type_error(cls):
    with pytest.raises(TypeError):
        cls()


def test_too_many_arguments_is_a_type_error():
    with pytest.raises(TypeError):
        ramsey.NoStep(1)
    with pytest.raises(TypeError):
        ground.Universe(5, 6)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_unknown_repeated_or_extra_arguments_are_type_errors(cls):
    make, fields = RECORDS[cls]
    given = values(make(), fields)
    with pytest.raises(TypeError):
        cls(*given, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*given, None)
    if fields:
        with pytest.raises(TypeError):
            cls(*given, **{fields[0]: given[0]})


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_then_keyword_arguments(cls):
    make, fields = RECORDS[cls]
    x = make()
    given = values(x, fields)
    for cut in range(len(fields) + 1):
        assert cls(*given[:cut], **dict(zip(fields[cut:], given[cut:]))) == x


def test_only_checking_or_defaulting_classes_write_a_constructor():
    # every other record takes `Record.__init__`, which stores its arguments
    own = {cls.__name__ for cls in CLASSES + [ellentuck.PredicateRegion]
           if "__init__" in vars(cls)}
    assert own == {
        "Universe", "Family", "Subfamily", "LargenessParams", "CoverVerdict",
        "EllentuckBasic", "MeagerPresentation", "PredicateRegion", "Transcript",
        "NotFound", "FiniteSetFamily", "Condition", "Chain",
    }
    for cls in CLASSES:
        if cls.__name__ not in own:
            assert cls.__init__ is ground.Record.__init__


def test_no_equality_across_classes_with_the_same_values():
    outcomes = [ellentuck.DecideOutcome("accepts", SUB), ellentuck.CrOutcome("accepts", SUB),
                ellentuck.NwdOutcome("accepts", SUB), barriers.FgOutcome("accepts", SUB)]
    for a in outcomes:
        for b in outcomes:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
            if a is not b:
                assert a.__eq__(b) is NotImplemented
    assert ground.Universe(5) != (5,)
    assert ground.Universe(5).__eq__((5,)) is NotImplemented
    assert games.Selection((1, 2)) != games.NotFound((1, 2))


def test_unequal_values_compare_unequal():
    assert ground.Universe(5) != ground.Universe(6)
    assert ground.Subfamily(FAM, (2, 3)) != ground.Subfamily(FAM, (2, 4))
    assert ground.LargenessParams(1, 3) != ground.LargenessParams(1, 3, 7)


def test_defaults():
    assert ground.LargenessParams(d=2, min_size=3) == ground.LargenessParams(2, 3, 1_000_000)
    assert ground.LargenessParams(d=2, min_size=3).search_bound == 1_000_000
    assert ground.LargenessParams(min_size=4, d=1, search_bound=9).search_bound == 9
    assert ground.CoverVerdict(TRUE).witness is None
    assert games.Transcript((), (), "unknown", {}).certificates == ()
    assert games.NotFound().reason == ""
    assert ellentuck.PredicateRegion(bool).label == "predicate"
    assert ellentuck.PredicateRegion(bool, label="x").label == "x"


def test_regions_are_regions():
    for cls in (ellentuck.ExplicitRegion, ellentuck.BasicUnionRegion, ellentuck.UnionRegion,
                ellentuck.IntersectionRegion, ellentuck.ComplementRegion,
                ellentuck.PredicateRegion):
        assert issubclass(cls, ellentuck.Region)


class TestPredicateRegion:
    def test_compares_and_hashes_by_identity(self):
        def fn(D):
            return True

        a = ellentuck.PredicateRegion(fn, "same")
        b = ellentuck.PredicateRegion(fn, "same")
        assert a == a and a != b and not a == b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2

    def test_repr_and_immutability(self):
        r = ellentuck.PredicateRegion(len, "sized")
        assert repr(r) == f"PredicateRegion(fn={len!r}, label='sized')"
        with pytest.raises(AttributeError):
            r.label = "other"
        with pytest.raises(AttributeError):
            del r.fn

    def test_missing_predicate_is_a_type_error(self):
        with pytest.raises(TypeError):
            ellentuck.PredicateRegion()

    def test_copy_of_a_picklable_predicate(self):
        r = ellentuck.PredicateRegion(len, "sized")
        for twin in (copy.copy(r), pickle.loads(pickle.dumps(r))):
            assert (twin.fn, twin.label) == (len, "sized")
            assert twin != r
