"""The package's value classes behave as the frozen dataclasses they replace.

Each sample below names its fields in the order the class declares them,
and every value class of the package has one.  A value is built from each
of its fields once, by position or keyword, and holds nothing else; equal
fields give equal values with the hash of the field tuple; a value never
equals one of another class with the same fields; no field can be assigned
or deleted; `repr` is `Name(field=value, ...)`; copies and pickles are
equal values.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import cartanspaces
from cartanspaces.catalog import (
    CatalogEntry,
    Check,
    HItem,
    ItemPattern,
    ReductivePair,
    RowInstance,
    TypePattern,
    WeightGroup,
    instantiate,
    lookup,
)
from cartanspaces.engine import CartanResult, EssentialPart, Twist, cartan_space
from cartanspaces.errors import ConstraintError
from cartanspaces.ratlinalg import RationalSubspace, span
from cartanspaces.rootsystems import RootSystem, SimpleType, build_root_system, sl
from cartanspaces.values import Value


def _field_values(value, names: str) -> dict:
    return {name: getattr(value, name) for name in names.split()}


def _samples():
    a2, item = SimpleType("A", 2), HItem("sl", 2, (0,))
    pair = ReductivePair((a2,), 0, (item,), None)
    entry = lookup("T1.4", 1)
    inst = instantiate(entry, {"n": 4, "k": 3})
    result = cartan_space(pair)
    return [
        (SimpleType, {"series": "A", "rank": 5}),
        (RootSystem, _field_values(build_root_system(SimpleType("G", 2)), "stype ambient_dim "
                                   "simple_roots positive_roots positive_coords simple_norms")),
        (RationalSubspace, _field_values(span([[1, 0, 2]], 3), "ambient_dim basis")),
        (TypePattern, {"base": "so", "arg": "4*n+2"}),
        (ItemPattern, {"base": "sl", "arg": "k", "targets": (0,)}),
        (WeightGroup, {"sums": (((False, 0, "i"),),), "rng": ("i", "1", "n-k")}),
        (CatalogEntry, _field_values(entry, "table row g_pattern h_pattern constraints gens aux")),
        (HItem, {"base": "diag", "size": None, "targets": (0, 1), "diag_type": a2}),
        (ReductivePair, {"factors": (a2,), "center_dim": 1, "items": (item,), "center": None}),
        (RowInstance, _field_values(inst, "entry params g_types items gens aux")),
        (Check, {"name": "T1.4:1 check", "passed": True, "detail": "fine"}),
        (EssentialPart, _field_values(result.essential, "item_indices items center_rows")),
        (CartanResult, _field_values(result, "space rank essential complexity trace")),
        (Twist, {"factor_perm": (1, 0), "node_perms": ((0, 1), (1, 0))}),
    ]


SAMPLES = _samples()
IDS = [cls.__name__ for cls, _ in SAMPLES]


def test_every_value_class_has_a_sample():
    defined = set()
    for info in pkgutil.iter_modules(cartanspaces.__path__):
        module = importlib.import_module(f"cartanspaces.{info.name}")
        defined |= {obj for obj in vars(module).values() if isinstance(obj, type)
                    and issubclass(obj, Value) and obj.__module__ == module.__name__}
    assert defined - {Value} == {cls for cls, _ in SAMPLES}


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_a_value_holds_each_field_once(cls, fields):
    assert tuple(fields) == cls._fields
    assert list(vars(cls(**fields))) == list(cls._fields)
    first, *rest = fields
    for args, kwargs in [((), {name: fields[name] for name in rest}),   # missing
                         ((), {**fields, "other": 1}),                   # extra
                         ((fields[first],), fields),                     # given twice
                         ((*fields.values(), 1), {})]:                   # one too many
        with pytest.raises(TypeError) as err:
            cls(*args, **kwargs)
        if "__init__" not in vars(cls):
            assert str(err.value) == f"{cls.__name__} takes each of {cls._fields} once"


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_copies_and_pickles_are_equal_values(cls, fields):
    value = cls(**fields)
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls and other == value and repr(other) == repr(value)


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_value_semantics(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and a is not b
    compared = tuple(v for k, v in fields.items() if not (cls is CatalogEntry and k == "aux"))
    try:
        want = hash(compared)
    except TypeError:  # RowInstance holds dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want

    twin = type(cls.__name__, (cls,), {})(**fields)
    assert a != twin and twin != a and a != compared

    name = next(iter(fields))
    for target in (a, twin):
        with pytest.raises(AttributeError):
            setattr(target, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(target, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert getattr(a, name) is fields[name]

    assert repr(a) == cls.__name__ + "(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"


def test_repr_is_the_dataclass_text():
    assert repr(SimpleType("A", 5)) == "SimpleType(series='A', rank=5)"
    assert repr(HItem("sl", 3, (0,))) == "HItem(base='sl', size=3, targets=(0,), diag_type=None)"
    assert repr(ReductivePair((sl(4),), 0, (HItem("sl", 3, (0,)),))) == (
        "ReductivePair(factors=(SimpleType(series='A', rank=3),), center_dim=0, "
        "items=(HItem(base='sl', size=3, targets=(0,), diag_type=None),), center=None)")


def test_catalog_entry_aux_is_not_compared():
    entry = lookup("T1.4", 1)
    fields = _field_values(entry, "table row g_pattern h_pattern constraints gens")
    other = CatalogEntry(**fields, aux={"anything": 1})
    assert entry.aux != other.aux
    assert other == entry and hash(other) == hash(entry)


def test_cached_properties_are_computed_once():
    entry = lookup("T1.4", 1)
    inst = instantiate(entry, {"n": 4, "k": 3})
    cached = [(entry, "affine_args"), (entry, "variables"), (inst, "pair"),
              (inst.pair, "families"), (build_root_system(SimpleType("G", 2)), "k"),
              (build_root_system(SimpleType("G", 2)), "fundamental_weights")]
    for value, name in cached:
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first


def test_retarget_checks_the_new_targets():
    item = HItem("sl", 3, (0,))
    assert item.retarget((2,)) == HItem("sl", 3, (2,))
    diag = HItem("diag", None, (0, 1), sl(3))
    assert diag.retarget((1, 0)).targets == (1, 0)
    with pytest.raises(ConstraintError, match="diag lives in two factors, not 1"):
        diag.retarget((0,))
    with pytest.raises(ConstraintError, match="names factor 1 twice"):
        diag.retarget((0, 0))
