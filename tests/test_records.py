"""The package's frozen records behave as the frozen dataclasses they
replaced: built positionally or by keyword, equal within one class, hashed
as the tuple of their fields, printed as `Name(field=value, ...)`, closed to
assignment, and kept whole by pickle and copy."""

import copy
import pickle

import pytest

from semidom.approx import SetCoverInstance
from semidom.domination import DominationKind, VerificationReport, ViolationReason
from semidom.graph import Graph, SplitPartition
from semidom.interval_solver import SINK, SOURCE, ArcClass, OverlapDigraph, SplitDigraph
from semidom.intervals import IntervalModel
from semidom.reductions import GadgetKind, GadgetOutput, ReductionReport, _Layout, _Source

_TOTAL = _Source("total_g", "a total dominating set", DominationKind.TOTAL)

# Each case: a record, its repr, its hash and a field change that makes an
# unequal record. The hashes were taken from the dataclasses, or for a
# record that has lost fields since, from the tuple of its fields: an int
# where every field hashes the same in every process (ints only), TypeError
# where a field is a dict, and None where a str or an enum makes the value
# vary between processes; the record then hashes as the tuple of its fields.
CASES = [
    pytest.param(SplitPartition((0, 1), (2,)),
                 "SplitPartition(clique=(0, 1), independent=(2,))",
                 -5558939206723942004, ("independent", (3,)), id="SplitPartition"),
    pytest.param(VerificationReport(((2, ViolationReason.UNDOMINATED),)),
                 "VerificationReport(violations=((2, "
                 "<ViolationReason.UNDOMINATED: 'UNDOMINATED'>),))",
                 None, ("violations", ()), id="VerificationReport"),
    pytest.param(IntervalModel(((0, 1), (1, 2))),
                 "IntervalModel(intervals=((0, 1), (1, 2)))",
                 -8547219791740985040, ("intervals", ((0, 1),)), id="IntervalModel"),
    pytest.param(SetCoverInstance((0, 1, 2), ((0, (0, 1)), (1, (1, 2)))),
                 "SetCoverInstance(universe=(0, 1, 2), family=((0, (0, 1)), "
                 "(1, (1, 2))))",
                 76945552582242837, ("family", ((0, (0, 1)),)), id="SetCoverInstance"),
    pytest.param(OverlapDigraph(((-1, 0), (0, 2), (1, 3), (3, 4)), (0, 1, 2, 3),
                                ((0, 1, ArcClass.A1), (1, 2, ArcClass.A2_MARKED))),
                 "OverlapDigraph(intervals=((-1, 0), (0, 2), (1, 3), (3, 4)), "
                 "vertices=(0, 1, 2, 3), arcs=((0, 1, <ArcClass.A1: 'A1'>), "
                 "(1, 2, <ArcClass.A2_MARKED: 'A2_MARKED'>)))",
                 None, ("arcs", ()), id="OverlapDigraph"),
    pytest.param(SplitDigraph((SOURCE, ("in", 1), ("out", 1), SINK),
                              ((SOURCE, ("in", 1), 0), (("in", 1), ("out", 1), 1))),
                 "SplitDigraph(nodes=(('source',), ('in', 1), ('out', 1), "
                 "('sink',)), arcs=((('source',), ('in', 1), 0), "
                 "(('in', 1), ('out', 1), 1)))",
                 None, ("arcs", ()), id="SplitDigraph"),
    pytest.param(GadgetOutput(Graph(2, [(0, 1)]), GadgetKind.LN,
                              {0: ("original", 0), 1: ("x", 0)}, Graph(1)),
                 "GadgetOutput(h=Graph(n=2, m=1), kind=<GadgetKind.LN: 'LN'>, "
                 "roles={0: ('original', 0), 1: ('x', 0)}, source=Graph(n=1, m=0))",
                 TypeError, ("source", Graph(2)), id="GadgetOutput"),
    pytest.param(ReductionReport(GadgetKind.GP4, True, {"n": 1}),
                 "ReductionReport(kind=<GadgetKind.GP4: 'GP4'>, holds=True, "
                 "details={'n': 1})",
                 TypeError, ("details", {"n": 2}), id="ReductionReport"),
    pytest.param(_Source("tau_g", "a vertex cover", None),
                 "_Source(key='tau_g', name='a vertex cover', measure=None)",
                 None, ("measure", DominationKind.TOTAL), id="_Source"),
    pytest.param(_Layout(("x",), ("y",), ("vx", "xy"), ("y",), {"x": "origin"},
                         _TOTAL, 6),
                 "_Layout(blocks=('x',), singles=('y',), edges=('vx', 'xy'), "
                 "lift=('y',), project={'x': 'origin'}, source=_Source("
                 "key='total_g', name='a total dominating set', "
                 "measure=<DominationKind.TOTAL: 'total'>), cap=6)",
                 TypeError, ("cap", 4), id="_Layout"),
]


@pytest.mark.parametrize("record, text, golden_hash, change", CASES)
def test_record_behaves_as_a_frozen_dataclass(record, text, golden_hash, change):
    cls = type(record)
    names = cls.__slots__
    values = tuple(getattr(record, name) for name in names)
    fields = dict(zip(names, values))

    # construction, positional and by keyword, and equality within the class
    assert cls(*values) == record == cls(**fields)
    assert record != cls(**{**fields, change[0]: change[1]})
    assert record != values and record.__eq__(values) is NotImplemented

    if golden_hash is TypeError:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(values) == hash(cls(*values))
        if golden_hash is not None:
            assert hash(record) == golden_hash

    assert repr(record) == text

    for name in (names[0], "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(record, names[0])
    assert getattr(record, names[0]) is values[0]

    clones = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.deepcopy(record), copy.copy(record)]:
        assert type(clone) is cls and clone == record and repr(clone) == text
    deep = copy.deepcopy(record)  # copies the mutable fields too
    assert all(getattr(deep, name) is not value for name, value in fields.items()
               if isinstance(value, (dict, Graph)))

    # every field is required
    with pytest.raises(TypeError, match=f"missing required arguments: '{names[-1]}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})


def test_interval_model_checks_every_construction():
    with pytest.raises(ValueError, match="degenerate interval 0"):
        IntervalModel(((1, 0),))
    with pytest.raises(ValueError, match="degenerate interval 1"):
        IntervalModel(intervals=((0, 1), (2, 2)))


def test_verification_report_derives_valid_from_its_violations():
    bad = VerificationReport(((2, ViolationReason.UNDOMINATED),))
    assert VerificationReport(()).valid is True and bad.valid is False
    with pytest.raises(AttributeError, match="cannot assign to field 'valid'"):
        bad.valid = True
    with pytest.raises(TypeError, match="takes 1 positional arguments but 2 were given"):
        VerificationReport(True, ())
    assert bad.valid is False
