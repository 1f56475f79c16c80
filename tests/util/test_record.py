"""The compile path's value classes behave like the dataclasses they
replaced (``repro.util.record``).

Each class below was a ``@dataclass`` and is now a plain class with a
hand-written ``__init__``.  For every one: ``pickle`` and ``copy``
round-trip to an equal object, ``repr()`` reads exactly what the
dataclass printed (:data:`DATACLASS_REPR`, recorded from the
dataclasses), a frozen class hashes like the dataclass — the hash of
its compared fields — and refuses attribute assignment, and a mutable
class stays unhashable.
"""

import copy
import pickle

import pytest

from repro.analysis.expr import SymExpr, SymRange
from repro.analysis.references import ArrayAccess
from repro.analysis.sections import (
    AffineSection,
    IndirectSection,
    MultiSection,
    PointSection,
    _Substitution,
)
from repro.analysis.value_numbering import LoopContext
from repro.batch.driver import BatchOptions, CompiledProgram
from repro.core.checker import Violation
from repro.core.placement import Position, Production
from repro.core.problem import Timing
from repro.graph.cfg import Node, NodeKind
from repro.lang import ast
from repro.lang.symbols import ArrayInfo, Distribution

K = SymExpr.var("k")
ONE, N = SymExpr.number(1), SymExpr.var("n")
RANGE = SymRange(ONE, N)
SUB = _Substitution("k", ONE, N)
NODE = Node(3, NodeKind.STMT, None, "s3")
CONTEXT = LoopContext((("k", ONE, N),))

#: ``name -> (object, compared fields or None for a mutable class)``.
#: A :class:`Node` compares by identity, so no sample holds one: a
#: pickled copy of it would differ.
SAMPLES = {
    "Num": (ast.Num(5), ("value",)),
    "Var": (ast.Var("n"), ("name",)),
    "ArrayRef": (ast.ArrayRef("x", (ast.Var("k"),)), ("name", "subscripts")),
    "BinOp": (ast.BinOp("+", ast.Var("k"), ast.Num(10)),
              ("op", "left", "right")),
    "Opaque": (ast.Opaque(), ()),
    "RangeExpr": (ast.RangeExpr(ast.Num(1), ast.Var("n")), ("lo", "hi")),
    "Stmt": (ast.Stmt(label=7, line=2), None),
    "Assign": (ast.Assign(ast.Var("a"), ast.Opaque(), label=10, line=4),
               None),
    "Do": (ast.Do("k", ast.Num(1), ast.Var("n"), ast.Num(1),
                  [ast.Continue()], line=3), None),
    "If": (ast.If(ast.Opaque(), [ast.Goto(5)], [], line=6), None),
    "IfGoto": (ast.IfGoto(ast.Var("t"), 99, line=8), None),
    "Goto": (ast.Goto(99, label=1), None),
    "Continue": (ast.Continue(label=99, line=9), None),
    "Declaration": (ast.Declaration("real", "x", ast.Num(100), line=1),
                    None),
    "ParameterDef": (ast.ParameterDef("n", ast.Num(64)), None),
    "Distribute": (ast.Distribute("x", "block"), None),
    "Comm": (ast.Comm("read", "send", ["x(1:n)"], timing="EAGER"), None),
    "Program": (ast.Program([ast.Goto(5)]), None),
    "_Substitution": (SUB, ("var", "lo", "hi")),
    "PointSection": (PointSection("x", SymExpr.number(5)), ("array", "index")),
    "AffineSection": (AffineSection("x", RANGE, (SUB,), K),
                      ("array", "range")),
    "IndirectSection": (IndirectSection("y", "a", RANGE, (SUB,), K),
                        ("array", "index_array", "range")),
    "MultiSection": (MultiSection("z", (RANGE, RANGE), (SUB,), (K, K)),
                     ("array", "ranges")),
    "LoopContext": (CONTEXT, ("loops",)),
    "ArrayAccess": (ArrayAccess("s3", "x", ast.Var("x"), PointSection(
        "x", SymExpr.number(5)), False, CONTEXT), None),
    "ArrayInfo": (ArrayInfo("x", "real", ast.Num(100), Distribution.BLOCK),
                  None),
    "Production": (Production("s3", Position.BEFORE, Timing.EAGER,
                              frozenset({"x"})),
                   ("node", "position", "timing", "elements")),
    "BatchOptions": (BatchOptions(trace=True, pipeline={"postpass": False}),
                     None),
    "CompiledProgram": (CompiledProgram("p", True, "a = 1\n", reads=2,
                                        rung="balanced"), None),
    "Violation": (Violation("balance", "C1", "x", "s3", "forced"),
                  ("kind", "criterion", "element", "node", "message")),
}

#: ``repr()`` of each sample as its dataclass printed it.
DATACLASS_REPR = {
    "Num": "Num(value=5)",
    "Var": "Var(name='n')",
    "ArrayRef": "ArrayRef(name='x', subscripts=(Var(name='k'),))",
    "BinOp": "BinOp(op='+', left=Var(name='k'), right=Num(value=10))",
    "Opaque": "Opaque()",
    "RangeExpr": "RangeExpr(lo=Num(value=1), hi=Var(name='n'))",
    "Stmt": "Stmt(label=7, line=2)",
    "Assign": "Assign(label=10, line=4, target=Var(name='a'), "
              "value=Opaque())",
    "Do": "Do(label=None, line=3, var='k', lo=Num(value=1), "
          "hi=Var(name='n'), step=Num(value=1), "
          "body=[Continue(label=None, line=0)])",
    "If": "If(label=None, line=6, cond=Opaque(), "
          "then_body=[Goto(label=None, line=0, target=5)], else_body=[])",
    "IfGoto": "IfGoto(label=None, line=8, cond=Var(name='t'), target=99)",
    "Goto": "Goto(label=1, line=0, target=99)",
    "Continue": "Continue(label=99, line=9)",
    "Declaration": "Declaration(label=None, line=1, type_name='real', "
                   "name='x', size=Num(value=100))",
    "ParameterDef": "ParameterDef(label=None, line=0, name='n', "
                    "value=Num(value=64))",
    "Distribute": "Distribute(label=None, line=0, name='x', scheme='block')",
    "Comm": "Comm(label=None, line=0, kind='read', phase='send', "
            "args=['x(1:n)'], reduce=None, timing='EAGER')",
    "Program": "Program(body=[Goto(label=None, line=0, target=5)])",
    "_Substitution": "_Substitution(var='k', lo=SymExpr(1), hi=SymExpr(n))",
    "PointSection": "PointSection(array='x', index=SymExpr(5))",
    "AffineSection": "AffineSection(array='x', range=SymRange(1:n), "
                     "subs=(_Substitution(var='k', lo=SymExpr(1), "
                     "hi=SymExpr(n)),), origin=SymExpr(k))",
    "IndirectSection": "IndirectSection(array='y', index_array='a', "
                       "range=SymRange(1:n), subs=(_Substitution(var='k', "
                       "lo=SymExpr(1), hi=SymExpr(n)),), origin=SymExpr(k))",
    "MultiSection": "MultiSection(array='z', ranges=(SymRange(1:n), "
                    "SymRange(1:n)), subs=(_Substitution(var='k', "
                    "lo=SymExpr(1), hi=SymExpr(n)),), "
                    "origins=(SymExpr(k), SymExpr(k)))",
    "LoopContext": "LoopContext(loops=(('k', SymExpr(1), SymExpr(n)),))",
    "ArrayAccess": "<ref x(5) at s3>",
    "ArrayInfo": "ArrayInfo(name='x', type_name='real', "
                 "size=Num(value=100), "
                 "distribution=<Distribution.BLOCK: 'block'>)",
    "Production": "Production(node='s3', "
                  "position=<Position.BEFORE: 'before'>, "
                  "timing=<Timing.EAGER: 'eager'>, "
                  "elements=frozenset({'x'}))",
    "BatchOptions": "BatchOptions(split_messages=True, hardened=False, "
                    "trace=True, pipeline={'postpass': False})",
    "CompiledProgram": "CompiledProgram(name='p', ok=True, "
                       "annotated_source='a = 1\\n', reads=2, writes=0, "
                       "cache_hit=False, duration_s=0.0, error=None, "
                       "error_type=None, rung='balanced', degraded=False, "
                       "trace=None)",
    "Violation": "Violation(kind='balance', criterion='C1', element='x', "
                 "node='s3', message='forced')",
}


def _round_trips(value):
    return [pickle.loads(pickle.dumps(value, protocol))
            for protocol in (2, pickle.HIGHEST_PROTOCOL)] + [
        copy.copy(value), copy.deepcopy(value)]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_class_behaves_like_its_dataclass(name):
    value, compared = SAMPLES[name]
    assert type(value).__name__ == name
    assert not hasattr(type(value), "__dataclass_fields__")
    assert repr(value) == DATACLASS_REPR[name]
    for twin in _round_trips(value):
        assert type(twin) is type(value)
        assert twin == value and not twin != value
        assert repr(twin) == repr(value)
    field = type(value)._fields[-1] if type(value)._fields else "extra"
    if compared is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        twin = copy.copy(value)
        setattr(twin, field, "changed")
        assert twin != value
    else:
        assert hash(value) == hash(tuple(getattr(value, f)
                                         for f in compared))
        for twin in _round_trips(value):
            assert hash(twin) == hash(value)
            with pytest.raises(AttributeError):
                setattr(twin, field, "changed")
            with pytest.raises(AttributeError):
                delattr(twin, field)
            assert twin == value


def test_equality_needs_the_same_class_and_fields():
    assert ast.Num(1) == ast.Num(1) and ast.Num(1) != ast.Num(2)
    assert ast.Num(1) != ast.Var(1)
    assert ast.Goto(5) == ast.Goto(5)
    assert ast.Goto(5, label=1) != ast.Goto(5)
    assert ast.Goto(5) != ast.Continue()
    assert PointSection("x", ONE) != AffineSection("x", SymRange(ONE, ONE))
    assert (ast.Assign(ast.Var("a"), ast.Num(1)).__eq__(ast.Num(1))
            is NotImplemented)


def test_sections_compare_without_subs_or_origin():
    other_sub = _Substitution("j", ONE, N)
    pairs = [
        (AffineSection("x", RANGE, (SUB,), K), AffineSection("x", RANGE)),
        (IndirectSection("y", "a", RANGE, (SUB,), K),
         IndirectSection("y", "a", RANGE, (other_sub,), N)),
        (MultiSection("z", (RANGE,), (SUB,), (K,)),
         MultiSection("z", (RANGE,))),
    ]
    for first, second in pairs:
        assert first == second and hash(first) == hash(second)
        assert repr(first) != repr(second)
    assert AffineSection("x", RANGE) != AffineSection("y", RANGE)


def test_violation_compares_and_prints_without_its_witness_finder():
    """``find_witness`` is no field, as under the dataclass's
    ``field(compare=False, repr=False)``: two violations that differ
    only in it are equal, hash alike and print alike, and a copy keeps
    it and the witness path it found.  (A deep copy would copy the
    node, which compares by identity; :data:`SAMPLES` round-trips a
    violation without one.)"""
    path = (NODE,)
    found = Violation(kind="safety", criterion="C2", element="x", node=NODE,
                      message="unused", find_witness=lambda: path)
    plain = Violation("safety", "C2", "x", NODE, "unused")
    assert found == plain and hash(found) == hash(plain)
    assert repr(found) == repr(plain) == (
        "Violation(kind='safety', criterion='C2', element='x', "
        "node=<Node 3 s3>, message='unused')")
    assert plain.witness is None and found.witness == path
    assert str(found).endswith("(witness: 3)")
    twin = copy.copy(found)
    assert twin == found and twin.find_witness is found.find_witness
    assert twin.witness == path


def test_statement_signatures_keep_label_and_line_keyword_only():
    stmt = ast.Assign(ast.Var("a"), ast.Num(1), label=5, line=3)
    assert (stmt.label, stmt.line) == (5, 3)
    with pytest.raises(TypeError):
        ast.Assign(ast.Var("a"), ast.Num(1), 5)
    comm = ast.Comm("write", None, [], "sum")
    assert (comm.reduce, comm.timing, comm.label, comm.line) == (
        "sum", None, None, 0)
    assert ast.Continue().label is None


def test_node_keeps_identity_equality_and_id_hash():
    twin = copy.copy(NODE)
    assert twin != NODE and hash(twin) == hash(NODE) == 3
    assert vars(twin) == vars(NODE)
    assert repr(pickle.loads(pickle.dumps(NODE))) == "<Node 3 s3>"
    assert Node(4, NodeKind.LATCH).synthetic


def test_batch_options_default_to_no_pipeline_overrides():
    options = BatchOptions()
    assert options.pipeline == {} and options.pipeline is not (
        BatchOptions().pipeline)
    with pytest.raises(ValueError, match="unknown pipeline option"):
        BatchOptions(pipeline={"no_such_option": 1})
