"""The per-array invalidation index builds the same problems as a scan.

``build_read_problem`` and ``build_write_problem`` check a definition
only against the universe descriptors indexed under its array.  Here
the definition effects are recomputed by a brute-force scan over the
whole universe, and both problems must agree on the universe order,
the TAKE, STEAL and GIVE bitsets at every node, the order of the
annotated nodes and the reduction operators.
"""

import pytest

import repro.commgen.problems as problems
from repro.analysis.sections import IndirectSection, section_conflicts
from repro.commgen.pipeline import generate_communication
from repro.lang.printer import format_program
from repro.testing.generator import ArrayProgramGenerator
from repro.testing.programs import (
    FIG1_SOURCE,
    FIG3_SOURCE,
    FIG11_SOURCE,
    analyze_source,
)

SELF_INDEXED = """
real x(100)
real y(100)
distribute x(block)
    do i = 1, n
        x(x(i)) = ...
        ... = x(i + 1)
        y(i) = x(x(i))
    enddo
    ... = x(5)
"""

#: A definition of an indirection array invalidates the indirect
#: sections built on it, which the index files under that array too.
INDIRECTION_DEFINED = """
real x(100)
integer a(100)
distribute x(block)
    do i = 1, n
        x(a(i)) = ...
    enddo
    do j = 1, n
        a(j) = ...
    enddo
    do k = 1, n
        ... = x(a(k))
    enddo
"""

MULTI_SUBSCRIPT = """
real g(10000)
integer a(100)
distribute g(block)
    do i = 1, n
        do j = 1, m
            g(i, j) = ...
            ... = g(i, j + 1)
        enddo
        ... = g(i, 5)
    enddo
    g(a(1), 2) = ...
"""


def _generated(goto_probability, seed, count=3):
    gen = ArrayProgramGenerator(seed=seed, max_depth=3,
                                goto_probability=goto_probability)
    return [format_program(gen.program(size=30)) for _ in range(count)]


PROGRAMS = {"fig1": FIG1_SOURCE, "fig3": FIG3_SOURCE, "fig11": FIG11_SOURCE,
            "self-indexed": SELF_INDEXED,
            "indirection-defined": INDIRECTION_DEFINED,
            "multi-subscript": MULTI_SUBSCRIPT}
for _corpus, _probability in (("structured", 0.0), ("jumpy", 0.3)):
    for _seed in (1, 2, 3):
        for _index, _text in enumerate(_generated(_probability, _seed)):
            PROGRAMS[f"{_corpus}-{_seed}-{_index}"] = _text


def _scan_invalidates(access, descriptor, refine):
    if (isinstance(descriptor, IndirectSection)
            and descriptor.index_array == access.array):
        return True
    if descriptor.array != access.array or descriptor == access.descriptor:
        return False
    return section_conflicts(access.descriptor, descriptor, refine=refine)


def _scan_def_effects(problem, access, index, gives, steal_own, refine=True):
    """The definition effects from a scan over the whole universe."""
    elements = list(problem.universe)
    for descriptor in elements:
        if _scan_invalidates(access, descriptor, refine):
            problem.add_steal(access.node, descriptor)
    if steal_own and access.descriptor in elements:
        problem.add_steal(access.node, access.descriptor)
    if gives and access.descriptor in elements:
        problem.add_give(access.node, access.descriptor)


def _observable(problem, nodes):
    return {
        "universe": list(problem.universe),
        "take": [problem.take_init(node) for node in nodes],
        "steal": [problem.steal_init(node) for node in nodes],
        "give": [problem.give_init(node) for node in nodes],
        "annotated": [node.id for node in problem.annotated_nodes()],
        "reduction_ops": getattr(problem, "reduction_ops", None),
    }


def _problems(source, refine, owner_computes):
    # A compile annotates the AST it analyzes, so each run compiles the
    # source afresh.
    analyzed = analyze_source(source)
    result = generate_communication(analyzed, refine_sections=refine,
                                    owner_computes=owner_computes)
    nodes = analyzed.ifg.nodes()
    return (_observable(result.read_problem, nodes),
            _observable(result.write_problem, nodes))


@pytest.mark.parametrize("owner_computes", [False, True])
@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_indexed_problems_equal_a_full_universe_scan(name, refine,
                                                     owner_computes,
                                                     monkeypatch):
    indexed = _problems(PROGRAMS[name], refine, owner_computes)
    monkeypatch.setattr(problems, "_apply_def_effects", _scan_def_effects)
    scanned = _problems(PROGRAMS[name], refine, owner_computes)
    assert indexed == scanned
    assert indexed[0]["universe"]  # every input communicates something


def test_self_indexed_definition_steals_its_indirect_sections():
    analyzed = analyze_source(SELF_INDEXED)
    read_problem = generate_communication(analyzed).read_problem
    indirect = [d for d in read_problem.universe
                if isinstance(d, IndirectSection)]
    assert [str(d) for d in indirect] == ["x(x(1:n))"]
    bit = read_problem.universe.bit(indirect[0])
    definition = next(node for node in analyzed.ifg.real_nodes()
                      if node.name.startswith("x(x(i)) ="))
    assert read_problem.steal_init(definition) & bit
