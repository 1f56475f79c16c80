"""Applying PRE results to the program: common-subexpression elimination
as an actual AST transformation.

The GIVE-N-TAKE LAZY solution gives the evaluation points; this pass
splices ``__cseK = <expr>`` assignments there and rewrites every
consumer to use the temporary.  Sufficiency (C3) guarantees each
rewritten occurrence is dominated by an evaluation on every path, and
balance keeps the temporaries single-assignment per region.
"""

from repro.commgen.annotate import Annotator
from repro.core.placement import Placement
from repro.core.problem import Timing
from repro.core.solver import solve
from repro.lang import ast
from repro.lang.printer import format_expr, format_program
from repro.pre.expressions import build_cse_problem


class CSEResult:
    """The transformed program plus bookkeeping."""

    def __init__(self, analyzed, problem, placement, temporaries):
        self.analyzed = analyzed
        self.problem = problem
        self.placement = placement
        self.temporaries = temporaries  # expression text -> temp name

    def transformed_source(self):
        return format_program(self.analyzed.program)

    def evaluation_sites(self, text):
        from repro.pre.gnt_pre import lazy_insertion_nodes

        return lazy_insertion_nodes(self.placement, text)


def eliminate_common_subexpressions(analyzed):
    """Run GIVE-N-TAKE CSE over ``analyzed`` and rewrite its program.

    Returns a :class:`CSEResult`; the analyzed program is mutated (parse
    a fresh copy if the original must be kept).
    """
    problem, operands = build_cse_problem(analyzed)
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)

    # Collect a rebuildable AST template per expression text.
    templates = _expression_templates(analyzed.program)

    temporaries = {}
    annotator = Annotator(analyzed)
    for index, text in enumerate(problem.universe):
        temporaries[text] = f"__cse{index}"

    # Insert evaluations at the LAZY production sites...
    for production in placement.productions(Timing.LAZY):
        for text in production.elements:
            template = templates.get(text)
            if template is None:
                continue
            assignment = ast.Assign(ast.Var(temporaries[text]), template)
            annotator.place_statement(production.node, production.position,
                                      assignment)

    # ... then rewrite consumers (the newly inserted assignments keep
    # their original right-hand sides: they ARE the evaluations).
    inserted = {
        id(stmt) for stmt in ast.walk_statements(analyzed.program.body)
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Var)
        and stmt.target.name.startswith("__cse")
    }
    _rewrite_consumers(analyzed.program.body, temporaries, inserted)
    return CSEResult(analyzed, problem, placement, temporaries)


def eliminate_with_lcm(analyzed):
    """The same CSE transformation driven by Lazy Code Motion.

    LCM's INSERT points get ``__lcmK = expr`` assignments, DELETE'd uses
    are rewritten to the temporary, and kept computations are split into
    ``__lcmK = expr`` + use (the temporary is the canonical value).
    Useful for semantic cross-validation against the GIVE-N-TAKE
    transform: both must preserve program meaning.
    """
    from repro.core.placement import Position
    from repro.pre.lazy_code_motion import lazy_code_motion

    problem, _ = build_cse_problem(analyzed)
    lcm = lazy_code_motion(analyzed.ifg, problem)
    templates = _expression_templates(analyzed.program)
    universe = problem.universe

    temporaries = {text: f"__lcm{index}"
                   for index, text in enumerate(universe)}

    annotator = Annotator(analyzed)
    # insertions at the projected nodes
    for node, bits in lcm.insert_nodes.items():
        for text in universe.members(bits):
            template = templates.get(text)
            if template is None:
                continue
            annotator.place_statement(
                node, Position.BEFORE,
                ast.Assign(ast.Var(temporaries[text]), template))

    # kept computations become explicit temp definitions; rewrite only
    # expressions that are inserted somewhere or deleted somewhere
    transformable = 0
    for bits in lcm.insert_nodes.values():
        transformable |= bits
    for bits in lcm.delete_nodes.values():
        transformable |= bits
    kept = {}  # node -> bits still computed there
    for node in analyzed.ifg.real_nodes():
        used = problem.take_init(node)
        keep = used & ~lcm.delete_nodes.get(node, 0) & transformable
        if keep:
            template_stmts = []
            for text in universe.members(keep):
                template = templates.get(text)
                if template is not None:
                    template_stmts.append(
                        ast.Assign(ast.Var(temporaries[text]), template))
            for stmt in reversed(template_stmts):
                annotator.place_statement(node, Position.BEFORE, stmt)

    rewrite_names = {
        text: name for text, name in temporaries.items()
        if universe.bit(text) & transformable
    }
    inserted = {
        id(stmt) for stmt in ast.walk_statements(analyzed.program.body)
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Var)
        and stmt.target.name.startswith("__lcm")
    }
    _rewrite_consumers(analyzed.program.body, rewrite_names, inserted)
    return CSEResult(analyzed, problem, None, temporaries)


def _expression_templates(program):
    templates = {}
    for stmt in ast.walk_statements(program.body):
        for expr in ast.statement_expressions(stmt):
            if expr is None:
                continue
            for sub in ast.walk_expressions(expr):
                if isinstance(sub, ast.BinOp):
                    templates.setdefault(format_expr(sub), sub)
    return templates


def _rewrite_consumers(body, temporaries, inserted):
    for stmt in body:
        if id(stmt) in inserted:
            continue
        if isinstance(stmt, ast.Assign):
            stmt.value = _rewrite_expr(stmt.value, temporaries)
            if isinstance(stmt.target, ast.ArrayRef):
                stmt.target = _rewrite_expr(stmt.target, temporaries,
                                            top_level_array=True)
        elif isinstance(stmt, ast.Do):
            stmt.lo = _rewrite_expr(stmt.lo, temporaries)
            stmt.hi = _rewrite_expr(stmt.hi, temporaries)
            _rewrite_consumers(stmt.body, temporaries, inserted)
        elif isinstance(stmt, ast.If):
            stmt.cond = _rewrite_expr(stmt.cond, temporaries)
            _rewrite_consumers(stmt.then_body, temporaries, inserted)
            _rewrite_consumers(stmt.else_body, temporaries, inserted)
        elif isinstance(stmt, ast.IfGoto):
            stmt.cond = _rewrite_expr(stmt.cond, temporaries)


def _rewrite_expr(expr, temporaries, top_level_array=False):
    if isinstance(expr, ast.BinOp):
        text = format_expr(expr)
        if text in temporaries:
            return ast.Var(temporaries[text])
        return ast.BinOp(expr.op,
                         _rewrite_expr(expr.left, temporaries),
                         _rewrite_expr(expr.right, temporaries))
    if isinstance(expr, ast.ArrayRef):
        subscripts = tuple(_rewrite_expr(s, temporaries)
                           for s in expr.subscripts)
        return ast.ArrayRef(expr.name, subscripts)
    return expr
