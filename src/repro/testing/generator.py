"""Seeded random structured programs and random GIVE-N-TAKE problems.

The generator produces mini-Fortran ASTs with nested ``do`` loops,
``if/else`` branches, and optional ``if … goto`` jumps out of loops
(always forward and outward, so the graphs stay reducible, like the
paper's Figure 11).  Used by the hypothesis property tests (the checker
is the oracle) and by the linear-complexity benchmark.
"""

import random

from repro.lang import ast
from repro.core.problem import Direction, Problem
from repro.testing.programs import AnalyzedProgram


class ProgramGenerator:
    """Deterministic random program factory."""

    def __init__(self, seed=0, max_depth=3, goto_probability=0.3):
        self.rng = random.Random(seed)
        self.max_depth = max_depth
        self.goto_probability = goto_probability
        self._counter = 0
        self._label = 100

    def program(self, size=12):
        """A random program with roughly ``size`` executable statements."""
        self._counter = 0
        budget = [size]
        body = self._body(budget, depth=0)
        if not body:
            body = [self._assign()]
        self._inject_gotos(body, continuations=[])
        return ast.Program(body)

    # -- structure ----------------------------------------------------------

    def _body(self, budget, depth):
        statements = []
        if depth == 0:
            # The top level absorbs whatever budget nesting left over, so
            # the requested program size is actually reached.
            while budget[0] > 0:
                statements.append(self._statement(budget, depth))
        else:
            length = self.rng.randint(1, 3)
            for _ in range(length):
                if budget[0] <= 0:
                    break
                statements.append(self._statement(budget, depth))
        return statements

    def _statement(self, budget, depth):
        budget[0] -= 1
        roll = self.rng.random()
        if depth < self.max_depth and roll < 0.25:
            return ast.Do(
                f"i{self._next()}", ast.Num(1), ast.Var("n"), ast.Num(1),
                self._body(budget, depth + 1),
            )
        if depth < self.max_depth and roll < 0.45:
            then_body = self._body(budget, depth + 1)
            else_body = self._body(budget, depth + 1) if self.rng.random() < 0.5 else []
            return ast.If(ast.Var(f"t{self._next()}"), then_body, else_body)
        return self._assign()

    def _assign(self):
        return ast.Assign(ast.Var(f"v{self._next()}"), ast.Opaque())

    def _next(self):
        self._counter += 1
        return self._counter

    # -- jumps out of loops ---------------------------------------------------

    def _inject_gotos(self, body, continuations):
        """Give some loops an ``if … goto`` to a statement that appears
        after them in an enclosing body (a forward jump out of the loop)."""
        for index, stmt in enumerate(body):
            following = body[index + 1:] + continuations
            if isinstance(stmt, ast.Do):
                if following and stmt.body and self.rng.random() < self.goto_probability:
                    target = self.rng.choice(following)
                    if target.label is None:
                        target.label = self._label
                        self._label += 1
                    position = self.rng.randrange(len(stmt.body) + 1)
                    stmt.body.insert(
                        position,
                        ast.IfGoto(ast.Var(f"t{self._next()}"), target.label),
                    )
                self._inject_gotos(stmt.body, following)
            elif isinstance(stmt, ast.If):
                self._inject_gotos(stmt.then_body, following)
                self._inject_gotos(stmt.else_body, following)


def random_analyzed_program(seed, size=12, max_depth=3, goto_probability=0.3):
    """Generate and analyze a random program."""
    generator = ProgramGenerator(seed, max_depth, goto_probability)
    return AnalyzedProgram(generator.program(size))


class ArrayProgramGenerator(ProgramGenerator):
    """Random programs with real array traffic, for fuzzing the full
    communication/prefetch/register pipelines.

    Declares a few arrays (some distributed, one indirection array) and
    makes assignments read/define them with the subscript shapes the
    analyses support: constants, loop-affine (``x(i + 2)``), and
    indirect (``x(a(i))``).
    """

    ARRAYS = ("xa", "xb", "xc")

    def __init__(self, seed=0, max_depth=3, goto_probability=0.2,
                 distributed=("xa", "xb")):
        super().__init__(seed, max_depth, goto_probability)
        self.distributed = distributed
        self._loop_vars = []

    def program(self, size=12):
        self._counter = 0
        self._loop_vars = []
        budget = [size]
        body = self._body(budget, depth=0)
        if not body:
            body = [self._assign()]
        self._inject_gotos(body, continuations=[])
        declarations = [
            ast.Declaration("real", name, ast.Num(1000)) for name in self.ARRAYS
        ]
        declarations.append(ast.Declaration("integer", "ind", ast.Num(1000)))
        declarations.extend(
            ast.Distribute(name, "block") for name in self.distributed
        )
        return ast.Program(declarations + body)

    def _statement(self, budget, depth):
        budget[0] -= 1
        roll = self.rng.random()
        if depth < self.max_depth and roll < 0.3:
            var = f"i{self._next()}"
            self._loop_vars.append(var)
            loop = ast.Do(var, ast.Num(1), ast.Var("n"), ast.Num(1),
                          self._body(budget, depth + 1))
            self._loop_vars.pop()
            return loop
        if depth < self.max_depth and roll < 0.45:
            then_body = self._body(budget, depth + 1)
            else_body = self._body(budget, depth + 1) if self.rng.random() < 0.5 else []
            return ast.If(ast.Var(f"t{self._next()}"), then_body, else_body)
        return self._array_statement()

    def _array_statement(self):
        roll = self.rng.random()
        if roll < 0.45:  # read into a scalar
            return ast.Assign(ast.Var(f"v{self._next()}"), self._array_ref())
        if roll < 0.75:  # plain definition
            return ast.Assign(self._array_ref(), ast.Opaque())
        target = self._array_ref()  # reduction
        return ast.Assign(target, ast.BinOp("+", target, ast.Num(1)))

    def _array_ref(self):
        array = self.rng.choice(self.ARRAYS)
        roll = self.rng.random()
        if roll < 0.25 or not self._loop_vars:
            return ast.ArrayRef(array, (ast.Num(self.rng.randint(1, 9)),))
        var = ast.Var(self.rng.choice(self._loop_vars))
        if roll < 0.6:
            offset = self.rng.randint(0, 3)
            subscript = var if offset == 0 else ast.BinOp("+", var, ast.Num(offset))
            return ast.ArrayRef(array, (subscript,))
        if roll < 0.8 and len(self._loop_vars) >= 2:
            first = ast.Var(self._loop_vars[-2])
            return ast.ArrayRef(array, (first, var))  # 2-D reference
        return ast.ArrayRef(array, (ast.ArrayRef("ind", (var,)),))


def random_problem(analyzed, seed=0, n_elements=3, direction=Direction.BEFORE,
                   take_probability=0.3, steal_probability=0.15,
                   give_probability=0.1):
    """A random GIVE-N-TAKE problem over ``analyzed``'s statement nodes.

    Every element gets at least one consumer so the instance is never
    vacuous.
    """
    from repro.graph.cfg import NodeKind

    rng = random.Random(seed)
    problem = Problem(direction=direction)
    stmt_nodes = [n for n in analyzed.ifg.real_nodes() if n.kind is NodeKind.STMT]
    if not stmt_nodes:
        return problem
    for e in range(n_elements):
        element = f"e{e}"
        consumers = [n for n in stmt_nodes if rng.random() < take_probability]
        if not consumers:
            consumers = [rng.choice(stmt_nodes)]
        for node in consumers:
            problem.add_take(node, element)
        for node in stmt_nodes:
            if rng.random() < steal_probability:
                problem.add_steal(node, element)
            if rng.random() < give_probability:
                problem.add_give(node, element)
    return problem
