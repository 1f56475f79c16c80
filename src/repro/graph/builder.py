"""AST → control flow graph.

One node per executable statement, following the granularity of the
paper's Figure 12:

* a ``do`` statement becomes a HEADER node that both tests the trip count
  (edges into the body and past the loop) and receives the back edge;
* every goto-targeted label gets a LABEL carrier node placed before its
  statement (this is the paper's node 11);
* ``if``/``if-goto`` statements are branch nodes; block bodies connect
  through them;
* declarations produce no nodes.

The resulting graph is *raw*: it may contain critical edges and loops with
multiple back edges.  Run :func:`repro.graph.normalize.normalize` before
interval analysis.
"""

from repro.lang import ast
from repro.lang.printer import format_first_line
from repro.graph.cfg import ControlFlowGraph, NodeKind
from repro.util.errors import GraphError


def build_cfg(program):
    """Build a raw CFG from a parsed :class:`repro.lang.ast.Program`."""
    return _Builder(program).build()


class _Builder:
    def __init__(self, program):
        self._program = program
        self._cfg = ControlFlowGraph()
        self._label_nodes = {}
        self._pending_gotos = []  # (source node, target label)

    def build(self):
        cfg = self._cfg
        statements = self._program.executables()
        self._goto_targets = _collect_goto_targets(statements)

        cfg.entry = cfg.new_node(NodeKind.ENTRY, name="entry")
        first, open_ends = self._build_body(statements)
        if first is not None:
            cfg.add_edge(cfg.entry, first)
            cfg.exit = cfg.new_node(NodeKind.EXIT, name="exit")
            for end in open_ends:
                cfg.add_edge(end, cfg.exit)
        else:
            cfg.exit = cfg.new_node(NodeKind.EXIT, name="exit")
            cfg.add_edge(cfg.entry, cfg.exit)

        for source, label in self._pending_gotos:
            target = self._label_nodes.get(label)
            if target is None:
                raise GraphError(f"goto targets undefined label {label}")
            cfg.add_edge(source, target)
        return cfg

    def _build_body(self, statements):
        """Build a statement list; return (first_node, open_end_nodes).

        ``first_node`` is None for an empty body.  ``open_end_nodes`` are
        the nodes whose control continues past the list.
        """
        first = None
        open_ends = []
        for stmt in statements:
            node, ends = self._build_statement(stmt)
            if node is None:
                continue  # declaration
            if first is None:
                first = node
            for end in open_ends:
                self._cfg.add_edge(end, node)
            open_ends = ends
        return first, open_ends

    def _build_statement(self, stmt):
        """Build one statement; return (entry_node, open_end_nodes)."""
        if isinstance(stmt, (ast.Declaration, ast.ParameterDef, ast.Distribute)):
            return None, []

        entry = None
        if stmt.label is not None and stmt.label in self._goto_targets:
            if stmt.label in self._label_nodes:
                raise GraphError(
                    f"label {stmt.label} is defined more than once")
            entry = self._cfg.new_node(NodeKind.LABEL, stmt=None,
                                       name=label_node_name(stmt.label))
            self._label_nodes[stmt.label] = entry

        if isinstance(stmt, (ast.Assign, ast.Continue, ast.Comm)):
            node = self._cfg.new_node(NodeKind.STMT, stmt=stmt, name=_describe(stmt))
            ends = [node]
        elif isinstance(stmt, ast.Do):
            node, ends = self._build_do(stmt)
        elif isinstance(stmt, ast.If):
            node, ends = self._build_if(stmt)
        elif isinstance(stmt, ast.IfGoto):
            node = self._cfg.new_node(NodeKind.STMT, stmt=stmt, name=_describe(stmt))
            self._pending_gotos.append((node, stmt.target))
            ends = [node]  # fall-through only; the jump edge is resolved later
        elif isinstance(stmt, ast.Goto):
            node = self._cfg.new_node(NodeKind.STMT, stmt=stmt, name=_describe(stmt))
            self._pending_gotos.append((node, stmt.target))
            ends = []  # no fall-through
        else:
            raise GraphError(f"cannot build CFG for statement {stmt!r}")

        if entry is not None:
            self._cfg.add_edge(entry, node)
            return entry, ends
        return node, ends

    def _build_do(self, stmt):
        header = self._cfg.new_node(NodeKind.HEADER, stmt=stmt, name=_describe(stmt))
        first, open_ends = self._build_body(stmt.body)
        if first is None:
            # Empty loop body: materialize it as a no-op latch so the loop
            # still has the header-body-header shape.
            latch = self._cfg.new_node(NodeKind.LATCH, name="latch")
            self._cfg.add_edge(header, latch)
            self._cfg.add_edge(latch, header)
        else:
            self._cfg.add_edge(header, first)
            for end in open_ends:
                self._cfg.add_edge(end, header)
        return header, [header]  # loop exit: the header falls through

    def _build_if(self, stmt):
        node = self._cfg.new_node(NodeKind.STMT, stmt=stmt, name=_describe(stmt))
        ends = []
        then_first, then_ends = self._build_body(stmt.then_body)
        if then_first is None:
            ends.append(node)
        else:
            self._cfg.add_edge(node, then_first)
            ends.extend(then_ends)
        else_first, else_ends = self._build_body(stmt.else_body)
        if else_first is None:
            if node not in ends:
                ends.append(node)  # no else branch: fall past the if
        else:
            self._cfg.add_edge(node, else_first)
            ends.extend(else_ends)
        return node, ends


def label_node_name(label):
    """The name of the LABEL node carrying goto target ``label``."""
    return f"label {label}"


def _collect_goto_targets(statements):
    targets = set()
    for stmt in ast.walk_statements(statements):
        if isinstance(stmt, (ast.Goto, ast.IfGoto)):
            targets.add(stmt.target)
    return targets


def _describe(stmt):
    """A short tag for debugging/dot output: the statement's first line."""
    text = format_first_line(stmt).strip()
    return text if len(text) <= 40 else text[:37] + "..."
