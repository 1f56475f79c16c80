"""Inserting communication statements into the program (Figure 14 style).

Productions live at flow-graph nodes; this module maps them back to AST
positions and splices :class:`repro.lang.ast.Comm` statements in:

* statement/header nodes → directly before/after the statement;
  *after* an ``if … goto`` means on both of its out-edges, so the
  statement also goes first into the jump's landing-pad block (below);
* label nodes (goto targets) → before the labeled statement, *moving
  the label onto the first communication* so jumps execute it too
  (Figure 14's ``77 READ_Recv{...}``) — except loop entry before a
  label that heads a loop: the back jumps to the label must skip it,
  so it goes before the statement and the label stays put;
* goto landing pads → a new block around the jump: ``if c goto L``
  becomes ``if c then; <comms>; goto L; endif``, with section ranges
  narrowed to the iterations actually completed (``y(a(1:i))``).  A
  later placement at the wrapped jump resolves to its block: before
  the jump is before the block, after it is after the block;
* synthetic nodes on branch edges → a new (or extended) ``else`` branch,
  as in Figure 3;
* synthetic nodes on the fall-through edge of an ``if … goto`` → right
  after the jump, so only the fall-through runs them (and those on its
  jump edge go to the landing pad even when the jump leaves no loop);
* synthetic nodes on loop-exit edges → after the loop;
* anything else → nearest real neighbor (best effort).

The annotator mutates the program AST it was given; the pipeline parses
text privately, so a caller that passes text never sees it changed.
Every placement point is a statement of that program or a landing-pad
block, so the annotator finds a statement's body list through a map it
builds once from the program and extends with each block it makes.
"""

import copy

from repro.core.placement import Position
from repro.core.problem import Direction, Timing
from repro.graph.builder import label_node_name
from repro.graph.cfg import NodeKind
from repro.graph.interval_graph import EdgeType
from repro.lang import ast


class Annotator:
    """Splices the productions of placements into a program AST."""

    def __init__(self, analyzed):
        self.analyzed = analyzed
        self.ifg = analyzed.ifg
        self.program = analyzed.program
        self._goto_blocks = {}  # id(original IfGoto) -> replacement If
        self._bodies = _bodies_by_statement(self.program)

    # -- public -----------------------------------------------------------

    def apply(self, placement, kind, atomic=False, reduce_ops=None,
              one_per_section=False):
        """Insert the productions of ``placement`` as ``kind`` ("read"
        or "write") communication.

        With ``atomic=True`` only the LAZY solution is emitted, as single
        un-split operations (e.g. for a library call, §6).  ``reduce_ops``
        maps descriptors to reduction names (``"sum"``...): those are
        emitted as combining writes (``WRITE_Sum_...``), grouped apart
        from plain ones.  ``one_per_section`` emits a separate statement
        per descriptor instead of one vectorized statement (cache
        prefetches complete independently; messages do not).
        """
        direction = placement.problem.direction
        send_timing = (Timing.EAGER if direction is Direction.BEFORE
                       else Timing.LAZY)
        phased = []
        for production in placement.productions():
            if atomic:
                if production.timing is not Timing.LAZY:
                    continue
                phased.append((production, None))
            else:
                phase = "send" if production.timing is send_timing else "recv"
                phased.append((production, phase))
        # Emit sends before receives so that co-located pairs read
        # Send-then-Recv, as in the paper's figures.
        phased.sort(key=lambda item: item[1] == "recv")
        reduce_ops = reduce_ops or {}
        for production, phase in phased:
            groups = {}
            for descriptor in production.elements:
                groups.setdefault(reduce_ops.get(descriptor), []).append(descriptor)
            for reduce_name in sorted(groups, key=lambda r: (r is not None, str(r))):
                descriptors = sorted(groups[reduce_name], key=str)
                batches = ([[d] for d in descriptors] if one_per_section
                           else [descriptors])
                for batch in batches:
                    self._place(production.node, production.position, kind,
                                phase, batch, reduce=reduce_name,
                                timing=production.timing.name)

    def apply_timing(self, placement, kind, timing, one_per_section=False):
        """Insert only one timing's productions, as phase-less statements.

        Register promotion uses this: the EAGER solution of the load
        problem *is* the ``LOAD``, the EAGER solution of the store
        problem *is* the ``STORE`` — the matching LAZY points carry no
        code (the register itself).
        """
        for production in placement.productions(timing):
            descriptors = sorted(production.elements, key=str)
            batches = ([[d] for d in descriptors] if one_per_section
                       else [descriptors])
            for batch in batches:
                self._place(production.node, production.position, kind,
                            None, batch, timing=production.timing.name)

    # -- placement dispatch ---------------------------------------------------

    def _place(self, node, position, kind, phase, descriptors, reduce=None,
               timing=None):
        local_vars = self._local_vars(node)
        args = [d.format(local_vars=local_vars) for d in descriptors]
        comm = ast.Comm(kind, phase, args, reduce=reduce, timing=timing)

        def landing_pad_comm(jump_source):
            """The comm with section ranges over the loops the jump
            exits narrowed to the completed iterations (``lo:var``)."""
            partial_vars = frozenset(
                header.stmt.var
                for header in self.ifg.forest.enclosing_headers(jump_source)
                if not self.ifg.in_interval(header, node)
                and isinstance(header.stmt, ast.Do))
            args = [d.format(partial_vars=partial_vars) for d in descriptors]
            return ast.Comm(kind, phase, args, reduce=reduce, timing=timing)

        self._dispatch(node, position, comm, landing_pad_comm)

    def place_statement(self, node, position, stmt):
        """Insert an arbitrary prebuilt statement at a placement point —
        the seam the PRE transformer and the naive baseline use to splice
        statements they built themselves; a jump's landing pad gets the
        statement as it is."""
        self._dispatch(node, position, stmt, lambda jump_source: stmt)

    def _dispatch(self, node, position, stmt, landing_pad):
        """Insert ``stmt`` at ``(node, position)``; ``landing_pad`` maps
        the goto a synthetic node's jump edge leaves to the statement
        its landing pad gets instead."""
        if node.kind in (NodeKind.STMT, NodeKind.HEADER) and node.stmt is not None:
            if position is Position.BEFORE:
                self._insert_before(node.stmt, stmt)
            else:
                if isinstance(node.stmt, ast.IfGoto):
                    self._insert_on_jump(node.stmt, copy.copy(stmt),
                                         first=True)
                self._insert_after(node.stmt, stmt)
        elif node.kind is NodeKind.LABEL:
            target = self._label_target(node)
            loop_entry = (position is Position.BEFORE
                          and self.ifg.forest.is_header(node))
            self._insert_before(target, stmt, keep_label=loop_entry)
        elif node.kind is NodeKind.ENTRY:
            self._insert_at_program_start(stmt)
        elif node.kind is NodeKind.EXIT:
            self.program.body.append(stmt)
        elif node.synthetic:
            self._place_synthetic(node, stmt, landing_pad)
        else:
            self._place_fallback(node, stmt)

    def _place_synthetic(self, node, stmt, landing_pad):
        preds = self.ifg.cfg.preds(node)
        jump_preds = [p for p in preds if self._on_jump_edge(p, node)]
        if jump_preds:
            # The jump edge: wrap the jump in a block holding the
            # landing-pad statement.
            pad = landing_pad(jump_preds[0])
            source_stmt = _stmt_of(jump_preds[0])
            if isinstance(source_stmt, ast.IfGoto):
                self._insert_on_jump(source_stmt, pad)
            elif isinstance(source_stmt, ast.Goto):
                self._insert_before(source_stmt, pad)
            else:
                self._place_fallback(node, pad)
            return
        if len(preds) == 1 and isinstance(_stmt_of(preds[0]), ast.If):
            self._place_on_branch_edge(preds[0], stmt)
            return
        if len(preds) == 1 and preds[0].kind is NodeKind.HEADER:
            self._insert_after(preds[0].stmt, stmt)  # loop-exit edge
            return
        if node.kind is NodeKind.LATCH:
            # End of the loop body: executes once per iteration.
            header = next(
                (s for s in self.ifg.cfg.succs(node)
                 if s.kind is NodeKind.HEADER and isinstance(s.stmt, ast.Do)),
                None,
            )
            if header is not None:
                header.stmt.body.append(stmt)
                return
        if len(preds) == 1 and isinstance(_stmt_of(preds[0]), ast.IfGoto):
            # The fall-through edge of a jump (the jump edge is handled
            # above): its label's other entries must not run it.
            self._insert_after(preds[0].stmt, stmt)
            return
        self._place_fallback(node, stmt)

    # -- specific strategies -----------------------------------------------------

    def _place_on_branch_edge(self, branch_node, comm):
        """The synthetic node sits on an ``if``'s empty-branch edge:
        materialize/extend that branch (Figure 3's new ``else``)."""
        if_stmt = _stmt_of(branch_node)
        if if_stmt.then_body and not if_stmt.else_body:
            if_stmt.else_body.append(comm)
        elif if_stmt.else_body and not if_stmt.then_body:
            if_stmt.then_body.append(comm)
        else:
            if_stmt.else_body.append(comm)

    def _place_fallback(self, node, comm):
        """Best effort: before the nearest real statement downstream."""
        current, seen = node, set()
        while current is not None and current not in seen:
            seen.add(current)
            if current.stmt is not None:
                self._insert_before(current.stmt, comm)
                return
            if current.kind is NodeKind.EXIT:
                self.program.body.append(comm)
                return
            if current.kind is NodeKind.LABEL:
                self._insert_before(self._label_target(current), comm)
                return
            succs = self.ifg.cfg.succs(current)
            current = succs[0] if succs else None
        self.program.body.append(comm)

    # -- AST surgery -----------------------------------------------------------

    def _on_jump_edge(self, pred, node):
        """Whether ``node`` sits on the jump edge of the goto ``pred``:
        a JUMP edge out of a loop, or an edge to the goto's label."""
        if self.ifg.edge_type(pred, node) is EdgeType.JUMP:
            return True
        jump = _stmt_of(pred)
        if not isinstance(jump, (ast.IfGoto, ast.Goto)):
            return False
        succs = self.ifg.cfg.succs(node)
        return (len(succs) == 1 and succs[0].kind is NodeKind.LABEL
                and succs[0].name == label_node_name(jump.target))

    def _insert_on_jump(self, jump, stmt, first=False):
        """Insert ``stmt`` on the jump path of the ``if … goto`` statement
        ``jump``: into its landing-pad block, which replaces the jump on
        first use.  ``first`` statements (placed *after* the jump itself)
        precede the landing pad's own, which lie further along the jump
        edge; otherwise a statement goes right before the ``goto``."""
        block = self._goto_blocks.get(id(jump))
        if block is None:
            body_list, index = self._locate(jump)
            block = ast.If(jump.cond, [ast.Goto(jump.target)], [],
                           label=jump.label, line=jump.line)
            body_list[index] = block
            self._bodies[id(block)] = body_list
            self._goto_blocks[id(jump)] = block
        body = block.then_body
        if first:
            position = 0
            while getattr(body[position], "_anchored_after", None) is jump:
                position += 1
            stmt._anchored_after = jump
        else:
            position = len(body) - 1
        body.insert(position, stmt)

    def _insert_before(self, stmt, comm, keep_label=False):
        """Insert ``comm`` before ``stmt``.  Jumps to the statement's label
        must execute the communication too, so the label moves onto it
        unless ``keep_label``; then it goes before whichever statement
        carries the label now."""
        stmt = self._goto_blocks.get(id(stmt), stmt)
        body_list, index = self._locate(stmt)
        if keep_label:
            while stmt.label is None and index > 0 and isinstance(
                    body_list[index - 1], ast.Comm):
                index -= 1
                stmt = body_list[index]
        elif stmt.label is not None:
            comm.label = stmt.label
            stmt.label = None
        body_list.insert(index, comm)

    def _insert_after(self, stmt, comm):
        """Insert ``comm`` after ``stmt`` (after its landing-pad block for
        a wrapped jump), behind earlier insertions after it."""
        body_list, index = self._locate(self._goto_blocks.get(id(stmt), stmt))
        # keep send-before-recv order for multiple after-insertions
        position = index + 1
        while position < len(body_list) and isinstance(body_list[position], ast.Comm) \
                and getattr(body_list[position], "_anchored_after", None) is stmt:
            position += 1
        comm._anchored_after = stmt
        body_list.insert(position, comm)

    def _insert_at_program_start(self, comm):
        body = self.program.body
        index = 0
        while index < len(body) and isinstance(
                body[index], (ast.Declaration, ast.ParameterDef, ast.Distribute,
                              ast.Comm)):
            index += 1
        body.insert(index, comm)

    def _local_vars(self, node):
        """Loop variables of the loops enclosing ``node``: descriptors
        whose substituted loops all enclose the placement point render
        in their per-iteration form (``x(i)``, not ``x(1:n)``)."""
        variables = set()
        for header in self.ifg.forest.enclosing_headers(node):
            if isinstance(header.stmt, ast.Do):
                variables.add(header.stmt.var)
        return frozenset(variables)

    def _locate(self, stmt):
        """The body list containing ``stmt`` and its index there (by
        identity)."""
        body = self._bodies.get(id(stmt), ())
        for index, candidate in enumerate(body):
            if candidate is stmt:
                return body, index
        raise LookupError(f"statement {stmt!r} is not in the program")

    def _label_target(self, label_node):
        """The statement carrying the label of a LABEL node."""
        succs = self.ifg.cfg.succs(label_node)
        for succ in succs:
            if succ.stmt is not None:
                return succ.stmt
        raise LookupError(f"label node {label_node} has no statement successor")


def _stmt_of(node):
    return node.stmt


def _bodies_by_statement(program):
    """``{id(stmt): the body list holding it}`` over every statement."""
    bodies = {}
    stack = [program.body]
    while stack:
        body = stack.pop()
        for stmt in body:
            bodies[id(stmt)] = body
            if isinstance(stmt, ast.Do):
                stack.append(stmt.body)
            elif isinstance(stmt, ast.If):
                stack.append(stmt.then_body)
                stack.append(stmt.else_body)
    return bodies
