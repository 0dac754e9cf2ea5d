"""Static call graph of the instrumented kernel, by AST extraction.

Pure :mod:`ast` analysis (no import, no execution) over
``src/repro/kernel/**`` — the same discipline as the proflint AST pass
(:mod:`repro.lint.ast_lint`), whose call-shape helpers this module
reuses.  The product is a :class:`CallGraph` whose nodes are

* **kfunc** — a ``@kfunc(...)``-decorated definition; the node carries
  the *tag name* (the ``name=`` override when present, e.g. ``kmin`` →
  ``min``) that the instrumentation pass assigns a profiling tag;
* **asm** — a machinery-driven routine registered at module level via
  ``X_META = register_asm("name", ...)`` (``ISAINTR``, ``swtch``),
  entered through ``k.enter(X_META)`` rather than a Python call;
* **inline** — an inline measurement point fired by
  ``k.inline_trigger("NAME")`` (the paper's ``MGET`` idiom);
* **glue** — every other function or method: not instrumented, but call
  edges flow *through* it (a driver's ``_intr`` method reaches the
  kfuncs it calls).

Edges are extracted with deliberately simple, one-sided resolution
rules that cover the kernel's actual idioms:

* bare-name calls resolve through the lexical scope chain (nested defs,
  module top level) and then a global index of top-level definitions —
  which is how cross-module ``from X import f; f(k, ...)`` call sites
  resolve without import tracking;
* ``self.f(...)`` resolves against the enclosing class; ``k.f(...)`` /
  ``kernel.f(...)`` / ``anything.kernel.f(...)`` against the ``Kernel``
  class (kernel convention: the first argument ``k`` *is* the kernel);
* ``k.enter(X_META)`` / ``k.leave(X_META)`` resolve to the asm node the
  meta variable registers; ``k.inline_trigger("X")`` to the inline node;
* module-level dict/list/tuple literals whose values are plain names are
  **dispatch tables** (``_SYSENT``): referencing the table adds edges to
  every member;
* a name *loaded* outside call position is an address-taken reference
  (callback registration) and gets an edge too.

Roots come in four categories: ``syscall`` (the trap gate), ``interrupt``
(``ISAINTR`` plus every handler wired through ``InterruptLine(handler=…)``,
``register_soft_interrupt(...)`` or ``clock_chip.program(...)`` — lambda
handlers are unwrapped to their body's targets), ``scheduler`` (``swtch``
and the dispatcher loop), and ``harness`` (everything the workload
modules under ``src/repro/workloads/**`` call into directly).  A tag is
statically *reachable* when a BFS from any root reaches its node.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.lint.ast_lint import _call_name, kernel_source_root

NodeKind = str  # "kfunc" | "asm" | "inline" | "glue"

#: Attribute bases that denote the kernel instance at a call site.
_KERNEL_NAMES = frozenset({"k", "kernel"})

#: Root category names, in presentation order.
ROOT_CATEGORIES = ("syscall", "interrupt", "scheduler", "harness")


@dataclasses.dataclass(frozen=True)
class CallGraphNode:
    """One graph node (see the module docstring for the kinds)."""

    key: str
    kind: NodeKind
    #: Instrumented tag name (kfunc/asm/inline); None for glue.
    tag: Optional[str]
    #: Source-module path (``netinet/tcp_input``) for kfunc/asm nodes.
    module: Optional[str]
    #: Repo-relative source file the definition (or trigger) lives in.
    source: str
    line: int

    @property
    def instrumented(self) -> bool:
        return self.tag is not None


@dataclasses.dataclass
class CallGraph:
    """Nodes, directed call edges, and categorised entry points."""

    nodes: dict[str, CallGraphNode]
    edges: dict[str, frozenset[str]]
    roots: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        self.by_tag: dict[str, str] = {
            node.tag: key for key, node in self.nodes.items() if node.tag
        }

    def reachable_keys(
        self, categories: Optional[Iterable[str]] = None
    ) -> frozenset[str]:
        """Every node key a BFS from the selected roots reaches."""
        selected = (
            tuple(categories) if categories is not None else ROOT_CATEGORIES
        )
        frontier = sorted(
            {key for cat in selected for key in self.roots.get(cat, ())}
        )
        seen = set(frontier)
        while frontier:
            nxt: list[str] = []
            for key in frontier:
                for callee in self.edges.get(key, ()):
                    if callee not in seen:
                        seen.add(callee)
                        nxt.append(callee)
            frontier = sorted(nxt)
        return frozenset(seen)

    def reachable_tags(
        self, categories: Optional[Iterable[str]] = None
    ) -> frozenset[str]:
        """Instrumented tag names reachable from the selected roots."""
        keys = self.reachable_keys(categories)
        return frozenset(
            node.tag for key in keys if (node := self.nodes[key]).tag
        )

    def tag_neighborhood(self, tag: str, hops: int = 2) -> frozenset[str]:
        """Instrumented tags within *hops* undirected edges of *tag*.

        The blind-spot heuristic's notion of "nearby code": a workload
        whose observed tags sit in this set likely runs close enough to
        the uncovered function to be perturbed into hitting it.
        """
        start = self.by_tag.get(tag)
        if start is None:
            return frozenset()
        undirected: dict[str, set[str]] = {}
        for caller, callees in self.edges.items():
            for callee in callees:
                undirected.setdefault(caller, set()).add(callee)
                undirected.setdefault(callee, set()).add(caller)
        frontier = {start}
        seen = {start}
        for _ in range(hops):
            frontier = {
                neighbor
                for key in frontier
                for neighbor in undirected.get(key, ())
                if neighbor not in seen
            }
            seen |= frontier
        return frozenset(
            node.tag
            for key in seen
            if (node := self.nodes[key]).tag and node.tag != tag
        )

    def subsystem(self, tag: str) -> str:
        """The subsystem a tag belongs to (``kern``, ``netinet``, …).

        Kfunc/asm nodes use the first segment of their declared source
        module; inline nodes fall back to the directory of the file the
        trigger fires from.
        """
        key = self.by_tag.get(tag)
        if key is None:
            return "<unknown>"
        node = self.nodes[key]
        if node.module:
            return node.module.split("/", 1)[0]
        parts = Path(node.source).parts
        return parts[0] if len(parts) > 1 else "<top>"


# -- extraction ---------------------------------------------------------------


class _ModuleIndex:
    """Phase-1 product for one source file: definitions and literals."""

    def __init__(self, source: str, tree: ast.Module) -> None:
        self.source = source
        self.tree = tree
        #: top-level python name -> node key
        self.toplevel: dict[str, str] = {}
        #: class name -> {method name -> node key}
        self.classes: dict[str, dict[str, str]] = {}
        #: meta variable name -> asm node key
        self.meta_vars: dict[str, str] = {}
        #: table variable name -> member python names
        self.tables: dict[str, tuple[str, ...]] = {}


def _kfunc_decoration(node: ast.FunctionDef) -> Optional[tuple[str, Optional[str]]]:
    """(tag name, module) when *node* is ``@kfunc(...)``-decorated."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if _call_name(decorator) != "kfunc":
            continue
        tag = node.name
        module = None
        for kw in decorator.keywords:
            if not isinstance(kw.value, ast.Constant):
                continue
            if kw.arg == "name" and isinstance(kw.value.value, str):
                tag = kw.value.value
            elif kw.arg == "module" and isinstance(kw.value.value, str):
                module = kw.value.value
        return tag, module
    return None


def _register_asm_args(call: ast.Call) -> Optional[tuple[str, Optional[str]]]:
    """(tag name, module) when *call* is ``register_asm("name", ...)``."""
    if _call_name(call) != "register_asm":
        return None
    if not call.args or not isinstance(call.args[0], ast.Constant):
        return None
    tag = call.args[0].value
    if not isinstance(tag, str):
        return None
    module = None
    for kw in call.keywords:
        if (
            kw.arg == "module"
            and isinstance(kw.value, ast.Constant)
            and isinstance(kw.value.value, str)
        ):
            module = kw.value.value
    return tag, module


def _literal_name_table(value: ast.AST) -> Optional[tuple[str, ...]]:
    """Member names of a dict/list/tuple literal of plain names."""
    if isinstance(value, ast.Dict):
        elements = value.values
    elif isinstance(value, (ast.List, ast.Tuple)):
        elements = value.elts
    else:
        return None
    names = tuple(e.id for e in elements if isinstance(e, ast.Name))
    return names if names and len(names) == len(elements) else None


class _Extractor:
    """Two-phase extraction over a set of source files."""

    def __init__(self) -> None:
        self.nodes: dict[str, CallGraphNode] = {}
        self.edges: dict[str, set[str]] = {}
        self.modules: list[_ModuleIndex] = []
        #: global python name -> node keys (top-level defs, all files)
        self.by_python: dict[str, list[str]] = {}
        #: global meta variable name -> asm node key
        self.global_meta: dict[str, str] = {}
        #: Kernel class methods: name -> node key
        self.kernel_methods: dict[str, str] = {}
        #: method name -> node keys, across every indexed class
        self.methods_by_name: dict[str, list[str]] = {}
        #: interrupt handler targets discovered while extracting edges
        self.interrupt_targets: set[str] = set()

    # -- phase 1: index definitions -----------------------------------------

    def _add_node(self, node: CallGraphNode) -> str:
        existing = self.nodes.get(node.key)
        if existing is None:
            self.nodes[node.key] = node
        return node.key

    def index_module(self, source: str, tree: ast.Module) -> None:
        index = _ModuleIndex(source, tree)
        self.modules.append(index)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decoration = _kfunc_decoration(stmt)
                if decoration is not None:
                    tag, module = decoration
                    key = self._add_node(CallGraphNode(
                        key=f"tag:{tag}", kind="kfunc", tag=tag,
                        module=module, source=source, line=stmt.lineno,
                    ))
                else:
                    key = self._add_node(CallGraphNode(
                        key=f"{source}:{stmt.name}", kind="glue", tag=None,
                        module=None, source=source, line=stmt.lineno,
                    ))
                index.toplevel[stmt.name] = key
                self.by_python.setdefault(stmt.name, []).append(key)
            elif isinstance(stmt, ast.ClassDef):
                methods: dict[str, str] = {}
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = self._add_node(CallGraphNode(
                            key=f"{source}:{stmt.name}.{item.name}",
                            kind="glue", tag=None, module=None,
                            source=source, line=item.lineno,
                        ))
                        methods[item.name] = key
                        self.methods_by_name.setdefault(item.name, []).append(key)
                index.classes[stmt.name] = methods
                if stmt.name == "Kernel":
                    self.kernel_methods.update(methods)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if isinstance(stmt, ast.Assign):
                    if len(stmt.targets) != 1:
                        continue
                    target = stmt.targets[0]
                else:
                    target = stmt.target
                if not isinstance(target, ast.Name) or stmt.value is None:
                    continue
                if isinstance(stmt.value, ast.Call):
                    asm = _register_asm_args(stmt.value)
                    if asm is not None:
                        tag, module = asm
                        key = self._add_node(CallGraphNode(
                            key=f"tag:{tag}", kind="asm", tag=tag,
                            module=module, source=source, line=stmt.lineno,
                        ))
                        index.meta_vars[target.id] = key
                        self.global_meta[target.id] = key
                        continue
                table = _literal_name_table(stmt.value)
                if table is not None:
                    index.tables[target.id] = table

    # -- phase 2: extract edges ---------------------------------------------

    def extract_all_edges(self) -> None:
        for index in self.modules:
            for stmt in index.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._extract_function(
                        index, stmt, index.toplevel[stmt.name],
                        scope=[], class_name=None,
                    )
                elif isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self._extract_function(
                                index, item,
                                index.classes[stmt.name][item.name],
                                scope=[], class_name=stmt.name,
                            )

    def _extract_function(
        self,
        index: _ModuleIndex,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        key: str,
        scope: list[dict[str, str]],
        class_name: Optional[str],
    ) -> None:
        """Collect *func*'s outgoing edges; recurse into nested defs."""
        local: dict[str, str] = {}
        nested: list[ast.FunctionDef] = []
        for child in _walk_body(func.body):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_key = self._add_node(CallGraphNode(
                    key=f"{key}.{child.name}", kind="glue", tag=None,
                    module=None, source=index.source, line=child.lineno,
                ))
                local[child.name] = nested_key
                nested.append(child)
        bucket = self.edges.setdefault(key, set())
        resolver = _CallResolver(self, index, scope + [local], class_name)
        for target in resolver.targets(func.body, skip_nested=True):
            bucket.add(target)
        self.interrupt_targets.update(resolver.interrupt_targets)
        for child in nested:
            self._extract_function(
                index, child, local[child.name],
                scope=scope + [local], class_name=class_name,
            )

    def resolve_inline(self, name: str, source: str, line: int) -> str:
        return self._add_node(CallGraphNode(
            key=f"inline:{name}", kind="inline", tag=name,
            module=None, source=source, line=line,
        ))


def _walk_body(body: list) -> Iterator[ast.AST]:
    """Direct walk of a statement list, not descending into nested defs."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            yield from _walk_node(child)


def _walk_node(node: ast.AST) -> Iterator[ast.AST]:
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_node(child)


class _CallResolver:
    """Resolves call/reference targets inside one function body."""

    def __init__(
        self,
        extractor: _Extractor,
        index: _ModuleIndex,
        scope: list[dict[str, str]],
        class_name: Optional[str],
    ) -> None:
        self.x = extractor
        self.index = index
        self.scope = scope
        self.class_name = class_name
        self.interrupt_targets: set[str] = set()

    # -- name resolution ----------------------------------------------------

    def _resolve_bare(self, name: str) -> list[str]:
        for frame in reversed(self.scope):
            if name in frame:
                return [frame[name]]
        if name in self.index.toplevel:
            return [self.index.toplevel[name]]
        if name in self.index.meta_vars:
            return [self.index.meta_vars[name]]
        return list(self.x.by_python.get(name, ()))

    def _resolve_table(self, name: str) -> list[str]:
        members = self.index.tables.get(name)
        if not members:
            return []
        out: list[str] = []
        for member in members:
            out.extend(self._resolve_bare(member))
        return out

    def _resolve_handler(self, expr: ast.AST) -> list[str]:
        """An interrupt-handler expression's target node(s).

        ``handler=self._intr`` → the method; ``handler=run_netisr`` → the
        closure; ``lambda: softclock(self)`` → every target the lambda
        body references.
        """
        if isinstance(expr, ast.Name):
            return self._resolve_bare(expr.id)
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.class_name is not None
            ):
                method = self.index.classes.get(self.class_name, {}).get(expr.attr)
                return [method] if method else []
            return []
        if isinstance(expr, ast.Lambda):
            return list(self.targets([expr.body], skip_nested=False))
        return []

    # -- the walk -----------------------------------------------------------

    def targets(self, body: list, skip_nested: bool) -> set[str]:
        out: set[str] = set()
        call_funcs: set[int] = set()
        walker = _walk_body(body) if skip_nested else _walk_exprs(body)
        nodes = list(walker)
        for node in nodes:
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                out.update(self._call_targets(node))
        for node in nodes:
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in call_funcs
            ):
                # Address-taken reference (callback registration) or a
                # dispatch-table load.
                table = self._resolve_table(node.id)
                if table:
                    out.update(table)
                else:
                    out.update(self._resolve_bare(node.id))
        return out

    def _call_targets(self, call: ast.Call) -> set[str]:
        out: set[str] = set()
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "InterruptLine":
                for kw in call.keywords:
                    if kw.arg == "handler":
                        self.interrupt_targets.update(
                            self._resolve_handler(kw.value)
                        )
            out.update(self._resolve_bare(func.id))
            return out
        if not isinstance(func, ast.Attribute):
            return out
        attr = func.attr
        if attr in ("enter", "leave") and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Name):
                key = self.index.meta_vars.get(arg.id) or self.x.global_meta.get(
                    arg.id
                )
                if key:
                    out.add(key)
            return out
        if attr == "inline_trigger" and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.add(
                    self.x.resolve_inline(
                        arg.value, self.index.source, call.lineno
                    )
                )
            return out
        if attr == "register_soft_interrupt":
            handler_expr: Optional[ast.AST] = None
            if len(call.args) >= 3:
                handler_expr = call.args[2]
            for kw in call.keywords:
                if kw.arg in ("run", "handler", "body"):
                    handler_expr = kw.value
            if handler_expr is not None:
                self.interrupt_targets.update(self._resolve_handler(handler_expr))
            return out
        if attr == "program" and call.args:
            # clock_chip.program(handler): the periodic hardclock wiring.
            if (
                isinstance(func.value, ast.Attribute)
                and func.value.attr == "clock_chip"
            ):
                self.interrupt_targets.update(
                    self._resolve_handler(call.args[0])
                )
            return out
        value = func.value
        if isinstance(value, ast.Name) and value.id == "self":
            if self.class_name is not None:
                method = self.index.classes.get(self.class_name, {}).get(attr)
                if method:
                    out.add(method)
                    return out
            # self.<kernel method> inside the Kernel class itself is the
            # classes lookup above; anything else is unresolvable.
            return out
        if _is_kernel_value(value):
            method = self.x.kernel_methods.get(attr)
            if method:
                out.add(method)
                return out
        # Closed-world fallback: a method name defined by exactly one
        # class in the scanned tree resolves to it (``k.console.puts``).
        # Ambiguous names (``_intr`` lives in three drivers) are skipped
        # rather than over-edged.
        candidates = self.x.methods_by_name.get(attr, ())
        if len(candidates) == 1:
            out.add(candidates[0])
        return out


def _walk_exprs(exprs: list) -> Iterator[ast.AST]:
    for expr in exprs:
        yield from _walk_node(expr)


def _is_kernel_value(value: ast.AST) -> bool:
    """Does this attribute base denote the kernel instance?"""
    if isinstance(value, ast.Name):
        return value.id in _KERNEL_NAMES
    if isinstance(value, ast.Attribute):
        return value.attr == "kernel"
    return False


def workloads_source_root() -> Path:
    """Where the workload (harness) source lives."""
    import repro.workloads

    return Path(repro.workloads.__file__).parent


def _iter_sources(base: Path) -> Iterator[tuple[str, Path]]:
    for path in sorted(base.rglob("*.py")):
        yield str(path.relative_to(base)), path


def build_call_graph(
    kernel_root: Optional[Union[str, Path]] = None,
    workloads_root: Optional[Union[str, Path]] = None,
) -> CallGraph:
    """Extract the instrumented kernel's static call graph.

    *kernel_root* / *workloads_root* default to the installed package
    sources; tests point them at mutated copies.
    """
    kernel_base = Path(kernel_root) if kernel_root else kernel_source_root()
    harness_base = (
        Path(workloads_root) if workloads_root else workloads_source_root()
    )
    extractor = _Extractor()
    kernel_indices: list[tuple[str, ast.Module]] = []
    for source, path in _iter_sources(kernel_base):
        tree = ast.parse(path.read_text())
        kernel_indices.append((source, tree))
        extractor.index_module(source, tree)
    extractor.extract_all_edges()

    # Harness scan: workload modules are *roots*, not graph members —
    # every kernel node they call or reference becomes an entry point.
    harness_targets: set[str] = set()
    for source, path in _iter_sources(harness_base):
        tree = ast.parse(path.read_text())
        index = _ModuleIndex(f"<harness>/{source}", tree)
        resolver = _CallResolver(extractor, index, scope=[], class_name=None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                harness_targets.update(resolver._call_targets(node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                harness_targets.update(
                    key
                    for key in extractor.by_python.get(node.id, ())
                    if extractor.nodes[key].kind == "kfunc"
                )
        harness_targets.update(resolver.interrupt_targets)

    roots: dict[str, frozenset[str]] = {}
    syscall_key = extractor.nodes.get("tag:syscall")
    roots["syscall"] = frozenset({"tag:syscall"} if syscall_key else set())
    interrupt = set(extractor.interrupt_targets)
    if "tag:ISAINTR" in extractor.nodes:
        interrupt.add("tag:ISAINTR")
    roots["interrupt"] = frozenset(interrupt)
    scheduler = set()
    if "tag:swtch" in extractor.nodes:
        scheduler.add("tag:swtch")
    for index in extractor.modules:
        run_key = index.classes.get("Scheduler", {}).get("run")
        if run_key:
            scheduler.add(run_key)
    roots["scheduler"] = frozenset(scheduler)
    roots["harness"] = frozenset(
        key for key in harness_targets if key in extractor.nodes
    )

    return CallGraph(
        nodes=extractor.nodes,
        edges={
            key: frozenset(values)
            for key, values in extractor.edges.items()
            if values
        },
        roots=roots,
    )
