"""Per-file symbol and type models built from :mod:`ast`.

The checkers do not walk raw trees; they query these models.  The model
layer answers the questions the engine's invariants are phrased in:

* which ``self.X`` attributes of a class hold a memo/cache (inferred from
  the constructor call on the assignment's right-hand side);
* which functions contain a snapshot-version comparison (directly, or by
  calling a same-module helper that does — the ``_check_version`` idiom);
* which names a module imports, and under what alias;
* which bare/attribute names each function calls (a cheap, name-based
  call graph; the version-guard rule follows it to guard helpers).

Everything here is pure stdlib and purely syntactic: no imports of the
analysed code, no evaluation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "ModuleModel",
    "ClassModel",
    "FunctionModel",
    "build_module_model",
    "call_name",
    "dotted_name",
    "module_name_for_path",
]

#: Constructor names whose instances are treated as version-sensitive memos.
MEMO_CONSTRUCTORS = frozenset({"BoundedBitsCache"})

#: ``self.<attr>`` names that are memos regardless of how they were built
#: (plain dicts reused across calls on snapshot-derived data).
ALWAYS_MEMO_ATTRS = frozenset(
    {"_bits_lru", "_rows_lru", "_ancestor_cache", "_self_loop_cache"}
)

#: Parameter names that carry a caller-owned memo into a function.
MEMO_PARAM_NAMES = frozenset({"ancestor_memo"})

#: Attribute names that read as "a snapshot version" in a comparison.
VERSION_ATTR_NAMES = frozenset(
    {
        "version",
        "_synced_version",
        "_graph_version",
        "_tuples_version",
        "_self_loop_version",
        "_bits_cache_version",
        "_pinned_version",
        "expected_version",
    }
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The trailing name of a call: ``x.y.f(...)`` -> ``f``, ``f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for *path*.

    ``.../src/repro/engine/cache.py`` -> ``repro.engine.cache``; files outside
    a recognisable package root fall back to their stem.
    """
    norm = path.replace("\\", "/")
    stem = norm[:-3] if norm.endswith(".py") else norm
    parts = stem.split("/")
    for anchor in ("repro", "tests"):
        if anchor in parts:
            parts = parts[parts.index(anchor) :]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "<module>"


@dataclass
class FunctionModel:
    """One function or method: its tree plus pre-computed facts."""

    name: str
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: "ModuleModel"
    class_name: Optional[str] = None
    #: Bare/attribute names this function calls (name-based call graph edge).
    calls: Set[str] = field(default_factory=set)
    #: True if the body contains a comparison mentioning a version attribute.
    has_version_compare: bool = False
    #: Parameter names.
    params: Tuple[str, ...] = ()

    @property
    def line(self) -> int:
        return self.node.lineno

    def body_walk(self) -> Iterator[ast.AST]:
        for stmt in self.node.body:
            yield from ast.walk(stmt)


@dataclass
class ClassModel:
    name: str
    node: ast.ClassDef
    module: "ModuleModel"
    base_names: Tuple[str, ...] = ()
    #: ``self.<attr>`` -> constructor name it was assigned from (anywhere in
    #: the class body), e.g. ``{"_bits": "BoundedBitsCache"}``.
    attr_constructors: Dict[str, str] = field(default_factory=dict)
    #: Attribute names assigned anywhere on ``self``.
    self_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, FunctionModel] = field(default_factory=dict)

    @property
    def line(self) -> int:
        return self.node.lineno

    def memo_attrs(self) -> Set[str]:
        """``self.<attr>`` names holding a version-sensitive memo."""
        out = {
            attr
            for attr, ctor in self.attr_constructors.items()
            if ctor in MEMO_CONSTRUCTORS
        }
        out |= self.self_attrs & ALWAYS_MEMO_ATTRS
        return out

    def registers_patch_listener(self) -> bool:
        return any(
            "add_patch_listener" in fn.calls for fn in self.methods.values()
        )

    def tracks_version(self) -> bool:
        """True if the class stores any version attribute on self."""
        return bool(self.self_attrs & VERSION_ATTR_NAMES)


@dataclass
class ModuleModel:
    path: str
    name: str
    tree: ast.Module
    source: str
    #: Local alias -> imported dotted source (``from x import y as z`` ->
    #: ``{"z": "x.y"}``; ``import a.b`` -> ``{"a": "a"}``).
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassModel] = field(default_factory=dict)
    #: Module-level functions plus all methods, keyed by qualname.
    functions: Dict[str, FunctionModel] = field(default_factory=dict)

    def iter_functions(self) -> Iterator[FunctionModel]:
        return iter(self.functions.values())

    def local_guard_helpers(self) -> Set[str]:
        """Names of same-module functions whose body compares versions.

        Calling one of these counts as a version guard at the call site
        (the ``self._sync()`` / ``self._check_version()`` idiom).
        """
        return {
            fn.name for fn in self.functions.values() if fn.has_version_compare
        }


def _compare_mentions_version(node: ast.Compare) -> bool:
    for operand in [node.left, *node.comparators]:
        for sub in ast.walk(operand):
            if isinstance(sub, ast.Attribute) and sub.attr in VERSION_ATTR_NAMES:
                return True
            if isinstance(sub, ast.Name) and sub.id in VERSION_ATTR_NAMES:
                return True
    return False


def _scan_function(fn: FunctionModel) -> None:
    node = fn.node
    args = node.args
    names = [
        a.arg
        for a in (
            list(getattr(args, "posonlyargs", []))
            + list(args.args)
            + list(args.kwonlyargs)
        )
    ]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    fn.params = tuple(names)

    for sub in fn.body_walk():
        if isinstance(sub, ast.Call):
            name = call_name(sub)
            if name:
                fn.calls.add(name)
        elif isinstance(sub, ast.Compare):
            if _compare_mentions_version(sub):
                fn.has_version_compare = True


def _scan_class(cls: ClassModel) -> None:
    for sub in ast.walk(cls.node):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                sub.targets
                if isinstance(sub, ast.Assign)
                else [sub.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.self_attrs.add(target.attr)
                    value = getattr(sub, "value", None)
                    if isinstance(value, ast.Call):
                        ctor = call_name(value)
                        if ctor:
                            cls.attr_constructors.setdefault(target.attr, ctor)


def build_module_model(path: str, source: str) -> ModuleModel:
    """Parse *source* and build the full model.  Raises SyntaxError."""
    tree = ast.parse(source, filename=path)
    model = ModuleModel(
        path=path, name=module_name_for_path(path), tree=tree, source=source
    )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                model.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                model.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def visit_body(
        body: List[ast.stmt], class_model: Optional[ClassModel], prefix: str
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                cls = ClassModel(
                    name=stmt.name,
                    node=stmt,
                    module=model,
                    base_names=tuple(
                        n for n in (dotted_name(b) for b in stmt.bases) if n
                    ),
                )
                model.classes[stmt.name] = cls
                _scan_class(cls)
                visit_body(stmt.body, cls, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionModel(
                    name=stmt.name,
                    qualname=f"{prefix}{stmt.name}",
                    node=stmt,
                    module=model,
                    class_name=class_model.name if class_model else None,
                )
                _scan_function(fn)
                model.functions[fn.qualname] = fn
                if class_model is not None:
                    class_model.methods[stmt.name] = fn
                visit_body(stmt.body, class_model, f"{prefix}{stmt.name}.")

    visit_body(tree.body, None, "")
    return model
