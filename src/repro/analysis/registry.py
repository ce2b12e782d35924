"""Checker registry and the cross-file :class:`Project` view.

Checkers subclass :class:`Checker` and register with :func:`register`.
Each run builds one :class:`Project` from all analysed modules so rules
that need cross-module facts (inherited memo attributes, the guard-helper
set) see the whole input, then every checker's :meth:`check`
runs once per module.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Type

from repro.analysis.findings import Finding
from repro.analysis.model import ClassModel, FunctionModel, ModuleModel

__all__ = ["Checker", "Project", "register", "all_checkers"]

_REGISTRY: Dict[str, Type["Checker"]] = {}


class Project:
    """All modules in one lint run, with cheap cross-module indexes."""

    def __init__(self, modules: Iterable[ModuleModel]):
        self.modules: List[ModuleModel] = list(modules)
        #: function bare name -> models (across all modules).
        self.functions_by_name: Dict[str, List[FunctionModel]] = {}
        #: class bare name -> models (across all modules).
        self.classes_by_name: Dict[str, List[ClassModel]] = {}
        for module in self.modules:
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
            for fn in module.iter_functions():
                self.functions_by_name.setdefault(fn.name, []).append(fn)

    def class_with_bases(self, cls: ClassModel) -> List[ClassModel]:
        """*cls* plus every resolvable base, transitively (cycle-safe).

        Bases are resolved by their trailing bare name against every class
        the run parsed — over-approximate across homonyms, which is the
        right bias for invariants inherited from framework base classes
        (an oracle subclass inherits ``_bits_lru`` whether or not the base
        lives in the same file).
        """
        out: List[ClassModel] = []
        seen: Set[int] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            out.append(current)
            for base in current.base_names:
                bare = base.rsplit(".", 1)[-1]
                stack.extend(self.classes_by_name.get(bare, ()))
        return out

    def memo_attrs_of(self, cls: ClassModel) -> Set[str]:
        """Memo-holding ``self.<attr>`` names including inherited ones."""
        attrs: Set[str] = set()
        for c in self.class_with_bases(cls):
            attrs |= c.memo_attrs()
        return attrs

    def tracks_version_of(self, cls: ClassModel) -> bool:
        return any(c.tracks_version() for c in self.class_with_bases(cls))

    def registers_patch_listener_of(self, cls: ClassModel) -> bool:
        return any(
            c.registers_patch_listener() for c in self.class_with_bases(cls)
        )

    def guard_helper_names(self) -> Set[str]:
        """Function names that contain a version compare, project-wide.

        Used as a fallback when a call crosses module boundaries (e.g. a
        mixin method defined elsewhere); same-module helpers are already
        covered by :meth:`ModuleModel.local_guard_helpers`.
        """
        return {
            name
            for name, fns in self.functions_by_name.items()
            if any(fn.has_version_compare for fn in fns)
        }


class Checker:
    """Base class for one rule.  Subclasses set ``rule`` and ``description``."""

    rule: str = ""
    description: str = ""

    def check(self, module: ModuleModel, project: Project) -> List[Finding]:
        raise NotImplementedError


def register(cls: Type[Checker]) -> Type[Checker]:
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} has no rule id")
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate checker rule {cls.rule!r}")
    _REGISTRY[cls.rule] = cls
    return cls


def all_checkers() -> List[Checker]:
    """Instantiate every registered checker, importing the built-ins."""
    # Importing the package registers the built-in checkers as a side effect.
    from repro.analysis import checkers as _builtin  # noqa: F401

    return [cls() for _, cls in sorted(_REGISTRY.items())]
