"""Parsed source files and suppression pragmas.

Every rule receives :class:`SourceModule` objects: the parsed AST plus
the raw lines, the dotted module name (``repro.core.pipeline``), and the
per-line suppression pragmas already extracted.  A module also resolves
call targets through its own imports (:meth:`SourceModule.resolve_callee`),
the one resolver every fact extractor shares.

Pragma syntax (checked by :meth:`SourceModule.suppressed`)::

    x = time.time()          # qa: ignore[determinism]
    y = risky()              # qa: ignore[float-eq, bare-except]
    z = anything()           # qa: ignore

A bare ``# qa: ignore`` suppresses every rule on that line; the
bracketed form suppresses only the listed rule ids.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

#: Matches ``# qa: ignore`` and ``# qa: ignore[id, id2]``.
_PRAGMA_RE = re.compile(r"#\s*qa:\s*ignore(?:\[(?P<ids>[^\]]*)\])?")

#: Sentinel stored for a bare ``# qa: ignore`` (suppress all rules).
ALL_RULES = "*"


def extract_pragmas(lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids suppressed on them."""
    pragmas: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        m = _PRAGMA_RE.search(line)
        if m is None:
            continue
        ids = m.group("ids")
        if ids is None:
            pragmas[lineno] = {ALL_RULES}
        else:
            pragmas[lineno] = {part.strip() for part in ids.split(",") if part.strip()}
    return pragmas


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from *path*.

    Walks the path components looking for the ``repro`` package root (as
    laid out under ``src/``); files outside the package fall back to the
    bare stem, which leaves package-scoped rules (layering, determinism)
    inert for them.
    """
    parts = list(path.parts)
    if "repro" in parts:
        idx = parts.index("repro")
        dotted = parts[idx:]
    else:
        dotted = [parts[-1]]
    dotted[-1] = Path(dotted[-1]).stem
    if dotted[-1] == "__init__" and len(dotted) > 1:
        dotted = dotted[:-1]
    return ".".join(dotted)


class ModuleScope:
    """Lookups derived from a module's dotted ``name`` and its ``pragmas``.

    Shared by :class:`SourceModule` and the cached
    :class:`~repro.qa.symbols.ModuleSymbols` facts, so per-file rules and
    index rules see one definition of each.
    """

    name: str
    pragmas: dict[int, set[str]]

    @property
    def package(self) -> str:
        """First package component under ``repro`` ('' outside it)."""
        parts = self.name.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return ""
        return parts[1]

    def suppressed(self, rule_id: str, lineno: int) -> bool:
        """True if *rule_id* is pragma-suppressed on (1-based) *lineno*."""
        ids = self.pragmas.get(lineno)
        if not ids:
            return False
        return ALL_RULES in ids or rule_id in ids


@dataclass
class SourceModule(ModuleScope):
    """One parsed Python file handed to the rules."""

    path: Path
    relpath: str
    name: str
    source: str = field(repr=False)
    tree: ast.Module = field(repr=False)
    lines: list[str] = field(repr=False)
    pragmas: dict[int, set[str]] = field(repr=False)
    #: True for ``__init__.py`` files — relative imports resolve against
    #: the module itself rather than its parent.
    is_package: bool = False

    def in_packages(self, *packages: str) -> bool:
        """True if this module lives in one of the given repro packages."""
        return self.package in packages

    @cached_property
    def imports(self) -> dict[str, str]:
        """local alias → dotted target for every top-level import."""
        out: dict[str, str] = {}
        own_parts = self.name.split(".")
        package_parts = own_parts if self.is_package else own_parts[:-1]
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        out[a.asname] = a.name
                    else:
                        out[a.name.split(".")[0]] = a.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                else:
                    if node.level - 1 > len(package_parts):
                        continue
                    prefix = package_parts[: len(package_parts) - (node.level - 1)]
                    base = ".".join(prefix + ([node.module] if node.module else []))
                for a in node.names:
                    if a.name == "*":
                        continue
                    target = f"{base}.{a.name}" if base else a.name
                    out[a.asname or a.name] = target
        return out

    @cached_property
    def local_defs(self) -> dict[str, str]:
        """Top-level function and class name → its dotted spec here."""
        return {
            node.name: f"{self.name}.{node.name}"
            for node in self.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }

    def resolve_callee(self, func: ast.expr) -> str | None:
        """Dotted spec of a call's function expression, or None.

        A bare name resolves to a top-level definition of this module,
        else through the import map; an attribute chain resolves when
        its base name is an import alias (``np.linalg.norm`` →
        ``numpy.linalg.norm``).
        """
        if isinstance(func, ast.Name):
            return self.local_defs.get(func.id) or self.imports.get(func.id)
        if isinstance(func, ast.Attribute):
            chain: list[str] = []
            node: ast.expr = func
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in self.imports:
                chain.reverse()
                return ".".join([self.imports[node.id]] + chain)
        return None

    def line_at(self, lineno: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @classmethod
    def parse(cls, path: Path, relpath: str | None = None, name: str | None = None) -> "SourceModule":
        """Read and parse *path*.

        Raises
        ------
        SyntaxError
            If the file does not parse (the engine turns this into a
            ``parse-error`` finding rather than crashing the run).
        """
        source = path.read_text(encoding="utf-8")
        return cls.from_source(
            source,
            path=path,
            relpath=relpath if relpath is not None else str(path),
            name=name if name is not None else module_name_for(path),
            is_package=path.name == "__init__.py",
        )

    @classmethod
    def from_source(
        cls,
        source: str,
        path: Path | str = "<string>",
        relpath: str = "<string>",
        name: str = "module",
        is_package: bool = False,
    ) -> "SourceModule":
        """Build a module from an in-memory source string (test helper)."""
        tree = ast.parse(source, filename=str(path))
        lines = source.splitlines()
        return cls(
            path=Path(path),
            relpath=relpath,
            name=name,
            source=source,
            tree=tree,
            lines=lines,
            pragmas=extract_pragmas(lines),
            is_package=is_package,
        )
