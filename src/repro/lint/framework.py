"""Rule framework for :mod:`repro.lint`.

The checker is a BASEL-style policy pass over our own source (see
PAPERS.md): each rule encodes one invariant the runtime test suite
already relies on -- seeded determinism, injectable clocks, validated
unpickling, lock discipline -- and checks it *statically*, before a
violation costs a nightly bench run.

Structure:

* :class:`FileContext` -- one parsed file: source, AST, repo-relative
  path, and its *domain* (``lib`` / ``bench`` / ``examples`` /
  ``tests``), derived from the path.  Rules declare which domains they
  apply to: an unseeded RNG is a bug in ``src/`` and a feature in a
  test that wants arbitrary data.
* :class:`Rule` -- subclass per rule; ``check(ctx)`` yields
  :class:`~repro.lint.finding.Finding`.  Registration is a decorator
  so a rule module is self-contained: import it and its rules exist.
* :func:`run_paths` -- walk files, parse once, run every applicable
  rule, then apply suppressions and append the framework's own R000
  findings (bad/stale suppressions).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from .config import LintConfig
from .finding import Finding
from .suppress import SuppressionIndex

#: Path-derived rule scopes.  ``lib`` is shipping library code under
#: ``src/``; the others get progressively looser rules.
DOMAINS = ("lib", "bench", "examples", "tests")


def classify_domain(rel_path: str) -> str:
    """Map a repo-relative POSIX path to its domain."""
    parts = rel_path.split("/")
    if "tests" in parts or any(p.startswith("test_") for p in parts):
        return "tests"
    if parts[0] == "benchmarks":
        return "bench"
    if parts[0] == "examples":
        return "examples"
    return "lib"


@dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    path: Path
    rel_path: str
    domain: str
    source: str
    tree: ast.AST
    config: LintConfig

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule, self.rel_path,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            message,
        )


class Rule:
    """Base class: subclass, set the class attrs, implement check()."""

    id: str = ""
    name: str = ""
    #: Domains the rule fires in (see :data:`DOMAINS`).
    domains: Tuple[str, ...] = ("lib",)
    #: One-line invariant statement for ``--list-rules`` / docs.
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


#: Registry of rule classes, keyed by id, in registration order.
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id or cls.id in _REGISTRY:
        raise ValueError(f"bad or duplicate rule id: {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, importing rule modules on demand."""
    _load_rule_modules()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _load_rule_modules() -> None:
    # Imported lazily (not at package import) so `import repro.lint`
    # stays cheap and rule modules can import the framework freely.
    from . import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_performance,
        rules_serialization,
        rules_structure,
    )


# --------------------------------------------------------------------------
# Shared AST helpers used by several rule modules.

def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def decorator_names(cls: ast.ClassDef) -> List[str]:
    out: List[str] = []
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            out.append(name)
    return out


def path_matches(rel_path: str, allow: Iterable[str]) -> bool:
    """Suffix match on POSIX repo-relative paths (allowlists)."""
    return any(rel_path == a or rel_path.endswith("/" + a) for a in allow)


# --------------------------------------------------------------------------
# Runner.

def iter_source_files(paths: Sequence[Path], config: LintConfig) -> Iterator[Path]:
    """Expand path arguments to ``.py`` files.

    Excludes apply only while *walking directories*: a file named
    explicitly on the command line is always linted, which is how the
    (normally excluded) corpus fixtures are checked by their tests.
    """
    for p in paths:
        if p.is_file():
            yield p
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                rel = sub.relative_to(p)
                if any(part in config.exclude for part in rel.parts):
                    continue
                yield sub
        else:
            raise FileNotFoundError(str(p))


def relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path,
    config: LintConfig,
    root: Path,
    select: Optional[Sequence[str]] = None,
    force_domain: Optional[str] = None,
) -> List[Finding]:
    """Lint one file: parse, run applicable rules, apply suppressions."""
    rel = relativize(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding("R000", rel, exc.lineno or 0, exc.offset or 0,
                        f"file does not parse: {exc.msg}")]
    domain = force_domain or classify_domain(rel)
    ctx = FileContext(path, rel, domain, source, tree, config)

    rules = [cls for cls in all_rules()
             if select is None or cls.id in select]
    active = [cls for cls in rules if domain in cls.domains]
    raw: List[Finding] = []
    for cls in active:
        raw.extend(cls().check(ctx))

    index = SuppressionIndex(source)
    kept = [f for f in raw if not index.is_suppressed(f)]
    kept.extend(index.framework_findings(
        rel,
        known_rules=[c.id for c in all_rules()],
        active_rules=[c.id for c in active],
    ))
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept


def run_paths(
    paths: Sequence[Path],
    config: LintConfig,
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    force_domain: Optional[str] = None,
) -> Tuple[List[Finding], int]:
    """Lint every file under ``paths``; returns (findings, file count)."""
    root = root or Path.cwd()
    findings: List[Finding] = []
    count = 0
    for path in iter_source_files(paths, config):
        count += 1
        findings.extend(lint_file(path, config, root, select, force_domain))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, count
