"""Configuration for :mod:`repro.lint` -- ``[tool.repro-lint]``.

The checker reads its allowlists from ``pyproject.toml`` so policy
lives next to the ruff gate it extends.  Python 3.11+ parses TOML with
the stdlib ``tomllib``; on 3.10 we try ``tomli`` and otherwise fall
back to :data:`DEFAULTS`, which mirror the committed pyproject block
entry for entry (``tests/test_lint.py::test_defaults_mirror_pyproject``
compares the two wherever ``tomllib`` exists, so drift fails a test
instead of silently changing policy on 3.10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - 3.10 path
    try:
        import tomli as _toml  # type: ignore[import-not-found, no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]

#: Mirror of the committed ``[tool.repro-lint]`` block, used only when
#: no TOML parser exists (3.10 without tomli).  Keep in lockstep.
DEFAULTS: Dict[str, Any] = {
    "exclude": ["__pycache__", ".git", "build", "dist", "lint_corpus"],
    "wallclock-allow": [
        "repro/service/client.py",
        "repro/service/server.py",
    ],
    "unpickle-allow": ["repro/collector/recovery.py"],
    "sidecar-fields": ["metrics", "service", "recovery"],
    "lock-allow-methods": ["start", "close", "stop", "_init_obs", "set_function"],
    "fork-modules": [
        "repro/collector/parallel.py",
        "repro/collector/shm.py",
    ],
    "shm-modules": ["repro/collector/shm.py"],
    "mypy": {
        "typed-manifest": "typed_modules.txt",
        "min-typed-modules": 6,
    },
}


@dataclass(frozen=True)
class LintConfig:
    """Resolved checker configuration (see DESIGN.md SS10)."""

    #: Directory/file basenames skipped during directory walks.
    #: Explicitly named files are always linted -- that is how the
    #: corpus fixtures (excluded here) get checked by their own tests.
    exclude: Tuple[str, ...] = ()
    #: Files (repo-relative suffix match) where wall-clock reads are
    #: legitimate: real network deadlines, not simulated time.
    wallclock_allow: Tuple[str, ...] = ()
    #: Files allowed to unpickle -- the header-validated codec only.
    unpickle_allow: Tuple[str, ...] = ()
    #: Dataclass field names that are sidecars: carried for reporting,
    #: excluded from equality and from ``as_dict``.
    sidecar_fields: Tuple[str, ...] = ()
    #: Methods allowed to write ``self.*`` outside the lock in a class
    #: that declares one (single-threaded setup/teardown seams).
    lock_allow_methods: Tuple[str, ...] = ()
    #: Modules that fork workers and therefore must not touch threads
    #: at import or setup time (R008).
    fork_modules: Tuple[str, ...] = ()
    #: The only modules allowed to *create* shared-memory segments
    #: (``SharedMemory(create=True)``); one owner keeps the unlink
    #: discipline auditable (R008).
    shm_modules: Tuple[str, ...] = ()
    #: Path of the typed-module manifest, relative to the repo root.
    typed_manifest: str = "typed_modules.txt"
    #: Ratchet floor: the manifest may only grow.
    min_typed_modules: int = 6
    #: Where the config came from, for ``--list-rules`` diagnostics.
    source: str = "defaults"

    @classmethod
    def from_mapping(cls, data: Dict[str, Any], source: str) -> "LintConfig":
        merged = dict(DEFAULTS)
        merged.update(data)
        mypy_cfg = dict(DEFAULTS["mypy"])
        mypy_cfg.update(data.get("mypy", {}))
        return cls(
            exclude=tuple(merged["exclude"]),
            wallclock_allow=tuple(merged["wallclock-allow"]),
            unpickle_allow=tuple(merged["unpickle-allow"]),
            sidecar_fields=tuple(merged["sidecar-fields"]),
            lock_allow_methods=tuple(merged["lock-allow-methods"]),
            fork_modules=tuple(merged["fork-modules"]),
            shm_modules=tuple(merged["shm-modules"]),
            typed_manifest=str(mypy_cfg["typed-manifest"]),
            min_typed_modules=int(mypy_cfg["min-typed-modules"]),
            source=source,
        )


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the first ``pyproject.toml``."""
    for candidate in [start, *start.parents]:
        p = candidate / "pyproject.toml"
        if p.is_file():
            return p
    return None


def load_config(explicit: Optional[Path] = None,
                start: Optional[Path] = None) -> LintConfig:
    """Load ``[tool.repro-lint]`` from pyproject, else defaults."""
    path = explicit or find_pyproject(start or Path.cwd())
    if path is None:
        return LintConfig.from_mapping({}, source="defaults")
    if _toml is None:
        # 3.10 without tomli: policy comes from the mirrored defaults.
        return LintConfig.from_mapping({}, source=f"defaults (no TOML parser for {path})")
    with open(path, "rb") as fh:
        data = _toml.load(fh)
    section = data.get("tool", {}).get("repro-lint", {})
    return LintConfig.from_mapping(section, source=str(path))
