"""repro.lint -- AST-level invariant checker for this repository.

``python -m repro.lint src benchmarks examples`` runs 9 repo-specific
rules (seeded RNGs, injectable clocks, validated unpickling, sidecar
dataclass hygiene, typed raises, lock discipline, bounded frombuffer,
fork safety, no hashed ``np.unique``) plus a mypy ratchet over
``typed_modules.txt``.  See DESIGN.md SS10 for the rule catalogue and
suppression policy.
"""

from .config import LintConfig, load_config
from .finding import JSON_SCHEMA_VERSION, Finding
from .framework import (
    FileContext,
    Rule,
    all_rules,
    classify_domain,
    lint_file,
    run_paths,
)
from .ratchet import run_ratchet
from .suppress import SuppressionIndex, parse_suppressions

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "load_config",
    "FileContext",
    "Rule",
    "all_rules",
    "classify_domain",
    "lint_file",
    "run_paths",
    "run_ratchet",
    "SuppressionIndex",
    "parse_suppressions",
]
