"""Tests for repro.lint: corpus-driven rules, suppressions, CLI, ratchet.

Every rule is exercised against ≥1 known-bad and ≥1 known-good fixture
from ``tests/lint_corpus/`` (excluded from normal walks; linted here by
naming files explicitly with ``force_domain="lib"``).  The self-check
test is the acceptance criterion itself: the checker must be clean over
``src benchmarks examples`` at HEAD.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    all_rules,
    classify_domain,
    lint_file,
    load_config,
    parse_suppressions,
    run_ratchet,
)

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "lint_corpus"
CONFIG = load_config(explicit=REPO / "pyproject.toml")

RULE_IDS = [cls.id for cls in all_rules()]


def corpus_findings(name, config=CONFIG, select=None):
    return lint_file(CORPUS / name, config, REPO,
                     select=select, force_domain="lib")


def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


# -- registry ----------------------------------------------------------------

def test_registry_has_the_eight_rules():
    assert RULE_IDS == [f"R00{i}" for i in range(1, 9)]


def test_rules_have_docs_and_domains():
    for cls in all_rules():
        assert cls.name and cls.description and cls.domains


# -- corpus: every rule has a bad and a good fixture -------------------------

#: Rules whose fixtures lint meaningfully under the committed config.
PLAIN_RULES = ["R001", "R002", "R003", "R004", "R005", "R006", "R007"]


@pytest.mark.parametrize("rule", PLAIN_RULES)
def test_known_bad_fixture_fires(rule):
    findings = corpus_findings(f"bad_{rule.lower()}.py")
    assert {f.rule for f in findings} == {rule}
    assert len(findings) >= 1


@pytest.mark.parametrize("rule", PLAIN_RULES)
def test_known_good_fixture_is_clean(rule):
    assert corpus_findings(f"good_{rule.lower()}.py") == []


def _r008_config(name):
    return dataclasses.replace(CONFIG, fork_modules=(f"lint_corpus/{name}",))


def test_r008_bad_fixture_fires_when_module_is_fork_based():
    cfg = _r008_config("bad_r008.py")
    findings = corpus_findings("bad_r008.py", config=cfg)
    assert {f.rule for f in findings} == {"R008"}
    assert len(findings) == 2  # Thread + ThreadPoolExecutor


def test_r008_good_fixture_is_clean():
    assert corpus_findings("good_r008.py",
                           config=_r008_config("good_r008.py")) == []


def test_r008_silent_outside_fork_modules():
    # Same bad file, but not listed in fork-modules: out of scope.
    assert corpus_findings("bad_r008.py") == []


def test_r008_shm_create_fires_outside_shm_modules():
    # The shm prong needs no special config: the corpus file is not on
    # the shm-modules allowlist, so both create sites (kw + positional)
    # fire under the committed config.
    findings = corpus_findings("bad_r008_shm.py")
    assert {f.rule for f in findings} == {"R008"}
    assert len(findings) == 2
    assert all("create=True" in f.message for f in findings)


def test_r008_shm_attach_is_clean():
    assert corpus_findings("good_r008_shm.py") == []


def test_r008_shm_create_allowed_inside_shm_modules():
    cfg = dataclasses.replace(
        CONFIG, shm_modules=("lint_corpus/bad_r008_shm.py",))
    assert corpus_findings("bad_r008_shm.py", config=cfg) == []


def test_bad_fixtures_carry_precise_lines():
    findings = corpus_findings("bad_r002.py")
    lines = sorted(f.line for f in findings)
    text = (CORPUS / "bad_r002.py").read_text().splitlines()
    for ln in lines:
        assert "time." in text[ln - 1] or "datetime" in text[ln - 1]


# -- domains -----------------------------------------------------------------

def test_domain_classification():
    assert classify_domain("src/repro/obs/metrics.py") == "lib"
    assert classify_domain("benchmarks/bench_decode_throughput.py") == "bench"
    assert classify_domain("examples/demo.py") == "examples"
    assert classify_domain("tests/test_lint.py") == "tests"


def test_rules_do_not_fire_outside_their_domains():
    # A wall-clock call is fine in a test file: R002 is lib-only.
    findings = lint_file(CORPUS / "bad_r002.py", CONFIG, REPO,
                         force_domain="tests")
    assert findings == []


# -- suppressions ------------------------------------------------------------

def test_suppression_with_reason_silences_the_finding():
    assert corpus_findings("sup_valid.py") == []


def test_suppression_without_reason_does_not_suppress():
    findings = corpus_findings("sup_noreason.py")
    rules = [f.rule for f in findings]
    assert "R005" in rules          # original finding survives
    assert "R000" in rules          # and the bad suppression is flagged
    assert any("missing required reason" in f.message for f in findings)


def test_unused_suppression_is_flagged():
    findings = corpus_findings("sup_unused.py")
    assert [f.rule for f in findings] == ["R000"]
    assert "unused suppression" in findings[0].message


def test_unknown_rule_suppression_is_flagged():
    findings = corpus_findings("sup_unknown.py")
    assert [f.rule for f in findings] == ["R000"]
    assert "unknown rule" in findings[0].message


def test_parse_suppressions_grammar():
    src = "x = 1  # repro-lint: disable=R001,R002 reason=because physics\n"
    (sup,) = parse_suppressions(src)
    assert sup.line == 1
    assert sup.rules == ("R001", "R002")
    assert sup.reason == "because physics"
    assert sup.valid
    assert parse_suppressions("x = 1  # a normal comment\n") == []


def test_unused_suppression_not_reported_for_inactive_rules():
    # Under --select R001, an R005 suppression never had a chance to
    # match; it must not be called stale.
    findings = corpus_findings("sup_unused.py", select=["R001"])
    assert findings == []


# -- CLI ---------------------------------------------------------------------

def test_cli_exit_codes():
    assert run_cli(str(CORPUS / "good_r001.py"), "--force-domain", "lib").returncode == 0
    assert run_cli(str(CORPUS / "bad_r001.py"), "--force-domain", "lib").returncode == 1
    assert run_cli("no/such/path.py").returncode == 2
    assert run_cli().returncode == 2  # no paths


def test_cli_json_schema():
    proc = run_cli(str(CORPUS / "bad_r001.py"), "--force-domain", "lib",
                   "--json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["version"] == JSON_SCHEMA_VERSION
    assert report["checked_files"] == 1
    assert set(report["counts"]) == {"R001"}
    for f in report["findings"]:
        assert set(f) == {"rule", "path", "line", "col", "message"}
        assert f["rule"] == "R001"
        assert f["line"] >= 1


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in RULE_IDS:
        assert rule in proc.stdout


def test_cli_select_limits_rules():
    proc = run_cli(str(CORPUS / "bad_r002.py"), "--force-domain", "lib",
                   "--select", "R001")
    assert proc.returncode == 0  # R002 findings exist, but not selected


def test_corpus_is_excluded_from_directory_walks():
    # Walking tests/ must skip the (deliberately bad) corpus...
    proc = run_cli("tests", "--json")
    report = json.loads(proc.stdout)
    assert not any("lint_corpus" in f["path"] for f in report["findings"])
    # ...while naming a fixture explicitly always lints it.
    assert run_cli(str(CORPUS / "bad_r001.py"),
                   "--force-domain", "lib").returncode == 1


def test_self_check_repo_is_clean_at_head():
    """The acceptance criterion: src/benchmarks/examples lint clean."""
    proc = run_cli("src", "benchmarks", "examples")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_every_committed_suppression_carries_a_reason():
    for path in (REPO / "src").rglob("*.py"):
        if "__pycache__" in path.parts:
            continue
        for sup in parse_suppressions(path.read_text(encoding="utf-8")):
            assert sup.valid, f"reason-less suppression in {path}:{sup.line}"


# -- mypy ratchet ------------------------------------------------------------

def test_ratchet_fails_when_manifest_missing(tmp_path):
    cfg = dataclasses.replace(CONFIG, typed_manifest="nope.txt")
    assert run_ratchet(cfg, tmp_path) == 1


def test_ratchet_fails_below_floor(tmp_path):
    (tmp_path / "typed_modules.txt").write_text("repro.exceptions\n")
    assert run_ratchet(CONFIG, tmp_path) == 1  # 1 module < floor 6


def test_ratchet_fails_on_phantom_module(tmp_path):
    (tmp_path / "typed_modules.txt").write_text(
        "\n".join(f"repro.phantom{i}" for i in range(6)) + "\n"
    )
    (tmp_path / "src").mkdir()
    assert run_ratchet(CONFIG, tmp_path) == 1


def test_ratchet_on_real_manifest():
    """Floor + existence always pass; with mypy installed (CI), the
    listed modules must also type-check -- same gate as the workflow."""
    assert run_ratchet(CONFIG, REPO) == 0


def test_ratchet_cli_exit_matches_mypy_presence():
    proc = run_cli("--mypy-ratchet")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("mypy-ratchet: OK" in proc.stdout
            or "mypy-ratchet: SKIP" in proc.stdout)
