"""The tree lints itself clean: the repo-wide acceptance test."""

import ast
import json
from pathlib import Path

import pytest

from repro.lint import Baseline, apply_baseline, run_lint
from repro.lint.config import DEFAULT_CONFIG

REPO = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean_modulo_baseline():
    findings = run_lint(paths=[REPO / "src" / "repro"], root=REPO)
    baseline = Baseline.load(REPO / "lint" / "baseline.json")
    new, _known = apply_baseline(findings, baseline)
    assert new == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in new)


def test_checked_in_baseline_is_empty():
    # The tree is expected to be fully clean; any future baseline entry
    # must be a deliberate, reviewed exception (this test makes adding
    # one loud).
    data = json.loads((REPO / "lint" / "baseline.json").read_text())
    assert data == {"version": 1, "entries": {}}


def test_contracts_table_rows_all_resolve():
    # PAR003 over the real docs: every tests/benchmarks path in
    # docs/API.md exists.  (Subsumed by the self-lint above, but this
    # pins the rule actually ran on the real doc.)
    findings = run_lint(paths=[REPO / "src" / "repro"], root=REPO)
    assert [f for f in findings if f.rule == "PAR003"] == []


def _has_def(node, names):
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))
                and child.name == names[0]):
            return len(names) == 1 or _has_def(child, names[1:])
    return False


def _defined_under_src(qualname):
    """Whether ``pkg.module.[Class.]name`` is a definition under src/."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        base = REPO / "src" / Path(*parts[:cut])
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.is_file():
                tree = ast.parse(path.read_text(encoding="utf-8"))
                return _has_def(tree, parts[cut:])
    return False


@pytest.mark.parametrize("qualname", sorted(
    set(DEFAULT_CONFIG.parity_twin_overrides)
    | set(DEFAULT_CONFIG.parity_exempt)))
def test_parity_config_keys_name_existing_definitions(qualname):
    # An exemption for a deleted kernel never fires, so PAR001 cannot
    # notice it went stale; this does.
    assert _defined_under_src(qualname), (
        f"lint config entry {qualname!r} names no definition under src/; "
        f"drop the stale entry")


def test_stale_name_detection_is_not_vacuous():
    assert _defined_under_src("repro.sim.demand.DemandModel.required_batch")
    assert not _defined_under_src("repro.sim.demand.DemandModel.nope_batch")
    assert not _defined_under_src("repro.core.nope.kernel_batch")
