"""Lint driver: run every registered rule over an elaborated design."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.hdl import elaborate, ir
from repro.lint import (rules_dataflow, rules_snapshot,  # noqa: F401 (register)
                        rules_structural)
from repro.lint.framework import (Diagnostic, LintConfig, LintReport,
                                  all_rules, apply_policy)
from repro.lint.analysis import LintContext


def lint_design(design: ir.Design,
                config: Optional[LintConfig] = None) -> LintReport:
    """Run all enabled rules over *design* and return the report."""
    config = config or LintConfig()
    ctx = LintContext.build(design, config)
    diags: List[Diagnostic] = []
    for rule in all_rules():
        if rule.id in config.disabled:
            continue
        diags.extend(rule.check(ctx))
    return LintReport(design.name, apply_policy(diags, config),
                      source_file=design.source_file)


def lint_source(source: str, top: str,
                config: Optional[LintConfig] = None,
                source_file: Optional[str] = None) -> LintReport:
    """Elaborate Verilog *source* and lint the result."""
    design = elaborate(source, top, source_file=source_file)
    return lint_design(design, config)


def lint_catalog(specs: Optional[Sequence] = None,
                 config: Optional[LintConfig] = None) -> List[LintReport]:
    """Lint every peripheral of the corpus (default: EXTENDED_CORPUS)."""
    from repro.peripherals import catalog

    reports = []
    for spec in (specs if specs is not None else catalog.EXTENDED_CORPUS):
        design = spec.elaborate()
        reports.append(lint_design(design, config))
    return reports
