"""Output checks for `dcmkit compare` reports.

A report passes when it parses, names the expected offline reference, an
exact reference costs no more than any other algorithm, and online
provisioning costs no less than its offline counterpart. Byte-identity
across passes is checked by the runner, which sees every pass.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9


def check_compare_report(data: str | bytes, reference_kind: str) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    try:
        report = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        return [f"report is not JSON: {exc}"]
    try:
        kind = report["reference_kind"]
        totals = {name: entry["total"] for name, entry in report["algorithms"].items()}
        gcsr_vs_cpoff = report["ratios"]["gcsr_vs_cpoff"]
        savings = report["savings_vs_static"]
    except (KeyError, TypeError) as exc:
        return [f"report lacks field {exc}"]

    problems = []
    if report.get("kind") != "compare":
        problems.append(f"kind is {report.get('kind')!r}, expected 'compare'")
    if kind != reference_kind:
        problems.append(f"reference_kind is {kind!r}, expected {reference_kind!r}")
    for name in ("offline", "dcmon"):
        if not isinstance(savings.get(name), float) or not math.isfinite(savings[name]):
            problems.append(f"savings_vs_static[{name!r}] is not a finite number")
    if any(not math.isfinite(total) for total in totals.values()):
        problems.append(f"non-finite total in {totals}")
    elif kind == "exact":
        offline = totals["offline"]
        for name, total in totals.items():
            if offline > total * (1.0 + REL_TOL):
                problems.append(f"exact offline total {offline!r} above {name} total {total!r}")
    if not gcsr_vs_cpoff >= 1.0 - REL_TOL:
        problems.append(f"gcsr_vs_cpoff {gcsr_vs_cpoff!r} below 1")
    return problems
