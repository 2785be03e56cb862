"""Prometheus text-format exposition (format version 0.0.4).

Renders a :class:`~repro.observability.registry.MetricsRegistry` to the
plain-text scrape format: ``# HELP`` / ``# TYPE`` headers per family,
one ``name{labels} value`` line per sample, histograms as cumulative
``_bucket`` series plus ``_sum`` / ``_count``.  Stdlib only — no
``prometheus_client`` dependency.

Serving exposes this at ``GET /metrics``
(:mod:`repro.serving.fleet.frontdoor`); the CLI writes it with
``mudbscan fit --metrics-out metrics.prom``.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.observability.registry import FamilySnapshot, MetricsRegistry

__all__ = ["CONTENT_TYPE", "render_prometheus", "write_prometheus"]

#: the Content-Type a scraper expects from a 0.0.4 text endpoint
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_family(family: FamilySnapshot) -> list[str]:
    lines = []
    if family.help:
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
    lines.append(f"# TYPE {family.name} {family.type}")
    for sample in family.samples:
        if sample.labels:
            label_str = ",".join(
                f'{key}="{_escape_label_value(str(val))}"'
                for key, val in sample.labels
            )
            lines.append(f"{sample.name}{{{label_str}}} {_format_value(sample.value)}")
        else:
            lines.append(f"{sample.name} {_format_value(sample.value)}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry's full scrape payload (trailing newline included)."""
    lines: list[str] = []
    for family in registry.collect():
        lines.extend(_render_family(family))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    """Render the registry to ``path`` (the ``--metrics-out`` artifact)."""
    path = Path(path)
    path.write_text(render_prometheus(registry))
    return path
