"""Reports: one run's body as schema-tagged JSON, CSV or a plain table."""

from __future__ import annotations

from .errors import ConfigError

REPORT_SCHEMA_ID = "polyharm-report/1"
METHOD_NOTE = (
    "verdicts are certified at finitely many exact rational sample points; "
    "residuals of this map family are real-analytic on the chart, so one exact "
    "nonzero value rules out vanishing on any open set, and exact zeros across "
    "the grid together with closed-form cross-checks certify identities"
)


class ResidualReport:
    """A finished run: what its report prints, and nothing timed."""

    def __init__(self, kind: str, mode: str, seed: int | None, body: dict, exit_code: int, tol: float | None = None):
        self.kind, self.mode, self.seed, self.body = kind, mode, seed, body
        self.exit_code, self.tol = exit_code, tol

    def payload(self) -> dict:
        doc = {
            "schema": REPORT_SCHEMA_ID,
            "kind": self.kind,
            "mode": self.mode,
            "method": METHOD_NOTE,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.tol is not None:
            doc["tol"] = self.tol
        doc.update(self.body)
        return doc


def _csv_rows(report: ResidualReport) -> tuple[list[str], list[list]]:
    body = report.body
    if report.kind == "check":
        header = [
            "instance", "point", "verdict",
            "CL_norm", "CL_zero", "SDL_norm", "SDL_zero",
            "ND_norm", "ND_zero", "ND2_norm", "ND2_zero", "harmonic",
        ]
        rows = []
        for i, inst in enumerate(body["instances"]):
            for p in inst["points"]:
                r = p["residuals"]
                rows.append(
                    [
                        i, " ".join(p["point"]), inst["verdict"],
                        r["CL"]["norm"], r["CL"]["exact_zero"],
                        r["SDL"]["norm"], r["SDL"]["exact_zero"],
                        r["ND"]["norm"], r["ND"]["exact_zero"],
                        r["ND2"]["norm"], r["ND2"]["exact_zero"],
                        p["harmonic"],
                    ]
                )
        return header, rows
    if report.kind == "sweep-biharmonic":
        header = ["m", "c1", "c2", "epsilon", "expected_proper", "verdict", "match"]
        rows = [
            [c["m"], c["c1"], c["c2"], c["epsilon"], c["expected_proper"], c["verdict"], c["match"]]
            for c in body["cells"]
        ]
        return header, rows
    if report.kind == "sweep-polyharmonic":
        header = ["order", "m", "expected_zero", "zero", "expected_proper", "proper", "closed_form_match", "match"]
        rows = []
        for c in body["cells"]:
            # the trials' one value, or "mixed" where they differ, as a
            # biharmonic cell's verdict reads
            seen = ({t[key] for t in c["trials"]} for key in ("zero", "proper", "closed_form_match"))
            zero, proper, closed = (v.pop() if len(v) == 1 else "mixed" for v in seen)
            rows.append([c["order"], c["m"], c["expected_zero"], zero, c["expected_proper"], proper, closed, c["match"]])
        return header, rows
    if report.kind == "selftest":
        header = ["name", "ok", "detail"]
        return header, [[c["name"], c["ok"], c["detail"]] for c in body["checks"]]
    raise ConfigError(f"no CSV layout for report kind {report.kind!r}")


def _table_text(report: ResidualReport) -> str:
    header, rows = _csv_rows(report)
    cells = [header] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.append(f"kind={report.kind} mode={report.mode} exit={report.exit_code}")
    return "\n".join(lines) + "\n"


def render_report(report: ResidualReport, fmt: str = "json") -> str:
    """The report's text; byte-stable for fixed config, seed and mode."""
    if fmt == "json":
        import json  # here, not at the top: the default table needs no serializer
        return json.dumps(report.payload(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = _csv_rows(report)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "table":
        return _table_text(report)
    raise ConfigError(f"unknown report format {fmt!r}")

