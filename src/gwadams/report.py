"""Structured verification reports: one entry per checked identity."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__

PASS = "pass"
FAIL = "fail"
MISMATCH = "mismatch-documented"


@dataclass(frozen=True)
class ReportEntry:
    lemma: str
    params: tuple
    status: str
    lhs: str = ""
    rhs: str = ""
    note: str = ""

    def params_str(self) -> str:
        return "(" + ",".join(str(p) for p in self.params) + ")"

    def to_obj(self) -> dict:
        obj = {"lemma": self.lemma, "params": list(self.params),
               "status": self.status}
        if self.lhs:
            obj["lhs"] = self.lhs
        if self.rhs:
            obj["rhs"] = self.rhs
        if self.note:
            obj["note"] = self.note
        return obj


def check(lemma: str, params: tuple, ok: bool, lhs="", rhs="", note="") -> ReportEntry:
    return ReportEntry(lemma, params, PASS if ok else FAIL,
                       str(lhs), str(rhs), note)


@dataclass
class VerificationReport:
    suite: str
    entries: list = field(default_factory=list)
    version: str = __version__
    timestamp: str | None = None
    elapsed_s: dict | None = None   # suite -> wall-clock seconds

    def add(self, entry: ReportEntry):
        self.entries.append(entry)

    def extend(self, entries):
        self.entries.extend(entries)

    def sort(self):
        self.entries.sort(key=lambda e: (e.lemma, e.params_str()))
        return self

    @property
    def ok(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def counts(self) -> dict:
        c = {PASS: 0, FAIL: 0, MISMATCH: 0}
        for e in self.entries:
            c[e.status] = c.get(e.status, 0) + 1
        return c

    def stamp(self, elapsed_s: dict | None = None):
        self.timestamp = datetime.now(timezone.utc).isoformat()
        self.elapsed_s = elapsed_s
        return self

    def to_obj(self) -> dict:
        self.sort()
        obj = {
            "suite": self.suite,
            "version": self.version,
            "entries": [e.to_obj() for e in self.entries],
            "summary": self.counts(),
        }
        if self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        if self.elapsed_s is not None:
            obj["elapsed_s"] = self.elapsed_s
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        self.sort()
        lines = ["suite: %s" % self.suite]
        for e in self.entries:
            line = "%-19s %s%s" % (e.status.upper(), e.lemma, e.params_str())
            if e.status == FAIL:
                line += "  lhs=%s rhs=%s" % (e.lhs, e.rhs)
            if e.note and e.status != PASS:
                line += "  [%s]" % e.note
            lines.append(line)
        c = self.counts()
        lines.append("%d pass, %d fail, %d mismatch-documented"
                     % (c[PASS], c[FAIL], c[MISMATCH]))
        return "\n".join(lines) + "\n"


def merge(suite: str, reports) -> VerificationReport:
    out = VerificationReport(suite)
    for r in reports:
        out.extend(r.entries)
    return out.sort()
