"""Structured verification reports: one entry per checked identity."""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from . import __version__

PASS = "pass"
FAIL = "fail"
MISMATCH = "mismatch-documented"


class Template(NamedTuple):
    """A text made on demand: form % the texts of args."""
    form: str
    args: tuple

    def text(self) -> str:
        return self.form % tuple(a.text() for a in self.args)


def _text(value) -> str:
    return value if type(value) is str else value.text()


class ReportEntry(NamedTuple):
    """One checked identity.  lhs and rhs are kept as given, strings or
    objects with a text() method, and rendered only where printed: on a
    FAIL line and in the JSON report."""
    lemma: str
    params: tuple
    status: str
    lhs: object
    rhs: object
    note: str

    def params_str(self) -> str:
        return "(" + ",".join(str(p) for p in self.params) + ")"

    def to_obj(self) -> dict:
        obj = {"lemma": self.lemma, "params": list(self.params),
               "status": self.status}
        # by the text: a zero polynomial is falsy but renders as "0"
        for key, text in (("lhs", _text(self.lhs)), ("rhs", _text(self.rhs)),
                          ("note", self.note)):
            if text:
                obj[key] = text
        return obj


def check(lemma: str, params: tuple, ok: bool, lhs="", rhs="", note="") -> ReportEntry:
    return ReportEntry(lemma, params, PASS if ok else FAIL, lhs, rhs, note)


class VerificationReport:
    __slots__ = ("suite", "entries", "version", "timestamp", "elapsed_s",
                 "lemma_elapsed_s", "lemma_s", "_last")

    def __init__(self, suite: str, entries: list | None = None):
        self.suite = suite
        self.entries = [] if entries is None else entries
        self.version = __version__
        # set by stamp()
        self.timestamp = None
        self.elapsed_s = None           # suite -> wall-clock seconds
        self.lemma_elapsed_s = None     # suite -> lemma -> seconds
        # lemma -> wall-clock seconds; each entry is charged the time since
        # the previous entry (or since the report was made)
        self.lemma_s = {}
        self._last = time.perf_counter()

    def add(self, entry: ReportEntry):
        now = time.perf_counter()
        self.lemma_s[entry.lemma] = (self.lemma_s.get(entry.lemma, 0.0)
                                     + now - self._last)
        self._last = now
        self.entries.append(entry)

    def extend(self, entries):
        for e in entries:
            self.add(e)

    def _ordered(self) -> list:
        """The entries in (lemma, params) order, a new list."""
        return sorted(self.entries, key=lambda e: (e.lemma, e.params_str()))

    @property
    def ok(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def counts(self) -> dict:
        c = {PASS: 0, FAIL: 0, MISMATCH: 0}
        for e in self.entries:
            c[e.status] = c.get(e.status, 0) + 1
        return c

    def stamp(self, elapsed_s: dict, lemma_elapsed_s: dict):
        from datetime import datetime, timezone     # only --json pays for it
        self.timestamp = datetime.now(timezone.utc).isoformat()
        self.elapsed_s = elapsed_s
        self.lemma_elapsed_s = lemma_elapsed_s
        return self

    def to_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "version": self.version,
            "entries": [e.to_obj() for e in self._ordered()],
            "summary": self.counts(),
        }
        if self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        if self.elapsed_s is not None:
            obj["elapsed_s"] = self.elapsed_s
        if self.lemma_elapsed_s is not None:
            obj["lemma_elapsed_s"] = self.lemma_elapsed_s
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = ["suite: %s" % self.suite]
        for e in self._ordered():
            line = "%-19s %s%s" % (e.status.upper(), e.lemma, e.params_str())
            if e.status == FAIL:
                line += "  lhs=%s rhs=%s" % (_text(e.lhs), _text(e.rhs))
            if e.note and e.status != PASS:
                line += "  [%s]" % e.note
            lines.append(line)
        c = self.counts()
        lines.append("%d pass, %d fail, %d mismatch-documented"
                     % (c[PASS], c[FAIL], c[MISMATCH]))
        return "\n".join(lines) + "\n"


def merge(suite: str, reports) -> VerificationReport:
    """The entries of reports in one report; the timings stay with them."""
    return VerificationReport(suite, [e for r in reports for e in r.entries])
