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


class ReportEntry:
    """A frozen record.  lhs and rhs are given as strings or as objects with
    a text() method, rendered on first read: a passing entry's values are
    printed only in the JSON report.  Entries compare by the texts."""

    __slots__ = ("lemma", "params", "status", "_lhs", "_rhs", "note")

    def __init__(self, lemma: str, params: tuple, status: str, lhs, rhs,
                 note: str):
        for field, value in zip(self.__slots__, (lemma, params, status, lhs,
                                                 rhs, note)):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a ReportEntry"
                             % name)

    def _text(self, slot: str) -> str:
        value = getattr(self, slot)
        if type(value) is not str:
            value = value.text()
            object.__setattr__(self, slot, value)
        return value

    lhs = property(lambda self: self._text("_lhs"))
    rhs = property(lambda self: self._text("_rhs"))

    def _fields(self) -> tuple:
        return (self.lemma, self.params, self.status, self.lhs, self.rhs,
                self.note)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "ReportEntry%r" % (self._fields(),)

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
    return ReportEntry(lemma, params, PASS if ok else FAIL, lhs, rhs, note)


class VerificationReport:
    __slots__ = ("suite", "entries", "version", "timestamp", "elapsed_s",
                 "lemma_elapsed_s", "lemma_s", "_last", "_sorted")

    def __init__(self, suite: str, entries: list | None = None):
        self.suite = suite
        self.entries = [] if entries is None else entries
        self.version = __version__
        # set by stamp()
        self.timestamp = None
        self.elapsed_s = None           # suite -> wall-clock seconds
        self.lemma_elapsed_s = None     # suite -> lemma -> seconds
        # lemma -> wall-clock seconds; each entry is charged the time since
        # the previous entry (or since the report was made).  Not compared.
        self.lemma_s = {}
        self._last = time.perf_counter()
        self._sorted = False

    def _compared(self) -> tuple:
        return (self.suite, self.entries, self.version, self.timestamp,
                self.elapsed_s, self.lemma_elapsed_s)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def add(self, entry: ReportEntry):
        now = time.perf_counter()
        self.lemma_s[entry.lemma] = (self.lemma_s.get(entry.lemma, 0.0)
                                     + now - self._last)
        self._last = now
        self.entries.append(entry)
        self._sorted = False

    def extend(self, entries):
        for e in entries:
            self.add(e)

    def sort(self):
        """Entries in (lemma, params) order, sorted once after each add."""
        if not self._sorted:
            self.entries.sort(key=lambda e: (e.lemma, e.params_str()))
            self._sorted = True
        return self

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
        if self.lemma_elapsed_s is not None:
            obj["lemma_elapsed_s"] = self.lemma_elapsed_s
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
    """The entries of reports in one report; the timings stay with them."""
    return VerificationReport(suite, [e for r in reports for e in r.entries])
