"""Each `verify` lemma in the table must fail under a planted fault in the
route it checks.  A row names the lemma, the suite that reports it and a
fault, a replacement monkeypatched into the program for one run of that
suite at its default bounds.  The fault must turn at least one of the
lemma's cells into `fail`, while the unplanted run has none."""

import pytest

from gwadams import forms


def flip_hasse_at(place):
    """The per-place Hasse evaluation with the symbol at place negated.

    hilbert_product checks exactly the product of every place's symbol,
    so it refutes this fault only as long as no place's symbol is derived
    from reciprocity or from the other places."""
    hasse = forms._hasse

    def fault(v, diag):
        s = hasse(v, diag)
        return -s if v == place else s
    return forms, "_hasse", fault


FAULTS = [
    # (lemma, suite, fault, plant: () -> (module, attribute, replacement))
    ("hilbert_product", forms.check_section2_and_hyp,
     "Hasse symbol at 2 negated", lambda: flip_hasse_at(2)),
    ("hilbert_product", forms.check_section2_and_hyp,
     "Hasse symbol at 3 negated", lambda: flip_hasse_at(3)),
]


def failed_cells(suite, lemma) -> int:
    return sum(e.lemma == lemma and e.status == "fail"
               for e in suite().entries)


@pytest.mark.parametrize("lemma, suite", list(dict.fromkeys(
    (lemma, suite) for lemma, suite, _, _ in FAULTS)))
def test_lemma_passes_unplanted(lemma, suite):
    cells = [e for e in suite().entries if e.lemma == lemma]
    assert cells and all(e.status == "pass" for e in cells)


@pytest.mark.parametrize("lemma, suite, fault, plant", FAULTS,
                         ids=[fault for _, _, fault, _ in FAULTS])
def test_fault_fails_lemma(lemma, suite, fault, plant, monkeypatch):
    monkeypatch.setattr(*plant())
    assert failed_cells(suite, lemma) > 0
