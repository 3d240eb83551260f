import numpy as np

import liftlap.reference_fixture as rf
from liftlap import SpectrumMultiset


def test_search_matches_by_the_verdict_rule(monkeypatch):
    # a relative shift of 2e-6 is far outside tol = 1e-8, though inside
    # np.allclose's default rtol of 1e-5
    shifted = SpectrumMultiset(np.array(rf.BASE_SPECTRUM.values) * (1 + 2e-6))
    monkeypatch.setattr(rf, "BASE_SPECTRUM", shifted)
    assert rf.search_base_complexes(1e-8) == []
