"""q and p_g by the Eichler trace formula, against ``SurfaceData.q`` and ``.pg``."""

from __future__ import annotations

import pytest

from oracles import q_and_pg_by_trace_formula
from mixedsurf.files import build_surface


@pytest.mark.parametrize("k", range(1, 6))
def test_trace_formula_gives_the_surface_invariants(families, k):
    S = families[k].surface
    assert q_and_pg_by_trace_formula(S) == (S.q, S.pg) == (0, 0)


@pytest.mark.parametrize("k", (1, 2))
def test_the_sign_of_the_mixed_elements_decides_p_g(families, k):
    # The check is sharp: with the swap acting by +1 on 2-forms, p_g is 1.
    assert q_and_pg_by_trace_formula(families[k].surface, mixed_sign=1) == (0, 1)


@pytest.mark.parametrize("name,pg", [("family1_nonfree", 2), ("toy_z4", 6)])
def test_trace_formula_tells_a_non_free_action(data_dir, name, pg):
    # chi - 1 + q holds for free actions only; the pipeline refuses these two
    # files as not free, while the invariants it assembles read p_g = 0.
    S = build_surface(data_dir / f"{name}.json")
    assert (S.q, S.pg) == (0, 0)
    assert q_and_pg_by_trace_formula(S) == (0, pg)
