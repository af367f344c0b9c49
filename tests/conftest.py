from __future__ import annotations

import pytest

import gf2_oracle
from paleylift import css, embedding, fields, paley, voltage


@pytest.fixture(scope="session")
def gf9():
    """GF(9) with the modulus x^2 + x + 2 used by the reference construction."""
    return fields.make_field(3, 2, (2, 1, 1))


@pytest.fixture(scope="session")
def paley9(gf9):
    return paley.build_paley(gf9)


@pytest.fixture(scope="session")
def lift3():
    return voltage.lift(voltage.build_voltage_graph(3))


@pytest.fixture(scope="session")
def paley9_rotation(paley9):
    """Self-dual genus-1 rotation system for Paley-9 (searched once per session)."""
    rs = embedding.search_self_dual_embedding(paley9.graph, target_genus=1)
    assert rs is not None
    return rs


@pytest.fixture(scope="session")
def lift3_code():
    """The [[60,30]] surface code of the t=3 derived embedding."""
    rotation = voltage.derived_embedding(voltage.build_voltage_graph(3))
    return css.build_code_embedding(rotation, family="voltage", kprime=1)


@pytest.fixture(scope="session")
def toric2x2_code():
    """The 2x2 toric code, [[8,2,2]]: its graph and dual have multi-edges."""
    hx = gf2_oracle.from_rows([
        [1, 1, 0, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 0, 1, 0, 1],
        [0, 0, 1, 1, 1, 0, 1, 0],
        [0, 0, 1, 1, 0, 1, 0, 1],
    ])
    hz = gf2_oracle.from_rows([
        [1, 0, 1, 0, 1, 1, 0, 0],
        [0, 1, 0, 1, 1, 1, 0, 0],
        [1, 0, 1, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 0, 1, 1],
    ])
    return css.CssCode(hx=hx, hz=hz, n=8, k=2, d_lower=1, d_found=None,
                       family="custom")
