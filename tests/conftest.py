import numpy as np
import pytest

from affinetoda.chevalley import build_chevalley, build_principal_sl2, coxeter_element
from affinetoda.rootdata import LieType, build_root_system
from affinetoda.todasolver import _TodaData, residual

ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

_ALG_CACHE = {}


def get_algebra(name: str):
    """Session cache of (root system, algebra, sl2, coxeter) per type."""
    if name not in _ALG_CACHE:
        rs = build_root_system(LieType.parse(name))
        alg = build_chevalley(rs)
        sl2 = build_principal_sl2(alg)
        cox = coxeter_element(alg, sl2)
        _ALG_CACHE[name] = (rs, alg, sl2, cox)
    return _ALG_CACHE[name]


def elliptic_residual(omega, q, rs):
    """The solver's residual of a field, computed as toda verify computes it."""
    q2 = np.abs(q.sample(omega.grid)) ** 2
    return residual(_TodaData(rs), omega.grid, omega.values, q2)


@pytest.fixture(scope="session")
def algebra():
    return get_algebra


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
