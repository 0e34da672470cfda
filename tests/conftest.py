import numpy as np
import pytest
from scipy.sparse import csr_matrix

from affinetoda.chevalley import build_chevalley, build_principal_sl2, coxeter_element
from affinetoda.connection import embed_cartan
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


def scatter(alg, slots, values):
    """Coefficients over the basis slots ``slots`` as coefficients over all of g."""
    out = np.zeros(values.shape[:-1] + (alg.dim,), dtype=complex)
    out[..., slots] = values
    return out


def connection_parts(conn):
    """(A_z + Phi, A_zbar + Psi) of a connection over its slots; A_z and
    A_zbar are kept as their Cartan coefficients only."""
    n = len(conn.slots)
    return embed_cartan(conn.A_z, n) + conn.phi, embed_cartan(conn.A_zbar, n) + conn.psi


_AD_CACHE = {}


def reference_bracket(alg, X, Y):
    """[X, Y] = sum_a X_a ad(e_a) Y over all of g, from the sparse integer ad matrices."""
    if alg not in _AD_CACHE:
        _AD_CACHE[alg] = [csr_matrix(alg.ad(e)) for e in np.eye(alg.dim, dtype=np.int64)]
    shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (alg.dim,)
    Xb = np.broadcast_to(X, shape).reshape(-1, alg.dim)
    Yb = np.broadcast_to(Y, shape).reshape(-1, alg.dim)
    Z = np.zeros(Xb.shape, dtype=complex)
    for a, ad in enumerate(_AD_CACHE[alg]):
        Z += Xb[:, a : a + 1] * (ad @ Yb.T).T
    return Z.reshape(shape)


@pytest.fixture(scope="session")
def algebra():
    return get_algebra


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
