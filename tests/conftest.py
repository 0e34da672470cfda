import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from affinetoda.chevalley import build_chevalley, build_principal_sl2, coxeter_element
from affinetoda.connection import _bracket
from affinetoda.rootdata import LieType, build_root_system
from affinetoda.todasolver import _TodaData, residual
from oracles import ad

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
    data = _TodaData(rs)
    exps = data.exponentials(omega.values, np.abs(q.sample(omega.grid)) ** 2)
    return residual(data, omega.grid, omega.values, exps)


def chevalley_slots(alg, slots):
    """The Chevalley basis slot of each local position of a ``TodaSlots``."""
    return np.array([*range(alg.rank), *(alg.root_index(r) for r in slots.roots)])


def scatter(alg, slots, values):
    """Coefficients over the Toda slots ``slots`` as coefficients over all of g."""
    out = np.zeros(values.shape[:-1] + (alg.dim,), dtype=complex)
    out[..., chevalley_slots(alg, slots)] = values
    return out


def embed_cartan(coeffs, n):
    """Cartan coefficients as coefficients over n slots, the first l of
    which are the Cartan slots."""
    out = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    out[..., : coeffs.shape[-1]] = coeffs
    return out


def slot_fields(conn):
    """(Phi, Psi) of a connection over all its slots: the l+1 columns it
    keeps, scattered through ``slots.lowered`` and ``slots.raised``."""
    slots = conn.slots
    phi = np.zeros(conn.phi.shape[:-1] + (slots.n,), dtype=complex)
    psi = np.zeros_like(phi)
    phi[..., slots.lowered] = conn.phi
    psi[..., slots.raised] = conn.psi
    return phi, psi


def connection_parts(conn):
    """(A_z + Phi, A_zbar + Psi) of a connection over all its slots; A_z
    and A_zbar are kept as their Cartan coefficients only, Phi and Psi on
    their l+1 slots."""
    n = conn.slots.n
    phi, psi = slot_fields(conn)
    return embed_cartan(conn.A_z, n) + phi, embed_cartan(conn.A_zbar, n) + psi


def dense_bracket(slots, X, Y):
    """[X, Y] for X and Y given over all the slots, onto all of them, by the
    connection's one slot bracket ``_bracket``."""
    xs, ys = ([Z[..., d] for d in range(slots.n)] for Z in (X, Y))
    terms = slots.terms(*(Z.reshape(-1, slots.n).any(axis=0) for Z in (X, Y)))
    return _bracket(xs, ys, terms, 0, slots.n)


def _traced_peak(fn):
    """The peak of the memory numpy and Python allocate while ``fn()`` runs,
    in bytes, as tracemalloc traces it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_AD_CACHE = {}


def reference_bracket(alg, X, Y):
    """[X, Y] = sum_a X_a ad(e_a) Y over all of g, from the sparse integer ad matrices."""
    if alg not in _AD_CACHE:
        _AD_CACHE[alg] = [csr_matrix(ad(alg, e)) for e in np.eye(alg.dim, dtype=np.int64)]
    shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]) + (alg.dim,)
    Xb = np.broadcast_to(X, shape).reshape(-1, alg.dim)
    Yb = np.broadcast_to(Y, shape).reshape(-1, alg.dim)
    Z = np.zeros(Xb.shape, dtype=complex)
    for a, ad_a in enumerate(_AD_CACHE[alg]):
        Z += Xb[:, a : a + 1] * (ad_a @ Yb.T).T
    return Z.reshape(shape)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "block_points(n): run the test with connection._BLOCK_POINTS = n"
    )


@pytest.fixture(scope="session")
def algebra():
    return get_algebra


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
