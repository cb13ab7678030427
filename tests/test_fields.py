import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellrank.fields import (EisensteinInt, OMEGA, discrete_log_tables, is_prime,
                            make_field, power_coset_representatives, primitive_cube_root,
                            primitive_root)
from helpers import _field_tables_python, sqrt_count


def _log_parity_chi(p: int) -> list[int]:
    """chi(g^j) = (-1)^j and chi(0) = 0, read off the discrete logs as
    counting.weierstrass_fiber_table reads it."""
    _, log = discrete_log_tables(p)
    chi = 1 - 2 * (log & 1)
    chi[0] = 0
    return chi.tolist()


@pytest.mark.parametrize("p", [5, 7, 11, 13, 1009, 1013])
def test_log_parity_chi_matches_loop_definition(p):
    assert _log_parity_chi(p) == list(_field_tables_python(p)[0])


def test_make_field_keeps_no_p_entry_table():
    # the field holds its cube roots only; the O(p) tables are the shared
    # discrete-log arrays, built once per prime
    p = 1000003
    discrete_log_tables(p)
    tracemalloc.start()
    try:
        field = make_field(p)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.p == p and len(field.cube_roots) == 3
    assert kept < 1 << 20, kept


def test_make_field_7_cube_roots():
    f = make_field(7)
    assert set(f.cube_roots) == {1, 2, 4}
    assert all(pow(c, 3, 7) == 1 for c in f.cube_roots)


def test_make_field_5_cube_roots():
    assert make_field(5).cube_roots == (1,)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 307, 311, 10007, 100003])
def test_make_field_tables_match_loop_definitions(p):
    assert make_field(p).cube_roots == _field_tables_python(p)[1]


@pytest.mark.parametrize("bad", [2, 3, 4, 6, 9, 15, 1, 0, -7])
def test_make_field_rejects(bad):
    with pytest.raises(ValueError, match="unsupported characteristic"):
        make_field(bad)


@pytest.mark.parametrize("p", [5, 7, 13, 19, 31, 97])
def test_square_table_counts(p):
    chi = _log_parity_chi(p)
    assert chi[0] == 0
    assert chi.count(1) == chi.count(-1) == (p - 1) // 2


@pytest.mark.parametrize("p", [7, 13, 31])
def test_cube_root_count(p):
    f = make_field(p)
    expected = 3 if p % 3 == 1 else 1
    assert len(f.cube_roots) == expected


@pytest.mark.parametrize("p", [7, 13, 97])
def test_character_multiplicativity_exhaustive(p):
    chi = _log_parity_chi(p)
    for a in range(1, p):
        for b in range(1, p):
            assert chi[a * b % p] == chi[a] * chi[b]


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_sqrt_count_total(p):
    f = make_field(p)
    assert sum(sqrt_count(f, a) for a in range(p)) == p
    for a in range(p):
        assert sqrt_count(f, a) == sum(1 for y in range(p) if y * y % p == a)


def test_primitive_cube_root_examples():
    assert primitive_cube_root(make_field(7)) == 2
    assert primitive_cube_root(make_field(13)) == 3
    with pytest.raises(ValueError, match="no primitive cube root"):
        primitive_cube_root(make_field(5))


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_primitive_cube_root_satisfies_quadratic(p):
    c = primitive_cube_root(make_field(p))
    assert c != 1
    assert (c * c + c + 1) % p == 0


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


# ---- Eisenstein integers ----------------------------------------------------

def test_omega_relation():
    assert OMEGA * OMEGA == EisensteinInt(-1, -1)
    assert OMEGA * OMEGA + OMEGA + 1 == EisensteinInt(0, 0)
    assert OMEGA ** 3 == EisensteinInt(1, 0) == 1


def test_rational_eisenstein_integers_equal_and_hash_as_ints():
    assert EisensteinInt(3, 0) == 3
    assert hash(EisensteinInt(3, 0)) == hash(3)
    assert {3: "three"}[EisensteinInt(3, 0)] == "three"
    assert EisensteinInt(3, 1) != 3


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_eisenstein_norm_multiplicative(a, b, c, d):
    u = EisensteinInt(a, b)
    v = EisensteinInt(c, d)
    assert (u * v).norm() == u.norm() * v.norm()


@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_eisenstein_ring_axioms(a, b, c, d):
    u = EisensteinInt(a, b)
    v = EisensteinInt(c, d)
    assert u + v == v + u
    assert u * v == v * u
    assert u - v == -(v - u)
    assert u * (v + 1) == u * v + u


@pytest.mark.parametrize("p", [7, 13, 31])
def test_reduction_is_ring_homomorphism(p):
    field = make_field(p)
    w = primitive_cube_root(field)
    pairs = [(EisensteinInt(a, b), EisensteinInt(c, d))
             for a, b, c, d in [(1, 2, 3, 4), (-5, 1, 0, 2), (6, -6, 2, 7)]]
    for u, v in pairs:
        assert (u + v).reduce(p, w) == (u.reduce(p, w) + v.reduce(p, w)) % p
        assert (u * v).reduce(p, w) == u.reduce(p, w) * v.reduce(p, w) % p
    assert OMEGA.reduce(p, w) == w


@pytest.mark.parametrize("p", [5, 7, 13, 19, 31])
@pytest.mark.parametrize("w", [1, 2, 3, 4, 6, 12])
def test_power_coset_representatives(p, w):
    reps = power_coset_representatives(p, w)
    powers = {pow(a, w, p) for a in range(1, p)}
    cosets = [frozenset(r * h % p for h in powers) for r in reps]
    assert len(reps) == (p - 1) // len(powers)
    assert set().union(*cosets) == set(range(1, p)) and len(set(cosets)) == len(reps)
    assert reps == sorted(min(c) for c in cosets)  # smallest of each coset


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 37, 1009, 7333])
def test_primitive_root_and_log_tables(p):
    g = primitive_root(p)
    assert len({pow(g, j, p) for j in range(p - 1)}) == p - 1
    assert all(len({pow(a, j, p) for j in range(p - 1)}) < p - 1 for a in range(2, g))
    exp, log = discrete_log_tables(p)
    assert exp.tolist() == [pow(g, j, p) for j in range(p - 1)]
    assert log[0] == -1 and log[exp].tolist() == list(range(p - 1))
    assert not exp.flags.writeable and not log.flags.writeable
    assert discrete_log_tables(p)[0] is exp  # built once per prime


def test_eisenstein_conjugate():
    for a, b in [(2, 3), (0, 1), (-1, -1), (5, 0)]:
        x = EisensteinInt(a, b)
        assert x * x.conjugate() == x.norm()
    assert OMEGA.conjugate() == OMEGA * OMEGA
