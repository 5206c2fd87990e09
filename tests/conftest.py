import pytest

from noisekey.gf import build_field
from noisekey.rs import make_code

# (m, n, k) of the codes the equivalence tests sweep, on each field's default polynomial.
CODES = [(3, 7, 5), (4, 15, 9), (5, 31, 19), (8, 255, 167)]


@pytest.fixture(scope="session")
def gf256():
    return build_field(8, 0x11D)


@pytest.fixture(scope="session")
def gf16():
    return build_field(4, 0x13)


@pytest.fixture(scope="session")
def gf8():
    return build_field(3, 0xB)


@pytest.fixture(scope="session")
def gf4():
    return build_field(2, 0x7)


@pytest.fixture(scope="session")
def code_255_167(gf256):
    return make_code(gf256, 255, 167)


@pytest.fixture(scope="session")
def code_7_5(gf8):
    return make_code(gf8, 7, 5)


@pytest.fixture(scope="session")
def code_3_2(gf4):
    return make_code(gf4, 3, 2)


def random_codeword_with_errors(rng, code, weight):
    """A (codeword, corrupted, info) triple with exactly `weight` symbol errors."""
    from noisekey.rs import codeword

    info = rng.integers(0, code.field.order, size=code.k)
    clean = codeword(code, info)
    bad = clean.copy()
    if weight:
        pos = rng.choice(code.n, size=weight, replace=False)
        bad[pos] ^= rng.integers(1, code.field.order, size=weight)
    return clean, bad, info
