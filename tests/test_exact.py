import random
from fractions import Fraction

from cell24.exact import QS2


def test_field_examples():
    # (1 + r)(-1 + r) = r^2 - 1 = 1
    assert QS2(1, 1) * QS2(-1, 1) == QS2(1, 0)
    assert QS2(1, 1) + QS2(-1, 1) == QS2(0, 2)


def test_sign_examples():
    assert QS2(1, -1).sign() == -1       # 1 - sqrt2 < 0
    assert QS2(0, 0).sign() == 0
    # 3 - 2 sqrt2: compare 3^2 = 9 with 2*2^2 = 8 (integer oracle)
    assert 3 * 3 > 2 * 2 * 2
    assert QS2(3, -2).sign() == 1


def _random_qs2(rng):
    return QS2(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_arithmetic_against_float_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        x, y = _random_qs2(rng), _random_qs2(rng)
        assert abs(float(x + y) - (float(x) + float(y))) < 1e-9
        assert abs(float(x * y) - float(x) * float(y)) < 1e-6


def test_field_laws_exact():
    rng = random.Random(11)
    for _ in range(300):
        x, y, z = (_random_qs2(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_sign_is_multiplicative():
    rng = random.Random(13)
    for _ in range(500):
        x, y = _random_qs2(rng), _random_qs2(rng)
        assert x.sign() * y.sign() == (x * y).sign()

