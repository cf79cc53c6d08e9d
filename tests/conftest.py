import random
from fractions import Fraction

import pytest

from qjfrac.exact import QRationalFn
from qjfrac.jfraction import PochhammerParams


def parse(text: str) -> QRationalFn:
    return QRationalFn.parse(text)


def random_pochhammer_params(rng: random.Random) -> PochhammerParams:
    """Random small rational (a, b), avoiding the excluded values a,b=0 and b=1."""
    while True:
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if a != 0 and b != 0 and b != 1 and a != b:
            return PochhammerParams(
                QRationalFn.from_fraction(a), QRationalFn.from_fraction(b)
            )


@pytest.fixture(scope="session")
def qq2_spec():
    from qjfrac.jfraction import divisor_spec

    return divisor_spec()
