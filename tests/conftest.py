import random
from fractions import Fraction

import pytest

from qjfrac.exact import QRationalFn
from qjfrac.jfraction import PochhammerParams
from qjfrac.zalgebra import ZPolynomial


def parse(text: str) -> QRationalFn:
    return QRationalFn.parse(text)


def triangle_via_products(c_source, h: int, k: int) -> QRationalFn:
    """[z^k] of (1-c_1 z)...(1-c_h z); the empty product at h=0 gives 1 at k=0.

    The oracle for the recurrence triangle, which must agree with it
    everywhere (the Iverson seed of the recurrence is the empty product)."""
    if not 0 <= k <= h:
        return QRationalFn.zero()
    prod = ZPolynomial.one()
    for i in range(1, h + 1):
        prod = prod * ZPolynomial([QRationalFn.one(), -c_source(i)])
    return prod.coefficient(k)


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
