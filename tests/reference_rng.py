"""Philox4x64-10 and numpy's small-mean binomial in plain Python.

A judge of ``row_streams`` and of a sweep's draws that needs no numpy.

The counter-based generator of Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3" (SC 2011), with their published
multipliers and Weyl constants, set up as numpy's ``Philox`` sets it up:
the 128-bit key and the 256-bit counter are split into 64-bit words, least
significant first, and the counter is stepped before each block of four
outputs.  pytest does not collect this file, and ``src`` never imports it.
"""

import math

MASK = 2**64 - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # golden ratio, sqrt(3) - 1
ROUNDS = 10


def words(value: int, count: int) -> list[int]:
    """``value`` as ``count`` 64-bit words, least significant first."""
    return [(value >> (64 * k)) & MASK for k in range(count)]


def block(counter: list[int], key: list[int]) -> list[int]:
    """The four output words of one counter under one key."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for r in range(ROUNDS):
        if r:  # the key schedule: a Weyl step before every round but the first
            k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
        p0, p1 = MULTIPLIERS[0] * x0, MULTIPLIERS[1] * x2
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & MASK,
                          (p0 >> 64) ^ x3 ^ k1, p0 & MASK)
    return [x0, x1, x2, x3]


def random_raw(seed: int, counter: int, n: int) -> list[int]:
    """The first ``n`` words of ``Philox(key=seed, counter=counter).random_raw``."""
    key = words(seed, 2)
    out: list[int] = []
    while len(out) < n:
        counter = (counter + 1) % 2**256
        out.extend(block(words(counter, 4), key))
    return out[:n]


def doubles(seed: int, counter: int):
    """``next_double`` of ``Philox(key=seed, counter=counter)``, without end.

    numpy turns a raw word into a double as ``(word >> 11) * 2**-53``.
    """
    key = words(seed, 2)
    while True:
        counter = (counter + 1) % 2**256
        for word in block(words(counter, 4), key):
            yield (word >> 11) * 2.0**-53


def binomial(draws, n: int, p: float) -> int:
    """numpy's ``random_binomial`` where it inverts the CDF, n·min(p, 1 − p) ≤ 30.

    ``draws`` yields the generator's doubles.  Above 30 numpy switches to
    BTPE, which this does not follow.  As in numpy, p = 0 takes no draw and
    p = 1 takes one.
    """
    if n == 0 or p == 0.0:
        return 0
    if p > 0.5:
        return n - inversion(draws, n, 1.0 - p)
    return inversion(draws, n, p)


def inversion(draws, n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion``: walk the CDF up from X = 0."""
    if p * n > 30.0:
        raise NotImplementedError("numpy draws this by BTPE")
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px, u = 0, qn, next(draws)
    while u > px:
        x += 1
        if x > bound:  # past the tail numpy gives up on: start over
            x, px, u = 0, qn, next(draws)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x
