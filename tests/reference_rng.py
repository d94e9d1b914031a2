"""Philox4x64-10 in plain Python: a judge of ``row_streams`` that needs no numpy.

The counter-based generator of Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3" (SC 2011), with their published
multipliers and Weyl constants, set up as numpy's ``Philox`` sets it up:
the 128-bit key and the 256-bit counter are split into 64-bit words, least
significant first, and the counter is stepped before each block of four
outputs.  pytest does not collect this file, and ``src`` never imports it.
"""

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
