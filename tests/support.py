"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library: plain
convolutions, big-integer binomials, and an exhaustive bounded search for
zeros of diagonal forms.  Pseudo-random data always uses a fixed seed so
any failure reproduces exactly.
"""

import math
import random

SEED = 271828

# nonsquare classes available to hermitian-space generators
HERMITIAN_A = (-1, 2, -2, 3, -3, 5, -5, 7, -7, -11)


def convolve(a, b):
    """Coefficient convolution of two lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def shifted_sum(terms):
    """Sum of t^shift times a polynomial over (coefficient list, shift) pairs.

    Each term is its own convolution with the monomial t^shift, so repeated
    pairs count as often as they occur.
    """
    out = []
    for coeffs, shift in terms:
        term = convolve([0] * shift + [1], list(coeffs))
        out.extend([0] * (len(term) - len(out)))
        for i, c in enumerate(term):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def closed_form_core(n):
    """Coefficients of the rank-n core, (1 - t^A) / (1 - t^2) * (1 + t^B).

    (A, B) = (n, n - 1) for even n and (n - 1, n) for odd n.  A is even, so
    the quotient is 1 + t^2 + ... + t^(A - 2), and the core has degree 2n - 3.
    """
    a, b = (n, n - 1) if n % 2 == 0 else (n - 1, n)
    out = [0] * (a - 1 + b)
    for i in range(0, a - 1, 2):
        out[i] += 1
        out[i + b] += 1
    return out


def v2_central_binomial(m):
    """2-adic valuation of binomial(2m, m), straight off the big integer."""
    c = math.comb(2 * m, m)
    v = 0
    while c % 2 == 0:
        c //= 2
        v += 1
    return v


def _partial_values(entries, height):
    # map: achievable value of sum a_i x_i^2 -> reachable with some x_i != 0
    acc = {0: False}
    for a in entries:
        nxt = {}
        for value, nonzero in acc.items():
            for x in range(height + 1):
                w = value + a * x * x
                flag = nonzero or x > 0
                if not nxt.get(w, False):
                    nxt[w] = flag
        acc = nxt
    return acc


def search_isotropy(entries, height=50):
    """Exhaustive test for a nontrivial zero with all |x_i| <= height.

    Only squares of the coordinates appear, so scanning 0..height covers
    every sign pattern.  Meet in the middle keeps dimension 4 cheap.
    """
    split = (len(entries) + 1) // 2
    left = _partial_values(list(entries)[:split], height)
    right = _partial_values(list(entries)[split:], height)
    for value, nonzero in left.items():
        other = right.get(-value)
        if other is None:
            continue
        if nonzero or other:
            return True
    return False


def random_forms(count, dim_max=4, bound=20, seed=SEED):
    """Seeded diagonal forms with nonzero integer entries in [-bound, bound]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(1, dim_max)
        entries = [rng.choice((-1, 1)) * rng.randint(1, bound) for _ in range(dim)]
        out.append(entries)
    return out


def random_hermitian_spaces(count, seed=SEED):
    """Seeded (a, entries) pairs for hermitian spaces of rank 2..6."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = rng.choice(HERMITIAN_A)
        rank = rng.randint(2, 6)
        entries = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rank)]
        out.append((a, entries))
    return out


def squarefree(n):
    """n with every square factor divided out, sign kept."""
    k = 2
    while k * k <= abs(n):
        while n % (k * k) == 0:
            n //= k * k
        k += 1
    return n


def hilbert_by_solvability(a, b, p):
    """Hilbert symbol (a, b)_p at a prime p, by brute-force local solvability.

    For squarefree a and b, z^2 = a x^2 + b y^2 has a nontrivial p-adic zero
    exactly when it has a primitive zero modulo 16 (p = 2) or modulo p^2
    (p odd); modulo 8 is not enough at p = 2.  A zero with p | x and p | y
    forces p | z, so the primitive zeros are those with x or y prime to p.
    """
    a, b = squarefree(a), squarefree(b)
    m = 16 if p == 2 else p * p
    squares = {z * z % m for z in range(m)}
    for x in range(m):
        for y in range(m):
            if (x % p or y % p) and (a * x * x + b * y * y) % m in squares:
                return 1
    return -1
