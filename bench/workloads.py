"""Seeded inputs, independent oracles and op executors for the benchmark.

Inputs and expected answers are built here with the standard library only:
nothing in this module imports hermquad.  Each expected value follows from
how its input was constructed (a closed form, a known factorization, a form
assembled from hyperbolic planes), never from running the library.  The
library is handed in by the worker as a module and receives only the
generated values, never the seed.

Every workload draws its size-driving parameters by stratified sampling,
one draw per equal-width stratum in random order, and the form workloads
fix the shapes of their forms outright.  Two seeds then give different
inputs with nearly the same cost, so the spread between runs measures the
program and the machine rather than the luck of the draw.

A workload is a module-level object with
    make_ops(rng, count) -> list of ops (plain tuples and dicts)
    oracle(op)           -> expected values, computed before timing
    execute(op, lib, tr) -> plain values taken from the library's results
    check(op, expected, result) -> list of problems, empty when correct
"""

from __future__ import annotations

import bisect
import functools
import io
import json
import math
import subprocess
from contextlib import redirect_stderr, redirect_stdout

# ---------------------------------------------------------------- sampling


def strata(rng, count):
    """count points from [0, 1), one uniform in each of count equal strata, shuffled."""
    units = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(units)
    return units


def strata_ints(rng, lo, hi, count):
    """Integers from [lo, hi], one per stratum; distinct when count <= hi - lo + 1."""
    width = hi - lo + 1
    return [lo + min(int(u * width), width - 1) for u in strata(rng, count)]


def primes_between(lo, hi):
    """Primes in [lo, hi] by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\0\0"
    for i in range(2, math.isqrt(hi) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(max(lo, 2), hi + 1) if flags[p]]


def log_uniform_prime(primes, u):
    """The first prime at or above the point u of the way up the log scale."""
    lo, hi = math.log(primes[0]), math.log(primes[-1])
    i = bisect.bisect_left(primes, math.exp(lo + u * (hi - lo)))
    return primes[min(i, len(primes) - 1)]


def fingerprint(coefficients):
    """Compact stand-in for a coefficient sequence, compared in place of it."""
    return hash(tuple(coefficients))


# ------------------------------------------------- integer-sequence oracles


def quadric_coeffs(n):
    """All ones of length 2n - 1, with the t^(n-1) coefficient doubled."""
    out = [1] * (2 * n - 1)
    out[n - 1] = 2
    return out


def hermitian_coeffs(n):
    """Convolution of the all-ones lists of lengths n and n - 1."""
    return [
        min(i, n - 2) - max(0, i - (n - 1)) + 1 for i in range(2 * n - 2)
    ]


def core_coeffs(n):
    """The c with c * (1 + t), plus 2t^(n-1) for odd n, equal to the quadric."""
    rest = quadric_coeffs(n)
    if n % 2 == 1:
        rest[n - 1] -= 2
    out = [rest[0]]
    for r in rest[1:-1]:
        out.append(r - out[-1])
    if out[-1] != rest[-1]:
        raise AssertionError(f"quadric of rank {n} is not divisible by 1 + t")
    return out


def times_one_plus_t(coeffs):
    return [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]


def v2_central_binomial(m):
    """2-adic valuation of binomial(2m, m) by Legendre's formula."""
    total, power = 0, 2
    while power <= 2 * m:
        total += (2 * m) // power - 2 * (m // power)
        power *= 2
    return total


MERSENNE = frozenset(2**r - 1 for r in range(1, 80))


def rost_expected(n, anisotropic):
    parity = 1 if v2_central_binomial(n - 1) == 1 else 0
    return {
        "eta2": parity,
        "dim_vh": 2 * n - 3,
        "power_case": (2 * n - 3) in MERSENNE,
        "verdict": "incompressible" if (anisotropic and parity) else "unknown",
        "point_gcd": 2,
        "residues": (1,) if parity else (0, 1),
    }


def quadric_of_dim(d):
    out = [1] * (d + 1)
    if d % 2 == 0:
        out[d // 2] += 1
    return out


def vishik_expected(m, k):
    """(holds, factor) for Q(k * 2^m) minus the Pfister correction over P^(2^m - 1)."""
    total = quadric_of_dim(k * 2**m - 2)
    if k % 2 == 1:
        shift = (k - 1) * 2 ** (m - 1)
        for i, c in enumerate(quadric_of_dim(2**m - 2)):
            total[shift + i] -= c
    while total and total[-1] == 0:
        total.pop()
    if any(c < 0 for c in total):
        return False, None
    if not total:
        return True, []
    width = 2**m
    rem = list(total)
    quotient = [0] * (len(rem) - width + 1)
    for i in range(len(quotient) - 1, -1, -1):
        q = rem[i + width - 1]
        quotient[i] = q
        for j in range(width):
            rem[i + j] -= q
    if any(rem):
        return False, None
    return all(c >= 0 for c in quotient), quotient


# ------------------------------------------------------ square-class oracles
#
# A value is kept as (sign, primes) with primes listed with multiplicity, so
# its square class is the sign times the primes of odd multiplicity.


def value_of(factored):
    sign, primes = factored
    return sign * math.prod(primes)


def odd_primes_of(factored):
    _, primes = factored
    return {p for p in primes if primes.count(p) % 2 == 1}


def class_of(factored):
    return factored[0] * math.prod(odd_primes_of(factored))


def times(x, y):
    return (x[0] * y[0], x[1] + y[1])


def factor_small(n):
    """(1, primes) for 1 <= n, by trial division; for the small entries only."""
    primes, d = [], 2
    while d * d <= n:
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return (1, tuple(primes))


def form_expected(entries, witt, extension_class):
    """Answers every descent op checks for a form built with a known Witt index."""
    classes = tuple(class_of(e) for e in entries)
    negative = sum(1 for c in classes if c < 0)
    odd = sorted({p for e in entries for p in odd_primes_of(e)} - {2})
    return {
        "classes": classes,
        "witt": witt,
        "places": (None, 2, *odd),
        "hasse_real": -1 if (negative * (negative - 1) // 2) % 2 else 1,
        "a_class": extension_class,
    }


def plan_forms(rng, count, dims):
    """(kind, dim, planes, a_is_minus_one) per op, in fixed kind proportions.

    Per block of 8 ops: 4 split forms, 2 trace forms, 1 dropped, 1 padded.
    The shapes are the same for every seed, and the seed only orders them:
    dimensions sit on an evenly spaced grid, split forms take their planes
    from a golden-ratio sequence, and a = -1 alternates along the grid.
    Trace-like kinds are sized by their hermitian rank r: trace has dim 2r,
    drop 2r - 1 and pad 2r + 2.
    """
    lo, hi = dims
    kinds = [FORM_KINDS[i % len(FORM_KINDS)] for i in range(count)]
    ranks = {
        "split": (lo, hi),
        "trace": (lo // 2, hi // 2),
        "drop": (lo // 2 + 1, hi // 2),
        "pad": (lo // 2 - 1, hi // 2 - 1),
    }
    plan = []
    for kind, (first, last) in ranks.items():
        n = kinds.count(kind)
        for i in range(n):
            size = first + int((i + 0.5) / n * (last - first + 1))
            dim = {"split": size, "trace": 2 * size, "drop": 2 * size - 1, "pad": 2 * size + 2}[kind]
            planes = 1 + int((i * GOLDEN) % 1 * (dim // 2)) if kind == "split" else 0
            plan.append((kind, dim, planes, i % 2 == 0))
    rng.shuffle(plan)
    return plan


GOLDEN = (math.sqrt(5) - 1) / 2
FORM_KINDS = ("split",) * 4 + ("trace", "trace", "drop", "pad")


def entry_draws(kind, dim, planes, a_is_minus_one):
    """(entries drawn, extension values drawn) by build_form for one plan."""
    if kind == "split":
        return dim - planes, 1
    rank = {"trace": dim // 2, "drop": (dim + 1) // 2, "pad": dim // 2 - 1}[kind]
    return rank, 0 if a_is_minus_one else 1


def build_form(plan, rng, draw_entry, draw_a):
    """Entries (factored), Witt index, a, and the two descent answers.

    split: k planes <x, -x> plus dim - 2k entries of one sign.  The real
        place pins the index at k and the planes reach it.  a > 0, so over
        Q(sqrt a) a definite part keeps its signature: the form is
        hyperbolic there only when it is all planes, and it then underlies
        a hermitian form exactly when k is even (det (-1)^k against (-a)^k).
    trace: <b_i, -a b_i> with a < 0 and b_i > 0, the trace form of a
        hermitian space: positive definite, so index 0; it passes both.
    drop: a trace form minus one entry: odd dimension, so it fails both.
    pad: a trace form plus <1, 1>, which passes both exactly when a = -1.
    """
    kind, dim, planes, a_is_minus_one = plan
    if kind == "split":
        sign = rng.choice((1, -1))
        entries = []
        for _ in range(planes):
            x = draw_entry(rng.choice((1, -1)))
            entries += [x, (-x[0], x[1])]
        entries += [draw_entry(sign) for _ in range(dim - 2 * planes)]
        rng.shuffle(entries)
        all_planes = dim == 2 * planes
        return entries, planes, draw_a(1), all_planes, all_planes and planes % 2 == 0
    a = (-1, ()) if a_is_minus_one else draw_a(-1)
    rank, _ = entry_draws(*plan)
    entries = []
    for _ in range(rank):
        b = draw_entry(1)
        entries += [b, times((-a[0], a[1]), b)]
    passes = True
    if kind == "drop":
        entries.pop(rng.randrange(len(entries)))
        passes = False
    elif kind == "pad":
        entries += [(1, ()), (1, ())]
        passes = class_of(a) == -1
    rng.shuffle(entries)
    return entries, 0, a, passes, passes


def descent_check(op, exp, res):
    """Problems with one form op's results against its oracle."""
    out = []
    if res["classes"] != exp["classes"]:
        out.append("square classes differ")
    if res["witt"] != exp["witt"]:
        out.append(f"witt index {res['witt']} != {exp['witt']}")
    if res["places"] != exp["places"]:
        out.append("relevant places differ")
    hasse = res["hasse"]
    if len(hasse) != len(exp["places"]) or any(h not in (1, -1) for h in hasse):
        out.append("hasse invariants are not one sign per place")
    elif hasse[0] != exp["hasse_real"]:
        out.append("hasse invariant at the real place is wrong")
    elif math.prod(hasse) != 1:
        out.append("hasse invariants break Hilbert reciprocity")
    if res["a_class"] != exp["a_class"]:
        out.append("extension class differs")
    for key in exp["descent"]:
        if res[key] != exp["descent"][key]:
            out.append(f"{key} is {res[key]!r}, expected {exp['descent'][key]!r}")
    return out


def run_forms(op, lib, tr, descent):
    """Build the form and compute every invariant an op checks, in spans."""
    values, a_value = op["values"], op["a"]
    with tr.span("quadforms", "from_rationals"):
        q = lib.DiagonalQuadraticForm.from_rationals(values)
    with tr.span("quadforms", "normalize_square_class"):
        a = lib.normalize_square_class(a_value)
    tr.count("quadforms.entries_normalized", len(values) + 1)
    tr.count("quadforms.entry_bits", sum(abs(v).bit_length() for v in values) + abs(a_value).bit_length())
    with tr.span("quadforms", "global_witt_index"):
        witt = lib.global_witt_index(q)
    with tr.span("quadforms", "relevant_places"):
        places = lib.relevant_places(q)
    hasse = []
    for v in places:
        with tr.span("quadforms", "hasse_invariant"):
            hasse.append(lib.hasse_invariant(q, v))
    tr.count("quadforms.places_examined", len(places))
    tr.count("quadforms.symbol_pairs", len(places) * q.dim * (q.dim - 1) // 2)
    res = {
        "classes": tuple(e.value for e in q.entries),
        "witt": witt,
        "places": tuple(v.prime for v in places),
        "hasse": tuple(hasse),
        "a_class": a.value,
    }
    res.update(descent(lib, tr, q, a))
    return res


# ------------------------------------------------------------- rank-sweep


class RankSweep:
    """Every motive and Rost identity at one rank n per op.

    motives does almost all the work, at O(n^2) per rank; poly computes the
    closed forms first, so the motives spans hold motives' own work on warm
    poly caches.  quadforms is not used.
    """

    name = "rank-sweep"
    lo, hi = 2, 1200
    rate = 17.0  # ops/s at the parent commit, sizes a run to --seconds
    block = 1
    limit_s = 10.0

    def ranges(self):
        return {"rank": [self.lo, self.hi], "sampling": "one distinct rank per stratum"}

    def make_ops(self, rng, count):
        return strata_ints(rng, self.lo, self.hi, count)

    def oracle(self, n):
        quad, herm, core = quadric_coeffs(n), hermitian_coeffs(n), core_coeffs(n)
        if sum(core) != (n if n % 2 == 0 else n - 1):
            raise AssertionError(f"core oracle of rank {n} has the wrong value at 1")
        krashen = fingerprint(times_one_plus_t(herm))
        tail = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
        exp = {
            "quadric": fingerprint(quad),
            "hermitian": fingerprint(herm),
            "quadric_realized": fingerprint(quad),
            "quadric_summands": 3 if n % 2 else 2,
            "hermitian_realized": fingerprint(herm),
            "hermitian_summands": 1 + tail,
            "core": fingerprint(core),
            "core_at_1": sum(core),
            "krashen_holds": True,
            "krashen_lhs": krashen,
            "krashen_rhs": krashen,
            "vishik_holds": True,
            "vishik_degenerate": False,
            "vishik_matches_core": True,
            "vishik_core": fingerprint(core),
        }
        exp.update(rost_expected(n, anisotropic=True))
        return exp

    def execute(self, n, lib, tr):
        with tr.span("poly", "poincare_split_quadric"):
            quad = lib.poincare_split_quadric(n).coefficients
        with tr.span("poly", "poincare_split_hermitian"):
            herm = lib.poincare_split_hermitian(n).coefficients
        tr.count("poly.coeffs_out", len(quad) + len(herm))
        with tr.span("motives", "decompose_quadric"):
            qexpr = lib.decompose_quadric(n)
        with tr.span("motives", "realize_split"):
            qreal = lib.realize_split(qexpr).coefficients
        with tr.span("motives", "decompose_hermitian"):
            hexpr = lib.decompose_hermitian(n)
        with tr.span("motives", "realize_split"):
            hreal = lib.realize_split(hexpr).coefficients
        with tr.span("motives", "solve_core"):
            core = lib.solve_core(n).coefficients
        with tr.span("motives", "verify_krashen"):
            krashen = lib.verify_krashen(n)
        with tr.span("motives", "vishik_solve"):
            vishik = lib.vishik_solve(1, n)
        tr.count("motives.ranks_checked", 1)
        tr.count("motives.summands_realized", len(qexpr) + len(hexpr) + n + 1)
        tr.count("motives.identity_failures", (not krashen.holds) + (not vishik.holds))
        with tr.span("rost", "incompressibility_verdict"):
            verdict = lib.incompressibility_verdict(n, True)
        with tr.span("rost", "degree_formula_filter"):
            residues = lib.degree_formula_filter(n)
        tr.count("rost.ranks_swept", 2)
        return {
            "quadric": quad,
            "hermitian": herm,
            "quadric_realized": qreal,
            "quadric_summands": len(qexpr),
            "hermitian_realized": hreal,
            "hermitian_summands": len(hexpr),
            "core": core,
            "core_at_1": sum(core),
            "krashen_holds": krashen.holds,
            "krashen_lhs": krashen.lhs.coefficients,
            "krashen_rhs": krashen.rhs.coefficients,
            "vishik_holds": vishik.holds,
            "vishik_degenerate": vishik.degenerate,
            "vishik_matches_core": vishik.matches_core,
            "vishik_core": vishik.core.coefficients if vishik.core is not None else None,
            "eta2": verdict.eta2_parity,
            "dim_vh": verdict.dim_vh,
            "power_case": verdict.is_power_case,
            "verdict": verdict.verdict,
            "point_gcd": verdict.point_gcd,
            "residues": tuple(sorted(residues)),
        }

    def check(self, n, exp, res):
        out = []
        for key, want in exp.items():
            got = res[key]
            if isinstance(got, tuple) and key not in ("residues",):
                got = fingerprint(got)
            if got != want:
                out.append(f"{key} differs at rank {n}")
        return out


# ------------------------------------------------------------ form workloads


class FormWorkload:
    """Seeded diagonal forms with known answers; subclasses pick the sizes."""

    block = len(FORM_KINDS)
    limit_s = 10.0

    def make_ops(self, rng, count):
        ops = []
        for item in plan_forms(rng, count, self.dims):
            draw_entry, draw_a = self.drawers(rng, item)
            entries, witt, a, hyperbolic, passes = build_form(item, rng, draw_entry, draw_a)
            ops.append({
                "kind": item[0],
                "values": [value_of(e) for e in entries],
                "a": value_of(a),
                "built": (entries, witt, class_of(a), hyperbolic, passes),
            })
        return ops

    def oracle(self, op):
        entries, witt, a_class, hyperbolic, passes = op["built"]
        exp = form_expected(entries, witt, a_class)
        exp["descent"] = self.descent_expected(len(entries), hyperbolic, passes)
        return exp

    def execute(self, op, lib, tr):
        return run_forms(op, lib, tr, self.descent)

    def check(self, op, exp, res):
        return descent_check(op, exp, res)


class FormsBigEntry(FormWorkload):
    """Dim 4..8 forms with entries +-p*q; trial-division factoring dominates.

    Each op runs from_rationals, global_witt_index, hasse_invariant at every
    relevant place and milnor_husemoller_check.  The primes of each form
    are stratified log-uniform quantiles over [1e3, 1e4], so a form's
    factoring cost depends on its shape, not on the seed.  The parent commit's
    trial division makes 1e9-scale semiprimes cost ~47 s each and hangs on
    places near 1e18, so neither is drawn here.
    """

    name = "forms-bigentry"
    dims = (4, 8)
    prime_range = (1_000, 10_000)
    rate = 66.0

    def ranges(self):
        return {"dim": list(self.dims), "prime": list(self.prime_range),
                "entry": "+-p*q, p and q log-uniform", "extension": "+-p or -1",
                "mix": "per 8 ops: 4 split, 2 trace, 1 drop, 1 pad"}

    def drawers(self, rng, item):
        primes = self.primes()
        entries, extensions = entry_draws(*item)
        units = iter(strata(rng, 2 * entries + extensions))

        def prime():
            return log_uniform_prime(primes, next(units))

        return (lambda sign: (sign, (prime(), prime()))), (lambda sign: (sign, (prime(),)))

    @functools.cache
    def primes(self):
        return primes_between(*self.prime_range)

    def descent_expected(self, dim, hyperbolic, passes):
        return {"mh_passes": passes, "mh_dim_ok": dim % 2 == 0}

    def descent(self, lib, tr, q, a):
        with tr.span("quadforms", "milnor_husemoller_check"):
            report = lib.milnor_husemoller_check(q, a)
        return {"mh_passes": report.passes, "mh_dim_ok": report.dim_ok}


class FormsHighDim(FormWorkload):
    """Dim 24..48 forms with entries in +-[1, 1000]; the Hasse products dominate.

    Each op runs from_rationals, global_witt_index, hasse_invariant at every
    relevant place and is_hyperbolic_over_extension.  Factoring is trivial
    here, so a factoring rewrite that is slower on small integers shows.
    """

    name = "forms-highdim"
    dims = (24, 48)
    entry_range = (1, 1000)
    rate = 40.0

    def ranges(self):
        return {"dim": list(self.dims), "entry": list(self.entry_range),
                "extension": "+-[1, 1000], nonsquare",
                "mix": "per 8 ops: 4 split, 2 trace, 1 drop, 1 pad"}

    def drawers(self, rng, item):
        lo, hi = self.entry_range
        entries = iter(strata_ints(rng, lo, hi, entry_draws(*item)[0]))

        def draw_entry(sign):
            return (sign, factor_small(next(entries))[1])

        def draw_a(sign):
            while True:
                value = (sign, factor_small(rng.randint(max(lo, 2), hi))[1])
                if class_of(value) != 1:
                    return value

        return draw_entry, draw_a

    def descent_expected(self, dim, hyperbolic, passes):
        return {"hyperbolic": hyperbolic}

    def descent(self, lib, tr, q, a):
        with tr.span("quadforms", "is_hyperbolic_over_extension"):
            return {"hyperbolic": lib.is_hyperbolic_over_extension(q, a)}


# ------------------------------------------------------------------ cli-mix


class _AnyMessage:
    """Matches any non-empty str: error messages are prose, not part of the contract."""

    def __eq__(self, other):
        return isinstance(other, str) and other != ""

    def __repr__(self):
        return "<any message>"


ANY_MESSAGE = _AnyMessage()

# One block of cli-mix: which command each of its 20 slots runs.  Three
# range sweeps of verify-krashen per block are the heaviest commands, so
# latency_p90_ms falls inside them and not on a boundary between kinds.
CLI_BLOCK = (
    "poincare_human", "poincare_hermitian", "poincare_projective",
    "decompose", "nh", "vishik",
    "krashen_range", "krashen_range", "krashen_range", "eta2_range",
    "eta2", "incompressible_human", "degree_filter",
    "witt", "hasse", "mh_pass", "mh_violated", "essdim",
    "domain_error", "usage_error",
)

SMALL_PRIMES = primes_between(3, 97)


def envelope(command, payload, status="ok"):
    return {"command": command, "status": status, "payload": payload, "version": "1"}


def qdiag(entries):
    return "--qdiag=" + ",".join(str(value_of(e)) for e in entries)


def det_class(entries):
    primes = tuple(p for e in entries for p in e[1])
    return class_of((math.prod(e[0] for e in entries), primes))


def human_poly(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        var = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        body = str(c) if i == 0 else (var if c == 1 else f"{c}{var}")
        parts.append(body if not parts else f"+ {body}")
    return " ".join(parts)


class CliMix:
    """Seeded `python -m hermquad` subprocesses covering every command group.

    The only workload where interpreter start, import, argparse and JSON
    output count: they set latency_p50_ms, while the range sweeps put rost
    and motives work into latency_p90_ms.  Per block of 20 commands, two
    print the human form, one is expected to exit 1 (violated) and two to
    exit 2 (a domain error envelope and a usage error).
    """

    name = "cli-mix"
    block = len(CLI_BLOCK)
    rate = 14.0
    limit_s = 30.0

    def ranges(self):
        return {"poincare_n": [2, 2000], "projective_m": [0, 500], "decompose_n": [2, 400],
                "nh_n": [2, 600], "vishik": "m 1..3, k 1..8", "krashen_range": "2..R, R in [100, 200]",
                "eta2_range": "2..N, N in [1e5, 1e6]", "rank": [2, 10**6],
                "form_entries": [1, 60], "mix": ",".join(CLI_BLOCK)}

    def make_ops(self, rng, count):
        blocks = count // self.block
        pools = {
            "poincare_n": strata_ints(rng, 2, 2000, 2 * blocks),
            "projective_m": strata_ints(rng, 0, 500, blocks),
            "decompose_n": strata_ints(rng, 2, 400, blocks),
            "nh_n": strata_ints(rng, 2, 600, blocks),
            "krashen_hi": strata_ints(rng, 100, 200, 3 * blocks),
            "eta2_hi": strata_ints(rng, 100_000, 1_000_000, blocks),
            "rank": strata_ints(rng, 2, 10**6, 4 * blocks),
        }
        pools = {key: iter(values) for key, values in pools.items()}
        ops = []
        for b in range(blocks):
            block = [self.make_op(kind, b, rng, pools) for kind in CLI_BLOCK]
            rng.shuffle(block)
            ops += block
        return ops

    def small_form(self, rng, kind, dim, a_is_minus_one=False):
        plan = (kind, dim, rng.randint(1, dim // 2) if kind == "split" else 0, a_is_minus_one)

        def draw_a(sign):
            while True:
                value = (sign, factor_small(rng.randint(2, 30))[1])
                if class_of(value) != 1:
                    return value

        return build_form(plan, rng, lambda sign: (sign, factor_small(rng.randint(1, 60))[1]), draw_a)

    def make_op(self, kind, b, rng, pools):
        """argv, expected exit code and what the oracle needs, for one slot."""
        even = b % 2 == 0
        op = {"kind": kind, "exit": 0}
        if kind == "poincare_human":
            op["n"] = next(pools["poincare_n"])
            op["argv"] = ["poincare", "--variety", "quadric", "--n", str(op["n"])]
        elif kind == "poincare_hermitian":
            op["n"] = next(pools["poincare_n"])
            op["argv"] = ["poincare", "--variety", "hermitian", "--n", str(op["n"]), "--json"]
        elif kind == "poincare_projective":
            op["m"], op["pf"] = next(pools["projective_m"]), 1 + even
            op["argv"] = ["poincare", "--variety", "projective", "--m", str(op["m"]),
                          "--point-factor", str(op["pf"]), "--json"]
        elif kind == "decompose":
            op["n"], op["variety"] = next(pools["decompose_n"]), "quadric" if even else "hermitian"
            op["argv"] = ["motive", "decompose", "--variety", op["variety"], "--n", str(op["n"]), "--json"]
        elif kind == "nh":
            op["n"] = next(pools["nh_n"])
            op["argv"] = ["motive", "nh", "--n", str(op["n"]), "--json"]
        elif kind == "vishik":
            op["m"], op["k"] = rng.randint(1, 3), rng.randint(1, 8)
            op["argv"] = ["motive", "vishik", "--m", str(op["m"]), "--k", str(op["k"]), "--json"]
        elif kind == "krashen_range":
            op["hi"] = next(pools["krashen_hi"])
            op["argv"] = ["motive", "verify-krashen", "--range", f"2..{op['hi']}", "--json"]
        elif kind == "eta2_range":
            op["hi"] = next(pools["eta2_hi"])
            op["argv"] = ["rost", "eta2", "--range", f"2..{op['hi']}", "--json"]
        elif kind == "eta2":
            op["n"] = next(pools["rank"])
            op["argv"] = ["rost", "eta2", "--n", str(op["n"]), "--json"]
        elif kind == "incompressible_human":
            op["n"], op["isotropic"] = next(pools["rank"]), rng.random() < 0.5
            op["argv"] = ["rost", "incompressible", "--n", str(op["n"])] + ["--isotropic"] * op["isotropic"]
        elif kind == "degree_filter":
            op["n"] = next(pools["rank"])
            op["argv"] = ["rost", "degree-filter", "--n", str(op["n"]), "--json"]
        elif kind == "witt":
            op["form"] = self.small_form(rng, "split", rng.randint(4, 6))
            cmd = ["witt-index", qdiag(op["form"][0]), "--place", "real"] if even else ["isotropic", qdiag(op["form"][0])]
            op["argv"] = ["form", *cmd, "--json"]
        elif kind == "hasse":
            op["form"] = self.small_form(rng, "split", rng.randint(4, 6))
            used = {p for e in op["form"][0] for p in e[1]}
            op["place"] = "real" if even else str(rng.choice([p for p in SMALL_PRIMES if p not in used]))
            op["argv"] = ["form", "hasse", qdiag(op["form"][0]), "--place", op["place"], "--json"]
        elif kind in ("mh_pass", "mh_violated"):
            trace = kind == "mh_pass"
            op["form"] = self.small_form(rng, "trace" if trace else "drop", 4 if trace else 5, rng.random() < 0.5)
            op["exit"] = 0 if trace else 1
            op["argv"] = ["form", "check-mh", qdiag(op["form"][0]), f"--a={value_of(op['form'][2])}", "--json"]
        elif kind == "essdim":
            op["n"] = next(pools["rank"])
            op["i1"] = rng.randint(1, op["n"])
            op["argv"] = ["essdim", "--n", str(op["n"]), "--i1", str(op["i1"]), "--json"]
        elif kind == "domain_error":
            op["exit"] = 2
            if even:
                dim = rng.choice([d for d in range(5, 200) if d not in {2**r + 2 for r in range(1, 9)}])
                op["argv"] = ["first-witt-special", "--dim-q", str(dim), "--json"]
            else:
                form = self.small_form(rng, "trace", 4)
                op["argv"] = ["form", "check-mh", qdiag(form[0]), f"--a={rng.randint(2, 30) ** 2}", "--json"]
        elif kind == "usage_error":
            op["exit"] = 2
            op["argv"] = ["essdim", "--n", "1", "--i1", "1", "--json"] if even else ["poincare", "--variety", "quadric", "--json"]
        return op

    def oracle(self, op):
        """Expected exit code plus the whole envelope, human text, or usage error."""
        kind = op["kind"]
        exp = {"exit": op["exit"]}
        if kind == "poincare_human":
            n = op["n"]
            lines = ["command: poincare", "status: ok", "variety: quadric", f"n: {n}",
                     f"polynomial: {human_poly(quadric_coeffs(n))}", f"degree: {2 * n - 2}", f"value_at_1: {2 * n}"]
            exp["text"] = "\n".join(lines) + "\n"
        elif kind == "incompressible_human":
            n, iso = op["n"], op["isotropic"]
            r = rost_expected(n, anisotropic=not iso)
            lines = ["command: rost incompressible", "status: ok", f"n: {n}", f"dim_vh: {2 * n - 3}",
                     f"anisotropic: {'false' if iso else 'true'}", f"eta2_parity: {r['eta2']}",
                     f"is_power_case: {'true' if r['power_case'] else 'false'}", "point_gcd: 2",
                     f"verdict: {r['verdict']}"]
            exp["text"] = "\n".join(lines) + "\n"
        elif kind == "usage_error":
            exp["usage"] = True
        else:
            exp["json"] = self.expected_envelope(op)
        return exp

    def expected_envelope(self, op):
        kind = op["kind"]
        if kind == "poincare_hermitian":
            n = op["n"]
            return envelope("poincare", {"variety": "hermitian", "n": n, "polynomial": hermitian_coeffs(n),
                                         "degree": 2 * n - 3, "value_at_1": n * (n - 1)})
        if kind == "poincare_projective":
            m, pf = op["m"], op["pf"]
            return envelope("poincare", {"variety": "projective", "m": m, "point_factor": pf,
                                         "polynomial": [pf] * (m + 1), "degree": m, "value_at_1": pf * (m + 1)})
        if kind == "decompose":
            n, variety = op["n"], op["variety"]
            if variety == "quadric":
                closed = quadric_coeffs(n)
                summands = [{"base": "core", "params": [n], "shift": s} for s in (0, 1)]
                if n % 2:
                    summands.append({"base": "spec_l", "params": [], "shift": n - 1})
            else:
                closed = hermitian_coeffs(n)
                m, count = (n - 1, (n - 2) // 2) if n % 2 == 0 else (n - 2, (n - 1) // 2)
                summands = [{"base": "core", "params": [n], "shift": 0}]
                summands += [{"base": "proj_l", "params": [m], "shift": 2 * i + 1} for i in range(count)]
            return envelope("motive decompose", {"variety": variety, "n": n, "summands": summands,
                                                 "realization": closed, "closed_form": closed, "matches": True})
        if kind == "nh":
            n = op["n"]
            return envelope("motive nh", {"n": n, "core": core_coeffs(n), "degree": 2 * n - 3})
        if kind == "vishik":
            m, k = op["m"], op["k"]
            holds, factor = vishik_expected(m, k)
            matches = factor == core_coeffs(k) if (m == 1 and k >= 2 and factor is not None) else None
            return envelope("motive vishik", {"m": m, "k": k, "core": factor, "holds": holds,
                                              "degenerate": k == 1, "matches_core": matches},
                            "ok" if holds else "violated")
        if kind == "krashen_range":
            hi = op["hi"]
            return envelope("motive verify-krashen", {"range": [2, hi], "checked": hi - 1, "holds": True,
                                                      "first_counterexample": None})
        if kind == "eta2_range":
            hi = op["hi"]
            return envelope("rost eta2", {"range": [2, hi], "checked": hi - 1, "congruence_holds": True,
                                          "first_counterexample": None})
        if kind == "eta2":
            n = op["n"]
            r = rost_expected(n, anisotropic=True)
            return envelope("rost eta2", {"n": n, "eta2_parity": r["eta2"],
                                          "central_binom_valuation": v2_central_binomial(n - 1),
                                          "is_power_case": r["power_case"], "congruence_holds": True})
        if kind == "degree_filter":
            n = op["n"]
            residues = list(rost_expected(n, anisotropic=True)["residues"])
            return envelope("rost degree-filter", {"n": n, "residues": residues, "forced_odd": residues == [1]})
        if kind == "essdim":
            n, i1 = op["n"], op["i1"]
            return envelope("essdim", {"n": n, "i1": i1, "dim_vh": 2 * n - 3, "essential_dimension": 2 * n - 1 - i1})
        if kind in ("witt", "hasse"):
            entries, witt = op["form"][0], op["form"][1]
            exp = form_expected(entries, witt, None)
            classes = list(exp["classes"])
            if kind == "hasse":
                value = exp["hasse_real"] if op["place"] == "real" else 1
                return envelope("form hasse", {"entries": classes, "place": op["place"], "hasse_invariant": value})
            if op["argv"][1] == "witt-index":
                return envelope("form witt-index", {"entries": classes, "place": "real", "witt_index": witt})
            return envelope("form isotropic", {"entries": classes, "isotropic": witt >= 1, "witt_index": witt})
        if kind in ("mh_pass", "mh_violated"):
            entries, _, a, _, passes = op["form"]
            a_class = class_of(a)
            dim = len(entries)
            required = 1 if (dim // 2) % 2 == 0 else -a_class
            det_ok = det_class(entries) == required
            witnesses = [] if passes else [{"place": "global", "clause": "odd_dimension"}]
            if not det_ok:
                witnesses.append({"place": "global", "clause": "determinant_mismatch"})
            payload = {"entries": [class_of(e) for e in entries], "a": a_class, "dim_ok": dim % 2 == 0,
                       "hyperbolic_over_L": passes, "det_ok": det_ok, "passes": passes, "witnesses": witnesses}
            return envelope("form check-mh", payload, "ok" if passes else "violated")
        if kind == "domain_error":
            command, error = (("first-witt-special", "UnsupportedDimension") if op["argv"][0] == "first-witt-special"
                              else ("form check-mh", "InvalidExtension"))
            return envelope(command, {"error": error, "message": ANY_MESSAGE}, "error")
        raise ValueError(f"unknown cli op kind {kind!r}")

    def execute(self, op, lib, tr):
        argv = op["argv"]
        with tr.span("cli", "process"):
            proc = subprocess.run(
                [lib.python, "-m", "hermquad", *argv], cwd=lib.cwd, env=lib.env,
                capture_output=True, timeout=self.limit_s,
            )
        tr.count("cli.invocations", 1)
        tr.count("cli.bytes_out", len(proc.stdout))
        tr.count("cli.exit_mismatches", proc.returncode != op["exit"])
        if tr.enabled:
            self.in_process(op, lib, tr)
        return {"exit": proc.returncode, "out": proc.stdout.decode(), "err": proc.stderr.decode()[:400]}

    def in_process(self, op, lib, tr):
        """The traced run's extra, measurement-only calls for one command.

        cli.main runs in this process with its output captured, so the
        subprocess wall time splits into interpreter spawn and the command
        itself; range sweeps also time their library loop directly.
        """
        with tr.span("cli", "build_parser", extra=True):
            lib.cli.build_parser()
        sink = io.StringIO()
        with tr.span("cli", "main", extra=True):
            with redirect_stdout(sink), redirect_stderr(sink):
                try:
                    lib.cli.main(op["argv"])
                except SystemExit:
                    pass
        if op["kind"] == "krashen_range":
            with tr.span("motives", "verify_krashen", extra=True):
                for n in range(2, op["hi"] + 1):
                    lib.hermquad.verify_krashen(n)
            tr.count("motives.ranks_checked", op["hi"] - 1)
            tr.count("motives.summands_realized", sum(n + 1 for n in range(2, op["hi"] + 1)))
        elif op["kind"] == "eta2_range":
            with tr.span("rost", "congruence_counterexample", extra=True):
                lib.hermquad.congruence_counterexample(2, op["hi"])
            tr.count("rost.ranks_swept", op["hi"] - 1)

    def check(self, op, exp, res):
        out = []
        if res["exit"] != exp["exit"]:
            out.append(f"exit code {res['exit']} != {exp['exit']} for {op['argv']}")
        if "text" in exp and res["out"] != exp["text"]:
            out.append(f"human output differs for {op['argv']}")
        if exp.get("usage") and (res["out"] != "" or "usage: hermquad" not in res["err"]):
            out.append(f"no usage error for {op['argv']}")
        if "json" in exp:
            try:
                got = json.loads(res["out"])
            except ValueError:
                got = None
            if res["out"].count("\n") != 1 or got != exp["json"]:
                out.append(f"envelope differs for {op['argv']}")
        return out


WORKLOADS = {w.name: w for w in (RankSweep(), FormsBigEntry(), FormsHighDim(), CliMix())}
