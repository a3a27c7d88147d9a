"""Lattices in the almost-abelian groups via Pell equations.

A lattice exists iff some exp(t0 A') is conjugate to an integer matrix of
determinant one.  Each 2x2 block diag(e^t, e^{-t}) with e^t + e^{-t} = m an
integer >= 3 is conjugate to the companion matrix [[0,-1],[1,m]] of
x^2 - m x + 1, so everything reduces to producing integers m with
prescribed multiplicative relations between the t_m = log((m+sqrt(m^2-4))/2):

* one shared m (all weights equal after scaling time by t_m);
* m_2..m_n whose t-values admit no {-1,0,1} relation, obtained from minimal
  solutions of x^2 - d_j y^2 = 4 for pairwise coprime square-free d_j, or
  alternatively from integers squeezed between consecutive 2cosh(2^k).

All algebraic claims (Pell identity, determinant, independence) are exact:
the t-values of case I are independent because their units lie in distinct
quadratic fields, which the coprimality of the d_j proves (see
``hypothesis1_certificate``).  Only the conjugacy is verified numerically,
at high precision, and only the cosh route of ``--alt-k`` rests on the
floating subset-sum gap.  mpmath is imported only inside the functions that
compute with it, so importing this module (and the CLI) does not load it.
"""

import itertools
from functools import lru_cache
from math import gcd, isqrt

from . import exact_linalg
from .errors import (
    CertificateFailureError,
    InvalidParameterError,
    InvariantViolationError,
    Record,
    SizeLimitError,
)

DEFAULT_DPS = 40
# floats, so that no mpf is built at import; each is the binary value of
# mpf("1e-6") etc. at mpmath's default 53-bit precision
NUMERIC_TOLERANCE = 1e-6
RESIDUAL_TOLERANCE = 1e-9
TRACE_TOLERANCE = 1e-12
# The limit of subset_sum_gap, which only --alt-k and the tests reach.  Set
# by NUMERIC_TOLERANCE, not time: the default primes give a least gap of
# 3.0e-5 at n = 14 but 3.4e-7 at n = 15, though coprimality proves them
# independent.
MAX_EXHAUSTIVE = 12
# Budget 2 s (2 CPUs, Python 3.11.7).  Placing m_j ~ 2cosh(2^(k_j - 1))
# runs mpmath cosh at 1.5 * 2^k_j bits, and nothing factors m_j -+ 2:
# `lattice --n 3 --alt-k 15,16` takes 0.7 to 1.2 s and the longest list,
# `--n 13 --alt-k 5,...,16`, 1.4 s, while k = 17 alone takes 3.6 s and
# 17,18 took 19 s.  The subset-sum gap takes under 0.02 s of each.
ALT_REMARK_MAX_EXPONENT = 16
# Both cases build the dense (2n-1)^2 companion matrix E and print it: at
# the limit E has 2449 rows, inside the CLI's dense payload limit (2450).
# `lattice --case II --n 1225 --m 3` takes 1.6 to 2.6 s and 194 MB, and
# `lattice --case I --n 1225` (the first 1224 primes) 1.8 to 2.3 s and
# 194 MB (2 CPUs, Python 3.11.7); det E and printing E take most of each.
LATTICE_MAX_N = 1225
# Trial division reaches FACTOR_BOUND in 0.85 to 2.1 s (2 CPUs, Python
# 3.11.7), so a factorization that ended within 1 s without it still ends.
# The Pell expansion passes PELL_MAX_BITS in 0.03 s for d = 10^12 + 39;
# d = 10000141 and 10000813 (5438- and 5702-bit m) take 0.005 s.  For
# d = 1 mod 4 it bounds the convergents of (1 + sqrt d)/2, so an odd m is
# admitted even when its cube, the x^2 - d y^2 = 1 unit, passes the bound.
FACTOR_BOUND = 2 ** 24
PELL_MAX_BITS = 2 ** 14
# A list of moduli is refused before any factoring when its trial division,
# sum min(isqrt(x), FACTOR_BOUND), exceeds that of one modulus at the bound:
# 12 primes below 2^48 took 9.3 s before Pell refused them.
MAX_TRIAL_DIVISION = FACTOR_BOUND
# build_lattice runs every case I block at the precision of the longest m,
# so mpmath's work grows as (n - 1) * digits^2.  The budget admits 12 m at
# PELL_MAX_BITS (4969 digits), as n <= 13 always did: the longest such
# family found, `--n 13` with 12 primes near 10^7, takes 1.2 s.
MAX_PRECISION_WORK = 3 * 10 ** 8


# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------


def _factorize(x: int) -> dict:
    """Prime factorization by trial division below FACTOR_BOUND; x >= 1.

    A cofactor with no prime factor below the bound is prime when it is
    below FACTOR_BOUND^2; a larger one may not be, so SizeLimitError.
    """
    factors = {}
    for p in itertools.chain((2,), range(3, FACTOR_BOUND, 2)):
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    if x >= FACTOR_BOUND ** 2:
        raise SizeLimitError(
            f"a {x.bit_length()}-bit cofactor has no prime factor below "
            f"{FACTOR_BOUND}, where trial division stops"
        )
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def require_trial_division(values) -> None:
    """Refuse, before any factoring, values whose trial division together
    would pass MAX_TRIAL_DIVISION: min(isqrt(c), FACTOR_BOUND) each, c the
    cofactor left by the divisors below 2^10, as ``_factorize`` stops once
    p^2 passes the cofactor."""
    work = 0
    for x in (x for x in values if x > 0):
        for p in range(2, min(1 << 10, isqrt(x) + 1)):
            while x % p == 0:
                x //= p
        work += min(isqrt(x), FACTOR_BOUND)
    if work > MAX_TRIAL_DIVISION:
        raise SizeLimitError(
            f"factoring these values needs {work} trial divisions, more than "
            f"{MAX_TRIAL_DIVISION}"
        )


def is_squarefree(d: int) -> bool:
    return d >= 1 and squarefree_part(d) == d


@lru_cache(maxsize=2 * LATTICE_MAX_N)
def squarefree_part(x: int) -> int:
    """Product of the primes dividing x an odd number of times; cached, as
    one case I d is checked four times on its way to a lattice, and the
    cache holds every d and m -+ 2 of a family at the lattice limit."""
    if x < 1:
        raise InvalidParameterError(f"square-free part needs x >= 1, got {x}")
    part = 1
    for p, e in _factorize(x).items():
        if e % 2:
            part *= p
    return part


def _squarefree_part_m(m: int) -> int:
    # m^2 - 4 = (m-2)(m+2): two smaller factorizations, and for square-free
    # s, t the square-free part of s t is s t / gcd(s, t)^2
    s, t = squarefree_part(m - 2), squarefree_part(m + 2)
    return s * t // gcd(s, t) ** 2


def first_primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in itertools.takewhile(
                lambda p: p * p <= candidate, primes)):
            primes.append(candidate)
        candidate += 1
    return primes


# ---------------------------------------------------------------------------
# Pell equations x^2 - d y^2 = 4
# ---------------------------------------------------------------------------


class PellSolution(Record):
    """A nontrivial positive solution of m^2 - d k^2 = 4."""

    d: int
    m: int
    k: int

    def __init__(self, d, m, k):
        if m * m - d * k * k != 4:
            raise InvalidParameterError(
                f"({m}, {k}) does not solve x^2 - {d} y^2 = 4"
            )
        if m < 3 or k < 1:
            raise InvalidParameterError("the trivial solution (2, 0) is excluded")
        super().__init__(d, m, k)


def pell_min_solution(d: int) -> PellSolution:
    """Minimal nontrivial solution of x^2 - d y^2 = 4 in exact integers.

    One continued-fraction expansion: of w = (1 + sqrt d)/2 when d = 1 mod 4,
    else of w = sqrt d.  A period ends where the denominator q of the
    complete quotient (p + sqrt d)/q returns to its start q0.  There the
    convergent h/k gives the unit h - k w' = (m + y sqrt d)/2 of norm +-1
    (w' the conjugate of w); the first of norm +1 is the minimal solution.
    Only period ends are tested, and PELL_MAX_BITS bounds the convergents.
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if not is_squarefree(d):
        raise InvalidParameterError(f"d = {d} is not square-free")
    root, q0 = isqrt(d), 2 if d % 4 == 1 else 1
    p, q = q0 - 1, q0
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        if h.bit_length() > PELL_MAX_BITS:
            raise SizeLimitError(
                f"the Pell solution for d = {d} has more than {PELL_MAX_BITS} bits"
            )
        a = (p + root) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        p = a * q - p
        q = (d - p * p) // q
        if q == q0:
            m, y = (2 * h - k, k) if q0 == 2 else (2 * h, 2 * k)
            if m * m - d * y * y == 4:
                return PellSolution(d, m, y)


def case1_params(n: int, d_list=None) -> list:
    """Minimal Pell solutions for n-1 pairwise coprime square-free moduli.

    Defaults to the first n-1 primes.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    _require_lattice_size("I", n)  # before any prime or Pell work
    if d_list is None:
        d_list = first_primes(n - 1)
    d_list = [int(d) for d in d_list]
    if len(d_list) != n - 1:
        raise InvalidParameterError(
            f"expected {n - 1} moduli for n={n}, got {len(d_list)}"
        )
    require_trial_division(d_list)
    for d in d_list:
        if d < 2 or not is_squarefree(d):
            raise InvalidParameterError(f"modulus {d} is not square-free or < 2")
    shared = _shared_factor(d_list)
    if shared:
        a, b, g = shared
        raise InvalidParameterError(f"moduli {a} and {b} share the factor {g}")
    solutions = []
    for d in d_list:
        solutions.append(pell_min_solution(d))
        # build_lattice checks every block at the precision of the longest m
        digits = _dps([solutions[-1].m])
        if (n - 1) * digits ** 2 > MAX_PRECISION_WORK:
            raise SizeLimitError(
                f"{n - 1} blocks at {digits} digits exceed the precision "
                f"budget of {MAX_PRECISION_WORK} digits^2"
            )
    return solutions


def _require_lattice_size(case: str, n: int) -> None:
    if n > LATTICE_MAX_N:
        raise SizeLimitError(
            f"case {case} is limited to n <= {LATTICE_MAX_N}, got {n}"
        )


def _shared_factor(values):
    """(a, b, gcd) of the first pair, in combinations order, that shares a
    factor; None when the values are pairwise coprime.  Each value is
    tested against the product of those before it, so a family that passes
    costs one gcd per value.
    """
    product = 1
    for x in values:
        if gcd(x, product) > 1:
            return next((a, b, gcd(a, b)) for a, b in
                        itertools.combinations(values, 2) if gcd(a, b) > 1)
        product *= x
    return None


# ---------------------------------------------------------------------------
# the independence certificate for the t-values
# ---------------------------------------------------------------------------


def _dps(ms) -> int:
    """DEFAULT_DPS, or 20 digits past the longest m if that is more."""
    return max(DEFAULT_DPS, int(max(m.bit_length() for m in ms) * 0.302) + 21)


def t_value(m: int, dps: int = None) -> "mpf":
    """t_m = log((m + sqrt(m^2 - 4)) / 2), so that e^t + e^{-t} = m.

    ``dps`` defaults to ``_dps([m])``, enough to reproduce m from t.
    """
    from mpmath import mp

    if m < 3:
        raise InvalidParameterError(f"t_m needs m >= 3, got {m}")
    with mp.workdps(dps or _dps([m])):
        return mp.log((m + mp.sqrt(m * m - 4)) / 2)


class Hypothesis1Certificate(Record):
    """Proof that no {-1,0,1} relation holds among the t_{m_j}.

    ``d_list`` holds the square-free parts d_j of m_j^2 - 4, and a
    certificate exists only once they are pairwise coprime.  Then u_j =
    (m_j + sqrt(m_j^2 - 4))/2 is a unit of norm 1 in Q(sqrt d_j), each
    d_j > 1 (m_j^2 - 4 is no square for m_j >= 3), and no product of the
    sqrt(d_j) over a nonempty subset is rational.  So the automorphism
    sigma_i of Q(sqrt d_1, ..., sqrt d_k) that negates sqrt(d_i) alone
    exists.  Applied to a relation prod u_j^(a_j) = 1 it gives
    u_i^(-a_i) prod_{j != i} u_j^(a_j) = 1, so u_i^(2 a_i) = 1 and, as
    u_i > 1, a_i = 0: the t_{m_j} are independent over Q.
    """

    m_list: tuple
    d_list: tuple


def require_exhaustive(count: int) -> None:
    if count > MAX_EXHAUSTIVE:
        raise SizeLimitError(
            f"the exhaustive search is limited to {MAX_EXHAUSTIVE} values"
        )


def subset_sum_gap(ms) -> tuple:
    """(min |sum eps_j t_{m_j}| over nonzero eps in {-1,0,1}^k, its verdict).

    Each such eps is 1_A - 1_B for subsets A != B, so the minimum is the
    least gap between adjacent sorted subset sums, found at DEFAULT_DPS
    (None for k = 0); the verdict is whether it exceeds NUMERIC_TOLERANCE.
    No m_j is factored.  The verdict of ``lattice --alt-k``, and the tests'
    oracle for ``hypothesis1_certificate``.
    """
    from mpmath import mp

    require_exhaustive(len(ms))
    with mp.workdps(DEFAULT_DPS):
        sums = [0]
        for t in (t_value(m, DEFAULT_DPS) for m in ms):
            sums += [s + t for s in sums]
        sums.sort()
        gap = min((b - a for a, b in zip(sums, sums[1:])), default=None)
        return gap, gap is not None and gap > NUMERIC_TOLERANCE


def hypothesis1_certificate(m_list) -> Hypothesis1Certificate:
    """Certify independence of the t_{m_j}; see Hypothesis1Certificate.

    ``m_list`` may also hold PellSolutions, whose d alone is factored; for
    a bare m, m - 2 and m + 2 are, within MAX_TRIAL_DIVISION.  Square-free
    parts that share a prime raise CertificateFailureError.
    """
    if not m_list:
        raise InvalidParameterError("a certificate needs at least one value")
    pell = [isinstance(s, PellSolution) for s in m_list]
    ms = [s.m if p else int(s) for s, p in zip(m_list, pell)]
    require_trial_division(itertools.chain.from_iterable(
        (s.d,) if p else (m - 2, m + 2) for s, m, p in zip(m_list, ms, pell)
    ))
    d_list = [squarefree_part(s.d) if p else _squarefree_part_m(m)
              for s, m, p in zip(m_list, ms, pell)]
    shared = _shared_factor(d_list)
    if shared:
        prime = min(_factorize(shared[2]))
        raise CertificateFailureError(
            f"square-free parts {d_list} share the prime {prime}", prime=prime
        )
    return Hypothesis1Certificate(tuple(ms), tuple(d_list))


# ---------------------------------------------------------------------------
# lattice assembly
# ---------------------------------------------------------------------------


class LatticeSpec(Record):
    """A certified lattice package for R x|_phi R^{2n-1}."""

    case: str
    n: int
    d_list: tuple
    m_list: tuple
    t_values: tuple
    t0: object
    E: tuple
    residual: object
    trace_residual: object
    certificate: Hypothesis1Certificate = None

    def to_json_dict(self) -> dict:
        from mpmath import mp

        d = 2 * self.n - 1
        return {
            "case": self.case,
            "n": self.n,
            "d_list": list(self.d_list),
            "m_list": [str(m) for m in self.m_list],
            "t_values": [mp.nstr(t, 30) for t in self.t_values],
            "t0": mp.nstr(self.t0, 30),
            "E": [list(row) for row in self.E],
            "residual": mp.nstr(self.residual, 10),
            "trace_residual": mp.nstr(self.trace_residual, 10),
            # a certificate exists only once proven; case II has none
            "hypothesis1_certified": True if self.certificate else None,
            # documented metadata only; the group law is not executed here
            "group_presentation": (
                f"Z |x_E Z^{d} with (a,p)*(b,q) = (a+b, p + E^a q)"
            ),
        }


def companion_matrix_sl(m_list, size: int) -> list:
    """[1] (+) companion blocks [[0,-1],[1,m_j]]; lies in SL(size, Z)."""
    e = [[0] * size for _ in range(size)]
    e[0][0] = 1
    for j, m in enumerate(m_list):
        o = 1 + 2 * j
        e[o][o], e[o][o + 1] = 0, -1
        e[o + 1][o], e[o + 1][o + 1] = 1, m
    return e


def build_lattice(case: str, n: int, params) -> LatticeSpec:
    """Assemble a lattice package; ``lattice_failures`` certifies it.

    Case II takes a single integer m >= 3 (time parameter t0 = t_m, unit
    weights); case I takes the n-1 Pell solutions from case1_params
    (t0 = 1, weights t_{m_j}).
    """
    from mpmath import mp, mpf

    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    case = str(case).upper()
    certificate = None
    if case == "II":
        m = int(params)
        if m < 3:
            raise InvalidParameterError(f"case II needs m >= 3, got {m}")
        _require_lattice_size(case, n)
        require_trial_division((m - 2, m + 2))
        m_list = [m] * (n - 1)
        d_list = [_squarefree_part_m(m)]
        t0 = t_value(m)
        t_list = [t0] * (n - 1)
    elif case == "I":
        _require_lattice_size(case, n)
        solutions = list(params)
        if len(solutions) != n - 1 or not all(
            isinstance(s, PellSolution) for s in solutions
        ):
            raise InvalidParameterError(
                f"case I needs {n - 1} Pell solutions (see case1_params)"
            )
        certificate = hypothesis1_certificate(solutions)
        m_list, d_list = certificate.m_list, certificate.d_list
        t0 = mpf(1)
        t_list = [t_value(m) for m in m_list]
    else:
        raise InvalidParameterError(f"unknown case {case!r}; use 'I' or 'II'")

    with mp.workdps(_dps(m_list)):
        residual = trace_residual = mpf(0)
        for m, t in dict(zip(m_list, t_list)).items():
            lam_plus, lam_minus = mp.exp(t), mp.exp(-t)
            trace_residual = max(trace_residual, abs(lam_plus + lam_minus - m))
            # eigenvectors (1, -lambda) of the companion block
            v = [[mpf(1), mpf(1)], [-lam_plus, -lam_minus]]
            det_v = v[0][0] * v[1][1] - v[0][1] * v[1][0]
            v_inv = [
                [v[1][1] / det_v, -v[0][1] / det_v],
                [-v[1][0] / det_v, v[0][0] / det_v],
            ]
            # conjugacy residual: V diag(lam) V^{-1} - [[0,-1],[1,m]], whose
            # integers this precision holds exactly
            diag = [[lam_plus, mpf(0)], [mpf(0), lam_minus]]
            prod = _mat2(v, _mat2(diag, v_inv))
            block = ((0, -1), (1, m))
            for a, b in itertools.product(range(2), repeat=2):
                residual = max(residual, abs(prod[a][b] - block[a][b]))

    e = tuple(map(tuple, companion_matrix_sl(m_list, 2 * n - 1)))
    return LatticeSpec(case, n, tuple(d_list), tuple(m_list), tuple(t_list), t0, e,
                       residual, trace_residual, certificate)


def lattice_failures(package: LatticeSpec) -> list:
    """Reasons a lattice package fails certification; empty when it passes.

    det E must be exactly 1, the conjugacy residual below 1e-9, the trace
    residual |e^t + e^-t - m| below 1e-12.  Case I's independence needs no
    check here: build_lattice raises unless it is certified.
    """
    failures = []
    if exact_linalg.det_sparse(package.E) != 1:
        failures.append("det E != 1")
    if not package.residual < RESIDUAL_TOLERANCE:
        failures.append("conjugacy residual too large")
    if not package.trace_residual < TRACE_TOLERANCE:
        failures.append("trace identity violated")
    return failures


def _mat2(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def alt_remark_params(n: int, k_list) -> list:
    """Smallest integers m_j with 2cosh(2^{k_j - 1}) <= m_j < 2cosh(2^{k_j}).

    The t_{m_j} then have binary magnitudes 2^{k_j - 1} < t < 2^{k_j}, which
    makes them independent without any coprimality condition.
    """
    from mpmath import mp, mpf

    k_list = [int(k) for k in k_list]
    if len(k_list) != n - 1:
        raise InvalidParameterError(
            f"expected {n - 1} exponents for n={n}, got {len(k_list)}"
        )
    if any(k < 1 for k in k_list):
        raise InvalidParameterError("exponents must be >= 1")
    if any(a >= b for a, b in zip(k_list, k_list[1:])):
        raise InvalidParameterError("exponents must be strictly increasing")
    if k_list[-1] > ALT_REMARK_MAX_EXPONENT:
        raise SizeLimitError(
            f"exponents above {ALT_REMARK_MAX_EXPONENT} exceed the size guard"
        )
    require_exhaustive(len(k_list))  # before any cosh: the gap takes them all
    out = []
    for k in k_list:
        # enough bits to place an integer next to 2cosh(2^(k-1)) ~ e^(2^(k-1))
        bits = int(2 ** k * 1.5) + 64
        with mp.workprec(bits):
            lo = 2 * mp.cosh(mpf(2) ** (k - 1))
            hi = 2 * mp.cosh(mpf(2) ** k)
            m = int(mp.ceil(lo))
            if not (lo <= m < hi):
                raise InvariantViolationError("empty cosh interval")  # unreachable
        out.append(m)
    return out
