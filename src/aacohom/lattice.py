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

All algebraic claims (Pell identity, determinant, coprimality) are exact;
the conjugacy itself is verified numerically at high precision.
"""

import itertools
from dataclasses import dataclass
from math import gcd, isqrt

from mpmath import mp, mpf

from . import exact_linalg
from .errors import (
    CertificateFailureError,
    InvalidParameterError,
    InvariantViolationError,
    SizeLimitError,
)

DEFAULT_DPS = 40
NUMERIC_TOLERANCE = mpf("1e-6")
RESIDUAL_TOLERANCE = mpf("1e-9")
TRACE_TOLERANCE = mpf("1e-12")
# Set by NUMERIC_TOLERANCE, not time: the default primes give a least gap of
# 3.0e-5 at n = 14 but 3.4e-7 at n = 15, which fails though coprimality holds.
MAX_EXHAUSTIVE = 12
# m_j ~ 2cosh(2^(k_j - 1)), and the structural tier trial-divides m_j -+ 2:
# `lattice --n 3 --alt-k 5,6` (m ~ e^32) takes under a second, while
# `--alt-k 6,7` (m ~ e^64) had not finished after 20 s.
ALT_REMARK_MAX_EXPONENT = 6
# Case II builds the dense (2n-1)^2 companion matrix E and prints it: at the
# limit E has 2449 rows, inside the CLI's dense payload limit (2450), and
# `lattice --case II --n 1225 --m 3` takes 2.7 s and 262 MB (2 CPUs).
CASE2_MAX_N = 1225
PELL_ITERATION_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------


def _factorize(x: int) -> dict:
    """Prime factorization by trial division; x >= 1."""
    factors = {}
    for p in itertools.chain((2,), range(3, isqrt(x) + 1, 2)):
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    return all(e == 1 for e in _factorize(d).values())


def squarefree_part(x: int) -> int:
    """Product of the primes dividing x an odd number of times."""
    if x < 1:
        raise InvalidParameterError(f"square-free part needs x >= 1, got {x}")
    part = 1
    for p, e in _factorize(x).items():
        if e % 2:
            part *= p
    return part


def _squarefree_part_m(m: int) -> int:
    # m^2 - 4 = (m-2)(m+2): factoring the two halves keeps trial division cheap
    factors = _factorize(m - 2) if m > 2 else {}
    for p, e in _factorize(m + 2).items():
        factors[p] = factors.get(p, 0) + e
    part = 1
    for p, e in factors.items():
        if e % 2:
            part *= p
    return part


def _icbrt(x: int) -> int:
    """Floor integer cube root."""
    if x < 0:
        raise ValueError("negative input")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + x // (r * r)) // 3
        if nr >= r:
            return r
        r = nr


def first_primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


# ---------------------------------------------------------------------------
# Pell equations x^2 - d y^2 = 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PellSolution:
    """A nontrivial positive solution of m^2 - d k^2 = 4."""

    d: int
    m: int
    k: int

    def __post_init__(self):
        if self.m * self.m - self.d * self.k * self.k != 4:
            raise InvalidParameterError(
                f"({self.m}, {self.k}) does not solve x^2 - {self.d} y^2 = 4"
            )
        if self.m < 3 or self.k < 1:
            raise InvalidParameterError("the trivial solution (2, 0) is excluded")


def _pell_unit(d: int):
    """Fundamental solution of x^2 - d y^2 = 1 via the sqrt(d) expansion."""
    a0 = isqrt(d)
    p, q, a = 0, 1, a0
    h_prev, k_prev = 1, 0
    h, k = a0, 1
    for _ in range(PELL_ITERATION_CAP):
        if h * h - d * k * k == 1:
            return h, k
        p = a * q - p
        q = (d - p * p) // q
        a = (a0 + p) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    raise InvariantViolationError(f"no Pell unit found for d={d}")


def pell_min_solution(d: int) -> PellSolution:
    """Minimal nontrivial solution of x^2 - d y^2 = 4 in exact integers.

    Every solution has x, y both even or both odd; the even ones are doubled
    solutions of the unit equation, and odd ones exist only for d = 5 mod 8,
    where the minimal odd solution (a, b) is pinned down by the exact cubic
    relation b (d b^2 + 3) / 2 = y1 against the unit solution (x1, y1).
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    if not is_squarefree(d):
        raise InvalidParameterError(f"d = {d} is not square-free")
    x1, y1 = _pell_unit(d)
    best = (2 * x1, 2 * y1)
    if d % 8 == 5:
        target = 2 * y1
        guess = _icbrt(target // d)
        for b in range(max(1, guess - 2), guess + 3):
            if b * (d * b * b + 3) == target:
                a2 = d * b * b + 4
                a = isqrt(a2)
                if a * a == a2:
                    best = (a, b)
                break
    return PellSolution(d, best[0], best[1])


def assert_minimal(sol: PellSolution, cap: int = 10 ** 6) -> None:
    """Exhaustively confirm no smaller positive solution exists (k below cap)."""
    bound = min(sol.k, cap)
    for y in range(1, bound):
        a2 = sol.d * y * y + 4
        a = isqrt(a2)
        if a * a == a2:
            raise InvariantViolationError(
                f"smaller Pell solution ({a}, {y}) exists for d={sol.d}"
            )


def case1_params(n: int, d_list=None) -> list:
    """Minimal Pell solutions for n-1 pairwise coprime square-free moduli.

    Defaults to the first n-1 primes.
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if d_list is None:
        d_list = first_primes(n - 1)
    d_list = [int(d) for d in d_list]
    if len(d_list) != n - 1:
        raise InvalidParameterError(
            f"expected {n - 1} moduli for n={n}, got {len(d_list)}"
        )
    for d in d_list:
        if d < 2 or not is_squarefree(d):
            raise InvalidParameterError(f"modulus {d} is not square-free or < 2")
    for i in range(len(d_list)):
        for j in range(i + 1, len(d_list)):
            g = gcd(d_list[i], d_list[j])
            if g > 1:
                raise InvalidParameterError(
                    f"moduli {d_list[i]} and {d_list[j]} share the factor {g}"
                )
    return [pell_min_solution(d) for d in d_list]


# ---------------------------------------------------------------------------
# the independence certificate for the t-values
# ---------------------------------------------------------------------------


def t_value(m: int) -> mpf:
    """t_m = log((m + sqrt(m^2 - 4)) / 2), so that e^t + e^{-t} = m."""
    if m < 3:
        raise InvalidParameterError(f"t_m needs m >= 3, got {m}")
    with mp.workdps(DEFAULT_DPS):
        return mp.log((m + mp.sqrt(m * m - 4)) / 2)


@dataclass(frozen=True)
class Hypothesis1Certificate:
    """Two-tier independence certificate for a family of t-values.

    structural tier: the square-free parts d_j of m_j^2 - 4 are pairwise
    coprime, which makes the radicals sqrt(d_j) independent and hence
    forbids any {-1,0,1} relation among the t_{m_j}.

    numeric tier: min |sum eps_j t_{m_j}| over nonzero eps in {-1,0,1}^(n-1)
    at high precision.  Each such eps is 1_A - 1_B for subsets A != B, so
    this is the least gap between adjacent sorted subset sums.
    """

    m_list: tuple
    d_list: tuple
    structural_ok: bool
    offending_prime: int
    numeric_min: object
    numeric_ok: bool

    @property
    def certified(self) -> bool:
        return self.structural_ok and self.numeric_ok


def hypothesis1_certificate(
    m_list, require_structural: bool = True
) -> Hypothesis1Certificate:
    """Certify independence of the t_{m_j}; see Hypothesis1Certificate.

    ``m_list`` may also be a list of PellSolution.  With
    ``require_structural`` a shared prime raises CertificateFailureError.
    """
    ms = [s.m if isinstance(s, PellSolution) else int(s) for s in m_list]
    if len(ms) > MAX_EXHAUSTIVE:
        raise SizeLimitError(
            f"the exhaustive search is limited to {MAX_EXHAUSTIVE} values"
        )
    d_list = [_squarefree_part_m(m) for m in ms]
    structural_ok = True
    offending = None
    for i in range(len(d_list)):
        for j in range(i + 1, len(d_list)):
            g = gcd(d_list[i], d_list[j])
            if g > 1:
                structural_ok = False
                offending = min(_factorize(g))
                break
        if not structural_ok:
            break
    if not structural_ok and require_structural:
        raise CertificateFailureError(
            f"square-free parts {d_list} share the prime {offending}",
            prime=offending,
        )
    with mp.workdps(DEFAULT_DPS):
        sums = [0]
        for t in map(t_value, ms):
            sums += [s + t for s in sums]
        sums.sort()
        numeric_min = min((b - a for a, b in zip(sums, sums[1:])), default=None)
        numeric_ok = numeric_min is not None and numeric_min > NUMERIC_TOLERANCE
    return Hypothesis1Certificate(
        tuple(ms), tuple(d_list), structural_ok, offending, numeric_min, numeric_ok
    )


# ---------------------------------------------------------------------------
# lattice assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSpec:
    """A certified lattice package for R x|_phi R^{2n-1}."""

    case: str
    n: int
    d_list: tuple
    m_list: tuple
    t_values: tuple
    t0: object
    E: tuple
    P: tuple
    residual: object
    trace_residual: object
    certificate: Hypothesis1Certificate = None

    def to_json_dict(self) -> dict:
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
            "hypothesis1_certified": (
                self.certificate.certified if self.certificate else None
            ),
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
    """Assemble and numerically verify a lattice package.

    Case II takes a single integer m >= 3 (time parameter t0 = t_m, unit
    weights); case I takes the n-1 Pell solutions from case1_params
    (t0 = 1, weights t_{m_j}).
    """
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    case = str(case).upper()
    certificate = None
    if case == "II":
        m = int(params)
        if m < 3:
            raise InvalidParameterError(f"case II needs m >= 3, got {m}")
        if n > CASE2_MAX_N:
            raise SizeLimitError(
                f"case II is limited to n <= {CASE2_MAX_N}, got {n}"
            )
        m_list = [m] * (n - 1)
        d_list = [_squarefree_part_m(m)]
        t0 = t_value(m)
        t_list = [t0] * (n - 1)
    elif case == "I":
        solutions = list(params)
        if len(solutions) != n - 1 or not all(
            isinstance(s, PellSolution) for s in solutions
        ):
            raise InvalidParameterError(
                f"case I needs {n - 1} Pell solutions (see case1_params)"
            )
        m_list = [s.m for s in solutions]
        d_list = [s.d for s in solutions]
        for s in solutions:
            if _squarefree_part_m(s.m) != s.d:
                raise InvariantViolationError(
                    f"square-free part of {s.m}^2-4 is not {s.d}"
                )
        certificate = hypothesis1_certificate(solutions)
        with mp.workdps(DEFAULT_DPS):
            t0 = mpf(1)
        t_list = [t_value(s.m) for s in solutions]
    else:
        raise InvalidParameterError(f"unknown case {case!r}; use 'I' or 'II'")

    size = 2 * n - 1
    e_matrix = companion_matrix_sl(m_list, size)
    det = exact_linalg.det_sparse(e_matrix)
    if det != 1:
        raise InvariantViolationError(f"det E = {det} != 1")

    with mp.workdps(DEFAULT_DPS):
        # weights of A' = diag(0, w_2, -w_2, ..., w_n, -w_n)
        weights = (
            t_list if case == "I" else [mpf(1)] * (n - 1)
        )
        p_full = [[mpf(0)] * size for _ in range(size)]
        p_full[0][0] = mpf(1)
        residual = mpf(0)
        trace_residual = mpf(0)
        for j, m in enumerate(m_list):
            lam_plus = mp.exp(t0 * weights[j])
            lam_minus = mp.exp(-t0 * weights[j])
            trace_residual = max(trace_residual, abs(lam_plus + lam_minus - m))
            # eigenvectors (1, -lambda) of the companion block
            v = [[mpf(1), mpf(1)], [-lam_plus, -lam_minus]]
            det_v = v[0][0] * v[1][1] - v[0][1] * v[1][0]
            v_inv = [
                [v[1][1] / det_v, -v[0][1] / det_v],
                [-v[1][0] / det_v, v[0][0] / det_v],
            ]
            o = 1 + 2 * j
            for a in range(2):
                for b in range(2):
                    p_full[o + a][o + b] = v_inv[a][b]
            # conjugacy residual: V diag(lam) V^{-1} - companion, blockwise
            diag = [[lam_plus, mpf(0)], [mpf(0), lam_minus]]
            prod = _mat2(v, _mat2(diag, v_inv))
            comp = [[mpf(0), mpf(-1)], [mpf(1), mpf(m)]]
            for a in range(2):
                for b in range(2):
                    residual = max(residual, abs(prod[a][b] - comp[a][b]))

    return LatticeSpec(
        case,
        n,
        tuple(d_list),
        tuple(m_list),
        tuple(t_list),
        t0,
        tuple(tuple(row) for row in e_matrix),
        tuple(tuple(row) for row in p_full),
        residual,
        trace_residual,
        certificate,
    )


def lattice_failures(package: LatticeSpec) -> list:
    """Reasons a lattice package fails certification; empty when it passes.

    det E must be exactly 1, the conjugacy residual below 1e-9, the trace
    residual |e^t + e^-t - m| below 1e-12 and the independence certificate,
    when there is one, certified.
    """
    failures = []
    if exact_linalg.det_sparse(package.E) != 1:
        failures.append("det E != 1")
    if not package.residual < RESIDUAL_TOLERANCE:
        failures.append("conjugacy residual too large")
    if not package.trace_residual < TRACE_TOLERANCE:
        failures.append("trace identity violated")
    if package.certificate is not None and not package.certificate.certified:
        failures.append("hypothesis certificate failed")
    return failures


def _mat2(a, b):
    return [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]


def alt_remark_params(n: int, k_list) -> list:
    """Smallest integers m_j with 2cosh(2^{k_j - 1}) <= m_j < 2cosh(2^{k_j}).

    The t_{m_j} then have binary magnitudes 2^{k_j - 1} < t < 2^{k_j}, which
    makes them independent without any coprimality condition.
    """
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
