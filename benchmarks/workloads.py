"""The five benchmark workloads and their seeded inputs.

A workload is a list of jobs.  A job is a JSON-ready dict: either a CLI
call (``kind: cli`` with ``argv``) or the library call
``hard_lefschetz_report`` on a user form (``kind: hl_report``).  Each job
names the checks its result must pass:

* ``sha256``: stdout is byte-identical to the output pinned below;
* ``status``: the JSON report says ``status: ok``;
* ``pell``: each reported Pell pair solves m^2 - d k^2 = 4 for the drawn d;
* ``hodge``: every operator-suite check reports ``passed: true``;
* ``hl_nonzero``: every hard-Lefschetz determinant is nonzero.

A CLI job must also exit 0.  The seed drives every random input; the jobs
themselves are the record from which a run can be replayed.
"""

import random
from fractions import Fraction
from itertools import product

FIRST_25_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# sha256 of stdout for every fixed-argument CLI job, taken at the commit
# that introduced this benchmark.  A mismatch means the output changed.
PINNED_STDOUT = {
    "lefschetz --n 7 --mode ones --hl":
        "895baeb4d9933fc9177955d4901a3ed37cdf9891cd4cff0594bcf215ac961639",
    "--format text lefschetz --n 7 --mode ones --m 7 --emit-matrix "
    "--check-kneser":
        "5818ba47c399bd631be79fae350eadaf4f52610fa6db70dab685ced2f2795d81",
    "lefschetz --n 7 --mode ones --m 6 --emit-matrix --check-kneser":
        "c7c3ee817100d6b8836f925fc2171fda2e579ed7ce262dec054834316165f0b9",
    "hodge --n 4 --mode ones":
        "9fad279c2a1cc341a12874587151a1d5efb8e93a9363285c117c8e5a8925fc64",
    "lattice --n 5 --alt-k 1,2,3,4":
        "643f3646cff062c535b266f68615e392a4885af12d34d3262a5130cca6f6c46b",
    "verify-all --max-n 6":
        "36c3bf4f2fb488f0b866796967cd4b1e64b15a41cec51489f8c510c0c1d86d0b",
}

USER_FORM_N = 6
USER_FORM_THETAS = 3
HODGE_N = 4
LATTICE_N = 12


def _fixed(command: str) -> dict:
    return {
        "kind": "cli",
        "argv": command.split(),
        "sha256": PINNED_STDOUT[command],
    }


def _rational(rng) -> str:
    return str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)))


def build_user_form(spec, terms):
    """The 2-form sum of coefficient * (delta | gamma_i | theta_{i|j})."""
    from aacohom.ce_complex import delta_form, gamma_form, theta_form
    from aacohom.exterior_algebra import Form

    form = Form.zero(spec.two_n)
    for kind, *indices, coeff in terms:
        if kind == "delta":
            base = delta_form(spec)
        elif kind == "gamma":
            base = gamma_form(spec, *indices)
        else:
            base = theta_form(spec, *indices)
        form = form + base * Fraction(coeff)
    return form


def draw_user_form(rng, n: int = USER_FORM_N) -> list:
    """Nonzero rational coefficients on delta, the gamma_i and a few thetas.

    Redrawn until ``SymplecticForm.validated`` accepts the form (closed and
    nondegenerate).
    """
    from aacohom.ce_complex import AlgebraSpec
    from aacohom.errors import InvalidSymplecticFormError
    from aacohom.lefschetz import SymplecticForm

    spec = AlgebraSpec.ones(n)
    pairs = [(i, j) for i in range(2, n + 1) for j in range(2, n + 1) if i != j]
    while True:
        terms = [["delta", _rational(rng)]]
        terms += [["gamma", i, _rational(rng)] for i in range(2, n + 1)]
        terms += [
            ["theta", i, j, _rational(rng)]
            for i, j in rng.sample(pairs, USER_FORM_THETAS)
        ]
        try:
            SymplecticForm.validated(spec, build_user_form(spec, terms))
        except InvalidSymplecticFormError:
            continue
        return terms


def draw_hodge_weights(rng, count: int = HODGE_N - 1) -> list:
    """Positive rationals with no nonzero {-1,0,1} relation among them.

    A relation can break hard Lefschetz, and the harmonic solve would then
    rightly exit 1, so such draws are discarded.
    """
    while True:
        b = [Fraction(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(count)]
        if all(
            sum(e * v for e, v in zip(eps, b))
            for eps in product((-1, 0, 1), repeat=count)
            if any(eps)
        ):
            return [str(v) for v in b]


def draw_moduli(rng, count: int = LATTICE_N - 1) -> list:
    """Distinct primes among the first 25: pairwise coprime and square-free."""
    return sorted(rng.sample(FIRST_25_PRIMES, count))


def jobs_for(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hl-ones":
        return [
            _fixed("lefschetz --n 7 --mode ones --hl"),
            {
                "kind": "hl_report",
                "n": USER_FORM_N,
                "form": draw_user_form(rng),
                "hl_nonzero": True,
            },
        ]
    if workload == "emit-ones":
        return [
            _fixed(
                "--format text lefschetz --n 7 --mode ones --m 7 "
                "--emit-matrix --check-kneser"
            ),
            _fixed("lefschetz --n 7 --mode ones --m 6 --emit-matrix --check-kneser"),
        ]
    if workload == "hodge":
        weights = ",".join(draw_hodge_weights(rng))
        return [
            _fixed("hodge --n 4 --mode ones"),
            {
                "kind": "cli",
                "argv": ["hodge", "--n", str(HODGE_N), "--mode", "explicit",
                         "--b", weights],
                "status": True,
                "hodge": True,
            },
        ]
    if workload == "lattice":
        moduli = draw_moduli(rng)
        return [
            {
                "kind": "cli",
                "argv": ["lattice", "--case", "I", "--n", str(LATTICE_N),
                         "--d", ",".join(map(str, moduli))],
                "status": True,
                "pell": moduli,
            },
            _fixed("lattice --n 5 --alt-k 1,2,3,4"),
        ]
    if workload == "verify-all":
        return [_fixed("verify-all --max-n 6")]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("hl-ones", "emit-ones", "hodge", "lattice", "verify-all")


def job_label(job: dict) -> str:
    if job["kind"] == "cli":
        return " ".join(job["argv"])
    return f"hard_lefschetz_report(ones({job['n']}), user form)"
