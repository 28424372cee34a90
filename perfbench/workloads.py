"""Seeded job lists for the four workloads, each job with its known answer.

A job is one verdict. Every expected verdict comes from outside homforge:
published theorems about the bundled algebras, textbook facts, or an
independent enumeration (``tests/oracles.py``). homforge's own output is
never used as a reference answer. The envelope command always reports
"pass"; only its alpha-zero job has known dimensions, and the other envelope
jobs carry a consistency check (see envelope_check) and the determinism check.

The seed changes which inputs are used (where the fd-verify, envelope and
antipode-fresh job cycles start, the order of the antipode-shared monomials,
which words antipode-fresh draws), never how much work one pass is:
antipode-fresh draws each word from a fixed cost class, so passes of
different seeds build components of the same sizes.
"""

from __future__ import annotations

import importlib.util
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

EXIT_OF = {"pass": 0, "fail": 1, "inconclusive": 3}

# Sources of the expected verdicts.
MAIN_THEOREM = "Yau twist of a class-C algebra satisfies Hom-C (Main Theorem)"
INVERTIBLE_TWIST = "an invertible Yau twist keeps a nonzero classical defect nonzero"
ZERO_PRODUCT = "the zero product satisfies every identity"
NOT_ASSOC = "textbook: the algebra is not associative"
NOT_ANTICOMM = "textbook: the algebra is not anticommutative"
YIII_SABININ = "YIII_hom lands in Hom-Sabinin algebras (criterion 10)"
PRINTED_SABININ = "the printed Lie/Malcev constructions are Hom-Sabinin (criterion 10)"
ANTIPODE = "every monomial satisfies the antipode identity"


@dataclass
class Job:
    """One verdict: a CLI argv (run with --json) or a library call."""

    label: str
    expected: str  # "pass" | "fail"
    reason: str
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None  # returns an object with .status and .to_json()
    check: Optional[Callable[[dict], Optional[str]]] = None  # extra known-answer check
    may_be_inconclusive: bool = False


@dataclass
class Workload:
    name: str
    jobs: List[Job]
    new_pass: Callable[[], None] = field(default=lambda: None)  # per-pass shared state


# ---------------------------------------------------------------------------
# fd-verify


def _check(alg: str, ident: str, expected: str, reason: str, twist: bool) -> Job:
    argv = ["check", "--algebra", alg, "--identity", ident]
    if twist:
        argv[3:3] = ["--twist", "bundled"]
    return Job(" ".join(argv), expected, reason, argv=argv)


# The checks on 3-dimensional algebras (5 to 50 ms) and the cutoff-2 Sabinin
# jobs on heis3, k3prod and abelian3 (60 to 80 ms) hold the median and the
# tail job of a pass. The host's speed swings by a fifth within a second, so
# each of them runs this many times a pass, which gives those two statistics
# more samples. Runs of equal-cost copies also keep the tail job (the 11th
# slowest) off the edge between two costs.
SHORT_REPEATS = 3


def fd_verify_jobs(hf) -> List[Job]:
    classical = [
        ("sl2", "lie", "pass", "sl2 is a Lie algebra"),
        ("sl2", "associative", "fail", NOT_ASSOC),
        ("heis3", "associative", "pass", "heis3 is associative"),
        ("heis3", "alternative", "pass", "associative implies alternative"),
        ("heis3", "lie", "fail", NOT_ANTICOMM),
        ("k3prod", "associative", "pass", "k3prod is associative"),
        ("k3prod", "alternative", "pass", "associative implies alternative"),
        ("k3prod", "lie", "fail", NOT_ANTICOMM),
        ("octonions", "alternative", "pass", "the octonions are alternative"),
        ("octonions", "associative", "fail", NOT_ASSOC),
        ("abelian3", "associative", "pass", ZERO_PRODUCT),
        ("abelian3", "alternative", "pass", ZERO_PRODUCT),
        ("abelian3", "lie", "pass", ZERO_PRODUCT),
    ]
    twisted = [
        ("sl2", "hom_lie", "pass", MAIN_THEOREM),
        ("sl2", "hom_malcev", "pass", "Hom-Lie implies Hom-Malcev"),
        ("sl2", "hom_associative", "fail", f"{NOT_ASSOC}; {INVERTIBLE_TWIST}"),
        ("heis3", "hom_associative", "pass", MAIN_THEOREM),
        ("heis3", "hom_alternative", "pass", "Hom-associative implies Hom-alternative"),
        ("heis3", "hom_lie", "fail", f"{NOT_ANTICOMM}; {INVERTIBLE_TWIST}"),
        ("k3prod", "hom_associative", "pass", MAIN_THEOREM),
        ("k3prod", "hom_alternative", "pass", "Hom-associative implies Hom-alternative"),
        ("k3prod", "hom_lie", "fail", f"{NOT_ANTICOMM}; {INVERTIBLE_TWIST}"),
        ("octonions", "hom_alternative", "pass", MAIN_THEOREM),
        ("octonions", "hom_associative", "fail", f"{NOT_ASSOC}; {INVERTIBLE_TWIST}"),
        ("abelian3", "hom_associative", "pass", ZERO_PRODUCT),
        ("abelian3", "hom_alternative", "pass", ZERO_PRODUCT),
        ("abelian3", "hom_lie", "pass", ZERO_PRODUCT),
        ("abelian3", "hom_malcev", "pass", ZERO_PRODUCT),
    ]
    checks = [_check(*row, twist=False) for row in classical]
    checks += [_check(*row, twist=True) for row in twisted]
    jobs = [j for j in checks if "octonions" in j.argv]
    short = [j for j in checks if "octonions" not in j.argv]

    def octonion_minus_malcev():
        octo = hf.fdalg.hom_version(hf.fdalg.builtin_algebra("octonions"))
        minus = hf.fdalg.commutator_algebra(octo)
        return hf.fdalg.check_identity(minus, hf.homify.catalog("hom_malcev"))

    jobs.append(
        Job(
            "library check_identity(commutator_algebra(hom_version(octonions)), hom_malcev)",
            "pass",
            "the commutator algebra of a Hom-alternative algebra is Hom-Malcev",
            call=octonion_minus_malcev,
        )
    )
    for alg, cls, cutoff, reason in [
        ("heis3", "yiii", 2, YIII_SABININ),
        ("k3prod", "yiii", 2, YIII_SABININ),
        ("abelian3", "yiii", 2, YIII_SABININ),
        ("sl2", "yiii", 2, YIII_SABININ),
        ("sl2", "yiii", 3, YIII_SABININ),
        ("sl2", "lie", 3, PRINTED_SABININ),
        ("sl2", "malcev", 3, PRINTED_SABININ),
    ]:
        argv = ["sabinin", "--algebra", alg, "--twist", "bundled",
                "--class", cls, "--cutoff", str(cutoff)]
        (jobs if alg == "sl2" else short).append(Job(" ".join(argv), "pass", reason, argv=argv))
    argv = ["powerassoc", "--algebra", "k3prod", "--twist", "bundled"]
    jobs.append(Job(" ".join(argv), "pass",
                    "twisted k3prod is Hom-power associative (criterion 11)", argv=argv))
    return jobs + short * SHORT_REPEATS


# ---------------------------------------------------------------------------
# antipode-fresh
#
# The antipode defect of a word lands in a single quotient component, and the
# size of that component depends only on which letters sit at which depths,
# up to renaming the letters. A cost class lists a few words with the same
# profile that were measured to take the same time within a few per cent. A
# draw picks one and renames its letters keeping their alphabetical order,
# which sets the order of the elimination, so every word drawn for a class
# does the same row operations.

# (words of one cost class, draws per pass), ordered by cost. The copies of
# the 324-monomial class hold the tail job of a pass (the 11th slowest) and
# the degree-4 copies hold the median job, so neither sits on the edge
# between two costs.
FRESH_CLASSES = [
    # degree 6 over 2 letters: components of 1,944, 972 and 486 monomials
    (("(((a*a)*(a*b))*(a*a))", "((a*a)*((b*a)*(a*a)))",
      "(((a*b)*a)*((a*a)*a))", "((a*(b*a))*((a*a)*a))"), 1),
    (("(((a*a)*a)*((a*a)*b))", "((a*(b*b))*((b*b)*b))",
      "((a*(a*a))*((a*a)*b))", "((a*b)*((a*a)*(a*a)))"), 1),
    (("(((a*a)*a)*(a*(a*a)))", "((a*(a*a))*((a*a)*a))",
      "(((a*a)*(a*a))*(a*a))", "((a*(a*a))*(a*(a*a)))"), 1),
    # degree 5 over up to 5 letters: 1,680, 1,296 and 324 monomials
    (("(((a*b)*a)*(b*c))", "((a*b)*(c*(b*c)))", "((a*b)*((a*c)*c))", "((a*b)*(c*(a*b)))"), 1),
    (("(a*((b*c)*(d*e)))",), 1),
    (("(((a*a)*(b*b))*c)", "(((a*b)*(b*a))*c)"), 12),
    # degree 4: 120, 120, 60 and 120 monomials
    (("((a*(b*c))*d)", "(a*((b*c)*d))"), 6),
    (("((a*b)*(c*d))",), 6),
    (("((a*a)*(b*c))", "((a*b)*(c*b))", "((a*b)*(a*c))", "((a*b)*(b*c))"), 6),
    (("(((a*b)*a)*b)", "(a*((a*b)*b))", "(a*((b*a)*b))", "((a*(b*a))*b)"), 6),
]


def draw_word(rng: random.Random, words: Sequence[str]) -> str:
    """One word of the class, its letters renamed in order to a random subset of a-e."""
    word = rng.choice(words)
    distinct = "".join(sorted(set(word) - set("(*)")))
    renamed = "".join(sorted(rng.sample("abcde", len(distinct))))
    return word.translate(str.maketrans(distinct, renamed))


def _antipode_cli(word: str) -> Job:
    argv = ["antipode", "--word", word]
    return Job(" ".join(argv), "pass", ANTIPODE, argv=argv, may_be_inconclusive=True)


def antipode_fresh_jobs(rng: random.Random) -> List[Job]:
    return [_antipode_cli(draw_word(rng, words))
            for words, copies in FRESH_CLASSES for _ in range(copies)]


# ---------------------------------------------------------------------------
# antipode-shared


def antipode_shared_workload(hf, oracles, rng: random.Random) -> Workload:
    """Every monomial of degree <= 4 over {a,b,c}, sharing one quotient per pass.

    A pass starts from a fresh quotient, so each pass builds the same 87
    components and serves the other lookups from the cache.
    """
    state = {}

    def new_pass():
        state["q"] = hf.hombialg.FreeHomAssocQuotient(("a", "b", "c"), 4, 8)

    monos = [m for d in range(1, 5) for m in oracles.all_binary_monomials(("a", "b", "c"), d)]
    rng.shuffle(monos)
    jobs = []
    for m in monos:
        label = "library check_antipode(" + hf.expr.render_mono(m, top=True) + ", shared)"
        jobs.append(
            Job(label, "pass", ANTIPODE, may_be_inconclusive=True,
                call=lambda m=m: hf.hombialg.check_antipode(m, quotient=state["q"]))
        )
    return Workload("antipode-shared", jobs, new_pass)


# ---------------------------------------------------------------------------
# envelope


def load_oracles(root: Path):
    """tests/oracles.py, imported read-only under a private module name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_oracles", root / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def envelope_check(dim: int, degree: int, graded: Optional[dict]):
    """Checks of an envelope report.

    The known answer, where one is given: for alpha-zero sl2 the graded
    dimensions are the independently enumerated pair-swap tree counts.
    Every report is also checked for consistency: dimension + relation rank in
    degree n counts all product trees, Catalan(n-1) * dim^n. homforge reports
    the rank of its own relation space, so this holds whatever relations it
    found; it catches a malformed report, not a wrong one.
    """

    def check(doc: dict) -> Optional[str]:
        degrees = doc.get("degrees", {})
        if sorted(degrees, key=int) != [str(n) for n in range(1, degree + 1)]:
            return f"degrees {sorted(degrees)} reported, expected 1..{degree}"
        for n in range(1, degree + 1):
            d, rank = degrees[str(n)]
            if d + rank != _catalan(n - 1) * dim ** n:
                return f"degree {n}: {d} + {rank} != Catalan({n - 1}) * {dim}^{n}"
            if graded is not None and d != graded[n]:
                return f"degree {n}: dimension {d}, oracle says {graded[n]}"
        return None

    return check


def envelope_jobs(oracles) -> List[Job]:
    """Degree-4 envelopes. Only the alpha-zero sl2 job has a known answer for
    its dimensions; the others carry the consistency and determinism checks."""
    pairswap = {d: oracles.enumerate_pairswap_trees(3, d) for d in range(1, 5)}
    rows = [
        (["--alpha-zero"], "sl2", "lie", pairswap),
        (["--twist", "bundled"], "sl2", "lie", None),
        (["--twist", "bundled"], "heis3", "yiii", None),
        (["--twist", "bundled"], "k3prod", "yiii", None),
        (["--twist", "bundled"], "abelian3", "yiii", None),
        # the bundled algebras with their stored automorphism as alpha: two more
        # jobs of the yiii cost, so the median job is the middle of five
        ([], "heis3", "yiii", None),
        ([], "k3prod", "yiii", None),
    ]
    jobs = []
    for mode, alg, cls, graded in rows:
        argv = ["envelope", "--algebra", alg, *mode, "--class", cls, "--degree", "4"]
        reason = "pair-swap tree counts" if graded else "consistency only"
        jobs.append(Job(" ".join(argv), "pass", reason, argv=argv,
                        check=envelope_check(3, 4, graded)))
    return jobs


# ---------------------------------------------------------------------------

WORKLOADS = ("fd-verify", "antipode-fresh", "antipode-shared", "envelope")


def build(name: str, seed: int, hf, root: Path) -> Workload:
    """The job list of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "fd-verify":
        jobs = fd_verify_jobs(hf)
    elif name == "antipode-fresh":
        jobs = antipode_fresh_jobs(rng)
    elif name == "antipode-shared":
        return antipode_shared_workload(hf, load_oracles(root), rng)
    elif name == "envelope":
        jobs = envelope_jobs(load_oracles(root))
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    # The seed picks where the cycle of jobs starts, not their order: a job's
    # time depends on which jobs ran before it (shared caches, the collector),
    # and passes repeat back to back, so every seed then sees the same costs.
    start = rng.randrange(len(jobs))
    return Workload(name, jobs[start:] + jobs[:start])
