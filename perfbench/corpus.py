"""Seeded DQDIMACS corpora for the benchmark workloads.

Each workload owns a fixed corpus of instances. Instance ``i`` of a
corpus is generated from its own random stream, so it is the same text
on every machine and in every run, and ``reference.json`` stores the
shape, verdict and output hash of every instance. The seed of a run
sets only the order in which the corpus is processed, so every run
produces the same outputs and every output can be checked against its
stored reference.

The generators write DQDIMACS text directly: the program under test
receives nothing but that text.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    index: int
    text: str
    # the output matrix as a set of clauses, where the generator knows it
    # without running the program; None otherwise
    expected: frozenset[frozenset[int]] | None = None


def _dqdimacs(universals: list[int], existentials: dict[int, list[int]],
              clauses: list[list[int]]) -> str:
    lines = [f"p cnf {len(universals) + len(existentials)} {len(clauses)}",
             "a " + " ".join(map(str, universals)) + " 0"]
    for var in sorted(existentials):
        lines.append(" ".join(["d", str(var), *map(str, existentials[var]), "0"]))
    for clause in clauses:
        lines.append(" ".join([*map(str, clause), "0"]))
    return "\n".join(lines) + "\n"


def _random_cnf(rng: random.Random, n_universal: int, dep_sizes: list[int],
                n_clauses: int, width: int, universal_share: float) -> str:
    # universals are 1..n, existentials follow; existential i depends on
    # dep_sizes[i] random universals; each clause has `width` distinct
    # variables, each universal with probability universal_share
    universals = list(range(1, n_universal + 1))
    existentials = {n_universal + 1 + i: sorted(rng.sample(universals, size))
                    for i, size in enumerate(dep_sizes)}
    pool = sorted(existentials)
    clauses = []
    for _ in range(n_clauses):
        chosen: set[int] = set()
        while len(chosen) < width:
            chosen.add(rng.choice(universals) if rng.random() < universal_share
                       else rng.choice(pool))
        clauses.append([v if rng.random() < 0.5 else -v for v in sorted(chosen)])
    return _dqdimacs(universals, existentials, clauses)


def probe_heavy(rng: random.Random, index: int) -> Instance:
    """Random 4-CNF, mostly existential: 6 universals, 12 existentials
    with random dependency sets, 36 clauses, one literal in ten
    universal. The default schedule decides none of them; they need
    from two to several rounds (about three on average), which spreads
    their cost."""
    dep_sizes = [rng.randint(0, 6) for _ in range(12)]
    return Instance(index, _random_cnf(rng, 6, dep_sizes, 36, 4, 0.1))


CHAINS = 4
LINKS = 400


def chain_up(rng: random.Random, index: int) -> Instance:
    """CHAINS implication chains of LINKS links over shuffled variable
    ids, in shuffled clause order.

    Every existential depends on universal 1 only. Each link clause
    carries a literal of universal 2 or 3, which no existential depends
    on, so universal reduction strips it. The first half of the chains
    starts with a unit clause and propagates to its end, which satisfies
    every one of its clauses; the other chains stay as binary clauses.
    """
    universals = [1, 2, 3]
    ids = list(range(4, 4 + CHAINS * (LINKS + 1)))
    rng.shuffle(ids)
    existentials = {var: [1] for var in ids}
    clauses = []
    expected = set()
    for chain in range(CHAINS):
        lits = [v if rng.random() < 0.5 else -v
                for v in ids[chain * (LINKS + 1):(chain + 1) * (LINKS + 1)]]
        seeded = chain < CHAINS // 2
        if seeded:
            clauses.append([lits[0]])
        for a, b in zip(lits, lits[1:]):
            clauses.append([-a, b, rng.choice((2, 3)) * rng.choice((1, -1))])
            if not seeded:
                expected.add(frozenset((-a, b)))
    rng.shuffle(clauses)
    return Instance(index, _dqdimacs(universals, existentials, clauses),
                    frozenset(expected))


def verify_fuzz(rng: random.Random, index: int) -> Instance:
    """Small random 3-CNF: 4 universals, 6 existentials with dependency
    sets of sizes 2, 2, 1, 1, 0, 0 (so every instance has the same
    oracle candidate space of 2**14 Skolem tuples), 14 clauses, three
    literals in ten universal."""
    dep_sizes = [2, 2, 1, 1, 0, 0]
    rng.shuffle(dep_sizes)
    return Instance(index, _random_cnf(rng, 4, dep_sizes, 14, 3, 0.3))


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random, int], Instance]
    size: int   # instances in the corpus
    passes: tuple[str, ...] | None   # None: the default schedule
    verify: bool
    # instances, those with the lowest indices, whose memory use is
    # measured; tracemalloc slows the program about eightfold, so this
    # is kept to a few seconds of work
    memory_sample: int


WORKLOADS = {w.name: w for w in (
    Workload("probe-heavy", probe_heavy, 6, None, False, 1),
    Workload("chain-up", chain_up, 10, ("ur", "up"), False, 1),
    Workload("verify-fuzz", verify_fuzz, 1000, ("ur", "up", "upla", "vivify"), True, 50),
)}


def instance(workload: Workload, index: int) -> Instance:
    """One corpus instance, generated from its own random stream."""
    return workload.generate(random.Random(f"{workload.name}:{index}"), index)


def order(workload: Workload, seed: int) -> list[int]:
    """Corpus indices in run order for a seed."""
    return random.Random(seed).sample(range(workload.size), workload.size)
