"""Seeded workload generator for the cp2q benchmark.

The seed is a benchmark argument only; cp2q receives nothing but the
generated command lines.  The seed draws every q value (on a 0.01 grid
inside the spectrum guard [0.3, 0.95]), the classical-check sampling seed
and the words of the one-shot rewrite query.  No command uses a flag that
is slated for removal (--cache-dir, --threads, --mode), so later
simplifications stay measurable against the same commands.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

WHY = {
    "spectral": "cold numeric path: qint and generator_action build every action row "
                "per q to serve a few Dirac applications; forms and rewriting idle",
    "forms": "one launch spent in the per-coefficient dict path: black/white actions, "
             "quadratic random_form and dbar; action rows few and reused",
    "exact": "exact path only: Laurent multiply under a cache-heavy confluence sweep "
             "plus a cold one-shot rewrite query; numeric layers idle",
    "battery": "identity battery in many short launches: dense generator matrices, "
               "ualg.evaluate and classical; set-up is a large share of wall time",
}

WORKLOADS = tuple(WHY)

# p_ij = z_i* z_j; a rewrite query is a sum of a few products of six of
# them, i.e. words of twelve letters in the z-alphabet
QUERY_TERMS = 3
QUERY_FACTORS = 6


def _q(rng: random.Random) -> str:
    return f"0.{rng.randint(30, 95):02d}"


def rewrite_query(rng: random.Random) -> str:
    terms = []
    for _ in range(QUERY_TERMS):
        factors = [f"p{rng.randint(1, 3)}{rng.randint(1, 3)}" for _ in range(QUERY_FACTORS)]
        terms.append(" ".join(factors))
    return " + ".join(terms)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The cp2q argument lists of one workload, drawn from the seed."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"cp2q-bench/{workload}/{seed}")
    if workload == "spectral":
        return [
            *(["spectrum", "--q", _q(rng), "--nmax", "8"] for _ in range(3)),
            ["cohomology", "--q", _q(rng), "--nmax", "3"],
            ["summability", "--q", _q(rng), "--nmax", "8"],
        ]
    if workload == "forms":
        return [["verify-complex", "--q", _q(rng), "--nmax", "4"]]
    if workload == "exact":
        return [
            ["verify-cp2-relations", "--max-deg", "6"],
            ["rewrite", rewrite_query(rng)],
        ]
    return [
        *(["verify-hopf", "--q", _q(rng), "--total-degree", "8"] for _ in range(2)),
        ["verify-casimir", "--q", _q(rng), "--total-degree", "8"],
        ["verify-gt", "--q", _q(rng), "--total-degree", "6"],
        ["verify-coproduct", "--q", _q(rng)],
        ["classical-check", "--samples", "1000", "--seed", str(rng.randint(1, 1000))],
        # (q - q^-1)[E1,F1] = K1^2 - K1^-2, so this element is the identity
        ["evaluate", "q^1 E1 F1 - q^1 F1 E1 - q^-1 E1 F1 + q^-1 F1 E1 - K1 K1 + K1' K1' + K2 K2'",
         "--q", _q(rng), "--n1", "3", "--n2", "3"],
    ]
