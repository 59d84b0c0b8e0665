"""Seeded inputs: the paper's families under a seed-chosen renaming.

The families are deterministic, so a seed cannot change their shape
without changing the work.  It changes the *input* instead: every
database constant gets a seed-derived suffix and the fact and rule
lines are shuffled.  TGDs are constant-free, so a renamed database is
isomorphic to the original and every count the benchmark checks
(atoms, rounds, triggers, verdicts) is the same for every seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from repro.generators.families import guarded_lower_bound, linear_lower_bound, sl_lower_bound
from repro.generators.workloads import restricted_heavy
from repro.model.atoms import Atom
from repro.model.instance import Database
from repro.model.serialization import atom_to_text, tgd_to_text
from repro.model.terms import Constant
from repro.model.tgd import TGDSet

FAMILIES: Dict[str, Callable[..., Tuple[Database, TGDSet]]] = {
    "sl_lower_bound": sl_lower_bound,
    "linear_lower_bound": linear_lower_bound,
    "guarded_lower_bound": guarded_lower_bound,
    "restricted_heavy": restricted_heavy,
}


def renamed(database: Database, tag: str) -> Database:
    """``database`` with every constant ``c`` renamed to ``c_<tag>``."""
    return Database(
        Atom(a.predicate, tuple(Constant(f"{t.name}_{tag}") for t in a.args))
        for a in database
    )


def family_texts(family: str, params, rng: random.Random) -> Tuple[str, str]:
    """(program text, database text) of one family member, seeded."""
    database, tgds = FAMILIES[family](*params)
    database = renamed(database, f"s{rng.randrange(10**6)}")
    facts = [f"{atom_to_text(a)}." for a in database]
    rules = [tgd_to_text(t) for t in tgds]
    rng.shuffle(facts)
    rng.shuffle(rules)
    return "\n".join(rules), "\n".join(facts)
