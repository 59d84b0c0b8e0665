"""Substitutions and homomorphism search.

A homomorphism from a set of atoms ``A`` to a set of atoms ``B`` is a
substitution over the terms of ``A`` that is the identity on constants
and maps every atom of ``A`` to an atom of ``B``.  The chase engine and
the restricted-chase activeness test both reduce to enumerating the
homomorphisms from a rule body (a small conjunction of atoms over
variables) into a large instance.

Two implementations live here:

* :class:`BodyPlan` — a *compiled* backtracking join.  The atom order,
  the per-atom bound-position templates and the variable slots are
  computed once per body; evaluation binds and unbinds terms in a
  mutable slot array instead of copying a binding dict per candidate.
  :func:`find_homomorphisms`, :func:`find_homomorphisms_with_forced_atom`
  and :func:`extend_homomorphism` run on cached plans.
* :func:`find_homomorphisms_reference` — the original dict-copying
  backtracking join, kept as the executable specification.  The test
  suite checks plan-based enumeration against it on randomized
  programs, and the benchmark harness uses it as the "before" engine.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Instance
from repro.model.terms import Constant, Term, Variable

Substitution = Dict[Variable, Term]


def apply_substitution(atom: Atom, substitution: Substitution) -> Atom:
    """Apply a variable substitution to an atom."""
    new_args = tuple(
        substitution.get(arg, arg) if isinstance(arg, Variable) else arg
        for arg in atom.args
    )
    return Atom(atom.predicate, new_args)


def is_homomorphism(
    atoms: Sequence[Atom], target: Instance, substitution: Substitution
) -> bool:
    """Check that ``substitution`` maps every atom of ``atoms`` into ``target``."""
    for a in atoms:
        image = apply_substitution(a, substitution)
        if not image.is_ground or image not in target:
            return False
    return True


def _match_atom(
    pattern: Atom, candidate: Atom, binding: Substitution
) -> Optional[Substitution]:
    """Try to extend ``binding`` so that ``pattern`` maps onto ``candidate``."""
    if pattern.predicate != candidate.predicate:
        return None
    extended = dict(binding)
    for pattern_arg, candidate_arg in zip(pattern.args, candidate.args):
        if isinstance(pattern_arg, Constant):
            if pattern_arg != candidate_arg:
                return None
        elif isinstance(pattern_arg, Variable):
            bound = extended.get(pattern_arg)
            if bound is None:
                extended[pattern_arg] = candidate_arg
            elif bound != candidate_arg:
                return None
        else:  # nulls never occur in rule bodies
            if pattern_arg != candidate_arg:
                return None
    return extended


def _order_atoms(atoms: Sequence[Atom]) -> List[Atom]:
    """Order body atoms to make the backtracking join cheap.

    The guard-like atom with the most variables goes first (it binds
    the most), then atoms are picked greedily by how many of their
    variables are already bound.
    """
    remaining = list(atoms)
    if not remaining:
        return []
    ordered: List[Atom] = []
    first = max(remaining, key=lambda a: len(a.variables()))
    ordered.append(first)
    remaining.remove(first)
    bound: Set[Variable] = set(first.variables())
    while remaining:
        best = max(remaining, key=lambda a: (len(a.variables() & bound), -len(a.variables())))
        ordered.append(best)
        remaining.remove(best)
        bound |= best.variables()
    return ordered


# ---------------------------------------------------------------------------
# Reference implementation (the executable specification)
# ---------------------------------------------------------------------------


def find_homomorphisms_reference(
    atoms: Sequence[Atom],
    target: Instance,
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Enumerate homomorphisms with the original dict-copying join.

    Kept as the specification that :class:`BodyPlan` is tested against
    and as the "before" path of the engine benchmark.  New code should
    call :func:`find_homomorphisms`.
    """
    ordered = _order_atoms(atoms)

    def backtrack(index: int, binding: Substitution) -> Iterator[Substitution]:
        if index == len(ordered):
            yield dict(binding)
            return
        pattern = ordered[index]
        bound_positions = {
            i: binding[arg]
            for i, arg in enumerate(pattern.args)
            if isinstance(arg, Variable) and arg in binding
        }
        # candidates_view matches the pre-refactor cost profile (the
        # original code read the live index set); the reference engine,
        # like the compiled one, never mutates during enumeration.
        for candidate in target.candidates_view(pattern.predicate, bound_positions):
            extended = _match_atom(pattern, candidate, binding)
            if extended is not None:
                yield from backtrack(index + 1, extended)

    yield from backtrack(0, dict(seed or {}))


def find_homomorphisms_with_forced_atom_reference(
    atoms: Sequence[Atom],
    target: Instance,
    forced_index: int,
    forced_atom: Atom,
) -> Iterator[Substitution]:
    """Forced-atom enumeration on top of the reference join."""
    pattern = atoms[forced_index]
    seed = _match_atom(pattern, forced_atom, {})
    if seed is None:
        return
    rest = [a for i, a in enumerate(atoms) if i != forced_index]
    if not rest:
        yield seed
        return
    yield from find_homomorphisms_reference(rest, target, seed=seed)


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------

#: Sentinel marking an unbound variable slot.
_UNSET = object()

#: A per-atom evaluation step: (predicate, const_positions, bound_positions,
#: bind_positions, check_positions).  Positions are 0-based argument indexes;
#: slots are indexes into the plan's slot array.
_Step = Tuple[
    Predicate,
    Tuple[Tuple[int, Term], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]


def classify_atom_positions(
    pattern: Atom, bound: Set[Variable], slot_of: Dict[Variable, int]
) -> _Step:
    """Classify a pattern atom's argument positions against a slot map.

    Returns ``(predicate, consts, lookups, binds, checks)``: constant
    positions (equality against a fixed term), positions whose variable
    is already in ``bound`` (usable for index lookups), first
    occurrences of fresh variables (bind the slot), and repeated
    occurrences within this atom (check against the just-bound slot).
    Shared by :meth:`BodyPlan._build_steps` and the store engine's
    compiled plans in ``chase/store_plan.py``.
    """
    consts: List[Tuple[int, Term]] = []
    lookups: List[Tuple[int, int]] = []
    binds: List[Tuple[int, int]] = []
    checks: List[Tuple[int, int]] = []
    fresh_here: Set[Variable] = set()
    for i, arg in enumerate(pattern.args):
        if not isinstance(arg, Variable):
            consts.append((i, arg))
        elif arg in bound:
            lookups.append((i, slot_of[arg]))
        elif arg in fresh_here:
            checks.append((i, slot_of[arg]))
        else:
            binds.append((i, slot_of[arg]))
            fresh_here.add(arg)
    return (pattern.predicate, tuple(consts), tuple(lookups), tuple(binds), tuple(checks))


def _plan_order(
    atoms: Sequence[Atom],
    bound: FrozenSet[Variable],
    selectivity: Optional[Callable[[Predicate], int]],
) -> List[Atom]:
    """Greedy join order: mirror :func:`_order_atoms`, with two twists.

    Variables in ``bound`` count as already bound (they come from a seed
    known at compile time), and ``selectivity`` (a per-predicate atom
    count, e.g. :meth:`FactStore.count` for the store engine's plans)
    breaks ties in favour of smaller relations.
    """
    remaining = list(atoms)
    if not remaining:
        return []
    ordered: List[Atom] = []
    known: Set[Variable] = set(bound)

    def sel(a: Atom) -> int:
        return selectivity(a.predicate) if selectivity is not None else 0

    if not known:
        first = max(remaining, key=lambda a: (len(a.variables()), -sel(a)))
        ordered.append(first)
        remaining.remove(first)
        known |= first.variables()
    while remaining:
        best = max(
            remaining,
            key=lambda a: (len(a.variables() & known), -len(a.variables()), -sel(a)),
        )
        ordered.append(best)
        remaining.remove(best)
        known |= best.variables()
    return ordered


class BodyPlan:
    """A compiled backtracking join for a fixed sequence of atoms.

    The plan is built once per (body, initially-bound variables) pair:
    it fixes the atom order, assigns every variable an integer slot, and
    precomputes per atom which argument positions are constants, which
    are guaranteed bound when the atom is reached (usable for index
    lookups), which bind a fresh variable, and which must be checked
    against a slot bound earlier within the same atom.  Enumeration then
    binds and unbinds candidate terms in one mutable slot array — no
    per-candidate dict copies.

    Parameters
    ----------
    atoms:
        The conjunction to map into the target instance.
    bound_first:
        Variables that every seed passed to :meth:`enumerate` will bind.
        Seeding a different variable set still works (the templates are
        rebuilt for that call) but loses the precompiled fast path.
    """

    __slots__ = (
        "atoms",
        "ordered",
        "variables",
        "slot_of",
        "_bound_first",
        "_steps",
        "_emit",
    )

    def __init__(
        self,
        atoms: Sequence[Atom],
        bound_first: Iterable[Variable] = (),
    ) -> None:
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        self._bound_first: FrozenSet[Variable] = frozenset(bound_first)
        self.ordered: Tuple[Atom, ...] = tuple(
            _plan_order(self.atoms, self._bound_first, None)
        )
        # Slot assignment: bound-first variables get the low slots, the
        # rest follow in order of first appearance along the atom order.
        # Bound-first variables keep a slot even when they do not occur
        # in the atoms: delta plans seed them from the forced atom and
        # read them back out of the slot array.
        slot_of: Dict[Variable, int] = {}
        for v in sorted(self._bound_first, key=lambda v: v.name):
            slot_of[v] = len(slot_of)
        for a in self.ordered:
            for arg in a.args:
                if isinstance(arg, Variable) and arg not in slot_of:
                    slot_of[arg] = len(slot_of)
        self.slot_of = slot_of
        self.variables: Tuple[Variable, ...] = tuple(
            sorted(slot_of, key=lambda v: slot_of[v])
        )
        self._steps: Tuple[_Step, ...] = self._build_steps(self._bound_first)
        self._emit: Tuple[Tuple[Variable, int], ...] = tuple(slot_of.items())

    def _build_steps(self, initially_bound: FrozenSet[Variable]) -> Tuple[_Step, ...]:
        """Per-atom bound-position templates for a given seeded-variable set."""
        steps: List[_Step] = []
        bound: Set[Variable] = set(initially_bound)
        for pattern in self.ordered:
            steps.append(classify_atom_positions(pattern, bound, self.slot_of))
            bound |= pattern.variables()
        return tuple(steps)

    def iter_bindings(
        self, target: Instance, slots: Optional[List] = None
    ) -> Iterator[List]:
        """Yield the live slot array for every homomorphism into ``target``.

        This is the zero-copy engine under :meth:`enumerate`: the
        *same* list object is yielded each time, so the caller must copy
        out the terms it needs before advancing the generator.  When
        ``slots`` is given it must have exactly the plan's
        ``bound_first`` variables set (everything else ``_UNSET``);
        ``target`` must not be mutated while the generator is live.
        """
        if slots is None:
            slots = [_UNSET] * len(self.variables)
        yield from self._backtrack(target, slots, self._steps, 0)

    def _backtrack(
        self, target: Instance, slots: List, steps: Tuple[_Step, ...], index: int
    ) -> Iterator[List]:
        if index == len(steps):
            yield slots
            return
        predicate, consts, lookups, binds, checks = steps[index]
        bound_positions: Dict[int, Term] = dict(consts)
        for pos, slot in lookups:
            bound_positions[pos] = slots[slot]
        candidates = target.candidates_view(predicate, bound_positions)
        if not candidates:
            return
        next_index = index + 1
        for candidate in candidates:
            args = candidate.args
            for pos, slot in binds:
                slots[slot] = args[pos]
            ok = True
            for pos, slot in checks:
                if slots[slot] != args[pos]:
                    ok = False
                    break
            if ok:
                yield from self._backtrack(target, slots, steps, next_index)
        for _, slot in binds:
            slots[slot] = _UNSET

    def enumerate(
        self, target: Instance, seed: Optional[Substitution] = None
    ) -> Iterator[Substitution]:
        """Enumerate homomorphisms from the plan's atoms into ``target``.

        ``target`` must not be mutated while the generator is live (the
        plan iterates live index views).  Each yielded substitution is a
        fresh dict covering the plan's variables plus any seed entries.
        """
        slots: List = [_UNSET] * len(self.variables)
        extras: Dict[Variable, Term] = {}
        seeded: Set[Variable] = set()
        if seed:
            for var, term in seed.items():
                idx = self.slot_of.get(var)
                if idx is None:
                    extras[var] = term
                else:
                    slots[idx] = term
                    seeded.add(var)
        steps = (
            self._steps
            if frozenset(seeded) == self._bound_first
            else self._build_steps(frozenset(seeded))
        )
        emit = self._emit
        for bound in self._backtrack(target, slots, steps, 0):
            result = dict(extras)
            for var, slot in emit:
                value = bound[slot]
                if value is not _UNSET:
                    result[var] = value
            yield result


# Plans are cached per (atoms, seeded variables).  The cache is bounded
# by the number of distinct rule bodies/heads the process ever compiles;
# a hard cap guards against pathological churn (e.g. fuzzing loops).
_PLAN_CACHE: Dict[Tuple[Tuple[Atom, ...], FrozenSet[Variable]], BodyPlan] = {}
_PLAN_CACHE_CAP = 8192


def compile_plan(
    atoms: Sequence[Atom],
    bound_first: Iterable[Variable] = (),
) -> BodyPlan:
    """Compile (or fetch from cache) the :class:`BodyPlan` for ``atoms``."""
    key = (tuple(atoms), frozenset(bound_first))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_CAP:
            _PLAN_CACHE.clear()
        plan = BodyPlan(key[0], key[1])
        _PLAN_CACHE[key] = plan
    return plan


def find_homomorphisms(
    atoms: Sequence[Atom],
    target: Instance,
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Enumerate homomorphisms from ``atoms`` into ``target``.

    ``seed`` optionally fixes a partial binding (used by the chase
    engine to force a body atom onto a freshly derived atom, giving a
    semi-naive evaluation).  Runs on a cached compiled plan.

    ``target`` must not be mutated while the generator is live: the
    plan iterates live index views.  Materialise the results first
    (``list(find_homomorphisms(...))``) if you need to mutate.
    """
    bound_first: Iterable[Variable] = seed.keys() if seed else ()
    yield from compile_plan(atoms, bound_first).enumerate(target, seed)


def find_homomorphisms_with_forced_atom(
    atoms: Sequence[Atom],
    target: Instance,
    forced_index: int,
    forced_atom: Atom,
) -> Iterator[Substitution]:
    """Homomorphisms where body atom ``forced_index`` maps onto ``forced_atom``.

    This is the delta step of semi-naive evaluation: every new trigger
    must use at least one newly derived atom, so it suffices to force
    each body atom in turn onto each new atom.  Like
    :func:`find_homomorphisms`, ``target`` must not be mutated while
    the generator is live.
    """
    pattern = atoms[forced_index]
    seed = _match_atom(pattern, forced_atom, {})
    if seed is None:
        return
    rest = [a for i, a in enumerate(atoms) if i != forced_index]
    yield from compile_plan(rest, seed.keys()).enumerate(target, seed)


def extend_homomorphism(
    head_atoms: Sequence[Atom],
    target: Instance,
    base: Substitution,
) -> Optional[Substitution]:
    """Find an extension of ``base`` mapping ``head_atoms`` into ``target``.

    This is the satisfaction test of a TGD (and the activeness test of
    the restricted chase): given a body homomorphism ``base``, look for
    ``h' ⊇ base|frontier`` mapping the head into the instance.  Returns
    one witness extension or ``None``.  The compiled head plan is cached
    per (head, seeded variables), so repeated activeness checks of the
    same rule reuse one plan.
    """
    for extension in compile_plan(head_atoms, base.keys()).enumerate(target, dict(base)):
        return extension
    return None
