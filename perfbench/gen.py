"""Seeded workload generator for the pipeline benchmark.

The generator is independent of the program under test: it builds
molecules as its own graphs and writes them as SMILES with its own
writer, so a change to the program's parser, writer or test helpers
cannot change the workloads.  Every reaction is made by cutting a known
product at known bonds, so its disconnection label is known by
construction, and every canned model answer is drawn from a fixed menu
whose scores are known by construction too.  Those expectations are the
oracle the benchmark checks the pipeline's outputs against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

VALENCE = {"B": 3, "C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1, "Br": 1, "I": 1, "Si": 4, "Se": 2}
AROMATIC = 1.5
FLIP = {"/": "\\", "\\": "/"}
SHARE_THRESHOLD = 0.75  # the program's template atom-share threshold


def normalized(name: str) -> str:
    """Reaction-name equality key: trimmed, single-spaced, lower case."""
    return " ".join(name.split()).lower()


class Graph:
    """Molecular graph.  Bonds are ``[a, b, order, mark]``: order 1, 2, 3
    or 1.5 (aromatic); mark is a ``/`` or ``\\`` read from a to b."""

    def __init__(self):
        self.atoms: list[dict] = []
        self.bonds: list[list] = []
        self.adj: list[list[int]] = []

    def add_atom(self, element: str, aromatic: bool = False) -> int:
        self.atoms.append({"el": element, "ar": aromatic, "chiral": None, "map": None, "wild": False})
        self.adj.append([])
        return len(self.atoms) - 1

    def add_bond(self, a: int, b: int, order=1) -> int:
        self.bonds.append([a, b, order, None])
        index = len(self.bonds) - 1
        self.adj[a].append(index)
        self.adj[b].append(index)
        return index

    def other(self, bond: int, atom: int) -> int:
        a, b = self.bonds[bond][0], self.bonds[bond][1]
        return b if atom == a else a

    def hydrogens(self, atom: int) -> int:
        spec = self.atoms[atom]
        if spec["wild"]:
            return 0
        used = sum(self.bonds[b][2] for b in self.adj[atom])
        return max(0, int(VALENCE[spec["el"]] - used + 1e-9))

    def copy(self, drop_bonds=()) -> "Graph":
        clone = Graph()
        for spec in self.atoms:
            clone.atoms.append(dict(spec))
            clone.adj.append([])
        for index, bond in enumerate(self.bonds):
            if index not in drop_bonds:
                new = clone.add_bond(bond[0], bond[1], bond[2])
                clone.bonds[new][3] = bond[3]
        return clone

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        parts = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            seen.add(start)
            stack, part = [start], []
            while stack:
                atom = stack.pop()
                part.append(atom)
                for bond in self.adj[atom]:
                    nbr = self.other(bond, atom)
                    if nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
            parts.append(sorted(part))
        return parts

    def has_stereo(self, part) -> bool:
        inside = set(part)
        return any(self.atoms[i]["chiral"] for i in part) or any(
            b[3] and b[0] in inside for b in self.bonds
        )

    def symbol(self, atom: int) -> str:
        spec = self.atoms[atom]
        return spec["el"].lower() if spec["ar"] else spec["el"]


def write_smiles(g: Graph, part, maps: bool = True, rng: random.Random | None = None) -> str:
    """SMILES of one connected component; every atom is bracketed with
    its hydrogen count.  With ``rng`` the traversal starts at a random
    atom and visits neighbours in random order, giving another spelling
    of the same graph."""
    start = rng.choice(part) if rng else part[0]
    order: list[int] = []
    children: dict[int, list[tuple[int, int]]] = {}
    ring_at: dict[int, list[tuple[int, int]]] = {}  # atom -> [(bond, partner)]
    parent_bond = {start: None}
    ring_bonds: set[int] = set()

    def visit(atom: int) -> None:
        order.append(atom)
        children[atom] = []
        bonds = list(g.adj[atom])
        if rng:
            rng.shuffle(bonds)
        for bond in bonds:
            if bond == parent_bond[atom]:
                continue
            nbr = g.other(bond, atom)
            if nbr in parent_bond:
                if bond not in ring_bonds:
                    ring_bonds.add(bond)
                    ring_at.setdefault(nbr, []).append((bond, atom))
                    ring_at.setdefault(atom, []).append((bond, nbr))
                continue
            parent_bond[nbr] = bond
            children[atom].append((nbr, bond))
            visit(nbr)

    visit(start)
    position = {atom: k for k, atom in enumerate(order)}

    def bond_symbol(bond: int, src: int, dst: int) -> str:
        a, b, bond_order, mark = g.bonds[bond]
        both_aromatic = g.atoms[src]["ar"] and g.atoms[dst]["ar"]
        if bond_order == AROMATIC:
            return "" if both_aromatic else ":"
        if bond_order == 1:
            if mark:
                return mark if (a, b) == (src, dst) else FLIP[mark]
            return "-" if both_aromatic else ""
        return "=" if bond_order == 2 else "#"

    def atom_token(atom: int) -> str:
        spec = g.atoms[atom]
        if spec["wild"]:
            return "*"
        h = g.hydrogens(atom)
        text = "[" + g.symbol(atom) + (spec["chiral"] or "")
        text += "" if h == 0 else ("H" if h == 1 else f"H{h}")
        if maps and spec["map"] is not None:
            text += f":{spec['map']}"
        return text + "]"

    free = list(range(9, 0, -1))
    digit_of: dict[int, int] = {}

    def emit(atom: int) -> str:
        pieces = [atom_token(atom)]
        for bond, partner in sorted(ring_at.get(atom, []), key=lambda item: position[item[1]]):
            if bond in digit_of:
                digit = digit_of.pop(bond)
                free.append(digit)
                pieces.append(str(digit))
            else:
                digit = free.pop()
                digit_of[bond] = digit
                pieces.append(bond_symbol(bond, atom, partner) + str(digit))
        kids = children[atom]
        for k, (child, bond) in enumerate(kids):
            branch = bond_symbol(bond, atom, child) + emit(child)
            pieces.append(branch if k == len(kids) - 1 else f"({branch})")
        return "".join(pieces)

    return emit(start)


# ------------------------------------------------------------ molecules

RING_BLOCKS = ("benzene", "pyridine", "cyclohexane", "piperidine")
SMALL_BLOCKS = ("methyl", "ethyl", "ether", "alkene", "carbonyl", "amide", "nitrile", "halide")


def _add_block(g: Graph, kind: str, rng: random.Random) -> list[int]:
    if kind in RING_BLOCKS:
        aromatic = kind in ("benzene", "pyridine")
        elements = ["N" if kind in ("pyridine", "piperidine") and k == 0 else "C" for k in range(6)]
        ring = [g.add_atom(el, aromatic) for el in elements]
        for k in range(6):
            g.add_bond(ring[k], ring[(k + 1) % 6], AROMATIC if aromatic else 1)
        return ring
    if kind == "methyl":
        return [g.add_atom("C")]
    if kind == "ethyl":
        a, b = g.add_atom("C"), g.add_atom("C")
        g.add_bond(a, b)
        return [a, b]
    if kind == "ether":
        a, o, b = g.add_atom("C"), g.add_atom("O"), g.add_atom("C")
        g.add_bond(a, o)
        g.add_bond(o, b)
        return [a, o, b]
    if kind == "alkene":
        a, b = g.add_atom("C"), g.add_atom("C")
        g.add_bond(a, b, 2)
        return [a, b]
    if kind == "carbonyl":
        c, o = g.add_atom("C"), g.add_atom("O")
        g.add_bond(c, o, 2)
        return [c, o]
    if kind == "amide":
        c, o, n = g.add_atom("C"), g.add_atom("O"), g.add_atom("N")
        g.add_bond(c, o, 2)
        g.add_bond(c, n)
        return [c, o, n]
    if kind == "nitrile":
        c, n = g.add_atom("C"), g.add_atom("N")
        g.add_bond(c, n, 3)
        return [c, n]
    return [g.add_atom(rng.choice(("F", "Cl", "Br")))]


@dataclass
class Product:
    graph: Graph
    linkers: list[int]  # acyclic single bonds joining blocks: the cut candidates


def build_product(rng: random.Random, target: int, hi: int, stereo_share: float) -> Product:
    """A tree of ring and chain blocks joined by single bonds, with
    ``target``..``hi`` heavy atoms (at most two above ``target``), every
    atom mapped 1..n in random order."""
    while True:
        g = Graph()
        linkers: list[int] = []
        # A ring alone has no linker to cut, so small products start small.
        _add_block(g, rng.choice(RING_BLOCKS if target >= 8 else SMALL_BLOCKS[:4]), rng)
        stalled = 0
        while len(g.atoms) < target and stalled < 20:
            room = target - len(g.atoms)
            pool = SMALL_BLOCKS if room < 6 else RING_BLOCKS + SMALL_BLOCKS
            kind = rng.choice(pool)
            anchors = [i for i in range(len(g.atoms)) if g.hydrogens(i) >= 1]
            if not anchors:
                break
            before = len(g.atoms)
            block = _add_block(g, kind, rng)
            sites = [i for i in block if g.hydrogens(i) >= 1]
            if len(g.atoms) > hi or not sites:
                g = _truncate(g, before)
                stalled += 1
                continue
            linkers.append(g.add_bond(rng.choice(anchors), rng.choice(sites)))
        if target <= len(g.atoms) <= hi and linkers:
            break
    maps = list(range(1, len(g.atoms) + 1))
    rng.shuffle(maps)
    for atom, value in zip(g.atoms, maps):
        atom["map"] = value
    if stereo_share:
        _decorate_stereo(g, rng, stereo_share)
    return Product(graph=g, linkers=linkers)


def _truncate(g: Graph, n_atoms: int) -> Graph:
    keep = Graph()
    for spec in g.atoms[:n_atoms]:
        keep.add_atom(spec["el"], spec["ar"])
    for a, b, order, _ in g.bonds:
        if a < n_atoms and b < n_atoms:
            keep.add_bond(a, b, order)
    return keep


def _ring_bonds(g: Graph) -> set[int]:
    """Bonds on a cycle: those whose removal keeps their ends connected."""
    found = set()
    for index, (a, b, _, _) in enumerate(g.bonds):
        seen, stack = {a}, [a]
        while stack:
            atom = stack.pop()
            for bond in g.adj[atom]:
                if bond == index:
                    continue
                nbr = g.other(bond, atom)
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if b in seen:
            found.add(index)
    return found


def _decorate_stereo(g: Graph, rng: random.Random, share: float) -> None:
    """Tag a share of sp3 carbons with three or more heavy neighbours
    ``@``/``@@``, and mark the flanking single bonds of acyclic C=C bonds
    with ``/``/``\\``.  The marks are lexical, as in the program."""
    for atom, spec in enumerate(g.atoms):
        sp3 = not spec["ar"] and all(g.bonds[b][2] == 1 for b in g.adj[atom])
        if spec["el"] == "C" and sp3 and len(g.adj[atom]) >= 3 and rng.random() < share:
            spec["chiral"] = rng.choice(("@", "@@"))
    cyclic = _ring_bonds(g)
    for index, (a, b, order, _) in enumerate(g.bonds):
        if order != 2 or g.atoms[a]["el"] != "C" or g.atoms[b]["el"] != "C":
            continue
        flanks = []
        for end in (a, b):
            options = [
                x for x in g.adj[end]
                if x != index and g.bonds[x][2] == 1 and x not in cyclic and not g.bonds[x][3]
            ]
            flanks.append(rng.choice(options) if options else None)
        if None in flanks or rng.random() >= share:
            continue
        for end, bond in zip((a, b), flanks):
            mark = rng.choice(("/", "\\"))
            # Store the mark read away from the double bond.
            g.bonds[bond][3] = mark if g.bonds[bond][0] == end else FLIP[mark]


# ------------------------------------------------------------ reactions

LEAVING = ("Cl", "Br", "I", "O", "B")
REAGENTS = ("O", "CCO", "ClCCl", "CN(C)C=O", "CCN(CC)CC")


@dataclass
class Reaction:
    rid: str
    name: str
    reaction_class: str
    split: str
    smiles: str
    product: Graph
    reactants: Graph  # product minus the cut bonds, plus leaving groups
    parts: list[list[int]]  # reactant components, in SMILES order
    label: list[int]


def make_reaction(rng, rid, name, reaction_class, split, size, hi, stereo_share, two_cuts) -> Reaction:
    """Cut one or two linker bonds of a fresh product of ``size`` heavy
    atoms; one side of each cut may carry a leaving group.  The expected
    label is the set of maps on the cut bonds: a bond formed across
    reactant molecules labels both ends, and a bond to a vanished leaving
    atom labels only the survivor, which is already an end of the cut."""
    product = build_product(rng, size, hi, stereo_share)
    g = product.graph
    cuts = rng.sample(product.linkers, 2 if two_cuts and len(product.linkers) > 1 else 1)
    reactants = g.copy(drop_bonds=set(cuts))
    label: set[int] = set()
    for cut in cuts:
        a, b = g.bonds[cut][0], g.bonds[cut][1]
        label.update((g.atoms[a]["map"], g.atoms[b]["map"]))
        if rng.random() < 0.7:
            anchor = rng.choice((a, b))
            element = rng.choice(LEAVING)
            leaving = reactants.add_atom(element)
            reactants.add_bond(anchor, leaving)
            if element == "B":
                for _ in range(2):
                    reactants.add_bond(leaving, reactants.add_atom("O"))
    parts = reactants.components()
    rng.shuffle(parts)
    reactant_text = ".".join(write_smiles(reactants, part) for part in parts)
    reagent = rng.choice(REAGENTS) if rng.random() < 0.3 else ""
    product_text = write_smiles(g, list(range(len(g.atoms))))
    return Reaction(
        rid=rid,
        name=name,
        reaction_class=reaction_class,
        split=split,
        smiles=f"{reactant_text}>{reagent}>{product_text}",
        product=g,
        reactants=reactants,
        parts=parts,
        label=sorted(label),
    )


def row_of(reaction: Reaction) -> dict:
    return {
        "id": reaction.rid,
        "reaction_smiles": reaction.smiles,
        "reaction_name": reaction.name,
        "reaction_class": reaction.reaction_class,
        "split": reaction.split,
    }


# ------------------------------------------------------------ names

CORES = (
    ("Amide coupling", "Acylation"),
    ("Ester hydrolysis", "Deprotection"),
    ("Boc deprotection", "Deprotection"),
    ("Suzuki coupling", "C-C bond formation"),
    ("Negishi coupling", "C-C bond formation"),
    ("Heck reaction", "C-C bond formation"),
    ("Sonogashira coupling", "C-C bond formation"),
    ("Buchwald-Hartwig amination", "Heteroatom alkylation and arylation"),
    ("Chan-Lam coupling", "Heteroatom alkylation and arylation"),
    ("Williamson ether synthesis", "Heteroatom alkylation and arylation"),
    ("N-alkylation of secondary amine", "Heteroatom alkylation and arylation"),
    ("Reductive amination", "Heteroatom alkylation and arylation"),
    ("Mitsunobu reaction", "Functional group interconversion"),
    ("Ketone reduction", "Reduction"),
    ("Nitro reduction", "Reduction"),
    ("Alkene hydrogenation", "Reduction"),
    ("Alcohol oxidation", "Oxidation"),
    ("Sulfide oxidation", "Oxidation"),
    ("Fischer esterification", "Acylation"),
    ("Schotten-Baumann acylation", "Acylation"),
    ("Sulfonamide formation", "Acylation"),
    ("Urea formation", "Acylation"),
    ("Carbamate formation", "Protection"),
    ("TBS protection", "Protection"),
    ("Benzyl protection", "Protection"),
    ("Grignard addition", "C-C bond formation"),
    ("Wittig olefination", "C-C bond formation"),
    ("Aldol condensation", "C-C bond formation"),
    ("Friedel-Crafts acylation", "C-C bond formation"),
    ("Nucleophilic aromatic substitution", "Heteroatom alkylation and arylation"),
    ("Halogenation", "Functional group addition"),
    ("Nitration", "Functional group addition"),
    ("Epoxidation", "Oxidation"),
    ("Cyanation", "Functional group addition"),
    ("Azide-alkyne cycloaddition", "Heterocycle formation"),
    ("Paal-Knorr pyrrole synthesis", "Heterocycle formation"),
    ("Hantzsch thiazole synthesis", "Heterocycle formation"),
    ("Ullmann condensation", "Heteroatom alkylation and arylation"),
    ("Stille coupling", "C-C bond formation"),
    ("Kumada coupling", "C-C bond formation"),
)


def reaction_names(count: int) -> list[tuple[str, str]]:
    """``count`` distinct (name, class) pairs; beyond the core list, a
    core gets a numbered route, as in a fine-grained catalog."""
    names = []
    for k in range(count):
        core, reaction_class = CORES[k % len(CORES)]
        route = k // len(CORES)
        names.append((core if route == 0 else f"{core} (route {route:03d})", reaction_class))
    return names


# ------------------------------------------------------------ answers

@dataclass(frozen=True)
class Spec:
    """One workload's size and answer menu.

    ``transition_mix`` gives the share of eval rows per canned-answer
    kind (position answers always follow ``POSITION_MIX``); ``failing``
    is the share of requests per arm that must fail by design: left
    unseeded in replay, answered with a non-retryable HTTP 400 "context"
    reply by the live stub.
    """

    names: int
    train_per_name: int
    eval_rows: int
    atoms: tuple[int, int]
    stereo_share: float
    failing: float
    rejects: float
    fillers: int
    transition_mix: tuple[tuple[str, float], ...]
    live: bool = False


POSITION_MIX = (("exact", 0.45), ("partial", 0.30), ("miss", 0.15), ("dropped", 0.10))


def _assign(rng: random.Random, ids: list[str], mix) -> dict[str, str]:
    """Exact per-kind counts (largest remainder), shuffled over ids."""
    counts = [int(share * len(ids)) for _, share in mix]
    remainders = sorted(
        range(len(mix)), key=lambda k: -(mix[k][1] * len(ids) - counts[k])
    )
    for k in remainders[: len(ids) - sum(counts)]:
        counts[k] += 1
    kinds = [kind for (kind, _), count in zip(mix, counts) for _ in range(count)]
    rng.shuffle(kinds)
    return dict(zip(ids, kinds))


def _fence(rng: random.Random, obj: dict, prose: str) -> str:
    text = json.dumps(obj)
    style = rng.randrange(3)
    if style == 0:
        return text
    if style == 1:
        return f"```json\n{text}\n```"
    return f"{prose}\n\n{text}"


def position_answer(rng, reaction: Reaction, kind: str, ontology_names, ontology_class) -> str:
    """The canned position answer of one kind: ``exact`` names the label
    (plus a disjoint decoy site), ``partial`` overlaps it, ``miss`` avoids
    it, and ``dropped`` has no valid item."""
    g = reaction.product
    token = {a["map"]: f"{g.symbol(i)}:{a['map']}" for i, a in enumerate(g.atoms)}
    label = reaction.label
    others = [m for m in sorted(token) if m not in label]
    rng.shuffle(others)

    def entry(site, name, importance, priority):
        reaction_class = ontology_class.get(name, "Unlisted")
        return {
            "disconnection": " ".join(token.get(m, f"C:{m}") for m in site),
            "reactions": [
                {
                    "forwardReaction": name,
                    "forwardReactionClass": reaction_class,
                    "Retrosynthesis Importance": importance,
                    "Priority": priority,
                    "isInOntology": name in ontology_class,
                    "rationale": f"cut between mapped atoms {' and '.join(map(str, site))}",
                }
            ],
        }

    decoy_name = rng.choice(ontology_names)
    if kind == "exact":
        entries = [entry(label, reaction.name, 4, 1), entry(others[:2], decoy_name, 2, 2)]
    elif kind == "partial":
        entries = [entry([label[0], others[0]], f"Unlisted transformation {rng.randrange(100)}", 3, 1)]
    elif kind == "miss":
        entries = [entry(others[:2], decoy_name, 3, 1)]
    else:
        bad = max(token) + 10
        entries = [entry([bad], reaction.name, 4, 1), entry(label, reaction.name, 9, 1)]
    prose = "Looking for the strategic bonds in this product."
    return _fence(rng, {"disconnections": entries}, prose)


TEMPLATE_RADIUS = 2
# A decoy template gets one element no generated molecule contains, so
# it cannot embed anywhere in its reactant.
DECOY_ELEMENT = {False: "Si", True: "Se"}


def _induced(g: Graph, atoms: list[int]) -> Graph:
    index = {atom: k for k, atom in enumerate(atoms)}
    sub = Graph()
    for atom in atoms:
        sub.atoms.append(dict(g.atoms[atom]))
        sub.adj.append([])
    for a, b, order, mark in g.bonds:
        if a in index and b in index:
            sub.bonds[sub.add_bond(index[a], index[b], order)][3] = mark
    return sub


def _template_part(g: Graph, part, label, rng, decoy: bool) -> tuple[str, int, int, int]:
    """A reaction template from one reactant: the atoms within
    TEMPLATE_RADIUS bonds of the reactant's disconnection atoms, with
    the next shell and every unmapped atom as wildcards.  The template is
    a subgraph of the reactant, so it embeds; a decoy swaps one kept atom
    for DECOY_ELEMENT.

    Returns (SMILES, kept mapped atoms, kept atoms, reactant atoms)."""
    centers = [a for a in part if g.atoms[a]["map"] in label]
    distance = {a: 0 for a in centers}
    frontier = list(centers)
    for step in range(1, TEMPLATE_RADIUS + 2):
        reached = []
        for atom in frontier:
            for bond in g.adj[atom]:
                nbr = g.other(bond, atom)
                if nbr not in distance:
                    distance[nbr] = step
                    reached.append(nbr)
        frontier = reached
    chosen = sorted(distance)
    sub = _induced(g, chosen)
    if len(sub.components()) > 1:
        chosen, distance = list(part), {a: 0 for a in part}
        sub = _induced(g, chosen)
    for k, atom in enumerate(chosen):
        spec = sub.atoms[k]
        if spec["map"] is None or distance[atom] > TEMPLATE_RADIUS:
            spec.update(wild=True, ar=False, chiral=None)
    kept = [k for k, spec in enumerate(sub.atoms) if not spec["wild"]]
    if decoy:
        swapped = sub.atoms[rng.choice(kept)]
        swapped["el"] = DECOY_ELEMENT[swapped["ar"]]
    mapped_kept = sum(1 for k in kept if sub.atoms[k]["map"] is not None)
    return write_smiles(sub, list(range(len(chosen)))), mapped_kept, len(kept), len(part)


def transition_answer(rng, reaction: Reaction, kind: str, fillers: int) -> tuple[str, bool, bool]:
    """The canned transition answer of one kind, with whether it earns
    template_acc and template_acc_alt.  Apart from a malformed answer,
    the first permutation is the kind's; ``fillers`` more permutations
    follow that can never score (a wrong reactant set, a decoy template),
    as models list several permutations."""
    r = reaction.reactants
    spelled = [
        write_smiles(r, part, maps=False)
        if r.has_stereo(part)
        else write_smiles(r, part, maps=False, rng=rng)
        for part in reaction.parts
    ]
    rng.shuffle(spelled)
    wrong = spelled[1:] if len(spelled) > 1 else spelled + ["[OH2]"]

    def perm(reactants, valid=True, template=False, why=""):
        return {"reactants": reactants, "is_valid": valid, "is_template": template, "reasoning": why}

    def template(decoy: bool) -> list[tuple[str, int, int, int]]:
        return [_template_part(r, part, reaction.label, rng, decoy) for part in reaction.parts]

    template_hit = alt_hit = False
    if kind == "malformed":
        perms = [perm(["[CH2]1[CH2][CH]("], why="truncated output")]
    else:
        if kind == "exact":
            perms = [perm(spelled, why="the cut reverses cleanly")]
        elif kind == "invalid":
            perms = [perm(spelled, valid=False, why="doubtful under these conditions")]
        elif kind == "wrong":
            perms = [perm(wrong, why="one fragment was missed")]
        else:
            pieces = template(kind == "decoy")
            perms = [perm([p[0] for p in pieces], template=True, why="generalised substituents")]
            if kind == "template":
                # Shares are map counts over the template's kept atoms and
                # over the reactant's atoms, as the program computes them.
                template_hit = all(p[1] / p[2] >= SHARE_THRESHOLD for p in pieces)
                alt_hit = all(p[1] / p[3] >= SHARE_THRESHOLD for p in pieces)
        for k in range(fillers):
            if k % 2 == 0:
                perms.append(perm(wrong, why="a partial guess"))
            else:
                perms.append(perm([p[0] for p in template(True)], template=True, why="a looser template"))
    obj = {"reaction_analysis": [{"forward_reaction_name": reaction.name, "reactant_permutations": perms}]}
    return _fence(rng, obj, "Reversing the marked disconnection."), template_hit, alt_hit


# ------------------------------------------------------------ workloads

SPECS = {
    # Many names, small molecules: prompt size, few-shot sampling and
    # cache reads dominate, chemistry does little.
    "catalog": Spec(
        names=800,
        train_per_name=1,
        eval_rows=160,
        atoms=(6, 14),
        stereo_share=0.0,
        failing=0.02,
        rejects=0.01,
        fillers=1,
        transition_mix=(("exact", 0.5), ("invalid", 0.1), ("wrong", 0.3), ("template", 0.05), ("malformed", 0.05)),
    ),
    # Few names, drug-sized stereo molecules: chemistry, labels, output
    # parsing and scoring dominate.
    "drug": Spec(
        names=20,
        train_per_name=3,
        eval_rows=110,
        atoms=(25, 45),
        stereo_share=0.5,
        failing=0.01,
        rejects=0.01,
        fillers=3,
        transition_mix=(("exact", 0.4), ("invalid", 0.05), ("wrong", 0.2), ("template", 0.2), ("decoy", 0.1), ("malformed", 0.05)),
    ),
    # Every request goes to the loopback stub: latency-bound.
    "live": Spec(
        names=100,
        train_per_name=1,
        eval_rows=80,
        atoms=(10, 30),
        stereo_share=0.0,
        failing=0.02,
        rejects=0.0,
        fillers=1,
        transition_mix=(("exact", 0.5), ("invalid", 0.1), ("wrong", 0.3), ("template", 0.05), ("malformed", 0.05)),
        live=True,
    ),
}


@dataclass
class Workload:
    """Generated inputs, canned answers and the oracle of one workload."""

    name: str
    spec: Spec
    raw_rows: list[dict]
    train_rows: list[dict]
    eval_ids: list[str]
    labels: dict[str, list[int]]
    reject_ids: list[str]
    ontology: list[dict]
    position_answers: dict[str, str]
    transition_answers: dict[str, str]
    failing_position: set[str]
    failing_transition: set[str]
    expected: dict = field(default_factory=dict)
    properties: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = json.dumps(
            [self.raw_rows, self.train_rows, self.position_answers, self.transition_answers,
             sorted(self.failing_position), sorted(self.failing_transition)],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def designed_failed_share(self) -> Fraction:
        return Fraction(
            len(self.failing_position) + len(self.failing_transition), 2 * len(self.eval_ids)
        )


def generate(name: str, seed: int) -> Workload:
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    lo, hi = spec.atoms
    names = reaction_names(spec.names)
    ontology_class = dict(names)

    def reaction(k: int, rid: str, reaction_name: str, reaction_class: str, split: str) -> Reaction:
        # Sizes and cut counts follow the row number, so every seed has
        # the same size mix and only the structures vary.
        size = lo + k % (hi - lo - 1)
        return make_reaction(
            rng, rid, reaction_name, reaction_class, split, size, hi, spec.stereo_share, k % 10 < 3
        )

    train, evals = [], []
    for k, (reaction_name, reaction_class) in enumerate(names):
        for j in range(spec.train_per_name):
            row = k * spec.train_per_name + j
            train.append(reaction(row, f"t{k:04d}-{j}", reaction_name, reaction_class, "train"))
    for k in range(spec.eval_rows):
        reaction_name, reaction_class = rng.choice(names)
        evals.append(reaction(k, f"e{k:05d}", reaction_name, reaction_class, "test"))

    raw_rows = [row_of(r) for r in evals]
    reject_ids = []
    for k in range(round(spec.rejects * spec.eval_rows)):
        row = dict(rng.choice(raw_rows))
        row["id"] = f"x{k:04d}"
        row["reaction_smiles"] += "("  # unclosed branch in the product
        raw_rows.insert(rng.randrange(len(raw_rows) + 1), row)
        reject_ids.append(row["id"])

    eval_ids = [r.rid for r in evals]
    n_failing = round(spec.failing * spec.eval_rows)
    failing_position = set(rng.sample(eval_ids, n_failing))
    failing_transition = set(rng.sample(eval_ids, n_failing))

    ontology_names = [n for n, _ in names]
    position_kind = _assign(rng, eval_ids, POSITION_MIX)
    transition_kind = _assign(rng, eval_ids, spec.transition_mix)
    position_answers, transition_answers = {}, {}
    template_ids, alt_ids = set(), set()
    for reaction in evals:
        rid = reaction.rid
        position_answers[rid] = position_answer(
            rng, reaction, position_kind[rid], ontology_names, ontology_class
        )
        text, hit, alt = transition_answer(rng, reaction, transition_kind[rid], spec.fillers)
        transition_answers[rid] = text
        if hit:
            template_ids.add(rid)
        if alt:
            alt_ids.add(rid)

    ontology = [
        {"id": n, "class": c} for n, c in sorted(names, key=lambda item: normalized(item[0]))
    ]

    def kinds(table, wanted, failing):
        return sorted(rid for rid, kind in table.items() if kind in wanted and rid not in failing)

    ok_position = len(eval_ids) - len(failing_position)
    ok_transition = len(eval_ids) - len(failing_transition)
    expected = {
        "position": {
            "exact_match": kinds(position_kind, ("exact",), failing_position),
            "failed_predictions": len(failing_position) + len(kinds(position_kind, ("dropped",), failing_position)),
            "ok_rows": ok_position,
            "failure_rows": sorted(failing_position),
        },
        "transition": {
            "reactant_acc": kinds(transition_kind, ("exact",), failing_transition),
            "template_acc": sorted(template_ids - failing_transition),
            "template_acc_alt": sorted(alt_ids - failing_transition),
            "failed_predictions": len(failing_transition) + len(kinds(transition_kind, ("malformed",), failing_transition)),
            "ok_rows": ok_transition,
            "failure_rows": sorted(failing_transition),
        },
    }

    heavy = [len(r.product.atoms) for r in evals]
    stereo_atoms = sum(1 for r in evals for a in r.product.atoms if a["chiral"])
    properties = {
        "eval_rows": len(evals),
        "train_rows": len(train),
        "raw_rows": len(raw_rows),
        "distinct_names": len({r.name for r in evals + train}),
        "mean_heavy_atoms": round(sum(heavy) / len(heavy), 2),
        "stereo_atom_share": round(stereo_atoms / sum(heavy), 4),
        "marked_bond_rows": sum(1 for r in evals if any(b[3] for b in r.product.bonds)),
        "rejected_share": round(len(reject_ids) / len(raw_rows), 4),
        "failing_share": str(Fraction(len(failing_position) + len(failing_transition), 2 * len(eval_ids))),
    }
    return Workload(
        name=name,
        spec=spec,
        raw_rows=raw_rows,
        train_rows=[row_of(r) for r in train],
        eval_ids=eval_ids,
        labels={r.rid: r.label for r in evals},
        reject_ids=sorted(reject_ids),
        ontology=ontology,
        position_answers=position_answers,
        transition_answers=transition_answers,
        failing_position=failing_position,
        failing_transition=failing_transition,
        expected=expected,
        properties=properties,
    )
