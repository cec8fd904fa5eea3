"""Shared test utilities: random molecule fabrication and independent
graph-comparison oracles that avoid the canonicalization code path."""

from __future__ import annotations

import itertools
import random

from retroanchor.chem.mol import (
    AROMATIC,
    BOND_ORDER,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    implicit_hydrogens,
)

_FLIP = {"/": "\\", "\\": "/"}


def atom_signature(atom: Atom) -> tuple:
    # None fields are mapped to impossible sentinel values (parser never
    # yields isotope/map 0 or an empty chirality) to keep tuples sortable.
    return (
        atom.element,
        atom.element_options,
        atom.aromatic,
        atom.charge,
        atom.isotope or 0,
        atom.implicit_h,
        atom.atom_map or 0,
        atom.chirality or "",
    )


def bonds_equivalent(b1: Bond, b2: Bond, same_direction: bool) -> bool:
    if b1.kind != b2.kind:
        return False
    s1, s2 = b1.stereo, b2.stereo
    if not same_direction and s2 is not None:
        s2 = _FLIP[s2]
    return s1 == s2


def molecules_isomorphic(m1: Molecule, m2: Molecule) -> bool:
    """Exact attributed-graph isomorphism by pruned backtracking.

    Compares every atom attribute (including maps and chirality tags)
    and every bond kind plus direction-adjusted stereo mark.  This is
    an oracle: it never consults canonical ordering.
    """
    if len(m1.atoms) != len(m2.atoms) or len(m1.bonds) != len(m2.bonds):
        return False
    if sorted(map(atom_signature, m1.atoms)) != sorted(map(atom_signature, m2.atoms)):
        return False

    order: list[int] = []
    for component in m1.components():
        seen = {component[0]}
        stack = [component[0]]
        while stack:
            current = stack.pop()
            order.append(current)
            for nbr, _ in m1.neighbors(current):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def candidates(idx: int) -> list[int]:
        anchors = [(q, b) for q, b in m1.neighbors(idx) if q in assignment]
        if anchors:
            q0, _ = anchors[0]
            return [t for t, _ in m2.neighbors(assignment[q0])]
        return list(range(len(m2.atoms)))

    def feasible(idx: int, target: int) -> bool:
        if atom_signature(m1.atoms[idx]) != atom_signature(m2.atoms[target]):
            return False
        if m1.degree(idx) != m2.degree(target):
            return False
        for q, b1 in m1.neighbors(idx):
            if q in assignment:
                b2 = m2.bond_between(target, assignment[q])
                if b2 is None or b1.kind != b2.kind:
                    return False
                # Normalize both stereo marks to the idx->q reading direction.
                s1 = b1.stereo if b1.a == idx else (_FLIP[b1.stereo] if b1.stereo else None)
                s2 = b2.stereo if b2.a == target else (_FLIP[b2.stereo] if b2.stereo else None)
                if s1 != s2:
                    return False
        return True

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        idx = order[depth]
        for target in candidates(idx):
            if target in used or not feasible(idx, target):
                continue
            assignment[idx] = target
            used.add(target)
            if backtrack(depth + 1):
                return True
            del assignment[idx]
            used.remove(target)
        return False

    return backtrack(0)


def brute_force_isomorphic(m1: Molecule, m2: Molecule) -> bool:
    """Isomorphism by exhaustive permutation; viable only for tiny graphs."""
    n = len(m1.atoms)
    if n != len(m2.atoms) or len(m1.bonds) != len(m2.bonds):
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            atom_signature(m1.atoms[i]) == atom_signature(m2.atoms[perm[i]])
            for i in range(n)
        ) and _bonds_match_under(m1, m2, perm):
            return True
    return False


def _bonds_match_under(m1: Molecule, m2: Molecule, perm) -> bool:
    for b1 in m1.bonds:
        x, y = perm[b1.a], perm[b1.b]
        b2 = m2.bond_between(x, y)
        if b2 is None:
            return False
        same_dir = (b2.a, b2.b) == (x, y)
        if not bonds_equivalent(b1, b2, same_direction=same_dir):
            return False
    return True


def permute_molecule(molecule: Molecule, rng: random.Random) -> Molecule:
    """Random graph-level relabeling: atom indices, bond order, bond
    endpoint spelling all shuffled; attributes ride along unchanged."""
    n = len(molecule.atoms)
    perm = list(range(n))
    rng.shuffle(perm)
    atoms: list[Atom | None] = [None] * n
    for old, atom in enumerate(molecule.atoms):
        atoms[perm[old]] = atom
    bonds = []
    for bond in molecule.bonds:
        a, b = perm[bond.a], perm[bond.b]
        if rng.random() < 0.5:
            stereo = _FLIP[bond.stereo] if bond.stereo else None
            bonds.append(Bond(a=b, b=a, kind=bond.kind, stereo=stereo))
        else:
            bonds.append(Bond(a=a, b=b, kind=bond.kind, stereo=bond.stereo))
    rng.shuffle(bonds)
    return Molecule(atoms=tuple(atoms), bonds=tuple(bonds))


_ELEMENT_POOL = ["C", "C", "C", "C", "N", "N", "O", "O", "S", "P", "F", "Cl", "Br", "I"]
_BUDGET = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1, "Cl": 1, "Br": 1, "I": 1}


def random_molecule(
    rng: random.Random,
    n_atoms: int | None = None,
    with_maps: bool = False,
    decorate: bool = True,
) -> Molecule:
    """A random connected molecule honoring default-valence budgets.

    Bare organic atoms get their default implicit hydrogen count so the
    writer can emit them bare; decorated atoms (charge, isotope, or a
    deliberately lowered hydrogen count) round-trip through brackets.
    """
    n = n_atoms if n_atoms is not None else rng.randint(1, 14)
    elements = [rng.choice(_ELEMENT_POOL) for _ in range(n)]
    budget = [_BUDGET[e] for e in elements]
    bonds: list[tuple[int, int, str]] = []

    def order_of(kind: str) -> int:
        return {SINGLE: 1, DOUBLE: 2, TRIPLE: 3}[kind]

    for i in range(1, n):
        partners = [j for j in range(i) if budget[j] >= 1]
        if not partners:
            elements[i] = "C"
            budget[i] = 4
            partners = [j for j in range(i) if budget[j] >= 1]
            if not partners:
                partners = [i - 1]
                budget[i - 1] = max(budget[i - 1], 1)
        j = rng.choice(partners)
        kind = SINGLE
        if budget[j] >= 3 and budget[i] >= 3 and rng.random() < 0.08:
            kind = TRIPLE
        elif budget[j] >= 2 and budget[i] >= 2 and rng.random() < 0.22:
            kind = DOUBLE
        bonds.append((j, i, kind))
        budget[j] -= order_of(kind)
        budget[i] -= order_of(kind)

    existing = {(min(a, b), max(a, b)) for a, b, _ in bonds}
    for _ in range(rng.randint(0, max(0, n // 5))):
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a == b or key in existing or budget[a] < 1 or budget[b] < 1:
            continue
        existing.add(key)
        bonds.append((key[0], key[1], SINGLE))
        budget[a] -= 1
        budget[b] -= 1

    order_sum = [0.0] * n
    for a, b, kind in bonds:
        order_sum[a] += BOND_ORDER[kind]
        order_sum[b] += BOND_ORDER[kind]

    atoms = []
    for i, element in enumerate(elements):
        default_h = implicit_hydrogens(element, False, order_sum[i])
        charge = 0
        isotope = None
        implicit_h = default_h
        if decorate and rng.random() < 0.08 and element in ("N", "O"):
            charge = rng.choice([-1, 1])
            implicit_h = max(0, default_h + charge) if element == "N" else max(0, default_h - abs(charge))
        if decorate and rng.random() < 0.05:
            isotope = rng.choice([2, 13, 15, 18, 37])
        if decorate and charge == 0 and rng.random() < 0.05 and default_h > 0:
            implicit_h = default_h - 1
        atoms.append(
            Atom(
                element=element,
                charge=charge,
                isotope=isotope,
                implicit_h=implicit_h,
                atom_map=None,
            )
        )

    if with_maps:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        atoms = [a._replace(atom_map=values[i]) for i, a in enumerate(atoms)]

    molecule = Molecule(
        atoms=tuple(atoms),
        bonds=tuple(Bond(a=a, b=b, kind=kind) for a, b, kind in bonds),
    )
    return molecule


def random_aromatic_molecule(rng: random.Random, with_maps: bool = False) -> Molecule:
    """A benzene or pyridine core with random acyclic substituents."""
    hetero = rng.random() < 0.4
    ring_elements = ["N" if hetero and k == 0 else "C" for k in range(6)]
    atoms = [Atom(element=e, aromatic=True, implicit_h=0 if e == "N" else 1) for e in ring_elements]
    bonds = [Bond(a=k, b=(k + 1) % 6, kind=AROMATIC) for k in range(6)]

    for k in range(6):
        if atoms[k].element == "N" or rng.random() > 0.3:
            continue
        substituent = rng.choice(["C", "O", "N", "Cl", "F"])
        idx = len(atoms)
        h = implicit_hydrogens(substituent, False, 1.0)
        atoms.append(Atom(element=substituent, implicit_h=h))
        bonds.append(Bond(a=k, b=idx, kind=SINGLE))
        atoms[k] = atoms[k]._replace(implicit_h=0)

    if with_maps:
        values = list(range(1, len(atoms) + 1))
        rng.shuffle(values)
        atoms = [a._replace(atom_map=values[i]) for i, a in enumerate(atoms)]
    return Molecule(atoms=tuple(atoms), bonds=tuple(bonds))


# ---------------------------------------------------------------------------
# Reaction fabrication and an independent label oracle.

def label_oracle_parts(record) -> tuple[set[int], set[int]]:
    """Connectivity-change and order-change map sets, computed by pure
    map-pair set arithmetic.

    Builds bond dictionaries keyed by frozen map pairs on each side and
    diffs them; never touches molecule objects beyond reading maps and
    bond kinds, so it shares no code path with the graph-walking
    implementation.
    """
    product = record.product
    product_maps = product.atom_maps()
    reactant_maps = set()
    for molecule in record.reactants:
        reactant_maps |= molecule.atom_maps()

    prod_pairs: dict[frozenset, str] = {}
    for bond in product.bonds:
        ma = product.atoms[bond.a].atom_map
        mb = product.atoms[bond.b].atom_map
        if ma is not None and mb is not None and ma in reactant_maps and mb in reactant_maps:
            prod_pairs[frozenset((ma, mb))] = bond.kind

    react_pairs: dict[frozenset, str] = {}
    half_broken: set[int] = set()
    for molecule in record.reactants:
        for bond in molecule.bonds:
            mx = molecule.atoms[bond.a].atom_map
            my = molecule.atoms[bond.b].atom_map
            x_in = mx is not None and mx in product_maps
            y_in = my is not None and my in product_maps
            if x_in and y_in:
                react_pairs[frozenset((mx, my))] = bond.kind
            elif x_in:
                half_broken.add(mx)
            elif y_in:
                half_broken.add(my)

    connectivity: set[int] = set(half_broken)
    for pair in prod_pairs:
        if pair not in react_pairs:
            connectivity |= pair
    for pair in react_pairs:
        if pair not in prod_pairs:
            connectivity |= pair

    order_changed: set[int] = set()
    for pair, kind in prod_pairs.items():
        if pair in react_pairs and react_pairs[pair] != kind:
            order_changed |= pair
    return connectivity, order_changed


def label_oracle(record) -> tuple[set[int], str]:
    """Expected disconnection label: connectivity beats order changes."""
    connectivity, order_changed = label_oracle_parts(record)
    if connectivity:
        return connectivity, "connectivity"
    if order_changed:
        return order_changed, "bond_order"
    return set(), "empty"


_LEAVING_ELEMENTS = ["Cl", "Br", "I", "O", "N", "C", "S"]


def random_labeled_reaction(rng) -> tuple["object", set[int], str]:
    """Fabricate a mapped reaction with a known disconnection label.

    Starts from a random mapped product, copies its graph to the reactant
    side, then applies a random mix of edits whose expected label is
    tracked directly from the edit list:

    * drop a reactant-side bond (the product bond was formed),
    * attach an unmapped or vanishing-map leaving atom to a reactant atom,
    * flip a bond between single and double on the reactant side.

    Returns (record, expected_maps, expected_kind).
    """
    from retroanchor.chem.mol import Atom, Bond, Molecule, implicit_hydrogens
    from retroanchor.chem.mol import BOND_ORDER, DEFAULT_VALENCES, DOUBLE, SINGLE
    from retroanchor.chem import write_smiles
    from retroanchor.datasets import record_from_row

    n_atoms = rng.randint(3, 10)
    product = random_molecule(rng, n_atoms=n_atoms, decorate=False)
    product = Molecule(
        atoms=tuple(
            Atom(element=a.element, atom_map=i + 1) for i, a in enumerate(product.atoms)
        ),
        bonds=product.bonds,
        source_text=None,
    )
    product = _with_default_hydrogens(product)

    atoms = [
        Atom(element=a.element, atom_map=a.atom_map, implicit_h=a.implicit_h)
        for a in product.atoms
    ]
    bonds: dict[frozenset, str] = {
        frozenset((b.a, b.b)): b.kind for b in product.bonds
    }

    def order_sum(idx: int) -> float:
        return sum(
            BOND_ORDER[kind] for pair, kind in bonds.items() if idx in pair
        )

    def capacity(idx: int) -> float:
        return max(DEFAULT_VALENCES[atoms[idx].element]) - order_sum(idx)

    expected: set[int] = set()
    order_changed: set[int] = set()
    touched: set[frozenset] = set()
    n_edits = rng.randint(1, 3)
    for _ in range(n_edits):
        move = rng.choice(["form", "leave", "order"])
        if move == "form" and bonds:
            pool = [
                p
                for p in sorted(bonds, key=sorted)
                if p not in touched and all(i < len(product.atoms) for i in p)
            ]
            if not pool:
                continue
            pair = pool[rng.randrange(len(pool))]
            touched.add(pair)
            del bonds[pair]
            expected |= {atoms[i].atom_map for i in pair}
        elif move == "leave":
            anchors = [i for i in range(len(product.atoms)) if capacity(i) >= 1]
            if not anchors:
                continue
            anchor = anchors[rng.randrange(len(anchors))]
            element = rng.choice(_LEAVING_ELEMENTS)
            vanishing_map = rng.random() < 0.4
            atoms.append(
                Atom(
                    element=element,
                    atom_map=(100 + len(atoms)) if vanishing_map else None,
                )
            )
            bonds[frozenset((anchor, len(atoms) - 1))] = SINGLE
            expected.add(atoms[anchor].atom_map)
        elif move == "order":
            singles = [
                p
                for p in sorted(bonds, key=sorted)
                if p not in touched
                and bonds[p] == SINGLE
                and all(i < len(product.atoms) for i in p)
            ]
            doubles = [
                p
                for p in sorted(bonds, key=sorted)
                if p not in touched
                and bonds[p] == DOUBLE
                and all(i < len(product.atoms) for i in p)
            ]
            raisable = [p for p in singles if all(capacity(i) >= 1 for i in p)]
            pool = raisable + doubles
            if not pool:
                continue
            pair = pool[rng.randrange(len(pool))]
            touched.add(pair)
            bonds[pair] = DOUBLE if bonds[pair] == SINGLE else SINGLE
            order_changed |= {atoms[i].atom_map for i in pair}

    if expected:
        kind = "connectivity"
    elif order_changed:
        expected = order_changed
        kind = "bond_order"
    else:
        kind = "empty"

    reactants = _split_components(atoms, bonds)
    smiles = ".".join(write_smiles(m) for m in reactants)
    reagent = ""
    if rng.random() < 0.3:
        reagent = rng.choice(["O", "CC(C)=O", "ClCCl", "CO"])
    reaction_smiles = f"{smiles}>{reagent}>{write_smiles(product)}"
    record = record_from_row(
        {
            "id": f"synth-{rng.randrange(10**9)}",
            "reaction_smiles": reaction_smiles,
            "reaction_name": "Synthetic step",
            "reaction_class": "Synthetic",
            "split": "train",
        }
    )
    return record, expected, kind


def _with_default_hydrogens(molecule):
    from retroanchor.chem.mol import Atom, Molecule, implicit_hydrogens
    from retroanchor.chem.mol import BOND_ORDER

    sums = [0.0] * len(molecule.atoms)
    for bond in molecule.bonds:
        sums[bond.a] += BOND_ORDER[bond.kind]
        sums[bond.b] += BOND_ORDER[bond.kind]
    atoms = tuple(
        Atom(
            element=a.element,
            atom_map=a.atom_map,
            implicit_h=implicit_hydrogens(a.element, False, sums[i]),
        )
        for i, a in enumerate(molecule.atoms)
    )
    return Molecule(atoms=atoms, bonds=molecule.bonds, source_text=None)


def _split_components(atoms, bonds) -> list:
    """Split an edited atom/bond soup into per-component molecules."""
    from retroanchor.chem.mol import Atom, Bond, Molecule

    adjacency: dict[int, set[int]] = {i: set() for i in range(len(atoms))}
    for pair in bonds:
        a, b = sorted(pair)
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[int] = set()
    molecules = []
    for start in range(len(atoms)):
        if start in seen:
            continue
        stack = [start]
        component = []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in sorted(adjacency[node]):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        component.sort()
        remap = {old: new for new, old in enumerate(component)}
        sub_bonds = tuple(
            Bond(a=remap[min(pair)], b=remap[max(pair)], kind=kind)
            for pair, kind in sorted(bonds.items(), key=lambda kv: sorted(kv[0]))
            if min(pair) in remap and max(pair) in remap
        )
        component_atoms = tuple(atoms[i] for i in component)
        molecule = Molecule(atoms=component_atoms, bonds=sub_bonds, source_text=None)
        molecules.append(_with_default_hydrogens(molecule))
    return molecules


# ---------------------------------------------------------------------------
# Golden end-to-end pipeline: shared by the acceptance suite and the
# freeze script that pins the expected report files.

GOLDEN_DIR = None  # set lazily to avoid importing pathlib at module import


def golden_fixture_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent / "fixtures" / "golden"


def golden_model_config():
    from retroanchor.gateway import ModelConfig

    return ModelConfig(model_id="golden-model", endpoint="", api_key_env="RETROANCHOR_API_KEY")


def seed_golden_caches(work, eval_path, ontology_path, train_path) -> None:
    """Plant the shipped canned completions for every golden eval row."""
    import json

    from retroanchor.chem import AtomMapSet
    from retroanchor.datasets import Ontology, ingest_dataset, sample_examples
    from retroanchor.gateway import seed_cache
    from retroanchor.prompts import (
        load_template,
        render_position_prompt,
        render_transition_prompt,
    )

    fixture_dir = golden_fixture_dir()
    position_texts = json.loads((fixture_dir / "completions" / "position.json").read_text())
    transition_texts = json.loads((fixture_dir / "completions" / "transition.json").read_text())

    records, _ = ingest_dataset(eval_path)
    train_records, _ = ingest_dataset(train_path)
    ontology_data = json.loads(ontology_path.read_text())
    ontology = Ontology.from_json_obj(ontology_data["entries"], ontology_data["source_split"])

    cfg = golden_model_config()
    cache = work / "cache"
    position_template = load_template("position")
    transition_template = load_template("transition")
    for record in records:
        rid = record.record_id
        prompt = render_position_prompt(record.product, ontology, position_template)
        seed_cache(cache, prompt, cfg, position_texts[rid])

        s = AtomMapSet.of(record.extra["label_maps"])
        library = sample_examples(train_records, record.reaction_name, rid, 5, 0)
        prompt = render_transition_prompt(
            record.product, s, record.reaction_name, library, "full", transition_template
        )
        seed_cache(cache, prompt, cfg, transition_texts[rid])


def run_golden_pipeline(work, eval_raw=None, train=None):
    """label -> ontology -> subsample -> replay runs -> evaluate, twice-runnable.

    ``eval_raw`` and ``train`` default to the golden fixture files; the
    cache is seeded with the golden completions of each eval row.
    Returns a dict of the produced paths.  Raises AssertionError if any
    command exits non-zero.
    """
    from pathlib import Path

    from retroanchor.cli import main

    work = Path(work)
    fixture_dir = golden_fixture_dir()
    train = Path(train or fixture_dir / "train.jsonl")
    eval_raw = Path(eval_raw or fixture_dir / "eval_raw.jsonl")
    labeled = work / "eval_labeled.jsonl"
    ontology = work / "ontology.json"
    eval_set = work / "eval.jsonl"
    run_pos = work / "run_position"
    run_trans = work / "run_transition"

    assert main(["label", "--input", str(eval_raw), "--output", str(labeled)]) == 0
    assert main(
        ["ontology", "--input", str(train), "--split", "train", "--output", str(ontology)]
    ) == 0
    assert main(
        ["subsample", "--input", str(labeled), "--split", "test", "--output", str(eval_set)]
    ) == 0

    seed_golden_caches(work, eval_set, ontology, train)

    common = ["--model", "golden-model", "--backend", "replay", "--cache-dir", str(work / "cache")]
    assert main(
        [
            "run-position",
            "--input", str(eval_set),
            "--ontology", str(ontology),
            "--output", str(run_pos),
            *common,
        ]
    ) == 0
    assert main(
        [
            "run-transition",
            "--input", str(eval_set),
            "--train", str(train),
            "--output", str(run_trans),
            *common,
        ]
    ) == 0
    assert main(["evaluate", "--run", str(run_pos), "--input", str(eval_set)]) == 0
    assert main(["evaluate", "--run", str(run_trans), "--input", str(eval_set)]) == 0

    return {
        "labeled": labeled,
        "ontology": ontology,
        "eval": eval_set,
        "run_position": run_pos,
        "run_transition": run_trans,
        "report_position": run_pos / "report",
        "report_transition": run_trans / "report",
    }


# ---------------------------------------------------------------------------
# Metamorphic transforms of the golden inputs.  Each takes the eval and
# train rows (lists of dicts, left unchanged) and an rng, and returns new
# row lists that mean the same to the pipeline.


def shuffle_rows(eval_rows, train_rows, rng):
    """Both files in a random row order that differs from the given one."""
    out = []
    for rows in (eval_rows, train_rows):
        shuffled = list(rows)
        while len(rows) > 1 and shuffled == rows:
            rng.shuffle(shuffled)
        out.append(shuffled)
    return tuple(out)


def reverse_rows(eval_rows, train_rows, rng):
    return eval_rows[::-1], train_rows[::-1]


def respell_a_name(eval_rows, train_rows, rng):
    """A copy of the first train row whose name no other row carries, under
    a new id and another spelling of that name (case and spacing), put
    before every other train row: the name now has two spellings, one row
    each."""
    from retroanchor.utils import normalize_name

    names = [row["reaction_name"] for row in train_rows]
    row = next(r for r in train_rows if names.count(r["reaction_name"]) == 1)
    words = row["reaction_name"].split()
    variant = "  ".join([words[0].lower()] + [w.capitalize() for w in words[1:]])
    assert variant != row["reaction_name"] and normalize_name(variant) == normalize_name(row["reaction_name"])
    return eval_rows, [{**row, "id": row["id"] + "-respelled", "reaction_name": variant}, *train_rows]


def respell_atom_order(eval_rows, train_rows, rng):
    """Every molecule of every eval row written from a random atom order,
    atom maps kept (``permute_molecule``; stereo tags ride along as
    attributes).  Train rows keep their spellings: few-shot examples
    quote them verbatim."""
    from retroanchor.chem import parse_smiles, write_smiles

    def respell(text):
        if not text:
            return text
        molecule = parse_smiles(text)
        spellings = (write_smiles(permute_molecule(molecule, rng)) for _ in range(20))
        return next((spelled for spelled in spellings if spelled != text), text)

    rows = []
    for row in eval_rows:
        sides = row["reaction_smiles"].split(">")
        spelled = ">".join(".".join(respell(m) for m in side.split(".")) for side in sides)
        rows.append({**row, "reaction_smiles": spelled})
    return rows, train_rows


_REAGENTS = ("O", "CCO", "[Na+]", "[Cl-]", "C1CCOC1")


def _map_reagents(rows, rewrite):
    out = []
    for row in rows:
        reactants, reagents, product = row["reaction_smiles"].split(">")
        out.append({**row, "reaction_smiles": f"{reactants}>{rewrite(reagents)}>{product}"})
    return out


def add_reagents(eval_rows, train_rows, rng):
    """Every row of both files with 2 to 5 distinct unmapped reagents in
    its reagent segment, in a random order; no prompt or score reads them."""
    def rewrite(_reagents):
        return ".".join(rng.sample(_REAGENTS, rng.randint(2, 5)))

    return _map_reagents(eval_rows, rewrite), _map_reagents(train_rows, rewrite)


def reverse_reagents(eval_rows, train_rows, rng):
    """Every row's reagents in reverse order."""
    def rewrite(reagents):
        return ".".join(reagents.split(".")[::-1])

    return _map_reagents(eval_rows, rewrite), _map_reagents(train_rows, rewrite)
