"""Tests for per-example scoring and report aggregation."""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import permute_molecule, random_aromatic_molecule, random_labeled_reaction, random_molecule
from retroanchor import metrics
from retroanchor.chem import AtomMapSet, canon, strip_atom_maps, strip_stereo
from retroanchor.chem.canon import canonical_smiles
from retroanchor.chem.match import substructure_match
from retroanchor.chem.smiles import parse_smiles, write_smiles
from retroanchor.metrics import (
    ConfusionLabel,
    EvaluationReport,
    PositionScore,
    TransitionScore,
    aggregate,
    atom_shares,
    jaccard,
    reactant_multiset,
    score_position,
    score_transition,
    template_cover,
    write_report,
)
from retroanchor.outputs import DisconnectionCandidate, TransitionPrediction


def _cand(maps, name="Amide coupling", priority=1, importance=4, in_ontology=True):
    return DisconnectionCandidate(
        s=AtomMapSet.of(maps),
        reaction_name=name,
        reaction_class="Acylation",
        in_ontology=in_ontology,
        importance=importance,
        priority=priority,
        rationale="",
    )


def _pred(reactants, is_valid=True, is_template=False, name="Amide coupling"):
    return TransitionPrediction(
        reactants=tuple(reactants),
        is_valid=is_valid,
        is_template=is_template,
        reasoning="",
        reaction_name=name,
    )


class TestJaccard:
    def test_identity_is_one(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_is_zero(self):
        assert jaccard({1}, {2}) == 0.0

    def test_half_overlap(self):
        assert jaccard({1}, {1, 2}) == 0.5

    def test_accepts_map_sets(self):
        assert jaccard(AtomMapSet.of({1, 2}), AtomMapSet.of({2, 3})) == pytest.approx(1 / 3)

    def test_both_empty_is_one(self):
        assert jaccard(set(), set()) == 1.0

    def test_oracle_agreement_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(300):
            a = {rng.randrange(12) for _ in range(rng.randrange(8))}
            b = {rng.randrange(12) for _ in range(rng.randrange(8))}
            expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
            value = jaccard(a, b)
            assert value == expected
            assert 0.0 <= value <= 1.0

    def test_monotone_under_shared_element(self):
        rng = random.Random(7)
        for _ in range(100):
            a = {rng.randrange(10) for _ in range(rng.randrange(1, 6))}
            b = {rng.randrange(10) for _ in range(rng.randrange(1, 6))}
            fresh = max(a | b) + 1
            assert jaccard(a | {fresh}, b | {fresh}) >= jaccard(a, b)


class TestScorePosition:
    def test_identity_candidate(self):
        score, _ = score_position([_cand({2, 4})], AtomMapSet.of({2, 4}), "Amide coupling", "")
        assert score.partial_match
        assert score.best_jaccard == 1.0
        assert score.exact_match
        assert score.reaction_match is True

    def test_half_jaccard(self):
        score, _ = score_position([_cand({1})], AtomMapSet.of({1, 2}), "Amide coupling", "")
        assert score.partial_match
        assert score.best_jaccard == 0.5
        assert not score.exact_match

    def test_tie_eligibility_restricts_reaction_match(self):
        cands = [
            _cand({1, 2}, name="Wrong reaction"),
            _cand({1}, name="Right reaction"),
        ]
        score, _ = score_position(cands, AtomMapSet.of({1, 2}), "Right reaction", "")
        assert score.best_jaccard == 1.0
        assert score.reaction_match is False

    def test_ties_at_best_are_all_eligible(self):
        cands = [
            _cand({1, 2}, name="Wrong reaction"),
            _cand({1, 2}, name="Right reaction"),
        ]
        score, _ = score_position(cands, AtomMapSet.of({1, 2}), "right  REACTION", "")
        assert score.reaction_match is True

    def test_no_candidates_is_failed(self):
        score, _ = score_position([], AtomMapSet.of({1}), "X", "")
        assert score.failed
        assert score.best_jaccard == 0.0
        assert score.reaction_match is None
        assert score.n_predictions == 0

    def test_disjoint_candidates_no_partial(self):
        score, _ = score_position([_cand({9})], AtomMapSet.of({1, 2}), "X", "")
        assert not score.partial_match
        assert score.reaction_match is None
        assert not score.failed

    def test_in_ontology_view_requires_membership(self):
        cands = [_cand({1, 2}, name="Right reaction", in_ontology=False)]
        score, _ = score_position(cands, AtomMapSet.of({1, 2}), "Right reaction", "")
        assert score.reaction_match is True
        assert score.reaction_match_in_ontology is False

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            score_position([_cand({1})], AtomMapSet.of(()), "X", "")


class TestRepresentativeCandidate:
    """The candidate whose name the confusion matrices count for an example."""

    def test_best_jaccard_wins(self):
        cands = [_cand({9}, name="far"), _cand({1, 2}, name="near")]
        _, label = score_position(cands, AtomMapSet.of({1, 2}), "gt", "Gt class")
        assert label == ConfusionLabel("Gt class", "gt", "Acylation", "near")

    def test_tie_breaks_by_priority_then_order(self):
        cands = [
            _cand({1, 2}, name="second", priority=2),
            _cand({2, 1}, name="first", priority=1),
            _cand({1, 2}, name="also-first", priority=1),
        ]
        _, label = score_position(cands, AtomMapSet.of({1, 2}), "gt", "Gt class")
        assert label.name_pred == "first"

    def test_empty_returns_none(self):
        _, label = score_position([], AtomMapSet.of({1}), "gt", "Gt class")
        assert label == ConfusionLabel("Gt class", "gt", None, None)

    def test_representative_outside_ontology_names_nothing(self):
        # A tied candidate with a worse priority is in the ontology, but
        # only the representative may name the example.
        cands = [
            _cand({1, 2}, name="outside", priority=1, in_ontology=False),
            _cand({1, 2}, name="inside", priority=2),
        ]
        score, label = score_position(cands, AtomMapSet.of({1, 2}), "inside", "Gt class")
        assert label == ConfusionLabel("Gt class", "inside", None, None)
        assert score.reaction_match_in_ontology is True


class TestReactantMultiset:
    def test_order_insensitive_equality(self):
        a = reactant_multiset(["CC(=O)O", "CN"])
        b = reactant_multiset(["CN", "OC(C)=O"])
        assert a == b

    def test_maps_are_ignored(self):
        a = reactant_multiset(["[CH3:1][C:2](=[O:3])[OH:4]"])
        b = reactant_multiset(["CC(=O)O"])
        assert a == b

    def test_multiplicity_matters(self):
        a = reactant_multiset(["CC", "CC"])
        b = reactant_multiset(["CC"])
        assert a != b

    def test_ignore_stereo_flag(self):
        chiral = ["N[C@@H](C)C(=O)O"]
        flat = ["NC(C)C(=O)O"]
        assert reactant_multiset(chiral) != reactant_multiset(flat)
        assert reactant_multiset(chiral, ignore_stereo=True) == reactant_multiset(
            flat, ignore_stereo=True
        )


CORPUS_PATH = Path(__file__).parent / "fixtures" / "smiles_corpus.txt"


def _uncached_multiset(molecules, ignore_stereo):
    texts = []
    for molecule in molecules:
        stripped = strip_atom_maps(molecule)
        if ignore_stereo:
            stripped = strip_stereo(stripped)
        texts.append(canonical_smiles(stripped))
    return Counter(texts)


class TestCanonicalMemo:
    """``reactant_multiset`` reads through ``chem.canon.canonical_text``, the one
    text-to-canonical-text cache."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(canon, "_CANONICAL_TEXTS", {})

    def test_memoized_multiset_equals_unmemoized_in_either_order(self):
        rng = random.Random(21)
        corpus = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
        generated = [random_molecule(rng, with_maps=True) for _ in range(30)]
        generated += [random_aromatic_molecule(rng, with_maps=True) for _ in range(30)]
        permuted = [permute_molecule(parse_smiles(t), rng) for t in corpus[::4]] + [
            permute_molecule(m, rng) for m in generated
        ]
        # Colons outside brackets are aromatic bonds, not atom maps.
        bonds = ["c1cc:c:cc1[CH3:5]", "[cH:1]1:c:c:c:c:c:1", "C1:C:C:C:C:C:1", "[13CH3:2]c1ccccc:1"]
        texts = corpus + [write_smiles(m, include_maps=True) for m in generated + permuted] + bonds
        reactant_sets = [texts[k : k + 3] for k in range(0, len(texts), 3)]
        # The second order reads what the first order wrote.
        for order in (reactant_sets, reactant_sets[::-1]):
            for reactants in order:
                for ignore_stereo in (False, True):
                    expected = _uncached_multiset([parse_smiles(t) for t in reactants], ignore_stereo)
                    assert reactant_multiset(reactants, ignore_stereo) == expected
        # Each key's text, without the maps, is a spelling of the molecule it serves.
        assert len(canon._CANONICAL_TEXTS) > len(corpus)
        for (text, include_maps, ignore_stereo), canonical in canon._CANONICAL_TEXTS.items():
            assert not include_maps
            assert _uncached_multiset([parse_smiles(text)], ignore_stereo) == Counter([canonical])

    def test_repeated_reactant_text_is_canonicalized_once_per_stereo_setting(self, monkeypatch):
        calls = []

        def counting(molecule, include_maps=False):
            calls.append(molecule)
            return canonical_smiles(molecule, include_maps)

        monkeypatch.setattr(canon, "canonical_smiles", counting)
        texts = ["[CH3:1][C:2](=[O:3])[OH:4]", "CN"]
        gt = [parse_smiles(t) for t in texts]
        # A text that differs only in its atom maps shares the entry; the
        # first prediction misses, so the second is scored too.
        preds = [_pred(["CN"]), _pred(["CN", "[CH3:7][C:8](=[O:9])[OH:10]"])]
        for ignore_stereo in (False, True):
            for _ in range(3):  # three examples sharing the reactants
                assert score_transition(preds, gt, ignore_stereo=ignore_stereo).reactant_acc
            assert len(calls) == len(texts) * (1 + ignore_stereo)

    def test_truth_reactants_are_read_from_their_parsed_molecules(self, monkeypatch):
        parses = []
        monkeypatch.setattr(canon, "parse_smiles", lambda text: parses.append(text) or parse_smiles(text))
        gt = [parse_smiles("[CH3:1][C:2](=[O:3])[OH:4]"), parse_smiles("CN")]
        for ignore_stereo in (False, True):
            assert score_transition([_pred(["NC", "OC(C)=O"])], gt, ignore_stereo=ignore_stereo).reactant_acc
        assert parses == ["NC", "OC(C)=O"] * 2  # the prediction's texts, never the truth's


GT_ACID = parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[OH:5]")
GT_AMINE = parse_smiles("[CH3:6][NH2:7]")


class TestAtomShare:
    def test_four_of_five_template_atoms(self):
        template = parse_smiles("C[CH2:2][C:3](=[O:4])[OH:5]")
        assert atom_shares(template, GT_ACID)[0] == pytest.approx(0.8)
        assert atom_shares(template, GT_ACID)[1] == pytest.approx(0.8)

    def test_wildcards_excluded_from_template_denominator(self):
        template = parse_smiles("[*][CH2:2][C:3](=[O:4])[OH:5]")
        assert atom_shares(template, GT_ACID)[0] == pytest.approx(1.0)

    def test_unmapped_template_shares_nothing(self):
        template = parse_smiles("CCC(=O)O")
        assert atom_shares(template, GT_ACID)[0] == 0.0

    def test_all_wildcard_template_is_zero(self):
        template = parse_smiles("[*]")
        assert atom_shares(template, GT_ACID)[0] == 0.0


def _brute_force_cover(templates, gt, side):
    """Try every injective template pick for the ground-truth reactants;
    exponential, oracle only."""
    return any(
        all(
            atom_shares(templates[t_idx], g)[side] >= metrics.TEMPLATE_SHARE_THRESHOLD
            and substructure_match(templates[t_idx], g)
            for t_idx, g in zip(pick, gt)
        )
        for pick in itertools.permutations(range(len(templates)), len(gt))
    )


T_ACID = "C[CH2:2][C:3](=[O:4])[OH:5]"
T_AMINE = "[CH3:6][NH2:7]"
# (template reactant texts, ground-truth reactants) for every case below
COVER_CASES = {
    "single pair": ([T_ACID], [GT_ACID]),
    "exact threshold": (["C[C:3](=[O:4])[OH:5]"], [GT_ACID]),
    "below threshold": (["CC[C:3](=[O:4])O"], [GT_ACID]),
    "share without embedding": (["[CH3:1][CH2:2][C:3]([OH:4])[OH:5]"], [GT_ACID]),
    "injective two by two": ([T_AMINE, T_ACID], [GT_ACID, GT_AMINE]),
    "wildcard onto ester": (
        ["[CH3:1][CH2:2][C:3](=[O:4])[O:5][*]"],
        [parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[O:5]C")],
    ),
    "wildcard with nowhere to land": (["[CH3:1][CH2:2][C:3](=[O:4])[O:5][*]"], [GT_ACID]),
    "one template for two": (["[CH3:1][CH2:2][C:3](=[O:4])[OH:5]"], [GT_ACID, GT_AMINE]),
    "extra template reactants": (
        ["[*]Br", T_AMINE, "[CH3:1][CH2:2][C:3](=[O:4])[OH:5]"],
        [GT_ACID, GT_AMINE],
    ),
    "first pairing undone": (
        ["[CH3:1][CH2:2][*]", "[CH3:1][CH2:2][OH:3]"],
        [parse_smiles("[CH3:1][CH2:2][OH:3]"), parse_smiles("[CH3:1][CH2:2][NH2:4]")],
    ),
}


class TestTemplateAssignment:
    def _cover(self, name):
        texts, gt = COVER_CASES[name]
        return template_cover(tuple(parse_smiles(t) for t in texts), gt)(0)

    def test_single_pair_above_threshold(self):
        assert self._cover("single pair")

    def test_exact_threshold_accepted(self):
        # 3 mapped of 4 non-wildcard heavy atoms: share exactly 0.75
        template = parse_smiles("C[C:3](=[O:4])[OH:5]")
        assert atom_shares(template, GT_ACID)[0] == pytest.approx(0.75)
        assert self._cover("exact threshold")

    def test_below_threshold_rejected(self):
        template = parse_smiles("CC[C:3](=[O:4])O")
        assert atom_shares(template, GT_ACID)[0] == pytest.approx(0.4)
        assert not self._cover("below threshold")

    def test_share_without_embedding_rejected(self):
        # maps agree but the double bond is drawn single: no embedding
        template = parse_smiles("[CH3:1][CH2:2][C:3]([OH:4])[OH:5]")
        assert atom_shares(template, GT_ACID)[0] == pytest.approx(1.0)
        assert not self._cover("share without embedding")

    def test_injective_two_by_two(self):
        assert self._cover("injective two by two")

    def test_wildcard_anchors_onto_real_atom(self):
        assert self._cover("wildcard onto ester")
        # the acid has no sixth heavy atom for the wildcard to land on
        assert not self._cover("wildcard with nowhere to land")

    def test_one_template_cannot_cover_two_gt(self):
        assert not self._cover("one template for two")

    def test_extra_template_reactants_allowed(self):
        assert self._cover("extra template reactants")

    def test_first_pairing_undone(self):
        # The wildcard template passes on the first ground-truth reactant
        # but is the only one that fits the second, so the search must
        # give it up and pair the first with the alcohol template.
        assert self._cover("first pairing undone")

    @pytest.mark.parametrize("name", sorted(COVER_CASES))
    def test_agrees_with_brute_force(self, name):
        texts, gt = COVER_CASES[name]
        templates = tuple(parse_smiles(t) for t in texts)
        cover = template_cover(templates, gt)
        for side in (0, 1):
            assert cover(side) == _brute_force_cover(templates, gt, side)


class TestScoreTransition:
    def test_reactant_multiset_is_order_insensitive(self):
        preds = [_pred(["CC(=O)O", "CN"])]
        gt = [parse_smiles("CN"), parse_smiles("CC(=O)O")]
        score = score_transition(preds, gt)
        assert score.reactant_acc
        assert score.combined_acc

    def test_template_route(self):
        preds = [_pred(["C[CH2:2][C:3](=[O:4])[OH:5]"], is_template=True)]
        score = score_transition(preds, [GT_ACID])
        assert score.template_acc
        assert score.template_acc_alt
        assert not score.reactant_acc
        assert score.combined_acc

    def test_all_invalid_predictions_score_false(self):
        preds = [
            _pred(["CC(=O)O", "CN"], is_valid=False),
            _pred(["C[CH2:2][C:3](=[O:4])[OH:5]"], is_valid=False, is_template=True),
        ]
        gt = [parse_smiles("CC(=O)O"), parse_smiles("CN")]
        score = score_transition(preds, gt)
        assert not score.template_acc
        assert not score.reactant_acc
        assert not score.combined_acc

    def test_empty_predictions_failed(self):
        score = score_transition([], [GT_ACID])
        assert score.failed
        assert not score.combined_acc
        assert score.n_predictions == 0

    def test_template_flag_required_for_template_route(self):
        # a fragment that passes the template criteria but, taken as a
        # plain reactant set, is not multiset-equal to the ground truth
        preds = [_pred(["[C:3](=[O:4])[OH:5]"], is_template=False)]
        score = score_transition(preds, [GT_ACID])
        assert not score.template_acc
        assert not score.reactant_acc
        assert not score.combined_acc

    def test_denominator_views_can_disagree(self):
        # template: 3 of 3 non-wildcard heavies mapped (share 1.0), but
        # only 3 of the gt's 5 heavies covered (share 0.6)
        template = parse_smiles("[C:3](=[O:4])[OH:5]")
        preds = [_pred(["[C:3](=[O:4])[OH:5]"], is_template=True)]
        assert atom_shares(template, GT_ACID) == pytest.approx((1.0, 0.6))
        score = score_transition(preds, [GT_ACID])
        assert score.template_acc
        assert not score.template_acc_alt

    def test_each_template_pair_embedded_once(self, monkeypatch):
        # Both denominators pass on both pairs; the second prediction is
        # never tried because both routes already hold.
        calls = []

        def counting_match(template, gt):
            calls.append((template.source_text, gt.source_text))
            return substructure_match(template, gt)

        monkeypatch.setattr("retroanchor.chem.match.substructure_match", counting_match)
        reactants = ["[CH3:6][NH2:7]", "[CH3:1][CH2:2][C:3](=[O:4])[OH:5]"]
        preds = [_pred(reactants, is_template=True), _pred(reactants, is_template=True)]
        score = score_transition(preds, [GT_ACID, GT_AMINE])
        assert score.template_acc and score.template_acc_alt
        assert sorted(calls) == sorted(
            [(reactants[1], GT_ACID.source_text), (reactants[0], GT_AMINE.source_text)]
        )

    def test_stereo_flag_forwarded(self):
        preds = [_pred(["NC(C)C(=O)O"])]
        gt = [parse_smiles("N[C@@H](C)C(=O)O")]
        assert not score_transition(preds, gt).reactant_acc
        assert score_transition(preds, gt, ignore_stereo=True).reactant_acc

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            score_transition([_pred(["CC"])], [])


def _random_site(rng, label: set[int]) -> set[int]:
    """``label`` less a few of its maps (or all of them) plus a few maps
    outside it; never empty."""
    dropped = rng.sample(sorted(label), min(len(label), rng.choice((0, 0, 1, 2, len(label)))))
    foreign = range(max(label) + 1, max(label) + 1 + rng.choice((0, 0, 1, 3)))
    return (label - set(dropped)) | set(foreign) or {max(label) + 1}


def _position_cases(seed: int):
    """300 (candidates, label, name) triples over the labels of random mapped
    reactions.  A fifth of the candidate lists are empty, and one label in
    ten is widened to 100-160 maps, so that a site one map short of it
    has a best Jaccard in [0.99, 1)."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < 300:
        record, label, _kind = random_labeled_reaction(rng)
        if not label:
            continue
        if rng.random() < 0.1:
            label = set(range(1, rng.randint(100, 160)))
        names = (record.reaction_name, record.reaction_name.upper(), "Other reaction")
        cands = [
            _cand(_random_site(rng, label), name=rng.choice(names), priority=rng.randint(1, 3),
                  in_ontology=rng.random() < 0.7)
            for _ in range(0 if rng.random() < 0.2 else rng.randint(1, 4))
        ]
        cases.append((cands, AtomMapSet.of(label), record.reaction_name))
    return cases


class TestScoreProperties:
    """Each score field that derives from another, checked on what the
    scorers build for random inputs: the records check nothing."""

    @pytest.fixture(scope="class")
    def position_scores(self):
        return [score_position(cands, label, name, "")[0] for cands, label, name in _position_cases(37)]

    def test_exact_match_is_a_best_jaccard_of_one(self, position_scores):
        for score in position_scores:
            assert score.exact_match == (score.best_jaccard == 1.0), score
        assert any(score.exact_match for score in position_scores)
        assert any(0.99 <= score.best_jaccard < 1.0 for score in position_scores)

    def test_reaction_match_is_set_exactly_on_a_partial_match(self, position_scores):
        for score in position_scores:
            assert (score.reaction_match is None) == (not score.partial_match), score
            assert (score.reaction_match_in_ontology is None) == (not score.partial_match), score
        assert {score.partial_match for score in position_scores if score.n_predictions} == {True, False}
        assert {score.reaction_match for score in position_scores} == {None, True, False}

    def test_failed_is_no_prediction(self, position_scores):
        for score in position_scores:
            assert score.failed == (score.n_predictions == 0), score
        assert {score.failed for score in position_scores} == {True, False}

    def test_combined_acc_is_template_or_reactant_acc(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(150):
            record, _label, _kind = random_labeled_reaction(rng)
            truth = list(record.reactants)
            texts = [molecule.source_text for molecule in truth]
            decoy = [write_smiles(random_molecule(rng)) for _ in range(rng.randint(1, 2))]
            preds = [
                _pred(rng.choice((texts, texts[::-1], texts[:1], decoy)),
                      is_valid=rng.random() < 0.7, is_template=rng.random() < 0.4)
                for _ in range(rng.randint(0, 4))
            ]
            score = score_transition(preds, truth)
            assert score.combined_acc == (score.template_acc or score.reactant_acc), score
            seen.add((score.template_acc, score.reactant_acc))
        assert seen == set(itertools.product((False, True), repeat=2))


def _pscore(partial, best, exact, reaction=None, in_ont=None, n=1, failed=False):
    return PositionScore(
        partial_match=partial,
        best_jaccard=best,
        exact_match=exact,
        reaction_match=reaction,
        reaction_match_in_ontology=in_ont,
        n_predictions=n,
        failed=failed,
    )


def _rows(*scores):
    """Unlabelled report rows with ids "0", "1", ..."""
    return [(str(i), score, None) for i, score in enumerate(scores)]


class TestAggregate:
    def test_partial_percentage(self):
        rows = _rows(
            _pscore(True, 1.0, True, True, True),
            _pscore(True, 0.5, False, False, False),
            _pscore(False, 0.0, False),
            _pscore(True, 1.0, True, True, False),
        )
        report = aggregate(rows)
        assert report.aggregates["partial_match_acc"] == 75.00
        assert report.aggregates["exact_match_acc"] == 50.00
        assert report.aggregates["mean_best_jaccard"] == 62.50
        assert report.denominators["reaction_acc"] == 3

    def test_reaction_acc_over_partial_rows_only(self):
        rows = _rows(
            _pscore(True, 1.0, True, True, True),
            _pscore(True, 0.5, False, False, False),
            _pscore(False, 0.0, False),
        )
        report = aggregate(rows)
        assert report.aggregates["reaction_acc"] == 50.00
        assert report.aggregates["reaction_acc_in_ontology"] == 50.00

    def test_scale_invariance(self):
        rows = _rows(
            _pscore(True, 1.0, True, True, True),
            _pscore(False, 0.0, False),
            _pscore(True, 0.25, False, False, False, n=4),
        )
        once = aggregate(rows)
        twice = aggregate(rows + rows)
        assert once.aggregates == twice.aggregates

    def test_prediction_counts(self):
        rows = _rows(
            _pscore(True, 1.0, True, True, True, n=3),
            _pscore(False, 0.0, False, n=2),
            _pscore(False, 0.0, False, n=0, failed=True),
            _pscore(True, 0.5, False, False, False, n=4),
            _pscore(False, 0.0, False, n=2),
        )
        report = aggregate(rows)
        assert report.counts["examples"] == 5
        assert report.counts["failed_predictions"] == 1
        assert report.counts["total_predictions"] == 11
        assert report.counts["avg_number_of_predictions"] == 2.75

    def test_all_failed_avg_zero(self):
        rows = _rows(*[_pscore(False, 0.0, False, n=0, failed=True)] * 2)
        report = aggregate(rows)
        assert report.counts["avg_number_of_predictions"] == 0.0
        assert report.counts["total_predictions"] == 0

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no score rows"):
            aggregate([])

    def test_confusion_conditioning_and_buckets(self):
        rows = [
            # in matrix
            ("a", _pscore(True, 1.0, True, True, True),
             ConfusionLabel("Acylation", "Amide coupling", "Acylation", "Amide coupling")),
            # excluded: pred out of ontology
            ("b", _pscore(True, 0.5, False, False, False),
             ConfusionLabel("Acylation", "Amide coupling", None, None)),
            # excluded: no partial
            ("c", _pscore(False, 0.0, False),
             ConfusionLabel("Oxidation", "Swern oxidation", "Oxidation", "Swern oxidation")),
            # in matrix, unclassified gt
            ("d", _pscore(True, 1.0, True, False, False),
             ConfusionLabel("", "", "Reduction", "Hydrogenation")),
        ]
        report = aggregate(rows)
        assert report.confusion_class == {
            "Acylation": {"Acylation": 1},
            "Miscellaneous": {"Reduction": 1},
        }
        assert report.confusion_name == {
            "Amide coupling": {"Amide coupling": 1},
            "Miscellaneous": {"Hydrogenation": 1},
        }

    def test_transition_aggregate(self):
        rows = [
            ("a", TransitionScore(True, False, True, True, 2, False), None),
            ("b", TransitionScore(False, True, True, False, 3, False), None),
            ("c", TransitionScore(False, False, False, False, 0, True), None),
        ]
        report = aggregate(rows)
        assert report.kind == "transition"
        assert report.aggregates["template_acc"] == pytest.approx(33.33)
        assert report.aggregates["combined_acc"] == pytest.approx(66.67)
        assert report.counts["failed_predictions"] == 1
        assert report.rows[0]["id"] == "a"

    def test_transition_aggregate_ignores_labels(self):
        score = TransitionScore(True, False, True, True, 2, False)
        label = ConfusionLabel("Acylation", "Amide coupling", "Acylation", "Amide coupling")
        assert aggregate([("a", score, label)]) == aggregate([("a", score, None)])


class TestWriteReport:
    def _report(self):
        return aggregate([
            ("ex1", _pscore(True, 1.0, True, True, True, n=2),
             ConfusionLabel("Acylation", "Amide coupling", "Acylation", "Amide coupling")),
            ("ex2", _pscore(False, 0.0, False, n=1), None),
        ])

    def test_files_written_and_parse(self, tmp_path):
        paths = write_report(self._report(), tmp_path)
        data = json.loads(paths["report"].read_text())
        assert data["aggregates"]["partial_match_acc"] == 50.00
        with open(paths["rows"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["id"] for r in rows] == ["ex1", "ex2"]
        assert "Acylation" in paths["confusion_class"].read_text()
        assert "partial_match_acc" in paths["summary"].read_text()

    def test_carriage_return_in_model_text_round_trips(self, tmp_path):
        # The predicted class and name are model text; a bare \r in either
        # must not split a confusion CSV row.
        label = ConfusionLabel("Acylation", "Amide coupling", "Acyl\ration", "Amide\rcoupling")
        report = aggregate([("ex1", _pscore(True, 1.0, True, True, True), label)])
        paths = write_report(report, tmp_path)
        for key, gt, pred in (
            ("confusion_class", "Acylation", "Acyl\ration"),
            ("confusion_name", "Amide coupling", "Amide\rcoupling"),
        ):
            with open(paths[key], newline="", encoding="utf-8") as handle:
                assert list(csv.reader(handle)) == [["gt\\pred", pred], [gt, "1"]]

    def test_rows_csv_is_what_dict_writer_writes(self, tmp_path):
        # Model text in the name columns holds every character CSV quotes;
        # a row without a label leaves those columns empty.
        text = 'a,b "c"\rd\ne'
        report = aggregate([
            ("ex1", _pscore(True, 1.0, True, True, True, n=2), ConfusionLabel("Acylation", text, "Acylation", text + ",")),
            ("ex2", _pscore(False, 0.0, False, n=1), None),
            ('ex"3', _pscore(True, 0.5, False, False, False), ConfusionLabel("", "\r", None, None)),
        ])
        reference = io.StringIO()
        writer = csv.DictWriter(reference, fieldnames=list(report.rows[0]))
        writer.writeheader()
        writer.writerows(report.rows)
        assert write_report(report, tmp_path)["rows"].read_bytes() == reference.getvalue().encode("utf-8")

    def test_deterministic_bytes(self, tmp_path):
        first = write_report(self._report(), tmp_path / "a")
        second = write_report(self._report(), tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()
