"""Tests for per-example scoring and report aggregation."""

from __future__ import annotations

import csv
import json
import random

import pytest

from retroanchor import metrics
from retroanchor.chem import AtomMapSet, parse_smiles, substructure_match
from retroanchor.metrics import (
    ConfusionLabel,
    EvaluationReport,
    PositionScore,
    TransitionScore,
    aggregate,
    atom_share,
    find_template_assignment,
    jaccard,
    reactant_multiset,
    representative_candidate,
    score_position,
    score_transition,
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
        reactants=tuple(parse_smiles(r) for r in reactants),
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
        score = score_position([_cand({2, 4})], AtomMapSet.of({2, 4}), "Amide coupling")
        assert score.partial_match
        assert score.best_jaccard == 1.0
        assert score.exact_match
        assert score.reaction_match is True

    def test_half_jaccard(self):
        score = score_position([_cand({1})], AtomMapSet.of({1, 2}), "Amide coupling")
        assert score.partial_match
        assert score.best_jaccard == 0.5
        assert not score.exact_match

    def test_tie_eligibility_restricts_reaction_match(self):
        cands = [
            _cand({1, 2}, name="Wrong reaction"),
            _cand({1}, name="Right reaction"),
        ]
        score = score_position(cands, AtomMapSet.of({1, 2}), "Right reaction")
        assert score.best_jaccard == 1.0
        assert score.reaction_match is False

    def test_ties_at_best_are_all_eligible(self):
        cands = [
            _cand({1, 2}, name="Wrong reaction"),
            _cand({1, 2}, name="Right reaction"),
        ]
        score = score_position(cands, AtomMapSet.of({1, 2}), "right  REACTION")
        assert score.reaction_match is True

    def test_no_candidates_is_failed(self):
        score = score_position([], AtomMapSet.of({1}), "X")
        assert score.failed
        assert score.best_jaccard == 0.0
        assert score.reaction_match is None
        assert score.n_predictions == 0

    def test_disjoint_candidates_no_partial(self):
        score = score_position([_cand({9})], AtomMapSet.of({1, 2}), "X")
        assert not score.partial_match
        assert score.reaction_match is None
        assert not score.failed

    def test_in_ontology_view_requires_membership(self):
        cands = [_cand({1, 2}, name="Right reaction", in_ontology=False)]
        score = score_position(cands, AtomMapSet.of({1, 2}), "Right reaction")
        assert score.reaction_match is True
        assert score.reaction_match_in_ontology is False

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            score_position([_cand({1})], AtomMapSet.of(()), "X")


class TestRepresentativeCandidate:
    def test_best_jaccard_wins(self):
        cands = [_cand({9}, name="far"), _cand({1, 2}, name="near")]
        chosen = representative_candidate(cands, AtomMapSet.of({1, 2}))
        assert chosen.reaction_name == "near"

    def test_tie_breaks_by_priority_then_order(self):
        cands = [
            _cand({1, 2}, name="second", priority=2),
            _cand({2, 1}, name="first", priority=1),
            _cand({1, 2}, name="also-first", priority=1),
        ]
        chosen = representative_candidate(cands, AtomMapSet.of({1, 2}))
        assert chosen.reaction_name == "first"

    def test_empty_returns_none(self):
        assert representative_candidate([], AtomMapSet.of({1})) is None


class TestReactantMultiset:
    def test_order_insensitive_equality(self):
        a = reactant_multiset([parse_smiles("CC(=O)O"), parse_smiles("CN")])
        b = reactant_multiset([parse_smiles("CN"), parse_smiles("OC(C)=O")])
        assert a == b

    def test_maps_are_ignored(self):
        a = reactant_multiset([parse_smiles("[CH3:1][C:2](=[O:3])[OH:4]")])
        b = reactant_multiset([parse_smiles("CC(=O)O")])
        assert a == b

    def test_multiplicity_matters(self):
        a = reactant_multiset([parse_smiles("CC"), parse_smiles("CC")])
        b = reactant_multiset([parse_smiles("CC")])
        assert a != b

    def test_ignore_stereo_flag(self):
        chiral = [parse_smiles("N[C@@H](C)C(=O)O")]
        flat = [parse_smiles("NC(C)C(=O)O")]
        assert reactant_multiset(chiral) != reactant_multiset(flat)
        assert reactant_multiset(chiral, ignore_stereo=True) == reactant_multiset(
            flat, ignore_stereo=True
        )


GT_ACID = parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[OH:5]")
GT_AMINE = parse_smiles("[CH3:6][NH2:7]")


class TestAtomShare:
    def test_four_of_five_template_atoms(self):
        template = parse_smiles("C[CH2:2][C:3](=[O:4])[OH:5]")
        assert atom_share(template, GT_ACID) == pytest.approx(0.8)
        assert atom_share(template, GT_ACID, denominator="gt") == pytest.approx(0.8)

    def test_wildcards_excluded_from_template_denominator(self):
        template = parse_smiles("[*][CH2:2][C:3](=[O:4])[OH:5]")
        assert atom_share(template, GT_ACID) == pytest.approx(1.0)

    def test_unmapped_template_shares_nothing(self):
        template = parse_smiles("CCC(=O)O")
        assert atom_share(template, GT_ACID) == 0.0

    def test_all_wildcard_template_is_zero(self):
        template = parse_smiles("[*]")
        assert atom_share(template, GT_ACID) == 0.0

    def test_bad_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            atom_share(GT_ACID, GT_ACID, denominator="both")


class TestTemplateAssignment:
    def test_single_pair_above_threshold(self):
        template = parse_smiles("C[CH2:2][C:3](=[O:4])[OH:5]")
        assignment = find_template_assignment((template,), [GT_ACID], {})
        assert assignment == [(0, 0)]

    def test_exact_threshold_accepted(self):
        # 3 mapped of 4 non-wildcard heavy atoms: share exactly 0.75
        template = parse_smiles("C[C:3](=[O:4])[OH:5]")
        assert atom_share(template, GT_ACID) == pytest.approx(0.75)
        assert find_template_assignment((template,), [GT_ACID], {}) is not None

    def test_below_threshold_rejected(self):
        template = parse_smiles("CC[C:3](=[O:4])O")
        assert atom_share(template, GT_ACID) == pytest.approx(0.4)
        assert find_template_assignment((template,), [GT_ACID], {}) is None

    def test_share_without_embedding_rejected(self):
        # maps agree but the double bond is drawn single: no embedding
        template = parse_smiles("[CH3:1][CH2:2][C:3]([OH:4])[OH:5]")
        assert atom_share(template, GT_ACID) == pytest.approx(1.0)
        assert find_template_assignment((template,), [GT_ACID], {}) is None

    def test_injective_two_by_two(self):
        t_acid = parse_smiles("C[CH2:2][C:3](=[O:4])[OH:5]")
        t_amine = parse_smiles("[CH3:6][NH2:7]")
        assignment = find_template_assignment((t_amine, t_acid), [GT_ACID, GT_AMINE], {})
        assert assignment == [(0, 1), (1, 0)]

    def test_wildcard_anchors_onto_real_atom(self):
        gt_ester = parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[O:5]C")
        template = parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[O:5][*]")
        assert find_template_assignment((template,), [gt_ester], {}) == [(0, 0)]
        # the acid has no sixth heavy atom for the wildcard to land on
        assert find_template_assignment((template,), [GT_ACID], {}) is None

    def test_one_template_cannot_cover_two_gt(self):
        t_acid = parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[OH:5]")
        assert find_template_assignment((t_acid,), [GT_ACID, GT_AMINE], {}) is None

    def test_extra_template_reactants_allowed(self):
        templates = (
            parse_smiles("[*]Br"),
            parse_smiles("[CH3:6][NH2:7]"),
            parse_smiles("[CH3:1][CH2:2][C:3](=[O:4])[OH:5]"),
        )
        assignment = find_template_assignment(templates, [GT_ACID, GT_AMINE], {})
        assert assignment == [(0, 2), (1, 1)]

    def test_certificate_reverifies(self):
        from retroanchor.chem import substructure_match

        templates = (
            parse_smiles("[CH3:6][NH2:7]"),
            parse_smiles("C[CH2:2][C:3](=[O:4])[OH:5]"),
        )
        gt = [GT_ACID, GT_AMINE]
        assignment = find_template_assignment(templates, gt, {})
        assert assignment is not None
        for gt_idx, t_idx in assignment:
            assert atom_share(templates[t_idx], gt[gt_idx]) >= 0.75
            assert substructure_match(templates[t_idx], gt[gt_idx])


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
        assert atom_share(template, GT_ACID) == pytest.approx(1.0)
        assert atom_share(template, GT_ACID, denominator="gt") == pytest.approx(0.6)
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

        monkeypatch.setattr(metrics, "substructure_match", counting_match)
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


class TestScoreInvariants:
    def test_exact_requires_unit_jaccard(self):
        with pytest.raises(ValueError):
            PositionScore(
                partial_match=True,
                best_jaccard=0.5,
                exact_match=True,
                reaction_match=False,
                reaction_match_in_ontology=False,
                n_predictions=1,
                failed=False,
            )

    def test_reaction_match_defined_iff_partial(self):
        with pytest.raises(ValueError):
            PositionScore(
                partial_match=False,
                best_jaccard=0.0,
                exact_match=False,
                reaction_match=True,
                reaction_match_in_ontology=None,
                n_predictions=1,
                failed=False,
            )

    def test_combined_must_be_disjunction(self):
        with pytest.raises(ValueError):
            TransitionScore(
                template_acc=True,
                reactant_acc=False,
                combined_acc=False,
                template_acc_alt=False,
                n_predictions=1,
                failed=False,
            )


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


class TestAggregate:
    def test_partial_percentage(self):
        rows = [
            _pscore(True, 1.0, True, True, True),
            _pscore(True, 0.5, False, False, False),
            _pscore(False, 0.0, False),
            _pscore(True, 1.0, True, True, False),
        ]
        report = aggregate(rows)
        assert report.aggregates["partial_match_acc"] == 75.00
        assert report.aggregates["exact_match_acc"] == 50.00
        assert report.aggregates["mean_best_jaccard"] == 62.50
        assert report.denominators["reaction_acc"] == 3

    def test_reaction_acc_over_partial_rows_only(self):
        rows = [
            _pscore(True, 1.0, True, True, True),
            _pscore(True, 0.5, False, False, False),
            _pscore(False, 0.0, False),
        ]
        report = aggregate(rows)
        assert report.aggregates["reaction_acc"] == 50.00
        assert report.aggregates["reaction_acc_in_ontology"] == 50.00

    def test_scale_invariance(self):
        rows = [
            _pscore(True, 1.0, True, True, True),
            _pscore(False, 0.0, False),
            _pscore(True, 0.25, False, False, False, n=4),
        ]
        once = aggregate(rows)
        twice = aggregate(rows + rows)
        assert once.aggregates == twice.aggregates

    def test_prediction_counts(self):
        rows = [
            _pscore(True, 1.0, True, True, True, n=3),
            _pscore(False, 0.0, False, n=2),
            _pscore(False, 0.0, False, n=0, failed=True),
            _pscore(True, 0.5, False, False, False, n=4),
            _pscore(False, 0.0, False, n=2),
        ]
        report = aggregate(rows)
        assert report.counts["examples"] == 5
        assert report.counts["failed_predictions"] == 1
        assert report.counts["total_predictions"] == 11
        assert report.counts["avg_number_of_predictions"] == 2.75

    def test_all_failed_avg_zero(self):
        rows = [_pscore(False, 0.0, False, n=0, failed=True)] * 2
        report = aggregate(rows)
        assert report.counts["avg_number_of_predictions"] == 0.0
        assert report.counts["total_predictions"] == 0

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no score rows"):
            aggregate([])

    def test_confusion_conditioning_and_buckets(self):
        rows = [
            _pscore(True, 1.0, True, True, True),    # in matrix
            _pscore(True, 0.5, False, False, False), # excluded: pred out of ontology
            _pscore(False, 0.0, False),              # excluded: no partial
            _pscore(True, 1.0, True, False, False),  # in matrix, unclassified gt
        ]
        labels = [
            ConfusionLabel("Acylation", "Amide coupling", "Acylation", "Amide coupling"),
            ConfusionLabel("Acylation", "Amide coupling", None, None),
            ConfusionLabel("Oxidation", "Swern oxidation", "Oxidation", "Swern oxidation"),
            ConfusionLabel("", "", "Reduction", "Hydrogenation"),
        ]
        report = aggregate(rows, labels=labels)
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
            TransitionScore(True, False, True, True, 2, False),
            TransitionScore(False, True, True, False, 3, False),
            TransitionScore(False, False, False, False, 0, True),
        ]
        report = aggregate(rows, ids=["a", "b", "c"])
        assert report.kind == "transition"
        assert report.aggregates["template_acc"] == pytest.approx(33.33)
        assert report.aggregates["combined_acc"] == pytest.approx(66.67)
        assert report.counts["failed_predictions"] == 1
        assert report.rows[0]["id"] == "a"

    def test_transition_aggregate_ignores_labels(self):
        rows = [TransitionScore(True, False, True, True, 2, False)]
        label = ConfusionLabel("Acylation", "Amide coupling", "Acylation", "Amide coupling")
        assert aggregate(rows, labels=[label]) == aggregate(rows)

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="align"):
            aggregate([_pscore(False, 0.0, False)], labels=[None, None])


class TestWriteReport:
    def _report(self):
        rows = [
            _pscore(True, 1.0, True, True, True, n=2),
            _pscore(False, 0.0, False, n=1),
        ]
        labels = [
            ConfusionLabel("Acylation", "Amide coupling", "Acylation", "Amide coupling"),
            None,
        ]
        return aggregate(rows, labels=labels, ids=["ex1", "ex2"])

    def test_files_written_and_parse(self, tmp_path):
        paths = write_report(self._report(), tmp_path)
        data = json.loads(paths["report"].read_text())
        assert data["aggregates"]["partial_match_acc"] == 50.00
        with open(paths["rows"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["id"] for r in rows] == ["ex1", "ex2"]
        assert "Acylation" in paths["confusion_class"].read_text()
        assert "partial_match_acc" in paths["summary"].read_text()

    def test_deterministic_bytes(self, tmp_path):
        first = write_report(self._report(), tmp_path / "a")
        second = write_report(self._report(), tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()
