"""Tests for dataset ingestion, ontology building, and sampling."""

from __future__ import annotations

import json
import random
import re

import pytest

from retroanchor.datasets import (
    DatasetError,
    Ontology,
    build_ontology,
    ingest_dataset,
    parse_reaction_smiles,
    record_from_row,
    retro_example_text,
    sample_examples,
    subsample_eval_set,
)
from retroanchor.utils import normalize_name


def _row(record_id, name="Amide coupling", cls="Acylation", split="train", smiles="CCO.CBr>>CCOC"):
    return {
        "id": record_id,
        "reaction_smiles": smiles,
        "reaction_name": name,
        "reaction_class": cls,
        "split": split,
    }


def _record(record_id, **kwargs):
    return record_from_row(_row(record_id, **kwargs))


class TestParseReactionSmiles:
    def test_splits_three_segments(self):
        reactants, reagents, product = parse_reaction_smiles("CC.O>[Na]Cl>CCO")
        assert len(reactants) == 2
        assert len(reagents) == 1
        assert len(product.atoms) == 3

    def test_empty_reagent_segment_is_allowed(self):
        _, reagents, _ = parse_reaction_smiles("CC>>CCO")
        assert reagents == []

    def test_rejects_wrong_separator_count(self):
        with pytest.raises(ValueError, match="two '>' separators"):
            parse_reaction_smiles("CC>CCO")

    def test_rejects_multi_molecule_product(self):
        with pytest.raises(ValueError, match="single molecule"):
            parse_reaction_smiles("CC>>C.C")

    def test_rejects_missing_reactants(self):
        with pytest.raises(ValueError, match="no reactants"):
            parse_reaction_smiles(">>CC")

    def test_rejects_missing_product(self):
        with pytest.raises(ValueError, match="^reaction has no product$"):
            parse_reaction_smiles("CC>>")


class TestRecordFromRow:
    def test_passthrough_fields_and_extra(self):
        row = _row("r1")
        row["notes"] = "retain me"
        record = record_from_row(row)
        assert record.record_id == "r1"
        assert record.reaction_name == "Amide coupling"
        assert record.reaction_class == "Acylation"
        assert record.split == "train"
        assert record.extra == {"notes": "retain me"}

    def test_missing_field_raises(self):
        row = _row("r1")
        del row["split"]
        with pytest.raises(ValueError, match="missing fields: split"):
            record_from_row(row)

    def test_duplicate_map_injection_rejected(self):
        row = _row("r1", smiles="[CH3:1]O.[CH3:1]N>>[CH3:1]O")
        with pytest.raises(ValueError, match="multiple reactant atoms"):
            record_from_row(row)

    def test_repeated_product_map_rejected(self):
        # Two product atoms would share the anchor id 1.
        row = _row("r1", smiles="[CH3:1][OH:2].[CH3:3]Br>>[CH3:1][O:2][CH3:1]")
        with pytest.raises(ValueError, match=r"^product repeats atom maps: \[1\]$"):
            record_from_row(row)

    def test_duplicate_map_outside_product_is_tolerated(self):
        row = _row("r1", smiles="[CH3:9]O.[CH3:9]N>>[CH3:1]O")
        record = record_from_row(row)
        assert record.product.atom_maps() == {1}


class TestIngest:
    def test_jsonl_with_rejects(self, tmp_path):
        path = tmp_path / "data.jsonl"
        rows = [
            _row("a"),
            _row("b", smiles="not a smiles"),
            _row("c", smiles="CC>>C.C"),
            _row("d"),
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        records, rejects = ingest_dataset(path)
        assert [r.record_id for r in records] == ["a", "d"]
        assert [(r["row"], r["id"]) for r in rejects] == [(2, "b"), (3, "c")]
        assert all(r["error"] for r in rejects)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "id,reaction_smiles,reaction_name,reaction_class,split\n"
            'a,CCO.CBr>>CCOC,Williamson ether,Substitution,train\n'
            'b,CC=O>>CCO,Reduction,Redox,eval\n'
        )
        records, rejects = ingest_dataset(path)
        assert rejects == []
        assert [r.record_id for r in records] == ["a", "b"]
        assert records[1].split == "eval"

    def test_csv_missing_column_is_file_level_fault(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,reaction_smiles\na,CC>>CC\n")
        with pytest.raises(DatasetError, match="missing columns"):
            ingest_dataset(path)

    def test_empty_csv_is_file_level_fault(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty CSV file"):
            ingest_dataset(path)

    def test_csv_that_is_not_utf8_is_file_level_fault(self, tmp_path):
        """The message names the file; for JSON lines ``read_jsonl`` names the line too."""
        path = tmp_path / "data.csv"
        path.write_bytes(b"id,reaction_smiles,reaction_name,reaction_class,split\na\xff,CC>>CC,n,c,train\n")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: not UTF-8: invalid start byte$"):
            ingest_dataset(path)

    def test_unreadable_file_is_file_level_fault(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            ingest_dataset(tmp_path / "absent.jsonl")

    def test_format_inferred_from_extension(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "id,reaction_smiles,reaction_name,reaction_class,split\n"
            "a,CC>>CC,n,c,train\n"
        )
        records, _ = ingest_dataset(path)
        assert len(records) == 1


class TestOntology:
    def test_names_sorted_and_unique(self):
        records = [
            _record("1", name="Suzuki coupling"),
            _record("2", name="Amide coupling"),
            _record("3", name="Suzuki coupling"),
        ]
        ontology = build_ontology(records, "train")
        assert [e.id for e in ontology.entries] == ["Amide coupling", "Suzuki coupling"]

    def test_majority_class_wins(self):
        records = [
            _record("1", name="X", cls="A"),
            _record("2", name="X", cls="B"),
            _record("3", name="X", cls="B"),
        ]
        ontology = build_ontology(records, "train")
        assert ontology.entries[0].reaction_class == "B"

    def test_class_tie_breaks_lexicographically(self):
        records = [
            _record("1", name="X", cls="Zeta"),
            _record("2", name="X", cls="Alpha"),
        ]
        ontology = build_ontology(records, "train")
        assert ontology.entries[0].reaction_class == "Alpha"

    def test_case_and_spacing_variants_merge(self):
        records = [
            _record("1", name="Amide  Coupling"),
            _record("2", name="amide coupling"),
        ]
        ontology = build_ontology(records, "train")
        assert len(ontology) == 1
        assert ontology.entries[0].id == "Amide  Coupling"
        assert ontology.contains("AMIDE COUPLING")

    def test_display_spelling_is_the_most_frequent_whatever_the_order(self):
        tie = [_record("1", name="Amide coupling"), _record("2", name="amide  Coupling")]
        two_to_one = tie + [_record("3", name="amide  Coupling")]
        for records, spelling in ((tie, "Amide coupling"), (two_to_one, "amide  Coupling")):
            for order in (records, records[::-1]):
                assert [e.id for e in build_ontology(order, "train").entries] == [spelling]

    def test_unnamed_and_foreign_split_records_excluded(self):
        records = [
            _record("1", name=""),
            _record("2", name="Ether", split="eval"),
            _record("3", name="Ester"),
        ]
        ontology = build_ontology(records, "train")
        assert [e.id for e in ontology.entries] == ["Ester"]

    def test_empty_split_raises(self):
        with pytest.raises(DatasetError, match="no records in split"):
            build_ontology([_record("1")], "eval")

    def test_json_roundtrip(self):
        ontology = build_ontology([_record("1", name="X", cls="A")], "train")
        rebuilt = type(ontology).from_json_obj(ontology.to_json_obj(), "train")
        assert (rebuilt.entries, rebuilt.source_split) == (ontology.entries, ontology.source_split)

    def test_first_entry_of_a_name_wins(self):
        ontology = Ontology.from_json_obj(
            [{"id": "Ester", "class": "A"}, {"id": " ESTER ", "class": "B"}]
        )
        assert ontology.contains("ester")

    def test_prompt_block_is_indented_entry_json(self):
        ontology = build_ontology([_record("1", name="X", cls="A"), _record("2", name="Y")], "train")
        assert ontology.prompt_block == json.dumps(ontology.to_json_obj(), indent=2)


class TestSubsample:
    def _mixed(self):
        records = []
        for i in range(6):
            records.append(_record(f"a{i}", name="Alpha"))
        for i in range(3):
            records.append(_record(f"b{i}", name="Beta"))
        for i in range(2):
            records.append(_record(f"c{i}", name="Gamma"))
        for i in range(6):
            records.append(_record(f"u{i}", name="otherReaction"))
        return records

    def test_cap_and_proportional_unclassified(self):
        records = self._mixed()
        out = subsample_eval_set(records, cap=5, unclassified_label="otherReaction", seed=1)
        by_name: dict[str, int] = {}
        for record in out:
            by_name[record.reaction_name] = by_name.get(record.reaction_name, 0) + 1
        assert by_name["Alpha"] == 5
        assert by_name["Beta"] == 3
        assert by_name["Gamma"] == 2
        # named chosen 10; unclassified share 6/11 of named input, half-up
        assert by_name["otherReaction"] == 5
        assert len(out) == 15

    def test_same_seed_same_output(self):
        records = self._mixed()
        first = subsample_eval_set(records, cap=5, unclassified_label="otherReaction", seed=9)
        second = subsample_eval_set(records, cap=5, unclassified_label="otherReaction", seed=9)
        assert [r.record_id for r in first] == [r.record_id for r in second]

    def test_seed_changes_membership(self):
        records = self._mixed()
        seen = {
            tuple(
                r.record_id
                for r in subsample_eval_set(
                    records, cap=3, unclassified_label="otherReaction", seed=s
                )
            )
            for s in range(12)
        }
        assert len(seen) > 1

    def test_output_preserves_input_order(self):
        records = self._mixed()
        out = subsample_eval_set(records, cap=5, unclassified_label="otherReaction", seed=1)
        positions = {r.record_id: i for i, r in enumerate(records)}
        assert [positions[r.record_id] for r in out] == sorted(
            positions[r.record_id] for r in out
        )

    def test_all_unclassified_takes_up_to_cap(self):
        records = [_record(f"u{i}", name="") for i in range(8)]
        out = subsample_eval_set(records, cap=3, unclassified_label="otherReaction", seed=2)
        assert len(out) == 3

    def test_no_unclassified_keeps_named_only(self):
        records = [_record(f"a{i}", name="Alpha") for i in range(4)]
        out = subsample_eval_set(records, cap=2, unclassified_label="otherReaction", seed=3)
        assert len(out) == 2
        assert all(r.reaction_name == "Alpha" for r in out)

    def test_empty_name_counts_as_unclassified(self):
        records = [_record("a0", name="Alpha"), _record("u0", name="")]
        out = subsample_eval_set(records, cap=5, unclassified_label="otherReaction", seed=4)
        # one named chosen; share 1/1 rounds to one unclassified
        assert {r.record_id for r in out} == {"a0", "u0"}

    def test_cap_below_one_raises(self):
        with pytest.raises(ValueError, match="cap"):
            subsample_eval_set([_record("a")], cap=0, unclassified_label="x", seed=1)


class TestExamples:
    def _library_records(self):
        return [
            _record("t1", name="Suzuki coupling", smiles="CB(O)O.CBr>>CC"),
            _record("t2", name="suzuki  coupling", smiles="OCC.CBr>>CCOC"),
            _record("t3", name="Suzuki coupling", split="eval"),
            _record("t4", name="Aldol"),
            _record("q", name="Suzuki coupling"),
        ]

    def test_orientation_uses_original_spelling(self):
        record = _record("t2", smiles="OCC.CBr>CN>CCOC")
        assert retro_example_text(record) == "CCOC>>OCC.CBr"

    def test_pool_filters_split_name_and_query(self):
        examples = sample_examples(
            self._library_records(), "Suzuki Coupling", exclude_id="q", k=10, seed=1
        )
        assert set(examples) == {"CC>>CB(O)O.CBr", "CCOC>>OCC.CBr"}

    def test_k_limits_count(self):
        examples = sample_examples(
            self._library_records(), "Suzuki coupling", exclude_id="q", k=1, seed=1
        )
        assert len(examples) == 1

    def test_k_zero_yields_empty(self):
        examples = sample_examples(
            self._library_records(), "Suzuki coupling", exclude_id="q", k=0, seed=1
        )
        assert examples == ()

    def test_deterministic_under_seed(self):
        records = [
            _record(f"t{i}", name="Suzuki coupling", smiles="CCO.CBr>>CCOC")
            for i in range(10)
        ]
        first = sample_examples(records, "Suzuki coupling", "none", k=3, seed=7)
        second = sample_examples(records, "Suzuki coupling", "none", k=3, seed=7)
        assert first == second

    def test_maps_survive_in_examples(self):
        records = [
            _record("t1", name="N", smiles="[CH3:1][OH:2].[CH3:3]Br>>[CH3:1][O:2][CH3:3]")
        ]
        examples = sample_examples(records, "N", exclude_id="x", k=1, seed=1)
        assert examples == (
            "[CH3:1][O:2][CH3:3]>>[CH3:1][OH:2].[CH3:3]Br",
        )

    def test_name_group_draws_like_full_list(self):
        """Sampling from the records that share a normalized name equals
        sampling from the whole list, ids, splits and seeds varying."""
        rng = random.Random(11)
        names = ["Suzuki coupling", "suzuki  Coupling", "Aldol", "Ester"]
        for _ in range(200):
            records = [
                _record(
                    f"t{rng.randrange(30)}",
                    name=rng.choice(names),
                    split=rng.choice(["train", "train", "eval"]),
                    smiles=f"C{'C' * i}O.CBr>>CCOC",
                )
                for i in range(rng.randrange(12))
            ]
            groups: dict[str, list] = {}
            for record in records:
                groups.setdefault(normalize_name(record.reaction_name), []).append(record)
            name = rng.choice(names)
            exclude = f"t{rng.randrange(30)}"
            k, seed = rng.randrange(5), rng.randrange(100)
            full = sample_examples(records, name, exclude, k, seed)
            group = sample_examples(groups.get(normalize_name(name), []), name, exclude, k, seed)
            assert group == full
