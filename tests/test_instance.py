import json
import math

import numpy as np
import pytest

from zfree import (Instance, dump_instance, evaluate_instance,
                   instance_from_dict, instance_to_dict, one_hot_decode,
                   one_hot_encode, parse_instance)
from zfree import instance
from zfree.errors import InvariantError, NotOneHotError, ParseError
from zfree.values import INF


def small_instance():
    # two binary variables, one table with an infinite corner
    return Instance((2, 2), [[0, 1], [0, 2]], {(0, 1): [[5, 0], [0, 0]]})


class TestOneHot:
    def test_encode_two_vars(self):
        inst = Instance((2, 3), [[0, 0], [0, 0, 0]], {})
        mask = one_hot_encode(inst, (1, 0))
        assert mask == 0b00110

    def test_encode_single_var(self):
        inst = Instance((2,), [[0, 0]], {})
        assert one_hot_encode(inst, (0,)) == 0b01

    def test_encode_three_vars(self):
        inst = Instance((2, 2, 2), [[0, 0]] * 3, {})
        mask = one_hot_encode(inst, (0, 1, 0))
        assert mask == 0b011001

    def test_decode_roundtrip(self):
        inst = Instance((2, 3), [[0, 0], [0, 0, 0]], {})
        mask = 0b00110
        assert one_hot_decode(inst, mask) == (1, 0)

    def test_decode_two_ones_in_block(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]], {})
        with pytest.raises(NotOneHotError):
            one_hot_decode(inst, 0b1011)

    def test_decode_empty_block(self):
        inst = Instance((2, 2), [[0, 0], [0, 0]], {})
        with pytest.raises(NotOneHotError):
            one_hot_decode(inst, 0b0100)


class TestEvaluate:
    def test_hand_sums(self):
        inst = small_instance()
        assert evaluate_instance(inst, (1, 0)).raw == 1
        assert evaluate_instance(inst, (0, 0)).raw == 5

    def test_infinite_cell_absorbs(self):
        inst = Instance((2, 2), [[0, 1], [0, 2]],
                        {(0, 1): [[5, 0], [0, "inf"]]})
        assert evaluate_instance(inst, (1, 1)) == INF

    def test_missing_table_counts_zero(self):
        inst = Instance((2, 2), [[0, 1], [0, 2]], {})
        assert evaluate_instance(inst, (1, 1)).raw == 3


class TestValidation:
    def test_rejects_infinite_unary(self):
        with pytest.raises(ValueError):
            Instance((2,), [[0, "inf"]], {})

    def test_rejects_negative_table(self):
        with pytest.raises(ValueError):
            Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[0, 0], [0, -1]]})

    def test_rejects_bad_table_shape(self):
        with pytest.raises(ValueError):
            Instance((2, 2), [[0, 0], [0, 0]], {(0, 1): [[0, 0, 0], [0, 0, 0]]})

    def test_rejects_bad_pair_keys(self):
        with pytest.raises(ValueError):
            Instance((2, 2), [[0, 0], [0, 0]], {(1, 0): [[0, 0], [0, 0]]})

    @pytest.mark.parametrize("domains", [(2.7, True), (2, 2.0), (True, 2), (2, "2")])
    def test_rejects_domain_sizes_that_are_not_integers(self, domains):
        with pytest.raises(ValueError, match="^domain sizes must be integers$"):
            Instance(domains, [[0, 1], [0]])

    def test_accepts_numpy_int_domain_sizes(self):
        inst = Instance((np.int64(2), np.int32(1)), [[0, 1], [0]], {(0, 1): [[3], [4]]})
        assert inst.domains == (2, 1) and all(type(d) is int for d in inst.domains)
        assert inst.binary_value(0, 1, 1, 0).raw == 4

    # The first defect in table order is the one reported, whichever part
    # of the check finds it.
    @pytest.mark.parametrize("binary, error, message", [
        ({(0, 1): [[0, -1], [0, 0]], (0, 2): [[0], [0], [0]]}, ValueError,
         "binary table (0,1) has a negative entry"),
        ({(0, 1): [[0, True], [0, 0]], (2, 0): [[0, 0]]}, TypeError,
         "bool is not a valid cost value"),
        ({(0, 1): [[0, "1/0"], [0, 0]], (0, 1, 2): [[0]]}, ZeroDivisionError,
         "zero denominator"),
        ({(0, 1): [[0, 1], [0, 0]], (0, 2): [[0, 1]], (1, 2): [[-1], [0]]}, ValueError,
         "binary table (0,2) is not 2x1"),
        ({(0, 1): [[0, 2**70], [-2**70, 0]], (1, 2): [[-1], [0]]}, ValueError,
         "binary table (0,1) has a negative entry"),
    ])
    def test_reports_the_first_defect_in_table_order(self, binary, error, message):
        with pytest.raises(error) as exc:
            Instance((2, 2, 1), [[0, 0], [0, 0], [0]], binary)
        assert str(exc.value) == message

    def test_a_refused_ranking_must_have_a_bad_cell(self, monkeypatch):
        assert small_instance().binary_value(0, 0, 1, 0).raw == 5
        monkeypatch.setattr(instance, "_rank_tables", lambda *args: None)
        with pytest.raises(InvariantError, match="^_rank_tables refused tables that pass"):
            small_instance()

    def test_immutable(self):
        inst = small_instance()
        with pytest.raises(AttributeError):
            inst.r = 5


class TestLayout:
    def test_flat_and_pair_inverse(self):
        inst = Instance((2, 3, 1), [[0, 0], [0, 0, 0], [0]], {})
        lay = inst.layout
        seen = []
        for i, d in enumerate(inst.domains):
            for a in range(d):
                u = lay.flat(i, a)
                assert lay.pair(u) == (i, a)
                seen.append(u)
        assert seen == list(range(lay.n))
        assert list(lay.block(1)) == [2, 3, 4]


class TestJson:
    def test_minimal_document(self):
        inst = parse_instance('{"r": 1, "domains": [2], "unary": [[0, 1]], "binary": []}')
        assert inst.r == 1
        assert inst.binary_pairs() == []

    def test_inf_entry(self):
        doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, 0]],
               "binary": [{"i": 1, "j": 2, "table": [[0, "inf"], [0, 0]]}]}
        inst = instance_from_dict(doc)
        assert inst.table(0, 1)[0][1] == INF

    @pytest.mark.parametrize("reader, value, message", [
        ("_read_unary", None, "_read_unary refused unary rows that parse cell by cell"),
        ("_rank_tables", None,
         "_rank_tables or a row check refused tables that parse cell by cell"),
    ])
    def test_a_refused_part_must_have_a_defect(self, monkeypatch, reader, value, message):
        # The cell-by-cell re-read only raises: a part the fast reader
        # refused but that parses is a broken reader, not an instance.
        doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, "1/2"]],
               "binary": [{"i": 1, "j": 2, "table": [[0, "inf"], [3, 0]]}]}
        assert instance_from_dict(doc).table(0, 1)[1][0].raw == 3
        monkeypatch.setattr(instance, reader, lambda *args: value)
        with pytest.raises(InvariantError) as exc:
            instance_from_dict(doc)
        assert str(exc.value) == message

    def test_rows_that_are_not_lists_must_have_a_defect(self):
        # A list subclass passes the row-by-row re-read, so the row check
        # that refused it is the broken part.
        class Row(list):
            pass

        doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, 0]],
               "binary": [{"i": 1, "j": 2, "table": [Row([0, 1]), Row([2, 3])]}]}
        with pytest.raises(InvariantError, match="^_rank_tables or a row check refused"):
            instance_from_dict(doc)

    # Ints from 2**31 on are past int32, those from 2**63 past int64.
    @pytest.mark.parametrize("big", [2**31, 2**32 + 7, 2**40, 2**63 - 1, 2**63, 2**70])
    def test_large_int_costs_keep_their_values(self, big):
        table = [[0, big], [1, 2]]
        doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, 0]],
               "binary": [{"i": 1, "j": 2, "table": table}]}
        for inst in (parse_instance(json.dumps(doc)), instance_from_dict(doc),
                     Instance((2, 2), doc["unary"], {(0, 1): table})):
            assert [[v.raw for v in row] for row in inst.table(0, 1)] == table
            assert [v.raw for v in inst.pool] == [0, 1, 2, big]
            assert inst.ranks[0, 3] == 4 and inst.ranks[3, 0] == 4

    @pytest.mark.parametrize("entries, message", [
        ([[[0, -1], [0, 0]], {"i": "x", "j": 3, "table": []}],
         "binary[0].table[1][2]: negative value -1"),
        ([[[0, 2**70], [0, -3]], {"i": 1, "j": 3}],
         "binary[0].table[2][2]: negative value -3"),
        ([[[0, "x"], [0]]],
         "binary[0].table[1][2]: malformed value string 'x'; expected 'p/q' or 'inf'"),
        ([[[0, 0], [0]], [[0, "x"], [0, 0]]], "binary[0]: row 2 must have 2 values"),
        ([[[0, 1], [1, 0]], [[True, 0], [0, 0]], {"i": 1, "j": 2, "table": []}],
         "binary[1].table[1][1]: booleans are not values"),
        ([[[0, "inf"], [1, 0]], [5, [0, 0]], [[-1, 0], [0, 0]]],
         "binary[1]: row 1 must have 2 values"),
    ])
    def test_the_first_defect_in_document_order_is_reported(self, entries, message):
        # Tables are entries (i, j) = (1, 2), (1, 3), (2, 3) in turn; a dict
        # is an entry as it stands.
        pairs = [(1, 2), (1, 3), (2, 3)]
        doc = {"r": 3, "domains": [2, 2, 2], "unary": [[0, 0]] * 3,
               "binary": [e if isinstance(e, dict) else {"i": i, "j": j, "table": e}
                          for e, (i, j) in zip(entries, pairs)]}
        with pytest.raises(ParseError) as exc:
            instance_from_dict(doc)
        assert str(exc.value) == message

    def test_reversed_pair_rejected(self):
        doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, 0]],
               "binary": [{"i": 2, "j": 1, "table": [[0, 0], [0, 0]]}]}
        with pytest.raises(ParseError):
            instance_from_dict(doc)

    def test_duplicate_pair_rejected(self):
        doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, 0]],
               "binary": [{"i": 1, "j": 2, "table": [[0, 0], [0, 0]]},
                          {"i": 1, "j": 2, "table": [[1, 1], [1, 1]]}]}
        with pytest.raises(ParseError):
            instance_from_dict(doc)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"r": 1, "domains": [2], "unary": [[0, 0]], '
                           '"binary": [], "comment": "hi"}')

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"r": 1, "domains": [2], "unary": [[0, 0.5]], "binary": []}')

    def test_negative_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"r": 1, "domains": [2], "unary": [[0, -1]], "binary": []}')

    @pytest.mark.parametrize("cell, reason", [
        (-1, "negative value -1"),
        (0.5, "floats are not exact; write integers, 'p/q', or 'inf'"),
        (True, "booleans are not values"),
        ('"1/0"', "zero denominator"),
        ('"-1/2"', "negative value '-1/2'"),
        ('"x"', "malformed value string 'x'; expected 'p/q' or 'inf'"),
        ("null", "expected int, 'p/q', or 'inf', got NoneType"),
    ])
    def test_bad_cell_messages_name_the_cell(self, cell, reason):
        cell = json.dumps(cell) if not isinstance(cell, str) else cell
        unary = f'{{"r": 1, "domains": [2], "unary": [[0, {cell}]]}}'
        with pytest.raises(ParseError) as exc:
            parse_instance(unary)
        assert str(exc.value) == f"unary[1][2]: {reason}"
        table = ('{"r": 2, "domains": [1, 2], "unary": [[0], [0, 0]], '
                 f'"binary": [{{"i": 1, "j": 2, "table": [[1, {cell}]]}}]}}')
        with pytest.raises(ParseError) as exc:
            parse_instance(table)
        assert str(exc.value) == f"binary[0].table[1][2]: {reason}"

    def test_roundtrip(self):
        inst = Instance((2, 3), [[0, "1/2"], [1, 2, 3]],
                        {(0, 1): [[0, 1, "inf"], [1, 0, 2]]})
        text = dump_instance(inst, indent=2)
        again = parse_instance(text)
        assert instance_to_dict(again) == instance_to_dict(inst)
        assert dump_instance(again, indent=2) == text

    def test_dump_is_deterministic(self):
        inst = small_instance()
        assert dump_instance(inst) == dump_instance(inst)
        json.loads(dump_instance(inst))
