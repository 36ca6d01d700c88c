import json
import math

import pytest

from zfree import (Instance, dump_instance, evaluate_instance,
                   instance_from_dict, instance_to_dict, one_hot_decode,
                   one_hot_encode, parse_instance)
from zfree.errors import NotOneHotError, ParseError
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
