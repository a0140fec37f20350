"""Self-tests of the benchmark's output checks: each check passes a correct
answer and rejects a deliberately wrong one. Run from this directory:

    python3 -m unittest test_checks
"""
import unittest

import checks

# 加菲 -> 猫 -> 动物 -> 生物, 旺财 -> 狗 -> 动物, 加菲 -> 宠物.
TSV = '\n'.join([
    'N\t加菲\te', 'N\t猫\tc', 'N\t动物\tc', 'N\t生物\tc', 'N\t狗\tc',
    'N\t旺财\te', 'N\t宠物\tc',
    'E\t0\t1\t1\t0.9', 'E\t1\t2\t1\t0.9', 'E\t2\t3\t1\t0.9',
    'E\t5\t4\t1\t0.9', 'E\t4\t2\t1\t0.9', 'E\t0\t6\t1\t0.9',
    '#cnpb:crc32:00000000:0',
])
TAX = checks.Taxonomy(TSV)
MENTIONS = {'加菲': ['加菲'], '阿财': ['旺财']}


class BuildChecks(unittest.TestCase):
    def test_precision_below_bound_is_rejected(self):
        gold = {'加菲': {'猫', '动物', '生物', '宠物'}, '猫': {'动物', '生物'},
                '动物': {'生物'}, '旺财': {'狗', '动物', '生物'},
                '狗': {'动物', '生物'}}
        self.assertEqual(checks.precision(TAX.edges(), gold), 1.0)
        self.assertEqual(checks.check_precision(1.0), [])
        wrong = dict(gold, 狗={'生物'}, 加菲={'猫'})  # two of six edges wrong
        p = checks.precision(TAX.edges(), wrong)
        self.assertAlmostEqual(p, 4 / 6)
        self.assertTrue(checks.check_precision(p))

    def test_snapshot_answer_differing_from_tsv_is_rejected(self):
        lines = []
        for name in TAX.names:
            lines += ['%s:' % name,
                      '  hypernyms: ' + ' '.join(sorted(TAX.hypernyms(name))),
                      '  hyponyms (%d): x' % len(TAX.hyponyms(name))]
        self.assertEqual(
            checks.check_snapshot_matches_tsv('\n'.join(lines), TAX), [])
        lines[1] = '  hypernyms: 猫'  # 加菲 lost 宠物
        self.assertTrue(
            checks.check_snapshot_matches_tsv('\n'.join(lines), TAX))


class ServingChecks(unittest.TestCase):
    def test_get_concept_with_a_hypernym_dropped_is_rejected(self):
        self.assertEqual(checks.check_get_concept(['宠物', '猫'], '加菲', TAX),
                         [])
        self.assertTrue(checks.check_get_concept(['猫'], '加菲', TAX))

    def test_get_entity_must_truncate_to_the_limit(self):
        self.assertEqual(checks.check_get_entity(['猫'], '动物', 1, TAX), [])
        self.assertEqual(
            checks.check_get_entity(['狗', '猫'], '动物', 100, TAX), [])
        self.assertTrue(checks.check_get_entity(['猫'], '动物', 100, TAX))
        self.assertTrue(checks.check_get_entity(['猫', '旺财'], '动物', 2, TAX))

    def test_men2ent_ranking_and_candidates(self):
        good = [{'name': '加菲', 'num_hypernyms': 2}]
        self.assertEqual(checks.check_men2ent(good, '加菲', MENTIONS, TAX), [])
        self.assertTrue(checks.check_men2ent(
            [{'name': '加菲', 'num_hypernyms': 1}], '加菲', MENTIONS, TAX))
        self.assertTrue(checks.check_men2ent([], '阿财', MENTIONS, TAX))
        two = {'x': ['旺财', '加菲']}
        self.assertTrue(checks.check_men2ent(
            [{'name': '旺财', 'num_hypernyms': 1},
             {'name': '加菲', 'num_hypernyms': 2}], 'x', two, TAX))

    def test_version_stamp_going_backwards_is_rejected(self):
        self.assertEqual(checks.check_versions_monotonic([(0, 1, 2), (1, 1, 3)]),
                         [])
        self.assertTrue(checks.check_versions_monotonic([(0, 1, 3), (0, 3, 2)]))

    def test_batch_out_of_input_order_is_rejected(self):
        def item(entity, concepts):
            return checks.check_get_concept(concepts, entity, TAX)
        body = {'version': 7, 'results': [
            {'entity': '旺财', 'concepts': ['狗']},
            {'entity': '猫', 'concepts': ['动物']}]}
        self.assertEqual(checks.check_batch(body, 7, 'getConcept',
                                            ['旺财', '猫'], item), [])
        self.assertTrue(checks.check_batch(body, 7, 'getConcept',
                                           ['猫', '旺财'], item))
        self.assertTrue(checks.check_batch(body, 8, 'getConcept',
                                           ['旺财', '猫'], item))
        body['results'][1]['concepts'] = []
        self.assertTrue(checks.check_batch(body, 7, 'getConcept',
                                           ['旺财', '猫'], item))


class ReasoningChecks(unittest.TestCase):
    def test_wrong_isa_verdict_or_depth_is_rejected(self):
        self.assertEqual(checks.check_isa({'isa': True, 'depth': 3}, '加菲',
                                          '生物', 4, TAX), [])
        self.assertEqual(checks.check_isa({'isa': False}, '加菲', '生物', 2,
                                          TAX), [])
        self.assertTrue(checks.check_isa({'isa': True, 'depth': 2}, '加菲',
                                         '生物', 4, TAX))
        self.assertTrue(checks.check_isa({'isa': True, 'depth': 1}, '加菲',
                                         '狗', 4, TAX))

    def test_wrong_lca_or_depth_is_rejected(self):
        right = {'found': True, 'lca': '动物', 'depth_a': 2, 'depth_b': 2}
        self.assertEqual(checks.check_lca(right, '加菲', '旺财', 4, TAX), [])
        self.assertTrue(checks.check_lca(dict(right, depth_a=3), '加菲', '旺财',
                                         4, TAX))
        self.assertTrue(checks.check_lca(
            {'found': True, 'lca': '生物', 'depth_a': 3, 'depth_b': 3},
            '加菲', '旺财', 4, TAX))
        self.assertTrue(checks.check_lca({'found': False}, '加菲', '旺财', 4,
                                         TAX))
        self.assertEqual(checks.check_lca({'found': False}, '加菲', '旺财', 1,
                                          TAX), [])


class IngestChecks(unittest.TestCase):
    def test_acked_page_never_visible_is_rejected(self):
        ok = [('a', True, True, True), ('b', False, False, False)]
        self.assertEqual(checks.check_ingest_outcomes(ok), [])
        self.assertTrue(checks.check_ingest_outcomes(
            ok + [('c', True, False, False)]))
        self.assertTrue(checks.check_ingest_outcomes(
            ok + [('d', True, True, False)]))


if __name__ == '__main__':
    unittest.main()
