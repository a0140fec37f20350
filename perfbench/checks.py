"""Output checks of the benchmark.

Every check computes the expected answer apart from the program: from the
generated files (taxonomy.tsv, dump.tsv, gold.tsv) or from properties the
method must have. Each returns a list of error strings; empty means the
output passed. test_checks.py feeds each one deliberately wrong input.
"""
from collections import deque

# The paper reports about 95% precision; a build below this lower edge of
# that band is wrong, not slow.
PRECISION_BOUND = 0.93


class Taxonomy:
    """taxonomy.tsv read by the benchmark's own parser (N/E rows)."""

    def __init__(self, text):
        self.names = []
        self.up = []    # node -> list of hypernym nodes
        self.down = []  # node -> list of hyponym nodes
        for line in text.splitlines():
            f = line.split('\t')
            if f[0] == 'N':
                self.names.append(f[1])
                self.up.append([])
                self.down.append([])
            elif f[0] == 'E':
                a, b = int(f[1]), int(f[2])
                self.up[a].append(b)
                self.down[b].append(a)
        self.ids = {n: i for i, n in enumerate(self.names)}

    @classmethod
    def load(cls, path):
        with open(path, encoding='utf-8') as f:
            return cls(f.read())

    def hypernyms(self, name):
        return {self.names[b] for b in self.up[self.ids[name]]}

    def hyponyms(self, name):
        return {self.names[a] for a in self.down[self.ids[name]]}

    def edges(self):
        for a, ups in enumerate(self.up):
            for b in ups:
                yield self.names[a], self.names[b]

    def depths_up(self, name, max_depth):
        """Minimal isA distance to every ancestor within max_depth (BFS),
        the start node included at depth 0."""
        start = self.ids[name]
        depth = {start: 0}
        queue = deque([start])
        while queue:
            n = queue.popleft()
            if depth[n] == max_depth:
                continue
            for m in self.up[n]:
                if m not in depth:
                    depth[m] = depth[n] + 1
                    queue.append(m)
        return {self.names[n]: d for n, d in depth.items()}


def read_dump_mentions(path):
    """mention or alias -> page names, from dump.tsv (name, mention,
    bracket, abstract, infobox, tags, aliases after the page id)."""
    index = {}
    with open(path, encoding='utf-8') as f:
        for line in f:
            if line.startswith('#'):
                continue
            row = line.rstrip('\n').split('\t')
            name, mention = row[1], row[2]
            aliases = row[7].split('\x02') if len(row) > 7 and row[7] else []
            for m in [mention] + aliases:
                names = index.setdefault(m, [])
                if name not in names:
                    names.append(name)
    return index


def read_gold(path):
    gold = {}
    with open(path, encoding='utf-8') as f:
        for line in f:
            row = line.rstrip('\n').split('\t')
            gold.setdefault(row[0], set(row[1:]))
    return gold


# --- build --------------------------------------------------------------

def precision(edges, gold):
    edges = list(edges)
    if not edges:
        return 0.0
    correct = sum(1 for hypo, hyper in edges if hyper in gold.get(hypo, ()))
    return correct / len(edges)


def check_precision(value, bound=PRECISION_BOUND):
    if value < bound:
        return ['precision %.4f below the %.2f bound' % (value, bound)]
    return []


def parse_cli_query(text):
    """`cnprobase_cli query` output -> {term: (hypernym tokens, hyponym
    count)} for the terms it found."""
    out = {}
    term = None
    for line in text.splitlines():
        if line.startswith('  hypernyms:'):
            hyper = sorted(line[len('  hypernyms:'):].split())
        elif line.startswith('  hyponyms ('):
            count = int(line[len('  hyponyms ('):].split(')')[0])
            out[term] = (hyper, count)
        elif line.endswith(':') and not line.startswith(' '):
            term = line[:-1]
    return out


def check_snapshot_matches_tsv(query_text, taxonomy):
    """The snapshot, read through the program, must answer every node's
    hypernyms and hyponym count as the TSV read here does."""
    got = parse_cli_query(query_text)
    errors = []
    for name in taxonomy.names:
        want = (sorted(' '.join(sorted(taxonomy.hypernyms(name))).split()),
                len(taxonomy.down[taxonomy.ids[name]]))
        if got.get(name) != want:
            errors.append('snapshot answers %r as %r, TSV as %r'
                          % (name, got.get(name), want))
    return errors[:5]


# --- serving ------------------------------------------------------------

def expect_men2ent(mention, mentions, taxonomy):
    """Names the men2ent answer must hold: pages carrying the mention or
    alias that made it into the taxonomy."""
    return {n for n in mentions.get(mention, []) if n in taxonomy.ids}


def check_men2ent(entities, mention, mentions, taxonomy):
    errors = []
    names = [e['name'] for e in entities]
    want = expect_men2ent(mention, mentions, taxonomy)
    if set(names) != want or len(names) != len(want):
        errors.append('men2ent(%s) gave %s, want %s'
                      % (mention, sorted(names), sorted(want)))
    counts = [e['num_hypernyms'] for e in entities]
    if any(a < b for a, b in zip(counts, counts[1:])):
        errors.append('men2ent(%s) not ranked by hypernym count: %s'
                      % (mention, counts))
    for e in entities:
        if e['name'] in taxonomy.ids and \
                e['num_hypernyms'] != len(taxonomy.up[taxonomy.ids[e['name']]]):
            errors.append('men2ent(%s): %s has %d hypernyms, TSV %d'
                          % (mention, e['name'], e['num_hypernyms'],
                             len(taxonomy.up[taxonomy.ids[e['name']]])))
    return errors


def check_get_concept(concepts, entity, taxonomy):
    """getConcept(e) holds c exactly when e is among c's hyponyms."""
    want = taxonomy.hypernyms(entity)
    if sorted(concepts) != sorted(want):
        return ['getConcept(%s) gave %s, want %s'
                % (entity, sorted(concepts), sorted(want))]
    return []


def check_get_entity(entities, concept, limit, taxonomy):
    hypo = taxonomy.hyponyms(concept)
    errors = []
    if len(entities) != min(limit, len(hypo)):
        errors.append('getEntity(%s, %d) gave %d entities, want %d'
                      % (concept, limit, len(entities), min(limit, len(hypo))))
    if len(set(entities)) != len(entities) or not set(entities) <= hypo:
        errors.append('getEntity(%s) gave non-hyponyms or repeats: %s'
                      % (concept, sorted(set(entities) - hypo)))
    return errors


def check_isa(answer, entity, concept, max_depth, taxonomy):
    depth = taxonomy.depths_up(entity, max_depth).get(concept)
    want_isa = depth is not None
    errors = []
    if answer.get('isa') != want_isa:
        errors.append('isa(%s, %s) = %s, BFS says %s'
                      % (entity, concept, answer.get('isa'), want_isa))
    elif want_isa and answer.get('depth') != depth:
        errors.append('isa(%s, %s) depth %s, BFS says %d'
                      % (entity, concept, answer.get('depth'), depth))
    return errors


def check_lca(answer, a, b, max_depth, taxonomy):
    up_a = taxonomy.depths_up(a, max_depth)
    up_b = taxonomy.depths_up(b, max_depth)
    common = {n: up_a[n] + up_b[n] for n in up_a if n in up_b}
    if not common:
        if answer.get('found'):
            return ['lca(%s, %s) found %s, but they share no ancestor'
                    % (a, b, answer.get('lca'))]
        return []
    lca = answer.get('lca')
    if not answer.get('found') or lca not in common:
        return ['lca(%s, %s) = %s is not a common ancestor' % (a, b, lca)]
    errors = []
    if (answer.get('depth_a'), answer.get('depth_b')) != (up_a[lca], up_b[lca]):
        errors.append('lca(%s, %s) depths %s/%s, BFS %d/%d'
                      % (a, b, answer.get('depth_a'), answer.get('depth_b'),
                         up_a[lca], up_b[lca]))
    if common[lca] != min(common.values()):
        errors.append('lca(%s, %s) = %s has depth sum %d, minimum is %d'
                      % (a, b, lca, common[lca], min(common.values())))
    return errors


BATCH_KEYS = {'men2ent': ('mention', 'entities'),
              'getConcept': ('entity', 'concepts'),
              'getEntity': ('concept', 'entities')}


def check_batch(body, header_version, api, inputs, check_item):
    """A merged batch keeps input order, carries one generation stamp, and
    every item passes the single-shot check."""
    key, field = BATCH_KEYS[api]
    results = body.get('results', [])
    errors = []
    if [r.get(key) for r in results] != list(inputs):
        errors.append('%s batch out of input order' % api)
        return errors
    if body.get('version') != header_version:
        errors.append('%s batch stamped %s, header %s'
                      % (api, body.get('version'), header_version))
    for item, r in zip(inputs, results):
        errors += check_item(item, r[field])
    return errors


def check_versions_monotonic(changes):
    """`changes` lists (connection, from, to) each time a connection saw a
    new version stamp; none may go backwards."""
    return ['connection %d saw version %d after %d' % (c, new, old)
            for c, old, new in changes if new < old]


# --- ingest -------------------------------------------------------------

def check_ingest_outcomes(outcomes):
    """Every acked page became visible, with its mention resolving to its
    name. `outcomes` rows: (name, acked, visible, mention_ok)."""
    errors = []
    for name, acked, visible, mention_ok in outcomes:
        if acked and not visible:
            errors.append('acked page %s never became visible' % name)
        elif acked and not mention_ok:
            errors.append('mention of %s does not resolve to it' % name)
    return errors
