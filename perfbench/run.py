#!/usr/bin/env python3
"""CN-Probase benchmark: builds the program from this checkout, runs one
workload, checks the program's outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md has their make-up and the layer -> metric map):
  build         cnprobase_cli builds the taxonomy from a seeded synthetic dump
  table2_hot    Table II mix, Zipf keys, one cached cnprobase_serve
  routed_cold   Table II mix + batches + isA/LCA, uniform keys, Router in
                front of two uncached cnprobase_serve backends
  ingest_churn  open-loop page upserts into cnprobase_ingestd beside reads

With --trace 0 the shipped programs run as separate processes over loopback
HTTP and the last stdout line holds the end-to-end metrics, every one of
them on every workload (README.md says what each means on each). With
--trace 1 the traced run (pb_trace) drives the workloads in-process and the
last line holds every per-layer metric; the line before it gives the named
workload's traced end-to-end figures. Build output and progress go to
stderr.
"""
import argparse
import bisect
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.parse

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, '.bench_build')
BUILD = os.path.join(WORK, 'perfbench')

# Where each value comes from is in README.md ("Make-up of the inputs");
# the ones marked there as assumptions are not taken from the paper or from
# the repository's own benches.
ENTITIES = 2000          # synthetic world size of build and serving inputs
INGEST_ENTITIES = 1000   # cnprobase_ingestd's base world
REQUESTS = 20000         # request lines per serving workload
MIX = {'men2ent': 43896044, 'getConcept': 13815076, 'getEntity': 25793372}
ZIPF_S = 1.0
GET_ENTITY_LIMIT = 20
HOT_RATE = 16000         # open-loop rates, req/s, well below capacity
COLD_RATE = 3000
INGEST_RATE = 100        # pages/s
BATCH_SHARE = 0.10       # routed_cold: share of 32-item batches
REASON_SHARE = 0.10      # routed_cold: share of isA / LCA calls, 2:1
BATCH_ITEMS = 32
ISA_DEPTH = 4
LCA_DEPTH = 8


# Every workload reports every one of these (name -> unit).
END_TO_END = {'setup_s': 's', 'latency_ms': 'ms', 'throughput_per_s': '1/s',
              'peak_rss_mb': 'MB'}

# Per-layer metric -> unit, each with the workload whose inputs the traced
# run times it on (README.md, "Layer -> end-to-end map").
LAYERS = {
    'build': {
        'kb.load_s': 's', 'nn.copynet_train_s': 's',
        'generation.abstract_s': 's', 'generation.bracket_s': 's',
        'generation.infobox_s': 's', 'generation.tag_s': 's',
        'verification.incompatible_s': 's', 'verification.ner_s': 's',
        'verification.syntax_s': 's', 'taxonomy.snapshot_write_s': 's'},
    'table2_hot': {
        'server.parse_ns': 'ns', 'server.handle_ns': 'ns',
        'server.loop_ns': 'ns', 'server.cache_lookup_ns': 'ns',
        'server.cache_hit_ratio': 'ratio'},
    'routed_cold': {
        'taxonomy.snapshot_load_s': 's', 'taxonomy.men2ent_ns': 'ns',
        'taxonomy.get_concept_ns': 'ns', 'taxonomy.get_entity_ns': 'ns',
        'taxonomy.find_ns': 'ns', 'reason.isa_ns': 'ns',
        'reason.lca_ns': 'ns', 'router.overhead_us': 'us',
        'router.merge_ns': 'ns', 'router.hedge_ratio': 'ratio'},
    'ingest_churn': {
        'ingest.wal_sync_us': 'us', 'ingest.fsyncs_per_page': 'count',
        'core.apply_batch_ms': 'ms', 'taxonomy.publish_ms': 'ms',
        'obs.metrics_bytes': 'bytes'},
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build and processes ------------------------------------------------

def build_program():
    if not os.path.exists(os.path.join(BUILD, 'CMakeCache.txt')):
        subprocess.run(['cmake', '-S', HERE, '-B', BUILD,
                        '-DCMAKE_BUILD_TYPE=Release'],
                       check=True, stdout=sys.stderr)
    subprocess.run(['cmake', '--build', BUILD, '-j', str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def tool(name):
    return os.path.join(BUILD, name)


def cpu_plan(n_server):
    """Disjoint CPU sets: one per server process (shared when there are too
    few CPUs) and the rest for the load generator."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) <= n_server:
        return [set(cpus)] * n_server, set(cpus)
    return [{c} for c in cpus[:n_server]], set(cpus[n_server:])


class Proc:
    """A child process whose stdout goes to a file; stop() drains it with
    SIGTERM and requires exit code 0."""

    def __init__(self, cmd, cwd, cpus, name):
        self.name = name
        self.out_path = os.path.join(cwd, name + '.out')
        self.out = open(self.out_path, 'w')
        self.start = time.perf_counter()
        self.p = subprocess.Popen(
            cmd, cwd=cwd, stdout=self.out, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.rc = None
        self.peak_kb = 0

    def wait_line(self, prefix, timeout=120.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.out_path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return line.strip()
            if self.p.poll() is not None:
                break
            time.sleep(0.001)
        raise RuntimeError('%s: no %r line; output:\n%s'
                           % (self.name, prefix, self.output()))

    def port(self):
        return int(self.wait_line('listening on').split(':')[2].split()[0])

    def output(self):
        with open(self.out_path) as f:
            return f.read()

    def sample_peak(self):
        """Folds the process's VmHWM into peak_kb. (ru_maxrss from wait4
        would also count the forked copy of this Python process that
        existed before exec.)"""
        try:
            with open('/proc/%d/status' % self.p.pid) as f:
                for line in f:
                    if line.startswith('VmHWM:'):
                        self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        except OSError:
            pass

    def reap(self, timeout):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.p.poll() is not None:
                self.rc = self.p.returncode
                return True
            time.sleep(0.002)
        return False

    def stop(self, timeout=20.0):
        if self.rc is None:
            self.sample_peak()
            self.p.send_signal(signal.SIGTERM)
            if not self.reap(timeout):
                self.p.kill()
                self.reap(5.0)
                self.rc = 'killed'
        self.out.close()
        return self.rc == 0


def run_tool(args, cpus, cwd):
    """Runs one of the benchmark's tools and returns its last stdout line
    parsed as JSON."""
    r = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if r.returncode != 0:
        raise RuntimeError('%s failed (%d): %s'
                           % (os.path.basename(args[0]), r.returncode,
                              r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def cpu_steal():
    """(steal, total) jiffies over this host's CPUs from /proc/stat; steal is
    time the hypervisor ran something else while a CPU here wanted to run."""
    with open('/proc/stat') as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def log_steal(before):
    steal, total = cpu_steal()
    log('host steal %.1f%% of CPU time'
        % (100.0 * (steal - before[0]) / max(1, total - before[1])))


def get(port, target):
    conn = http.client.HTTPConnection('127.0.0.1', port, timeout=10)
    try:
        conn.request('GET', target)
        resp = conn.getresponse()
        return resp.status, resp.read().decode('utf-8')
    finally:
        conn.close()


# --- inputs -------------------------------------------------------------

class Zipf:
    """Seeded Zipf(s) sampler over ranks 0..n-1."""

    def __init__(self, n, s, rng):
        self.rng = rng
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        self.cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cdf.append(acc)

    def sample(self):
        return min(bisect.bisect_left(self.cdf, self.rng.random()),
                   len(self.cdf) - 1)


def q(s):
    return urllib.parse.quote(s, safe='')


def generate(tmp, seed, entities=ENTITIES):
    subprocess.run([tool('pb_gen'), tmp, str(entities), str(seed)],
                   check=True, stdout=subprocess.DEVNULL)


def serving_world(tmp, seed):
    """Generated dump built by the shipped CLI into taxonomy.tsv and the
    snapshot the servers mmap; returns (taxonomy, mention index)."""
    generate(tmp, seed)
    subprocess.run([tool('cnprobase_cli'), 'build', tmp, '--snapshot-out',
                    os.path.join(tmp, 'snapshot.bin')],
                   check=True, stdout=subprocess.DEVNULL)
    tax = checks.Taxonomy.load(os.path.join(tmp, 'taxonomy.tsv'))
    mentions = checks.read_dump_mentions(os.path.join(tmp, 'dump.tsv'))
    return tax, mentions


def key_universe(tax, mentions, rng):
    """Keys that exist in the served world, each list shuffled by the seed
    so the seed decides which keys are hot."""
    keys = {
        'men2ent': sorted(m for m in mentions
                          if checks.expect_men2ent(m, mentions, tax)),
        'getConcept': sorted(n for i, n in enumerate(tax.names) if tax.up[i]),
        'getEntity': sorted(n for i, n in enumerate(tax.names) if tax.down[i]),
    }
    for v in keys.values():
        rng.shuffle(v)
    return keys


def single_request(api, key):
    if api == 'men2ent':
        return '/v1/men2ent?mention=' + q(key)
    if api == 'getConcept':
        return '/v1/getConcept?entity=' + q(key)
    return '/v1/getEntity?concept=%s&limit=%d' % (q(key), GET_ENTITY_LIMIT)


def pick_api(rng):
    u = rng.random() * sum(MIX.values())
    for api, weight in MIX.items():
        if u < weight:
            return api
        u -= weight
    return 'getEntity'


def hot_requests(tax, mentions, rng):
    keys = key_universe(tax, mentions, rng)
    zipf = {api: Zipf(len(v), ZIPF_S, rng) for api, v in keys.items()}
    reqs = []
    for _ in range(REQUESTS):
        api = pick_api(rng)
        reqs.append(single_request(api, keys[api][zipf[api].sample()]))
    return reqs


def cold_requests(tax, mentions, rng):
    keys = key_universe(tax, mentions, rng)
    entities = keys['getConcept']
    reqs = []
    for _ in range(REQUESTS):
        u = rng.random()
        if u < BATCH_SHARE:
            api = pick_api(rng)
            param = checks.BATCH_KEYS[api][0]
            items = [rng.choice(keys[api]) for _ in range(BATCH_ITEMS)]
            limit = '&limit=%d' % GET_ENTITY_LIMIT if api == 'getEntity' \
                else ''
            reqs.append('/v1/%s_batch?' % api + '&'.join(
                '%s=%s' % (param, q(k)) for k in items) + limit)
        elif u < BATCH_SHARE + REASON_SHARE * 2 / 3:
            e = rng.choice(entities)
            ancestors = [n for n, d in tax.depths_up(e, ISA_DEPTH).items()
                         if d > 0]
            c = rng.choice(ancestors) if rng.random() < 0.5 and ancestors \
                else rng.choice(keys['getEntity'])
            reqs.append('/v1/isa?entity=%s&concept=%s&max_depth=%d'
                        % (q(e), q(c), ISA_DEPTH))
        elif u < BATCH_SHARE + REASON_SHARE:
            reqs.append('/v1/lca?a=%s&b=%s&max_depth=%d'
                        % (q(rng.choice(entities)), q(rng.choice(entities)),
                           LCA_DEPTH))
        else:
            api = pick_api(rng)
            reqs.append(single_request(api, rng.choice(keys[api])))
    return reqs


def write_lines(path, lines):
    with open(path, 'w', encoding='utf-8') as f:
        for line in lines:
            f.write(line + '\n')


# --- checks of served answers -------------------------------------------

def check_answer(target, status, header_version, body, tax, mentions):
    """Checks one served answer against the taxonomy and dump files."""
    url = urllib.parse.urlsplit(target)
    params = urllib.parse.parse_qs(url.query)
    path = url.path
    if status != 200:
        return ['%s answered %d' % (target, status)]
    data = json.loads(body)
    if not path.endswith('_batch') and data.get('version') != header_version:
        return ['%s: body version %s, header %s'
                % (target, data.get('version'), header_version)]
    if path == '/v1/men2ent':
        return checks.check_men2ent(data['entities'], params['mention'][0],
                                    mentions, tax)
    if path == '/v1/getConcept':
        return checks.check_get_concept(data['concepts'], params['entity'][0],
                                        tax)
    if path == '/v1/getEntity':
        return checks.check_get_entity(data['entities'], params['concept'][0],
                                       int(params['limit'][0]), tax)
    if path == '/v1/isa':
        return checks.check_isa(data, params['entity'][0],
                                params['concept'][0],
                                int(params['max_depth'][0]), tax)
    if path == '/v1/lca':
        return checks.check_lca(data, params['a'][0], params['b'][0],
                                int(params['max_depth'][0]), tax)
    api = path[len('/v1/'):-len('_batch')]
    param = checks.BATCH_KEYS[api][0]
    single = {
        'men2ent': lambda k, v: checks.check_men2ent(v, k, mentions, tax),
        'getConcept': lambda k, v: checks.check_get_concept(v, k, tax),
        'getEntity': lambda k, v: checks.check_get_entity(
            v, k, int(params['limit'][0]), tax),
    }[api]
    return checks.check_batch(data, header_version, api, params[param], single)


def check_bodies(path, reqs, tax, mentions, checked):
    """Checks the first answer to each request line in `path` whose index
    is not yet in `checked`, and adds the indices to it."""
    errors = []
    seen = 0
    with open(path, encoding='utf-8') as f:
        for line in f:
            index, status, version, body = line.rstrip('\n').split('\t', 3)
            seen += 1
            if int(index) in checked:
                continue
            checked.add(int(index))
            errors += check_answer(reqs[int(index)], int(status), int(version),
                                   body, tax, mentions)
    if seen == 0:
        errors.append('no answers recorded')
    return errors


def check_load(result):
    errors = checks.check_versions_monotonic(result['version_changes'])
    if result['body_mismatches']:
        errors.append('%d answers differ from the first answer to the same '
                      'request' % result['body_mismatches'])
    return errors


# --- workloads ----------------------------------------------------------

BUILD_WORLDS = 6  # seeded worlds built per run of the build workload


def build_once(world, cpus):
    """One `cnprobase_cli build` of `world`: (setup_s, build_s, rss_mb), or
    None when it failed. Setup runs from the spawn until the CLI has read its
    three inputs (its read count reaches their size); the build from there
    until the snapshot is written and the process has exited."""
    inputs = sum(os.path.getsize(os.path.join(world, f))
                 for f in ('dump.tsv', 'corpus.tsv', 'lexicon.tsv'))
    proc = Proc([tool('cnprobase_cli'), 'build', world, '--snapshot-out',
                 os.path.join(world, 'snapshot.bin')], world, cpus, 'cli')
    loaded = None
    while loaded is None and proc.p.poll() is None:
        try:
            with open('/proc/%d/io' % proc.p.pid) as f:
                if int(f.readline().split()[1]) >= inputs:
                    loaded = time.perf_counter()
        except (OSError, ValueError, IndexError):
            break
        time.sleep(0.0002)
    while proc.p.poll() is None:
        proc.sample_peak()
        time.sleep(0.002)
    done = time.perf_counter()
    proc.reap(600.0)
    proc.out.close()
    if proc.rc != 0 or loaded is None:
        log('build of %s failed (rc %s):\n%s' % (world, proc.rc, proc.output()))
        return None
    return loaded - proc.start, done - loaded, proc.peak_kb / 1024.0


def check_build(world):
    """Precision against the generator's gold truth, and the snapshot read
    through the program against the TSV read here."""
    tax = checks.Taxonomy.load(os.path.join(world, 'taxonomy.tsv'))
    p = checks.precision(tax.edges(),
                         checks.read_gold(os.path.join(world, 'gold.tsv')))
    log('%s: precision %.4f over %d edges' % (os.path.basename(world), p,
                                              sum(map(len, tax.up))))
    query = subprocess.run(
        [tool('cnprobase_cli'), 'query', world, '--snapshot-in',
         os.path.join(world, 'snapshot.bin')] + tax.names,
        stdout=subprocess.PIPE, text=True, check=True)
    return (checks.check_precision(p)
            + checks.check_snapshot_matches_tsv(query.stdout, tax))


def make_worlds(tmp, seed, n):
    """The first `n` of the build workload's worlds for `seed`, each
    generated from its own seed derived from `seed`."""
    worlds = []
    for i in range(n):
        worlds.append(os.path.join(tmp, 'w%d' % i))
        os.makedirs(worlds[-1])
        generate(worlds[-1], seed * BUILD_WORLDS + i)
    return worlds


def dump_pages(world):
    with open(os.path.join(world, 'dump.tsv'), encoding='utf-8') as f:
        return sum(1 for line in f if not line.startswith('#'))


def run_build(tmp, seed, seconds):
    """Builds BUILD_WORLDS worlds: one world's build time varies by a fifth
    with its make-up, so the run reports the mean over several, and the
    median set-up. An operation is one world's build; throughput counts the
    dump pages built per second of build time."""
    del seconds  # the run is a fixed amount of work: BUILD_WORLDS builds
    cpus = set(os.sched_getaffinity(0))
    worlds = make_worlds(tmp, seed, BUILD_WORLDS)
    results = [build_once(w, cpus) for w in worlds]
    ok = [(w, r) for w, r in zip(worlds, results) if r is not None]
    errors = []
    for w, _ in ok:
        errors += check_build(w)
    if not ok:
        return errors + ['every build failed'], len(worlds), len(worlds), {}
    log('snapshot %.4f MB mean' % (statistics.mean(
        os.path.getsize(os.path.join(w, 'snapshot.bin')) for w, _ in ok)
        / 2**20))
    metrics = {
        'setup_s': statistics.median(r[0] for _, r in ok),
        'latency_ms': statistics.mean(r[1] for _, r in ok) * 1e3,
        'throughput_per_s': (sum(dump_pages(w) for w, _ in ok)
                             / sum(r[1] for _, r in ok)),
        'peak_rss_mb': max(r[2] for _, r in ok),
    }
    return errors, len(worlds), len(worlds) - len(ok), metrics


def first_answer(port, target, want, start):
    """Polls until `target` answers as `want` says; returns the time."""
    deadline = time.perf_counter() + 60
    while time.perf_counter() < deadline:
        try:
            status, body = get(port, target)
            if status == 200 and want(json.loads(body)):
                return time.perf_counter() - start
        except OSError:
            pass
        time.sleep(0.001)
    raise RuntimeError('no correct answer from port %d' % port)


SETUP_STARTS = 5  # cold starts per serving and ingest run


def stop_all(procs):
    """Drains `procs` in reverse start order; each must exit 0."""
    stopped = [p.stop() for p in reversed(procs)]
    if not all(stopped):
        raise RuntimeError('a server exited non-zero: %s'
                           % [(p.name, p.rc) for p in procs])


def cold_starts(start, procs):
    """Starts the servers SETUP_STARTS times, each time as fresh processes,
    and returns (port, setup_s), setup_s being the median set-up time.
    `start(i, procs)` appends the processes it spawns to `procs` and returns
    (port, set-up seconds). Every start but the last is drained at once; the
    last is left running in `procs` for the measured part."""
    setups = []
    for i in range(SETUP_STARTS):
        if i:
            stop_all(procs)
            del procs[:]
        port, setup = start(i, procs)
        setups.append(setup)
    log('set-ups %s s' % ' '.join('%.4f' % x for x in setups))
    return port, statistics.median(setups)


ROUNDS = 20  # interleaved closed/open windows per serving run


def serving_metrics(tmp, port, reqs, seconds, rate, cpus_load, tax, mentions):
    """Interleaved rounds of a closed-loop throughput window and an open-loop
    latency window, so slow drift on the host hits both alike; each metric
    is the median over rounds. Round k starts both windows at request line
    k * REQUESTS / ROUNDS, so the rounds together walk the whole list. The
    first answer to every request line is checked against the taxonomy and
    dump files; every window compares each answer with the first answer to
    the same request and watches version stamps."""
    req_path = os.path.join(tmp, 'requests.txt')
    write_lines(req_path, reqs)
    window = 0.4 * seconds / ROUNDS
    rps, p50, p90, p99, late = [], [], [], [], []
    errors, attempted, failed, hits, misses = [], 0, 0, 0, 0
    checked = set()
    steal = cpu_steal()
    for k in range(ROUNDS):
        bodies = [os.path.join(tmp, '%s%d.bodies' % (m, k))
                  for m in ('closed', 'open')]
        offset = str(k * len(reqs) // ROUNDS)
        closed = run_tool([tool('pb_load'), 'closed', '--port', str(port),
                           '--requests', req_path, '--offset', offset,
                           '--conns', '4', '--seconds', str(window),
                           '--bodies', bodies[0]], cpus_load, tmp)
        opened = run_tool([tool('pb_load'), 'open', '--port', str(port),
                           '--requests', req_path, '--offset', offset,
                           '--conns', '2', '--rate', str(rate),
                           '--seconds', str(window),
                           '--bodies', bodies[1]], cpus_load, tmp)
        rps.append(closed['rps'])
        p50.append(opened['p50_s'] * 1e6)
        p90.append(opened['p90_s'] * 1e6)
        p99.append(opened['p99_s'] * 1e6)
        late.append(opened['max_late_s'] * 1e3)
        for r in (closed, opened):
            errors += check_load(r)
            attempted += r['attempted']
            failed += r['failed']
            hits += r['cache_hits']
            misses += r['cache_misses']
        for path in bodies:
            errors += check_bodies(path, reqs, tax, mentions, checked)
    log_steal(steal)
    log('rps %s\np50 %s\np90 %s\np99 %s\nlate ms %s' % tuple(
        ' '.join('%.0f' % x for x in v) for v in (rps, p50, p90, p99, late)))
    metrics = {
        'throughput_per_s': statistics.median(rps),
        'latency_ms': statistics.median(p50) / 1e3,
    }
    return errors, attempted, failed, metrics, (hits, misses)


def probe(tax):
    """A getConcept request whose answer is known from taxonomy.tsv."""
    name = next(n for i, n in enumerate(tax.names) if tax.up[i])
    want = tax.hypernyms(name)
    return ('/v1/getConcept?entity=' + q(name),
            lambda d: set(d.get('concepts', [])) == want)


def run_table2_hot(tmp, seed, seconds):
    srv, cpus_load = cpu_plan(1)
    tax, mentions = serving_world(tmp, seed)
    reqs = hot_requests(tax, mentions, random.Random(seed))
    target, want = probe(tax)

    def start(_, procs):
        procs.append(Proc([tool('cnprobase_serve'), '--snapshot-in',
                           'snapshot.bin', '--threads', '1', '--cache-mb', '8'],
                          tmp, srv[0], 'serve'))
        port = procs[0].port()
        return port, first_answer(port, target, want, procs[0].start)

    procs = []
    try:
        port, setup = cold_starts(start, procs)
        errors, attempted, failed, metrics, (hits, misses) = serving_metrics(
            tmp, port, reqs, seconds, HOT_RATE, cpus_load, tax, mentions)
        if hits == 0 or misses == 0:
            errors.append('cache hits and misses were not both compared')
    finally:
        stop_all(procs)
    metrics['setup_s'] = setup
    metrics['peak_rss_mb'] = procs[0].peak_kb / 1024.0
    return errors, attempted + SETUP_STARTS, failed, metrics


def run_routed_cold(tmp, seed, seconds):
    srv, cpus_load = cpu_plan(3)
    tax, mentions = serving_world(tmp, seed)
    reqs = cold_requests(tax, mentions, random.Random(seed))
    target, want = probe(tax)

    def start(_, procs):
        for i in range(2):
            procs.append(Proc([tool('cnprobase_serve'), '--snapshot-in',
                               'snapshot.bin', '--threads', '1'],
                              tmp, srv[i], 'backend%d' % i))
        cmd = [tool('pb_router'), '--threads', '1']
        for p in procs:
            cmd += ['--backend', str(p.port())]
        procs.append(Proc(cmd, tmp, srv[2], 'router'))
        port = procs[-1].port()
        return port, first_answer(port, target, want, procs[0].start)

    procs = []
    try:
        port, setup = cold_starts(start, procs)
        errors, attempted, failed, metrics, _ = serving_metrics(
            tmp, port, reqs, seconds, COLD_RATE, cpus_load, tax, mentions)
    finally:
        stop_all(procs)
    router_stats = json.loads(procs[-1].output().strip().splitlines()[-1])
    log('router %s' % router_stats)
    if router_stats['mixed_generation_refusals']:
        errors.append('router refused mixed-generation merges')
    metrics['setup_s'] = setup
    metrics['peak_rss_mb'] = sum(p.peak_kb for p in procs) / 1024.0
    return errors, attempted + SETUP_STARTS, failed, metrics


def ingest_inputs(tmp, seed):
    """Table II reads with Zipf keys from the world cnprobase_ingestd builds
    its base from (a key the base build did not keep answers 404), and
    seeded pages to upsert, each tagged with one of that world's concepts."""
    generate(tmp, 'base', INGEST_ENTITIES)
    rng = random.Random(seed)
    pages, concepts = [], set()
    with open(os.path.join(tmp, 'gold.tsv'), encoding='utf-8') as f:
        for line in f:
            row = line.rstrip('\n').split('\t')
            concepts.update(row[1:])
    with open(os.path.join(tmp, 'dump.tsv'), encoding='utf-8') as f:
        for line in f:
            if not line.startswith('#'):
                row = line.split('\t')
                pages.append((row[1], row[2]))
    concepts = sorted(concepts)
    rng.shuffle(pages)
    rng.shuffle(concepts)
    zipf = Zipf(len(pages), ZIPF_S, rng)
    concept_zipf = Zipf(len(concepts), ZIPF_S, rng)
    reqs = []
    for _ in range(REQUESTS):
        api = pick_api(rng)
        name, mention = pages[zipf.sample()]
        key = {'men2ent': mention, 'getConcept': name,
               'getEntity': concepts[concept_zipf.sample()]}[api]
        reqs.append(single_request(api, key))
    new_pages = []
    for k in range(int(INGEST_RATE * 60)):
        tag = rng.choice(concepts)
        mention = '压测条目%dx%d' % (seed, k)
        new_pages.append('%s（%s）\t%s\t%s' % (mention, tag, mention, tag))
    return reqs, new_pages


def run_ingest_churn(tmp, seed, seconds):
    """An operation is one page upsert, from when its POST was due until a
    read first shows it; throughput counts the reads completed per second
    beside the writer."""
    srv, cpus_load = cpu_plan(2)
    reqs, pages = ingest_inputs(tmp, seed)
    write_lines(os.path.join(tmp, 'requests.txt'), reqs)
    write_lines(os.path.join(tmp, 'pages.txt'), pages)

    def start(i, procs):
        wal = os.path.join(tmp, 'wal%d' % i)
        os.mkdir(wal)
        procs.append(Proc([tool('cnprobase_ingestd'), '--wal-dir', wal,
                           '--threads', '1', '--entities', str(INGEST_ENTITIES)],
                          tmp, set.union(*srv), 'ingestd'))
        port = procs[0].port()
        return port, first_answer(port, '/healthz',
                                  lambda d: d.get('status') == 'ok',
                                  procs[0].start)

    procs = []
    try:
        port, setup = cold_starts(start, procs)
        steal = cpu_steal()
        result = run_tool([tool('pb_load'), 'ingest', '--port', str(port),
                           '--requests', os.path.join(tmp, 'requests.txt'),
                           '--pages', os.path.join(tmp, 'pages.txt'),
                           '--conns', '2', '--rate', str(INGEST_RATE),
                           '--seconds', str(0.8 * seconds),
                           '--bodies', os.path.join(tmp, 'outcomes.txt')],
                          cpus_load, tmp)
        status, metrics_body = get(port, '/metrics')
        log_steal(steal)
    finally:
        stop_all(procs)
    log('ingest %s' % {k: v for k, v in result.items()
                       if k != 'version_changes'})
    errors = check_load(result)
    with open(os.path.join(tmp, 'outcomes.txt'), encoding='utf-8') as f:
        outcomes = [(r[0], r[1] == '1', r[2] == '1', r[3] == '1')
                    for r in (line.rstrip('\n').split('\t') for line in f)]
    errors += checks.check_ingest_outcomes(outcomes)
    if len(outcomes) != result['pages']:
        errors.append('%d page outcomes for %d pages'
                      % (len(outcomes), result['pages']))
    attempted = result['attempted'] + result['pages'] + SETUP_STARTS
    failed = result['failed'] + result['write_failed']
    metrics = {
        'setup_s': setup,
        'latency_ms': result['visible_p50_s'] * 1e3,
        'throughput_per_s': result['read_rps'],
        'peak_rss_mb': procs[0].peak_kb / 1024.0,
    }
    log('/metrics %s, %d bytes at the end' % (status, len(metrics_body)))
    return errors, attempted, failed, metrics


TRACE_WORLDS = 3  # build worlds the traced run averages over


def run_traced(workload, tmp, seed, seconds):
    """The traced run. Every workload reports every per-layer metric, so
    each traced run times all the layers, each on the inputs this seed gives
    the workload that drives it (LAYERS), in shorter parts than the untraced
    runs. Returns (layers, the named workload's traced end-to-end figures)."""
    cpus = set(os.sched_getaffinity(0))
    parts = {}
    worlds = make_worlds(os.path.join(tmp, 'build'), seed, TRACE_WORLDS)
    traced = [run_tool([tool('pb_trace'), 'build', w], cpus, w)
              for w in worlds]
    parts['build'] = {part: {k: statistics.mean(t[part][k] for t in traced)
                             for k in traced[0][part]}
                      for part in ('layers', 'e2e')}
    serve = os.path.join(tmp, 'serve')
    os.mkdir(serve)
    tax, mentions = serving_world(serve, seed)
    for name, mode, make in (('table2_hot', 'serve', hot_requests),
                             ('routed_cold', 'routed', cold_requests)):
        path = os.path.join(serve, name + '.txt')
        write_lines(path, make(tax, mentions, random.Random(seed)))
        parts[name] = run_tool([tool('pb_trace'), mode, serve, path,
                                str(seconds / 4)], cpus, serve)
    ingest = os.path.join(tmp, 'ingest')
    os.mkdir(ingest)
    _, pages = ingest_inputs(ingest, seed)
    write_lines(os.path.join(ingest, 'pages.txt'), pages)
    parts['ingest_churn'] = run_tool(
        [tool('pb_trace'), 'ingest', ingest, os.path.join(ingest, 'pages.txt'),
         str(INGEST_ENTITIES), str(INGEST_RATE),
         str(int(INGEST_RATE * 0.4 * seconds))], cpus, ingest)
    layers = {k: parts[name]['layers'][k]
              for name, units in LAYERS.items() for k in units}
    return layers, parts[workload]['e2e']


WORKLOADS = {
    'build': run_build,
    'table2_hot': run_table2_hot,
    'routed_cold': run_routed_cold,
    'ingest_churn': run_ingest_churn,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_program()
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix='run-', dir=WORK)
    try:
        if args.trace:
            metrics, e2e = run_traced(args.workload, tmp, args.seed,
                                      args.seconds)
        else:
            errors, attempted, failed, metrics = WORKLOADS[args.workload](
                tmp, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        print(json.dumps({'traced_e2e': e2e}))
        units = {k: u for layer in LAYERS.values() for k, u in layer.items()}
        out = {'correct': True, 'attempted': 1, 'failed': 0}
    else:
        for e in errors[:20]:
            log('CHECK FAILED: %s' % e)
        units = END_TO_END
        out = {'correct': not errors, 'attempted': attempted,
               'failed': failed}
    if set(metrics) != set(units):
        raise RuntimeError('measured %s, not %s'
                           % (sorted(metrics), sorted(units)))
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError('metric %s is not finite' % name)
    out['metrics'] = {name: {'value': metrics[name], 'unit': units[name]}
                      for name in units}
    print(json.dumps(out))


if __name__ == '__main__':
    main()
