#!/usr/bin/env python3
"""Steadiness of the benchmark: runs one workload N times, each with its own
seed, and prints every metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median), next to
the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Each run lasts BENCHMARK.json's run_seconds. The bounds in BENCHMARK.json
are set from this command's output: each end-to-end spread should stay below
a third of its bound, and a spread at or above that is flagged TOO WIDE.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True)
    ap.add_argument('--runs', type=int, default=10)
    ap.add_argument('--first-seed', type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        bench = json.load(f)
    bounds = {m['name']: m['bound'] for m in bench['end_to_end']}
    seconds = bench['run_seconds']

    values, shares, correct = {}, [], True
    for k in range(args.runs):
        seed = args.first_seed + k
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, 'run.py'), '--workload',
             args.workload, '--seed', str(seed), '--seconds', str(seconds),
             '--trace', '0'],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if r.returncode != 0:
            sys.exit('run with seed %d failed (exit %d)' % (seed, r.returncode))
        out = json.loads(r.stdout.strip().splitlines()[-1])
        correct &= out['correct']
        shares.append(out['failed'] / out['attempted'])
        for name, m in out['metrics'].items():
            values.setdefault(name, []).append(m['value'])
        print('seed %d: %s' % (seed, ' '.join(
            '%s=%.6g' % (n, m['value']) for n, m in out['metrics'].items())),
            flush=True)

    print('\n%-28s %12s %12s %12s %8s %8s' % (
        'metric', 'median', 'q1', 'q3', 'spread', 'bound/3'))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float('inf')
        third = bounds[name] / 3
        print('%-28s %12.6g %12.6g %12.6g %8.3f %8.3f%s' % (
            name, med, q1, q3, spread, third,
            '' if spread < third else '  TOO WIDE'))
    print('\ncorrect in every run: %s; failed share per run: %s'
          % (correct, sorted(set(shares))))


if __name__ == '__main__':
    main()
