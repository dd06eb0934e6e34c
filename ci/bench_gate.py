#!/usr/bin/env python3
"""Regression and agreement gates over the bench JSON outputs.

One subcommand per gate; each compares a fresh bench run (by default under
bench-results/) against the checked-in baseline at the repository root and
exits non-zero on any failure. Run from the repository root, e.g.

    ./build/bench/bench_policy_scale --tiny --json=bench-results/policy.json
    python3 ci/bench_gate.py policy-scale

Gates (the bench invocation that produces each input is in ci.yml):

    service       bench_service p99 / saturation / hit-rate gate
    policy-scale  bench_policy_scale decisions, warm eval latency, speedup
    loopback      distributed bench_micro rows vs BENCH_micro.json row rows
    backends      cross-backend agreement (micro, fig6gh, lossy, plan cache,
                  plan-cache churn admission)
    storage       disk-scan and spill-join digest agreement
    disk-ratio    disk/memory scan geomeans (row, fragment) vs BENCH_micro.json
                  (median over one or more --current runs)
    vector        fragment/row geomean speedup vs the fragment summary row
                  of BENCH_micro.json (median over one or more --current
                  runs)
    trace         Chrome trace artifact well-formedness
"""

import argparse
import json
import statistics
import sys

ALL_MODES = {'row', 'fragment'}


def load(path):
    with open(path) as f:
        return json.load(f)


def by_key(rows, keys):
    out = {}
    for r in rows:
        out.setdefault(tuple(r[k] for k in keys), []).append(r)
    return out


def gate_service(args):
    # ASan and runner jitter inflate sub-millisecond latencies, so the p99
    # comparison carries a 2 ms absolute slack on top of the 15% band; the
    # saturation floor is purely relative. The hit-rate floor (0.90) is the
    # acceptance criterion for the parameterized cache on a same-template
    # workload.
    def rows(path, kind):
        return [r for r in load(path) if r.get('bench') == kind]

    def summary(path):
        s = rows(path, 'service_summary')
        if len(s) != 1:
            sys.exit(f'{path}: expected one summary row, got {len(s)}')
        return s[0]

    base, cur = summary(args.baseline), summary(args.current)
    failures = 0

    sat_floor = base['saturation_qps'] * 0.85
    print(f"saturation: baseline {base['saturation_qps']:.1f} QPS, "
          f"current {cur['saturation_qps']:.1f} QPS, "
          f"floor {sat_floor:.1f} QPS")
    if cur['saturation_qps'] < sat_floor:
        print('perf regression: saturation QPS dropped more than '
              '15% below the checked-in baseline')
        failures += 1

    base_by_qps = {r['offered_qps']: r for r in rows(args.baseline, 'service')}
    for r in rows(args.current, 'service'):
        b = base_by_qps.get(r['offered_qps'])
        if b is None:
            continue
        ceil = max(b['p99_ms'] * 1.15, b['p99_ms'] + 2.0)
        print(f"p99 @ {r['offered_qps']:.0f} QPS: baseline "
              f"{b['p99_ms']:.3f} ms, current {r['p99_ms']:.3f} ms, "
              f"ceiling {ceil:.3f} ms")
        if r['p99_ms'] > ceil:
            print('perf regression: p99 latency rose more than 15% '
                  'above the checked-in baseline')
            failures += 1

    if cur['hit_rate'] < 0.90:
        print(f"plan cache hit rate {cur['hit_rate']:.3f} below "
              f"the 0.90 acceptance floor")
        failures += 1
    for r in rows(args.current, 'service'):
        if r['failed'] > 0:
            print(f"{r['failed']} queries failed at "
                  f"{r['offered_qps']:.0f} QPS")
            failures += 1
    return failures


def gate_policy_scale(args):
    # Flat/hier decisions must agree in every cell; the warm hierarchical
    # eval latency must not regress more than 15% (plus 0.5 ms absolute
    # slack, since the whole workload evaluates in ~0.1 ms, far below runner
    # jitter); the largest cell must keep a >=10x eval speedup over the flat
    # index (the speedup ratio itself is too load-sensitive to band
    # tightly).
    def sweep(path):
        return {(r['policies'], r['regions']): r
                for r in load(path)
                if r.get('bench') == 'policy_scale'
                and r.get('section') == 'sweep'}

    base, cur = sweep(args.baseline), sweep(args.current)
    failures = 0

    for key, r in sorted(cur.items()):
        if not r['decisions_equal']:
            print(f'{key}: flat/hier decisions diverge')
            failures += 1
        b = base.get(key)
        if b is None:
            print(f'{key}: no baseline cell')
            failures += 1
            continue
        ceil = max(b['hier_eval_ms'] * 1.15, b['hier_eval_ms'] + 0.5)
        print(f"{key}: hier eval baseline {b['hier_eval_ms']:.3f} ms, "
              f"current {r['hier_eval_ms']:.3f} ms, "
              f"ceiling {ceil:.3f} ms, "
              f"speedup {r['eval_speedup']:.1f}x")
        if r['hier_eval_ms'] > ceil:
            print(f'{key}: perf regression: hierarchical eval '
                  f'latency rose more than 15% above the baseline')
            failures += 1

    largest = max(cur)
    if cur[largest]['eval_speedup'] < 10.0:
        print(f"{largest}: eval speedup "
              f"{cur[largest]['eval_speedup']:.1f}x below the 10x "
              f"acceptance floor")
        failures += 1
    return failures


def gate_loopback(args):
    # The distributed rows must agree with the baseline's row backend on
    # rows, ship accounting and the result digest.
    base = {r['query']: r for r in load(args.baseline)
            if r.get('bench') == 'micro_exec'
            and r.get('exec_mode') == 'row'}
    dist = [r for r in load(args.current)
            if r.get('bench') == 'micro_exec'
            and r.get('exec_mode') == 'distributed']
    failures = 0
    if not dist:
        print('loopback: no distributed rows emitted')
        failures += 1
    for r in dist:
        b = base.get(r['query'])
        if b is None:
            print(f"loopback: Q{r['query']} has no baseline row")
            failures += 1
            continue
        for field in ('rows', 'ships', 'rows_shipped',
                      'bytes_shipped', 'result_digest'):
            if r[field] != b[field]:
                print(f"loopback: Q{r['query']} disagrees on "
                      f"{field}: {r[field]} vs baseline {b[field]}")
                failures += 1
    print(f'{len(dist)} loopback rows checked against the baseline, '
          f'{failures} disagreement(s)')
    return failures


def gate_backends(args):
    failures = 0
    micro = [r for r in load(args.micro) if r.get('bench') == 'micro_exec']
    for key, rows in by_key(micro, ['query']).items():
        modes = {r['exec_mode']: r for r in rows}
        if set(modes) != ALL_MODES:
            print(f'micro: query {key} missing a backend: {set(modes)}')
            failures += 1
            continue
        for field in ('rows', 'ships', 'rows_shipped',
                      'bytes_shipped', 'result_digest'):
            if modes['row'][field] != modes['fragment'][field]:
                print(f'micro: query {key} fragment disagrees on '
                      f"{field}: {modes['row'][field]} vs "
                      f"{modes['fragment'][field]}")
                failures += 1

    fig = [r for r in load(args.fig6gh) if r.get('bench') == 'fig6gh']
    for key, rows in by_key(fig, ['policy_set', 'query']).items():
        modes = {r['exec_mode']: r for r in rows}
        if set(modes) != ALL_MODES:
            print(f'fig6gh: {key} missing a backend: {set(modes)}')
            failures += 1
            continue
        for field in ('rows', 'ships', 'rows_shipped', 'bytes_shipped'):
            if modes['row'][field] != modes['fragment'][field]:
                print(f'fig6gh: {key} fragment disagrees on {field}')
                failures += 1

    # Under the lossy profile the backends sample faults at their own batch
    # granularity, so shipped volume legitimately differs — but after
    # retries the *results* must still be byte-identical, and the recovery
    # counters must show that faults were actually injected and absorbed.
    faulted = [r for r in load(args.fault) if r.get('bench') == 'micro_exec']
    total_retries = 0
    for key, rows in by_key(faulted, ['query']).items():
        modes = {r['exec_mode']: r for r in rows}
        if set(modes) != ALL_MODES:
            print(f'fault: query {key} missing a backend: {set(modes)}')
            failures += 1
            continue
        for field in ('rows', 'ships', 'result_digest'):
            if modes['row'][field] != modes['fragment'][field]:
                print(f'fault: query {key} fragment disagrees on '
                      f"{field}: {modes['row'][field]} vs "
                      f"{modes['fragment'][field]}")
                failures += 1
        total_retries += sum(r['send_retries'] for r in rows)
    if faulted and total_retries == 0:
        print('fault: lossy profile injected no retries at all')
        failures += 1

    # Plan cache: a cached plan must make the same decisions as a cold
    # optimization — identical result digest and ship counts — and the
    # warmed workload must actually hit.
    cache = [r for r in load(args.micro) if r.get('bench') == 'plan_cache']
    if not cache:
        print('plan_cache: no rows emitted')
        failures += 1
    for r in cache:
        if not r['cache_hit']:
            print(f"plan_cache: Q{r['query']} missed after warming")
            failures += 1
        if not r['decisions_match'] or \
                r['cold_digest'] != r['cached_digest']:
            print(f"plan_cache: Q{r['query']} cached decisions "
                  f"differ from cold")
            failures += 1
    summaries = [r for r in load(args.micro)
                 if r.get('bench') == 'plan_cache_summary']
    for s in summaries:
        if s['hit_rate'] < 0.99:
            print(f"plan_cache: hit rate {s['hit_rate']} below 0.99")
            failures += 1

    # Plan-cache churn: every skeleton in the row is first-seen, so a full
    # cache must refuse them (admission on second miss), never evict.
    churn = [r for r in load(args.micro)
             if r.get('bench') == 'plan_cache_churn']
    if cache and not churn:
        print('plan_cache_churn: no row emitted')
        failures += 1
    for r in churn:
        if r['evicted'] != 0:
            print(f"plan_cache_churn: full cache evicted {r['evicted']} "
                  f"entries for first-seen keys")
            failures += 1
        if r['refused'] == 0:
            print('plan_cache_churn: no insert refused')
            failures += 1
        if r['admitted'] + r['refused'] != r['skeletons']:
            print(f"plan_cache_churn: {r['admitted']} admitted + "
                  f"{r['refused']} refused != {r['skeletons']} inserts")
            failures += 1

    print(f'{len(micro)} micro rows, {len(fig)} fig6gh rows, '
          f'{len(faulted)} faulted rows '
          f'({total_retries} retries absorbed), '
          f'{len(cache)} plan-cache rows, {len(churn)} churn rows, '
          f'{failures} disagreement(s)')
    return failures


def gate_storage(args):
    # Disk-backed scans and budget-forced spill joins must be byte-identical
    # to the in-memory unbounded reference.
    rows = load(args.current)
    failures = 0

    storage = [r for r in rows if r.get('bench') == 'micro_storage']
    disk = [r for r in storage if r.get('storage') == 'disk']
    if not disk:
        print('storage: no disk rows emitted')
        failures += 1
    for r in disk:
        if not r['digest_match']:
            print(f"storage: Q{r['query']} {r['exec_mode']} disk "
                  f"digest differs from memory")
            failures += 1
        if r['storage_blocks_read'] <= 0:
            print(f"storage: Q{r['query']} {r['exec_mode']} disk "
                  f"run read no blocks")
            failures += 1

    spill = [r for r in rows if r.get('bench') == 'micro_spill']
    finite = [r for r in spill if r.get('budget') != 'inf']
    if not finite:
        print('spill: no finite-budget rows emitted')
        failures += 1
    for r in spill:
        if not r['digest_match']:
            print(f"spill: Q{r['query']} {r['exec_mode']} "
                  f"{r['budget']} digest differs from unbounded")
            failures += 1
    for r in finite:
        if r['spill_partitions'] <= 0:
            print(f"spill: Q{r['query']} {r['exec_mode']} "
                  f"{r['budget']} did not spill")
            failures += 1

    print(f'{len(storage)} storage rows, {len(spill)} spill rows, '
          f'{failures} disagreement(s)')
    return failures


def median_over_runs(paths, value):
    """The median of value(path) over the runs, printing each."""
    values = [value(path) for path in paths]
    if len(values) > 1:
        print('  runs: ' + ', '.join(f'{v:.2f}x' for v in values))
    return statistics.median(values)


def gate_disk_ratio(args):
    # Same-machine ratios: the geomean disk/memory scan slowdown of the
    # row backend and of the fragment runtime must each not regress more
    # than 15% against the baseline. With several --current runs the
    # median ratio is gated, so one run slowed by host noise does not fail.
    def disk_ratio(path, mode):
        rows = [r for r in load(path)
                if r.get('bench') == 'micro_storage_summary'
                and r.get('exec_mode') == mode]
        if len(rows) != 1:
            sys.exit(f'{path}: expected one {mode} storage summary, '
                     f'got {len(rows)}')
        return rows[0]['disk_over_memory']

    failures = 0
    for mode in ('row', 'fragment'):
        baseline = disk_ratio(args.baseline, mode)
        current = median_over_runs(args.current,
                                   lambda path: disk_ratio(path, mode))
        ceiling = baseline * 1.15
        print(f'disk/memory {mode} scan geomean: baseline {baseline:.2f}x, '
              f'current {current:.2f}x (median of {len(args.current)}), '
              f'ceiling {ceiling:.2f}x')
        if current > ceiling:
            print(f'perf regression: {mode} disk scans slowed more than 15% '
                  'relative to the checked-in baseline')
            failures += 1
    return failures


def gate_vector(args):
    # Same-machine ratio: the fragment/row geomean speedup (the columnar
    # runtime over the row oracle) must not drop more than 15% below the
    # checked-in fragment summary row. With several --current runs the
    # median speedup is gated.
    def geomean(path):
        rows = [r for r in load(path)
                if r.get('bench') == 'micro_exec_summary'
                and r.get('exec_mode') == 'fragment']
        if len(rows) != 1:
            sys.exit(f'{path}: expected one fragment summary row, '
                     f'got {len(rows)}')
        return rows[0]['geomean_speedup']

    baseline = geomean(args.baseline)
    current = median_over_runs(args.current, geomean)
    floor = baseline * 0.85
    print(f'fragment/row geomean: baseline {baseline:.2f}x, '
          f'current {current:.2f}x (median of {len(args.current)}), '
          f'floor {floor:.2f}x')
    if current < floor:
        print('perf regression: fragment geomean dropped more '
              'than 15% below the checked-in baseline')
        return 1
    return 0


def gate_trace(args):
    events = load(args.current)['traceEvents']
    spans = [e for e in events if e.get('ph') == 'X']
    meta = [e for e in events if e.get('ph') == 'M']
    failures = 0
    if not meta:
        print('trace: no metadata events')
        failures += 1
    if not spans:
        print('trace: no complete (X) events')
        failures += 1
    for e in spans:
        for key in ('name', 'cat', 'ph', 'pid', 'tid', 'ts', 'dur'):
            if key not in e:
                print(f'trace: span missing {key}: {e}')
                failures += 1
                break
    names = {e['name'] for e in spans}
    for expected in ('query', 'optimize', 'execute', 'ship'):
        if expected not in names:
            print(f'trace: no "{expected}" span recorded')
            failures += 1
    print(f'{len(spans)} spans, {len(meta)} metadata events, '
          f'{failures} problem(s)')
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog='\n'.join(__doc__.splitlines()[1:]))
    sub = parser.add_subparsers(dest='gate', required=True)

    def add(name, fn, **paths):
        p = sub.add_parser(name)
        for flag, default in paths.items():
            # A list default takes one or more files (median gates).
            p.add_argument('--' + flag, default=default,
                           nargs='+' if isinstance(default, list) else None)
        p.set_defaults(fn=fn)

    add('service', gate_service, baseline='BENCH_service.json',
        current='bench-results/service.json')
    add('policy-scale', gate_policy_scale, baseline='BENCH_policy.json',
        current='bench-results/policy.json')
    add('loopback', gate_loopback, baseline='BENCH_micro.json',
        current='bench-results/micro-dist.json')
    add('backends', gate_backends, micro='bench-results/micro.json',
        fig6gh='bench-results/fig6gh.json',
        fault='bench-results/micro-fault.json')
    add('storage', gate_storage, current='bench-results/micro.json')
    add('disk-ratio', gate_disk_ratio, baseline='BENCH_micro.json',
        current=['bench-results/micro.json'])
    add('vector', gate_vector, baseline='BENCH_micro.json',
        current=['bench-results/micro.json'])
    add('trace', gate_trace, current='bench-results/trace.json')

    args = parser.parse_args()
    sys.exit(1 if args.fn(args) else 0)


if __name__ == '__main__':
    main()
