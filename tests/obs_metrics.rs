//! Property and concurrency tests for the `csq-obs` metrics registry.
//!
//! * Merged-histogram percentiles stay within the geometric-bucket
//!   error bound of the exact order statistics: for any recorded
//!   values, `v ≤ estimate ≤ max(2·v, 1)` where `v` is the exact
//!   percentile of the pooled data — and merging two snapshots gives
//!   exactly the histogram of recording everything into one.
//! * Counter and gauge snapshots are race-free under concurrent
//!   writers: no update is lost and no snapshot observes a torn or
//!   retreating value.

use csq_repro::obs::{GeoHistogram, MetricsRegistry};
use csq_repro::tensor::prop::for_all;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// Exact q-th percentile of `values` by sorting, matching the
/// histogram's rank convention (`ceil(total · q)`, 1-based).
fn exact_percentile(values: &mut [u64], q: f64) -> u64 {
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `len` recorded values in `0..8_000_000`, with `len` drawn from
/// `lens`.
fn samples(rng: &mut ChaCha8Rng, lens: std::ops::Range<usize>) -> Vec<u64> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen_range(0u64..8_000_000)).collect()
}

/// Values are capped below the top finite bucket bound (2^23 for the
/// default 24 buckets) so the overflow clamp never kicks in and the
/// geometric bound is exact.
#[test]
fn merged_percentiles_stay_within_geometric_bound() {
    for_all(64, 0, |rng| {
        let a = samples(rng, 1..200);
        let b = samples(rng, 0..200);
        let ha = GeoHistogram::new(24);
        let hb = GeoHistogram::new(24);
        let hall = GeoHistogram::new(24);
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        assert_eq!(
            &merged,
            &hall.snapshot(),
            "merging snapshots must equal recording everything into one"
        );

        let mut pooled: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_percentile(&mut pooled, q);
            let est = merged.percentile(q);
            assert!(est >= exact, "p{q}: estimate {est} below exact {exact}");
            assert!(
                est <= (2 * exact).max(1),
                "p{q}: estimate {est} beyond geometric bound of exact {exact}"
            );
        }
    });
}

/// Concurrent counter/gauge writers against a snapshotting reader: the
/// final tallies are exact (no lost updates) and every mid-flight
/// snapshot sees the counter monotonically non-decreasing and within
/// range (no torn reads).
#[test]
fn counter_and_gauge_snapshots_are_race_free_under_concurrent_writers() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;
    let reg = MetricsRegistry::new();
    let done = AtomicBool::new(false);
    // The writers start only after the reader's first snapshot.
    let start = Barrier::new(WRITERS + 1);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (reg, start) = (&reg, &start);
            scope.spawn(move || {
                start.wait();
                let c = reg.counter("hits");
                let g = reg.gauge("level");
                for i in 0..PER_WRITER {
                    c.inc();
                    // Writer w nets +w over its run.
                    if i % 2 == 0 {
                        g.add(w as i64 + 1);
                    } else {
                        g.add(-(w as i64 + 1));
                    }
                }
                g.add(w as i64 + 1); // one unpaired add: net +(w+1)
            });
        }
        let reader = scope.spawn(|| {
            let mut last = 0u64;
            let mut snapshots = 0u64;
            loop {
                let snap = reg.snapshot();
                let hits = snap.counters.get("hits").copied().unwrap_or(0);
                assert!(hits >= last, "counter went backwards: {last} -> {hits}");
                assert!(
                    hits <= WRITERS as u64 * PER_WRITER,
                    "counter overshot: {hits}"
                );
                last = hits;
                snapshots += 1;
                if snapshots == 1 {
                    start.wait();
                }
                if done.load(Ordering::Relaxed) {
                    break;
                }
            }
            snapshots
        });
        // Writers finish, then release the reader.
        // (Scope joins writer threads automatically; signal via a side
        // channel once the counter is fully written.)
        let c = reg.counter("hits");
        while c.get() < WRITERS as u64 * PER_WRITER {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
        let snapshots = reader.join().unwrap();
        assert!(snapshots > 0, "reader must have snapshotted at least once");
    });

    let snap = reg.snapshot();
    assert_eq!(
        snap.counters["hits"],
        WRITERS as u64 * PER_WRITER,
        "every increment must land"
    );
    // Paired adds cancel; the unpaired tail sums 1+2+..+WRITERS.
    let expected: i64 = (1..=WRITERS as i64).sum();
    assert_eq!(snap.gauges["level"], expected, "gauge adds must not race");
}

/// The fleet-rollup invariant: merging K per-replica histograms (as
/// `csq-fleet` does when rolling replica stats into one model view) and
/// then taking a percentile is within one geometric bucket — a factor of
/// 2 — of the exact percentile of pooling every replica's raw samples.
/// Replica counts, sizes, and value ranges are all arbitrary; the bound
/// must hold regardless of how traffic was sharded across replicas.
#[test]
fn k_replica_merge_percentiles_stay_within_one_bucket() {
    for_all(64, 0, |rng| {
        let replicas: Vec<Vec<u64>> = (0..rng.gen_range(1usize..9))
            .map(|_| samples(rng, 1..120))
            .collect();
        let mut merged = GeoHistogram::new(24).snapshot();
        let mut pooled: Vec<u64> = Vec::new();
        for samples in &replicas {
            let h = GeoHistogram::new(24);
            for &v in samples {
                h.record(v);
                pooled.push(v);
            }
            merged.merge(&h.snapshot());
        }
        assert_eq!(merged.total(), pooled.len() as u64);
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_percentile(&mut pooled, q);
            let est = merged.percentile(q);
            assert!(
                est >= exact,
                "p{q} over {} replicas: estimate {est} below exact {exact}",
                replicas.len()
            );
            assert!(
                est <= (2 * exact).max(1),
                "p{q} over {} replicas: estimate {est} beyond one geometric bucket of {exact}",
                replicas.len()
            );
        }
    });
}
