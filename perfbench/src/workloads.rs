//! The four seeded workloads.  Each one generates its rows from the seed,
//! hands only those rows to the public APIs of `mlnclean`, `distributed`,
//! `transport` and `mlnw`, times the calls, and checks the outputs outside
//! the timed window.
//!
//! | workload | input | exercises | bypasses |
//! |---|---|---|---|
//! | `tpch-clean` | TPC-H 10^5 rows, 4,096-row batches | session, index, AGP (one block) | multi-block parallelism, multi-version FSCR, coordinator, wire |
//! | `hai-clean` | HAI 8×10^4 rows, 7 rules | session, index, per-block AGP/RSC, 7-version FSCR | coordinator, wire |
//! | `tpch-mutate` | TPC-H 2×10^4 rows, then single updates, 1-row inserts and deletes | index splice and remap, group-scoped refresh, outcome assembly | bulk build, coordinator, wire |
//! | `hai-wire` | HAI 6×10^4 rows through `CleaningService` over a lossy simulated network | coordinator merge rounds, codec, retransmit, journal | — |

use crate::alloc;
use crate::replay;
use crate::trace::Tracer;
use crate::Output;
use datagen::{HaiGenerator, TpchGenerator};
use dataset::{csv, Dataset, DirtyDataset, ErrorType, InjectedError, RepairEvaluation, TupleId};
use mlnclean::{AgpStage, ChangeSet, CleanConfig, CleaningSession, Report};
use rules::RuleSet;
use std::time::Instant;
use transport::{CleaningService, FaultSchedule};

/// Share of rule-related cells the generators corrupt.
const ERROR_RATE: f64 = 0.02;
/// Typo/replacement split of the injected errors (the paper's Rret).
const REPLACEMENT_RATIO: f64 = 0.5;
/// Single-row mutations one `tpch-mutate` process applies.
const MUTATIONS: usize = 90;
/// Partitions of the wire service: one per core of the 2-core host the
/// workloads are sized for.
const PARTITIONS: usize = 2;
/// Batches between the wire coordinator's merge rounds.
const MERGE_EVERY: usize = 8;
/// Set-ups per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Lowest repair F1 accepted as a sane clean of the seeded inputs.
const F1_FLOOR: f64 = 0.5;

/// Which benchmark workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bulk clean of TPC-H rows: AGP over one large block.
    TpchClean,
    /// Bulk clean of HAI rows: seven blocks, seven versions per tuple.
    HaiClean,
    /// A warm TPC-H session under a closed loop of single mutations.
    TpchMutate,
    /// HAI rows through the wire-backed cleaning service.
    HaiWire,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tpch-clean" => Some(Kind::TpchClean),
            "hai-clean" => Some(Kind::HaiClean),
            "tpch-mutate" => Some(Kind::TpchMutate),
            "hai-wire" => Some(Kind::HaiWire),
            _ => None,
        }
    }

    fn data(self) -> Data {
        match self {
            Kind::TpchClean | Kind::TpchMutate => Data::Tpch,
            Kind::HaiClean | Kind::HaiWire => Data::Hai,
        }
    }

    /// Rows of the bulk ingest.
    fn rows(self) -> usize {
        match self {
            Kind::TpchClean => 100_000,
            Kind::HaiClean => 80_000,
            Kind::TpchMutate => 20_000,
            Kind::HaiWire => 60_000,
        }
    }

    fn batch_rows(self) -> usize {
        match self {
            Kind::HaiWire => 1_024,
            _ => 4_096,
        }
    }
}

/// The generator behind a workload.
#[derive(Debug, Clone, Copy)]
enum Data {
    Tpch,
    Hai,
}

impl Data {
    fn schema(self) -> dataset::Schema {
        match self {
            Data::Tpch => TpchGenerator::schema(),
            Data::Hai => HaiGenerator::schema(),
        }
    }

    fn rules(self) -> RuleSet {
        match self {
            Data::Tpch => TpchGenerator::rules(),
            Data::Hai => HaiGenerator::rules(),
        }
    }

    /// The first `take` rows of a `total`-row stream, dirty or its clean
    /// twin.  Entity counts scale with `total` (25 line items per TPC-H
    /// customer, 40 measures per HAI provider), so group structure grows
    /// with the data.
    fn rows(self, total: usize, take: usize, seed: u64, dirty: bool) -> Vec<Vec<String>> {
        match self {
            Data::Tpch => {
                let gen = TpchGenerator::default()
                    .with_rows(total)
                    .with_customers((total / 25).max(1))
                    .with_seed(seed);
                if dirty {
                    let stream = gen.dirty_row_stream(ERROR_RATE, REPLACEMENT_RATIO, seed);
                    stream.take(take).collect()
                } else {
                    gen.row_stream().take(take).collect()
                }
            }
            Data::Hai => {
                let gen = HaiGenerator::default()
                    .with_rows(total)
                    .with_providers((total / 40).max(1))
                    .with_seed(seed);
                if dirty {
                    let stream = gen.dirty_row_stream(ERROR_RATE, REPLACEMENT_RATIO, seed);
                    stream.take(take).collect()
                } else {
                    gen.row_stream().take(take).collect()
                }
            }
        }
    }
}

/// The cleaning configuration of every workload: τ = 2 and the AGP merge
/// guard, as in the repository's ladder.
pub fn clean_config() -> CleanConfig {
    CleanConfig::default()
        .with_tau(2)
        .with_agp_distance_guard(0.15)
}

fn chunks(rows: Vec<Vec<String>>, size: usize) -> Vec<Vec<Vec<String>>> {
    let mut out = Vec::with_capacity(rows.len().div_ceil(size));
    let mut rows = rows.into_iter().peekable();
    while rows.peek().is_some() {
        out.push(rows.by_ref().take(size).collect());
    }
    out
}

fn dataset_of(schema: dataset::Schema, rows: Vec<Vec<String>>) -> Dataset {
    let mut ds = Dataset::with_capacity(schema, rows.len());
    for row in rows {
        ds.push_row(row).expect("generated rows match their schema");
    }
    ds
}

/// Repair F1 of `repaired` against the clean twin of the first `take` rows
/// of a `total`-row stream.
fn repair_f1(data: Data, total: usize, take: usize, seed: u64, repaired: &Dataset) -> f64 {
    let dirty = dataset_of(data.schema(), data.rows(total, take, seed, true));
    let clean = dataset_of(data.schema(), data.rows(total, take, seed, false));
    let errors = dirty
        .diff_cells(&clean)
        .into_iter()
        .map(|cell| InjectedError {
            cell,
            error_type: ErrorType::Replacement,
            original: clean.cell(cell).to_string(),
            dirty: dirty.cell(cell).to_string(),
        })
        .collect();
    let truth = DirtyDataset {
        dirty,
        clean,
        errors,
    };
    RepairEvaluation::evaluate(&truth, repaired).f1()
}

/// Byte-level equality of two reports: repaired and deduplicated CSV plus
/// the AGP/RSC/FSCR provenance.
fn reports_identical(a: &Report, b: &Report) -> bool {
    csv::to_csv(&a.repaired) == csv::to_csv(&b.repaired)
        && csv::to_csv(a.deduplicated()) == csv::to_csv(b.deduplicated())
        && a.agp == b.agp
        && a.rsc == b.rsc
        && a.fscr == b.fscr
}

/// The workload's bulk input as one dataset: every row of the clean and
/// wire workloads, the base rows of `tpch-mutate`.
pub fn bulk_dataset(kind: Kind, seed: u64) -> Dataset {
    let rows = kind.rows();
    let total = match kind {
        Kind::TpchMutate => rows + MUTATIONS.div_ceil(3),
        _ => rows,
    };
    let data = kind.data();
    dataset_of(data.schema(), data.rows(total, rows, seed, true))
}

/// The rule set of a workload.
pub fn rules(kind: Kind) -> RuleSet {
    kind.data().rules()
}

/// SplitMix64: the mutation stream's deterministic choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// How one process runs its workload.
pub struct Run<'a> {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Whether to record spans and do the traced run's extra work.
    pub traced: bool,
    /// Whether to check the outcome against an independent reference
    /// engine (`tpch-mutate`, `hai-wire`).
    pub reference: bool,
    /// Span recorder (disabled in untraced runs).
    pub tracer: &'a mut Tracer,
    /// Measurements and check results.
    pub out: &'a mut Output,
}

impl Run<'_> {
    /// Run the workload once.
    pub fn execute(mut self) {
        match self.kind {
            Kind::TpchClean | Kind::HaiClean => self.bulk_clean(),
            Kind::TpchMutate => self.mutate(),
            Kind::HaiWire => self.wire(),
        }
    }

    /// Run `make` [`SETUP_REPEATS`] times, keeping the last result, and
    /// record the median duration as `setup_s`.  A set-up of tens of
    /// milliseconds varies too much between single samples.
    fn set_up<T>(&mut self, mut make: impl FnMut(&mut Self) -> Option<T>) -> Option<T> {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            // The previous set-up is dropped first, so two never coexist.
            drop(last.take());
            let started = Instant::now();
            last = Some(make(self)?);
            times.push(started.elapsed().as_secs_f64());
        }
        self.out.set("setup_s", median(&times));
        last
    }

    /// Bulk ingest into one `CleaningSession`, then one `outcome()`.
    fn bulk_clean(&mut self) {
        let (kind, data, seed) = (self.kind, self.kind.data(), self.seed);
        let rows = kind.rows();
        let made = self.set_up(|run| {
            let batches = chunks(data.rows(rows, rows, seed, true), kind.batch_rows());
            let session = CleaningSession::new(clean_config(), data.schema(), data.rules());
            let session = run.out.op("CleaningSession::new", session)?;
            Some((batches, session))
        });
        let Some((batches, mut session)) = made else {
            return;
        };

        let root = self.tracer.open("bench.clean", 0);
        let ingest_s = self.ingest(&mut session, batches);
        let (report, outcome_s) = self.first_outcome(&mut session);
        self.tracer.close(root);
        self.set_clean_metrics(rows, ingest_s, outcome_s);

        let f1 = repair_f1(data, rows, rows, seed, &report.repaired);
        self.check_quality(&report, rows, f1);
        if self.traced {
            let changes = chunks(data.rows(rows, rows, seed, true), kind.batch_rows())
                .into_iter()
                .map(ChangeSet::inserting)
                .collect();
            self.traced_tail(session.dataset(), &report, changes);
        }
    }

    /// Feed `batches` through `ingest_batch`; returns the ingest wall time.
    fn ingest(&mut self, session: &mut CleaningSession, batches: Vec<Vec<Vec<String>>>) -> f64 {
        let batch_count = batches.len();
        let mark = alloc::start_phase();
        let started = Instant::now();
        let mut latencies = Vec::with_capacity(batch_count);
        let (mut touched, mut dirty_blocks) = (0usize, 0usize);
        for (i, batch) in batches.into_iter().enumerate() {
            let span = self.tracer.open("session.apply", i as u64 + 1);
            let call = Instant::now();
            let result = session.ingest_batch(batch);
            latencies.push(call.elapsed().as_secs_f64());
            self.tracer.close(span);
            if let Some(report) = self.out.op("CleaningSession::ingest_batch", result) {
                touched += report.touched_groups;
                dirty_blocks += report.dirty_blocks;
            }
        }
        let ingest_s = started.elapsed().as_secs_f64();
        self.out.set("session.ingest_s", ingest_s);
        self.out
            .set("mem.peak_live_ingest_mib", alloc::peak_live_mib());
        self.out.set(
            "mem.allocs_ingest",
            (alloc::read().allocs - mark.allocs) as f64,
        );
        let per_batch = batch_count.max(1) as f64;
        self.out
            .set("session.touched_groups", touched as f64 / per_batch);
        self.out
            .set("session.dirty_blocks", dirty_blocks as f64 / per_batch);
        self.out.samples.insert("session.apply_s".into(), latencies);
        ingest_s
    }

    /// The first `outcome()` after the bulk ingest.
    fn first_outcome(&mut self, session: &mut CleaningSession) -> (Report, f64) {
        let before = alloc::start_phase();
        let recleaned = session.recleaned_groups();
        let started = Instant::now();
        let report = self.tracer.time("session.outcome", 0, || session.outcome());
        let outcome_s = started.elapsed().as_secs_f64();
        self.out.check(true, "CleaningSession::outcome");
        self.out
            .set("mem.peak_live_outcome_mib", alloc::peak_live_mib());
        self.out.set(
            "mem.allocs_outcome",
            (alloc::read().allocs - before.allocs) as f64,
        );
        self.out.set(
            "session.recleaned_groups",
            (session.recleaned_groups() - recleaned) as f64,
        );
        self.out.set("session.first_outcome_s", outcome_s);
        (report, outcome_s)
    }

    /// The end-to-end metrics of a bulk phase: `rows` ingested in
    /// `ingest_s`, then one outcome in `outcome_s`.
    fn set_clean_metrics(&mut self, rows: usize, ingest_s: f64, outcome_s: f64) {
        self.out.set("clean_s", ingest_s + outcome_s);
        self.out.set("headline_s", ingest_s + outcome_s);
        self.out.set("outcome_s", outcome_s);
        self.out.set("ingest_rows_per_s", rows as f64 / ingest_s);
        let peak = self
            .out
            .values
            .get("mem.peak_live_ingest_mib")
            .copied()
            .unwrap_or(0.0)
            .max(
                self.out
                    .values
                    .get("mem.peak_live_outcome_mib")
                    .copied()
                    .unwrap_or(0.0),
            );
        self.out.set("peak_live_mib", peak);
        self.out.set("mem.rss_hwm_mib", alloc::rss_hwm_mib());
    }

    fn check_quality(&mut self, report: &Report, rows: usize, f1: f64) {
        self.out.set("repair_f1", f1);
        self.out.check(
            report.repaired.len() == rows,
            "one repaired row per input row",
        );
        self.out.check(
            report.deduplicated().len() <= rows,
            "deduplication never adds rows",
        );
        self.out
            .check(f1 >= F1_FLOOR, "repair F1 above the sanity floor");
    }

    /// A warm session under a closed loop of single-row mutations.
    fn mutate(&mut self) {
        let (kind, data, seed) = (self.kind, Data::Tpch, self.seed);
        let rows = kind.rows();
        let total = rows + MUTATIONS.div_ceil(3);
        let config = clean_config();
        // Users pay the base ingest and first outcome once, so they are
        // set-up here; the session layer's metrics keep their times.
        let made = self.set_up(|run| {
            let mut all = data.rows(total, total, seed, true);
            let extra = all.split_off(rows).into_iter();
            let session = CleaningSession::new(clean_config(), data.schema(), data.rules());
            let mut session = run.out.op("CleaningSession::new", session)?;
            let ingest_s = run.ingest(&mut session, chunks(all, kind.batch_rows()));
            let (base, outcome_s) = run.first_outcome(&mut session);
            run.set_clean_metrics(rows, ingest_s, outcome_s);
            Some((session, extra, base))
        });
        let Some((mut session, mut extra, base)) = made else {
            return;
        };
        let base_f1 = repair_f1(data, total, rows, seed, &base.repaired);
        drop(base);

        let address = data
            .schema()
            .attr_id("Address")
            .expect("the TPC-H schema has Address");
        let mut rng = SplitMix(seed ^ 0x6d75_7461_7465);
        let mut latencies = Vec::with_capacity(MUTATIONS);
        let mut applies = Vec::with_capacity(MUTATIONS);
        let mut outcomes = Vec::with_capacity(MUTATIONS);
        let (mut touched, mut dirty_blocks, mut recleaned) = (0usize, 0usize, 0u64);
        let mut changes = Vec::new();
        let mut last = None;
        let before = alloc::start_phase();
        for i in 0..MUTATIONS {
            let live = session.len() as u64;
            let change = match i % 3 {
                0 => {
                    let t = TupleId((rng.next() % live) as usize);
                    let value = format!("{} REWRITE BLVD SUITE {}", 100 + i % 900, i + 1);
                    ChangeSet::new().update(t, address, value)
                }
                1 => ChangeSet::inserting(vec![extra.next().expect("one spare row per insert")]),
                _ => ChangeSet::new().delete(TupleId((rng.next() % live) as usize)),
            };
            if self.traced {
                changes.push(change.clone());
            }
            let recleaned_before = session.recleaned_groups();
            let root = self.tracer.open("bench.mutation", i as u64 + 1);
            let op = Instant::now();
            let span = self.tracer.open("session.apply", i as u64 + 1);
            let applied = session.apply(change);
            self.tracer.close(span);
            let apply_s = op.elapsed().as_secs_f64();
            let span = self.tracer.open("session.outcome", i as u64 + 1);
            let report = session.outcome();
            self.tracer.close(span);
            let op_s = op.elapsed().as_secs_f64();
            self.tracer.close(root);
            latencies.push(op_s);
            applies.push(apply_s);
            outcomes.push(op_s - apply_s);
            last = Some(report);
            recleaned += session.recleaned_groups() - recleaned_before;
            self.out.check(true, "CleaningSession::outcome");
            if let Some(batch) = self.out.op("CleaningSession::apply", applied) {
                touched += batch.touched_groups;
                dirty_blocks += batch.dirty_blocks;
                if self.traced {
                    self.replan_blocks(&session, &config, &batch.touched_blocks);
                }
            }
        }
        let after = alloc::read();
        let n = MUTATIONS as f64;
        self.out.set(
            "mem.allocs_per_mutation",
            (after.allocs - before.allocs) as f64 / n,
        );
        self.out.set(
            "mem.alloc_mib_per_mutation",
            (after.bytes - before.bytes) as f64 / n / (1024.0 * 1024.0),
        );
        self.out.set("peak_live_mib", alloc::peak_live_mib());
        self.out.set("mem.rss_hwm_mib", alloc::rss_hwm_mib());
        self.out.set("session.touched_groups", touched as f64 / n);
        self.out
            .set("session.dirty_blocks", dirty_blocks as f64 / n);
        self.out
            .set("session.recleaned_groups", recleaned as f64 / n);
        // The timed phase is the mutation loop: the base clean above is
        // set-up, and its times stay in the session layer's metrics.
        let loop_s: f64 = latencies.iter().sum();
        self.out.set("clean_s", loop_s);
        self.out.set("headline_s", loop_s);
        self.out.set("outcome_s", median(&outcomes));
        self.out.set(
            "ingest_rows_per_s",
            MUTATIONS as f64 / applies.iter().sum::<f64>(),
        );
        self.out.samples.insert("mutation_s".into(), latencies);
        self.out.samples.insert("session.apply_s".into(), applies);
        self.out
            .samples
            .insert("session.outcome_s".into(), outcomes);

        let last = last.expect("at least one mutation ran");
        self.out.set("repair_f1", base_f1);
        self.out.check(
            last.repaired.len() == session.len(),
            "one repaired row per live row",
        );
        self.out
            .check(base_f1 >= F1_FLOOR, "repair F1 above the sanity floor");
        if self.reference {
            let fresh = CleaningSession::new(config, data.schema(), data.rules());
            if let Some(mut fresh) = self.out.op("CleaningSession::new", fresh) {
                let fed = fresh.ingest_dataset(session.dataset());
                if self
                    .out
                    .op("CleaningSession::ingest_dataset", fed)
                    .is_some()
                {
                    let same = reports_identical(&last, &fresh.outcome());
                    self.out
                        .check(same, "last outcome equals a fresh session on the net rows");
                }
            }
        }
        if self.traced {
            let base = chunks(data.rows(total, rows, seed, true), self.kind.batch_rows());
            let carried = base.into_iter().map(ChangeSet::inserting).chain(changes);
            self.traced_tail(session.dataset(), &last, carried.collect());
        }
    }

    /// `AgpStage::run_block` on clones of the blocks a mutation touched,
    /// taken from the session's pristine index.
    fn replan_blocks(
        &mut self,
        session: &CleaningSession,
        config: &CleanConfig,
        touched: &[usize],
    ) {
        let pristine = session.pristine_index();
        for &b in touched {
            let mut block = pristine.blocks[b].clone();
            self.tracer.time("agp.block_replan", 0, || {
                AgpStage::run_block(config, &mut block, pristine.pool())
            });
        }
    }

    /// Rows through the wire-backed `CleaningService`, then one outcome.
    fn wire(&mut self) {
        let (kind, data, seed) = (self.kind, Data::Hai, self.seed);
        let rows = kind.rows();
        let config = clean_config();
        // Light loss, duplication and reorder; no outages or crashes.
        let schedule = FaultSchedule {
            seed,
            delay: (1, 3),
            reorder: 0.05,
            duplicate: 0.02,
            loss: 0.02,
            ..FaultSchedule::reliable()
        };
        let made = self.set_up(|run| {
            let batches = chunks(data.rows(rows, rows, seed, true), kind.batch_rows());
            let service = CleaningService::new(
                clean_config(),
                data.schema(),
                data.rules(),
                PARTITIONS,
                MERGE_EVERY,
                schedule.clone(),
            );
            let mut service = run.out.op("CleaningService::new", service)?;
            let client = service.connect();
            Some((batches, service, client))
        });
        let Some((batches, mut service, client)) = made else {
            return;
        };

        let root = self.tracer.open("bench.clean", 0);
        let mark = alloc::start_phase();
        let mut ingest_s = 0.0;
        let (mut plain, mut merge) = (Vec::new(), Vec::new());
        for (i, batch) in batches.into_iter().enumerate() {
            let rounds = service.session_mut().timings().merge_rounds;
            let call = Instant::now();
            self.tracer.time("service.submit", i as u64 + 1, || {
                service.submit(client, ChangeSet::inserting(batch))
            });
            let done = self
                .tracer
                .time("service.drain", i as u64 + 1, || service.drain());
            let latency = call.elapsed().as_secs_f64();
            ingest_s += latency;
            for (_, result) in done {
                self.out.op("CleaningService::submit", result);
            }
            if service.session_mut().timings().merge_rounds > rounds {
                merge.push(latency);
            } else {
                plain.push(latency);
            }
        }
        self.out
            .set("mem.peak_live_ingest_mib", alloc::peak_live_mib());
        self.out.set(
            "mem.allocs_ingest",
            (alloc::read().allocs - mark.allocs) as f64,
        );
        let before = alloc::start_phase();
        let call = Instant::now();
        let report = self.tracer.time("service.outcome", 0, || service.outcome());
        let outcome_s = call.elapsed().as_secs_f64();
        self.tracer.close(root);
        self.out.check(true, "CleaningService::outcome");
        self.out
            .set("mem.peak_live_outcome_mib", alloc::peak_live_mib());
        self.out.set(
            "mem.allocs_outcome",
            (alloc::read().allocs - before.allocs) as f64,
        );
        self.set_clean_metrics(rows, ingest_s, outcome_s);
        self.out
            .samples
            .insert("coordinator.batch_plain_s".into(), plain);
        self.out
            .samples
            .insert("coordinator.batch_merge_s".into(), merge);

        let f1 = repair_f1(data, rows, rows, seed, &report.repaired);
        self.check_quality(&report, rows, f1);
        if self.reference {
            let single = CleaningSession::new(config, data.schema(), data.rules());
            if let Some(mut single) = self.out.op("CleaningSession::new", single) {
                let mut fed = true;
                for batch in chunks(data.rows(rows, rows, seed, true), self.kind.batch_rows()) {
                    fed &= self
                        .out
                        .op("CleaningSession::ingest_batch", single.ingest_batch(batch))
                        .is_some();
                }
                if fed {
                    let same = reports_identical(&report, &single.outcome());
                    self.out.check(
                        same,
                        "wire outcome equals a single session on the same batches",
                    );
                }
            }
        }
        if self.traced {
            let session = service.session_mut();
            let timings = session.timings();
            let sizes = session.partition_sizes();
            let footprint = session.footprint();
            let counters = session.backend_mut().counters();
            let journaled = session.backend_mut().journaled_batches();
            let (max, min) = (
                sizes.iter().copied().max().unwrap_or(0) as f64,
                sizes.iter().copied().min().unwrap_or(0).max(1) as f64,
            );
            let values = [
                ("coordinator.merge_rounds", timings.merge_rounds as f64),
                ("coordinator.partition_skew", max / min),
                (
                    "coordinator.footprint_entries",
                    (footprint.row_entries
                        + footprint.translate_entries
                        + footprint.pool_values
                        + footprint.block_entries
                        + footprint.cell_entries) as f64,
                ),
                ("net.sent", counters.sent as f64),
                ("net.delivered", counters.delivered as f64),
                ("net.dropped", counters.dropped as f64),
                ("net.retransmits", counters.retransmits as f64),
                ("net.bytes_sent", counters.bytes_sent as f64),
                ("worker.journaled_batches", journaled as f64),
            ];
            for (name, value) in values {
                self.out.set(name, value);
            }
            let changes = chunks(data.rows(rows, rows, seed, true), self.kind.batch_rows())
                .into_iter()
                .map(ChangeSet::inserting)
                .collect();
            let net = dataset_of(data.schema(), data.rows(rows, rows, seed, true));
            self.traced_tail(&net, &report, changes);
        }
    }

    /// The traced run's work after the headline: the pipeline replay over
    /// the workload's net rows, checked against the workload's outcome, and
    /// the codec over the workload's own change sets.
    fn traced_tail(&mut self, net: &Dataset, report: &Report, changes: Vec<ChangeSet>) {
        let config = clean_config();
        let rules = self.kind.data().rules();
        let Some(replayed) = self.out.op(
            "pipeline replay",
            replay::replay(net, &rules, &config, self.tracer),
        ) else {
            return;
        };
        let same = replayed.matches(report);
        self.out.check(
            same,
            "replay of the public stage entry points equals the session",
        );
        self.out.set("replay_matches", if same { 1.0 } else { 0.0 });
        replayed.record(self.tracer, self.out);
        let clone = self
            .tracer
            .time("dataset.clone", 0, || report.repaired.clone());
        drop(clone);

        let mut bytes = 0usize;
        let mut rows = 0usize;
        for change in &changes {
            let encoded = self
                .tracer
                .time("codec.encode", 0, || mlnw::to_bytes(change));
            let Some(encoded) = self.out.op("mlnw::to_bytes", encoded) else {
                continue;
            };
            bytes += encoded.len();
            rows += change.iter().map(mutation_rows).sum::<usize>();
            let decoded = self.tracer.time("codec.decode", 0, || {
                mlnw::from_bytes::<ChangeSet>(&encoded)
            });
            if let Some(decoded) = self.out.op("mlnw::from_bytes", decoded) {
                self.out
                    .check(&decoded == change, "codec round trip is lossless");
            }
        }
        self.out
            .set("codec.bytes_per_row", bytes as f64 / rows.max(1) as f64);
    }
}

/// Rows a mutation carries: its inserted rows, or the one row it edits.
fn mutation_rows(mutation: &mlnclean::Mutation) -> usize {
    match mutation {
        mlnclean::Mutation::Insert(rows) => rows.len(),
        _ => 1,
    }
}

/// Median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
