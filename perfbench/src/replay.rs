//! The cleaning pipeline replayed through its public entry points, one span
//! per stage, so each layer's cost is timed from outside the session.

use crate::trace::Tracer;
use crate::Output;
use dataset::{csv, Dataset, TupleId};
use mlnclean::{
    apply_tuple_fusion, weights::assign_weights, AbnormalGroupProcessor, AgpRecord, CleanConfig,
    CleanError, ConflictResolver, FscrRecord, MlnIndex, ReliabilityCleaner, Report, RscRecord,
    TupleFusion,
};
use rayon::prelude::*;
use rules::RuleSet;

/// What one replay produced.
pub struct Replayed {
    repaired: Dataset,
    deduplicated: Dataset,
    agp: AgpRecord,
    rsc: RscRecord,
    fscr: FscrRecord,
    groups: usize,
    gammas: usize,
}

/// Clean `ds` stage by stage: `MlnIndex::build`, AGP, weights, RSC, the
/// FSCR plan and per-tuple fusion, then deduplication.
pub fn replay(
    ds: &Dataset,
    rules: &RuleSet,
    config: &CleanConfig,
    tracer: &mut Tracer,
) -> Result<Replayed, CleanError> {
    let mut index = tracer.time("index.build", 0, || MlnIndex::build(ds, rules))?;
    let groups = index.blocks.iter().map(|b| b.group_count()).sum();
    let gammas = index.blocks.iter().map(|b| b.gamma_count()).sum();
    let mut processor = AbnormalGroupProcessor::new(config.tau, config.metric);
    if let Some(guard) = config.agp_distance_guard {
        processor = processor.with_distance_guard(guard);
    }
    let agp = tracer.time("agp.process", 0, || processor.process(&mut index));
    tracer.time("weights.assign", 0, || assign_weights(&mut index));
    let cleaner = ReliabilityCleaner::new(config.metric);
    let rsc = tracer.time("rsc.clean", 0, || cleaner.clean(&mut index));

    let resolver = ConflictResolver::new(config.max_exhaustive_fusion);
    let plan = tracer.time("fscr.plan", 0, || resolver.plan(&index));
    let tuples: Vec<TupleId> = ds.tuple_ids().collect();
    let fusions: Vec<TupleFusion> = tracer.time("fscr.fuse", 0, || {
        tuples
            .par_iter()
            .map(|&t| resolver.fuse_tuple(&plan, t))
            .collect()
    });
    let (repaired, fscr) = tracer.time("fscr.apply", 0, || {
        let mut repaired = ds.clone();
        let mut record = FscrRecord::default();
        for (&t, fusion) in tuples.iter().zip(&fusions) {
            apply_tuple_fusion(&mut repaired, index.pool(), t, fusion, &mut record);
        }
        (repaired, record)
    });
    let deduplicated = tracer.time("dataset.dedup", 0, || {
        if config.deduplicate {
            repaired.deduplicated()
        } else {
            repaired.clone()
        }
    });
    Ok(Replayed {
        repaired,
        deduplicated,
        agp,
        rsc,
        fscr,
        groups,
        gammas,
    })
}

impl Replayed {
    /// Whether the replay produced the report's bytes and provenance.
    pub fn matches(&self, report: &Report) -> bool {
        csv::to_csv(&self.repaired) == csv::to_csv(&report.repaired)
            && csv::to_csv(&self.deduplicated) == csv::to_csv(report.deduplicated())
            && self.agp == report.agp
            && self.rsc == report.rsc
            && self.fscr == report.fscr
    }

    /// The per-layer metrics of the replay: stage times from the spans and
    /// the work each stage did.
    pub fn record(&self, tracer: &Tracer, out: &mut Output) {
        let values = [
            ("index.build_s", tracer.total("index.build")),
            ("index.groups", self.groups as f64),
            ("index.gammas", self.gammas as f64),
            ("agp.process_s", tracer.total("agp.process")),
            ("agp.merges", self.agp.merges.len() as f64),
            (
                "agp.distance_lookups",
                (self.agp.cache.hits + self.agp.cache.misses) as f64,
            ),
            ("agp.distance_hit_ratio", self.agp.cache.hit_rate()),
            ("weights.assign_s", tracer.total("weights.assign")),
            ("rsc.clean_s", tracer.total("rsc.clean")),
            ("rsc.repairs", self.rsc.repairs.len() as f64),
            ("fscr.plan_s", tracer.total("fscr.plan")),
            ("fscr.fuse_s", tracer.total("fscr.fuse")),
            ("fscr.changed_cells", self.fscr.changed_cell_count() as f64),
            (
                "fscr.conflict_tuples",
                self.fscr.tuples_with_conflicts().len() as f64,
            ),
            ("dataset.dedup_s", tracer.total("dataset.dedup")),
        ];
        for (name, value) in values {
            out.set(name, value);
        }
    }
}
