//! One process of the MLNClean benchmark.  `run.py` starts several per
//! measurement and aggregates them; see its docstring for the contract.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --mode plain|traced|replay1t
//!           [--reference 0|1] [--spans <path>]
//! ```
//!
//! Prints one JSON object: the process's measurements (`values`), its raw
//! latency samples (`samples`), and the operations it attempted and failed.

mod alloc;
mod replay;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Kind, Run};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Everything one process measured and checked.
#[derive(Default)]
pub struct Output {
    /// Named measurements.
    pub values: BTreeMap<String, f64>,
    /// Raw latency samples, pooled across processes by `run.py`.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Operations attempted: public calls plus output checks.
    pub attempted: u64,
    /// Operations that returned `Err` or checks that failed.
    pub failed: u64,
    /// What failed, for the log.
    pub errors: Vec<String>,
}

impl Output {
    /// Record a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Count one operation or output check and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what.to_string());
        }
    }

    /// Count one public call, keeping its value on success.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => {
                self.check(true, what);
                Some(value)
            }
            Err(err) => {
                self.check(false, &format!("{what}: {err}"));
                None
            }
        }
    }

    fn to_json(&self) -> String {
        let number = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", number(*v)))
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, vs)| {
                let vs: Vec<String> = vs.iter().map(|v| number(*v)).collect();
                format!("\"{k}\":[{}]", vs.join(","))
            })
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| format!("{:?}", e)).collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"errors\":[{}],\"values\":{{{}}},\"samples\":{{{}}}}}",
            self.attempted,
            self.failed,
            errors.join(","),
            values.join(","),
            samples.join(",")
        )
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    mode: String,
    reference: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut mode) = (None, None, "plain".to_string());
    let (mut reference, mut spans) = (false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--mode" => mode = value,
            "--reference" => reference = value == "1",
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["plain", "traced", "replay1t"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        mode,
        reference,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut out = Output::default();
    let mut tracer = Tracer::new(args.mode != "plain");
    if args.mode == "replay1t" {
        let ds = workloads::bulk_dataset(args.kind, args.seed);
        let rules = workloads::rules(args.kind);
        let config = workloads::clean_config();
        if out
            .op(
                "pipeline replay",
                replay::replay(&ds, &rules, &config, &mut tracer),
            )
            .is_some()
        {
            for (stage, name) in [
                ("index.build", "index.build_1t_s"),
                ("agp.process", "agp.process_1t_s"),
                ("rsc.clean", "rsc.clean_1t_s"),
                ("fscr.fuse", "fscr.fuse_1t_s"),
            ] {
                out.set(name, tracer.total(stage));
            }
        }
    } else {
        Run {
            kind: args.kind,
            seed: args.seed,
            traced: args.mode == "traced",
            reference: args.reference,
            tracer: &mut tracer,
            out: &mut out,
        }
        .execute();
        if args.mode == "traced" {
            let root = match args.kind {
                Kind::TpchMutate => "bench.mutation",
                _ => "bench.clean",
            };
            out.set("trace.unattributed_ratio", tracer.unattributed_ratio(root));
            for (layer, seconds) in tracer.layer_self_times() {
                out.set(&format!("self.{layer}_s"), seconds);
            }
            for name in ["codec.encode", "codec.decode", "dataset.clone"] {
                out.set(&format!("{name}_s"), tracer.total(name));
            }
            let replans = tracer.durations("agp.block_replan");
            out.samples.insert("agp.block_replan_s".into(), replans);
        }
    }
    if let Some(path) = &args.spans {
        if let Err(err) = tracer.write_jsonl(path) {
            out.check(false, &format!("writing spans to {path}: {err}"));
        }
    }
    println!("{}", out.to_json());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
