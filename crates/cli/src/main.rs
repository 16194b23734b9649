//! `classfuzz` — the command-line front end.
//!
//! ```text
//! classfuzz disasm <file.class>                  javap-style disassembly
//! classfuzz jimple <file.class>                  lift to Jimple text
//! classfuzz run    <file.class> [--vm NAME]      run on one profile
//! classfuzz diff   <file.class>                  run on all five profiles
//! classfuzz fuzz   [--seeds N] [--iterations N] [--rng-seed S]
//!                  [--criterion st|stbr|tr] [--jobs N] [--out DIR]
//!                  [--crash-dir DIR] [--exec-diff]
//!                  [--seed-select uniform|maxcover] [--pool-cap N]
//!                  [--seed-shape classic|deep|wide|exotic|versioned|mixed]
//!                                                Algorithm 1 campaign;
//!                                                discrepancy triggers are
//!                                                written to DIR as .class,
//!                                                internal-crash reproducers
//!                                                to the crash dir; with
//!                                                --exec-diff, accepted
//!                                                candidates are also run to
//!                                                completion and differenced
//!                                                on execution outcome
//! classfuzz reduce <file.class> [--out FILE]     HDD-minimize a trigger
//!                                                (discrepancy or VM crash)
//! classfuzz seeds  --out DIR [--count N] [--rng-seed S] [--shape SHAPE]
//!                                                write a seed corpus as .class files
//! ```
//!
//! VM names: `hotspot7`, `hotspot8`, `hotspot9`, `j9`, `gij`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{
    run_campaign, run_campaign_parallel, Algorithm, CampaignConfig, SeedSelect,
};
use classfuzz_core::seeds::{SeedCorpus, SeedShape};
use classfuzz_coverage::UniquenessCriterion;
use classfuzz_jimple::{
    lift::lift_class,
    lower::{lower_class, lower_class_bytes, LowerScratch},
    printer as jimple_printer,
};
use classfuzz_vm::{Jvm, VmSpec};

mod args;

use args::Parsed;

fn main() -> ExitCode {
    let parsed = match args::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(parsed: &Parsed) -> Result<(), String> {
    match parsed.command.as_str() {
        "disasm" => disasm(parsed.file()?),
        "jimple" => jimple(parsed.file()?),
        "run" => run(parsed.file()?, parsed.flag("vm").unwrap_or("hotspot9")),
        "diff" => diff(parsed.file()?),
        "fuzz" => fuzz(parsed),
        "reduce" => reduce_cmd(parsed),
        "seeds" => seeds(parsed),
        "help" | "--help" | "-h" => {
            println!("{}", args::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", args::USAGE)),
    }
}

fn read_class_bytes(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn vm_by_name(name: &str) -> Result<VmSpec, String> {
    Ok(match name {
        "hotspot7" => VmSpec::hotspot7(),
        "hotspot8" => VmSpec::hotspot8(),
        "hotspot9" => VmSpec::hotspot9(),
        "j9" => VmSpec::j9(),
        "gij" => VmSpec::gij(),
        other => {
            return Err(format!(
                "unknown VM {other:?} (expected hotspot7|hotspot8|hotspot9|j9|gij)"
            ))
        }
    })
}

fn disasm(path: &Path) -> Result<(), String> {
    let bytes = read_class_bytes(path)?;
    let cf = classfuzz_classfile::ClassFile::from_bytes(&bytes)
        .map_err(|e| format!("not a decodable classfile: {e}"))?;
    print!("{}", classfuzz_classfile::printer::disassemble(&cf));
    Ok(())
}

fn jimple(path: &Path) -> Result<(), String> {
    let bytes = read_class_bytes(path)?;
    let cf = classfuzz_classfile::ClassFile::from_bytes(&bytes)
        .map_err(|e| format!("not a decodable classfile: {e}"))?;
    let ir = lift_class(&cf).map_err(|e| format!("cannot lift to Jimple: {e}"))?;
    print!("{}", jimple_printer::print_class(&ir));
    Ok(())
}

fn run(path: &Path, vm: &str) -> Result<(), String> {
    let bytes = read_class_bytes(path)?;
    let spec = vm_by_name(vm)?;
    let name = spec.name.clone();
    let result = Jvm::new(spec).run(&bytes);
    println!("{name}: {}", result.outcome);
    if let classfuzz_vm::Outcome::Invoked { stdout } = &result.outcome {
        for line in stdout {
            println!("  stdout | {line}");
        }
    }
    Ok(())
}

fn diff(path: &Path) -> Result<(), String> {
    let bytes = read_class_bytes(path)?;
    let harness = DifferentialHarness::paper_five();
    let vector = harness.run(&bytes);
    println!(
        "encoded: {vector}{}",
        if vector.is_discrepancy() {
            "  [DISCREPANCY]"
        } else {
            ""
        }
    );
    for (jvm, outcome) in harness.jvms().iter().zip(vector.outcomes()) {
        println!("  {:22} {outcome}", jvm.spec().name);
    }
    Ok(())
}

fn fuzz(parsed: &Parsed) -> Result<(), String> {
    let seeds: usize = parsed.flag_parse("seeds", 60)?;
    let iterations: usize = parsed.flag_parse("iterations", 1000)?;
    let rng_seed: u64 = parsed.flag_parse("rng-seed", 20160613)?;
    let criterion = match parsed.flag("criterion").unwrap_or("stbr") {
        "st" => UniquenessCriterion::St,
        "stbr" => UniquenessCriterion::StBr,
        "tr" => UniquenessCriterion::Tr,
        other => return Err(format!("unknown criterion {other:?} (st|stbr|tr)")),
    };
    let jobs: usize = parsed.flag_parse("jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs expects at least 1".to_string());
    }
    let out_dir = parsed.flag("out").map(PathBuf::from);
    let crash_dir = parsed.flag("crash-dir").map(PathBuf::from);
    let exec_diff = parsed.flag_bool("exec-diff");
    let seed_select = match parsed.flag("seed-select").unwrap_or("uniform") {
        "uniform" => SeedSelect::Uniform,
        "maxcover" => SeedSelect::MaxCover,
        other => return Err(format!("unknown seed-select {other:?} (uniform|maxcover)")),
    };
    let pool_cap: Option<usize> = match parsed.flag("pool-cap") {
        None => None,
        Some(_) => {
            let cap: usize = parsed.flag_parse("pool-cap", 0)?;
            if cap == 0 {
                return Err("--pool-cap expects at least 1".to_string());
            }
            Some(cap)
        }
    };
    let shape: SeedShape = parsed.flag_parse("seed-shape", SeedShape::Classic)?;

    let corpus = SeedCorpus::generate_shaped(seeds, rng_seed, shape).into_classes();
    eprintln!(
        "fuzzing: {seeds} seeds ({shape}), {iterations} iterations, criterion {criterion}, \
         {jobs} job(s), {seed_select} selection{}{}",
        pool_cap
            .map(|c| format!(", pool cap {c}"))
            .unwrap_or_default(),
        if exec_diff { ", exec differencing" } else { "" }
    );
    let mut config = CampaignConfig::new(Algorithm::Classfuzz(criterion), iterations, rng_seed)
        .with_seed_select(seed_select);
    if let Some(cap) = pool_cap {
        config = config.with_pool_cap(cap);
    }
    // Output directories are created once, up front — a campaign must
    // never die (or lose entries) to a directory race inside the
    // per-discrepancy reporting loop.
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    if let Some(dir) = &crash_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        config = config.with_crash_dir(dir.clone());
    }
    if exec_diff {
        config = config.with_exec_diff();
    }
    // One job runs the deterministic sequential loop; more run the async
    // engine, whose multi-shard findings replay from their written bytes.
    let result = if jobs == 1 {
        run_campaign(&corpus, &config)
    } else {
        run_campaign_parallel(&corpus, &config, jobs).map_err(|e| e.to_string())?
    };
    eprintln!(
        "generated {} classfiles, accepted {} representatives (succ {:.1}%)",
        result.gen_classes.len(),
        result.test_classes.len(),
        result.success_rate() * 100.0
    );
    if !result.crashes.is_empty() {
        eprintln!(
            "{} internal crash(es) contained during the campaign{}",
            result.crashes.len(),
            crash_dir
                .as_ref()
                .map(|d| format!("; reproducers in {}", d.display()))
                .unwrap_or_default()
        );
    }

    let harness = DifferentialHarness::paper_five();
    let mut found = 0usize;
    let mut crashing = 0usize;
    for (n, &idx) in result.test_classes.iter().enumerate() {
        let generated = &result.gen_classes[idx];
        let vector = harness.run(&generated.bytes);
        if vector.has_crash() {
            crashing += 1;
            println!("vm crash: encoded {vector} (test class {n})");
            if let Some(dir) = &crash_dir {
                if let Some(file) =
                    persist_corpus_entry(dir, "diff", crashing, &vector.key(), &generated.bytes)
                {
                    println!("  written to {}", file.display());
                }
            }
        }
        if !vector.is_discrepancy() {
            continue;
        }
        found += 1;
        println!("discrepancy #{found}: encoded {vector} (test class {n})");
        if let Some(dir) = &out_dir {
            if let Some(file) =
                persist_corpus_entry(dir, "trigger", found, &vector.key(), &generated.bytes)
            {
                println!("  written to {}", file.display());
            }
        }
    }
    println!(
        "{found} / {} representative classfiles trigger discrepancies",
        result.test_classes.len()
    );
    if exec_diff {
        let mut exec_found = 0usize;
        for report in &result.exec_reports {
            if !report.is_exec_discrepancy() {
                continue;
            }
            exec_found += 1;
            let label = report.taxonomy.map_or("agree", |t| t.label());
            println!(
                "exec discrepancy #{exec_found} [{label}]: startup {} exec {}",
                report.startup_key, report.exec_key
            );
            if let Some(dir) = &out_dir {
                if let Some(file) = persist_corpus_entry(
                    dir,
                    "exec",
                    exec_found,
                    &report.startup_key,
                    &result.gen_classes[report.gen_index].bytes,
                ) {
                    println!("  written to {}", file.display());
                }
            }
        }
        println!(
            "{exec_found} / {} executed representatives diverge only at execution",
            result.exec_reports.len()
        );
    }
    Ok(())
}

/// Best-effort, collision-safe corpus write: claims
/// `{prefix}_{NNNN}_{tag}.class` with `create_new`, bumping the index past
/// files left by earlier runs, so re-running a campaign into a populated
/// directory appends instead of overwriting. Failures are warnings — a
/// lost corpus entry must never lose the campaign report.
fn persist_corpus_entry(
    dir: &Path,
    prefix: &str,
    index: usize,
    tag: &str,
    bytes: &[u8],
) -> Option<PathBuf> {
    use std::io::Write as _;
    let mut idx = index;
    loop {
        let file = dir.join(format!("{prefix}_{idx:04}_{tag}.class"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&file)
        {
            Ok(mut f) => match f.write_all(bytes) {
                Ok(()) => return Some(file),
                Err(e) => {
                    eprintln!("warning: cannot write {}: {e}", file.display());
                    return None;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => idx += 1,
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", file.display());
                return None;
            }
        }
    }
}

fn seeds(parsed: &Parsed) -> Result<(), String> {
    let count: usize = parsed.flag_parse("count", 50)?;
    let rng_seed: u64 = parsed.flag_parse("rng-seed", 20160613)?;
    let shape: SeedShape = parsed.flag_parse("shape", SeedShape::Classic)?;
    let dir = PathBuf::from(parsed.flag("out").ok_or("seeds needs --out DIR")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let corpus = SeedCorpus::generate_shaped(count, rng_seed, shape);
    // Filenames come from the *full* class name (`/` → `_`), so two seeds
    // whose names differ only by package cannot collapse into one file;
    // the distinct-name check turns any residual collision into an error
    // instead of a silently smaller corpus.
    let mut names = std::collections::BTreeSet::new();
    for (class, bytes) in corpus.classes().iter().zip(corpus.to_bytes()) {
        let name = format!("{}.class", class.name.replace('/', "_"));
        names.insert(name.clone());
        let file = dir.join(name);
        std::fs::write(&file, bytes)
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    }
    if names.len() != corpus.classes().len() {
        return Err(format!(
            "seed filename collision: {} classes mapped to {} files in {}",
            corpus.classes().len(),
            names.len(),
            dir.display()
        ));
    }
    println!("wrote {count} seed classfiles to {}", dir.display());
    Ok(())
}

fn reduce_cmd(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.file()?;
    let bytes = read_class_bytes(path)?;
    let cf = classfuzz_classfile::ClassFile::from_bytes(&bytes)
        .map_err(|e| format!("not a decodable classfile: {e}"))?;
    let ir = lift_class(&cf).map_err(|e| format!("cannot lift for reduction: {e}"))?;

    let harness = DifferentialHarness::paper_five();
    let original = harness.run(&bytes);
    // An internal VM crash is as reducible as a discrepancy, and so is an
    // execution-phase divergence hiding under a uniform startup key: the
    // oracle below preserves the startup key *and* the execution key, so a
    // crash-only trigger (e.g. "55555") minimizes against the crash verdict
    // and an `--exec-diff` trigger against its divergent execution verdicts.
    if !original.is_discrepancy() && !original.has_crash() && !original.is_exec_discrepancy() {
        return Err(format!(
            "{} triggers neither a discrepancy (startup or execution) nor a VM crash \
             (encoded {original}); nothing to reduce",
            path.display()
        ));
    }
    let startup_key = original.key();
    let exec_key = original.exec_key();
    println!("reducing while the encoded outcome stays {startup_key} / {exec_key} ...");
    // Every HDD trial reuses one lowering scratch and decodes its bytes
    // exactly once, shared by all five profiles.
    let mut lower = LowerScratch::new();
    let (reduced, stats) = classfuzz_reduce::reduce(&ir, |candidate| {
        let bytes = lower_class_bytes(candidate, &mut lower);
        let vector = harness.run(&bytes);
        vector.key() == startup_key && vector.exec_key() == exec_key
    });
    println!(
        "done: {} attempts, {} deletions kept, {} passes",
        stats.attempts, stats.kept_deletions, stats.passes
    );
    println!("{}", jimple_printer::print_class(&reduced));
    let out = parsed
        .flag("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| path.with_extension("reduced.class"));
    std::fs::write(&out, lower_class(&reduced).to_bytes())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("reduced classfile written to {}", out.display());
    Ok(())
}
