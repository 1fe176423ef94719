//! `mcc` — the mini-C toolchain driver.
//!
//! Compile a mini-C source file to a SPARC V8 boot image and optionally
//! disassemble, run, profile, or NFP-estimate it:
//!
//! ```text
//! mcc prog.mc                 # compile, print image stats
//! mcc prog.mc --soft          # -msoft-float build (no FPU instructions)
//! mcc prog.mc --dump          # disassemble the text section
//! mcc prog.mc --run           # execute on the instruction-set simulator
//! mcc prog.mc --run --trace N # also print the first N executed instructions
//! mcc prog.mc --profile       # per-function hotspot profile
//! mcc prog.mc --estimate      # calibrate + estimate time/energy (Eq. 1)
//! mcc prog.s  --asm --run     # assemble SPARC assembly text instead
//! ```

use nfp_repro::cc::{compile, CompileOptions, FloatMode};
use nfp_repro::core::{calibrate, ClassCounter, Paper};
use nfp_repro::sim::{Machine, MachineConfig, PcHistogram, Tracer};
use nfp_repro::sparc::Category;
use nfp_repro::testbed::Testbed;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: mcc <file.mc> [--soft] [--dump] [--run] [--trace N] [--profile] [--estimate]"
        );
        return ExitCode::from(2);
    };
    let has = |f: &str| args.iter().any(|a| a == f);
    let trace_n: usize = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcc: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let mode = if has("--soft") {
        FloatMode::Soft
    } else {
        FloatMode::Hard
    };
    let program = if has("--asm") {
        // Assemble SPARC text directly (labels, `!` comments, .word).
        match nfp_repro::sparc::parse_program(&source, nfp_repro::sim::RAM_BASE) {
            Ok(words) => {
                let text_words = words.len();
                nfp_repro::cc::Program {
                    base: nfp_repro::sim::RAM_BASE,
                    words,
                    symbols: std::collections::HashMap::new(),
                    text_words,
                }
            }
            Err(e) => {
                eprintln!("mcc: {path}: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match compile(&source, &CompileOptions::new(mode)) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("mcc: {path}: {e}");
                return ExitCode::from(1);
            }
        }
    };
    println!(
        "{path}: {} text words, {} data words, {} symbols, {:?} floats",
        program.text_words,
        program.words.len() - program.text_words,
        program.symbols.len(),
        mode,
    );

    if has("--dump") {
        print!("{}", program.disassemble());
    }

    let needs_run = has("--run") || has("--profile") || has("--estimate") || trace_n > 0;
    if !needs_run {
        return ExitCode::SUCCESS;
    }

    let mut machine = Machine::new(MachineConfig {
        fpu_enabled: mode == FloatMode::Hard,
        ..MachineConfig::default()
    });
    machine
        .load_image(program.base, &program.words)
        .expect("image fits in RAM");

    let mut counter = ClassCounter::new(Paper);
    let mut hist = PcHistogram::new(program.base, program.text_words);
    let mut tracer = Tracer::new(trace_n);

    struct Multi<'a> {
        counter: &'a mut ClassCounter<Paper>,
        hist: &'a mut PcHistogram,
        tracer: &'a mut Tracer,
    }
    impl nfp_repro::sim::Observer for Multi<'_> {
        fn observe(&mut self, info: &nfp_repro::sim::ExecInfo) {
            self.counter.observe(info);
            self.hist.observe(info);
            self.tracer.observe(info);
        }
    }
    let mut multi = Multi {
        counter: &mut counter,
        hist: &mut hist,
        tracer: &mut tracer,
    };

    let result = machine.run_observed(100_000_000_000, &mut multi);

    // The trace leads up to a runtime error, so print it either way.
    if trace_n > 0 {
        println!(
            "-- trace (first {} of {}) --",
            tracer.lines.len(),
            tracer.seen
        );
        for line in &tracer.lines {
            println!("{line}");
        }
    }
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mcc: runtime error: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "exit code {}; {} instructions executed",
        result.exit_code, result.instret
    );
    if !result.text.is_empty() {
        println!("-- console --\n{}", result.text);
    }
    if !result.words.is_empty() {
        println!("-- emitted words --");
        for w in &result.words {
            println!("0x{w:08x} ({w})");
        }
    }

    if has("--profile") {
        println!("-- instruction categories --");
        for (cat, &n) in Category::ALL.iter().zip(counter.counts()) {
            if n > 0 {
                println!(
                    "  {:<20} {:>12}  ({:5.1}%)",
                    cat.name(),
                    n,
                    n as f64 / result.instret as f64 * 100.0
                );
            }
        }
        println!("-- hottest functions --");
        for (name, count) in hist.by_function(&program.symbols).into_iter().take(12) {
            println!(
                "  {:<28} {:>12}  ({:5.1}%)",
                name,
                count,
                count as f64 / result.instret as f64 * 100.0
            );
        }
    }

    if has("--estimate") {
        eprintln!("calibrating the virtual board (one-off, a few seconds)...");
        let testbed = Testbed::new();
        let calibration = match calibrate(&testbed, &Paper, 1) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("mcc: calibration failed: {e}");
                return ExitCode::from(1);
            }
        };
        let est = calibration.model.estimate(counter.counts());
        println!(
            "-- NFP estimate (Eq. 1) --\n  time   {:.6} s\n  energy {:.6} J",
            est.time_s, est.energy_j
        );
    }

    ExitCode::SUCCESS
}
