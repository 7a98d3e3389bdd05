//! Wall-clock benchmark of the SurfNet reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7|fig8|stream [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the workload runs through its shipped experiment
//! entry point (`fig7::run_with`, `fig8::run`, `stream::run`) with no
//! tracing, on consecutive seed blocks until `--seconds` have passed, and
//! the end-to-end metrics are reported. With `--trace 1` the
//! workload is rebuilt call by call from the public functions of each
//! layer, every call is timed from this benchmark's own code, and the
//! per-layer metrics are reported; the rebuild is gated on giving the
//! same results as the entry point. Human-readable lines come first; the
//! last line of standard output is one JSON object.

mod fig7;
mod fig8;
mod output;
mod stats;
mod stream;
mod trace;

use output::Rep;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7: 4 scenarios × 5 designs × N trials at d = 3.
    Fig7,
    /// Fig. 8: both decoders over d ∈ {9, 11, 13, 15} × 15 Pauli rates.
    Fig8,
    /// The streaming scenario on the 1,200-node BA network.
    Stream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fig7" => Some(Workload::Fig7),
            "fig8" => Some(Workload::Fig8),
            "stream" => Some(Workload::Stream),
            _ => None,
        }
    }

    /// The seed the figure binaries use by default.
    fn default_seed(self) -> u64 {
        match self {
            Workload::Fig7 => 70_000,
            Workload::Fig8 => 80_000,
            Workload::Stream => 90_000,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::Fig8 => "fig8",
            Workload::Stream => "stream",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: surfnet-perfbench --workload fig7|fig8|stream [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed must be a whole number, got {value:?}"))?,
                );
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("--seconds must be a number in (0, 3600], got {value:?}")
                    })?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// Paces rounds of a fixed piece of work within a time budget.
pub struct Rounds {
    budget: Duration,
    min: usize,
    start: Instant,
    round_start: Instant,
    last: Duration,
    done: usize,
}

impl Rounds {
    /// A budget that starts now and runs at least `min` rounds.
    pub fn new(budget: Duration, min: usize) -> Rounds {
        let now = Instant::now();
        Rounds {
            budget,
            min,
            start: now,
            round_start: now,
            last: Duration::ZERO,
            done: 0,
        }
    }

    /// Ends the current round (if any) and says whether to start another:
    /// always until `min` rounds have run, then only while a round as long
    /// as the last one still ends within the budget.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        if self.done > 0 {
            self.last = now - self.round_start;
        }
        let more = self.done < self.min || (now - self.start) + self.last <= self.budget;
        if more {
            self.round_start = now;
            self.done += 1;
        }
        more
    }

    /// Seconds since the budget started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Rounds started so far.
    pub fn done(&self) -> usize {
        self.done
    }
}

/// Timed set-ups taken before the first timed repetition; `setup_s` is
/// the median of these and of those sampled between repetitions.
const MIN_SETUPS: usize = 21;

/// Share of a run's elapsed time spent sampling set-ups.
const SETUP_SHARE: f64 = 0.1;

/// Times set-ups until at least [`MIN_SETUPS`] were taken and their total
/// reaches `until_s` seconds.
fn sample_setups(setup: fn(u64), seed: u64, setups: &mut Vec<f64>, until_s: f64) {
    let mut total: f64 = setups.iter().sum();
    while setups.len() < MIN_SETUPS || total < until_s {
        let t0 = Instant::now();
        setup(seed);
        let took = t0.elapsed().as_secs_f64();
        setups.push(took);
        total += took;
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("surfnet-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        surfnet_core::experiments::runner::default_workers(),
    );
    let line = if args.trace {
        let traced = match args.workload {
            Workload::Fig7 => fig7::traced(args.seed, budget),
            Workload::Fig8 => fig8::traced(args.seed, budget),
            Workload::Stream => stream::traced(args.seed, budget),
        };
        output::print_traced(&traced)
    } else {
        type Setup = fn(u64);
        type RunRep = fn(u64, usize) -> Rep;
        let (setup, rep, rep_size, warmup_size): (Setup, RunRep, usize, usize) = match args.workload
        {
            Workload::Fig7 => (fig7::setup, fig7::rep, fig7::REP_SIZE, fig7::WARMUP_SIZE),
            Workload::Fig8 => (fig8::setup, fig8::rep, fig8::REP_SIZE, fig8::WARMUP_SIZE),
            Workload::Stream => (
                stream::setup,
                stream::rep,
                stream::REP_SIZE,
                stream::WARMUP_SIZE,
            ),
        };
        // An untimed set-up and a reduced repetition first, so that lazy
        // initialisation, page faults, cold caches and an idle processor
        // clocking up stay out of the timings.
        setup(args.seed);
        let warmup = rep(args.seed, warmup_size);
        // Set-ups are sampled between the timed repetitions, topping up to
        // a fixed share of the elapsed run, so that `setup_s` is measured
        // under the same host conditions as `ops_per_s` rather than in one
        // short burst.
        let mut setups: Vec<f64> = Vec::new();
        sample_setups(setup, args.seed, &mut setups, 0.0);
        // At least two timed repetitions, so that every run has a spread,
        // and more while another one still fits in the budget. Repetition k runs the seed block starting at
        // seed + k · size, so that a run spans as many distinct inputs as
        // its time allows and its throughput depends little on the seed.
        let mut rounds = Rounds::new(budget, 2);
        let mut reps: Vec<(Rep, f64)> = Vec::new();
        while rounds.another() {
            let block_seed = args.seed.wrapping_add(reps.len() as u64 * rep_size as u64);
            let t0 = Instant::now();
            let r = rep(block_seed, rep_size);
            reps.push((r, t0.elapsed().as_secs_f64()));
            sample_setups(
                setup,
                args.seed,
                &mut setups,
                SETUP_SHARE * rounds.elapsed_s(),
            );
        }
        // The warm-up input once more: the program is deterministic, so it
        // must reproduce the warm-up's outputs bit for bit.
        let replay = rep(args.seed, warmup_size);
        let reference = output::reference_digest(args.workload.name(), args.seed);
        output::print_timed(args.workload, &setups, [&warmup, &replay], &reps, reference)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse_args(&argv("--workload fig8 --seed 12 --seconds 7 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Fig8,
                seed: 12,
                seconds: 7.0,
                trace: true
            }
        );
    }

    #[test]
    fn seed_defaults_per_workload() {
        for (name, seed) in [("fig7", 70_000), ("fig8", 80_000), ("stream", 90_000)] {
            let a = parse_args(&argv(&format!("--workload {name}"))).unwrap();
            assert_eq!(a.seed, seed);
            assert_eq!(a.workload.name(), name);
            assert!(!a.trace);
            assert_eq!(a.seconds, 10.0);
        }
    }

    #[test]
    fn flags_parse_in_any_order() {
        let a = parse_args(&argv("--trace 0 --seed 5 --workload stream")).unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (Workload::Stream, 5, false));
    }

    #[test]
    fn rounds_run_the_minimum_then_stop_at_the_budget() {
        let mut zero = Rounds::new(Duration::ZERO, 2);
        assert!(zero.another() && zero.another());
        assert!(!zero.another());
        assert_eq!(zero.done(), 2);
        let mut long = Rounds::new(Duration::from_secs(3600), 0);
        for _ in 0..5 {
            assert!(long.another());
        }
        assert_eq!(long.done(), 5);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            "",
            "--seed 3",
            "--workload fig9",
            "--workload fig7 --seed -1",
            "--workload fig7 --seed 1.5",
            "--workload fig7 --seconds 0",
            "--workload fig7 --seconds nan",
            "--workload fig7 --trace 2",
            "--workload fig7 --trace",
            "--workload fig7 --verbose 1",
            "fig7",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
