//! Workspace automation (the cargo-xtask pattern; alias in
//! `.cargo/config.toml`).
//!
//! ```text
//! cargo xtask lint                         # advisory: only errors fail
//! cargo xtask lint --deny                  # CI: any unsuppressed finding fails
//! cargo xtask lint --json [report.json]    # machine-readable report
//! cargo xtask lint --list-rules            # one line per rule
//! cargo xtask lint --explain <rule>        # rationale + bad/good example
//! cargo xtask spec-doc                     # regenerate the scenario-spec
//!                                          # reference in EXPERIMENTS.md
//! cargo xtask spec-doc --check             # CI: fail if the doc drifted
//! ```
//!
//! See [`lint`] for the framework (lexer, scope tree, rules)
//! and [`xtask::specdoc`] for the doc generator.

use xtask::{lint, specdoc};

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_cli(&args[1..]),
        Some("spec-doc") => specdoc::cli(&workspace_root(), &args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--deny] [--json [<path>]] [--list-rules] \
                 [--explain <rule>]\n       cargo xtask spec-doc [--check]"
            );
            ExitCode::from(2)
        }
    }
}

fn lint_cli(args: &[String]) -> ExitCode {
    let mut opts = lint::Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => opts.deny = true,
            "--json" => {
                // Optional path operand: `--json report.json` or bare
                // `--json` (stdout).
                match args.get(i + 1) {
                    Some(next) if !next.starts_with('-') => {
                        opts.json = Some(Some(PathBuf::from(next)));
                        i += 1;
                    }
                    _ => opts.json = Some(None),
                }
            }
            "--list-rules" => return list_rules(),
            "--explain" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--explain needs a rule name (see --list-rules)");
                    return ExitCode::from(2);
                };
                return explain(name);
            }
            bad => {
                eprintln!("unknown argument `{bad}`");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    lint::run(&workspace_root(), &opts)
}

fn list_rules() -> ExitCode {
    let width = lint::rules::ALL_RULES
        .iter()
        .map(|r| r.meta().name.len())
        .max()
        .unwrap_or(0);
    for rule in lint::rules::ALL_RULES {
        let m = rule.meta();
        println!(
            "{:width$}  {:7}  {}",
            m.name,
            m.severity.to_string(),
            m.summary
        );
    }
    println!("\nrun `cargo xtask lint --explain <rule>` for rationale and examples");
    ExitCode::SUCCESS
}

fn explain(name: &str) -> ExitCode {
    match lint::rules::rule_by_name(name) {
        Some(rule) => {
            let m = rule.meta();
            println!("{} ({})\n", m.name, m.severity);
            println!("{}\n", m.explain);
            println!("help: {}", m.suggestion);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{name}`; `cargo xtask lint --list-rules` lists them");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/xtask lives two levels below the workspace root")
        .to_path_buf()
}
