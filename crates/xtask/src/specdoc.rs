//! `cargo xtask spec-doc` — regenerate (or `--check`) the scenario-spec
//! grammar reference in EXPERIMENTS.md.
//!
//! The reference is rendered by `rlb_net::spec::render_spec_reference`
//! from `SPEC_REFERENCE`, the table the spec reader and the canonical
//! writer are loops over — one source of truth for the grammar, its
//! defaults, its error messages and its documentation. This tool only
//! owns the splicing: everything between the `spec-doc:begin` /
//! `spec-doc:end` markers is replaced wholesale; hand edits inside the
//! block are overwritten (CI runs `--check`, which fails when the
//! committed block drifts from the code).

use std::path::Path;
use std::process::ExitCode;

const BEGIN: &str = "<!-- spec-doc:begin -->";
const END: &str = "<!-- spec-doc:end -->";

/// `cargo xtask spec-doc [--check]`.
pub fn cli(root: &Path, args: &[String]) -> ExitCode {
    let mut check = false;
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            bad => {
                eprintln!("unknown argument `{bad}` (usage: cargo xtask spec-doc [--check])");
                return ExitCode::from(2);
            }
        }
    }
    run(root, check)
}

fn run(root: &Path, check: bool) -> ExitCode {
    let path = root.join("EXPERIMENTS.md");
    let current = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let updated = match splice(&current) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if updated == current {
        println!("EXPERIMENTS.md spec reference is up to date");
        return ExitCode::SUCCESS;
    }
    if check {
        eprintln!(
            "EXPERIMENTS.md spec reference is out of date with \
             rlb_net::spec::SPEC_REFERENCE — run `cargo xtask spec-doc`"
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&path, updated) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("regenerated the spec reference in EXPERIMENTS.md");
    ExitCode::SUCCESS
}

/// Replace the marker-delimited block in `text` with the freshly rendered
/// reference. The markers themselves stay, so the tool is idempotent.
fn splice(text: &str) -> Result<String, String> {
    let begin = text
        .find(BEGIN)
        .ok_or_else(|| format!("missing `{BEGIN}` marker"))?;
    let end = text
        .find(END)
        .ok_or_else(|| format!("missing `{END}` marker"))?;
    if end < begin {
        return Err("spec-doc markers are out of order".to_string());
    }
    let head = &text[..begin + BEGIN.len()];
    let tail = &text[end..];
    Ok(format!(
        "{head}\n{}{tail}",
        rlb_net::spec::render_spec_reference()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_is_idempotent_and_preserves_surroundings() {
        let doc = format!("before\n\n{BEGIN}\nstale text\n{END}\n\nafter\n");
        let once = splice(&doc).expect("splice");
        assert!(once.starts_with("before\n\n<!-- spec-doc:begin -->\n"));
        assert!(once.ends_with("<!-- spec-doc:end -->\n\nafter\n"));
        assert!(!once.contains("stale text"));
        assert!(once.contains("### `[scenario]`"));
        assert_eq!(splice(&once).expect("splice twice"), once);
    }

    #[test]
    fn missing_markers_are_reported() {
        assert!(splice("no markers here").is_err());
        let reversed = format!("{END} {BEGIN}");
        assert!(splice(&reversed).unwrap_err().contains("out of order"));
    }
}
