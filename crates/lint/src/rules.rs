//! The Fusion-3D invariant rules and the token-stream checker.
//!
//! Every rule guards a property the simulator's numbers depend on:
//!
//! * **D1** — no `HashMap`/`HashSet` in result-bearing crates.
//!   Iteration order of the std hash containers is randomized per
//!   process, so any result that flows through one is not reproducible.
//!   Use `BTreeMap`/`BTreeSet` or a sorted `Vec`.
//! * **D2** — no wall-clock (`std::time`), ambient randomness
//!   (`thread_rng`/`from_entropy`) or environment reads (`std::env`)
//!   in simulator/NeRF crates. Timing belongs in `bench`; randomness
//!   must come from a seeded generator passed in by the caller.
//! * **D3** — no raw `std::thread` use outside `crates/par`. All
//!   parallelism flows through the deterministic fixed-chunk
//!   combinators so results are identical at any worker count.
//! * **P1** — no `unwrap()`/`expect()`/`panic!`-family macros in
//!   non-test library code. Fallible paths return `Result`; the few
//!   legitimate invariant panics carry an allow comment naming why.
//! * **A1** — no lossy `as` casts (narrowing integers, `f32`
//!   truncation, float→int) inside the cycle/energy accounting
//!   modules, where a silent wrap corrupts reported numbers.
//! * **H1** — no `Vec::new`/`vec![…]`/`.clone()` inside the hot-path
//!   kernel modules (`nerf::encoding`, `nerf::mlp`, `nerf::render`).
//!   The batched kernels promise an allocation-free per-sample loop;
//!   fresh vectors or clones there silently reintroduce per-sample
//!   heap traffic. Reuse the structure-of-arrays scratch buffers, or
//!   carry a `// lint: allow(H1): why` comment on deliberate cold
//!   paths.
//! * **O1** — no `println!`/`print!`/`eprintln!`/`eprint!` in library
//!   crates. Libraries report through return values and
//!   `fusion3d-obs` reports; stray stdout writes corrupt the JSON
//!   streams the bench binaries emit and hide information from
//!   programmatic consumers. Printing belongs to binaries
//!   (`src/bin/`, `bench`) and the lint tool itself.
//!
//! A finding on line `L` is suppressed by `// lint: allow(<rule>)` on
//! line `L` or `L - 1`.

use crate::lexer::{Token, TokenKind};
use crate::scope::Scope;
use crate::{Reporter, SourceFile};

/// Cast targets that lose information when fed 64-bit cycle/energy
/// quantities (A1). `u64`/`u128`/`f64` remain legal targets; anything
/// narrower — or `usize`, whose width is platform-dependent — is not.
const LOSSY_CAST_TARGETS: &[&str] =
    &["u8", "u16", "u32", "i8", "i16", "i32", "i64", "f32", "usize", "isize"];

/// Integer cast targets: a float literal cast to any of these is a
/// truncation even when the target is 64-bit wide.
const INT_CAST_TARGETS: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Panicking macros covered by P1/P2 (matched when followed by `!`).
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Printing macros covered by O1 (matched when followed by `!`).
/// `write!`/`writeln!` into a caller-supplied sink stay legal.
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint"];

/// Runs every applicable token-local rule over every file.
pub(crate) fn check(files: &[SourceFile], out: &mut Reporter<'_>) {
    for (idx, file) in files.iter().enumerate() {
        check_file(idx, file, out);
    }
}

fn check_file(idx: usize, file: &SourceFile, out: &mut Reporter<'_>) {
    let scope = Scope::of(&file.path);
    let tokens = &file.lexed.tokens;
    let mut report = |rule: &'static str, line: u32, message: String| {
        out.report(idx, &[rule], line, message);
    };
    for (i, tok) in tokens.iter().enumerate() {
        if file.parsed.in_test[i] {
            continue;
        }
        let text = tok.text.as_str();
        let is_ident = tok.kind == TokenKind::Ident;
        let method_call = |name: &str| {
            text == name
                && i > 0
                && tokens[i - 1].text == "."
                && tokens.get(i + 1).is_some_and(|t| t.text == "(")
        };
        let is_macro = |names: &[&str]| {
            names.contains(&text) && tokens.get(i + 1).is_some_and(|t| t.text == "!")
        };

        // D1: hash containers in result-bearing crates.
        if scope.d1 && is_ident && (text == "HashMap" || text == "HashSet") {
            report(
                "D1",
                tok.line,
                format!(
                    "`{text}` has randomized iteration order; use BTreeMap/BTreeSet \
                     or a sorted Vec in result-bearing crates"
                ),
            );
        }

        // D2: wall-clock, ambient randomness, environment reads.
        if scope.d2 && is_ident {
            let ambient = match text {
                "Instant" | "SystemTime" => Some("wall-clock time"),
                "thread_rng" | "from_entropy" => Some("ambient randomness"),
                _ => None,
            };
            if let Some(what) = ambient {
                report(
                    "D2",
                    tok.line,
                    format!("`{text}` injects {what} into a simulator/NeRF crate"),
                );
            }
            if matches_path(tokens, i, &["std", "env"]) || matches_path(tokens, i, &["std", "time"])
            {
                report(
                    "D2",
                    tok.line,
                    format!(
                        "`std::{}` makes simulator behaviour depend on the ambient \
                         process environment",
                        tokens[i + 3].text
                    ),
                );
            }
        }

        // D3: raw threading outside crates/par.
        if scope.d3
            && is_ident
            && (matches_path(tokens, i, &["thread", "spawn"])
                || matches_path(tokens, i, &["thread", "scope"])
                || matches_path(tokens, i, &["std", "thread"]))
        {
            report(
                "D3",
                tok.line,
                "raw std::thread use outside crates/par; route parallelism through \
                 the deterministic fusion3d-par combinators"
                    .to_string(),
            );
        }

        // P1: panicking constructs in library code.
        if scope.p1 && is_ident {
            if method_call("unwrap") || method_call("expect") {
                report(
                    "P1",
                    tok.line,
                    format!(
                        "`.{text}()` in library code; return a Result or document the \
                         invariant with a lint allow comment"
                    ),
                );
            }
            if is_macro(PANIC_MACROS) {
                report(
                    "P1",
                    tok.line,
                    format!("`{text}!` in library code; return a Result or document the invariant"),
                );
            }
        }

        // O1: printing from library code.
        if scope.o1 && is_ident && is_macro(PRINT_MACROS) {
            report(
                "O1",
                tok.line,
                format!(
                    "`{text}!` in library code; report through return values or a \
                     fusion3d-obs Report — printing belongs to binaries"
                ),
            );
        }

        // H1: allocations and clones in hot-path kernel modules.
        if scope.h1 && is_ident {
            if is_macro(&["vec"]) {
                report(
                    "H1",
                    tok.line,
                    "`vec![…]` allocates in a hot-path kernel module; reuse a \
                     scratch buffer sized once per batch"
                        .to_string(),
                );
            }
            if matches_path(tokens, i, &["Vec", "new"]) {
                report(
                    "H1",
                    tok.line,
                    "`Vec::new` in a hot-path kernel module; reuse a scratch \
                     buffer sized once per batch"
                        .to_string(),
                );
            }
            if method_call("clone") {
                report(
                    "H1",
                    tok.line,
                    "`.clone()` copies in a hot-path kernel module; borrow or \
                     write into a reused buffer"
                        .to_string(),
                );
            }
        }

        // A1: lossy casts in accounting modules.
        if scope.a1 && is_ident && text == "as" {
            if let Some(target) = tokens.get(i + 1) {
                let narrowing = target.kind == TokenKind::Ident
                    && LOSSY_CAST_TARGETS.contains(&target.text.as_str());
                let float_to_int = i > 0
                    && tokens[i - 1].kind == TokenKind::Float
                    && target.kind == TokenKind::Ident
                    && INT_CAST_TARGETS.contains(&target.text.as_str());
                if narrowing || float_to_int {
                    report(
                        "A1",
                        tok.line,
                        format!(
                            "lossy `as {}` cast in an accounting module; widen to \
                             u64/f64 or use a checked conversion",
                            target.text
                        ),
                    );
                }
            }
        }
    }
}

/// Returns whether the `std` path segment at `tokens[i]` begins the
/// two-segment path `segs[0]::segs[1]` (e.g. `std :: env`).
fn matches_path(tokens: &[Token], i: usize, segs: &[&str; 2]) -> bool {
    tokens[i].text == segs[0]
        && tokens.get(i + 1).is_some_and(|t| t.text == ":")
        && tokens.get(i + 2).is_some_and(|t| t.text == ":")
        && tokens.get(i + 3).is_some_and(|t| t.text == segs[1])
}
