//! Token navigation shared by the parser and every rule engine:
//! bracket matching in both directions, generic-argument skipping,
//! place-expression walk-back, and depth-0 scanning. Every helper
//! tolerates unbalanced input, like the lexer.

use crate::lexer::{Token, TokenKind};

/// The bracket that closes `open`, or opens `close`.
fn partner(t: &str) -> Option<&'static str> {
    Some(match t {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        ")" => "(",
        "]" => "[",
        "}" => "{",
        _ => return None,
    })
}

/// Depth change of one token under `(`/`[`/`{` nesting.
fn bracket_delta(toks: &[Token], i: usize) -> i32 {
    match toks[i].text.as_str() {
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        _ => 0,
    }
}

/// Index of the bracket closing the one at `open`; the last token
/// when the input never closes it.
pub(crate) fn match_close(toks: &[Token], open: usize) -> usize {
    let last = toks.len().saturating_sub(1);
    let Some(open_text) = toks.get(open).map(|t| t.text.as_str()) else { return last };
    let Some(close_text) = partner(open_text) else { return last };
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.text == open_text {
            depth += 1;
        } else if t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    last
}

/// Index of the bracket opening the one at `close`.
pub(crate) fn match_open(toks: &[Token], close: usize) -> Option<usize> {
    let close_text = toks.get(close)?.text.as_str();
    let open_text = partner(close_text)?;
    let mut depth = 0i32;
    for i in (0..=close).rev() {
        if toks[i].text == close_text {
            depth += 1;
        } else if toks[i].text == open_text {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Whether the `>` at `i` is the head of a `->` arrow, which closes no
/// generic argument list.
fn is_arrow_head(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].text == "-"
}

/// `(`/`[`/`<` nesting, for `let` patterns with generic type
/// ascriptions; the `>` of a `->` arrow (`fn(f32) -> f32`) closes
/// nothing, as in [`match_angles`].
pub(crate) fn angle_delta(toks: &[Token], i: usize) -> i32 {
    match toks[i].text.as_str() {
        "(" | "[" | "<" => 1,
        ">" if is_arrow_head(toks, i) => 0,
        ")" | "]" | ">" => -1,
        _ => 0,
    }
}

/// Index of the `>` closing the generic argument list whose `<` is at
/// `open`. `->` arrows inside bounds (`F: Fn() -> T`) do not close a
/// level and parenthesised groups are skipped whole; a `;` or `{`
/// means malformed input and stops the scan just before it.
pub(crate) fn match_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" => depth += 1,
            ">" if is_arrow_head(toks, i) => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            "(" => i = match_close(toks, i),
            ";" | "{" => return i.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Start of the place expression that ends just before `end`, looking
/// no further back than `lo`: identifier or tuple-index segments
/// joined by `.`, each optionally suffixed by `[…]`/`(…)` groups and
/// `?`. Leading `*` derefs are not part of the returned span.
pub(crate) fn place_start(toks: &[Token], end: usize, lo: usize) -> Option<usize> {
    let mut j = end;
    loop {
        if j <= lo {
            return None;
        }
        let t = &toks[j - 1];
        match t.text.as_str() {
            "]" | ")" => j = match_open(toks, j - 1).filter(|&o| o > lo)?,
            "?" => j -= 1,
            _ if matches!(t.kind, TokenKind::Ident | TokenKind::Int) => {
                j -= 1;
                if j > lo && toks[j - 1].text == "." {
                    j -= 1;
                } else {
                    return Some(j);
                }
            }
            _ => return None,
        }
    }
}

/// Positions in `[lo, hi)` at depth 0 under `delta`'s nesting, in
/// order. An opener at depth 0 is itself yielded (so a scan can stop
/// on the `{` of a body); a stray closer drives the depth negative.
pub(crate) fn depth0_by(
    toks: &[Token],
    lo: usize,
    hi: usize,
    delta: fn(&[Token], usize) -> i32,
) -> impl Iterator<Item = usize> + '_ {
    let mut depth = 0i32;
    (lo..hi.min(toks.len())).filter(move |&i| {
        let at_top = depth == 0;
        depth += delta(toks, i);
        at_top
    })
}

/// [`depth0_by`] under `(`/`[`/`{` nesting.
pub(crate) fn depth0(toks: &[Token], lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
    depth0_by(toks, lo, hi, bracket_delta)
}

/// First depth-0 occurrence of the single token `what` in `[lo, hi)`.
pub(crate) fn find_depth0(toks: &[Token], lo: usize, hi: usize, what: &str) -> Option<usize> {
    depth0(toks, lo, hi).find(|&i| toks[i].text == what)
}

/// Splits `[lo, hi)` on depth-0 occurrences of the single token `sep`.
pub(crate) fn split_depth0(toks: &[Token], lo: usize, hi: usize, sep: &str) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut start = lo;
    for i in depth0(toks, lo, hi).filter(|&i| toks[i].text == sep) {
        parts.push((start, i));
        start = i + 1;
    }
    parts.push((start, hi));
    parts
}
