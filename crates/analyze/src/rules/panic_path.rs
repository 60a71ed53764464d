//! Rule `panic_path` — request-handling code must justify every
//! potential panic.
//!
//! The serve tier's contract (DESIGN.md §11): no request may panic —
//! WAL IO errors degrade to memory-only service, malformed input gets
//! a wire error, and a worker panic is an isolated, counted event, not
//! an answer the client never receives. In the configured `paths`
//! (today `serve::server` and its submodules, `serve::wal`,
//! `serve::json`), each
//! `.unwrap()` / `.expect(…)` / direct index `expr[…]` / panicking
//! macro must carry a `// panic-safe:` comment stating *why it cannot
//! fire* — on the same line, or anywhere in the contiguous block of
//! comment-only lines directly above — or an audited allowlist entry.
//! Test code is exempt.
//!
//! Index detection is lexical: a `[` whose previous token is an
//! identifier, a closing `)`/`]`, or a numeric literal (tuple field)
//! is an index expression; types, attributes, slice patterns and macro
//! brackets never match that shape.

use super::{is_keyword, Rule};
use crate::config::Config;
use crate::lexer::Tok;
use crate::scan::Workspace;
use crate::Finding;
use std::collections::BTreeSet;

/// See module docs.
pub struct PanicPath;

impl Rule for PanicPath {
    fn name(&self) -> &'static str {
        "panic_path"
    }

    fn check(&self, ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
        let paths = cfg.list("panic_path", "paths");
        let macros = cfg.list("panic_path", "macros");
        for file in &ws.files {
            if !paths.iter().any(|p| file.rel.starts_with(p.as_str())) {
                continue;
            }
            // Lines carrying a `// panic-safe:` justification, and lines
            // holding only comments (so a multi-line justification block
            // covers the code line below it as a whole).
            let mut safe_lines: BTreeSet<u32> = BTreeSet::new();
            let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
            let mut code_lines: BTreeSet<u32> = BTreeSet::new();
            for t in &file.tokens {
                match &t.tok {
                    Tok::LineComment(text) => {
                        comment_lines.insert(t.line);
                        if text.contains("panic-safe:") {
                            safe_lines.insert(t.line);
                        }
                    }
                    _ => {
                        code_lines.insert(t.line);
                    }
                }
            }
            let justified = |line: u32| {
                if safe_lines.contains(&line) || safe_lines.contains(&(line - 1)) {
                    return true;
                }
                // Walk up through comment-only lines; a marker anywhere in
                // the block directly above the site justifies it.
                let mut l = line.saturating_sub(1);
                while l > 0 && comment_lines.contains(&l) && !code_lines.contains(&l) {
                    if safe_lines.contains(&l) {
                        return true;
                    }
                    l -= 1;
                }
                false
            };

            for f in &file.fns {
                if f.is_test {
                    continue;
                }
                let mut push = |line: u32, what: String| {
                    if justified(line) {
                        return;
                    }
                    out.push(Finding {
                        rule: "panic_path",
                        path: file.rel.clone(),
                        line,
                        function: f.name.clone(),
                        message: format!(
                            "{what} on a request path without a `// panic-safe:` justification \
                             (no request may panic: DESIGN.md §11)"
                        ),
                    });
                };
                for i in f.body.0..=f.body.1.min(file.tokens.len().saturating_sub(1)) {
                    if file
                        .fn_at(i)
                        .map(|inner| inner.body != f.body)
                        .unwrap_or(true)
                    {
                        continue;
                    }
                    match &file.tokens[i].tok {
                        Tok::Punct('.') => {
                            if let Some(Tok::Ident(w)) = file.tokens.get(i + 1).map(|t| &t.tok) {
                                if (w == "unwrap" || w == "expect")
                                    && matches!(
                                        file.tokens.get(i + 2).map(|t| &t.tok),
                                        Some(Tok::Punct('('))
                                    )
                                {
                                    push(file.tokens[i + 1].line, format!("`.{w}()`"));
                                }
                            }
                        }
                        Tok::Ident(w)
                            if macros.iter().any(|m| m == w)
                                && matches!(
                                    file.tokens.get(i + 1).map(|t| &t.tok),
                                    Some(Tok::Punct('!'))
                                ) =>
                        {
                            push(file.tokens[i].line, format!("`{w}!`"));
                        }
                        Tok::Punct('[') if i > f.body.0 => {
                            let indexes = match &file.tokens[i - 1].tok {
                                Tok::Ident(prev) => !is_keyword(prev),
                                Tok::Punct(')') | Tok::Punct(']') => true,
                                Tok::Num(_) => true,
                                _ => false,
                            };
                            if indexes {
                                push(file.tokens[i].line, "direct index `[…]`".to_string());
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
