//! A textual format for detective rules, mirroring the paper's figures.
//!
//! ```text
//! rule phi2 {
//!     evidence w1: Name type "Nobel laureates in Chemistry" sim =;
//!     evidence w2: Institution type "organization" sim ED,2;
//!     positive p: City type "city" sim =;
//!     negative n: City type "city" sim =;
//!     edge w1 -[worksAt]-> w2;
//!     edge w2 -[locatedIn]-> p;
//!     edge w1 -[wasBornIn]-> n;
//! }
//! ```
//!
//! * Node declarations bind an alias to a column of the relation schema, a
//!   KB type (`"class name"` or the keyword `literal`), and a `sim` spec
//!   (`=`, `ED,k`, `JAC,t`, `COS,t`).
//! * `aux a1 type "organization";` declares a column-free auxiliary node
//!   (positive/negative paths).
//! * Edges connect aliases with a KB relationship or property.
//! * `#` starts a line comment. A file may hold any number of rules.
//!
//! Parsing resolves column names against a [`Schema`] and type/predicate
//! names against a [`KnowledgeBase`]; [`rules_to_text`] writes rules back
//! out, and the round-trip is lossless.

use crate::graph::schema::{NodeType, SchemaNode};
use crate::rule::{DetectiveRule, RuleEdge, RuleError, RuleNodeRef};
use dr_kb::{FxHashMap, KnowledgeBase};
use dr_relation::Schema;
use dr_simmatch::SimFn;
use std::fmt;

/// A parse/resolution failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTextError {
    /// 1-based line of the offending token (0 for end-of-input errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RuleTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuleTextError {}

fn err(line: usize, message: impl Into<String>) -> RuleTextError {
    RuleTextError {
        line,
        message: message.into(),
    }
}

/// One lexed token with its line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Quoted(String),
    LBrace,
    RBrace,
    Colon,
    Semi,
    /// `-[rel]->`
    Arrow(String),
}

fn lex(text: &str) -> Result<Vec<(usize, Tok)>, RuleTextError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let mut chars = code.char_indices().peekable();
        while let Some(&(i, ch)) = chars.peek() {
            match ch {
                c if c.is_whitespace() => {
                    chars.next();
                }
                '{' => {
                    chars.next();
                    out.push((line, Tok::LBrace));
                }
                '}' => {
                    chars.next();
                    out.push((line, Tok::RBrace));
                }
                ':' => {
                    chars.next();
                    out.push((line, Tok::Colon));
                }
                ';' => {
                    chars.next();
                    out.push((line, Tok::Semi));
                }
                '"' => {
                    chars.next();
                    let mut value = String::new();
                    let mut closed = false;
                    for (_, c) in chars.by_ref() {
                        if c == '"' {
                            closed = true;
                            break;
                        }
                        value.push(c);
                    }
                    if !closed {
                        return Err(err(line, "unterminated string"));
                    }
                    out.push((line, Tok::Quoted(value)));
                }
                '-' if code[i..].starts_with("-[") => {
                    // `-[rel]->`.
                    let rest = &code[i..];
                    let close = rest
                        .find("]->")
                        .ok_or_else(|| err(line, "expected `-[rel]->`"))?;
                    let rel = rest[2..close].trim().to_owned();
                    if rel.is_empty() {
                        return Err(err(line, "empty relationship in edge"));
                    }
                    // Consume up to and including `]->`.
                    let consumed = close + 3;
                    for _ in 0..consumed {
                        chars.next();
                    }
                    out.push((line, Tok::Arrow(rel)));
                }
                _ => {
                    // A word: letters, digits, sim-spec characters, and `-`
                    // (except when it opens an edge arrow `-[`).
                    let mut word = String::new();
                    while let Some(&(j, c)) = chars.peek() {
                        let is_word_char = c.is_alphanumeric()
                            || "=.,_".contains(c)
                            || (c == '-' && !code[j..].starts_with("-["));
                        if is_word_char {
                            word.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    if word.is_empty() {
                        return Err(err(line, format!("unexpected character `{ch}`")));
                    }
                    out.push((line, Tok::Word(word)));
                }
            }
        }
    }
    Ok(out)
}

/// A declared node while parsing one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Declared {
    Evidence(usize),
    Positive,
    Negative,
    Aux(usize),
}

struct RuleParser<'a> {
    toks: &'a [(usize, Tok)],
    pos: usize,
}

impl<'a> RuleParser<'a> {
    fn peek(&self) -> Option<&(usize, Tok)> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a (usize, Tok)> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|&(l, _)| l)
            .unwrap_or(0)
    }

    fn expect_word(&mut self, want: Option<&str>) -> Result<(usize, String), RuleTextError> {
        match self.next() {
            Some((line, Tok::Word(w))) => {
                if let Some(want) = want {
                    if w != want {
                        return Err(err(*line, format!("expected `{want}`, found `{w}`")));
                    }
                }
                Ok((*line, w.clone()))
            }
            Some((line, other)) => Err(err(*line, format!("expected a word, found {other:?}"))),
            None => Err(err(0, "unexpected end of input")),
        }
    }

    fn expect_tok(&mut self, want: &Tok, what: &str) -> Result<usize, RuleTextError> {
        match self.next() {
            Some((line, t)) if t == want => Ok(*line),
            Some((line, other)) => Err(err(*line, format!("expected {what}, found {other:?}"))),
            None => Err(err(0, format!("unexpected end of input, expected {what}"))),
        }
    }
}

/// Resolves a type token (`literal` keyword or quoted class name).
fn parse_type(parser: &mut RuleParser<'_>, kb: &KnowledgeBase) -> Result<NodeType, RuleTextError> {
    match parser.next() {
        Some((_, Tok::Word(w))) if w == "literal" => Ok(NodeType::Literal),
        Some((line, Tok::Quoted(name))) => kb
            .class_named(name)
            .map(NodeType::Class)
            .ok_or_else(|| err(*line, format!("unknown class `{name}`"))),
        Some((line, other)) => Err(err(
            *line,
            format!("expected `literal` or a quoted class name, found {other:?}"),
        )),
        None => Err(err(0, "unexpected end of input in type")),
    }
}

/// Parses one rule starting at `rule`.
fn parse_rule(
    parser: &mut RuleParser<'_>,
    schema: &Schema,
    kb: &KnowledgeBase,
) -> Result<DetectiveRule, RuleTextError> {
    let (_, name) = parser.expect_word(None)?; // rule name
    parser.expect_tok(&Tok::LBrace, "`{`")?;

    let mut aliases: FxHashMap<String, Declared> = FxHashMap::default();
    let mut evidence: Vec<SchemaNode> = Vec::new();
    let mut aux: Vec<NodeType> = Vec::new();
    let mut positive: Option<SchemaNode> = None;
    let mut negative: Option<SchemaNode> = None;
    let mut edges: Vec<RuleEdge> = Vec::new();

    loop {
        match parser.peek() {
            Some((_, Tok::RBrace)) => {
                parser.next();
                break;
            }
            None => return Err(err(0, "unexpected end of input inside rule body")),
            _ => {}
        }
        let (line, keyword) = parser.expect_word(None)?;
        match keyword.as_str() {
            "evidence" | "positive" | "negative" => {
                let (_, alias) = parser.expect_word(None)?;
                parser.expect_tok(&Tok::Colon, "`:`")?;
                let (col_line, col_name) = parser.expect_word(None)?;
                let col = schema
                    .attr(&col_name)
                    .ok_or_else(|| err(col_line, format!("unknown column `{col_name}`")))?;
                parser.expect_word(Some("type"))?;
                let ty = parse_type(parser, kb)?;
                parser.expect_word(Some("sim"))?;
                let (sim_line, sim_spec) = parser.expect_word(None)?;
                let sim: SimFn = sim_spec
                    .parse()
                    .map_err(|e| err(sim_line, format!("{e}")))?;
                parser.expect_tok(&Tok::Semi, "`;`")?;
                let node = SchemaNode::new(col, ty, sim);
                let declared = match keyword.as_str() {
                    "evidence" => {
                        evidence.push(node);
                        Declared::Evidence(evidence.len() - 1)
                    }
                    "positive" => {
                        if positive.is_some() {
                            return Err(err(line, "duplicate positive node"));
                        }
                        positive = Some(node);
                        Declared::Positive
                    }
                    _ => {
                        if negative.is_some() {
                            return Err(err(line, "duplicate negative node"));
                        }
                        negative = Some(node);
                        Declared::Negative
                    }
                };
                if aliases.insert(alias.clone(), declared).is_some() {
                    return Err(err(line, format!("duplicate alias `{alias}`")));
                }
            }
            "aux" => {
                let (_, alias) = parser.expect_word(None)?;
                parser.expect_word(Some("type"))?;
                let ty = parse_type(parser, kb)?;
                parser.expect_tok(&Tok::Semi, "`;`")?;
                aux.push(ty);
                if aliases
                    .insert(alias.clone(), Declared::Aux(aux.len() - 1))
                    .is_some()
                {
                    return Err(err(line, format!("duplicate alias `{alias}`")));
                }
            }
            "edge" => {
                let (from_line, from_alias) = parser.expect_word(None)?;
                let rel_name = match parser.next() {
                    Some((_, Tok::Arrow(rel))) => rel.clone(),
                    Some((l, other)) => {
                        return Err(err(*l, format!("expected `-[rel]->`, found {other:?}")))
                    }
                    None => return Err(err(0, "unexpected end of input in edge")),
                };
                let (to_line, to_alias) = parser.expect_word(None)?;
                parser.expect_tok(&Tok::Semi, "`;`")?;
                let resolve = |alias: &str, l: usize| -> Result<RuleNodeRef, RuleTextError> {
                    match aliases.get(alias) {
                        Some(Declared::Evidence(i)) => Ok(RuleNodeRef::Evidence(*i)),
                        Some(Declared::Positive) => Ok(RuleNodeRef::Positive),
                        Some(Declared::Negative) => Ok(RuleNodeRef::Negative),
                        Some(Declared::Aux(i)) => Ok(RuleNodeRef::Aux(*i)),
                        None => Err(err(l, format!("unknown alias `{alias}`"))),
                    }
                };
                let rel = kb
                    .pred_named(&rel_name)
                    .ok_or_else(|| err(from_line, format!("unknown relationship `{rel_name}`")))?;
                edges.push(RuleEdge {
                    from: resolve(&from_alias, from_line)?,
                    to: resolve(&to_alias, to_line)?,
                    rel,
                });
            }
            other => {
                return Err(err(
                    line,
                    format!("expected `evidence|positive|negative|aux|edge`, found `{other}`"),
                ))
            }
        }
    }

    let positive = positive.ok_or_else(|| err(parser.line(), "rule has no positive node"))?;
    let negative = negative.ok_or_else(|| err(parser.line(), "rule has no negative node"))?;
    DetectiveRule::with_aux(name, evidence, aux, positive, negative, edges)
        .map_err(|e: RuleError| err(parser.line(), format!("invalid rule: {e}")))
}

/// Parses a rule file against a schema and a KB.
///
/// # Errors
/// Reports the first lexical, syntactic, resolution, or rule-validation
/// failure with its line number.
pub fn parse_rules(
    text: &str,
    schema: &Schema,
    kb: &KnowledgeBase,
) -> Result<Vec<DetectiveRule>, RuleTextError> {
    let toks = lex(text)?;
    let mut parser = RuleParser {
        toks: &toks,
        pos: 0,
    };
    let mut rules = Vec::new();
    while parser.peek().is_some() {
        parser.expect_word(Some("rule"))?;
        rules.push(parse_rule(&mut parser, schema, kb)?);
    }
    Ok(rules)
}

fn sim_spec(sim: SimFn) -> String {
    // `SimFn::Display` already emits the parseable spec.
    sim.to_string()
}

fn type_spec(ty: NodeType, kb: &KnowledgeBase) -> String {
    match ty {
        NodeType::Literal => "literal".to_owned(),
        NodeType::Class(c) => format!("\"{}\"", kb.class_name(c)),
    }
}

/// Serializes rules to the textual format (inverse of [`parse_rules`]).
pub fn rules_to_text(rules: &[DetectiveRule], schema: &Schema, kb: &KnowledgeBase) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for rule in rules {
        let _ = writeln!(out, "rule {} {{", rule.name());
        for (i, ev) in rule.evidence().iter().enumerate() {
            let _ = writeln!(
                out,
                "    evidence e{i}: {} type {} sim {};",
                schema.attr_name(ev.col),
                type_spec(ev.ty, kb),
                sim_spec(ev.sim)
            );
        }
        for (i, &ty) in rule.aux().iter().enumerate() {
            let _ = writeln!(out, "    aux a{i} type {};", type_spec(ty, kb));
        }
        let p = rule.positive();
        let _ = writeln!(
            out,
            "    positive p: {} type {} sim {};",
            schema.attr_name(p.col),
            type_spec(p.ty, kb),
            sim_spec(p.sim)
        );
        let n = rule.negative();
        let _ = writeln!(
            out,
            "    negative n: {} type {} sim {};",
            schema.attr_name(n.col),
            type_spec(n.ty, kb),
            sim_spec(n.sim)
        );
        let alias = |r: RuleNodeRef| match r {
            RuleNodeRef::Evidence(i) => format!("e{i}"),
            RuleNodeRef::Positive => "p".to_owned(),
            RuleNodeRef::Negative => "n".to_owned(),
            RuleNodeRef::Aux(i) => format!("a{i}"),
        };
        for e in rule.edges() {
            let _ = writeln!(
                out,
                "    edge {} -[{}]-> {};",
                alias(e.from),
                kb.pred_name(e.rel),
                alias(e.to)
            );
        }
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_dirty};
    use crate::{apply_rule, ApplyOptions, MatchContext, RuleApplication};
    use dr_kb::fixtures::nobel_mini_kb;

    const PHI2_TEXT: &str = r#"
# ϕ2 of Figure 4: the lives-at vs born-in City rule.
rule phi2 {
    evidence w1: Name type "Nobel laureates in Chemistry" sim =;
    evidence w2: Institution type "organization" sim ED,2;
    positive p: City type "city" sim =;
    negative n: City type "city" sim =;
    edge w1 -[worksAt]-> w2;
    edge w2 -[locatedIn]-> p;
    edge w1 -[wasBornIn]-> n;
}
"#;

    #[test]
    fn parses_and_applies_phi2() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = parse_rules(PHI2_TEXT, &schema, &kb).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].name(), "phi2");

        let ctx = MatchContext::new(&kb);
        let mut r1 = table1_dirty().tuple(0).clone();
        match apply_rule(&ctx, &rules[0], &mut r1, &ApplyOptions::default()) {
            RuleApplication::Repaired { old, new, .. } => {
                assert_eq!(old, "Karcag");
                assert_eq!(new, "Haifa");
            }
            other => panic!("expected repair, got {other:?}"),
        }
    }

    #[test]
    fn figure4_rules_roundtrip() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let text = rules_to_text(&rules, &schema, &kb);
        let back = parse_rules(&text, &schema, &kb).unwrap();
        assert_eq!(rules.len(), back.len());
        for (a, b) in rules.iter().zip(&back) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.evidence(), b.evidence());
            assert_eq!(a.positive(), b.positive());
            assert_eq!(a.negative(), b.negative());
            assert_eq!(a.edges(), b.edges());
        }
        // Canonical: re-serialization is identical.
        assert_eq!(text, rules_to_text(&back, &schema, &kb));
    }

    #[test]
    fn aux_rule_roundtrip() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let text = r#"
rule city-via-aux {
    evidence e0: Name type "Nobel laureates in Chemistry" sim =;
    aux a0 type "organization";
    positive p: City type "city" sim =;
    negative n: City type "city" sim =;
    edge e0 -[worksAt]-> a0;
    edge a0 -[locatedIn]-> p;
    edge e0 -[wasBornIn]-> n;
}
"#;
        let rules = parse_rules(text, &schema, &kb).unwrap();
        assert_eq!(rules[0].aux().len(), 1);
        let round = rules_to_text(&rules, &schema, &kb);
        let back = parse_rules(&round, &schema, &kb).unwrap();
        assert_eq!(rules[0].edges(), back[0].edges());
    }

    #[test]
    fn error_reporting_is_line_accurate() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        for (text, needle) in [
            (
                "rule x {\n  evidence e: Nope type \"city\" sim =;\n}",
                "unknown column",
            ),
            (
                "rule x {\n  evidence e: Name type \"no-such-class\" sim =;\n}",
                "unknown class",
            ),
            (
                "rule x {\n  evidence e: Name type \"city\" sim LEV,3;\n}",
                "invalid sim spec",
            ),
            ("rule x {\n  bogus;\n}", "expected `evidence"),
            ("rule x {", "end of input"),
        ] {
            let e = parse_rules(text, &schema, &kb).unwrap_err();
            assert!(
                e.message.contains(needle),
                "text {text:?}: expected `{needle}` in `{e}`"
            );
        }
    }

    #[test]
    fn unknown_edge_alias_and_rel() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let base = r#"
rule x {
    evidence e0: Name type "Nobel laureates in Chemistry" sim =;
    positive p: City type "city" sim =;
    negative n: City type "city" sim =;
"#;
        let bad_alias = format!("{base}    edge zz -[worksAt]-> p;\n}}");
        let e = parse_rules(&bad_alias, &schema, &kb).unwrap_err();
        assert!(e.message.contains("unknown alias"), "{e}");

        let bad_rel = format!("{base}    edge e0 -[noSuchRel]-> p;\n}}");
        let e = parse_rules(&bad_rel, &schema, &kb).unwrap_err();
        assert!(e.message.contains("unknown relationship"), "{e}");
    }

    #[test]
    fn invalid_rule_structure_is_reported() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        // Positive and negative on different columns.
        let text = r#"
rule x {
    evidence e0: Name type "Nobel laureates in Chemistry" sim =;
    positive p: City type "city" sim =;
    negative n: Country type "country" sim =;
    edge e0 -[worksAt]-> p;
    edge e0 -[wasBornIn]-> n;
}
"#;
        let e = parse_rules(text, &schema, &kb).unwrap_err();
        assert!(e.message.contains("invalid rule"), "{e}");
    }

    #[test]
    fn parser_never_panics_on_junk() {
        use proptest::test_runner::{Config, TestRunner};
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let mut runner = TestRunner::new(Config::with_cases(256));
        runner
            .run(&"\\PC{0,120}", |text| {
                // Must return an error or rules, never panic.
                let _ = parse_rules(&text, &schema, &kb);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn multiple_rules_in_one_file() {
        let kb = nobel_mini_kb();
        let schema = nobel_schema();
        let rules = figure4_rules(&kb);
        let text = rules_to_text(&rules, &schema, &kb);
        let back = parse_rules(&text, &schema, &kb).unwrap();
        assert_eq!(back.len(), 4);
    }
}
