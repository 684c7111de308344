//! `LineIndex` against the prefix-scanning line/column rule it replaced: on
//! random sources mixing `\n`, `\r\n`, tabs and multibyte UTF-8, every
//! offset resolves to the same `(line, column)` and the same line range.

use proptest::prelude::*;

use lp_parser::{LineIndex, Span};

/// The counting `Span::line_col` body, kept verbatim as the oracle: the line
/// counts the newlines before `min(start, len)`, the column counts from the
/// last of them to the unclamped `start`.
fn oracle_line_col(start: usize, source: &str) -> (usize, usize) {
    let upto = &source[..start.min(source.len())];
    let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = upto.rfind('\n').map_or(start + 1, |nl| start - nl);
    (line, col)
}

/// The line bounds the diagnostic excerpt used to scan for around a
/// (clamped) offset, without the terminating `\n`.
fn oracle_line_range(start: usize, source: &str) -> std::ops::Range<usize> {
    let start = start.min(source.len());
    let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[line_start..]
        .find('\n')
        .map_or(source.len(), |i| line_start + i);
    line_start..line_end
}

/// Offsets worth probing: every char boundary (0 and `len` included), each
/// newline and the byte just after it, and a few past the end.
fn probe_offsets(source: &str) -> Vec<usize> {
    let len = source.len();
    let mut offsets: Vec<usize> = source.char_indices().map(|(i, _)| i).collect();
    for (i, b) in source.bytes().enumerate() {
        if b == b'\n' {
            offsets.extend([i, i + 1]);
        }
    }
    offsets.extend([0, len, len + 1, len + 7]);
    offsets
}

fn assert_agrees(source: &str) -> Result<(), TestCaseError> {
    let index = LineIndex::new(source);
    for offset in probe_offsets(source) {
        let want = oracle_line_col(offset, source);
        prop_assert_eq!(
            index.line_col(offset),
            want,
            "offset {} of {:?}",
            offset,
            source
        );
        prop_assert_eq!(
            Span::new(offset, offset + 1).line_col(source),
            want,
            "Span::line_col at {} of {:?}",
            offset,
            source
        );
        prop_assert_eq!(
            index.line_range(offset),
            oracle_line_range(offset, source),
            "line range at {} of {:?}",
            offset,
            source
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn line_index_matches_the_counting_oracle(
        source in proptest::collection::vec(
            prop_oneof![
                Just("\n".to_string()),
                Just("\r\n".to_string()),
                Just("\t".to_string()),
                Just("é".to_string()),
                Just("日本".to_string()),
                Just("🦀".to_string()),
                "[a-z ]{1,4}",
                "\\PC{1,3}",
            ],
            0..40,
        ).prop_map(|pieces| pieces.concat())
    ) {
        assert_agrees(&source)?;
    }
}

#[test]
fn edge_sources_match_the_counting_oracle() {
    for source in ["", "\n", "\n\n", "\r\n", "abc", "abc\n", "\tλ\r\n日本\n🦀"] {
        if let Err(e) = assert_agrees(source) {
            panic!("{source:?}: {e}");
        }
    }
}
