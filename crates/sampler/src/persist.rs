//! Sample persistence (paper §5.1: "the sample only needs to be created
//! once and can be reused by any user who wants to match their local
//! database with the hidden database").
//!
//! A [`HiddenSample`] is stored as a small line-oriented text file: a
//! header carrying the format version and θ, then one record per line with
//! tab-separated, backslash-escaped cells. No external dependencies, easy
//! to inspect, stable across versions of this crate.

use crate::HiddenSample;
use smartcrawl_hidden::{ExternalId, Retrieved};
// Shared escape grammar and rejection shape — see
// `smartcrawl_store::format` for the one format module every text store
// in the workspace builds on.
use smartcrawl_store::format::{escape, invalid_data as bad, unescape};
use std::io::{BufRead, Write};
use std::path::Path;

const MAGIC: &str = "#smartcrawl-sample v1";

/// Writes a sample to `path`.
pub fn save_sample(path: impl AsRef<Path>, sample: &HiddenSample) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{MAGIC}")?;
    writeln!(f, "theta\t{}", sample.theta)?;
    for r in &sample.records {
        write!(
            f,
            "{}\t{}\t{}",
            r.external_id.0,
            r.fields.len(),
            r.payload.len()
        )?;
        for field in r.fields.iter().chain(r.payload.iter()) {
            write!(f, "\t{}", escape(field))?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// Reads a sample previously written by [`save_sample`].
pub fn load_sample(path: impl AsRef<Path>) -> std::io::Result<HiddenSample> {
    let f = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut lines = f.lines();
    if lines.next().transpose()?.as_deref() != Some(MAGIC) {
        return Err(bad("not a smartcrawl sample file"));
    }
    let theta_line = lines
        .next()
        .transpose()?
        .ok_or_else(|| bad("missing theta"))?;
    let theta: f64 = theta_line
        .strip_prefix("theta\t")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("malformed theta line"))?;
    if !(0.0..=1.0).contains(&theta) {
        return Err(bad("theta out of range"));
    }
    let mut records = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() < 3 {
            return Err(bad("truncated record line"));
        }
        let id: u64 = cells[0].parse().map_err(|_| bad("bad external id"))?;
        let nf: usize = cells[1].parse().map_err(|_| bad("bad field count"))?;
        let np: usize = cells[2].parse().map_err(|_| bad("bad payload count"))?;
        // The counts are outside input: checked, so a crafted count can
        // neither overflow nor wrap into a passing arity check.
        if nf.checked_add(np).and_then(|n| n.checked_add(3)) != Some(cells.len()) {
            return Err(bad("record arity mismatch"));
        }
        let mut texts = Vec::with_capacity(cells.len() - 3);
        for cell in &cells[3..] {
            texts.push(unescape(cell).ok_or_else(|| bad("bad escape sequence"))?);
        }
        let payload = texts.split_off(nf);
        records.push(Retrieved::new(ExternalId(id), texts, payload));
    }
    Ok(HiddenSample { records, theta })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HiddenSample {
        HiddenSample {
            records: vec![
                Retrieved::new(
                    ExternalId(7),
                    vec!["thai\thouse".into(), "line\nbreak".into()],
                    vec!["4.5".into()],
                ),
                Retrieved::new(ExternalId(42), vec!["back\\slash".into()], vec![]),
            ],
            theta: 0.025,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smartcrawl_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let path = tmp("rt");
        let s = sample();
        save_sample(&path, &s).unwrap();
        let loaded = load_sample(&path).unwrap();
        assert_eq!(loaded.theta, s.theta);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].external_id, ExternalId(7));
        assert_eq!(loaded.records[0].fields, s.records[0].fields);
        assert_eq!(loaded.records[0].payload, s.records[0].payload);
        assert_eq!(loaded.records[1].fields, s.records[1].fields);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign");
        std::fs::write(&path, "name,city\nx,y\n").unwrap();
        assert!(load_sample(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_records() {
        let path = tmp("corrupt");
        std::fs::write(
            &path,
            format!("{MAGIC}\ntheta\t0.5\n1\t2\t0\tonly-one-field\n"),
        )
        .unwrap();
        assert!(load_sample(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_counts_that_overflow_the_arity_sum() {
        let path = tmp("overflow");
        std::fs::write(
            &path,
            format!("{MAGIC}\ntheta\t0.5\n1\t18446744073709551615\t1\n"),
        )
        .unwrap();
        let err = load_sample(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "a\tb", "a\nb", "a\\b", "\\t", ""] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None);
    }

    #[test]
    fn empty_sample_round_trips() {
        let path = tmp("empty");
        let s = HiddenSample {
            records: vec![],
            theta: 0.0,
        };
        save_sample(&path, &s).unwrap();
        let loaded = load_sample(&path).unwrap();
        assert!(loaded.records.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
