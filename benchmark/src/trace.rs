//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written out when the run ends.

use std::collections::BTreeMap;
#[cfg(test)]
use std::io::BufRead;
use std::io::{self, BufWriter, Write};
use std::path::Path;

#[cfg(test)]
use crate::json;
use crate::json::Json;
use crate::stats;

/// One timed interval. `parent` is the index of the span that caused this
/// one; spans of one request share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index, for children to name as parent.
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, req });
        self.spans.len() - 1
    }

    /// Median duration per span name, in nanoseconds.
    pub fn median_ns_by_name(&self) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(&s.name).or_default().push(s.duration_ns());
        }
        by_name
            .into_iter()
            .map(|(name, mut d)| (name.to_string(), stats::quantile(&mut d, 0.5) as f64))
            .collect()
    }

    /// Median *self* time per span name: each span's duration minus the
    /// durations of the spans naming it as parent, floored at zero (layers
    /// are timed by separate calls, so a child can outlast its parent by
    /// noise).
    pub fn median_self_ns_by_name(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            by_name.entry(&s.name).or_default().push(s.duration_ns().saturating_sub(*children));
        }
        by_name
            .into_iter()
            .map(|(name, mut d)| (name.to_string(), stats::quantile(&mut d, 0.5) as f64))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::str(&*s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("req", Json::Num(s.req as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }

    /// Reads a span file back.
    #[cfg(test)]
    pub fn read_jsonl(path: &Path) -> io::Result<SpanLog> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut log = SpanLog::default();
        for line in io::BufReader::new(std::fs::File::open(path)?).lines() {
            let v = json::parse(&line?).map_err(bad)?;
            let num = |k: &str| {
                v.get(k).and_then(Json::as_f64).ok_or_else(|| bad(format!("span lacks `{k}`")))
            };
            log.spans.push(Span {
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("span lacks `name`".into()))?
                    .to_string(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: v.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                req: num("req")? as u64,
            });
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanLog {
        let mut log = SpanLog::default();
        for req in 0..3u64 {
            let base = req * 1_000;
            let root = log.record("wire", base, base + 100 + req, None, req);
            let mid = log.record("front", base + 10, base + 70, Some(root), req);
            log.record("model", base + 20, base + 50, Some(mid), req);
            log.record("codec", base + 70, base + 80, Some(root), req);
        }
        log
    }

    #[test]
    fn self_time_is_own_minus_children() {
        let log = sample();
        let own = log.median_ns_by_name();
        let selfs = log.median_self_ns_by_name();
        assert_eq!(own["wire"], 101.0);
        assert_eq!(own["front"], 60.0);
        // wire: 100+req - (60 + 10); front: 60 - 30; leaves keep everything.
        assert_eq!(selfs["wire"], 31.0);
        assert_eq!(selfs["front"], 30.0);
        assert_eq!(selfs["model"], 30.0);
        assert_eq!(selfs["codec"], 10.0);
        // Self times of a tree add back up to the root.
        let total: f64 = selfs.values().sum();
        assert_eq!(total, own["wire"]);
    }

    #[test]
    fn a_child_outlasting_its_parent_floors_at_zero() {
        let mut log = SpanLog::default();
        let p = log.record("parent", 0, 10, None, 0);
        log.record("child", 0, 25, Some(p), 0);
        assert_eq!(log.median_self_ns_by_name()["parent"], 0.0);
    }

    #[test]
    fn span_file_round_trips() {
        let log = sample();
        let path = crate::stack::out_dir().join(format!("spans-test-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let back = SpanLog::read_jsonl(&path).unwrap();
        assert_eq!(back.spans, log.spans);
        std::fs::remove_file(&path).unwrap();
    }
}
