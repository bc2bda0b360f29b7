//! The four workloads' request streams, generated whole from `--seed`
//! before any clock starts.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stack::Reference;

/// The four workloads of `../BENCHMARK.json`, plus the closed loop over the
/// session mix that `calibrate` sizes the rate rungs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SessionOpen,
    ClickHeavyClosed,
    QuestionJsonClosed,
    SessionOnline,
    SessionClosed,
}

impl Workload {
    /// The workloads the contract lists, in its order.
    pub const LISTED: [Workload; 4] = [
        Workload::SessionOpen,
        Workload::ClickHeavyClosed,
        Workload::QuestionJsonClosed,
        Workload::SessionOnline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionOpen => "session_open",
            Workload::ClickHeavyClosed => "click_heavy_closed",
            Workload::QuestionJsonClosed => "question_json_closed",
            Workload::SessionOnline => "session_online",
            Workload::SessionClosed => "session_closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::LISTED.into_iter().chain([Workload::SessionClosed]).find(|w| w.name() == name)
    }

    /// Whether requests go out on a schedule (else: as replies come back).
    pub fn is_open(self) -> bool {
        matches!(self, Workload::SessionOpen | Workload::SessionOnline)
    }

    /// Whether the workload speaks JSON over HTTP (else: binary frames).
    pub fn speaks_json(self) -> bool {
        self == Workload::QuestionJsonClosed
    }

    /// Whether the learning loop runs beside the stack.
    pub fn is_online(self) -> bool {
        self == Workload::SessionOnline
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Share of sessions that open with a typed question; the rest open on the
/// tenant's cold-start tags.
const QUESTION_OPEN_SHARE: f64 = 0.8;
/// Sessions in progress at once in the session stream: enough that one
/// user's requests are spread out among other users', as arrivals are.
const ACTIVE_SESSIONS: usize = 64;
/// `click_heavy_closed` draws histories of this many clicks (the model clips
/// its context itself) from this many of the largest tenant pools.
const HEAVY_CLICKS: std::ops::RangeInclusive<usize> = 8..=24;
const HEAVY_TENANTS: usize = 4;
/// A response shows this many tags; a history must leave that many unclicked.
const TAGS_PER_RESPONSE: usize = 5;

/// What a request asks for; decides the route and the oracle call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Question,
    ColdStart,
    Click,
}

/// One request, as the wire carries it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    pub tenant: usize,
    pub question: Option<String>,
    pub clicks: Vec<usize>,
}

impl Req {
    pub fn kind(&self) -> Kind {
        match (&self.question, self.clicks.is_empty()) {
            (Some(_), _) => Kind::Question,
            (None, true) => Kind::ColdStart,
            (None, false) => Kind::Click,
        }
    }

    /// Canonical bytes of the request — what "same seed, same stream" is
    /// stated over.
    #[cfg(test)]
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.tenant as u64).to_le_bytes());
        match &self.question {
            Some(q) => {
                out.push(1);
                out.extend_from_slice(&(q.len() as u64).to_le_bytes());
                out.extend_from_slice(q.as_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.clicks.len() as u64).to_le_bytes());
        for &c in &self.clicks {
            out.extend_from_slice(&(c as u64).to_le_bytes());
        }
    }
}

/// The whole stream as bytes (see [`Req::write_bytes`]).
#[cfg(test)]
pub fn stream_bytes(reqs: &[Req]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        r.write_bytes(&mut out);
    }
    out
}

/// `n` requests of `workload`'s shape. The same `(workload, seed, n)` always
/// gives the same list.
pub fn generate(reference: &Reference, workload: Workload, seed: u64, n: usize) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    match workload {
        Workload::SessionOpen | Workload::SessionOnline | Workload::SessionClosed => {
            sessions(reference, &mut rng, n)
        }
        Workload::ClickHeavyClosed => heavy_clicks(reference, &mut rng, n),
        Workload::QuestionJsonClosed => questions(reference, &mut rng, n),
    }
}

/// A session's opening request: its intent paraphrased, or a cold start.
fn opening(reference: &Reference, session: usize, rng: &mut StdRng) -> Req {
    let s = &reference.world.sessions[session];
    let question = rng
        .gen_bool(QUESTION_OPEN_SHARE)
        .then(|| reference.world.paraphrase_question(s.intent_rq, rng));
    Req { tenant: s.tenant, question, clicks: Vec::new() }
}

/// The paper's session shape, replayed from the world's own click log
/// (tenants and tags are Zipf there): an opening, then the click trail one
/// click longer each request. Sessions interleave; popular trails recur.
fn sessions(reference: &Reference, rng: &mut StdRng, n: usize) -> Vec<Req> {
    let world = &reference.world;
    let draw = |rng: &mut StdRng| (rng.gen_range(0..world.sessions.len()), 0usize);
    let mut active: Vec<(usize, usize)> = (0..ACTIVE_SESSIONS).map(|_| draw(rng)).collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let slot = rng.gen_range(0..active.len());
        let (session, step) = active[slot];
        let s = &world.sessions[session];
        out.push(if step == 0 {
            opening(reference, session, rng)
        } else {
            Req { tenant: s.tenant, question: None, clicks: s.clicks[..step].to_vec() }
        });
        active[slot] = if step < s.clicks.len() { (session, step + 1) } else { draw(rng) };
    }
    out
}

/// Clicks only: long histories that never repeat, against the largest pools,
/// so every request costs a full forward and no cache can answer it.
fn heavy_clicks(reference: &Reference, rng: &mut StdRng, n: usize) -> Vec<Req> {
    let mut tenants: Vec<usize> = (0..reference.pools.len()).collect();
    tenants.sort_by_key(|&t| (std::cmp::Reverse(reference.pools[t].len()), t));
    tenants.truncate(HEAVY_TENANTS);
    let mut seen: HashSet<(usize, Vec<usize>)> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    // A world too small to hold `n` distinct histories (the smoke mode's)
    // repeats some instead of looping for ever.
    let mut rejected_in_a_row = 0;
    while out.len() < n {
        let tenant = *tenants.choose(rng).expect("the world has tenants");
        let mut pool = reference.pools[tenant].clone();
        let longest = pool.len().saturating_sub(TAGS_PER_RESPONSE).clamp(1, *HEAVY_CLICKS.end());
        let len = rng.gen_range((*HEAVY_CLICKS.start()).min(longest)..=longest);
        pool.shuffle(rng);
        pool.truncate(len);
        if seen.insert((tenant, pool.clone())) || rejected_in_a_row >= 64 {
            out.push(Req { tenant, question: None, clicks: pool });
            rejected_in_a_row = 0;
        } else {
            rejected_in_a_row += 1;
        }
    }
    out
}

/// Session openings only: no click, so no transformer forward at all.
fn questions(reference: &Reference, rng: &mut StdRng, n: usize) -> Vec<Req> {
    (0..n)
        .map(|_| {
            let session = rng.gen_range(0..reference.world.sessions.len());
            opening(reference, session, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn reference() -> &'static Reference {
        static REF: OnceLock<Reference> = OnceLock::new();
        REF.get_or_init(|| Reference::build(true))
    }

    #[test]
    fn names_parse_back() {
        for w in Workload::LISTED.into_iter().chain([Workload::SessionClosed]) {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("session"), None);
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        for w in Workload::LISTED {
            let a = stream_bytes(&generate(reference(), w, 11, 500));
            let b = stream_bytes(&generate(reference(), w, 11, 500));
            let c = stream_bytes(&generate(reference(), w, 12, 500));
            assert_eq!(a, b, "{w}: same seed must give the same stream");
            assert_ne!(a, c, "{w}: another seed must give another stream");
        }
    }

    #[test]
    fn session_stream_grows_each_trail_by_one_click() {
        let reqs = generate(reference(), Workload::SessionOpen, 3, 2_000);
        let clicks: Vec<&Req> = reqs.iter().filter(|r| r.kind() == Kind::Click).collect();
        assert!(!clicks.is_empty());
        assert!(reqs.iter().any(|r| r.kind() == Kind::Question));
        assert!(reqs.iter().any(|r| r.kind() == Kind::ColdStart));
        // Every trail longer than one click extends a trail sent earlier.
        let mut seen: HashSet<(usize, &[usize])> = HashSet::new();
        for r in clicks {
            if r.clicks.len() > 1 {
                let prefix = &r.clicks[..r.clicks.len() - 1];
                assert!(seen.contains(&(r.tenant, prefix)), "trail without its prefix: {r:?}");
            }
            seen.insert((r.tenant, &r.clicks));
        }
    }

    #[test]
    fn heavy_clicks_never_repeat_and_stay_in_pool() {
        let reference = reference();
        let reqs = generate(reference, Workload::ClickHeavyClosed, 5, 3_000);
        let distinct: HashSet<&Req> = reqs.iter().collect();
        assert_eq!(distinct.len(), reqs.len());
        for r in &reqs {
            assert_eq!(r.kind(), Kind::Click);
            let pool = &reference.pools[r.tenant];
            assert!(r.clicks.iter().all(|c| pool.contains(c)));
            assert!(pool.len() - r.clicks.len() >= TAGS_PER_RESPONSE.min(pool.len() - 1));
        }
    }

    #[test]
    fn question_stream_has_no_clicks() {
        let reqs = generate(reference(), Workload::QuestionJsonClosed, 9, 1_000);
        assert!(reqs.iter().all(|r| r.clicks.is_empty()));
        let asked = reqs.iter().filter(|r| r.kind() == Kind::Question).count() as f64;
        assert!((0.7..0.9).contains(&(asked / reqs.len() as f64)));
    }
}
