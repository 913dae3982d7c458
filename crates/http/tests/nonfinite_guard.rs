//! No non-finite score reaches a caller.
//!
//! The zero-copy `.odz` load validates geometry and the small module
//! weights but deliberately does not scan the embedding tables (that would
//! fault in every page). A corrupted payload row therefore loads — and can
//! score NaN. The engine's scatter catches it: the affected request
//! resolves `ServeError::NonFiniteScore` (counted in
//! `od_engine_nonfinite_scores_total`), the HTTP tier answers 500 naming
//! the trace id, and every other user keeps scoring bit-exactly.
//!
//! The poison is one `+∞` in a user row of a single-task (STL−G)
//! artifact. A NaN would not do: ReLU is `f32::max(x, 0)`, which drops
//! NaN, and a softmax over NaN logits falls back to uniform weights, so a
//! NaN row scores a finite (meaningless) 0.5. An infinity survives one
//! ReLU as `+∞` and meets tower weights of both signs, so the logit is
//! `∞ − ∞` = NaN. (In the joint MMoE head the expert mix absorbs even
//! that; the guard is the backstop for whatever does get through.)

use od_hsg::UserId;
use od_http::{Featurizer, Server, ServerConfig};
use od_obs::trace::TraceConfig;
use od_retrieval::{RetrievalConfig, ScoredPair, Tier};
use od_serve::loadgen::http_request;
use od_serve::{score_all, Engine, EngineConfig, Funnel, FunnelConfig, ServeError, Submit};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

struct Fixture {
    /// The mmapped artifact with `+∞` in one origin-user row.
    poisoned: Arc<FrozenOdNet>,
    /// Groups of distinct users; `groups[0]` belongs to the poisoned user.
    groups: Vec<GroupInput>,
    /// Scores of every group on the pristine artifact (the oracle).
    oracle: Vec<Vec<(f32, f32)>>,
}

fn field<'a>(c: &'a serde::Content, key: &str) -> &'a serde::Content {
    &c.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .unwrap_or_else(|| panic!("meta has no {key:?}"))
        .1
}

fn as_usize(c: &serde::Content) -> usize {
    match c {
        serde::Content::U64(v) => *v as usize,
        other => panic!("expected an integer, got {other:?}"),
    }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        let pristine = OdNetModel::new(
            Variant::StlG,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            None,
        )
        .freeze();
        let mut groups: Vec<GroupInput> = Vec::new();
        for g in FeatureExtractor::new(6, 4).groups_from_samples(&ds, &ds.train) {
            if groups.len() < 6 && groups.iter().all(|h| h.user != g.user) {
                groups.push(g);
            }
        }
        assert!(groups.len() >= 3, "fixture needs several users");
        let oracle = score_all(&pristine, &groups);

        // Save, then overwrite the first entry of the poisoned user's
        // origin-user row in the payload (leaving the table checksum
        // stale: only the audited owned read would notice).
        let path = std::env::temp_dir().join(format!("odnet_inf_{}.odz", std::process::id()));
        pristine.save_bin(&path).expect("save .odz");
        let mut bytes = std::fs::read(&path).expect("read .odz");
        let meta_offset = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        let meta: serde::Content =
            serde_json::from_str(std::str::from_utf8(&bytes[meta_offset..]).unwrap()).unwrap();
        let serde::Content::Seq(tables) = field(&meta, "tables") else {
            panic!("table directory is a list");
        };
        let users = tables
            .iter()
            .find(|t| matches!(field(t, "name"), serde::Content::Str(n) if n == "origin.users"))
            .expect("origin.users table");
        let (offset, cols) = (
            as_usize(field(users, "offset")),
            as_usize(field(users, "cols")),
        );
        let row = offset + groups[0].user.index() * cols * 4;
        bytes[row..row + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write poisoned .odz");
        let poisoned = FrozenOdNet::load_bin_mmap(&path).expect("shallow load accepts the file");
        // Unlinking keeps the mapping valid on unix; no temp litter.
        let _ = std::fs::remove_file(&path);
        Fixture {
            poisoned: Arc::new(poisoned),
            groups,
            oracle,
        }
    })
}

fn bits(scores: &[(f32, f32)]) -> Vec<(u32, u32)> {
    scores
        .iter()
        .map(|(o, d)| (o.to_bits(), d.to_bits()))
        .collect()
}

#[test]
fn engine_withholds_nonfinite_scores_as_a_typed_error() {
    let fix = fixture();
    let engine = Engine::new(
        Arc::clone(&fix.poisoned),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let score = |g: &GroupInput| match engine.submit(g.clone()) {
        Submit::Accepted(ticket) => ticket.wait(),
        _ => panic!("valid group must be accepted"),
    };
    assert_eq!(
        score(&fix.groups[0]),
        Err(ServeError::NonFiniteScore { candidate: 0 })
    );
    for (g, want) in fix.groups.iter().zip(&fix.oracle).skip(1) {
        let got = score(g).expect("healthy user scores");
        assert_eq!(bits(&got), bits(want), "user {:?}", g.user);
    }
    let stats = engine.stats();
    assert_eq!(stats.nonfinite_scores, 1);
    assert_eq!(stats.completed, fix.groups.len() as u64 - 1);
}

#[test]
fn http_answers_500_with_the_trace_id_never_a_nan_body() {
    let fix = fixture();
    od_obs::trace::global().enable(TraceConfig {
        slow_ns: 0,
        sample_every: 1,
    });
    let funnel = Arc::new(Funnel::new(
        Arc::clone(&fix.poisoned),
        0xBAD,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        FunnelConfig {
            retrieval: RetrievalConfig::default(),
            tier: Tier::Exact,
            recall_probe_every: 1,
        },
    ));
    let template = fix.groups[1].clone();
    let featurizer: Featurizer = Arc::new(move |_: UserId, _: &[ScoredPair]| template.clone());
    let server = Server::start(
        vec![funnel],
        featurizer,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("bind http server");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let post = |conn: &mut TcpStream, g: &GroupInput| {
        let body = serde_json::to_string(g).expect("group serializes");
        http_request(
            conn,
            "POST",
            "/v1/score",
            &[("Content-Type", "application/json")],
            Some(body.as_bytes()),
        )
        .expect("score request answered")
    };

    let resp = post(&mut conn, &fix.groups[0]);
    let body = String::from_utf8_lossy(&resp.body).to_string();
    assert_eq!(resp.status, 500, "{body}");
    assert!(body.contains("non-finite score"), "{body}");
    assert!(
        body.contains("(trace "),
        "500 body must name the trace: {body}"
    );
    assert!(!body.contains("NaN"), "{body}");

    for (g, want) in fix.groups.iter().zip(&fix.oracle).skip(1) {
        let resp = post(&mut conn, g);
        assert_eq!(resp.status, 200);
        let wire: od_http::wire::ScoreResponse =
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(bits(&wire.scores), bits(want), "user {:?}", g.user);
    }

    let metrics = http_request(&mut conn, "GET", "/metrics", &[], None).expect("metrics");
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    let count: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("od_engine_nonfinite_scores_total "))
        .expect("counter exported")
        .trim()
        .parse()
        .expect("integer counter");
    assert!(count >= 1, "{text}");
    drop(conn);
    server.shutdown();
}
