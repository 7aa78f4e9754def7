//! Persist → cold-open → query equality against the in-memory referee,
//! across the executor matrix and split association chunks, plus a live
//! query-service smoke.

use std::sync::Arc;

use pebble_core::{
    backtrace, canonical_provenance, run_captured, Backtrace, CapturedRun, OperatorProvenance,
    ProvAssoc, ProvTree, UnaryRuns,
};
use pebble_dataflow::{Context, ExecConfig, NamedExpr, ProgramBuilder};
use pebble_nested::encode::get_varint;
use pebble_nested::{DataItem, Path, Value};
use pebble_serve::segment::{
    chunk_table, frame_block, segment_header, BlockIter, BLOCK_ASSOC, BLOCK_END, BLOCK_INDEX,
};
use pebble_serve::{persist, persist_file, query, ProvStore, ServeConfig, Server};
use pebble_workloads::{
    dblp_context, dblp_scenarios, running_example, twitter_context, twitter_scenarios,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn whole_item(run: &CapturedRun, idx: usize) -> Backtrace {
    let row = &run.output.rows[idx];
    let paths = Path::path_set(&row.item);
    Backtrace {
        entries: vec![(row.id, ProvTree::from_paths(paths.iter()))],
    }
}

/// Asserts the cold-opened store is indistinguishable from the in-memory
/// run: decoded tables bit-identical, and every sampled backtrace answer
/// byte-identical.
fn assert_store_equals_memory(run: &CapturedRun, store: &ProvStore, what: &str) {
    assert_eq!(store.ops(), run.ops.as_slice(), "{what}: operator tables");
    assert_eq!(store.rows(), run.output.rows.as_slice(), "{what}: rows");
    assert_eq!(
        store.op_schemas(),
        run.output.op_schemas.as_slice(),
        "{what}: schemas"
    );
    let n = run.output.rows.len();
    for idx in (0..n).step_by((n / 5).max(1)) {
        let mem = backtrace(run, whole_item(run, idx)).unwrap();
        let stored = store.backtrace(whole_item(run, idx)).unwrap();
        assert_eq!(mem, stored, "{what}: backtrace of row {idx}");
    }
}

#[test]
fn store_matches_memory_across_executor_matrix() {
    let ctx = dblp_context(120);
    for scenario in dblp_scenarios() {
        for (parts, workers) in [(1, 1), (2, 2), (7, 7)] {
            let config = ExecConfig::with_partitions(parts)
                .workers(workers)
                .morsel_rows(if workers > 1 { 7 } else { 0 });
            let run = run_captured(&scenario.program, &ctx, config).unwrap();
            let bytes = persist(&run);
            let store = ProvStore::from_bytes(&bytes).unwrap();
            let what = format!("{} (p={parts}, w={workers})", scenario.name);
            assert_store_equals_memory(&run, &store, &what);

            // The scenario's own tree-pattern question, answered from
            // both sides.
            let mem = backtrace(&run, scenario.query.match_rows(&run.output.rows)).unwrap();
            let stored = store
                .backtrace(scenario.query.match_rows(store.rows()))
                .unwrap();
            assert_eq!(mem, stored, "{what}: pattern backtrace");
        }
    }
}

/// Sattolo's shuffle of one association table's entries: a random cyclic
/// permutation, so every entry of a table with two or more moves.
fn shuffle<T>(entries: &mut [T], rng: &mut StdRng) {
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..i));
    }
}

/// How many `INDEX` entries of a segment are not the identity.
fn permuted_index_entries(segment: &[u8]) -> usize {
    let mut blocks = BlockIter::parse(segment).unwrap();
    let payload = loop {
        match blocks.next_block().unwrap() {
            Some((BLOCK_INDEX, payload)) => break payload,
            Some(_) => {}
            None => panic!("segment without an INDEX block"),
        }
    };
    let buf = &mut &payload[..];
    let ops = get_varint(buf).unwrap();
    (0..ops)
        .filter(|_| {
            let len = get_varint(buf).unwrap();
            (0..len).filter(|&j| get_varint(buf).unwrap() != j).count() > 0
        })
        .count()
}

/// Entry order means nothing in a non-`read` association table, and the
/// engine writes every table ascending by output id, so only shuffled
/// tables take the probes through a permutation. Over the ten scenarios,
/// a run with every such table shuffled answers its scenario question and
/// whole-row questions as the engine's own run does: in memory, and again
/// after persist → open, from a segment whose `INDEX` carries the
/// permutations.
#[test]
fn shuffled_tables_answer_like_the_engines() {
    let runs = twitter_scenarios()
        .into_iter()
        .map(|s| (s, twitter_context(120)))
        .chain(dblp_scenarios().into_iter().map(|s| (s, dblp_context(120))));
    let mut rng = StdRng::seed_from_u64(0x5_4ff1e);
    let (mut scenarios, mut traced) = (0, 0);
    for (scenario, ctx) in runs {
        for parts in [1, 3] {
            let what = format!("{} p={parts}", scenario.name);
            let config = ExecConfig::with_partitions(parts);
            let run = run_captured(&scenario.program, &ctx, config).unwrap();
            let n = run.output.rows.len();
            let questions: Vec<Backtrace> =
                std::iter::once(scenario.query.match_rows(&run.output.rows))
                    .chain(
                        (0..n)
                            .step_by((n / 4).max(1))
                            .map(|idx| whole_item(&run, idx)),
                    )
                    .collect();
            let expected: Vec<_> = questions
                .iter()
                .map(|q| canonical_provenance(&backtrace(&run, q.clone()).unwrap()))
                .collect();
            traced += expected.iter().map(Vec::len).sum::<usize>();

            let mut shuffled = run;
            let mut moved = 0;
            for op in &mut shuffled.ops {
                let read = matches!(op.assoc, ProvAssoc::Read(_));
                moved += usize::from(!read && op.assoc.len() > 1);
                match &mut op.assoc {
                    ProvAssoc::Read(_) => {}
                    ProvAssoc::Unary(v) => {
                        let mut pairs: Vec<_> = v.pairs().collect();
                        shuffle(&mut pairs, &mut rng);
                        *v = UnaryRuns::from_pairs(pairs);
                    }
                    ProvAssoc::Binary(v) => shuffle(v, &mut rng),
                    ProvAssoc::Flatten(v) => shuffle(v, &mut rng),
                    ProvAssoc::Agg(v) => shuffle(v, &mut rng),
                }
            }
            let bytes = persist(&shuffled);
            assert_eq!(permuted_index_entries(&bytes), moved, "{what}: INDEX");
            let store = ProvStore::from_bytes(&bytes).unwrap();
            for (i, (q, want)) in questions.into_iter().zip(&expected).enumerate() {
                let mem = backtrace(&shuffled, q.clone()).unwrap();
                assert_eq!(
                    canonical_provenance(&mem),
                    *want,
                    "{what}: question {i} in memory"
                );
                let stored = store.backtrace(q).unwrap();
                assert_eq!(
                    canonical_provenance(&stored),
                    *want,
                    "{what}: question {i} stored"
                );
            }
        }
        scenarios += 1;
    }
    assert_eq!(scenarios, 10);
    assert!(traced > 900, "{traced} traced entries");
}

/// Cuts `n` entries into 1–4 consecutive pieces at seeded points; pieces
/// may be empty.
fn cut_points(n: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut cuts: Vec<usize> = (1..rng.gen_range(1..=4usize))
        .map(|_| rng.gen_range(0..=n))
        .collect();
    cuts.sort_unstable();
    cuts.push(n);
    let mut start = 0;
    cuts.into_iter()
        .map(|end| {
            let piece = (start, end);
            start = end;
            piece
        })
        .collect()
}

/// The entries `a..b` of an association table, as a table of its kind.
fn piece(assoc: &ProvAssoc, (a, b): (usize, usize)) -> ProvAssoc {
    match assoc {
        ProvAssoc::Read(v) => ProvAssoc::Read(v[a..b].to_vec()),
        ProvAssoc::Unary(v) => ProvAssoc::Unary(UnaryRuns::from_pairs(v.pairs().take(b).skip(a))),
        ProvAssoc::Binary(v) => ProvAssoc::Binary(v[a..b].to_vec()),
        ProvAssoc::Flatten(v) => ProvAssoc::Flatten(v[a..b].to_vec()),
        ProvAssoc::Agg(v) => ProvAssoc::Agg(v[a..b].to_vec()),
    }
}

/// A segment is input from outside the program, so the reader accepts an
/// operator's table as several consecutive `ASSOC` chunks, though `persist`
/// writes one. Over the ten scenarios, every table cut into 1–4 pieces
/// at seeded points and framed one chunk per piece opens to the same
/// tables, rows and answers as the one-chunk segment; a unary table's
/// runs coalesce again across its chunks.
#[test]
fn split_assoc_chunks_decode_like_one_chunk() {
    let runs = twitter_scenarios()
        .into_iter()
        .map(|s| (s, twitter_context(120)))
        .chain(dblp_scenarios().into_iter().map(|s| (s, dblp_context(120))));
    let mut rng = StdRng::seed_from_u64(0xc4_0c5);
    let kinds = ["read", "unary", "binary", "flatten", "aggregation"];
    let mut split_tables = [0usize; 5];
    for (scenario, ctx) in runs {
        for parts in [1, 3] {
            let what = format!("{} p={parts}", scenario.name);
            let run =
                run_captured(&scenario.program, &ctx, ExecConfig::with_partitions(parts)).unwrap();
            let one_chunk = persist(&run);

            let mut split = segment_header();
            let mut blocks = BlockIter::parse(&one_chunk).unwrap();
            let mut assoc_written = false;
            while let Some((ty, payload)) = blocks.next_block().unwrap() {
                if ty != BLOCK_ASSOC {
                    frame_block(&mut split, ty, payload);
                    continue;
                }
                if std::mem::replace(&mut assoc_written, true) {
                    continue;
                }
                for op in &run.ops {
                    let pieces = cut_points(op.assoc.len(), &mut rng);
                    let kind = match op.assoc {
                        ProvAssoc::Read(_) => 0,
                        ProvAssoc::Unary(_) => 1,
                        ProvAssoc::Binary(_) => 2,
                        ProvAssoc::Flatten(_) => 3,
                        ProvAssoc::Agg(_) => 4,
                    };
                    split_tables[kind] +=
                        usize::from(pieces.iter().filter(|(a, b)| a < b).count() > 1);
                    for range in pieces {
                        let chunk = OperatorProvenance {
                            oid: op.oid,
                            op_type: op.op_type.clone(),
                            inputs: vec![],
                            manipulated: None,
                            assoc: piece(&op.assoc, range),
                        };
                        frame_block(&mut split, BLOCK_ASSOC, &chunk_table(&chunk));
                    }
                }
            }
            frame_block(&mut split, BLOCK_END, &[]);

            let want = ProvStore::from_bytes(&one_chunk).unwrap();
            let got = ProvStore::from_bytes(&split).unwrap();
            assert_eq!(got.ops(), want.ops(), "{what}: operator tables");
            assert_eq!(got.rows(), want.rows(), "{what}: rows");
            for (a, b) in got.ops().iter().zip(want.ops()) {
                if let (ProvAssoc::Unary(x), ProvAssoc::Unary(y)) = (&a.assoc, &b.assoc) {
                    assert_eq!(x.run_count(), y.run_count(), "{what}: op {} runs", b.oid);
                }
            }
            let n = run.output.rows.len();
            let questions = std::iter::once(scenario.query.match_rows(&run.output.rows)).chain(
                (0..n)
                    .step_by((n / 4).max(1))
                    .map(|idx| whole_item(&run, idx)),
            );
            for (i, q) in questions.enumerate() {
                assert_eq!(
                    got.backtrace(q.clone()).unwrap(),
                    want.backtrace(q).unwrap(),
                    "{what}: question {i}"
                );
            }
        }
    }
    let counts: Vec<String> = kinds
        .iter()
        .zip(split_tables)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    println!(
        "tables split into 2+ non-empty chunks: {}",
        counts.join(", ")
    );
    for (kind, n) in kinds.iter().zip(split_tables) {
        assert!(n > 0, "no {kind} table was split across chunks");
    }
}

/// A one-partition `read → select` table is a single run token however many
/// rows it has; a store that persisted one must also open it. (The decoder
/// used to bound a run by the *chunk's* bytes and refused the last run of
/// any table above ~1.25 M rows.)
#[test]
#[cfg_attr(debug_assertions, ignore = "1.4 M rows; runs in the release tier")]
fn long_run_table_persists_and_opens() {
    const N: usize = 1_400_000;
    let mut ctx = Context::new();
    ctx.register(
        "t",
        (0..N as i64)
            .map(|i| DataItem::from_fields([("x", Value::Int(i))]))
            .collect(),
    );
    let mut b = ProgramBuilder::new();
    let r = b.read("t");
    let s = b.select(r, vec![NamedExpr::aliased("y", "x")]);
    let run = run_captured(&b.build(s), &ctx, ExecConfig::with_partitions(1)).unwrap();
    assert_eq!(run.output.rows.len(), N);

    let store = ProvStore::from_bytes(&persist(&run)).expect("a persisted store opens");
    assert_eq!(store.ops(), run.ops.as_slice());
    for idx in [0, N - 1] {
        let mem = backtrace(&run, whole_item(&run, idx)).unwrap();
        let stored = store.backtrace(store.whole_item(idx).unwrap()).unwrap();
        assert_eq!(mem, stored, "backtrace of row {idx}");
        assert_eq!(canonical_provenance(&stored).len(), 1);
    }
}

#[test]
fn persist_file_and_cold_open() {
    let run = run_captured(
        &running_example::program(),
        &running_example::context(),
        ExecConfig::with_partitions(1).workers(1),
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("pebble-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.seg");
    let written = persist_file(&run, &path).unwrap();
    assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);
    let store = ProvStore::open(&path).unwrap();
    assert_eq!(store.on_disk_bytes(), written);
    assert_store_equals_memory(&run, &store, "cold-open from file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_answers_match_local_computation() {
    let run = run_captured(
        &running_example::program(),
        &running_example::context(),
        ExecConfig::with_partitions(1).workers(1),
    )
    .unwrap();
    let store = Arc::new(ProvStore::from_bytes(&persist(&run)).unwrap());
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        debug_panic: false,
        trace_path: None,
    };
    let local = Arc::clone(&store);
    let mut server = Server::start(store, &cfg).unwrap();
    let addr = server.local_addr();

    // BACKTRACE frames carry exactly the canonical triples.
    let frames = query(addr, "BACKTRACE 0").unwrap();
    let triples = canonical_provenance(&local.backtrace(local.whole_item(0).unwrap()).unwrap());
    assert_eq!(frames[0], format!("PROGRESS 0/{}", triples.len()));
    assert_eq!(*frames.last().unwrap(), format!("DONE {}", triples.len()));
    let data: Vec<&String> = frames.iter().filter(|f| f.starts_with("DATA ")).collect();
    assert_eq!(data.len(), triples.len());
    for ((source, index, _), frame) in triples.iter().zip(&data) {
        assert!(
            frame.contains(&format!("\"source\": \"{source}\"")),
            "frame {frame} should name source {source}"
        );
        assert!(frame.contains(&format!("\"index\": {index}")));
    }

    // Heatmap and audit terminate with DONE and stream count-based
    // progress.
    let frames = query(addr, &format!("HEATMAP {}", local.rows().len())).unwrap();
    assert!(frames.iter().any(|f| f.starts_with("PROGRESS ")));
    assert!(frames.last().unwrap().starts_with("DONE "));
    let frames = query(addr, "AUDIT").unwrap();
    assert!(frames.last().unwrap().starts_with("DONE "));

    // Errors are typed frames, not dropped connections.
    let frames = query(addr, "FROB 12").unwrap();
    assert_eq!(
        frames,
        vec!["ERROR backtrace failed: bad request: unknown verb `FROB`".to_string()]
    );
    let frames = query(addr, "BACKTRACE 99999").unwrap();
    assert_eq!(
        frames,
        vec![format!(
            "ERROR backtrace failed: bad request: row index 99999 out of range ({} result rows)",
            local.rows().len()
        )]
    );
    // PANIC is rejected unless debug_panic is configured.
    let frames = query(addr, "PANIC").unwrap();
    assert_eq!(
        frames,
        vec!["ERROR backtrace failed: bad request: unknown verb `PANIC`".to_string()]
    );

    let stats = server.stats();
    assert!(stats.connections >= 6);
    assert!(stats.queries >= 6);
    assert!(stats.errors >= 3);
    assert_eq!(stats.panics_contained, 0);
    server.shutdown();
}
