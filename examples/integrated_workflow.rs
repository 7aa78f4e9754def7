//! End-to-end integrated workflow: NDJSON data on disk, an optimized
//! pipeline, persisted provenance, and a textual provenance question —
//! the "fully integrated" experience the paper argues for (Sec. 1), plus
//! the front-end pieces it lists as future work.
//!
//! ```text
//! cargo run --example integrated_workflow
//! ```

use pebble::core::{run_captured, TreePattern};
use pebble::dataflow::{io, optimize, Context, ExecConfig, Expr, NamedExpr, ProgramBuilder};
use pebble::serve::{persist_file, ProvStore};
use pebble::workloads::twitter::{generate, TwitterConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("pebble-workflow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. Land raw data on disk, as a real deployment would.
    let tweets_path = dir.join("tweets.ndjson");
    let tweets = generate(&TwitterConfig::sized(500));
    io::write_ndjson(&tweets_path, &tweets).expect("write dataset");
    println!("wrote {} tweets to {}", tweets.len(), tweets_path.display());

    // 2. Read it back into a context and build a pipeline.
    let mut ctx = Context::new();
    let n = ctx
        .register_file("tweets", &tweets_path)
        .expect("read dataset");
    println!("registered {n} tweets");

    let mut b = ProgramBuilder::new();
    let read = b.read("tweets");
    let flat = b.flatten(read, "entities.user_mentions", "m_user");
    let shaped = b.select(
        flat,
        vec![
            NamedExpr::aliased("mentioned", "m_user.id_str"),
            NamedExpr::path("text"),
            NamedExpr::path("retweet_count"),
        ],
    );
    let hot = b.filter(shaped, Expr::col("retweet_count").gt(Expr::lit(100i64)));
    let program = b.build(hot);

    // 3. Let the optimizer push the filter towards the source.
    let (optimized, stats) = optimize(&program);
    println!(
        "optimizer: {} rewrites (select pushdown: {}, flatten pushdown: {})",
        stats.total(),
        stats.pushed_through_select,
        stats.pushed_through_flatten
    );

    // 4. Execute with capture; write result and provenance to disk.
    let run = run_captured(&optimized, &ctx, ExecConfig::default()).expect("pipeline runs");
    let result_path = dir.join("result.ndjson");
    run.output.write_ndjson(&result_path).expect("write result");
    let prov_path = dir.join("provenance.pbsg");
    let prov_bytes = persist_file(&run, &prov_path).expect("write provenance");
    println!(
        "result: {} rows → {}; provenance segment: {} bytes → {}",
        run.output.rows.len(),
        result_path.display(),
        prov_bytes,
        prov_path.display()
    );

    // 5. Later: cold-open the segment (rows, pebbles and the prepared
    //    index come back with it) and answer a textual provenance question.
    let store = ProvStore::open(&prov_path).expect("open provenance");
    let query =
        TreePattern::parse(r#"mentioned = "u7", retweet_count > 100"#).expect("query parses");
    let matched = query.match_rows(store.rows());
    println!("\nquery matched {} result rows", matched.entries.len());
    for source in store.backtrace(matched).unwrap() {
        println!(
            "source `{}`: {} contributing input tweets",
            source.source,
            source.entries.len()
        );
        for entry in source.entries.iter().take(2) {
            println!("  tweet #{}:", entry.index);
            for line in entry.tree.to_string().lines() {
                println!("    {line}");
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
