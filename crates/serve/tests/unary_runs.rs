//! Unary association tables are held as id runs from the capture sink to
//! the probe. These tests hold the run table to the Tab. 6 pair model it
//! replaces: a `Vec<(ItemId, ItemId)>` referee for its contents and probes,
//! the pair-based `ASSOC` chunk encoder for its bytes, and a digest of the
//! segments the pair-based store wrote.

use pebble_core::{
    backtrace_from, run_captured, Backtrace, BacktraceIndex, InputProv, OperatorProvenance,
    ProvAssoc, ProvTree, ProvView, UnaryRuns,
};
use pebble_dataflow::{ExecConfig, ItemId, OpId};
use pebble_nested::encode::{put_signed, put_varint};
use pebble_nested::{DataType, Path};
use pebble_serve::persist;
use pebble_serve::segment::{apply_chunk, chunk_unary};
use pebble_workloads::{dblp_context, dblp_scenarios, twitter_context, twitter_scenarios};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The unary chunk encoder as it was when tables were pairs: maximal runs
/// found over the pairs, one `len · Δin · Δout` token each.
fn chunk_unary_of_pairs(op: OpId, pairs: &[(ItemId, ItemId)]) -> Vec<u8> {
    let mut runs: Vec<(usize, u64)> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let mut len = 1u64;
        while i + (len as usize) < pairs.len() {
            let (pi, po) = pairs[i + len as usize - 1];
            let (ni, no) = pairs[i + len as usize];
            if ni == pi.wrapping_add(1) && no == po.wrapping_add(1) {
                len += 1;
            } else {
                break;
            }
        }
        runs.push((i, len));
        i += len as usize;
    }
    let mut buf = Vec::new();
    put_varint(&mut buf, op as u64);
    buf.push(1);
    put_varint(&mut buf, runs.len() as u64);
    let (mut prev_in, mut prev_out) = (0u64, 0u64);
    for &(start, len) in &runs {
        let (first_in, first_out) = pairs[start];
        put_varint(&mut buf, len);
        put_signed(&mut buf, first_in.wrapping_sub(prev_in) as i64);
        put_signed(&mut buf, first_out.wrapping_sub(prev_out) as i64);
        prev_in = first_in.wrapping_add(len - 1);
        prev_out = first_out.wrapping_add(len - 1);
    }
    buf
}

/// Pairs from `(in, out)` stepping by one, with a gap of a few ids now and
/// then (always, when `gaps` is 1).
fn stretch(rng: &mut StdRng, first: (ItemId, ItemId), n: usize, gaps: u32) -> Vec<(u64, u64)> {
    let (mut i, mut o) = first;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((i, o));
        let gap = |rng: &mut StdRng| {
            if rng.gen_range(0..gaps) == 0 {
                rng.gen_range(1..4)
            } else {
                0
            }
        };
        i = i.wrapping_add(1 + gap(rng));
        o = o.wrapping_add(1 + gap(rng));
    }
    pairs
}

/// One random table of the given shape, as its pairs.
fn table(rng: &mut StdRng, shape: usize) -> Vec<(u64, u64)> {
    let n = rng.gen_range(0..200);
    let base = |rng: &mut StdRng, op: u64| (op << 48) | (rng.gen_range(0..4u64) << 32);
    match shape {
        // One stretch of consecutive ids; input ids may wrap past u64::MAX.
        0 => {
            let first_in = if rng.gen_bool(0.2) {
                u64::MAX - rng.gen_range(0..8u64)
            } else {
                base(rng, 3)
            };
            let first = (first_in, base(rng, 4));
            stretch(rng, first, n, u32::MAX)
        }
        // Scattered: gaps on either side split the runs.
        1 => {
            let (first, gaps) = ((base(rng, 3), base(rng, 4)), rng.gen_range(1..6));
            stretch(rng, first, n, gaps)
        }
        // Shuffled: the output ids no longer ascend.
        2 => {
            let first = (base(rng, 3), base(rng, 4));
            let mut pairs = stretch(rng, first, n, 3);
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..=i));
            }
            pairs
        }
        // Multi-partition: per-partition output numbering, partition order.
        _ => (0..rng.gen_range(1..5u64))
            .flat_map(|p| {
                let first = ((3 << 48) | (p << 32), (4 << 48) | (p << 32));
                let (len, gaps) = (rng.gen_range(0..60), rng.gen_range(1..20));
                stretch(rng, first, len, gaps)
            })
            .collect(),
    }
}

fn unary_op(oid: OpId, assoc: UnaryRuns) -> OperatorProvenance {
    OperatorProvenance {
        oid,
        op_type: "filter".into(),
        inputs: vec![InputProv {
            pred: Some(0),
            accessed: Some(vec![]),
        }],
        manipulated: Some(vec![]),
        assoc: ProvAssoc::Unary(assoc),
    }
}

/// `read → filter` with the filter's table given: enough of a view for
/// Alg. 1 to probe the table and land on the read.
struct FilterView {
    ops: Vec<OperatorProvenance>,
    schemas: Vec<DataType>,
}

impl FilterView {
    fn new(reads: Vec<ItemId>, table: UnaryRuns) -> Self {
        let read = OperatorProvenance {
            oid: 0,
            op_type: "read".into(),
            inputs: vec![InputProv {
                pred: None,
                accessed: None,
            }],
            manipulated: None,
            assoc: ProvAssoc::Read(reads),
        };
        let schema = DataType::item([("x", DataType::Int)]);
        FilterView {
            ops: vec![read, unary_op(1, table)],
            schemas: vec![schema.clone(), schema],
        }
    }
}

impl ProvView for FilterView {
    fn sink_op(&self) -> OpId {
        1
    }
    fn prov_ops(&self) -> &[OperatorProvenance] {
        &self.ops
    }
    fn schemas(&self) -> &[DataType] {
        &self.schemas
    }
    fn read_source(&self, _oid: OpId) -> pebble_dataflow::Result<String> {
        Ok("t".into())
    }
    fn countstar_outputs(&self, _oid: OpId) -> Vec<Path> {
        Vec::new()
    }
}

/// Run tables agree with the pair referee on contents, equality, chunk
/// bytes, chunked decoding and probes, over random tables of every shape.
#[test]
fn run_tables_agree_with_the_pair_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0042);
    let mut seen = [0usize; 4];
    let (mut permuted, mut probes) = (0, 0);
    for case in 0..800 {
        let shape = case % 4;
        let pairs = table(&mut rng, shape);
        let what = format!("case {case} (shape {shape}, {} pairs)", pairs.len());
        let runs = UnaryRuns::from_pairs(pairs.iter().copied());
        seen[shape] += runs.run_count();

        // Contents.
        assert_eq!(runs.len(), pairs.len(), "{what}: len");
        assert_eq!(runs.pairs().collect::<Vec<_>>(), pairs, "{what}: pairs");
        assert!(runs.iter().eq(pairs.iter()), "{what}: iter");
        let mut built = UnaryRuns::new();
        for (k, &(i, o)) in pairs.iter().enumerate() {
            assert_eq!(runs.get(k), Some((i, o)), "{what}: get({k})");
            built.push(i, o);
        }
        assert_eq!(built, runs, "{what}: push");
        if let Some(&(i, o)) = pairs.first() {
            let mut other = pairs.clone();
            other[0] = (i ^ 1, o);
            assert_ne!(UnaryRuns::from_pairs(other), runs, "{what}: ==");
        }

        // Bytes: one chunk, and the table split into chunks at arbitrary
        // points, each equal to the pair encoder's, decoding to one table.
        assert_eq!(
            chunk_unary(7, &runs),
            chunk_unary_of_pairs(7, &pairs),
            "{what}: chunk"
        );
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..4))
            .map(|_| rng.gen_range(0..=pairs.len()))
            .collect();
        cuts.extend([0, pairs.len()]);
        cuts.sort_unstable();
        let mut ops = vec![unary_op(0, UnaryRuns::new())];
        for w in cuts.windows(2) {
            let part = &pairs[w[0]..w[1]];
            let chunk = chunk_unary(0, &UnaryRuns::from_pairs(part.iter().copied()));
            assert_eq!(chunk, chunk_unary_of_pairs(0, part), "{what}: chunk part");
            apply_chunk(&chunk, &mut ops, pairs.len()).unwrap();
        }
        assert_eq!(
            ops[0].assoc,
            ProvAssoc::Unary(runs.clone()),
            "{what}: chunks"
        );

        // Probes: an ascending table in place, any other through its sort
        // permutation, against the referee's first pair with that output id.
        let mut reads: Vec<ItemId> = pairs.iter().map(|p| p.0).collect();
        reads.sort_unstable();
        reads.dedup();
        let view = FilterView::new(reads.clone(), runs.clone());
        let index = BacktraceIndex::build_ops(&view.ops);
        let ascending = runs.out_ids_ascend(true);
        if !ascending {
            permuted += 1;
            assert!(BacktraceIndex::from_sorted(&view.ops, vec![None, None]).is_err());
        }
        let misses = [0, 1 << 62, u64::MAX].map(|id| (id, None));
        let outs = pairs.iter().map(|&(i, o)| (o, Some(i)));
        for (out, referee) in outs.chain(misses) {
            let referee = pairs.iter().find(|p| p.1 == out).map(|p| p.0).or(referee);
            if ascending {
                assert_eq!(runs.input_of_ascending(out), referee, "{what}: out {out}");
            }
            let question = Backtrace {
                entries: vec![(out, ProvTree::from_paths(&[Path::attr("x")]))],
            };
            let answer = backtrace_from(&view, &index, question).unwrap();
            let traced: Vec<ItemId> = answer
                .iter()
                .flat_map(|s| s.entries.iter().map(|e| e.id))
                .collect();
            assert_eq!(traced, Vec::from_iter(referee), "{what}: probe {out}");
            probes += 1;
        }
    }
    // Not vacuous: every shape made runs, and both probe paths ran.
    assert!(seen.iter().all(|&n| n >= 100), "runs per shape {seen:?}");
    assert!(permuted >= 150, "{permuted} permuted tables");
    assert!(probes >= 50_000, "{probes} probes");
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The segments of the ten scenarios at 120 items and 1 or 3 partitions
/// are the bytes the pair-based store wrote (the digest was recorded with
/// the pair tables and the serial persist).
#[test]
fn persisted_segments_are_unchanged() {
    let runs = twitter_scenarios()
        .into_iter()
        .map(|s| (s, twitter_context(120)))
        .chain(dblp_scenarios().into_iter().map(|s| (s, dblp_context(120))));
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut n = 0;
    for (scenario, ctx) in runs {
        for parts in [1, 3] {
            let config = ExecConfig::with_partitions(parts);
            let run = run_captured(&scenario.program, &ctx, config).unwrap();
            h = fnv(h, &persist(&run));
            n += 1;
        }
    }
    assert_eq!((n, h), (20, 0x1658_2433_fb1c_1270), "{h:#018x}");
}
