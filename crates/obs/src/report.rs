//! The self-describing run report.
//!
//! [`RunReport`] is a plain-old-data summary of one engine run: the
//! per-operator metrics table, morsel/skew statistics, pool gauges, and the
//! provenance-size breakdown. [`RunReport::to_json`] renders it with a
//! stable key order under a `schema_version` field so downstream tooling
//! (bench bins, the CI smoke) can validate it structurally.

/// Version of the JSON layout emitted by [`RunReport::to_json`]. Bump on any
/// key rename/removal; additions are allowed within a version.
///
/// v2: duration summaries gained `p90_ns`/`p999_ns` (one log-bucketed layout
/// shared by every `_ns` histogram in the system), and the `serve` section
/// gained `query_durations`. Every duration field carries the `_ns` suffix
/// and is in nanoseconds; quantiles are bucket upper bounds clamped to the
/// observed maximum.
///
/// v3: the `backend` section lost its row-forcing flag (the vectorized
/// kernels are the engine, there is no row path to force); `columnar` stays
/// nullable for hand-built reports but every engine run fills it.
pub const REPORT_SCHEMA_VERSION: u64 = 3;

/// Escapes a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-operator metrics row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpReport {
    /// Operator id (equal to its index in the program).
    pub op: u64,
    /// Operator type name (`read`, `filter`, `join`, …).
    pub op_type: String,
    /// True when the operator can invoke user code (map / UDF predicates).
    pub udf: bool,
    /// Rows flowing into the operator (sum over its inputs).
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Morsels executed for the unit this operator heads (0 for fused
    /// non-head operators — their work is attributed to the chain head).
    pub morsels: u64,
    /// UDF panics caught and contained while running this operator.
    pub udf_panics: u64,
    /// Kernel nanoseconds attributed to this operator's unit (head only;
    /// populated only when metrics are enabled).
    pub busy_ns: u64,
    /// Provenance association-table entries recorded for this operator
    /// (0 when capture is off).
    pub assoc_entries: u64,
    /// Estimated bytes of those associations (id-payload estimate).
    pub assoc_bytes: u64,
    /// Bytes of this operator's state written to spill files (0 when the
    /// run had no memory budget or the operator never spilled).
    pub spill_bytes: u64,
}

/// Morsel-level statistics for skew diagnosis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MorselStats {
    /// Total morsels (tasks) executed.
    pub executed: u64,
    /// Smallest morsel, in input rows.
    pub min_rows: u64,
    /// Largest morsel, in input rows.
    pub max_rows: u64,
    /// Total rows across all morsels.
    pub total_rows: u64,
}

impl MorselStats {
    /// Mean rows per morsel (0.0 when none ran).
    pub fn mean_rows(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.total_rows as f64 / self.executed as f64
        }
    }

    /// Skew factor: largest morsel over the mean (1.0 = perfectly even).
    pub fn skew(&self) -> f64 {
        let mean = self.mean_rows();
        if mean == 0.0 {
            0.0
        } else {
            self.max_rows as f64 / mean
        }
    }

    /// Folds one morsel of `rows` input rows into the stats.
    pub fn observe(&mut self, rows: u64) {
        if self.executed == 0 || rows < self.min_rows {
            self.min_rows = rows;
        }
        if rows > self.max_rows {
            self.max_rows = rows;
        }
        self.executed += 1;
        self.total_rows += rows;
    }
}

/// Summary of a duration histogram (metrics-on runs only).
///
/// All fields are nanoseconds (`_ns` suffix convention); quantiles are
/// bucket upper bounds of the shared log-bucketed layout
/// ([`crate::metrics::LogHistogram`]), clamped to the observed maximum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurationSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
}

impl DurationSummary {
    /// Summarizes a histogram snapshot (shared by the run report, the
    /// service `STATS` document, and the bench bins — one layout, one
    /// quantile rule).
    pub fn from_snapshot(h: &crate::metrics::HistogramSnapshot) -> DurationSummary {
        let (p50, p90, p99, p999) = h.percentiles();
        DurationSummary {
            count: h.count,
            sum_ns: h.sum,
            p50_ns: p50,
            p90_ns: p90,
            p99_ns: p99,
            p999_ns: p999,
        }
    }

    /// Renders the summary as a one-line JSON object (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
             \"p99_ns\": {}, \"p999_ns\": {}}}",
            self.count, self.sum_ns, self.p50_ns, self.p90_ns, self.p99_ns, self.p999_ns,
        )
    }
}

/// Worker-pool gauges sampled (lock-free) during the run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Pool size (worker threads).
    pub workers: u64,
    /// Jobs this run handed to the pool (morsels not run inline).
    pub jobs: u64,
    /// Highest queue depth observed by the scheduler's samples.
    pub max_queue_depth: u64,
    /// Highest concurrently-active worker count observed.
    pub max_active: u64,
}

/// Provenance capture size breakdown (capture runs only).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProvenanceStats {
    /// Association-table entries across all operators.
    pub entries: u64,
    /// Exact bytes of lineage ids (Tab. 6 associations).
    pub lineage_bytes: u64,
    /// Exact bytes of structural extras (paths, shapes).
    pub structural_bytes: u64,
}

/// Vectorized-kernel statistics. The engine fills them for every run;
/// hand-built reports may leave the section out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnarStats {
    /// Column batches materialized by vectorized select stages.
    pub batches: u64,
    /// Rows-per-batch distribution over the morsels fed to vectorized
    /// chains (same shape as the morsel statistics).
    pub batch_rows: MorselStats,
    /// Rows considered by vectorized filter stages.
    pub filter_in: u64,
    /// Rows those filters kept (selection-vector survivors).
    pub filter_kept: u64,
    /// Id runs fused chains handed to the provenance sink.
    pub id_ranges: u64,
    /// Associations the row chain kernel (UDF-hosting units) recorded
    /// row by row before they coalesced into runs.
    pub id_pairs: u64,
    /// Chain units that ran on the row kernel because their plan hosts
    /// user code (UDF stages) or a select with duplicate labels.
    pub fallback_units: u64,
}

impl ColumnarStats {
    /// Fraction of filter-considered rows that survived (1.0 when no
    /// vectorized filter ran).
    pub fn selection_density(&self) -> f64 {
        if self.filter_in == 0 {
            1.0
        } else {
            self.filter_kept as f64 / self.filter_in as f64
        }
    }
}

/// Query-service counters (populated by `pebble-serve` when a run report
/// is assembled for a serving session).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Connections the service accepted.
    pub connections: u64,
    /// Query requests parsed and executed.
    pub queries: u64,
    /// Queries that ended in an `ERROR` frame.
    pub errors: u64,
    /// Query jobs whose panic was contained by the pool.
    pub panics_contained: u64,
    /// Response frames written to clients.
    pub frames_sent: u64,
    /// End-to-end query latency distribution, ns (metrics-on services
    /// only; same bucket layout as every other `_ns` histogram).
    pub query_durations: Option<DurationSummary>,
}

/// Out-of-core execution statistics (populated only when the run had a
/// memory budget, i.e. `ExecConfig::mem_budget_bytes > 0`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpillStats {
    /// The configured budget, bytes.
    pub budget_bytes: u64,
    /// High-water mark of tracked pipeline-resident bytes.
    pub peak_tracked_bytes: u64,
    /// Spill events (operator outputs, grace-join bucket sets, group
    /// shuffle bucket sets written to disk).
    pub spills: u64,
    /// Total bytes written to executor spill files.
    pub spill_bytes: u64,
    /// Reload events (spilled blocks or buckets read back).
    pub reloads: u64,
    /// Capture-sink association chunks spilled to disk.
    pub capture_spills: u64,
    /// Total bytes of spilled capture association chunks.
    pub capture_spill_bytes: u64,
}

/// Capture-backend identification (populated by `run_for_backend` when a
/// run executes on behalf of a named provenance backend).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendStats {
    /// Registry name of the backend (`structural`, `whynot`, …).
    pub name: String,
}

/// A structured, serializable summary of one engine run.
///
/// Built for every run (cheap counters are always on); timing fields,
/// duration histograms and pool gauges are only populated when metrics were
/// enabled for the run. Reading the report never perturbs the run's rows,
/// ids, or provenance — it is assembled from side counters after the fact.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Layout version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Which executor produced the run: `pool`, or `reference` (the oracle).
    pub executor: String,
    /// Whether metrics collection was enabled.
    pub metrics: bool,
    /// `ok` or `error`.
    pub outcome: String,
    /// The contained error's display string, when `outcome == "error"`.
    pub error: Option<String>,
    /// Partition count the run used.
    pub partitions: u64,
    /// Worker threads the run used.
    pub workers: u64,
    /// Configured morsel row cap (0 = auto).
    pub morsel_rows: u64,
    /// Wall-clock nanoseconds for the run (metrics runs only, else 0).
    pub elapsed_ns: u64,
    /// Source datasets read by the program: `(name, rows)`.
    pub sources: Vec<(String, u64)>,
    /// Per-operator metrics table, indexed by operator id.
    pub operators: Vec<OpReport>,
    /// Morsel/skew statistics.
    pub morsels: MorselStats,
    /// Morsel duration distribution (metrics runs only).
    pub morsel_durations: Option<DurationSummary>,
    /// Pool gauges (pool executor with metrics only).
    pub pool: Option<PoolStats>,
    /// Provenance size breakdown (capture runs only).
    pub provenance: Option<ProvenanceStats>,
    /// Vectorized-kernel statistics (every engine run).
    pub columnar: Option<ColumnarStats>,
    /// Query-service counters (serving sessions only).
    pub serve: Option<ServeStats>,
    /// Out-of-core execution statistics (memory-budgeted runs only).
    pub spill: Option<SpillStats>,
    /// Capture-backend identification (backend-driven runs only).
    pub backend: Option<BackendStats>,
    /// Number of span events recorded (tracing runs only).
    pub spans: u64,
}

impl Default for RunReport {
    fn default() -> Self {
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            executor: String::new(),
            metrics: false,
            outcome: String::new(),
            error: None,
            partitions: 0,
            workers: 0,
            morsel_rows: 0,
            elapsed_ns: 0,
            sources: Vec::new(),
            operators: Vec::new(),
            morsels: MorselStats::default(),
            morsel_durations: None,
            pool: None,
            provenance: None,
            columnar: None,
            serve: None,
            spill: None,
            backend: None,
            spans: 0,
        }
    }
}

impl RunReport {
    /// Total UDF panics caught across all operators.
    pub fn udf_panics(&self) -> u64 {
        self.operators.iter().map(|o| o.udf_panics).sum()
    }

    /// Renders the report as JSON with a stable key order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512 + self.operators.len() * 192);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        s.push_str(&format!(
            "  \"executor\": \"{}\",\n",
            json_escape(&self.executor)
        ));
        s.push_str(&format!("  \"metrics\": {},\n", self.metrics));
        s.push_str(&format!(
            "  \"outcome\": \"{}\",\n",
            json_escape(&self.outcome)
        ));
        match &self.error {
            Some(e) => s.push_str(&format!("  \"error\": \"{}\",\n", json_escape(e))),
            None => s.push_str("  \"error\": null,\n"),
        }
        s.push_str(&format!("  \"partitions\": {},\n", self.partitions));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"morsel_rows\": {},\n", self.morsel_rows));
        s.push_str(&format!("  \"elapsed_ns\": {},\n", self.elapsed_ns));
        s.push_str("  \"sources\": [");
        for (i, (name, rows)) in self.sources.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"rows\": {}}}",
                json_escape(name),
                rows
            ));
        }
        s.push_str("],\n");
        s.push_str("  \"operators\": [\n");
        for (i, o) in self.operators.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"op\": {}, \"type\": \"{}\", \"udf\": {}, \"rows_in\": {}, \
                 \"rows_out\": {}, \"morsels\": {}, \"udf_panics\": {}, \"busy_ns\": {}, \
                 \"assoc_entries\": {}, \"assoc_bytes\": {}, \"spill_bytes\": {}}}{}\n",
                o.op,
                json_escape(&o.op_type),
                o.udf,
                o.rows_in,
                o.rows_out,
                o.morsels,
                o.udf_panics,
                o.busy_ns,
                o.assoc_entries,
                o.assoc_bytes,
                o.spill_bytes,
                if i + 1 < self.operators.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"morsels\": {{\"executed\": {}, \"min_rows\": {}, \"max_rows\": {}, \
             \"total_rows\": {}, \"mean_rows\": {:.3}, \"skew\": {:.3}}},\n",
            self.morsels.executed,
            self.morsels.min_rows,
            self.morsels.max_rows,
            self.morsels.total_rows,
            self.morsels.mean_rows(),
            self.morsels.skew(),
        ));
        match &self.morsel_durations {
            Some(d) => s.push_str(&format!("  \"morsel_durations\": {},\n", d.to_json())),
            None => s.push_str("  \"morsel_durations\": null,\n"),
        }
        match &self.pool {
            Some(p) => s.push_str(&format!(
                "  \"pool\": {{\"workers\": {}, \"jobs\": {}, \"max_queue_depth\": {}, \
                 \"max_active\": {}}},\n",
                p.workers, p.jobs, p.max_queue_depth, p.max_active,
            )),
            None => s.push_str("  \"pool\": null,\n"),
        }
        match &self.provenance {
            Some(p) => s.push_str(&format!(
                "  \"provenance\": {{\"entries\": {}, \"lineage_bytes\": {}, \
                 \"structural_bytes\": {}}},\n",
                p.entries, p.lineage_bytes, p.structural_bytes,
            )),
            None => s.push_str("  \"provenance\": null,\n"),
        }
        match &self.columnar {
            Some(c) => s.push_str(&format!(
                "  \"columnar\": {{\"batches\": {}, \"batch_rows\": {{\"executed\": {}, \
                 \"min_rows\": {}, \"max_rows\": {}, \"total_rows\": {}, \"mean_rows\": {:.3}}}, \
                 \"filter_in\": {}, \"filter_kept\": {}, \"selection_density\": {:.3}, \
                 \"id_ranges\": {}, \"id_pairs\": {}, \"fallback_units\": {}}},\n",
                c.batches,
                c.batch_rows.executed,
                c.batch_rows.min_rows,
                c.batch_rows.max_rows,
                c.batch_rows.total_rows,
                c.batch_rows.mean_rows(),
                c.filter_in,
                c.filter_kept,
                c.selection_density(),
                c.id_ranges,
                c.id_pairs,
                c.fallback_units,
            )),
            None => s.push_str("  \"columnar\": null,\n"),
        }
        match &self.serve {
            Some(v) => s.push_str(&format!(
                "  \"serve\": {{\"connections\": {}, \"queries\": {}, \"errors\": {}, \
                 \"panics_contained\": {}, \"frames_sent\": {}, \"query_durations\": {}}},\n",
                v.connections,
                v.queries,
                v.errors,
                v.panics_contained,
                v.frames_sent,
                match &v.query_durations {
                    Some(d) => d.to_json(),
                    None => "null".into(),
                },
            )),
            None => s.push_str("  \"serve\": null,\n"),
        }
        match &self.spill {
            Some(p) => s.push_str(&format!(
                "  \"spill\": {{\"budget_bytes\": {}, \"peak_tracked_bytes\": {}, \
                 \"spills\": {}, \"spill_bytes\": {}, \"reloads\": {}, \
                 \"capture_spills\": {}, \"capture_spill_bytes\": {}}},\n",
                p.budget_bytes,
                p.peak_tracked_bytes,
                p.spills,
                p.spill_bytes,
                p.reloads,
                p.capture_spills,
                p.capture_spill_bytes,
            )),
            None => s.push_str("  \"spill\": null,\n"),
        }
        match &self.backend {
            Some(b) => s.push_str(&format!(
                "  \"backend\": {{\"name\": \"{}\"}},\n",
                json_escape(&b.name),
            )),
            None => s.push_str("  \"backend\": null,\n"),
        }
        s.push_str(&format!("  \"spans\": {}\n", self.spans));
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn morsel_stats() {
        let mut m = MorselStats::default();
        m.observe(10);
        m.observe(2);
        m.observe(30);
        assert_eq!(m.executed, 3);
        assert_eq!(m.min_rows, 2);
        assert_eq!(m.max_rows, 30);
        assert_eq!(m.total_rows, 42);
        assert!((m.mean_rows() - 14.0).abs() < 1e-9);
        assert!((m.skew() - 30.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn default_carries_schema_version() {
        let r = RunReport::default();
        assert_eq!(r.schema_version, REPORT_SCHEMA_VERSION);
        let json = r.to_json();
        assert!(json.contains("\"schema_version\": 3"));
        assert!(json.contains("\"error\": null"));
        assert!(json.contains("\"pool\": null"));
    }

    #[test]
    fn duration_summary_renders_all_quantiles() {
        let d = DurationSummary {
            count: 4,
            sum_ns: 100,
            p50_ns: 20,
            p90_ns: 30,
            p99_ns: 40,
            p999_ns: 40,
        };
        let json = d.to_json();
        for key in ["count", "sum_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        let r = RunReport {
            serve: Some(ServeStats {
                queries: 1,
                query_durations: Some(d),
                ..ServeStats::default()
            }),
            ..RunReport::default()
        };
        assert!(r.to_json().contains("\"query_durations\": {\"count\": 4"));
    }

    #[test]
    fn json_has_stable_keys() {
        let mut r = RunReport {
            executor: "pool".into(),
            outcome: "ok".into(),
            ..RunReport::default()
        };
        r.operators.push(OpReport {
            op: 0,
            op_type: "read".into(),
            ..OpReport::default()
        });
        r.pool = Some(PoolStats {
            workers: 4,
            jobs: 9,
            max_queue_depth: 3,
            max_active: 4,
        });
        let json = r.to_json();
        for key in [
            "schema_version",
            "executor",
            "metrics",
            "outcome",
            "error",
            "partitions",
            "workers",
            "morsel_rows",
            "elapsed_ns",
            "sources",
            "operators",
            "morsels",
            "morsel_durations",
            "pool",
            "provenance",
            "columnar",
            "serve",
            "spill",
            "backend",
            "spans",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing key {key}");
        }
    }
}
